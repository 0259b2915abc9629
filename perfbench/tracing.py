"""Spans around the program's layer boundaries, recorded from outside.

``Tracer.install`` replaces each traced function at every module attribute of
the ``mpreg`` package that refers to it (``mpreg.regularity.h_bundle``,
``mpreg.splitting.reg``, ...), so calls between modules and inside one module
both pass through the wrapper.  A span has a name, a start, an end and a
parent (the innermost open span); its self time is its duration minus the
durations of its children.  Spans are folded into per-name totals as they
close, because a sweep opens millions of them; the benchmark's own request
spans are kept whole, with the time each spent inside ``reg``.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter_ns


def _theorem_name(args, kwargs):
    theorem = args[1] if len(args) > 1 else kwargs["theorem"]
    return "splitting.verify_theorem." + getattr(theorem, "value", theorem)


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return "cli.main." + (argv[0] if argv else "none")


# (module, function, span name or a function of the call's arguments)
TRACED = (
    ("harness", "enumerate_bundles", "harness.enumerate_bundles"),
    ("harness", "run_verification", "harness.run_verification"),
    ("splitting", "verify_theorem", _theorem_name),
    ("splitting", "applicability", "splitting.applicability"),
    ("splitting", "condition_for", "splitting.condition_for"),
    ("splitting", "detect_extremal_summand", "splitting.detect_extremal_summand"),
    ("splitting", "is_acm", "splitting.is_acm"),
    ("regularity", "reg", "regularity.reg"),
    ("regularity", "is_regular_at", "regularity.is_regular_at"),
    ("cohomology", "h_bundle", "cohomology.h_bundle"),
    ("cohomology", "nonvanishing_t_window", "cohomology.nonvanishing_t_window"),
    ("cohomology", "build_table", "cohomology.build_table"),
    ("bundles", "parse_bundle", "bundles.parse_bundle"),
    ("bundles", "format_bundle", "bundles.format_bundle"),
    ("cli", "main", _cli_name),
)

REG = "regularity.reg"
WALK_STEP = "regularity.is_regular_at"
VERDICT = "splitting.verify_theorem."


class _Span:
    __slots__ = ("name", "start", "child_ns")

    def __init__(self, name: str):
        self.name = name
        self.child_ns = 0
        self.start = perf_counter_ns()


class Tracer:
    def __init__(self):
        self.stack: list[_Span] = []
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.walk_steps = 0  # is_regular_at spans opened directly under reg
        self.reg_in_verdicts = 0  # reg spans opened under a verify_theorem span
        self.open_verdicts = 0
        # {"applicable": [verdicts, reg calls], "not_applicable": [...]}
        self.verdict_regs = {"applicable": [0, 0], "not_applicable": [0, 0]}
        self.open_regs = 0
        self.requests: list[tuple[int, int]] = []  # (duration, ns inside reg)
        self._reg_ns = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> _Span:
        if name == REG:
            if self.open_verdicts:
                self.reg_in_verdicts += 1
            self.open_regs += 1
        elif name == WALK_STEP:
            if self.stack and self.stack[-1].name == REG:
                self.walk_steps += 1
        elif name.startswith(VERDICT):
            self.open_verdicts += 1
        self.calls[name] = self.calls.get(name, 0) + 1
        span = _Span(name)
        self.stack.append(span)
        return span

    def _close(self, span: _Span) -> None:
        dur = perf_counter_ns() - span.start
        self.stack.pop()
        name = span.name
        self.self_ns[name] = self.self_ns.get(name, 0) + dur - span.child_ns
        if self.stack:
            self.stack[-1].child_ns += dur
        if name == REG:
            self.open_regs -= 1
            if not self.open_regs:
                self._reg_ns += dur
        elif name.startswith(VERDICT):
            self.open_verdicts -= 1

    def request(self, fn, *args):
        """Run one benchmark request as a root span and keep its totals."""
        self._reg_ns = 0
        start = perf_counter_ns()
        result = fn(*args)
        self.requests.append((perf_counter_ns() - start, self._reg_ns))
        return result

    # -- patching ----------------------------------------------------------

    def _wrap(self, fn, naming):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # time each step of the generator, counted as one call
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                name = naming if isinstance(naming, str) else naming(args, kwargs)
                it = fn(*args, **kwargs)
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                while True:
                    span = _Span(name)
                    tracer.stack.append(span)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(span)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = naming if isinstance(naming, str) else naming(args, kwargs)
            span = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)

        if naming is not _theorem_name:
            return wrapper

        @functools.wraps(fn)
        def verdict_wrapper(*args, **kwargs):
            regs = tracer.reg_in_verdicts
            verdict = wrapper(*args, **kwargs)
            bucket = tracer.verdict_regs["applicable" if verdict.applicable else "not_applicable"]
            bucket[0] += 1
            bucket[1] += tracer.reg_in_verdicts - regs
            return verdict

        return verdict_wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "mpreg" or n.startswith("mpreg.")]
        for home, func, naming in TRACED:
            target = getattr(sys.modules["mpreg." + home], func)
            wrapper = self._wrap(target, naming)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is target:
                        self._patched.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

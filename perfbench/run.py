"""Benchmark of mpreg: one workload per run, in a fresh interpreter.

    python3 perfbench/run.py --workload sweep_windows --seed 1 --seconds 30 --trace 0

Runs whole rounds of the workload's seeded requests (at least 100 each, so
a round's 90th percentile has ten samples beyond it) until ``--seconds`` of
wall time have passed, checks the first round's answers against the
benchmark's own evaluation, and prints one JSON object as its last line.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
times half the run untraced and half traced and reports the per-layer
metrics (see README.md).  Result and trace files go to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_REPEATS = 9
REF_NOMINAL_S = 0.002  # CPU seconds of one reference() on an idle core here
CACHES = ("summand_h_vector", "atom_h_vector")
VERDICT_IDS = ("T3", "T2B", "T0", "T4")
SUBCOMMANDS = ("cohomology", "reg", "acm", "check", "classify")


def reference(n: int = 3000) -> int:
    """Fixed interpreter-bound work (dict, tuple, int and str operations)
    whose CPU time tracks how fast this core runs right now."""
    table: dict = {}
    acc = 0
    for i in range(n):
        key = (i & 127, i >> 7)
        table[key] = table.get(key, 0) + i * 3
        acc += len(str(i))
    return acc + len(table)


class Calibration:
    """Samples of reference(), one before every request.

    The cores are shared with other tenants, and the CPU time of the same
    work swings by a quarter over tens of seconds.  Every CPU time the
    benchmark reports is multiplied by REF_NOMINAL_S over the mean reference
    time sampled in the same round, which cancels most of that swing; the
    uncalibrated figures are kept in the result file.  The collector is off
    while the reference runs, so a collection the program's heap is due
    does not land in it."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.process_time()
            reference()
            self.samples.append(time.process_time() - start)
        finally:
            if enabled:
                gc.enable()

    def scale(self) -> float:
        return REF_NOMINAL_S / statistics.mean(self.samples)


def import_mpreg() -> None:
    """Import mpreg from this checkout as a new interpreter would."""
    for name in [m for m in sys.modules if m == "mpreg" or m.startswith("mpreg.")]:
        del sys.modules[name]
    importlib.import_module("mpreg")
    importlib.import_module("mpreg.cli")


def setup(workload, seed: int):
    """Import mpreg and make the inputs, several times; the median CPU time."""
    times = []
    for _ in range(SETUP_REPEATS):
        cal = Calibration()
        for _ in range(5):
            cal.sample()
        start = time.process_time()
        import_mpreg()
        requests = workload.make(seed)
        if workload.prepare:
            workload.prepare()
        elapsed = time.process_time() - start
        for _ in range(5):
            cal.sample()
        times.append(elapsed * cal.scale())
    mpreg = sys.modules["mpreg"]
    if Path(mpreg.__file__).resolve().parent != SRC / "mpreg":
        raise ImportError(f"mpreg was imported from {mpreg.__file__}, not from {SRC}")
    return statistics.median(times), requests


def program_caches() -> dict:
    """Every lru_cache in the program, by qualified name."""
    caches = {}
    for name, module in list(sys.modules.items()):
        if name == "mpreg" or name.startswith("mpreg."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                    caches[f"{value.__module__}.{value.__qualname__}"] = value
    return caches


class GcPauses:
    """A ``gc.callbacks`` hook adding up the CPU time of each collection."""

    def __init__(self):
        self.cpu = 0.0
        self.full = 0
        self._start = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._start = time.process_time()
        else:
            self.cpu += time.process_time() - self._start
            self.full += info["generation"] == 2


class Rounds:
    """Whole rounds of one workload's requests, each from empty caches."""

    def __init__(self, workload, requests):
        self.workload = workload
        self.requests = requests
        self.caches = program_caches()
        self.cache_totals = None  # hits and misses of CACHES, while tracing
        self.answers = None  # the first round's answers, for the checks
        self.digests = None
        self.mismatched = set()  # requests whose answer changed between rounds
        self.raised: dict[int, str] = {}

    def reset(self) -> None:
        for name, cache in self.caches.items():
            short = name.rsplit(".", 1)[-1]
            if self.cache_totals is not None and short in CACHES:
                info = cache.cache_info()
                totals = self.cache_totals.setdefault(short, [0, 0])
                totals[0] += info.hits
                totals[1] += info.misses
            cache.cache_clear()

    def run(self, seconds: float, tracer=None) -> list[dict]:
        """Rounds until ``seconds`` have passed.  Per round: the CPU seconds
        of each request, the part of them spent in the cyclic garbage
        collector, the number of full collections, the bundles handled and
        the Calibration scale."""
        execute = self.workload.execute
        if tracer is not None:
            execute = lambda req, _run=self.workload.execute: tracer.request(_run, req)
        pauses = GcPauses()
        rounds = []
        deadline = time.perf_counter() + seconds
        gc.callbacks.append(pauses)
        try:
            while not rounds or time.perf_counter() < deadline:
                self.reset()
                gc.collect()
                pauses.full = 0
                cal = Calibration()
                cpu, in_gc, answers, bundles = [], [], [], 0
                for j, req in enumerate(self.requests):
                    cal.sample()
                    pauses.cpu = 0.0
                    start = time.process_time()
                    try:
                        count, answer = execute(req)
                    except Exception as exc:  # a failed request is counted, not fatal
                        count, answer = 0, None
                        self.raised.setdefault(j, f"{type(exc).__name__}: {exc}")
                    cpu.append(time.process_time() - start)
                    in_gc.append(pauses.cpu)
                    bundles += count
                    answers.append(answer)
                self._keep(answers)
                rounds.append({"cpu": cpu, "gc": in_gc, "full_gc": pauses.full,
                               "bundles": bundles, "scale": cal.scale()})
        finally:
            gc.callbacks.remove(pauses)
        self.reset()
        return rounds

    def _keep(self, answers) -> None:
        digests = [None if a is None else self.workload.digest(a) for a in answers]
        if self.answers is None:
            self.answers, self.digests = answers, digests
            return
        for j, (old, new) in enumerate(zip(self.digests, digests)):
            if old != new:
                self.mismatched.add(j)

    def check(self) -> list[list[str]]:
        errors = self.workload.check(self.requests, self.answers)
        for j, message in self.raised.items():
            errors[j].append(message)
        for j in self.mismatched:
            errors[j].append("answer changed between rounds")
        return errors


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(rounds: Rounds, seconds: float, setup_s: float):
    """Throughput is taken per round and reported as the median over the
    rounds, so a burst of load from outside moves one round, not the result.
    The latency of a request is the median of its times over the rounds, and
    the percentiles are taken over the requests of a round, so a burst that
    slows a few requests in one round does not reach them.  Throughput counts
    all CPU time.  Latency leaves out the pauses of the cyclic garbage
    collector: a full collection walks every cached object and lands on
    whichever request crosses the allocation threshold, so the tail would
    depend on the seed through where the pauses land (see README.md).  The
    result file also keeps the figures without calibration."""
    done = rounds.run(seconds)
    rss = peak_rss_mb()
    figures, raw = {}, {}
    for out, calibrated in ((figures, True), (raw, False)):
        scales = [rnd["scale"] if calibrated else 1.0 for rnd in done]
        rates = [rnd["bundles"] / (sum(rnd["cpu"]) * s) for rnd, s in zip(done, scales)]
        typical = [statistics.median(times) for times in zip(*(
            [(c - g) * s for c, g in zip(rnd["cpu"], rnd["gc"])] for rnd, s in zip(done, scales)))]
        deciles = statistics.quantiles(typical, n=10, method="inclusive")
        out.update(bundles_per_s_by_round=rates, bundles_per_s=statistics.median(rates),
                   query_p50_ms=deciles[4] * 1e3, query_p90_ms=deciles[8] * 1e3)
    metrics = {
        "setup_s": (setup_s, "s"),
        "bundles_per_s": (figures["bundles_per_s"], "1/s"),
        "query_p50_ms": (figures["query_p50_ms"], "ms"),
        "query_p90_ms": (figures["query_p90_ms"], "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    extra = {"rounds": len(done), "calibrated": figures, "raw": raw,
             "gc_s_by_round": [sum(rnd["gc"]) for rnd in done],
             "scale_by_round": [rnd["scale"] for rnd in done]}
    return len(done), metrics, extra


def per_layer(rounds: Rounds, seconds: float):
    from tracing import Tracer

    untraced = rounds.run(seconds / 2)
    tracer = Tracer()
    rounds.cache_totals = {}
    tracer.install()
    try:
        traced = rounds.run(seconds / 2, tracer)
    finally:
        tracer.uninstall()
    cache_totals, rounds.cache_totals = rounds.cache_totals, None
    count = len(traced)

    def per_round(value):
        return value / count

    def self_ms(name):
        return per_round(tracer.self_ns.get(name, 0) / 1e6)

    def calls(name):
        return per_round(tracer.calls.get(name, 0))

    m = {}
    for name in ("harness.enumerate_bundles", "harness.run_verification"):
        m[f"{name}.self_ms"] = (self_ms(name), "ms")
    for tid in VERDICT_IDS:
        name = f"splitting.verify_theorem.{tid}"
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_ms"] = (self_ms(name), "ms")
    for name in ("applicability", "condition_for", "detect_extremal_summand", "is_acm"):
        m[f"splitting.{name}.self_ms"] = (self_ms(f"splitting.{name}"), "ms")
    verdicts = sum(n for k, n in tracer.calls.items() if k.startswith("splitting.verify_theorem."))
    m["splitting.reg_calls_per_verdict"] = (tracer.reg_in_verdicts / verdicts if verdicts else 0.0, "count")
    for name in ("regularity.reg", "regularity.is_regular_at", "cohomology.h_bundle",
                 "cohomology.nonvanishing_t_window"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_ms"] = (self_ms(name), "ms")
    regs = tracer.calls.get("regularity.reg", 0)
    m["regularity.walk_steps_per_reg"] = (tracer.walk_steps / regs if regs else 0.0, "count")
    m["cohomology.build_table.self_ms"] = (self_ms("cohomology.build_table"), "ms")
    for cache in CACHES:
        hits, misses = cache_totals.get(cache, (0, 0))
        m[f"cohomology.{cache}.hits"] = (per_round(hits), "count")
        m[f"cohomology.{cache}.misses"] = (per_round(misses), "count")
    for name in ("bundles.parse_bundle", "bundles.format_bundle"):
        m[f"{name}.self_ms"] = (self_ms(name), "ms")
    for sub in SUBCOMMANDS:
        m[f"cli.main.{sub}.self_ms"] = (self_ms(f"cli.main.{sub}"), "ms")

    # where the slowest tenth of the requests spent its time
    durations = sorted(tracer.requests, reverse=True)
    tail = durations[: max(1, len(durations) // 10)]
    m["regularity.reg.tail_share_pct"] = (
        100.0 * sum(r for _, r in tail) / sum(d for d, _ in tail), "%")
    m["trace.total_ms"] = (per_round(sum(d for d, _ in tracer.requests) / 1e6), "ms")
    m["gc.pause_ms"] = (per_round(sum(sum(rnd["gc"]) for rnd in traced) * 1e3), "ms")
    m["gc.full_collections"] = (per_round(sum(rnd["full_gc"] for rnd in traced)), "count")
    base = statistics.median(sum(rnd["cpu"]) * rnd["scale"] for rnd in untraced)
    cost = statistics.median(sum(rnd["cpu"]) * rnd["scale"] for rnd in traced)
    m["trace.overhead_pct"] = (100.0 * (cost - base) / base, "%")
    extra = {
        "untraced_rounds": len(untraced),
        "traced_rounds": count,
        "calls": tracer.calls,
        "reg_calls_by_verdict_applicability": {  # [verdicts, reg calls] per round
            k: [per_round(n) for n in v] for k, v in tracer.verdict_regs.items()},
        "self_ms": {k: v / 1e6 for k, v in tracer.self_ns.items()},
    }
    return len(untraced) + count, m, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mpreg" / "__init__.py").is_file():
        print(f"error: no mpreg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    setup_s, requests = setup(workload, args.seed)

    rounds = Rounds(workload, requests)
    if args.trace:
        count, metrics, extra = per_layer(rounds, args.seconds)
    else:
        count, metrics, extra = end_to_end(rounds, args.seconds, setup_s)

    start = time.perf_counter()
    errors = rounds.check()
    extra["check_s"] = time.perf_counter() - start
    bad = sum(1 for e in errors if e)
    result = {
        "correct": bad == 0,
        "attempted": count * len(requests),
        "failed": count * bad,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    detail = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "requests_per_round": len(requests),
        "errors": {str(j): e for j, e in enumerate(errors) if e},
        **extra,
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    for j, e in enumerate(errors):
        for message in e:
            print(f"check failed on request {j}: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

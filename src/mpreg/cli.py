"""Command line interface.

Exit codes: 0 success, 2 parse/config/range problem, 3 inconsistent verdict,
4 precondition violation.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import replace
from gettext import gettext
from json.encoder import encode_basestring_ascii
from typing import Optional

from .bundles import (
    Bundle,
    ModelError,
    format_bundle,
    format_space,
    parse_bundle,
    rank,
)
from .cohomology import build_table
from .harness import (
    ConfigError,
    EnumerationConfig,
    load_config,
    parse_range,
    run_verification,
)
from .regularity import DEFINITIONS, is_regular_at, reg, regularity_failures
from .splitting import (
    PreconditionError,
    TheoremId,
    acm_witnesses,
    classify_form,
    detect_extremal_summand,
    verify_theorem,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCONSISTENT = 3
EXIT_PRECONDITION = 4


def _parse_twist_box(value: str, num_factors: int) -> tuple[tuple[int, int], ...]:
    boxes = [parse_range(part.strip()) for part in value.split(",")]
    if len(boxes) == 1 and num_factors > 1:
        boxes = boxes * num_factors
    if len(boxes) != num_factors:
        raise ConfigError(
            f"twist ranges list {len(boxes)} factors but the space has {num_factors}"
        )
    return tuple(boxes)


def _load_bundle(args) -> Bundle:
    _, bundle = parse_bundle(args.space, args.bundle)
    return bundle


def _json(value, indent: str, parts: list) -> None:
    """Append value to parts as json.dumps(value, indent=2, sort_keys=True)
    writes it, in one recursive pass: the stdlib's indenting encoder is its
    pure-Python one, which makes a generator per container."""
    if isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key in sorted(value):
            parts += (sep, encode_basestring_ascii(key), ": ")
            _json(value[key], inner, parts)
            sep = ",\n" + inner
        parts.append("\n" + indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for item in value:
            parts.append(sep)
            _json(item, inner, parts)
            sep = ",\n" + inner
        parts.append("\n" + indent + "]")
    else:  # floats, and the stdlib's TypeError for anything it cannot write
        parts.append(json.dumps(value))


def _write_json(payload: dict, out) -> None:
    parts = []
    _json(payload, "", parts)
    parts.append("\n")
    out.write("".join(parts))


def _write_text(lines: list[str], out) -> None:
    out.write("\n".join(lines) + "\n")


def cmd_cohomology(args, out) -> int:
    bundle = _load_bundle(args)
    box = _parse_twist_box(args.twist_range, bundle.space.num_factors)
    table = build_table(bundle, box)
    entries = sorted(table.entries.items())
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        s = bundle.space.num_factors
        writer.writerow(["i"] + [f"t_{j + 1}" for j in range(s)] + ["dim"])
        for (i, tvec), dim in entries:
            writer.writerow([i, *tvec, dim])
        out.write(buf.getvalue())
    elif args.format == "json":
        _write_json({
            "space": bundle.space.dims,
            "bundle": format_bundle(bundle),
            "entries": [{"i": i, "t": tvec, "dim": str(dim)} for (i, tvec), dim in entries],
        }, out)
    else:
        lines = [f"space: {format_space(bundle.space)}", f"bundle: {format_bundle(bundle)}"]
        lines += [f"h^{i}{tvec} = {dim}" for (i, tvec), dim in entries]
        if not entries:
            lines.append("all groups in the requested box vanish")
        _write_text(lines, out)
    return EXIT_OK


def cmd_reg(args, out) -> int:
    bundle = _load_bundle(args)
    p = reg(bundle, args.definition)
    monotone_checked = is_regular_at(bundle, p + 1, args.definition)
    if args.format == "json":
        failures = regularity_failures(bundle, p - 1, args.definition)
        _write_json({
            "space": bundle.space.dims,
            "bundle": format_bundle(bundle),
            "definition": args.definition,
            "value": p,
            "monotone_checked": monotone_checked,
            "failures": [{"i": i, "k": k, "dim": str(dim)} for i, k, dim in failures],
        }, out)
    else:
        _write_text([
            f"bundle: {format_bundle(bundle)} on {format_space(bundle.space)}",
            f"Reg ({args.definition}) = {p}",
            f"monotone step checked: {monotone_checked}",
        ], out)
    return EXIT_OK


def cmd_acm(args, out) -> int:
    bundle = _load_bundle(args)
    witnesses = acm_witnesses(bundle)
    verdict = not witnesses
    if args.format == "json":
        _write_json({
            "space": bundle.space.dims,
            "bundle": format_bundle(bundle),
            "acm": verdict,
            "witnesses": [w.to_json() for w in witnesses],
        }, out)
    else:
        lines = [f"bundle: {format_bundle(bundle)} on {format_space(bundle.space)}",
                 "ACM: yes" if verdict else "ACM: no"]
        for w in witnesses:
            lines.append(f"  witness: h^{w.i} at t={w.t} offset {w.k} has dim {w.dim}")
        _write_text(lines, out)
    return EXIT_OK


def cmd_check(args, out) -> int:
    bundle = _load_bundle(args)
    verdict = verify_theorem(bundle, TheoremId(args.theorem))
    if args.format == "json":
        _write_json({
            "theorem": verdict.theorem.value,
            "space": bundle.space.dims,
            "bundle": format_bundle(bundle),
            "applicable": verdict.applicable,
            "reason": verdict.reason,
            "condition": verdict.condition_holds,
            "form": verdict.form_holds,
            "consistent": verdict.consistent,
            "witnesses": [w.to_json() for w in verdict.witnesses],
            "detected": [t.label for t in verdict.detected],
            "detector_agrees": verdict.detector_agrees,
        }, out)
    else:
        lines = [f"check {verdict.theorem.value} for {format_bundle(bundle)} on "
                 f"{format_space(bundle.space)}"]
        if not verdict.applicable:
            lines.append(f"not applicable: {verdict.reason}")
        else:
            lines.append(f"condition: {verdict.condition_holds}")
            lines.append(f"form: {verdict.form_holds}")
            lines.append(f"consistent: {verdict.consistent}")
            for w in verdict.witnesses:
                flag = "" if w.required else " (informational)"
                lines.append(f"  witness: i={w.i} k={w.k} t={w.t} dim={w.dim}{flag}")
            if verdict.detected:
                lines.append("detected: " + ", ".join(t.label for t in verdict.detected))
        _write_text(lines, out)
    if not verdict.applicable:
        return EXIT_PRECONDITION
    return EXIT_OK if verdict.consistent else EXIT_INCONSISTENT


def cmd_classify(args, out) -> int:
    bundle = _load_bundle(args)
    reg_value = reg(bundle)
    forms = {tid.value: classify_form(bundle, tid) for tid in TheoremId}
    detected = []
    if reg_value == 0:
        detected = [t.label for t in detect_extremal_summand(bundle, reg_value)]
    if args.format == "json":
        _write_json({
            "space": bundle.space.dims,
            "bundle": format_bundle(bundle),
            "rank": rank(bundle),
            "reg": reg_value,
            "forms": forms,
            "detected": detected,
        }, out)
    else:
        lines = [
            f"bundle: {format_bundle(bundle)} on {format_space(bundle.space)}",
            f"rank: {rank(bundle)}",
            f"Reg: {reg_value}",
            "forms: " + ", ".join(f"{k}={v}" for k, v in sorted(forms.items())),
        ]
        if detected:
            lines.append("detected: " + ", ".join(detected))
        _write_text(lines, out)
    return EXIT_OK


def cmd_verify_paper(args, out) -> int:
    if args.config is not None:
        cfg = load_config(args.config)
    else:
        cfg = EnumerationConfig(spaces=("P1xP1", "P1xP2"))
    if args.theorem:
        cfg = replace(cfg, theorems=tuple(args.theorem))
    report = run_verification(cfg)
    if args.format == "json":
        _write_json({
            "spaces": cfg.spaces,
            "theorems": cfg.theorems,
            "total_bundles": report.total_bundles,
            "elapsed_seconds": round(report.elapsed_seconds, 3),
            "ok": report.ok,
            "per_theorem": {
                tid: {
                    "applicable": st.applicable,
                    "not_applicable": st.not_applicable,
                    "consistent": st.consistent,
                    "inconsistent": st.inconsistent,
                    "samples": st.samples,
                }
                for tid, st in report.per_theorem.items()
            },
            "findings": report.findings,
        }, out)
    else:
        lines = [
            f"spaces: {', '.join(cfg.spaces)}",
            f"bundles checked: {report.total_bundles}",
        ]
        for tid, st in report.per_theorem.items():
            lines.append(
                f"{tid}: applicable={st.applicable} consistent={st.consistent} "
                f"inconsistent={st.inconsistent}"
            )
        lines.append(f"findings: {len(report.findings)}")
        lines.append("ok" if report.ok else "INCONSISTENCIES FOUND")
        _write_text(lines, out)
    return EXIT_OK if report.ok else EXIT_INCONSISTENT


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top parser, and each subcommand's parser by name."""
    parser = argparse.ArgumentParser(
        prog="mpreg",
        description=(
            "Exact cohomology, regularity and splitting checks for direct sums "
            "of twisted line and cotangent-power sheaves on products of "
            "projective spaces."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name, func, help, bundle=True):
        p = commands[name] = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if bundle:
            p.add_argument("--space", required=True, help="space, e.g. P2xP3")
            p.add_argument(
                "--bundle",
                required=True,
                help="bundle, e.g. 'O(1,0) + O(0)*W1(2)' with optional '@(t1,t2)' twist",
            )
        return p

    p = command("cohomology", cmd_cohomology, "tabulate h^i over a box of twists")
    p.add_argument(
        "--twist-range",
        required=True,
        help="per-factor ranges; write --twist-range=-3..3,-2..2 when a "
        "bound is negative",
    )
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = command("reg", cmd_reg, "compute the regularity value")
    p.add_argument("--definition", choices=DEFINITIONS, default="paper")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = command("acm", cmd_acm, "decide the ACM property")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = command("check", cmd_check, "run one splitting check")
    p.add_argument(
        "--theorem",
        required=True,
        type=str.upper,
        choices=[t.value for t in TheoremId],
    )
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = command("classify", cmd_classify, "canonical structure and form membership")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = command("verify-paper", cmd_verify_paper, "run the enumeration harness", bundle=False)
    p.add_argument("--config", help="path to a key = value configuration file")
    p.add_argument(
        "--theorem",
        action="append",
        type=str.upper,
        choices=[t.value for t in TheoremId],
        help="restrict to one or more check ids (repeatable)",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")

    return parser, commands


def build_parser() -> argparse.ArgumentParser:
    return _parsers()[0]


def main(argv: Optional[list] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is None:  # --help, or a missing or unknown subcommand
        args = parser.parse_args(argv)
    else:
        # the subcommand's parse that parser.parse_args would nest, and its
        # error for what the subcommand leaves over, without the outer pass
        args, extras = command.parse_known_args(argv[1:])
        if extras:
            parser.error(gettext("unrecognized arguments: %s") % " ".join(extras))
        args.command = argv[0]
    try:
        return args.func(args, sys.stdout)
    except PreconditionError as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ModelError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Run the enumeration battery over every bundled check and print a scoreboard.

The default battery covers the ranges the test suite uses:

  two-factor   P1xP1, P1xP2      degrees [-2, 2], cotangent on   T1 T2 C1 C2 T0
  three-factor P1xP1xP1, P1xP1xP2  degrees [-2, 2]               T3 T2B T4
  rank-two     P3xP3             degrees [-2, 2]                 P4
  rank-two     P3xP3xP3          degrees [-1, 1]                 P4B

Each batch prints per-check counts (applicable, consistent, inconsistent)
followed by a capped listing of findings.  Exit status is 0 when every batch
is clean, 1 otherwise, and 2 on a configuration error.
The full battery exits 1 by design: beyond the catalogued T2B and P4 gaps,
the C1/T0/T4 conditions quantify over ranges bounded by the rank, so
low-rank bundles satisfy them vacuously while falling outside the predicted
form, and those show up here as findings too.

Usage:
  python scripts/run_verification.py              # full battery
  python scripts/run_verification.py --quick      # two-factor batch only
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mpreg.bundles import ModelError
from mpreg.harness import EnumerationConfig, RunReport, run_verification

FINDINGS_CAP = 12


def battery(quick: bool) -> list[tuple[str, EnumerationConfig]]:
    batches = [
        (
            "two-factor",
            EnumerationConfig(
                spaces=("P1xP1", "P1xP2"),
                degree_min=-2,
                degree_max=2,
                cotangent=True,
                cot_twist_min=-2,
                cot_twist_max=2,
                max_summands=2,
                theorems=("T1", "T2", "C1", "C2", "T0"),
            ),
        )
    ]
    if quick:
        return batches
    batches += [
        (
            "three-factor",
            EnumerationConfig(
                spaces=("P1xP1xP1", "P1xP1xP2"),
                degree_min=-2,
                degree_max=2,
                max_summands=2,
                theorems=("T3", "T2B", "T4"),
            ),
        ),
        (
            "rank-two",
            EnumerationConfig(
                spaces=("P3xP3",),
                degree_min=-2,
                degree_max=2,
                max_summands=2,
                theorems=("P4",),
            ),
        ),
        (
            "rank-two general",
            EnumerationConfig(
                spaces=("P3xP3xP3",),
                degree_min=-1,
                degree_max=1,
                max_summands=2,
                theorems=("P4B",),
            ),
        ),
    ]
    return batches


def print_report(label: str, rep: RunReport) -> None:
    print(f"== {label}: {rep.total_bundles} bundles in {rep.elapsed_seconds:.1f}s ==")
    print(f"{'check':<6} {'applicable':>10} {'consistent':>10} {'inconsistent':>12}")
    for tid, st in sorted(rep.per_theorem.items()):
        print(f"{tid:<6} {st.applicable:>10} {st.consistent:>10} {st.inconsistent:>12}")
    if not rep.findings:
        print("findings: none")
        print()
        return
    print(f"findings: {len(rep.findings)}")
    for f in rep.findings[:FINDINGS_CAP]:
        extra = ""
        if f["type"] == "inconsistent":
            extra = f" condition={f['condition']} form={f['form']}"
        elif f["type"] == "detector_mismatch":
            extra = f" detected={f['detected']}"
        print(f"  [{f['type']}] {f['theorem']} {f['space']} {f['bundle']}{extra}")
    if len(rep.findings) > FINDINGS_CAP:
        print(f"  ... {len(rep.findings) - FINDINGS_CAP} more")
    print()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="two-factor batch only")
    args = ap.parse_args(argv)

    clean = True
    try:
        for label, cfg in battery(args.quick):
            rep = run_verification(cfg)
            print_report(label, rep)
            clean = clean and rep.ok
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("battery clean" if clean else "battery has findings")
    return 0 if clean else 1


if __name__ == "__main__":
    raise SystemExit(main())

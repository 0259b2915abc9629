"""Sweep the closed-form ACM variants for line bundles against the engine.

Two published-style one-line tests are checked over a degree grid:

  b2  two factors only: |a - b| constrained by the opposite factor dimension
  b3  any factor count: per-index existential bounds

The engine answer comes from the finite cohomology window, so every
disagreement listed here is a concrete counterexample to the variant
formula on that space.  b2 is known to disagree off the diagonal n != m
(the factor dimensions enter transposed); b3 matches everywhere up to
three factors and first fails on P1xP1xP1xP1 at degrees (0,0,2,2).

An empty degree grid (--bound below 0), a grid of more than
cohomology.MAX_TABLE_TWISTS vectors, a bad space and variant b2 asked for
on a space without two factors are refused with exit code 2.  Without
--variant, b2 is skipped on such a space.

Usage:
  python scripts/acm_discrepancy.py                 # default grid
  python scripts/acm_discrepancy.py --bound 5
  python scripts/acm_discrepancy.py --space P2xP4 --variant b2
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mpreg.bundles import ModelError, parse_space
from mpreg.splitting import acm_discrepancy

DEFAULT_B2 = ["P1xP1", "P1xP2", "P2xP1", "P2xP3", "P3xP3"]
DEFAULT_B3 = ["P1xP2", "P2xP3", "P1xP1xP2", "P1xP1xP1xP1"]


def sweep(space_text: str, variant: str, bound: int) -> int:
    space = parse_space(space_text)
    rows = acm_discrepancy(space, (-bound, bound), variant)
    print(f"{space_text} variant={variant} degrees [-{bound}, {bound}]: "
          f"{len(rows)} disagreement(s)")
    for row in rows:
        print(f"  degrees={row['degrees']} engine={row['acm']} formula={row['variant']}")
    return len(rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--space", action="append", default=None,
                    help="space like P2xP3, repeatable (default: built-in grid)")
    ap.add_argument("--variant", choices=["b2", "b3"], default=None,
                    help="restrict to one variant")
    ap.add_argument("--bound", type=int, default=4, help="degree box half-width")
    args = ap.parse_args(argv)
    try:
        total = _sweeps(args)
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"total disagreements: {total}")
    return 0


def _sweeps(args) -> int:
    total = 0
    if args.space:
        variants = [args.variant] if args.variant else ["b2", "b3"]
        for sp in args.space:
            for v in variants:
                # b2 is skipped off two factors only when not asked for
                if v == "b2" and not args.variant and parse_space(sp).num_factors != 2:
                    continue
                total += sweep(sp, v, args.bound)
    else:
        if args.variant in (None, "b2"):
            for sp in DEFAULT_B2:
                total += sweep(sp, "b2", args.bound)
        if args.variant in (None, "b3"):
            for sp in DEFAULT_B3:
                # four factors at bound 4 is slow; the first gap sits at 2
                bound = min(args.bound, 2) if sp.count("x") >= 3 else args.bound
                total += sweep(sp, "b3", bound)
    return total


if __name__ == "__main__":
    raise SystemExit(main())

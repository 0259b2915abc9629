"""Compare two checkouts on the benchmark, in interleaved pairs of runs.

Usage:
  python scripts/bench_pairs.py --parent ../base --change . --workload sweep_regular \\
      --seed 1 --seconds 8 --pairs 10

Runs ``perfbench/run.py --trace 0`` of each checkout, one run at a time, in
``--pairs`` pairs per workload.  The side that runs first alternates from
pair to pair, so a drift in the machine's speed lands on both sides.  Every
run must be ``correct`` with 0 failed; otherwise the script stops with exit
1 and writes nothing.

It writes ``BENCH_<short-rev>.json`` (the change's revision) in the change
checkout, or the ``--out`` path, holding the machine facts (nproc, Python
version, both git revisions) and one series per workload and seed:
  * each pair's end-to-end metrics, and which side ran first;
  * per metric, the median and quartiles of each side, the change/parent
    ratio of the medians, and the number of pairs the change won, by the
    direction ``BENCHMARK.json`` gives the metric.
With ``--append`` the series are added to those of an existing file with
the same machine facts, so one file can hold runs of several seeds and
pair counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep_windows", "sweep_regular", "query_session")
SIDES = ("parent", "change")


class RunRefused(Exception):
    pass


def revision(checkout: Path) -> str:
    """The checkout's short git revision, with "+dirty" when tracked files
    differ from it, or "unknown" outside a git checkout."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                              text=True, check=False)

    rev = git("rev-parse", "--short", "HEAD")
    if rev.returncode:
        return "unknown"
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return rev.stdout.strip() + ("+dirty" if dirty else "")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run of the checkout: its end-to-end metrics by name."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # run.py finds its src/
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RunRefused(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    if result["correct"] is not True or result["failed"]:
        raise RunRefused(f"{checkout} {workload}: correct={result['correct']}, "
                         f"failed={result['failed']}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list) -> dict:
    """Median and quartiles (inclusive method; all three are the value
    itself for one run)."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list, better: dict) -> dict:
    out = {}
    for name in pairs[0]["parent"]:
        sides = {side: [p[side][name] for p in pairs] for side in SIDES}
        row = {side: spread(sides[side]) for side in SIDES}
        base = row["parent"]["median"]
        row["ratio"] = row["change"]["median"] / base if base else None
        if name in better:
            sign = 1 if better[name] == "higher" else -1
            row["better"] = better[name]
            row["change_wins"] = sum(sign * (c - p) > 0 for p, c in zip(*sides.values()))
        out[name] = row
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="the checkout to compare against")
    parser.add_argument("--change", type=Path, default=ROOT, help="the checkout under test")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeat for several; default all three")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, help="default: BENCH_<short-rev>.json in the change")
    parser.add_argument("--append", action="store_true",
                        help="add to the series of an existing file with the same machine facts")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = {side: getattr(args, side).resolve() for side in SIDES}
    spec = checkouts["change"] / "BENCHMARK.json"
    better = ({m["name"]: m["better"] for m in json.loads(spec.read_text())["end_to_end"]}
              if spec.is_file() else {})
    revs = {side: revision(path) for side, path in checkouts.items()}
    machine = {"nproc": os.cpu_count(), "python": platform.python_version(),
               "parent_rev": revs["parent"], "change_rev": revs["change"]}
    out = args.out or checkouts["change"] / f"BENCH_{revs['change'].split('+')[0]}.json"
    report = {"machine": machine, "series": []}
    if args.append and out.is_file():
        report = json.loads(out.read_text())
        if report["machine"] != machine:
            print(f"error: {out} holds runs of other machine facts: {report['machine']}",
                  file=sys.stderr)
            return 1
    try:
        for workload in args.workload or WORKLOADS:
            pairs = []
            for j in range(args.pairs):
                order = SIDES if j % 2 == 0 else SIDES[::-1]
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_once(checkouts[side], workload, args.seed, args.seconds)
                print(f"{workload} pair {j + 1}/{args.pairs}: " + ", ".join(
                    f"{side} {pair[side].get('bundles_per_s', 0):.0f}" for side in SIDES)
                    + " (bundles_per_s)", file=sys.stderr)
                pairs.append(pair)
            report["series"].append({"workload": workload, "seed": args.seed,
                                     "seconds": args.seconds, "pairs": pairs,
                                     "summary": summarize(pairs, better)})
    except RunRefused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

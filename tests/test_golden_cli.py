"""Golden replay of the command line: `check` for every check id, `classify`,
`acm`, `reg` (definition `paper`, and `hw` on two-factor spaces) and
`cohomology` over a small twist box on a fixed set of bundles, and
`verify-paper` on a small config.

The fixture `golden_cli.json` holds, per bundle, each command's exit code and
JSON payload.  Every replay must print exactly that payload, rendered the way
the CLI renders JSON, and exit with the same code; `verify-paper` is compared
without its `elapsed_seconds`.

Run this file as a script to rewrite the fixture from the current code:
    PYTHONPATH=src python tests/test_golden_cli.py
"""

import io
import json
import os
import random
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from mpreg.cli import main

FIXTURE = os.path.join(os.path.dirname(__file__), "golden_cli.json")

CHECK_IDS = ("T1", "T2", "C1", "C2", "T0", "P4", "T3", "T2B", "T4", "P4B")

# Hand-picked: every precondition reason, C1 informational witnesses, the
# detector on and off the extremal menu, P4 and P4B forms off two factors.
PICKED = (
    ("P1xP1", "O(0,0)"),
    ("P1xP1", "O(0,0) + O(1,1)"),
    ("P1xP1", "O(-1,2)"),
    ("P1xP1", "O(0,1) + O(1,0)"),
    ("P1xP1", "O(-2,-2)"),
    ("P1xP2", "O(0,2)"),
    ("P1xP2", "O(1,1) + O(-1,-1)"),
    ("P1xP2", "O(2,2) + O(2,3) + O(3,2)"),
    ("P1xP2", "O(0,0) + O(0,2)"),
    ("P1xP2", "O(0)*W1(2)"),
    ("P2xP3", "O(0,0)"),
    ("P2xP3", "O(0,0) + O(0,1)"),
    ("P2xP3", "O(0,0) + O(1,1)"),
    ("P2xP3", "O(2,1) + O(1,1)"),
    ("P2xP3", "O(-1,0)"),
    ("P2xP3", "O(-1,1)"),
    ("P2xP3", "O(-1,2)"),
    ("P2xP3", "O(-1,3)"),
    ("P2xP3", "O(-1)*W1(1)"),
    ("P2xP3", "O(-1)*W1(2)"),
    ("P2xP3", "O(0,1)"),
    ("P2xP3", "O(1,0)"),
    ("P2xP3", "O(0)*W1(2)"),
    ("P2xP3", "W1(2)*O(0)"),
    ("P2xP3", "O(0)*W2(3)"),
    ("P2xP3", "O(1,1)"),
    ("P2xP3", "O(3,3)"),
    ("P2xP3", "W1(-1)*W2(-1)"),
    ("P3xP3", "O(0,0)"),
    ("P3xP3", "O(-1)*W1(1)"),
    ("P3xP3", "O(-1)*W1(2)"),
    ("P3xP3", "O(0,0) + O(1,2)"),
    ("P3xP3", "O(0,1) + O(2,0)"),
    ("P3xP3", "O(3,3) + O(0,0)"),
    ("P3xP3", "O(0,0) + O(1,1) + O(0,1)"),
    ("P3xP3", "O(1,1) + O(2,2)"),
    ("P3xP3", "O(-2,1) + O(1,-2)"),
    ("P3xP3", "O(0,-1) + O(1,1)"),
    ("P3xP3", "W1(2)*O(0) + O(0,1)"),
    ("P2xP2", "W1(0)*W1(3) + O(-2,1)"),
    ("P2xP2", "W1(2)*O(0) + O(0)*W1(2)"),
    ("P2xP2", "W1(1)*W1(1)"),
    ("P2xP2", "O(0,0) + W1(2)*O(0)"),
    ("P3xP4", "O(0,0) + O(0,1)"),
    ("P3xP4", "O(-1,2)"),
    ("P3xP4", "W2(3)*O(0)"),
    ("P3xP4", "O(1,0) + O(0,1)"),
    ("P1xP1xP2", "O(0,0,0)"),
    ("P1xP1xP2", "O(0,0,0) + O(0,0,1)"),
    ("P1xP1xP2", "O(0,0,1) + O(1,1,1)"),
    ("P1xP1xP2", "O(1,0,0)"),
    ("P1xP1xP2", "O(0)*O(0)*W1(2)"),
    ("P1xP1xP2", "O(-1,0,2)"),
    ("P1xP1xP1", "O(0,0,0)"),
    ("P1xP1xP1", "O(0,0,1) + O(1,0,0)"),
    ("P1xP1xP1", "O(0,1,2)"),
    ("P3xP3xP3", "O(1,1,1) + O(0,0,0)"),
    ("P3xP3xP3", "O(1,1,1) + O(2,2,2)"),
    ("P3xP3xP3", "O(0,0,1) + O(0,1,0)"),
    ("P1xP1", "O(1"),
)

VERIFY_CONFIG = (
    "spaces = P1xP1, P2xP2\n"
    "degrees = -1..1\n"
    "cotangent = on\n"
    "cotangent_twists = 1..2\n"
    "max_summands = 2\n"
)

TWIST_BOX = "--twist-range=-2..1"

# A check payload repeats the space, the bundle and the check id, and half of
# them are not-applicable verdicts full of nulls.  The fixture stores the
# space and bundle once per bundle and drops the check id and the nulls; the
# replay puts them all back.
_SHARED = ("space", "bundle")
_CHECK_KEYS = ("applicable", "bundle", "condition", "consistent", "detected",
               "detector_agrees", "form", "reason", "space", "theorem", "witnesses")


def _sampled(rng: random.Random, count: int):
    """Seeded random sums of one or two summands over a few small spaces."""
    out = []
    for _ in range(count):
        space = rng.choice(("P1xP1", "P1xP1xP2", "P2xP2", "P2xP3"))
        summands = []
        for _ in range(rng.choice((1, 2))):
            atoms = []
            for n in (int(p) for p in space[1:].split("xP")):
                if n > 1 and rng.random() < 0.3:
                    atoms.append(f"W{rng.randint(1, n - 1)}({rng.randint(-1, 3)})")
                else:
                    atoms.append(f"O({rng.randint(-2, 2)})")
            summands.append("*".join(atoms))
        out.append((space, " + ".join(summands)))
    return out


def _bundles():
    return list(PICKED) + _sampled(random.Random(20081), 32)


def _base(space: str, text: str) -> list:
    return ["--space", space, "--bundle", text, "--format", "json"]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def _render(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _verify_paper(config_path):
    code, text = _run(["verify-paper", "--config", str(config_path), "--format", "json"])
    payload = json.loads(text)
    del payload["elapsed_seconds"]
    return code, payload


def _queries(space: str, text: str) -> dict:
    """The `reg` and `cohomology` command lines replayed on a bundle, by name."""
    queries = {"reg paper": ["reg", *_base(space, text), "--definition", "paper"]}
    if space.count("x") == 1:
        queries["reg hw"] = ["reg", *_base(space, text), "--definition", "hw"]
    queries["cohomology"] = ["cohomology", *_base(space, text), TWIST_BOX]
    return queries


def capture_bundle(space: str, text: str) -> dict:
    """One fixture record: exit code and payload of each command on a bundle."""
    record = {"space": space, "text": text, "check": {}}
    for tid in CHECK_IDS:
        code, out = _run(["check", *_base(space, text), "--theorem", tid])
        payload = json.loads(out) if out else None
        if payload is not None:
            assert sorted(payload) == list(_CHECK_KEYS) and payload.pop("theorem") == tid
            record["shared"] = {k: payload.pop(k) for k in _SHARED}
            payload = {k: v for k, v in payload.items() if v is not None}
        record["check"][tid] = [code, payload]
    for command in ("classify", "acm"):
        code, out = _run([command, *_base(space, text)])
        record[command] = [code, json.loads(out) if out else None]
    record["queries"] = {}
    for name, argv in _queries(space, text).items():
        code, out = _run(argv)
        record["queries"][name] = [code, json.loads(out) if out else None]
    return record


def replay_bundle(record: dict) -> None:
    space, text = record["space"], record["text"]
    for tid, (code, payload) in record["check"].items():
        if payload is not None:
            payload = {**dict.fromkeys(_CHECK_KEYS), **payload, **record["shared"],
                       "theorem": tid}
        expected = (code, "" if payload is None else _render(payload))
        assert _run(["check", *_base(space, text), "--theorem", tid]) == expected, (text, tid)
    for command in ("classify", "acm"):
        code, payload = record[command]
        expected = (code, "" if payload is None else _render(payload))
        assert _run([command, *_base(space, text)]) == expected, (text, command)
    queries = _queries(space, text)
    assert sorted(record["queries"]) == sorted(queries)
    for name, (code, payload) in record["queries"].items():
        expected = (code, "" if payload is None else _render(payload))
        assert _run(queries[name]) == expected, (text, name)


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_queries_replay_byte_identical(golden):
    assert [(r["space"], r["text"]) for r in golden["bundles"]] == _bundles()
    for record in golden["bundles"]:
        replay_bundle(record)


def test_golden_verify_paper_replays(golden, tmp_path):
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(golden["verify_paper"]["config"])
    code, payload = _verify_paper(cfg)
    assert code == golden["verify_paper"]["exit"]
    assert _render(payload) == _render(golden["verify_paper"]["payload"])


if __name__ == "__main__":
    import tempfile

    records = [capture_bundle(space, text) for space, text in _bundles()]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "golden.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(VERIFY_CONFIG)
        code, payload = _verify_paper(path)

    def dump(obj):
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    # one bundle per line, so that a changed payload shows as a changed line
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        fh.write('{"bundles":[\n' + ",\n".join(dump(r) for r in records) + "\n],\n")
        verify = {"config": VERIFY_CONFIG, "exit": code, "payload": payload}
        fh.write('"verify_paper":' + dump(verify) + "}\n")
    print(f"wrote {len(records)} bundles to {FIXTURE}", file=sys.stderr)

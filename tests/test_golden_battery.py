"""Golden replay of the batteries: the printed reports of
`scripts/run_verification.py` (the full battery and `--quick`) and of the
default `scripts/acm_discrepancy.py` grid, with their exit codes, and a
sha256 of each battery batch's full findings JSON (the script prints only
the first few findings of a batch).

The reports are compared with the battery timings (` in 0.0s`) stripped,
as the CI step that runs the battery under several hash seeds strips them.

Run this file as a script to rewrite the fixture from the current code:
    PYTHONPATH=src python tests/test_golden_battery.py
"""

import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys

import pytest

from mpreg.harness import run_verification

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE = os.path.join(os.path.dirname(__file__), "golden_battery.json")

SCRIPTS = {
    "run_verification": ["scripts/run_verification.py"],
    "run_verification --quick": ["scripts/run_verification.py", "--quick"],
    "acm_discrepancy": ["scripts/acm_discrepancy.py"],
}

_TIMING = re.compile(r" in [0-9]+\.[0-9]+s ==$", re.M)


def printed(name: str) -> dict:
    """The exit code and the printed lines of a script, timings stripped."""
    done = subprocess.run([sys.executable, *SCRIPTS[name]], cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    return {"exit": done.returncode, "stdout": _TIMING.sub(" ==", done.stdout).splitlines()}


def findings_digests() -> dict:
    """Per batch of the full battery: its number of findings and the sha256
    of its findings as JSON, in report order."""
    path = os.path.join(ROOT, "scripts", "run_verification.py")
    spec = importlib.util.spec_from_file_location("run_verification_script", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    digests = {}
    for label, cfg in script.battery(quick=False):
        findings = run_verification(cfg).findings
        digests[label] = {"count": len(findings),
                          "sha256": hashlib.sha256(json.dumps(findings).encode()).hexdigest()}
    return digests


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_battery_script_prints_the_golden_report(golden, name):
    assert printed(name) == golden["reports"][name]


def test_battery_findings_match_the_golden_digests(golden):
    assert findings_digests() == golden["findings"]


if __name__ == "__main__":
    fixture = {"reports": {name: printed(name) for name in SCRIPTS},
               "findings": findings_digests()}
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(fixture, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(SCRIPTS)} reports and {len(fixture['findings'])} digests to {FIXTURE}",
          file=sys.stderr)

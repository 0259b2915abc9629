"""The package ships what its engine, CLI, scripts and benchmark use: the
exported names are exactly those `mpreg/__init__.py` imports, the test-only
references live in tests/reference.py, and the names the benchmark reads
outside the traced layers still work."""

import ast
import importlib
from pathlib import Path

import pytest

import mpreg

_MODULES = ("bundles", "cohomology", "regularity", "splitting", "harness", "cli")

# moved to tests/reference.py, folded into h_bundle (_groups) or into verify_bundle
_REMOVED = (
    "RestrictionError", "dualize", "dual_atom", "restrict_to_hyperplane", "canonical_twist",
    "h_vector", "euler_characteristic", "euler_characteristic_atom", "_chi_line", "_chi_cot",
    "extended_binomial", "_groups", "extremal_menu", "acm_closed_form_line",
    "verdict_rows", "row_verdict",
)


def test_all_is_what_init_imports():
    tree = ast.parse(Path(mpreg.__file__).read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert sorted(mpreg.__all__) == sorted(imported)
    assert len(set(mpreg.__all__)) == len(mpreg.__all__)
    for name in mpreg.__all__:
        assert getattr(mpreg, name) is not None, name


@pytest.mark.parametrize("name", _REMOVED)
def test_removed_names_are_gone(name):
    owners = [mpreg, mpreg.Space, *(importlib.import_module(f"mpreg.{m}") for m in _MODULES)]
    assert [owner for owner in owners if hasattr(owner, name)] == []


def test_the_benchmarks_untraced_names_still_work():
    # perfbench/oracle.py checks answers with the Euler-sequence oracle, and
    # perfbench/workloads.py builds its samples with enumerate_summands and a
    # config that passes jobs=1
    from mpreg import oracle_euler_sequence
    from mpreg.harness import EnumerationConfig, enumerate_summands

    assert oracle_euler_sequence(2, 1, 0, 1) == 1
    cfg = EnumerationConfig(spaces=("P1xP1",), jobs=1)
    summands = list(enumerate_summands(mpreg.parse_space("P1xP1"), cfg))
    assert len(summands) == (cfg.degree_max - cfg.degree_min + 1) ** 2

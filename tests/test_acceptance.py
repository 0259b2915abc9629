"""Acceptance gate.

One test per acceptance item (letters split an item whose parts have
different fates).  Every test prints a single ACCEPTANCE line; items the
implementation can show to be unattainable as stated are marked strict-xfail
with a behavioral reason, and each has a green companion pinning the computed
truth, so a change in the underlying facts turns the suite red.
"""

import itertools
import time

import pytest

from mpreg.bundles import (
    Cotangent,
    Line,
    line_bundle,
    line_summand,
    make_bundle,
    make_summand,
    parse_bundle,
    parse_space,
)
from mpreg.cohomology import h_bott, h_bundle, oracle_euler_sequence
from mpreg.harness import (
    EnumerationConfig,
    compare_regularity_definitions,
    enumerate_bundles,
    run_verification,
)
from mpreg.regularity import is_regular_at, reg
from mpreg.splitting import (
    TheoremId,
    acm_discrepancy,
    condition_for,
    detect_extremal_summand,
    is_acm,
)
from reference import (
    acm_closed_form_line,
    canonical_twist,
    dualize,
    euler_characteristic,
    extremal_menu,
    h_vector,
)


def report(line):
    print(f"ACCEPTANCE {line}")


# ---------------------------------------------------------------------------
# 01: the closed form against the independent recursion


def test_criterion_01_engine_cross_validation():
    t0 = time.monotonic()
    for n in range(2, 5):
        for p in range(1, n):
            for t in range(-12, 13):
                for i in range(n + 1):
                    assert h_bott(n, p, t, i) == oracle_euler_sequence(n, p, t, i)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report("01: PASS closed form == recursion for n<=4, |t|<=12, all i "
           f"({elapsed:.3f}s)")


# ---------------------------------------------------------------------------
# 02: duality identity and the alternating sum on a four-space family


def _family(space, degree_span=2, pair_span=1):
    cfg = EnumerationConfig(
        spaces=("P1xP1",), degree_min=-degree_span, degree_max=degree_span,
        cotangent=True, cot_twist_min=-2, cot_twist_max=2, max_summands=1,
    )
    bundles = list(enumerate_bundles(space, cfg))
    vecs = list(itertools.product(range(-pair_span, pair_span + 1),
                                  repeat=space.num_factors))
    for va, vb in itertools.combinations_with_replacement(vecs, 2):
        bundles.append(
            make_bundle(space, [line_summand(space, va), line_summand(space, vb)])
        )
    return bundles


def test_criterion_02_duality_and_euler_characteristic():
    t0 = time.monotonic()
    total = 0
    for name in ("P1xP1", "P1xP2", "P2xP2", "P2xP3"):
        space = parse_space(name)
        d, K = space.total_dim, canonical_twist(space)
        for b in _family(space):
            bd = dualize(b)
            for tv in itertools.product(range(-6, 7), repeat=2):
                hv = h_vector(b, tv)
                dual_tv = tuple(kj - t for kj, t in zip(K, tv))
                for i in range(d + 1):
                    assert hv[i] == h_bundle(bd, dual_tv, d - i), (name, b, tv, i)
                alt = sum((-1) ** i * hv[i] for i in range(d + 1))
                assert alt == euler_characteristic(b, tv), (name, b, tv)
                total += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(f"02: PASS duality and Euler characteristic on {total} "
           f"bundle-twist pairs ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 03: the line-bundle regularity characterization


def test_criterion_03_line_regularity_characterization():
    sp = parse_space("P2xP2")
    for a, b in itertools.product(range(-3, 4), repeat=2):
        bundle = line_bundle(sp, (a, b))
        assert is_regular_at(bundle, (0, 0)) == (a >= 0 and b >= 0), (a, b)
    assert reg(line_bundle(sp, (0, 0))) == 0
    for text in ("O(0)*W1(2)", "O(0)*W2(3)"):
        _, bundle = parse_bundle("P2xP3", text)
        assert reg(bundle) == 0, text
    report("03: PASS O(a,b) regular iff a,b >= 0; Reg(O) = 0; "
           "Reg(O x W^a(a+1)) = 0 for a = 1, 2")


# ---------------------------------------------------------------------------
# 04: ACM brute force vs the corrected closed form, plus the printed variant


def test_criterion_04_acm_oracle_and_discrepancy_report():
    for n, m in itertools.product((1, 2, 3), repeat=2):
        sp = parse_space(f"P{n}xP{m}")
        for a, b in itertools.product(range(-5, 6), repeat=2):
            bundle = line_bundle(sp, (a, b))
            assert is_acm(bundle) == acm_closed_form_line(sp, (a, b)), (n, m, a, b)
        rep = acm_discrepancy(sp, (-5, 5), "b2")
        if n == m:
            assert rep == [], (n, m)
        else:
            assert rep, (n, m)
    p1p2 = acm_discrepancy(parse_space("P1xP2"), (-5, 5), "b2")
    assert (0, 2) in [r["degrees"] for r in p1p2]
    report("04: PASS brute-force ACM == closed form on 1089 line bundles; "
           "printed-inequality report nonempty exactly off the diagonal")


# ---------------------------------------------------------------------------
# 05: balanced and step splitting biconditionals on two-factor spaces


def test_criterion_05_two_factor_biconditionals():
    cfg = EnumerationConfig(
        spaces=("P1xP1", "P1xP2", "P2xP2", "P2xP3"),
        degree_min=-2, degree_max=2, max_summands=3, theorems=("T1", "T2"),
    )
    rep = run_verification(cfg)
    assert rep.total_bundles == 13100
    for tid in ("T1", "T2"):
        assert rep.per_theorem[tid].inconsistent == 0, tid
    assert rep.findings == []
    assert rep.elapsed_seconds < 600.0
    report(f"05: PASS zero inconsistencies for T1/T2 on "
           f"{rep.total_bundles} bundles ({rep.elapsed_seconds:.1f}s)")


# ---------------------------------------------------------------------------
# 06: the extremal menu and its nonvanishing list

MENU_SPACES = ("P2xP3", "P3xP3")


def test_criterion_06a_menu_bundles_detected_exactly():
    for name in MENU_SPACES:
        space = parse_space(name)
        for s in extremal_menu(space):
            b = make_bundle(space, [s])
            assert reg(b) == 0, (name, s)
            ok, _ = condition_for(b, TheoremId.T0)
            assert ok, (name, s)
            tags = detect_extremal_summand(b)
            assert len(tags) == 1, (name, s)
            assert tags[0].summand == s, (name, s)
    report("06a: PASS every menu bundle has Reg 0, passes the condition, "
           "and the detector returns exactly its tag")


def _nonvanishing_mismatches(name, a, window=7):
    """Points where the computed H^a set differs from the one-line rule
    j >= 0 and k = -a-1."""
    space = parse_space(name)
    out = []
    for j in range(-window, window // 2 + 1):
        for k in range(-window, window // 2 + 1):
            s = make_summand(space, [Line(j), Cotangent(a, a + 1 + k)])
            b = make_bundle(space, [s])
            computed = h_bundle(b, (0, 0), a) != 0
            stated = j >= 0 and k == -a - 1
            if computed != stated:
                out.append((j, k))
    return out


@pytest.mark.xfail(
    strict=True,
    reason="the one-line nonvanishing rule misses a second branch (negative "
    "first degree, nonnegative extra twist) once the power equals the first "
    "factor's dimension",
)
def test_criterion_06b_nonvanishing_list_verbatim():
    report("06b: EXPECTED FAIL one-line H^a rule taken verbatim over the "
           "whole menu")
    for name in MENU_SPACES:
        space = parse_space(name)
        for a in range(1, space.dims[1]):
            assert _nonvanishing_mismatches(name, a) == [], (name, a)


def test_criterion_06c_nonvanishing_list_computed_truth():
    # the rule is exact unless a equals the first dimension; there the extra
    # branch is j <= -n-1 with k >= 0, and every mismatch lies on it
    for name in MENU_SPACES:
        space = parse_space(name)
        n = space.dims[0]
        for a in range(1, space.dims[1]):
            mism = _nonvanishing_mismatches(name, a)
            if a != n:
                assert mism == [], (name, a)
            else:
                assert mism and all(j <= -n - 1 and k >= 0 for j, k in mism)
    report("06c: PASS computed H^a set equals the one-line rule plus the "
           "extra top-degree branch exactly when a = dim of factor one")


# ---------------------------------------------------------------------------
# 07: witness sets for the two boundary examples


def test_criterion_07a_boundary_witness_sets_computed():
    # a line with first degree -1 trips only the boundary index i = n,
    # and that index is exempted, so the stated condition still holds
    for a in range(0, 4):
        _, b = parse_bundle("P2xP3", f"O(-1,{a})")
        ok, wits = condition_for(b, TheoremId.C1)
        assert ok, a
        assert sorted({w.i for w in wits}) == [2], a
        assert all(not w.required for w in wits)
    # the twist-one cotangent example actually fails one index past the
    # boundary; the printed index pair belongs to the twist-two bundle
    for name, expect_w1 in (("P2xP3", [3]), ("P3xP3", [4])):
        _, b = parse_bundle(name, "O(-1)*W1(1)")
        _, wits = condition_for(b, TheoremId.C1)
        assert sorted({w.i for w in wits}) == expect_w1, name
    for name, expect_w2 in (("P2xP3", [2, 3]), ("P3xP3", [3, 4])):
        _, b = parse_bundle(name, "O(-1)*W1(2)")
        _, wits = condition_for(b, TheoremId.C1)
        assert sorted({w.i for w in wits}) == expect_w2, name
    report("07a: PASS computed witness sets: O(-1,a) -> {n}; "
           "O(-1) x W1(1) -> {n+1}; O(-1) x W1(2) -> {n, n+1}")


@pytest.mark.xfail(
    strict=True,
    reason="the twist-one cotangent bundle fails only at i = n+1; the stated "
    "index pair {n, n+1} matches the twist-two bundle instead",
)
def test_criterion_07b_cotangent_witness_pair_as_printed():
    report("07b: EXPECTED FAIL witness pair {n, n+1} for the twist-one "
           "cotangent example")
    _, b = parse_bundle("P3xP3", "O(-1)*W1(1)")
    _, wits = condition_for(b, TheoremId.C1)
    assert sorted({w.i for w in wits}) == [3, 4]


# ---------------------------------------------------------------------------
# 08: three-factor biconditionals

T2B_INCONSISTENT = {"P1xP1xP1": 711, "P1xP1xP2": 438}


@pytest.fixture(scope="module")
def three_factor_run():
    cfg = EnumerationConfig(
        spaces=("P1xP1xP1", "P1xP1xP2"),
        degree_min=-2, degree_max=2, max_summands=2, theorems=("T3", "T2B"),
    )
    return run_verification(cfg)


def test_criterion_08a_balanced_splitting_and_acm_crosscheck(three_factor_run):
    rep = three_factor_run
    assert rep.total_bundles == 16000
    assert rep.per_theorem["T3"].inconsistent == 0
    assert not [f for f in rep.findings if f["theorem"] == "T3"]
    # the printed any-s ACM form agrees with the truth on these spaces
    for name in ("P1xP1xP1", "P1xP1xP2"):
        assert acm_discrepancy(parse_space(name), (-2, 2), "b3") == []
    report("08a: PASS zero inconsistencies for T3 on 16000 bundles; "
           "any-s printed ACM form clean on both spaces")


@pytest.mark.xfail(
    strict=True,
    reason="on spaces with projective-line factors the stated offset family "
    "collapses to the balanced one, so staircase sums pass the condition "
    "while falling outside the step form",
)
def test_criterion_08b_step_splitting_biconditional(three_factor_run):
    report("08b: EXPECTED FAIL step-form biconditional on three factors")
    assert three_factor_run.per_theorem["T2B"].inconsistent == 0


def test_criterion_08c_step_splitting_gap_catalog(three_factor_run):
    rep = three_factor_run
    inc = [f for f in rep.findings
           if f["type"] == "inconsistent" and f["theorem"] == "T2B"]
    by_space = {name: [f for f in inc if f["space"] == name]
                for name in T2B_INCONSISTENT}
    for name, count in T2B_INCONSISTENT.items():
        assert len(by_space[name]) == count, name
    assert all(f["condition"] and not f["form"] for f in inc)
    assert "O(0,1,2)" in [f["bundle"] for f in by_space["P1xP1xP1"]]
    report("08c: PASS the step-form gap is exactly 711 + 438 "
           "condition-true/form-false bundles, the staircase among them")


# ---------------------------------------------------------------------------
# 09: the two regularity definitions


def test_criterion_09_definition_comparison():
    cfg = EnumerationConfig(
        spaces=("P1xP1", "P1xP2", "P2xP2", "P2xP3"),
        degree_min=-2, degree_max=2, cotangent=True,
        cot_twist_min=-2, cot_twist_max=2, max_summands=2,
    )
    bundles = []
    for name in cfg.spaces:
        bundles.extend(enumerate_bundles(parse_space(name), cfg))
    rep = compare_regularity_definitions(bundles, p_range=(-2, 2))
    assert rep["checked_bundles"] == len(bundles)
    # part one of the comparison is asserted: strict-variant regularity at a
    # point implies the box-variant one there
    assert rep["hw_implies_box_violations"] == []
    # part two is reported under both dimension pairings
    literal = rep["shift_literal_violations"]
    swapped = rep["shift_swapped_violations"]
    assert isinstance(literal, list) and isinstance(swapped, list)
    report(f"09: PASS strict implies box on {len(bundles)} bundles; "
           f"shifted converse violations: literal={len(literal)}, "
           f"swapped={len(swapped)}")


# ---------------------------------------------------------------------------
# 10: rank-two splitting

P4_GAP = [
    "O(0,2) + O(0,2)",
    "O(0,2) + O(1,1)",
    "O(0,2) + O(1,2)",
    "O(0,2) + O(2,0)",
    "O(0,2) + O(2,1)",
    "O(0,2) + O(2,2)",
    "O(1,1) + O(2,0)",
    "O(1,2) + O(2,0)",
    "O(2,0) + O(2,0)",
    "O(2,0) + O(2,1)",
    "O(2,0) + O(2,2)",
]


@pytest.fixture(scope="module")
def rank_two_run():
    cfg = EnumerationConfig(spaces=("P3xP3",), degree_min=-2, degree_max=2,
                            max_summands=2, theorems=("P4",))
    return run_verification(cfg)


@pytest.mark.xfail(
    strict=True,
    reason="first cohomology of a sum of two lines on this space vanishes "
    "identically, so the condition cannot see sums whose twists both sit "
    "outside the unit box",
)
def test_criterion_10a_rank_two_biconditional(rank_two_run):
    report("10a: EXPECTED FAIL rank-two biconditional over the degree-2 box")
    assert rank_two_run.per_theorem["P4"].inconsistent == 0


def test_criterion_10b_rank_two_general_s():
    cfg = EnumerationConfig(spaces=("P3xP3xP3",), degree_min=-1, degree_max=1,
                            max_summands=2, theorems=("P4B",))
    rep = run_verification(cfg)
    assert rep.per_theorem["P4B"].applicable == 35
    assert rep.per_theorem["P4B"].inconsistent == 0
    assert rep.findings == []
    report("10b: PASS zero inconsistencies for the any-s rank-two statement "
           "on the unit degree box")


def test_criterion_10c_rank_two_gap_catalog(rank_two_run):
    rep = rank_two_run
    assert rep.per_theorem["P4"].applicable == 35
    inc = sorted(
        f["bundle"] for f in rep.findings
        if f["type"] == "inconsistent" and f["theorem"] == "P4"
    )
    assert inc == P4_GAP
    for f in rep.findings:
        if f["type"] == "inconsistent":
            assert f["condition"] and not f["form"]
    report("10c: PASS the rank-two gap is exactly the eleven "
           "condition-true/form-false pairs containing a (0,2)-type summand")

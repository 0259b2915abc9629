"""ACM, the per-result conditions and forms, the detector, verdict assembly."""

import dataclasses
import itertools
import json

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mpreg.bundles import (
    ArityError,
    BoxSummand,
    Bundle,
    Cotangent,
    Line,
    ModelError,
    line_bundle,
    make_bundle,
    make_summand,
    parse_bundle,
    parse_space,
    rank,
    twist,
    twist_summand,
)
from mpreg.cohomology import (
    SummandFacts,
    build_table,
    h_bundle,
    level_windows,
    nonvanishing_t_window,
    summand_facts,
    summand_records,
)
from mpreg.regularity import (_class_windows, _family, box_offsets, holding, is_regular_at,
                              offsets, reg, regularity_failures)
from mpreg.splitting import (
    CHECKS,
    PreconditionError,
    SummandTag,
    TheoremId,
    TheoremVerdict,
    Witness,
    _acm_family,
    _boundary_family,
    _corner_summand,
    _exact_family,
    _interior_family,
    _step_family,
    _summand_fails,
    _summand_tags,
    _tag_label,
    _top_corners,
    _witnesses,
    applicability,
    acm_discrepancy,
    acm_printed_variant_line,
    acm_witnesses,
    classify_form,
    condition_for,
    detect_extremal_summand,
    is_acm,
    mask_checks,
    summand_mask,
    verify_bundle,
    verify_theorem,
)
from reference import (acm_closed_form_line, extremal_menu, h_vector, offset_family,
                       summand_supports,
                       summand_window)


# ---------------------------------------------------------------------------
# ACM


def test_acm_known_cases():
    _, b = parse_bundle("P1xP2", "O(0,0)")
    assert is_acm(b)
    _, b2 = parse_bundle("P1xP2", "O(0,2)")
    assert not is_acm(b2)
    w = acm_witnesses(b2)
    assert w and all(x.dim > 0 for x in w)


def test_acm_balanced_twist_invariance():
    sp = parse_space("P2xP3")
    for a, b in itertools.product(range(-2, 3), repeat=2):
        bundle = line_bundle(sp, (a, b))
        shifted = line_bundle(sp, (a + 3, b + 3))
        assert is_acm(bundle) == is_acm(shifted)


def test_acm_closed_form_matches_brute_force_two_factors():
    for n, m in itertools.product((1, 2, 3), repeat=2):
        sp = parse_space(f"P{n}xP{m}")
        for a, b in itertools.product(range(-4, 5), repeat=2):
            bundle = line_bundle(sp, (a, b))
            assert is_acm(bundle) == acm_closed_form_line(sp, (a, b)), (n, m, a, b)


def test_acm_closed_form_three_factors():
    sp = parse_space("P1xP1xP2")
    for degs in itertools.product(range(-2, 3), repeat=3):
        bundle = line_bundle(sp, degs)
        assert is_acm(bundle) == acm_closed_form_line(sp, degs), degs


def test_printed_two_factor_inequality_transposed():
    # the printed inequality swaps the two dimensions; on an asymmetric space
    # it misclassifies O(0,2)
    sp = parse_space("P1xP2")
    assert acm_printed_variant_line(sp, (0, 2), "b2")
    assert not acm_closed_form_line(sp, (0, 2))
    rep = acm_discrepancy(sp, (-5, 5), "b2")
    assert ((0, 2) in [r["degrees"] for r in rep])


def test_printed_variant_agrees_on_symmetric_spaces():
    for name in ("P1xP1", "P2xP2", "P3xP3"):
        assert acm_discrepancy(parse_space(name), (-5, 5), "b2") == []


def test_general_variant_matches_at_low_arity():
    # the any-s printed form is reliable through three factors
    for name in ("P1xP2", "P2xP3", "P1xP1x P2".replace(" ", "")):
        sp = parse_space(name)
        for degs in itertools.product(range(-3, 4), repeat=sp.num_factors):
            assert acm_printed_variant_line(sp, degs, "b3") == acm_closed_form_line(
                sp, degs
            ), (name, degs)


def test_discrepancy_grid_is_bounded_by_the_table_limit(monkeypatch):
    from mpreg.cohomology import MAX_TABLE_TWISTS

    calls = []
    monkeypatch.setattr("mpreg.splitting.is_acm", lambda b: calls.append(b) or True)
    # 317^2 = 100489 vectors, one row past the limit; 316^2 = 99856 within it
    with pytest.raises(ModelError, match=f"more than {MAX_TABLE_TWISTS} vectors"):
        acm_discrepancy(parse_space("P1xP1"), (0, 316), "b3")
    with pytest.raises(ModelError, match="more than"):
        acm_discrepancy(parse_space("P1xP1"), (-1000000, 1000000), "b3")
    assert calls == []
    acm_discrepancy(parse_space("P1xP1"), (0, 315), "b2")
    assert len(calls) == 316 ** 2


def test_discrepancy_refuses_an_empty_degree_range():
    # as build_table refuses an empty twist range
    for degree_range in ((1, 0), (5, -5)):
        with pytest.raises(ModelError, match="empty degree range"):
            acm_discrepancy(parse_space("P1xP1"), degree_range, "b3")


def test_general_variant_first_gap_at_four_factors():
    sp = parse_space("P1xP1xP1xP1")
    degs = (0, 0, 2, 2)
    assert acm_printed_variant_line(sp, degs, "b3")
    assert not acm_closed_form_line(sp, degs)
    assert not is_acm(line_bundle(sp, degs))


# ---------------------------------------------------------------------------
# conditions and forms


def test_t1_condition_and_form_on_balanced_sum():
    _, b = parse_bundle("P1xP2", "O(1,1) + O(-1,-1)")
    ok, wits = condition_for(b, TheoremId.T1)
    assert ok and not wits
    assert classify_form(b, TheoremId.T1)


def test_t1_condition_fails_off_balance():
    _, b = parse_bundle("P1xP2", "O(0,2)")
    ok, wits = condition_for(b, TheoremId.T1)
    assert not ok
    assert any(w.dim > 0 for w in wits)
    assert not classify_form(b, TheoremId.T1)


def test_t2_form_is_step_line_up_to_balanced_twist():
    _, yes = parse_bundle("P1xP2", "O(2,2) + O(2,3) + O(3,2)")
    assert classify_form(yes, TheoremId.T2)
    _, no = parse_bundle("P1xP2", "O(0,0) + O(0,2)")
    assert not classify_form(no, TheoremId.T2)


def test_t2_condition_known_failure():
    _, b = parse_bundle("P1xP2", "O(0,2)")
    ok, wits = condition_for(b, TheoremId.T2)
    assert not ok


def test_c1_examples():
    _, b = parse_bundle("P2xP3", "O(0,0) + O(0,1)")
    ok, _ = condition_for(b, TheoremId.C1)
    assert ok
    # boundary-only failure at i = n is exempted under the stated index set
    _, b2 = parse_bundle("P2xP3", "O(-1,1)")
    ok2, wits2 = condition_for(b2, TheoremId.C1)
    assert ok2
    assert sorted({w.i for w in wits2}) == [2]
    assert all(not w.required for w in wits2)


def test_c1_witness_sets_for_cotangent_examples():
    # first power with unit twist: the failure sits one past the boundary
    _, b = parse_bundle("P3xP3", "O(-1)*W1(1)")
    ok, wits = condition_for(b, TheoremId.C1)
    assert not ok
    assert sorted({w.i for w in wits}) == [4]
    # with twist two the pair of indices appears
    _, b2 = parse_bundle("P3xP3", "O(-1)*W1(2)")
    ok2, wits2 = condition_for(b2, TheoremId.C1)
    assert sorted({w.i for w in wits2}) == [3, 4]


def test_c2_needs_low_rank():
    _, b = parse_bundle("P2xP3", "O(0,0)")
    ok, wits = condition_for(b, TheoremId.C2)
    assert ok == (not wits)


def test_t0_examples_and_precondition():
    _, b = parse_bundle("P2xP3", "O(0,0) + O(0,1)")
    ok, _ = condition_for(b, TheoremId.T0)
    assert ok
    _, b2 = parse_bundle("P2xP3", "O(0)*W1(2)")
    ok2, _ = condition_for(b2, TheoremId.T0)
    assert ok2
    _, b3 = parse_bundle("P2xP3", "O(3,3)")
    with pytest.raises(PreconditionError):
        condition_for(b3, TheoremId.T0)


def test_t4_matches_t0_spirit_on_general_s():
    _, b = parse_bundle("P1xP1xP2", "O(0,0,0) + O(0,0,1)")
    ok, _ = condition_for(b, TheoremId.T4)
    assert ok


def test_p4_preconditions():
    _, small = parse_bundle("P2xP3", "O(0,0) + O(1,1)")
    with pytest.raises(PreconditionError):
        condition_for(small, TheoremId.P4)
    _, rank3 = parse_bundle("P3xP3", "O(0,0) + O(1,1) + O(0,1)")
    with pytest.raises(PreconditionError):
        condition_for(rank3, TheoremId.P4)


def test_p4_menu_pairs_hold_both_sides():
    for text in ["O(0,0) + O(1,2)", "O(0,1) + O(2,0)"]:
        _, b = parse_bundle("P3xP3", text)
        ok, wits = condition_for(b, TheoremId.P4)
        assert ok and not wits
        assert classify_form(b, TheoremId.P4)


def test_p4_high_degree_sum_is_applicable():
    # Reg(O(3,3) + O) = 0: the twist-down step fails through the trivial
    # summand, so the precondition holds and the verdict is consistent
    _, b = parse_bundle("P3xP3", "O(3,3) + O(0,0)")
    v = verify_theorem(b, TheoremId.P4)
    assert v.applicable
    assert v.condition_holds and v.form_holds and v.consistent


def test_extremal_menu_membership():
    sp = parse_space("P2xP3")
    menu = set(extremal_menu(sp))
    assert len(menu) == 6
    _, t = parse_bundle("P2xP3", "O(0,0)")
    assert t.summands[0] in menu
    _, c = parse_bundle("P2xP3", "O(0)*W2(3)")
    assert c.summands[0] in menu


@pytest.mark.parametrize("space_text", ["P1xP1", "P2xP2", "P2xP3", "P3xP3", "P1xP1xP2", "P1xP2xP3"])
def test_extremal_form_is_menu_membership(space_text):
    from mpreg.harness import EnumerationConfig, enumerate_summands

    space = parse_space(space_text)
    menu = set(extremal_menu(space))
    cfg = EnumerationConfig(spaces=(space_text,), cotangent=True, cot_twist_max=4)
    summands = list(enumerate_summands(space, cfg))
    assert menu <= set(summands)
    for s in summands:
        assert classify_form(make_bundle(space, [s]), TheoremId.T4) == (s in menu), s


def test_form_menus_for_t0():
    _, b = parse_bundle("P2xP3", "O(0,0) + O(0)*W1(2)")
    assert classify_form(b, TheoremId.T0)
    _, b2 = parse_bundle("P2xP3", "O(0)*W1(2)")
    assert classify_form(b2, TheoremId.T0)
    _, b3 = parse_bundle("P2xP3", "O(0,2)")
    assert not classify_form(b3, TheoremId.T0)


def test_p4b_form_excludes_all_ones():
    _, b = parse_bundle("P3xP3xP3", "O(1,1,1) + O(0,0,0)")
    assert classify_form(b, TheoremId.P4B)  # the O summand qualifies
    _, b2 = parse_bundle("P3xP3xP3", "O(1,1,1) + O(2,2,2)")
    assert not classify_form(b2, TheoremId.P4B)


# ---------------------------------------------------------------------------
# detector


def test_detector_labels_on_menu_bundles():
    for text, labels in [
        ("O(0,0)", ["Triv"]),
        ("O(0,1)", ["E01"]),
        ("O(1,0)", ["E10"]),
        ("O(0)*W1(2)", ["CotSecond(1)"]),
        ("W1(2)*O(0)", ["CotFirst(1)"]),
    ]:
        _, b = parse_bundle("P2xP3", text)
        tags = detect_extremal_summand(b)
        assert [t.label for t in tags] == labels, text
        assert all(t.summand in b.summands for t in tags)


def test_detector_requires_reg_zero():
    _, b = parse_bundle("P2xP3", "O(1,1)")
    with pytest.raises(PreconditionError):
        detect_extremal_summand(b)


def test_detector_general_s_labels():
    _, b = parse_bundle("P1xP1xP2", "O(0,0,0)")
    tags = detect_extremal_summand(b)
    assert any(t.label.startswith("GeneralBox[") or t.label == "Triv" for t in tags)


def test_detector_can_fire_off_menu():
    # a Reg-0 bundle outside the menu can still trip a corner probe; the tag
    # then names a summand the bundle does not actually contain
    _, b = parse_bundle("P1xP2", "O(0,2)")
    tags = detect_extremal_summand(b)
    assert tags
    assert any(t.summand not in b.summands for t in tags)


# ---------------------------------------------------------------------------
# verdict assembly


def test_verdict_not_applicable_routes():
    _, b = parse_bundle("P1xP1xP1", "O(0,0,0)")
    v = verify_theorem(b, TheoremId.T1)
    assert not v.applicable and v.reason
    _, b2 = parse_bundle("P2xP3", "O(1,1)")
    v2 = verify_theorem(b2, TheoremId.T0)
    assert not v2.applicable and "Reg" in v2.reason


def test_verdict_consistency_flag():
    _, b = parse_bundle("P1xP2", "O(1,1)")
    v = verify_theorem(b, TheoremId.T1)
    assert v.applicable and v.consistent
    assert v.condition_holds == v.form_holds == True  # noqa: E712


def test_verdict_detector_agreement_on_menu():
    _, b = parse_bundle("P2xP3", "O(0,0) + O(0,1)")
    v = verify_theorem(b, TheoremId.T0)
    assert v.applicable and v.consistent
    assert v.detector_agrees
    assert {t.label for t in v.detected} == {"Triv", "E01"}


def test_witness_refuses_a_window_unbounded_below():
    # H^1 of O(t) on P1 is nonzero for every t <= -2: there is no least twist
    _, b = parse_bundle("P1", "O(0)")

    def top(space, r):
        return [(1, (0,), True)]

    def bottom(space, r):
        return [(0, (0,), True)]

    with pytest.raises(ModelError, match="unbounded below"):
        _witnesses(b, top, rank(b), None)
    [w] = _witnesses(b, bottom, rank(b), None)
    assert (w.t, w.dim) == (0, 1)
    # the per-summand bit raises as well, and neither read stores a bit: a
    # fresh record (its own diagonal class) keeps its windows and no mask
    (f,) = [SummandFacts(g.atoms) for g in summand_records(b)]
    with pytest.raises(ModelError, match="unbounded below"):
        _summand_fails(b.space, f, top, rank(b), None)
    assert _summand_fails(b.space, f, bottom, rank(b), None) is True
    assert f.masks == {}


def test_fixed_twist_bit_reads_only_windows_holding_the_twist():
    # H^1 of O(t, t+2) on P1xP1 is nonzero at t = -2 only: inside T0's family
    # at some balanced twist, but not at T0's fixed twist -1
    _, b = parse_bundle("P1xP1", "O(0,0) + O(0,2)")
    spec, r = CHECKS[TheoremId.T0], rank(b)
    assert any(_summand_fails(b.space, f, spec.family, r, None) for f in summand_records(b))
    assert verify_theorem(b, TheoremId.T0).condition_holds is True
    assert condition_for(b, TheoremId.T0) == (True, [])


def test_condition_checker_arity_guard():
    _, b = parse_bundle("P1xP1xP1", "O(0,0,0)")
    with pytest.raises(ArityError):
        condition_for(b, TheoremId.C1)
    v = verify_theorem(b, TheoremId.T2)
    assert not v.applicable


_WRONG_ARITY = {  # every engine door reads the summands' records first
    "h_vector": lambda b: h_vector(b, (0, 0)),  # h_bundle, once per degree
    "reg": reg,
    "verify_bundle": lambda b: verify_bundle(b, list(TheoremId)),
    "classify_form": lambda b: classify_form(b, TheoremId.T1),
    "is_acm": is_acm,
    "build_table": lambda b: build_table(b, ((0, 1), (0, 1))),
}


@pytest.mark.parametrize("door", _WRONG_ARITY)
@pytest.mark.parametrize("atoms", [(Line(0),), (Line(0), Line(1), Line(2))],
                         ids=["one_atom", "three_atoms"])
def test_a_summand_of_the_wrong_arity_is_refused(door, atoms):
    # Bundle(...) checks nothing; summand_facts refuses the key on a miss
    bundle = Bundle(parse_space("P1xP1"), (BoxSummand(atoms),))
    with pytest.raises(ArityError, match="the space has 2 factors"):
        _WRONG_ARITY[door](bundle)


_EMPTY = {  # every engine door refuses a bundle with no summand
    "h_bundle": lambda b: h_bundle(b, (0, 0), 0),
    "build_table": lambda b: build_table(b, ((0, 1), (0, 1))),
    "reg": reg,
    "is_regular_at": lambda b: is_regular_at(b, 0),
    "regularity_failures": lambda b: regularity_failures(b, (1, -1)),
    "is_acm": is_acm,
    "acm_witnesses": acm_witnesses,
    "verify_bundle": lambda b: verify_bundle(b, list(TheoremId)),
    "classify_form": lambda b: classify_form(b, TheoremId.T1),
}

_EMPTY_OFF_TWO_FACTORS = {  # on P1xP1xP1, where these checks apply to no bundle
    "verify_bundle_two_factor_ids": lambda b: verify_bundle(b, [TheoremId.T1, TheoremId.C2]),
    "applicability_two_factor_id": lambda b: applicability(b, "T0"),
}


@pytest.mark.parametrize("door", [*_EMPTY, *_EMPTY_OFF_TWO_FACTORS])
def test_an_empty_bundle_is_refused(door):
    # Bundle(...) checks nothing; summand_records refuses it as make_bundle
    # does, before any check's precondition is read
    three = door in _EMPTY_OFF_TWO_FACTORS
    bundle = Bundle(parse_space("P1xP1xP1" if three else "P1xP1"), ())
    with pytest.raises(ModelError, match="a bundle needs at least one summand"):
        (_EMPTY_OFF_TWO_FACTORS if three else _EMPTY)[door](bundle)


def test_condition_for_enforces_rank_preconditions():
    # rank 6 on P2xP3: both rank bounds fail, and the condition must say so
    # instead of evaluating an unbounded window
    _, b = parse_bundle("P2xP3", "W1(-1)*W2(-1)")
    for tid in (TheoremId.C1, TheoremId.C2):
        with pytest.raises(PreconditionError):
            condition_for(b, tid)


def test_condition_for_enforces_arity_of_two_factor_checks():
    _, b = parse_bundle("P1xP1xP2", "O(0,0,0)")
    for tid in (TheoremId.T1, TheoremId.T2):
        with pytest.raises(ArityError):
            condition_for(b, tid)


def test_verify_theorem_computes_reg_at_most_once(monkeypatch):
    from mpreg import splitting

    real_reg = splitting.reg
    calls = []

    def counting_reg(*args, **kwargs):
        calls.append(args)
        return real_reg(*args, **kwargs)

    monkeypatch.setattr(splitting, "reg", counting_reg)
    for space, text in (("P2xP3", "O(0,0) + O(0,1)"), ("P3xP3", "O(0,0) + O(1,2)"),
                        ("P2xP3", "O(1,1)"), ("P1xP1xP2", "O(0,0,0)")):
        _, b = parse_bundle(space, text)
        for tid in TheoremId:
            calls.clear()
            verify_theorem(b, tid)
            assert len(calls) <= 1, (text, tid)


def _pointwise_detector(bundle):
    """The reference detector: h_bundle of the whole bundle at each top
    corner h, H^|h| at -1-h, in the order of the corner product."""
    space, tags = bundle.space, []
    for h in itertools.product(*(range(n + 1) for n in space.dims)):
        if any(hj == n for hj, n in zip(h, space.dims)) and h_bundle(
                bundle, tuple(-1 - hj for hj in h), sum(h)):
            s = _corner_summand(space, h)
            tags.append(SummandTag(_tag_label(space, h, s), h, s))
    return tags


@st.composite
def _reg_zero_bundles(draw):
    """Two or three factors of dimension 1 to 3, 1 to 3 summands with
    cotangent atoms where a factor allows them, twisted to Reg = 0."""
    dims = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    space = parse_space("x".join(f"P{n}" for n in dims))
    degree = st.integers(-3, 3)

    def atom(n):
        return draw(st.builds(Cotangent, st.integers(1, n - 1), degree)
                    if n > 1 and draw(st.booleans()) else degree.map(Line))

    bundle = make_bundle(space, [make_summand(space, [atom(n) for n in dims])
                                 for _ in range(draw(st.integers(1, 3)))])
    return twist(bundle, (reg(bundle),) * len(dims))


@settings(max_examples=200, deadline=None)
@given(_reg_zero_bundles())
def test_detector_fold_matches_pointwise_probes(bundle):
    assert reg(bundle) == 0
    expected = _pointwise_detector(bundle)
    assert detect_extremal_summand(bundle) == expected
    assert detect_extremal_summand(bundle, reg_value=0) == expected
    for f in summand_records(bundle):
        assert _summand_tags(bundle.space, f) == _summand_tags(bundle.space, SummandFacts(f.atoms))
    ids = (TheoremId.T4, TheoremId.T0) if bundle.space.num_factors == 2 else (TheoremId.T4,)
    for verdict in verify_bundle(bundle, ids):
        assert verdict.detected == tuple(expected)
        agrees = all(t.summand in bundle.summands for t in expected) if expected else None
        assert verdict.detector_agrees == agrees


@st.composite
def _reg_zero_bundles_on_detector_spaces(draw):
    """1 to 4 summands on P1xP1, P2xP2, P1xP1xP1 or P1xP2xP2, cotangent
    atoms included, twisted to Reg = 0."""
    space = parse_space(draw(st.sampled_from(["P1xP1", "P2xP2", "P1xP1xP1", "P1xP2xP2"])))
    degree = st.integers(-3, 3)
    atoms = [st.one_of(degree.map(Line), st.builds(Cotangent, st.integers(1, n - 1), degree))
             if n > 1 else degree.map(Line) for n in space.dims]
    bundle = make_bundle(space, [make_summand(space, [draw(a) for a in atoms])
                                 for _ in range(draw(st.integers(1, 4)))])
    return twist(bundle, (reg(bundle),) * space.num_factors)


@settings(max_examples=200, deadline=None)
@given(_reg_zero_bundles_on_detector_spaces())
def test_detector_tags_match_a_probe_over_the_top_corners(bundle):
    # sorted corners of the summands' tags replace the walk over the corners
    space = bundle.space
    assert reg(bundle) == 0
    expected = [(_tag_label(space, h, s), h, s) for h in _top_corners(space)
                if h_bundle(bundle, tuple(-1 - hj for hj in h), sum(h))
                for s in [_corner_summand(space, h)]]
    got = [(t.label, t.corner, t.summand) for t in detect_extremal_summand(bundle)]
    assert got == expected


# ---------------------------------------------------------------------------
# verdicts, witnesses and Reg as folds of per-summand records


@st.composite
def _fold_bundles(draw):
    """1 to 3 factors of dimension 1 to 3, 1 to 3 summands of O(a) and
    W^p(c) atoms with degrees and twists -3..3."""
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    space = parse_space("x".join(f"P{n}" for n in dims))
    degree = st.integers(-3, 3)

    def atom(n):
        lines = degree.map(Line)
        return st.one_of(lines, st.builds(Cotangent, st.integers(1, n - 1), degree)) if n > 1 else lines

    count = draw(st.integers(1, 3))
    return make_bundle(space, [make_summand(space, [draw(atom(n)) for n in dims])
                               for _ in range(count)])


def _reference_witnesses(bundle, family, twist):
    """The witnesses read off the merged bundle window and h_bundle."""
    found = []
    for i, k, required in family:
        t = twist
        if t is None:
            window = nonvanishing_t_window(bundle, k, i)
            if not window:
                continue
            t = window[0][0]
        dim = h_bundle(bundle, tuple(t + kj for kj in k), i)
        if dim:
            found.append(Witness(i, k, t, dim, required))
    return found


def _reference_reg(bundle, definition):
    tops = []
    for i, k, _ in offsets(bundle.space, _family(definition), 0):
        window = nonvanishing_t_window(bundle, k, i)
        if window:
            tops.append(window[-1][1])
    return 1 + max(tops)


@settings(max_examples=200, deadline=None)
@given(_fold_bundles())
def test_fold_matches_bundle_windows_and_h_bundle(bundle):
    space, r = bundle.space, rank(bundle)
    for tid in TheoremId:
        if applicability(bundle, tid) is not None:
            continue
        spec = CHECKS[tid]
        witnesses = _reference_witnesses(bundle, spec.family(space, r), spec.twist)
        expected = (not any(w.required for w in witnesses), witnesses)
        assert condition_for(bundle, tid) == expected, tid
    assert acm_witnesses(bundle) == _reference_witnesses(bundle, _acm_family(space, r), None)
    assert reg(bundle) == _reference_reg(bundle, "paper")
    if space.num_factors == 2:
        assert reg(bundle, "hw") == _reference_reg(bundle, "hw")


@settings(max_examples=200, deadline=None)
@given(_fold_bundles())
def test_least_twist_dimension_is_the_sum_over_summands_starting_there(bundle):
    space = bundle.space
    for i in range(1, space.total_dim):
        for k in (k for k in box_offsets(space) if sum(k) >= -i):
            windows = [level_windows(summand_supports(space, twist_summand(space, s, k))).get(i)
                       for s in bundle.summands]
            los = [w[0] for w in windows if w is not None]
            if not los:
                continue
            t0 = min(los)
            tvec = tuple(t0 + kj for kj in k)
            starting = [s for s, w in zip(bundle.summands, windows) if w and w[0] == t0]
            expected = sum(h_bundle(make_bundle(space, [s]), tvec, i) for s in starting)
            assert h_bundle(bundle, tvec, i) == expected > 0


@settings(max_examples=200, deadline=None)
@given(_fold_bundles())
def test_acm_fold_matches_witnesses(bundle):
    assert is_acm(bundle) == (not acm_witnesses(bundle))


@settings(max_examples=100, deadline=None)
@given(_fold_bundles())
# T2B findings: the condition holds, the form fails
@example(parse_bundle("P1xP1xP1", "O(0,1,2)")[1])
@example(parse_bundle("P1xP1xP2", "O(-1,0,1) + O(0,0,0)")[1])
def test_decoded_masks_match_the_verdicts(bundle):
    # every tuple of the folding checks that apply on the space, as a sweep's key
    space, records = bundle.space, summand_records(bundle)
    folding = [t for t, spec in CHECKS.items()
               if spec.spread is not None and (space.num_factors == 2 or not spec.two_factor)]
    acm = is_acm(bundle)
    for size in range(1, len(folding) + 1):
        for key in itertools.permutations(folding, size):
            mask = 0
            for f in records:
                mask |= summand_mask(space, f, key)
            verdicts = verify_bundle(bundle, key)
            decoded, regular = mask_checks(key, mask)
            assert regular is True, key  # no gated id in the key
            if decoded is None:  # every check agrees
                assert all(v.consistent for v in verdicts), key
                assert acm or not any(v.condition_holds for v in verdicts
                                      if CHECKS[v.theorem].acm_crosscheck), key
                continue
            for t, v in zip(key, verdicts):
                condition, form_holds, window = decoded[t]
                assert v.applicable and (condition, form_holds) == (v.condition_holds,
                                                                     v.form_holds), (key, t)
                if condition and CHECKS[t].acm_crosscheck:
                    assert window == (not acm), (key, t)


def test_mask_checks_reads_reg_zero_off_the_one_reg_pair():
    # Reg of a sum is the max over its summands: it is 0 exactly when no
    # summand has Reg above 0 and some summand has Reg 0
    space = parse_space("P2xP2")
    folds = tuple(t for t, spec in CHECKS.items() if spec.spread is not None)
    key = folds + tuple(t for t, spec in CHECKS.items() if spec.reg_zero)
    pool = [make_summand(space, atoms) for atoms in itertools.product(
        [Line(-2), Line(-1), Line(0), Line(1), Cotangent(1, 1), Cotangent(1, 2)], repeat=2)]
    records = [summand_facts(space.dims, s.key) for s in pool]
    regs = [reg(make_bundle(space, [s])) for s in pool]
    assert {(v > 0) - (v < 0) for v in regs} == {-1, 0, 1}
    low = (1 << 3 * len(folds)) - 1  # the folded slots
    for f in records:  # at most two bits above the folded slots: the Reg pair
        assert summand_mask(space, f, key) >> 3 * len(folds) < 4
        assert summand_mask(space, f, key) & low == summand_mask(space, f, folds)
    for size in (1, 2):
        for chosen in itertools.combinations_with_replacement(range(len(pool)), size):
            mask = folded = 0
            for j in chosen:
                mask |= summand_mask(space, records[j], key)
                folded |= summand_mask(space, records[j], folds)
            values = [regs[j] for j in chosen]
            bits, regular = mask_checks(key, mask)
            assert regular == (not any(v > 0 for v in values) and 0 in values), chosen
            assert regular == (reg(make_bundle(space, [pool[j] for j in chosen])) == 0)
            # a key with no gated id decodes the same folded checks, and Reg = 0 as True
            assert mask_checks(folds, folded) == (bits, True), chosen


_FAMILIES = {"paper": _family("paper"), "exact": _exact_family, "step": _step_family,
             "interior": _interior_family, "boundary": _boundary_family}


@pytest.mark.parametrize("text", ["P1xP1", "P2xP3", "P1xP1xP2"])
def test_offset_families_filter_one_box_in_order(text):
    space = parse_space(text)
    for name, family in _FAMILIES.items():
        if name == "boundary" and space.num_factors != 2:
            continue
        for r in range(4):
            assert offsets(space, family, r) == tuple(offset_family(space, name, r)), (name, r)


@given(st.integers(1, 6), st.lists(st.integers(-3, 3), min_size=1, max_size=3),
       st.integers(-5, 5), st.integers(0, 10**30), st.booleans())
def test_witness_json_is_asdict_with_list_and_string(i, k, t, dim, required):
    w = Witness(i, tuple(k), t, dim, required)
    expected = {**dataclasses.asdict(w), "k": list(w.k), "dim": str(w.dim)}
    assert json.dumps(w.to_json()) == json.dumps(expected)


def test_splitting_memos_match_unwrapped():
    # windows and bits against the reference's brute force: _class_windows
    # gives the memoized windows of the diagonal class the record carries,
    # the atoms twisted to first twist 0, equal to an unmemoized sweep and to the
    # summand's own windows shifted by its first twist c; its bit reads them
    # at the twist plus c
    for space_text, text in [
        ("P1xP2", "O(0,2) + O(-3)*W1(1)"),
        ("P2xP2", "W1(0)*W1(3) + O(-2,1)"),
        ("P1xP1xP2", "O(0,1,2) + O(-1)*O(0)*W1(-2)"),
    ]:
        space, b = parse_bundle(space_text, text)
        first_twists = {summand_facts(space.dims, s.key).atoms[0][2] for s in b.summands}
        assert 0 in first_twists and len(first_twists) == 2  # one summand reads at t + c
        for spec in CHECKS.values():
            if spec.two_factor and space.num_factors != 2:
                continue
            r = rank(b) if spec.reads_rank else 0  # the rank the verdict path keys on
            family = offsets(space, spec.family, r)
            assert family == offsets.__wrapped__(space, spec.family, r)
            assert offsets(space, spec.family, r) is family
            t = spec.twist
            for s in b.summands:
                expected = tuple((index, *window) for index, (i, k, _) in enumerate(family)
                                 for window in [summand_window(space, s, k, i)]
                                 if window is not None)
                f = summand_facts(space.dims, s.key)
                c = f.atoms[0][2]
                record = _class_windows(space, f.diagonal, spec.family, r)
                assert record == tuple((index, None if lo is None else lo + c,
                                        None if hi is None else hi + c)
                                       for index, lo, hi in expected), (text, spec, s)
                assert _class_windows(space, f.diagonal, spec.family, r) is record
                factors = tuple((n, p, t - c) for n, p, t in f.atoms)
                assert f.diagonal == factors and (c or f.diagonal is f.atoms)
                assert record == _class_windows.__wrapped__(space, factors, spec.family, r)
                # holding reads them at the twist plus c: the summand's own
                # windows that hold the twist, or each at its least twist
                held = [(index, lo if t is None else t) for index, lo, hi in expected
                        if t is None or (lo is None or lo <= t) and (hi is None or t <= hi)]
                assert holding(space, f, spec.family, r, t) == held, (text, spec, s)
                bit = any(family[index][2] for index, _ in held)
                assert _summand_fails(space, f, spec.family, r, t) == bit, (text, spec, s)


@st.composite
def _summands_and_diagonal_twists(draw):
    """A summand on 1 to 3 factors of dimension 1 to 3, with cotangent atoms
    where a factor allows them, and a diagonal twist c with |c| <= 10^6."""
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    space = parse_space("x".join(f"P{n}" for n in dims))
    degree = st.integers(-4, 4)
    atoms = [draw(st.one_of(degree.map(Line), st.builds(Cotangent, st.integers(1, n - 1), degree))
                  if n > 1 else degree.map(Line)) for n in dims]
    return space, make_summand(space, atoms), draw(st.integers(-10**6, 10**6))


@settings(max_examples=150, deadline=None)
@given(_summands_and_diagonal_twists())
@example((parse_space("P1xP1xP1"), make_summand(parse_space("P1xP1xP1"),
                                                 [Line(0), Line(1), Line(2)]), 3))
@example((parse_space("P2xP3"), make_summand(parse_space("P2xP3"),
                                             [Cotangent(1, 2), Cotangent(2, -1)]), -10**6))
def test_a_diagonal_twist_shifts_windows_and_reg_and_keeps_bits_and_masks(drawn):
    # S(c) reads the class windows of S, which are those of S shifted by its
    # first twist, and has Reg minus c, the bits of S at the twist plus c and
    # the masks of S, its Reg bits read at Reg minus c; the windows match the
    # brute-force windows of the reference
    space, s, c = drawn
    shifted = twist_summand(space, s, (c,) * space.num_factors)
    f, g = (summand_facts(space.dims, x.key) for x in (s, shifted))
    two = space.num_factors == 2
    specs = [spec for spec in CHECKS.values() if two or not spec.two_factor]
    definitions = ("paper", "hw") if two else ("paper",)
    families = {spec.family for spec in specs} | {_acm_family} | set(map(_family, definitions))

    def reference(family, r):
        return tuple((index, *window) for index, (i, k, _) in enumerate(offsets(space, family, r))
                     for window in [summand_window(space, s, k, i)] if window is not None)

    def moved(windows, by):
        return tuple((index, None if lo is None else lo - by, None if hi is None else hi - by)
                     for index, lo, hi in windows)

    for family in families:
        for r in range(4):
            windows = _class_windows(space, f.diagonal, family, r)
            assert _class_windows(space, g.diagonal, family, r) is windows
            assert windows == moved(reference(family, r), -f.atoms[0][2])
    regs = {d: 1 + max(hi for _, _, hi in reference(_family(d), 0)) for d in definitions}
    for d in definitions:
        assert reg(make_bundle(space, [shifted]), d) == regs[d] - c
        assert reg(make_bundle(space, [s]), d) == regs[d]

    def fails(family, r, t):  # some required window of S holds t, or any t for None
        required = offsets(space, family, r)
        return any(required[index][2] and (t is None or (lo is None or lo <= t)
                                            and (hi is None or t <= hi))
                   for index, lo, hi in reference(family, r))

    for spec in specs:
        for r in range(4):
            for t in [spec.twist] if spec.twist is None else [spec.twist, spec.twist - 1]:
                bit = fails(spec.family, r, t if t is None else t + c)
                assert _summand_fails(space, g, spec.family, r, t) == bit
                assert _summand_fails(space, f, spec.family, r,
                                      t if t is None else t + c) == bit
    spread = None if s.degrees is None else max(s.degrees) - min(s.degrees)
    assert f.spread == g.spread == spread
    folds = tuple(t for t, spec in CHECKS.items()
                  if (two or not spec.two_factor) and spec.spread is not None)
    key = folds + tuple(t for t, spec in CHECKS.items()
                        if (two or not spec.two_factor) and spec.reg_zero)
    for facts, value in ((g, regs["paper"] - c), (f, regs["paper"])):
        expected = 0
        for j, theorem in enumerate(folds):
            spec = CHECKS[theorem]
            failed = fails(spec.family, 0, None)
            window = spec.acm_crosscheck and not failed and fails(_acm_family, 0, None)
            bits = failed | (spread is None or spread > spec.spread) << 1 | window << 2
            expected |= bits << 3 * j
        # one Reg pair after the folded slots, for every gated id of the key
        expected |= ((value > 0) | (value == 0) << 1) << 3 * len(folds)
        assert summand_mask(space, facts, key) == expected


# ---------------------------------------------------------------------------
# verdicts: the condition from per-summand bits, the witnesses when read


@settings(max_examples=200, deadline=None)
@given(_fold_bundles())
def test_verdict_bits_and_lazy_witnesses_match_condition_for(bundle):
    for tid in TheoremId:
        if applicability(bundle, tid) is not None:
            continue
        cond, witnesses = condition_for(bundle, tid)
        verdict = verify_theorem(bundle, tid)
        assert verdict.condition_holds == cond, tid
        assert verdict.witnesses == tuple(witnesses), tid


@settings(max_examples=200, deadline=None)
@given(_fold_bundles())
def test_verify_bundle_matches_one_verdict_per_id(bundle):
    verdicts = verify_bundle(bundle, tuple(TheoremId))
    expected = [verify_theorem(bundle, tid) for tid in TheoremId]
    assert verdicts == expected
    assert [v.witnesses for v in verdicts] == [v.witnesses for v in expected]


@st.composite
def _some_reg_zero_bundles(draw):
    """_fold_bundles, about half of them twisted to Reg = 0."""
    bundle = draw(_fold_bundles())
    if draw(st.booleans()):
        bundle = twist(bundle, (-reg(bundle),) * bundle.space.num_factors)
    return bundle


def _respell(draw, bundle):
    """The same sheaf made with Bundle(space, ...), each line atom O(t)
    written O(t), W^0(t) or W^n(t + n + 1): atoms not in normal form, whose
    summands keep degrees None."""
    space = bundle.space
    return Bundle(space, tuple(BoxSummand(tuple(
        draw(st.sampled_from([a, Cotangent(0, a.degree), Cotangent(n, a.degree + n + 1)]))
        if isinstance(a, Line) else a for n, a in zip(space.dims, s.atoms)))
        for s in bundle.summands))


@st.composite
def _row_bundles(draw):
    """_some_reg_zero_bundles, or the same sheaves respelled (_respell)."""
    bundle = draw(_some_reg_zero_bundles())
    return _respell(draw, bundle) if draw(st.booleans()) else bundle


_SPREADS = {TheoremId.T1: 0, TheoremId.T3: 0, TheoremId.T2: 1, TheoremId.T2B: 1,
            TheoremId.C1: 1, TheoremId.C2: 1}


def _reference_form(bundle, tid):
    """The form of the sheaf, read off the bundle's make_bundle twin: its
    degree tuples, one per summand (None for a summand with a cotangent
    atom), and for T4 and T0 whether a summand is on extremal_menu."""
    twin = make_bundle(bundle.space, bundle.summands)
    degrees = tuple(s.degrees for s in twin.summands)
    if tid in _SPREADS:
        return all(d is not None and max(d) - min(d) <= _SPREADS[tid] for d in degrees)
    if tid in (TheoremId.P4, TheoremId.P4B):
        if len(degrees) != 2 or None in degrees:
            return False
        menu = ((lambda d: not any(d) or d in ((0, 1), (1, 0))) if tid is TheoremId.P4
                else (lambda d: set(d) <= {0, 1} and 0 in d))
        return any(menu(a) and min(b) >= 0 for a, b in (degrees, degrees[::-1]))
    menu = extremal_menu(bundle.space)
    return any(s in menu for s in twin.summands)


def _reference_row(bundle, tid):
    """(reason, condition, form, detected, agrees, witnesses) from the
    preconditions, the bundle's merged windows at the bundle's rank,
    _reference_form and the pointwise detector, agreeing when the
    make_bundle twin holds every tagged summand."""
    space, spec, r = bundle.space, CHECKS[tid], rank(bundle)
    if spec.two_factor and space.num_factors != 2:
        reason = f"{tid.value} is a two-factor check, space has {space.num_factors} factors"
    else:
        reason = spec.rank_rule and spec.rank_rule(space, r)
    if reason is None and spec.reg_zero and reg(bundle) != 0:
        reason = f"Reg must be 0, got {reg(bundle)}"
    if reason is not None:
        return reason, None, None, (), None, []
    witnesses = _reference_witnesses(bundle, spec.family(space, r), spec.twist)
    detected, agrees = (), None
    if spec.detector:
        detected = tuple(_pointwise_detector(bundle))
        twin = make_bundle(space, bundle.summands)
        agrees = all(t.summand in twin.summands for t in detected) if detected else None
    return (None, not any(w.required for w in witnesses), _reference_form(bundle, tid),
            detected, agrees, witnesses)


@settings(max_examples=200, deadline=None)
@given(_row_bundles(), st.lists(st.sampled_from(list(TheoremId)), min_size=1, unique=True))
def test_verdicts_match_the_bundle_level_reference(bundle, ids):
    verdicts = verify_bundle(bundle, ids)
    assert len(verdicts) == len(ids)
    for tid, v in zip(ids, verdicts):
        fields = (v.reason, v.condition_holds, v.form_holds, v.detected, v.detector_agrees,
                  list(v.witnesses))
        assert (v.theorem, v.applicable) == (tid, v.reason is None), tid
        if v.applicable:
            assert v.consistent == (v.condition_holds == v.form_holds) and v.bundle is bundle, tid
        else:
            assert (v.consistent, v.bundle) == (None, None), tid
        assert fields == _reference_row(bundle, tid), tid
    for tid in TheoremId:
        assert classify_form(bundle, tid) == _reference_form(bundle, tid), tid


def _verdict_fields(bundle, ids):
    """The bundle's verdicts for ids with the bundle field cleared: every
    other field, which two spellings of one sheaf share."""
    return [dataclasses.replace(v, bundle=None) for v in verify_bundle(bundle, ids)]


@st.composite
def _respelled_bundles(draw):
    """(twin, respelled): a _some_reg_zero_bundles bundle and the same sheaf
    with some atom out of normal form (_respell)."""
    twin = draw(_some_reg_zero_bundles())
    respelled = _respell(draw, twin)
    assume(respelled != twin)
    return twin, respelled


@settings(max_examples=200, deadline=None)
@given(_respelled_bundles())
def test_a_sheaf_written_out_of_normal_form_gets_the_verdict_of_its_twin(pair):
    twin, respelled = pair
    ids = list(TheoremId)
    # one record per sheaf, whatever the spelling
    assert all(a is b for a, b in zip(summand_records(respelled), summand_records(twin)))
    assert _verdict_fields(respelled, ids) == _verdict_fields(twin, ids)
    for tid in ids:
        assert classify_form(respelled, tid) == classify_form(twin, tid), tid
    if reg(twin) == 0:
        assert detect_extremal_summand(respelled) == detect_extremal_summand(twin)


def test_cotangent_written_as_a_line_is_read_as_that_line():
    # W^2(3) on P2 is O(0), so this is the sheaf O(0,1) on P2xP1: its forms
    # hold and its T4 verdict is consistent and agrees with the detector
    space = parse_space("P2xP1")
    written = Bundle(space, (BoxSummand((Cotangent(2, 3), Line(1))),))
    _, twin = parse_bundle("P2xP1", "O(0,1)")
    for tid in (TheoremId.T0, TheoremId.T4, TheoremId.T2):
        assert classify_form(written, tid) is True, tid
    verdict = verify_theorem(written, TheoremId.T4)
    assert verdict.applicable and verdict.consistent and verdict.detector_agrees is True
    assert [t.label for t in verdict.detected] == ["E01"]
    assert _verdict_fields(written, list(TheoremId)) == _verdict_fields(twin, list(TheoremId))


@settings(max_examples=200, deadline=None)
@given(_some_reg_zero_bundles())
def test_applicability_and_condition_for_read_the_verdict(bundle):
    space = bundle.space
    for tid in TheoremId:
        spec, verdict = CHECKS[tid], verify_theorem(bundle, tid)
        # the preconditions, in order: two factors, the rank rule, Reg = 0
        two_factor = spec.two_factor and space.num_factors != 2
        reason = (f"{tid.value} is a two-factor check, space has {space.num_factors} factors"
                  if two_factor else spec.rank_rule and spec.rank_rule(space, rank(bundle)))
        if reason is None and spec.reg_zero and reg(bundle) != 0:
            reason = f"Reg must be 0, got {reg(bundle)}"
        assert verdict.reason == reason and verdict.applicable == (reason is None), tid
        assert applicability(bundle, tid) == verdict.reason, tid
        if verdict.applicable:
            assert condition_for(bundle, tid) == (verdict.condition_holds,
                                                  list(verdict.witnesses)), tid
        else:
            with pytest.raises(ModelError) as raised:
                condition_for(bundle, tid)
            assert type(raised.value) is (ArityError if two_factor else PreconditionError), tid
            assert str(raised.value) == verdict.reason, tid


_LAZY_CASES = (("P2xP3", "O(0,0) + O(0,1)"), ("P1xP2", "O(1,1)"), ("P1xP2", "O(0,2)"),
               ("P3xP3", "O(0,0) + O(1,2)"), ("P1xP1xP2", "O(0,0,1) + O(-1,0,2)"))


def test_verdict_builds_witnesses_only_when_read(monkeypatch):
    from mpreg import splitting

    real_witnesses, real_witness = splitting._witnesses, splitting.Witness
    folds, built = [], []

    def counting_witnesses(*args):
        folds.append(args)
        return real_witnesses(*args)

    def counting_witness(*args):
        built.append(args)
        return real_witness(*args)

    monkeypatch.setattr(splitting, "_witnesses", counting_witnesses)
    monkeypatch.setattr(splitting, "Witness", counting_witness)
    read = 0
    for space, text in _LAZY_CASES:
        _, b = parse_bundle(space, text)
        for tid in TheoremId:
            verdict = verify_theorem(b, tid)
            if verdict.applicable and verdict.consistent:
                assert isinstance(verdict.condition_holds, bool)
                assert (folds, built) == ([], []), (text, tid)
                # read once, then cached
                assert verdict.witnesses == verdict.witnesses
                assert len(folds) == 1
                read += bool(built)
                folds.clear()
                built.clear()
    assert read  # some verdicts did have witnesses to build


def test_reading_witnesses_calls_reg_no_further(monkeypatch):
    from mpreg import splitting

    real_reg = splitting.reg
    calls = []

    def counting_reg(*args, **kwargs):
        calls.append(args)
        return real_reg(*args, **kwargs)

    monkeypatch.setattr(splitting, "reg", counting_reg)
    checked = 0
    for space, text in _LAZY_CASES:
        _, b = parse_bundle(space, text)
        for tid in TheoremId:
            calls.clear()
            verdict = verify_theorem(b, tid)
            assert len(calls) <= 1, (text, tid)
            calls.clear()
            witnesses = verdict.witnesses
            assert calls == [], (text, tid)
            if verdict.applicable:
                assert witnesses == tuple(condition_for(b, tid)[1])
                checked += CHECKS[tid].reg_zero
    assert checked


def test_h_bundle_runs_once_per_group_reported(monkeypatch):
    # membership reads the windows alone: is_regular_at asks h_bundle
    # nothing, and regularity_failures and a verdict's witnesses ask it only
    # for the dimensions of the groups they return, fixed twists included
    from mpreg import regularity, splitting

    calls = []

    def counting(bundle, tvec, i):
        calls.append((tuple(tvec), i))
        return h_bundle(bundle, tvec, i)

    monkeypatch.setattr(regularity, "h_bundle", counting)
    monkeypatch.setattr(splitting, "h_bundle", counting)
    fixed = []
    for space, text, points in [
        ("P2xP2", "O(3,-2) + W1(5)*O(-4)", [0, 4, (0, 1), (-3, 2), (5, -1)]),
        ("P2xP2", "O(1)*W1(2)", [-1, 0, (0, -1)]),
        ("P1xP1", "O(0,0) + O(0,2)", [-1, 0, (-2, 1)]),
        ("P1xP1xP2", "O(0,1,2) + O(-1)*O(0)*W1(-2)", [-2, 1, (0, 1, -2), (3, -1, 0)]),
    ]:
        _, b = parse_bundle(space, text)
        for p in points:
            calls.clear()
            regular = is_regular_at(b, p)
            assert calls == []
            pv = (p,) * b.space.num_factors if isinstance(p, int) else p
            fails = regularity_failures(b, p)
            assert calls == [(tuple(a + kj for a, kj in zip(pv, k)), i) for i, k, _ in fails]
            assert regular == (not fails)
        for verdict in verify_bundle(b, list(TheoremId)):
            calls.clear()
            witnesses = verdict.witnesses
            assert calls == [(tuple(w.t + kj for kj in w.k), w.i) for w in witnesses]
            assert all(w.dim > 0 for w in witnesses)
            if CHECKS[verdict.theorem].twist is not None and verdict.applicable:
                fixed.append((verdict.theorem, text, [w.t for w in witnesses]))
    # T0 at -1 with a witness, and without one where a window misses the twist
    assert (TheoremId.T0, "O(1)*W1(2)", [-1]) in fixed
    assert (TheoremId.T0, "O(0,0) + O(0,2)", []) in fixed


def _field_by_field(**values):
    """A verdict made as the generated frozen __init__ makes one: a
    setattr per field, the defaults for the fields not given."""
    defaults = {"reason": None, "condition_holds": None, "form_holds": None, "consistent": None,
                "detected": (), "detector_agrees": None, "bundle": None}
    # every field but the two without a default, and no rank: the witnesses
    # read it off the bundle
    assert {f.name for f in dataclasses.fields(TheoremVerdict)} == {"theorem", "applicable",
                                                                   *defaults}
    verdict = object.__new__(TheoremVerdict)
    for f in dataclasses.fields(TheoremVerdict):
        object.__setattr__(verdict, f.name, values.get(f.name, defaults.get(f.name)))
    return verdict


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_LAZY_CASES), st.sampled_from(list(TheoremId)))
def test_verdict_is_frozen_and_equals_one_built_field_by_field(case, tid):
    _, b = parse_bundle(*case)
    verdict = verify_theorem(b, tid)
    values = {f.name: getattr(verdict, f.name) for f in dataclasses.fields(verdict)}
    reference = _field_by_field(**values)
    assert verdict == reference and hash(verdict) == hash(reference)
    assert repr(verdict) == repr(reference) and "bundle=" not in repr(verdict)
    assert TheoremVerdict(**values) == verdict
    for name in values:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(verdict, name, None)
    assert verdict.witnesses == reference.witnesses
    with pytest.raises(dataclasses.FrozenInstanceError):
        verdict.witnesses = ()
    short = TheoremVerdict(tid, False, "a reason")
    assert short == _field_by_field(theorem=tid, applicable=False, reason="a reason")

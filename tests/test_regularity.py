"""Both vanishing-based regularity variants and the closed-form Reg."""

import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from mpreg.bundles import (
    ArityError,
    Cotangent,
    Line,
    line_bundle,
    make_bundle,
    make_summand,
    parse_bundle,
    parse_space,
)
from mpreg import regularity
from mpreg.bundles import Space
from mpreg.cohomology import h_bundle
from mpreg.regularity import (
    SummandFacts,
    _class_windows,
    _family,
    _summand_reg,
    box_offsets,
    hw_offsets,
    is_regular_at,
    reg,
    regularity_failures,
    summand_records,
)
from mpreg.splitting import (_acm_family, _boundary_family, _exact_family, _interior_family,
                             _step_family)
from reference import (class_windows, euler_characteristic, h_vector, offset_family,
                       regularity_groups, regularity_probe, restrict_to_hyperplane)


def _box_sum(space, i):
    """The box vectors with sum -i, as the "paper" definition reads them."""
    return [k for k in box_offsets(space) if sum(k) == -i]


def test_box_offsets_enumeration():
    sp = parse_space("P1xP2")
    assert sorted(_box_sum(sp, 1)) == [(-1, 0), (0, -1)]
    assert sorted(_box_sum(sp, 2)) == [(-1, -1), (0, -2)]
    # i = 3 can use the full depth of the second factor
    assert (-1, -2) in set(_box_sum(sp, 3))
    assert all(-1 <= a <= 0 and -2 <= b <= 0 for a, b in box_offsets(sp))
    assert len(box_offsets(sp)) == len(set(box_offsets(sp))) == 2 * 3


def test_box_offsets_variants_in_lexicographic_order():
    sp = parse_space("P1xP2")
    assert box_offsets(sp) == ((-1, -2), (-1, -1), (-1, 0), (0, -2), (0, -1), (0, 0))
    assert _box_sum(sp, 2) == [(-1, -1), (0, -2)]
    # at least -i, and then open at the bottom of each factor
    at_least = [k for k in box_offsets(sp) if sum(k) >= -1]
    assert at_least == [(-1, 0), (0, -1), (0, 0)]
    assert [k for k in at_least if k[0] > -1 and k[1] > -2] == [(0, -1), (0, 0)]


def test_box_offsets_empty_when_too_deep():
    sp = parse_space("P1xP1")
    assert _box_sum(sp, 3) == []


def test_strict_offsets_enumeration():
    sp = parse_space("P1xP2")
    assert sorted(hw_offsets(sp, 1)) == [(-1, -1)]
    assert sorted(hw_offsets(sp, 2)) == [(-2, -1), (-1, -2)]


def test_strict_offsets_two_factors_only():
    sp = parse_space("P1xP1xP1")
    with pytest.raises(ArityError):
        list(hw_offsets(sp, 1))
    _, b = parse_bundle("P1xP1xP1", "O(0,0,0)")
    with pytest.raises(ArityError):
        is_regular_at(b, (0, 0, 0), "hw")


# closed form for a single line bundle: regular at (p,q) iff both shifted
# degrees are nonnegative
@pytest.mark.parametrize("space", ["P1xP1", "P1xP2", "P2xP3"])
def test_line_regularity_closed_form(space):
    sp = parse_space(space)
    for a, b in itertools.product(range(-3, 4), repeat=2):
        bundle = line_bundle(sp, (a, b))
        for p, q in itertools.product(range(-2, 3), repeat=2):
            expected = a + p >= 0 and b + q >= 0
            assert is_regular_at(bundle, (p, q)) == expected, (a, b, p, q)


def test_failures_carry_dimensions():
    _, b = parse_bundle("P1xP2", "O(-2,0)")
    fails = regularity_failures(b, (0, 0))
    assert fails
    i, k, dim = fails[0]
    assert dim > 0 and i >= 1


def test_reg_line_bundle_values():
    sp = parse_space("P2xP3")
    for a, b in itertools.product(range(-3, 4), repeat=2):
        assert reg(line_bundle(sp, (a, b))) == max(-a, -b)


def test_reg_direct_sum_takes_worst_summand():
    _, b = parse_bundle("P1xP2", "O(2,2) + O(-1,3)")
    assert reg(b) == 1


def test_reg_balanced_scalar_argument():
    _, b = parse_bundle("P1xP1", "O(0,0)")
    assert is_regular_at(b, 0)
    assert not is_regular_at(b, -1)


def test_reg_reports_are_coherent():
    for text in ["O(0,0)", "O(-2,1)", "O(0)*W1(2)"]:
        _, b = parse_bundle("P2xP3", text)
        p = reg(b)
        assert is_regular_at(b, p)
        assert not is_regular_at(b, p - 1)
        assert is_regular_at(b, p + 1)
        assert regularity_failures(b, p - 1)  # the step below Reg must fail somewhere


def test_reg_hw_definition_smoke():
    _, b = parse_bundle("P1xP1", "O(0,0)")
    assert reg(b, "hw") == 0
    _, b2 = parse_bundle("P1xP1", "O(2,-1)")
    assert reg(b2, "hw") == 1


def test_unknown_definition_rejected():
    _, b = parse_bundle("P1xP1", "O(0,0)")
    with pytest.raises(ValueError):
        reg(b, "other")


def test_strict_variant_on_cotangent_sum_differs_somewhere():
    # the two definitions probe different group families; on this bundle the
    # witnesses they produce at the same point are not identical
    _, b = parse_bundle("P2xP2", "W1(0)*O(0)")
    paper_fail = regularity_failures(b, (0, 0), "paper")
    hw_fail = regularity_failures(b, (0, 0), "hw")
    assert {(i, k) for i, k, _ in paper_fail} != {(i, k) for i, k, _ in hw_fail}


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["P2xP2", "P2xP3", "P3xP3"]),
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=0, max_value=1),
)
def test_regularity_survives_hyperplane_restriction(space, a, b, factor):
    """A bundle regular at p stays regular at p on a hyperplane slice of a
    factor (degrees are unchanged, one dimension drops)."""
    sp = parse_space(space)
    bundle = line_bundle(sp, (a, b))
    if is_regular_at(bundle, (0, 0)):
        assert is_regular_at(restrict_to_hyperplane(bundle, factor), (0, 0))


def test_hw_implies_paper_on_samples():
    for text in ["O(0,0)", "O(1,-1)", "O(0)*W1(2)", "W1(1)*O(0) + O(2,2)"]:
        _, b = parse_bundle("P2xP3", text)
        for p in range(-2, 3):
            if is_regular_at(b, (p, p), "hw"):
                assert is_regular_at(b, (p, p)), (text, p)


# ---------------------------------------------------------------------------
# closed-form Reg against a walk over the twists


def _walk_reg(bundle, definition="paper", guard=200):
    """Reg by walking one balanced twist at a time from a floor below the
    degrees: down while the next twist is still regular, or up until one is.
    Each step is the reference point probe, not the windows reg reads.  Only
    for small degrees."""

    def regular(p):
        return not regularity_probe(bundle, p, definition)

    d = bundle.space.total_dim
    floor = min(
        [0]
        + [
            -(a.degree if isinstance(a, Line) else a.twist) - d
            for s in bundle.summands
            for a in s.atoms
        ]
    )
    p = floor
    if regular(p):
        while regular(p - 1):
            p -= 1
            assert p > floor - guard, "walk-down did not stop"
    else:
        while not regular(p):
            p += 1
            assert p < floor + guard, "walk-up did not stop"
    return p


def _atoms(n):
    lines = st.builds(Line, st.integers(min_value=-3, max_value=3))
    if n == 1:
        return lines
    cotangents = st.builds(
        Cotangent, st.integers(min_value=1, max_value=n - 1), st.integers(min_value=-3, max_value=3)
    )
    return st.one_of(lines, cotangents)


@st.composite
def small_bundles(draw, spaces):
    space = parse_space(draw(st.sampled_from(spaces)))
    atoms = st.tuples(*[_atoms(n) for n in space.dims])
    summands = draw(st.lists(atoms, min_size=1, max_size=2))
    return make_bundle(space, [make_summand(space, a) for a in summands])


def _assert_reg_matches_walk(bundle, definition):
    p = reg(bundle, definition)
    assert p == _walk_reg(bundle, definition)
    assert is_regular_at(bundle, p + 1, definition)
    assert regularity_failures(bundle, p - 1, definition)
    assert is_regular_at(bundle, p, definition)
    assert not is_regular_at(bundle, p - 1, definition)


@settings(max_examples=150, deadline=None)
@given(small_bundles(["P1", "P3", "P1xP2", "P2xP2", "P2xP3", "P1xP1xP1", "P1xP1xP2"]))
def test_reg_closed_form_matches_walk_paper(bundle):
    _assert_reg_matches_walk(bundle, "paper")


@settings(max_examples=100, deadline=None)
@given(small_bundles(["P1xP1", "P1xP2", "P2xP2", "P2xP3"]))
def test_reg_closed_form_matches_walk_hw(bundle):
    _assert_reg_matches_walk(bundle, "hw")


def test_summand_reg_memo_matches_unwrapped():
    for space_text, text in [
        ("P1xP2", "O(0,2) + O(-3)*W1(1)"),
        ("P2xP2", "W1(0)*W1(3) + O(-2,1)"),
        ("P1xP1xP2", "O(0,1,2) + O(-1)*O(0)*W1(-2)"),
    ]:
        space, b = parse_bundle(space_text, text)
        definitions = ("paper", "hw") if space.num_factors == 2 else ("paper",)
        for f in summand_records(b):
            for definition in definitions:
                memo = _summand_reg(space, f, definition)
                assert f.regs[definition] == memo
                assert memo == _summand_reg(space, SummandFacts(f.atoms), definition)
                assert _summand_reg(space, f, definition) is memo


@pytest.mark.parametrize(
    "space,text,expected",
    [
        ("P1xP1", "O(-20000,-20000)", 20000),
        ("P1xP1", "O(20000,0)", 0),
        ("P2xP2", "O(20000,0)", 0),
        ("P2xP2", "O(-20,-20)", 20),
        ("P2xP2", "O(200,0)", 0),
    ],
)
def test_reg_far_from_the_degrees(space, text, expected):
    _, b = parse_bundle(space, text)
    p = reg(b)
    assert p == expected
    assert is_regular_at(b, p + 1) and regularity_failures(b, p - 1)


def test_extreme_degrees_exact_and_fast():
    big = 10**6
    start = time.perf_counter()
    _, b = parse_bundle("P1xP2", f"O({big},-{big}) + O(-{big})*W1({big})")
    # O(big) x O(-big): h^2 = (big + 1) * C(big - 1, 2); O(-big) x W1(big):
    # h^1 = (big - 1) * (big + 1) * (big - 1)
    assert h_bundle(b, (0, 0), 2) == (big + 1) * (big - 1) * (big - 2) // 2
    assert h_bundle(b, (0, 0), 1) == (big - 1) ** 2 * (big + 1)
    vec = h_vector(b, (0, 0))
    assert euler_characteristic(b) == sum((-1) ** i * x for i, x in enumerate(vec))
    p = reg(b)
    assert p >= big
    assert is_regular_at(b, p) and not is_regular_at(b, p - 1)
    _, lines = parse_bundle("P2xP3", f"O(-{big},{big}) + O({big},{big})")
    assert reg(lines) == big
    assert time.perf_counter() - start < 1.0


@settings(max_examples=150, deadline=None)
@given(small_bundles(["P1xP1", "P1xP2", "P2xP2", "P2xP3"]), st.integers(-4, 4),
       st.integers(-4, 4), st.sampled_from(["paper", "hw"]))
def test_sum_is_regular_at_a_point_exactly_when_every_summand_is(bundle, p, q, definition):
    # H^i of a direct sum is the sum of the summands' H^i, at balanced and
    # unbalanced points alike
    space = bundle.space
    for point in ((p, q), (p, p)):
        alone = [is_regular_at(make_bundle(space, [s]), point, definition)
                 for s in bundle.summands]
        assert is_regular_at(bundle, point, definition) == all(alone), point


def _twist():
    """A twist near 0 or anywhere within 10^6."""
    return st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6))


@st.composite
def far_bundles(draw, spaces):
    """One or two summands with lines and cotangents, each atom twisted by
    the summand's shift plus a twist: so summands sit near or far from their
    diagonal and from each other."""
    space = parse_space(draw(st.sampled_from(spaces)))
    summands = []
    for _ in range(draw(st.integers(1, 2))):
        shift, atoms = draw(_twist()), []
        for n in space.dims:
            t = shift + draw(_twist())
            p = draw(st.integers(0, n - 1))
            atoms.append(Cotangent(p, t) if p else Line(t))
        summands.append(make_summand(space, atoms))
    return make_bundle(space, summands)


@settings(max_examples=150, deadline=None)
@given(far_bundles(["P1", "P3", "P1xP1", "P1xP2", "P2xP2", "P2xP3", "P1xP1xP1", "P1xP2xP3"]),
       st.sampled_from(["paper", "hw"]), st.data())
def test_balanced_twist_reads_the_windows_as_the_point_probe_does(bundle, definition, data):
    # at an int p, at (p, ..., p) and at an unbalanced (p + d_1, ..., p + d_s)
    # the engine decides from the windows; the reference probes h_bundle at
    # every group
    space = bundle.space
    if definition == "hw" and space.num_factors != 2:
        definition = "paper"
    value = reg(bundle, definition)
    moves = data.draw(st.lists(st.tuples(*[_twist() for _ in space.dims]), min_size=2,
                               max_size=2))
    for p in range(value - 3, value + 3):
        expected = regularity_probe(bundle, p, definition)
        point = (p,) * space.num_factors
        assert regularity_failures(bundle, p, definition) == expected, p
        assert regularity_failures(bundle, point, definition) == expected, p
        assert is_regular_at(bundle, p, definition) == (not expected) == (p >= value), p
        assert is_regular_at(bundle, point, definition) == (not expected), p
        for d in moves:
            point = tuple(p + dj for dj in d)
            expected = regularity_probe(bundle, point, definition)
            assert regularity_failures(bundle, point, definition) == expected, point
            assert is_regular_at(bundle, point, definition) == (not expected), point


# ---------------------------------------------------------------------------
# records: one per distinct summand, none per diagonal class or multidegree

_TWISTED = ("P2xP3", "O(-30,12) + W1(7)*O(20) + O(3,-17)")  # every first twist is not 0


def test_a_cold_query_makes_one_record_per_distinct_summand():
    from mpreg.cohomology import summand_facts
    from mpreg.splitting import is_acm

    _, b = parse_bundle(*_TWISTED)
    summand_facts.cache_clear()
    assert is_acm(b) is False
    assert summand_facts.cache_info().currsize == 3
    assert reg(b) == 30
    assert summand_facts.cache_info().currsize == 3


def test_multidegree_queries_add_no_record():
    from mpreg.cohomology import summand_facts

    _, b = parse_bundle(*_TWISTED)
    summand_facts.cache_clear()
    reg(b)
    assert not is_regular_at(b, (2, -3))
    assert regularity_failures(b, (-3, 4), "hw")[0] == (2, (-2, -1), 457776)
    assert is_regular_at(b, (100, 100))
    assert summand_facts.cache_info().currsize == 3


def test_the_definition_comparison_keeps_one_record_per_summand():
    # criterion 09's family: one record for each of its 325 summands, which
    # the comparison probes at every point, and none for a multidegree
    from mpreg.cohomology import summand_facts
    from mpreg.harness import EnumerationConfig, compare_regularity_definitions, enumerate_bundles

    cfg = EnumerationConfig(spaces=("P1xP1", "P1xP2", "P2xP2", "P2xP3"), cotangent=True)
    bundles = [b for text in cfg.spaces for b in enumerate_bundles(parse_space(text), cfg)]
    summand_facts.cache_clear()
    rep = compare_regularity_definitions(bundles, p_range=(-2, 2))
    assert rep["checked_bundles"] == len(bundles) and rep["hw_implies_box_violations"] == []
    assert summand_facts.cache_info().currsize == 325


@st.composite
def _class_factors(draw):
    """A space of one to four factors (dimension at most 3, at most 2 past
    two factors) and a diagonal class on it: factors (n_j, p_j, t_j) with
    t_1 = 0, a cotangent p_j where the factor allows one, and the other
    twists near 0 or up to +-10^6."""
    s = draw(st.integers(1, 4))
    dims = tuple(draw(st.lists(st.integers(1, 3 if s <= 2 else 2), min_size=s, max_size=s)))
    twist = st.one_of(st.integers(-4, 4), st.integers(-10**6, 10**6))
    factors = tuple((n, draw(st.integers(0, n - 1)), 0 if j == 0 else draw(twist))
                    for j, n in enumerate(dims))
    return Space(dims), factors


@settings(max_examples=100, deadline=None)
@given(_class_factors())
def test_class_windows_from_the_plan_match_a_walk_per_entry(case):
    # the plan groups each family by distinct offset; the walk reads every
    # (i, k) entry on its own, in family order
    space, factors = case
    d = space.total_dim
    families = [("exact", _exact_family, [0]), ("step", _step_family, [0]),
                ("acm", _acm_family, [0]), ("paper", _family("paper"), [0]),
                ("interior", _interior_family, range(d))]
    if space.num_factors == 2:
        families += [("boundary", _boundary_family, range(d)), ("hw", _family("hw"), [0])]
    for name, family, ranks in families:
        for r in ranks:
            if name == "acm":
                groups = [(i, (0,) * space.num_factors) for i in range(1, d)]
            elif name == "hw":
                groups = regularity_groups(space, "hw")
            else:
                groups = [(i, k) for i, k, _ in offset_family(space, name, r)]
            expected = class_windows(space, factors, groups)
            assert _class_windows.__wrapped__(space, factors, family, r) == expected, (name, r)


@pytest.mark.parametrize("family,distinct", [(_exact_family, 10), (_step_family, 5)])
def test_a_class_window_miss_sweeps_once_per_distinct_offset(monkeypatch, family, distinct):
    # P1xP1xP2: the exact family's 10 offsets are all distinct; the step
    # family's 11 groups sit at 5 offsets
    space = parse_space("P1xP1xP2")
    real, reads = regularity._untwisted_windows, []

    def counting(factors):
        reads.append(factors)
        return real(factors)

    monkeypatch.setattr(regularity, "_untwisted_windows", counting)
    factors = ((1, 0, 0), (1, 0, 1), (2, 1, -3))
    groups = regularity.offsets(space, family, 0)
    assert len({k for _, k, _ in groups}) == len(groups.shifts) == distinct
    windows = _class_windows.__wrapped__(space, factors, family, 0)
    assert len(reads) == distinct
    assert windows == class_windows(space, factors, [(i, k) for i, k, _ in groups])

"""Both vanishing-based regularity variants and the Reg scan."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from mpreg.bundles import (
    ArityError,
    line_bundle,
    parse_bundle,
    parse_space,
    restrict_to_hyperplane,
)
from mpreg.regularity import (
    box_offsets,
    hw_offsets,
    is_hw_regular_at,
    is_regular_at,
    reg,
    regularity_failures,
)


def test_box_offsets_enumeration():
    sp = parse_space("P1xP2")
    got = sorted(box_offsets(sp, 1))
    assert got == [(-1, 0), (0, -1)]
    got2 = sorted(box_offsets(sp, 2))
    assert got2 == [(-1, -1), (0, -2)]
    # i = 3 can use the full depth of the second factor
    assert (-1, -2) in set(box_offsets(sp, 3))
    assert all(-1 <= a <= 0 and -2 <= b <= 0 for a, b in box_offsets(sp, 3))


def test_box_offsets_variants_in_lexicographic_order():
    sp = parse_space("P1xP2")
    assert list(box_offsets(sp, 2)) == [(-1, -1), (0, -2)]
    assert list(box_offsets(sp, 1, at_least=True)) == [(-1, 0), (0, -1), (0, 0)]
    assert list(box_offsets(sp, 2, at_least=True, interior=True)) == [(0, -1), (0, 0)]


def test_box_offsets_empty_when_too_deep():
    sp = parse_space("P1xP1")
    assert list(box_offsets(sp, 3)) == []


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
        is_hw_regular_at(b, (0, 0, 0))


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
        assert reg(line_bundle(sp, (a, b))).value == max(-a, -b)


def test_reg_direct_sum_takes_worst_summand():
    _, b = parse_bundle("P1xP2", "O(2,2) + O(-1,3)")
    assert reg(b).value == 1


def test_reg_balanced_scalar_argument():
    _, b = parse_bundle("P1xP1", "O(0,0)")
    assert is_regular_at(b, 0)
    assert not is_regular_at(b, -1)


def test_reg_reports_are_coherent():
    for text in ["O(0,0)", "O(-2,1)", "O(0)*W1(2)"]:
        _, b = parse_bundle("P2xP3", text)
        rep = reg(b)
        assert is_regular_at(b, rep.value)
        assert not is_regular_at(b, rep.value - 1)
        assert rep.monotone_checked
        assert rep.failures  # the step below the value must fail somewhere


def test_reg_hw_definition_smoke():
    _, b = parse_bundle("P1xP1", "O(0,0)")
    assert reg(b, "hw").value == 0
    _, b2 = parse_bundle("P1xP1", "O(2,-1)")
    assert reg(b2, "hw").value == 1


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
            if is_hw_regular_at(b, (p, p)):
                assert is_regular_at(b, (p, p)), (text, p)

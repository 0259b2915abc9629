"""Dimension engine: closed forms, the independent recursion, box products."""

import csv
import io
import itertools
import re
from contextlib import redirect_stdout
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from mpreg import regularity
from mpreg.bundles import (
    MAX_SPACE_SIZE,
    BoxSummand,
    Bundle,
    Cotangent,
    Line,
    ModelError,
    format_atom,
    line_bundle,
    line_summand,
    make_bundle,
    make_summand,
    normalize_atom,
    parse_bundle,
    parse_space,
    rank,
    summand_rank,
    twist_atom,
    twist_summand,
)
from mpreg.cohomology import (
    _support,
    build_table,
    h_bott,
    h_bundle,
    h_line,
    koszul_section_rank,
    level_windows,
    nonvanishing_t_window,
    oracle_euler_sequence,
    summand_facts,
)
from mpreg.regularity import _family, offsets, summand_windows
from mpreg.splitting import CHECKS, TheoremId, _acm_family
from reference import (
    atom_support,
    canonical_twist,
    dualize,
    euler_characteristic,
    extended_binomial,
    h_vector,
    summand_supports,
)


# ---------------------------------------------------------------------------
# single-factor closed forms


def test_extended_binomial_matches_factorial_form():
    from math import comb

    for x in range(0, 12):
        for k in range(0, 12):
            assert extended_binomial(x, k) == comb(x, k)
    # negative upper index follows the reflection rule
    assert extended_binomial(-1, 3) == -1
    assert extended_binomial(-4, 2) == 10
    assert extended_binomial(5, -1) == 0


@pytest.mark.parametrize(
    "n,d,i,expected",
    [
        (1, 0, 0, 1),
        (1, 3, 0, 4),
        (1, -1, 0, 0),
        (1, -1, 1, 0),
        (1, -2, 1, 1),
        (2, 2, 0, 6),
        (2, -3, 2, 1),
        (2, -4, 2, 3),
        (3, -5, 3, 4),
        (4, 0, 0, 1),
    ],
)
def test_h_line_values(n, d, i, expected):
    assert h_line(n, d, i) == expected


def test_h_line_zero_off_ends():
    for d in range(-8, 8):
        for i in range(1, 3):
            assert h_line(3, d, i) == 0


@pytest.mark.parametrize(
    "n,p,t,i,expected",
    [
        (2, 1, 0, 1, 1),   # the middle Hodge group
        (2, 1, 1, 0, 0),
        (2, 1, 2, 0, 3),
        (3, 1, 2, 0, 6),
        (3, 2, 3, 0, 4),
        (3, 1, -3, 3, 4),
        (3, 2, 0, 2, 1),
        (4, 2, 0, 2, 1),
        (4, 3, 4, 0, 5),
    ],
)
def test_h_bott_values(n, p, t, i, expected):
    assert h_bott(n, p, t, i) == expected


def test_h_bott_at_most_one_degree():
    for n in (2, 3, 4):
        for p in range(1, n):
            for t in range(-9, 9):
                nonzero = [i for i in range(n + 1) if h_bott(n, p, t, i)]
                assert len(nonzero) <= 1


def test_h_bott_rejects_out_of_range_power():
    with pytest.raises(ModelError):
        h_bott(2, 2, 0, 0)
    with pytest.raises(ModelError):
        h_bott(3, 0, 1, 0)


def test_atom_support_is_the_oracles_one_nonzero_level():
    # every atom on P^n, boundary powers included, has at most one nonzero
    # level at each twist, and it is the level whose support range holds t;
    # the engine's _support of the normal form states the same ranges
    for n in (1, 2, 3, 4):
        atoms = [Line(0)] + [Cotangent(p, c) for p in range(n + 1) for c in (-1, 0, 2)]
        for atom in atoms:
            support = atom_support(n, atom)
            normal = normalize_atom(n, atom)
            assert support == (_support(n, 0, normal.degree) if isinstance(normal, Line)
                               else _support(n, normal.p, normal.twist)), (n, atom)
            # listed from the top down, the last range unbounded below
            assert support[0][2] is None and support[-1][1] is None
            for (_, lo, _), (_, _, hi) in zip(support, support[1:]):
                assert hi < lo, (n, atom)
            for t in range(-12, 12):
                if isinstance(atom, Line):
                    nonzero = [i for i in range(n + 1) if h_line(n, atom.degree + t, i)]
                else:
                    nonzero = [i for i in range(n + 1)
                               if oracle_euler_sequence(n, atom.p, atom.twist + t, i)]
                held = [level for level, lo, hi in support
                        if (lo is None or lo <= t) and (hi is None or t <= hi)]
                assert len(nonzero) <= 1 and nonzero == held, (n, atom, t)


def test_koszul_section_rank_small():
    # global sections of the presenting sum minus those of the quotient
    assert koszul_section_rank(2, 1, 2) == 6
    assert koszul_section_rank(3, 1, 3) == 20


# The long-exact-sequence recursion is a fully independent route to the same
# numbers; this is the cross-check the closed form is trusted against.
def test_oracle_agrees_with_closed_form_everywhere():
    for n in (2, 3, 4):
        for p in range(1, n):
            for t in range(-10, 10):
                for i in range(n + 1):
                    assert oracle_euler_sequence(n, p, t, i) == h_bott(n, p, t, i), (
                        n, p, t, i,
                    )


# ---------------------------------------------------------------------------
# box products


def test_kunneth_line_bundle():
    sp = parse_space("P1xP2")
    b = line_bundle(sp, (-2, 2))
    assert h_vector(b, (0, 0)) == (0, 6, 0, 0)
    assert h_vector(b, (0, -5)) == (0, 0, 0, 1)


def test_kunneth_mixed_summand():
    _, b = parse_bundle("P2xP3", "O(0)*W1(2)")
    assert h_vector(b, (0, 0)) == (6, 0, 0, 0, 0, 0)
    # top of the first factor times the middle group of the second
    assert h_bundle(b, (-3, -2), 3) == h_line(2, -3, 2) * h_bott(3, 1, 0, 1)
    assert h_bundle(b, (-3, -2), 3) == 1


def test_additivity_over_summands():
    sp, b = parse_bundle("P1xP2", "O(1,1) + O(-2,0)")
    _, b1 = parse_bundle("P1xP2", "O(1,1)")
    _, b2 = parse_bundle("P1xP2", "O(-2,0)")
    for t in [(-3, -3), (0, 0), (2, -5)]:
        for i in range(4):
            assert h_bundle(b, t, i) == h_bundle(b1, t, i) + h_bundle(b2, t, i)


def test_twist_vector_length_checked():
    _, b = parse_bundle("P1xP2", "O(1,1)")
    for query in (h_vector, euler_characteristic, lambda b, t: h_bundle(b, t, 0)):
        with pytest.raises(ModelError):
            query(b, (0,))
        with pytest.raises(ModelError):
            query(b, (0, 0, 0))


def test_h_vector_out_of_range_degrees_zero():
    _, b = parse_bundle("P1xP1", "O(0,0)")
    assert h_bundle(b, (0, 0), 3) == 0
    assert h_bundle(b, (0, 0), -1) == 0


# property-based: duality and the alternating sum, on random small bundles

dims2 = st.sampled_from([(1, 1), (1, 2), (2, 2), (2, 3)])
deg = st.integers(min_value=-4, max_value=4)


@st.composite
def small_bundles(draw):
    sp = parse_space("P%dxP%d" % draw(dims2))
    summands = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        atoms = []
        for n in sp.dims:
            if n >= 2 and draw(st.booleans()):
                atoms.append(Cotangent(draw(st.integers(1, n - 1)), draw(deg)))
            else:
                atoms.append(Line(draw(deg)))
        summands.append(make_summand(sp, atoms))
    return make_bundle(sp, summands)


@settings(max_examples=60, deadline=None)
@given(small_bundles(), st.tuples(deg, deg))
def test_serre_duality_dimension_identity(b, tv):
    d = b.space.total_dim
    K = canonical_twist(b.space)
    bd = dualize(b)
    dual_tv = tuple(kj - t for kj, t in zip(K, tv))
    for i in range(d + 1):
        assert h_bundle(b, tv, i) == h_bundle(bd, dual_tv, d - i)


def _convolve(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _oracle_atom_vector(n, atom, t):
    if isinstance(atom, Line):
        return tuple(h_line(n, atom.degree + t, i) for i in range(n + 1))
    return tuple(oracle_euler_sequence(n, atom.p, atom.twist + t, i) for i in range(n + 1))


@settings(max_examples=100, deadline=None)
@given(small_bundles(), st.tuples(deg, deg))
def test_h_vector_is_kunneth_convolution_of_oracle_vectors(b, tv):
    expected = [0] * (b.space.total_dim + 1)
    for s in b.summands:
        vec = (1,)
        for n, atom, t in zip(b.space.dims, s.atoms, tv):
            vec = _convolve(vec, _oracle_atom_vector(n, atom, t))
        expected = [x + y for x, y in zip(expected, vec)]
    assert h_vector(b, tv) == tuple(expected)


@settings(max_examples=60, deadline=None)
@given(small_bundles(), st.tuples(deg, deg))
def test_euler_characteristic_two_routes(b, tv):
    d = b.space.total_dim
    alt = sum((-1) ** i * h_bundle(b, tv, i) for i in range(d + 1))
    assert alt == euler_characteristic(b, tv)


# ---------------------------------------------------------------------------
# nonvanishing windows


def brute_window(bundle, k, i, lo=-25, hi=25):
    return [t for t in range(lo, hi + 1)
            if h_bundle(bundle, tuple(t + kj for kj in k), i)]


@pytest.mark.parametrize(
    "space,text,k,i",
    [
        ("P1xP2", "O(0,2)", (0, 0), 1),
        ("P1xP2", "O(0,2)", (-1, 0), 1),
        ("P1xP2", "O(0,2)", (0, -2), 2),
        ("P2xP3", "O(0)*W1(2)", (-1, -1), 2),
        ("P2xP3", "O(0)*W1(2) + O(3,-2)", (0, -1), 3),
        ("P1xP1xP2", "O(0,1,2)", (0, -1, -1), 2),
    ],
)
def test_window_matches_brute_force(space, text, k, i):
    _, b = parse_bundle(space, text)
    win = nonvanishing_t_window(b, k, i)
    assert all(lo is not None and hi is not None for lo, hi in win)
    assert [t for lo, hi in win for t in range(lo, hi + 1)] == brute_window(b, k, i)


def test_window_middle_degrees_always_finite():
    _, b = parse_bundle("P2xP2", "W1(0)*W1(3) + O(-2,1)")
    for i in range(1, 4):
        for k in [(0, 0), (-1, -1), (-2, 0)]:
            win = nonvanishing_t_window(b, k, i)
            assert all(lo is not None and hi is not None for lo, hi in win)


# Every endpoint of a window drawn below lies in -15..15, so a window is
# known on all integers once it is known on -30..30.
_REACH = 30


def _window_points(window):
    """The points of a (lo, hi) window inside -_REACH.._REACH."""
    if window is None:
        return []
    lo, hi = window
    lo = -_REACH if lo is None else lo
    hi = _REACH if hi is None else hi
    return list(range(lo, hi + 1))


@st.composite
def _random_summands(draw, count):
    """A space of 1 to 6 factors of dimension 1 to 4 within MAX_SPACE_SIZE,
    count summands of O(a) and W^p(c) atoms (boundary powers included), an
    offset in the box."""
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6)
                .filter(lambda dims: sum(dims) * prod(n + 1 for n in dims) <= MAX_SPACE_SIZE))
    space = parse_space("x".join(f"P{n}" for n in dims))
    degree = st.integers(-4, 4)

    def atom(n):
        return st.one_of(
            degree.map(Line),
            st.builds(Cotangent, st.integers(0, n), degree),
        )

    summands = [
        make_summand(space, [draw(atom(n)) for n in dims]) for _ in range(count)
    ]
    k = tuple(draw(st.integers(-n, 0)) for n in dims)
    return space, summands, k


@settings(max_examples=300, deadline=None)
@given(_random_summands(1))
def test_summand_window_is_one_interval_matching_brute_force(case):
    space, (summand,), k = case
    bundle = make_bundle(space, [summand])
    for i in range(space.total_dim + 1):
        window = level_windows(summand_supports(space, summand), k).get(i)
        assert window is None or len(window) == 2
        if window is not None and None not in window:
            assert window[0] <= window[1]
        assert _window_points(window) == brute_window(bundle, k, i, -_REACH, _REACH), i


@settings(max_examples=200, deadline=None)
@given(_random_summands(2))
def test_bundle_window_sorted_disjoint_nonadjacent_matching_brute_force(case):
    space, summands, k = case
    bundle = make_bundle(space, summands)
    for i in range(space.total_dim + 1):
        window = nonvanishing_t_window(bundle, k, i)
        for lo, hi in window:
            assert lo is None or hi is None or lo <= hi
        for (_, hi), (lo, _) in zip(window, window[1:]):
            assert hi is not None and lo is not None and hi + 1 < lo
        points = [t for w in window for t in _window_points(w)]
        assert points == brute_window(bundle, k, i, -_REACH, _REACH), i


def _reference_t_window(space, summand, k, i):
    """The window by a search over every choice of one support range per
    factor: the one choice whose levels add up to i and whose ranges meet."""
    supports = [
        atom_support(n, twist_atom(atom, kj))
        for n, atom, kj in zip(space.dims, summand.atoms, k)
    ]
    for ranges in itertools.product(*supports):
        if sum(level for level, _, _ in ranges) != i:
            continue
        los = [lo for _, lo, _ in ranges if lo is not None]
        his = [hi for _, _, hi in ranges if hi is not None]
        lo, hi = max(los, default=None), min(his, default=None)
        if lo is None or hi is None or lo <= hi:
            return lo, hi
    return None


def _window_families(space):
    """Every check family, the ACM family and both regularity definitions."""
    families = [spec.family for spec in CHECKS.values()
                if not spec.two_factor or space.num_factors == 2]
    families += [_acm_family, _family("paper")]
    if space.num_factors == 2:
        families.append(_family("hw"))
    return families


def _atoms(space, summand):
    """The summand's atoms in normal form, as its record keeps them."""
    return summand_facts(space.dims, summand.key).atoms


def _moved(windows, by):
    """The (index, lo, hi) windows shifted by -by."""
    return tuple((index, None if lo is None else lo - by, None if hi is None else hi - by)
                 for index, lo, hi in windows)


def _searched(space, summand, family, r):
    """The summand's own windows of the family, by the per-group search."""
    return tuple((index, *window) for index, (i, k, _) in enumerate(offsets(space, family, r))
                 for window in [_reference_t_window(space, summand, k, i)] if window is not None)


@settings(max_examples=50, deadline=None)
@given(_random_summands(2))
def test_summand_windows_match_the_per_group_search(case):
    # summand_windows gives the windows of the diagonal class: the summand's
    # own, read at t + c for its first twist c
    space, summands, _ = case
    r = rank(make_bundle(space, summands))
    for family in _window_families(space):
        for s in summands:
            atoms = _atoms(space, s)
            expected = _moved(_searched(space, s, family, r), -atoms[0][2])
            assert summand_windows(space, atoms, family, r) == expected, family


def _untwisted(space, summand, k):
    """The summand twisted by k and then by -c on every factor, c its first
    atom's twisted degree: the one summand whose offset-0 sweep gives its
    windows at k."""
    first = summand.atoms[0]
    c = (first.degree if isinstance(first, Line) else first.twist) + k[0]
    return twist_summand(space, summand, tuple(kj - c for kj in k))


def _counting_sweeps(monkeypatch):
    """The level_windows calls of summand_windows from empty memos."""
    calls = []

    def counting(supports, k):
        calls.append(k)
        return level_windows(supports, k)

    summand_facts.cache_clear()
    regularity._untwisted_windows.cache_clear()
    regularity._class_windows.cache_clear()
    monkeypatch.setattr(regularity, "level_windows", counting)
    return calls


@pytest.mark.parametrize("space_text,text,groups,distinct",
                         [("P1xP1xP2", "O(0,1,2)", 11, 5), ("P2xP2", "O(0)*W1(1)", 13, 6)])
def test_summand_windows_sweep_each_distinct_offset_once(monkeypatch, space_text, text,
                                                         groups, distinct):
    # at most once: two offsets that differ by a diagonal twist share a sweep
    space, bundle = parse_bundle(space_text, text)
    family, r = CHECKS[TheoremId.T2B].family, rank(bundle)
    assert len(offsets(space, family, r)) == groups
    (summand,) = bundle.summands
    expected = summand_windows(space, _atoms(space, summand), family, r)
    ks = {k for _, k, _ in offsets(space, family, r)}
    assert len(ks) == distinct
    calls = _counting_sweeps(monkeypatch)
    assert summand_windows(space, _atoms(space, summand), family, r) == expected
    assert len(calls) == len({_untwisted(space, summand, k) for k in ks}) <= distinct


def test_summand_windows_sweep_each_untwisted_summand_once(monkeypatch):
    # T3 and T2B over the 125 line summands of degrees -2..2 on P1xP1xP1:
    # their 61 diagonal classes O(0, b, c) keep one window entry per family,
    # keyed on atoms with first twist 0, and each untwisted offset summand is
    # swept once
    space = parse_space("P1xP1xP1")
    summands = [line_summand(space, d) for d in itertools.product(range(-2, 3), repeat=3)]
    families = [CHECKS[TheoremId.T3].family, CHECKS[TheoremId.T2B].family]
    untwisted = {_untwisted(space, s, k) for s in summands for family in families
                 for _, k, _ in offsets(space, family, 1)}
    calls = _counting_sweeps(monkeypatch)
    windows = {(s, family): summand_windows(space, _atoms(space, s), family, 1)
               for s in summands for family in families}
    assert len(calls) == len(untwisted) < len(summands)
    classes = {tuple((n, p, t - a[0][2]) for n, p, t in a)
               for a in (_atoms(space, s) for s in summands)}
    assert len(classes) == 61 and regularity._class_windows.cache_info().currsize == 2 * 61
    for (s, family), record in windows.items():
        atoms = _atoms(space, s)
        factors = tuple((n, p, t - atoms[0][2]) for n, p, t in atoms)
        assert regularity._class_windows(space, factors, family, 1) is record
        assert record == regularity._class_windows.__wrapped__(space, factors, family, 1)


@settings(max_examples=100, deadline=None)
@given(_random_summands(1), st.integers(-4, 4))
def test_diagonal_twist_shifts_every_window(case, c):
    # S(c) shares the class windows of S, and the per-group search of S(c)
    # gives the windows of S shifted by -c
    space, (summand,), _ = case
    twisted = twist_summand(space, summand, (c,) * space.num_factors)
    r = summand_rank(space, summand)
    first = _atoms(space, summand)[0][2]
    for family in _window_families(space):
        windows = summand_windows(space, _atoms(space, summand), family, r)
        assert summand_windows(space, _atoms(space, twisted), family, r) is windows, family
        searched = _searched(space, summand, family, r)
        assert windows == _moved(searched, -first), family
        assert _searched(space, twisted, family, r) == _moved(searched, c), family


# ---------------------------------------------------------------------------
# tables


def test_build_table_entries_and_total():
    _, b = parse_bundle("P1xP2", "O(0,2)")
    table = build_table(b, ((-2, 0), (-2, 0)))
    assert table.entries[(0, (0, 0))] == 6
    assert table.entries[(1, (-2, 0))] == 6
    assert all(dim > 0 for dim in table.entries.values())
    # recompute every stored entry directly
    for (i, tv), dim in table.entries.items():
        assert h_bundle(b, tv, i) == dim


def test_build_table_validates_box():
    _, b = parse_bundle("P1xP2", "O(0,0)")
    with pytest.raises(ModelError):
        build_table(b, ((0, -1), (0, 0)))
    with pytest.raises(ModelError):
        build_table(b, ((0, 1),))
    with pytest.raises(ModelError):
        build_table(b, ((-3000, 3000), (-3000, 3000)))


def _table_by_twist(bundle, box):
    """The table by probes, not by column products: every nonzero h^i at
    every twist vector of the box."""
    return {(i, tvec): dim
            for tvec in itertools.product(*(range(lo, hi + 1) for lo, hi in box))
            for i, dim in enumerate(h_vector(bundle, tvec)) if dim}


@st.composite
def _table_cases(draw):
    """A bundle on 1 to 4 factors of dimension 1 to 3, made with Bundle(...)
    so that atoms may be out of normal form (W^0(t), W^n(t)) and summands
    unsorted, and a box of 1 to 4 twists per factor."""
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    degree = st.integers(-4, 4)
    summands = tuple(
        BoxSummand(tuple(draw(st.one_of(degree.map(Line),
                                        st.builds(Cotangent, st.integers(0, n), degree)))
                         for n in dims))
        for _ in range(draw(st.integers(1, 3))))
    box = tuple((lo, lo + draw(st.integers(0, 3))) for lo in draw(
        st.lists(st.integers(-6, 3), min_size=len(dims), max_size=len(dims))))
    return Bundle(parse_space("x".join(f"P{n}" for n in dims)), summands), box


@settings(max_examples=200, deadline=None)
@given(_table_cases())
def test_table_is_h_vector_at_every_twist_of_the_box(case):
    bundle, box = case
    table = build_table(bundle, box)
    assert table.entries == _table_by_twist(bundle, box)
    for tvec in itertools.product(*(range(lo, hi + 1) for lo, hi in box)):
        assert tuple(table.dimension(i, tvec) for i in range(bundle.space.total_dim + 1)) \
            == h_vector(bundle, tvec)


def _cli_cohomology(bundle, box, fmt):
    from mpreg import cli

    space = "x".join(f"P{n}" for n in bundle.space.dims)
    text = " + ".join("*".join(map(format_atom, s.atoms)) for s in bundle.summands)
    ranges = ",".join(f"{lo}..{hi}" for lo, hi in box)
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["cohomology", "--space", space, "--bundle", text,
                         "--twist-range=" + ranges, "--format", fmt])
    assert code == 0
    return out.getvalue()


@settings(max_examples=100, deadline=None)
@given(_table_cases())
def test_cli_text_and_csv_list_exactly_the_nonzero_groups(case):
    bundle, box = case
    nonzero = {}
    for tvec in itertools.product(*(range(lo, hi + 1) for lo, hi in box)):
        for i, dim in enumerate(h_vector(bundle, tvec)):
            if dim:
                nonzero[(i, tvec)] = dim
    lines = _cli_cohomology(bundle, box, "text").splitlines()[2:]
    if not nonzero:
        assert lines == ["all groups in the requested box vanish"]
    else:
        listed = [re.fullmatch(r"h\^(\d+)\(([-\d, ]+)\) = (\d+)", line).groups() for line in lines]
        assert len(listed) == len(nonzero)
        assert {(int(i), tuple(int(t) for t in ts.split(",") if t)): int(dim)
                for i, ts, dim in listed} == nonzero
    rows = list(csv.reader(io.StringIO(_cli_cohomology(bundle, box, "csv"))))
    s = bundle.space.num_factors
    assert rows[0] == ["i", *(f"t_{j + 1}" for j in range(s)), "dim"]
    assert len(rows) - 1 == len(nonzero)
    assert {(int(r[0]), tuple(map(int, r[1:-1]))): int(r[-1]) for r in rows[1:]} == nonzero

"""Structure layer: atoms, summands, bundles, the text format, duality."""

import dataclasses
import itertools
import math
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from mpreg.bundles import (
    ArityError,
    BoxSummand,
    Bundle,
    Cotangent,
    InvalidAtomError,
    Line,
    ParseError,
    Space,
    format_bundle,
    format_space,
    format_summand,
    line_bundle,
    line_summand,
    make_bundle,
    make_summand,
    normalize_atom,
    parse_bundle,
    parse_space,
    rank,
    summand_rank,
    twist,
    _is_normal,
)
from reference import canonical_twist, dualize, restrict_to_hyperplane


def test_space_basics():
    sp = parse_space("P2xP3")
    assert sp.dims == (2, 3)
    assert sp.num_factors == 2
    assert sp.total_dim == 5
    assert canonical_twist(sp) == (-3, -4)
    assert format_space(sp) == "P2xP3"


def test_space_accepts_lowercase_and_big_dims():
    assert parse_space("p10Xp1").dims == (10, 1)


@pytest.mark.parametrize("text", ["", "P0", "PxP1", "P2x", "P2yP3", "P-1"])
def test_space_rejects_garbage(text):
    with pytest.raises((ParseError, ValueError)):
        parse_space(text)


def test_space_size_is_bounded():
    # dim X * prod(n_j + 1): P3xP3xP3 (576) is the largest space the suite
    # uses, P63 (4032) is under the bound and P64 (4160) over it
    assert parse_space("P3xP3xP3").dims == (3, 3, 3)
    assert parse_space("P63").dims == (63,)
    for text in ("P64", "P3000", "P1x" * 8 + "P1"):
        with pytest.raises(ParseError, match="exceeds"):
            parse_space(text)


def test_overlong_integer_is_a_parse_error():
    # past the interpreter's limit on integer digits, int() raises ValueError
    digits = "9" * 5000
    with pytest.raises(ParseError) as err:
        parse_bundle("P1", f"O({digits})")
    assert err.value.position == 2
    with pytest.raises(ParseError):
        parse_space("P" + digits)


def test_normalize_atom_edges():
    # 0-th exterior power is the line itself
    assert normalize_atom(3, Cotangent(0, 5)) == Line(5)
    # top power is a line with a canonical-degree shift
    assert normalize_atom(3, Cotangent(3, 5)) == Line(5 - 4)
    assert normalize_atom(3, Cotangent(2, 5)) == Cotangent(2, 5)
    with pytest.raises(InvalidAtomError):
        normalize_atom(3, Cotangent(4, 0))
    with pytest.raises(InvalidAtomError):
        normalize_atom(2, Cotangent(-1, 0))


def test_summand_arity_checked():
    sp = parse_space("P1xP2")
    with pytest.raises(ArityError):
        make_summand(sp, [Line(1)])
    with pytest.raises(ArityError):
        line_summand(sp, (1, 2, 3))


def test_bundle_is_sorted_canonically():
    sp = parse_space("P1xP1")
    b1 = line_bundle(sp, (2, 0), (0, 1))
    b2 = line_bundle(sp, (0, 1), (2, 0))
    assert b1 == b2
    assert format_bundle(b1) == format_bundle(b2)


def test_rank_multiplies_atom_ranks():
    sp = parse_space("P2xP3")
    _, b = parse_bundle("P2xP3", "W1(0)*W1(0)")
    # rank 2 * rank 3
    assert rank(b) == 6
    assert rank(line_bundle(sp, (3, -1))) == 1


def test_twist_acts_on_every_summand():
    sp, b = parse_bundle("P1xP2", "O(1,0) + O(0)*W1(1)")
    tb = twist(b, (2, -1))
    assert format_bundle(tb) == "O(2)*W1(0) + O(3,-1)"


def test_parse_roundtrip_examples():
    for text in [
        "O(0,0)",
        "O(-2,3)",
        "O(1,0) + O(0,1)",
        "W1(2)*O(0)",
        "O(0)*W2(3) + O(1,1)",
    ]:
        sp, b = parse_bundle("P2xP3", text)
        sp2, b2 = parse_bundle("P2xP3", format_bundle(b))
        assert b == b2


def test_parse_twist_suffix():
    _, plain = parse_bundle("P1xP2", "O(2,1)")
    _, shifted = parse_bundle("P1xP2", "O(1,2) @ (1,-1)")
    assert shifted == plain


def test_parse_reports_position():
    with pytest.raises(ParseError) as err:
        parse_bundle("P1xP2", "O(1,!)")
    assert err.value.position is not None


@pytest.mark.parametrize(
    "text",
    ["", "O(1)", "O(1,2,3)", "O(1,2) +", "W3(0)*O(0)", "O(1,2) junk", "Q(1,2)"],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_bundle("P1xP2", text)


def test_cotangent_normalization_through_parser():
    # W2 on a P2 factor is the top power, so it collapses to a line
    _, b = parse_bundle("P2xP2", "W2(1)*O(0)")
    assert format_bundle(b) == "O(-2,0)"


def test_dual_is_involution_on_samples():
    for text in ["O(2,-3)", "O(0)*W1(2)", "W1(0)*W2(4) + O(1,1)"]:
        _, b = parse_bundle("P2xP3", text)
        assert dualize(dualize(b)) == b


def test_dual_of_line():
    sp = parse_space("P1xP2")
    assert dualize(line_bundle(sp, (2, -3))) == line_bundle(sp, (-2, 3))


def test_restrict_to_hyperplane():
    sp, b = parse_bundle("P2xP3", "O(1,2) + O(3)*W1(0)")
    rb = restrict_to_hyperplane(b, 0)
    assert rb.space.dims == (1, 3)
    assert format_bundle(rb) == format_bundle(b)


dims = st.integers(min_value=1, max_value=4)
degree = st.integers(min_value=-6, max_value=6)


@st.composite
def spaces(draw, max_factors=3):
    k = draw(st.integers(min_value=1, max_value=max_factors))
    return Space(tuple(draw(dims) for _ in range(k)))


@st.composite
def bundles(draw):
    sp = draw(spaces())
    n_summands = draw(st.integers(min_value=1, max_value=3))
    summands = []
    for _ in range(n_summands):
        atoms = []
        for n in sp.dims:
            if n >= 2 and draw(st.booleans()):
                p = draw(st.integers(min_value=1, max_value=n - 1))
                atoms.append(Cotangent(p, draw(degree)))
            else:
                atoms.append(Line(draw(degree)))
        summands.append(make_summand(sp, atoms))
    return make_bundle(sp, summands)


@given(bundles())
def test_format_parse_roundtrip(b):
    sp2, b2 = parse_bundle(format_space(b.space), format_bundle(b))
    assert sp2 == b.space
    assert b2 == b


@given(bundles())
def test_double_dual(b):
    assert dualize(dualize(b)) == b


@given(bundles(), st.tuples(degree, degree, degree))
def test_twist_untwist(b, tv):
    tv = tv[: b.space.num_factors]
    assert twist(twist(b, tv), tuple(-t for t in tv)) == b


# ---------------------------------------------------------------------------
# memo keys: a stored hash per space, the summand's integer key, and no
# systematic collisions


def test_line_summand_hashes_are_distinct():
    # hash(-1) == hash(-2) in CPython; hashing the degrees themselves gives
    # the 125 summands O(a,b,c), -2 <= a,b,c <= 2, only 64 values, so the
    # doubled key keeps the facts memo's keys apart
    sp = parse_space("P1xP1xP1")
    summands = [line_summand(sp, d) for d in itertools.product(range(-2, 3), repeat=3)]
    assert len({hash(s.degrees) for s in summands}) == 64
    assert len({hash((sp.dims, s.key)) for s in summands}) == len(summands) == 125


def test_cotangent_family_hashes_are_distinct():
    sp = parse_space("P2xP2")
    atoms = [Line(d) for d in range(-2, 3)] + [Cotangent(1, t) for t in range(-2, 3)]
    summands = [make_summand(sp, pair) for pair in itertools.product(atoms, repeat=2)]
    assert len({hash((sp.dims, s.key)) for s in summands}) == len(summands) == 100


def _raw_atoms(draw, sp):
    return [Cotangent(draw(st.integers(0, n)), draw(degree)) if draw(st.booleans())
            else Line(draw(degree)) for n in sp.dims]


@st.composite
def raw_summands(draw):
    """A space and atoms as a user may write them, W^0 and W^n included."""
    sp = draw(spaces())
    return sp, _raw_atoms(draw, sp)


@given(raw_summands())
def test_summand_made_twice_is_equal_with_equal_hash(drawn):
    sp, atoms = drawn
    first = make_summand(sp, atoms)
    again = make_summand(sp, atoms)
    _, parsed = parse_bundle(format_space(sp), format_summand(sp, first))
    for other in (again, BoxSummand(first.atoms), parsed.summands[0]):
        assert other == first and hash(other) == hash(first)
    assert hash(Space(sp.dims)) == hash(sp)


_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def test_pickled_summand_keeps_its_hash_under_another_hash_seed():
    # a pickled summand, read back in another process, keeps its key and hash:
    # neither depends on the process's string hash salt
    text = "W1(-1)*O(-2) + O(-1,2)"
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    code = ("import pickle, sys\n"
            "from mpreg.bundles import parse_bundle\n"
            f"_, b = parse_bundle('P2xP2', {text!r})\n"
            "sys.stdout.buffer.write(pickle.dumps(b.summands))\n")
    env = {**os.environ, "PYTHONHASHSEED": seed,
           "PYTHONPATH": os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         check=True, timeout=60).stdout
    theirs = pickle.loads(out)
    _, ours = parse_bundle("P2xP2", text)
    assert theirs == ours.summands
    assert [s.key for s in theirs] == [s.key for s in ours.summands]
    assert [hash(s) for s in theirs] == [hash(s) for s in ours.summands]


def test_make_bundle_keeps_normal_summands_as_made():
    sp = parse_space("P2xP1")
    given_summands = [make_summand(sp, [Cotangent(1, 0), Line(-1)]), line_summand(sp, (2, -2))]
    kept = make_bundle(sp, given_summands).summands
    assert sorted(map(id, kept)) == sorted(map(id, given_summands))
    # summands not normal for the space are still rewritten: W0(t) is O(t)
    # and W2(t) is O(t - 3) on P2
    raw = [BoxSummand((Cotangent(0, 4), Line(0))), BoxSummand((Cotangent(2, 1), Line(1)))]
    assert make_bundle(sp, raw) == line_bundle(sp, (4, 0), (-2, 1))
    with pytest.raises(InvalidAtomError):
        make_bundle(sp, [BoxSummand((Cotangent(3, 0), Line(0)))])
    with pytest.raises(ArityError):
        make_bundle(sp, [BoxSummand((Line(0),))])


def _atom_sort_key(atom):
    """The reference summand order: atoms compared as (0, 0, d) for O(d)
    and (1, p, t) for W^p(t), factor by factor."""
    return (0, 0, atom.degree) if isinstance(atom, Line) else (1, atom.p, atom.twist)


@given(st.data())
def test_stored_key_orders_summands_as_their_atoms(data):
    sp = data.draw(spaces())
    count = data.draw(st.integers(1, 6))
    made = [make_summand(sp, data.draw(st.composite(_raw_atoms)(sp))) for _ in range(count)]
    by_atoms = sorted(made, key=lambda s: tuple(map(_atom_sort_key, s.atoms)))
    assert sorted(made, key=lambda s: s.key) == by_atoms
    assert list(make_bundle(sp, made).summands) == by_atoms


@given(raw_summands())
def test_stored_degrees_and_rank_match_the_atoms(drawn):
    sp, atoms = drawn
    s = make_summand(sp, atoms)
    lines = all(isinstance(a, Line) for a in s.atoms)
    assert s.degrees == (tuple(a.degree for a in s.atoms) if lines else None)
    assert summand_rank(sp, s) == math.prod(
        1 if isinstance(a, Line) else math.comb(n, a.p) for n, a in zip(sp.dims, s.atoms))
    assert repr(s) == f"BoxSummand(atoms={s.atoms!r})"
    assert dataclasses.asdict(s) == {"atoms": tuple(map(dataclasses.asdict, s.atoms))}


@given(st.data())
def test_stored_min_dims_decide_normal_form(data):
    # any atoms, on a space of any arity: normal exactly when make_summand
    # accepts them and returns an equal summand
    sp = data.draw(spaces())
    atom = st.one_of(degree.map(Line), st.builds(Cotangent, st.integers(-1, 5), degree))
    atoms = data.draw(st.lists(atom, min_size=1, max_size=4))
    s = BoxSummand(tuple(atoms))
    try:
        expected = make_summand(sp, atoms) == s
    except (ArityError, InvalidAtomError):
        expected = False
    assert _is_normal(sp, s) == expected
    if expected:
        assert make_bundle(sp, [s]).summands[0] is s


@given(bundles())
def test_bundle_is_frozen_and_equals_one_built_field_by_field(b):
    again = Bundle(space=b.space, summands=b.summands)
    assert again == b and hash(again) == hash(b) == hash((b.space, b.summands))
    assert repr(again) == f"Bundle(space={b.space!r}, summands={b.summands!r})"
    assert dataclasses.asdict(again) == dataclasses.asdict(b)
    assert pickle.loads(pickle.dumps(b)) == b
    with pytest.raises(dataclasses.FrozenInstanceError):
        b.space = Space((1,))


def test_parse_space_gives_one_space_per_text():
    assert parse_space("P2xP3") is parse_space("P2xP3")
    maxsize = parse_space.cache_info().maxsize
    for k in range(maxsize + 10):
        parse_space(" " * k + "P1xP2")
    assert parse_space.cache_info().currsize <= maxsize
    for _ in range(3):
        with pytest.raises(ParseError):
            parse_space("P2xQ3")

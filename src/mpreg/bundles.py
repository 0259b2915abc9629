"""Data model for decomposable bundles on products of projective spaces.

A bundle is a finite direct sum of box summands; a box summand is one atom
per factor, where an atom is either a line sheaf O(a) or a twisted exterior
power of the cotangent sheaf W^p(t) on that factor.  Everything is immutable
and kept in a canonical sorted form so that equality is multiset equality.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from math import comb, inf, prod
from operator import attrgetter, le
from typing import Iterable, Union


class ModelError(Exception):
    """Base class for all model-level errors."""


class InvalidAtomError(ModelError):
    pass


class ArityError(ModelError):
    pass


class ParseError(ModelError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Space:
    """Product of projective spaces, one dimension per factor."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if not self.dims:
            raise ModelError("a space needs at least one factor")
        for n in self.dims:
            if not isinstance(n, int) or n < 1:
                raise ModelError(f"factor dimensions must be positive integers, got {n!r}")

    @property
    def num_factors(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)


@dataclass(frozen=True)
class Line:
    degree: int


@dataclass(frozen=True)
class Cotangent:
    p: int
    twist: int


Atom = Union[Line, Cotangent]


def normalize_atom(n: int, atom: Atom) -> Atom:
    """Rewrite boundary exterior powers as line atoms.

    On a factor of dimension n, W^0(t) is O(t) and W^n(t) is O(t-n-1);
    after normalization a stored Cotangent always has 1 <= p <= n-1.
    """
    if isinstance(atom, Line):
        return atom
    p, t = atom.p, atom.twist
    if p < 0 or p > n:
        raise InvalidAtomError(f"exterior power {p} out of range on a dimension-{n} factor")
    if p == 0:
        return Line(t)
    if p == n:
        return Line(t - n - 1)
    return atom


def atom_rank(n: int, atom: Atom) -> int:
    if isinstance(atom, Line):
        return 1
    return comb(n, atom.p)


@dataclass(frozen=True)
class BoxSummand:
    """One atom per factor, with facts stored when made: ``key``, three
    integers per atom, (0, 0, 2d) for O(d) and (1, 2p, 2t) for W^p(t), is
    both the sort key and the memo key of the summand's facts (doubled,
    since hash(-1) == hash(-2) would give O(-1) and O(-2) one hash);
    ``degrees`` are the line degrees, or None when an atom is a cotangent;
    ``min_dims`` holds, per atom, the least factor dimension on which it is
    in normal form (1 for O(d), p + 1 for W^p(t), infinite for p <= 0)."""

    atoms: tuple[Atom, ...]

    def __post_init__(self):
        key, min_dims, lines = [], [], True
        for a in self.atoms:
            if isinstance(a, Line):
                key += (0, 0, 2 * a.degree)
                min_dims.append(1)
            else:
                key += (1, 2 * a.p, 2 * a.twist)
                min_dims.append(a.p + 1 if a.p > 0 else inf)
                lines = False
        key = tuple(key)
        vars(self).update(key=key, min_dims=tuple(min_dims),
                          degrees=tuple(a.degree for a in self.atoms) if lines else None)


@dataclass(frozen=True, init=False)
class Bundle:
    space: Space
    summands: tuple[BoxSummand, ...]

    def __init__(self, space, summands):
        # frozen all the same: one dict update, not a frozen setattr per field
        vars(self).update(space=space, summands=summands)


def make_summand(space: Space, atoms: Iterable[Atom]) -> BoxSummand:
    atoms = tuple(atoms)
    if len(atoms) != space.num_factors:
        raise ArityError(
            f"summand has {len(atoms)} atoms but the space has {space.num_factors} factors"
        )
    return BoxSummand(tuple(normalize_atom(n, a) for n, a in zip(space.dims, atoms)))


def line_summand(space: Space, degrees: Iterable[int]) -> BoxSummand:
    return make_summand(space, (Line(d) for d in degrees))


_summand_key = attrgetter("key")


def _is_normal(space: Space, s: BoxSummand) -> bool:
    """Would make_summand return a summand equal to s?  Line atoms are in
    normal form on every factor, so a line summand needs only the length."""
    return len(s.min_dims) == len(space.dims) and (
        s.degrees is not None or all(map(le, s.min_dims, space.dims)))


def make_bundle(space: Space, summands: Iterable[BoxSummand]) -> Bundle:
    # a summand already normal is kept as made, not made again
    summands = [s if _is_normal(space, s) else make_summand(space, s.atoms) for s in summands]
    if not summands:
        raise ModelError("a bundle needs at least one summand")
    return Bundle(space, tuple(sorted(summands, key=_summand_key)))


def line_bundle(space: Space, *degree_vectors: Iterable[int]) -> Bundle:
    return make_bundle(space, [line_summand(space, d) for d in degree_vectors])


def summand_rank(space: Space, s: BoxSummand) -> int:
    if s.degrees is not None:
        return 1
    r = 1
    for n, a in zip(space.dims, s.atoms):
        r *= atom_rank(n, a)
    return r


def rank(bundle: Bundle) -> int:
    r = 0
    for s in bundle.summands:  # a loop: a line summand costs no call
        r += 1 if s.degrees is not None else summand_rank(bundle.space, s)
    return r


def twist_atom(atom: Atom, t: int) -> Atom:
    if isinstance(atom, Line):
        return Line(atom.degree + t)
    return Cotangent(atom.p, atom.twist + t)


def twist_summand(space: Space, s: BoxSummand, tvec: Iterable[int]) -> BoxSummand:
    tvec = tuple(tvec)
    if len(tvec) != space.num_factors:
        raise ArityError(f"twist vector has length {len(tvec)}, expected {space.num_factors}")
    return BoxSummand(tuple(twist_atom(a, t) for a, t in zip(s.atoms, tvec)))


def twist(bundle: Bundle, tvec: Iterable[int]) -> Bundle:
    tvec = tuple(tvec)
    return make_bundle(
        bundle.space, [twist_summand(bundle.space, s, tvec) for s in bundle.summands]
    )


# ---------------------------------------------------------------------------
# text format


_TOKEN_RE = re.compile(r"(?P<ws>\s+)|(?P<int>-?\d+)|(?P<name>[A-Za-z])|(?P<punct>[(),*+@])")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        if m.lastgroup != "ws":
            out.append((m.lastgroup, m.group(), m.start()))
        i = m.end()
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.pos += 1
        return tok

    def expect(self, value: str):
        tok = self.next()
        if tok[1] != value:
            raise ParseError(f"expected {value!r}, got {tok[1]!r}", tok[2])
        return tok

    def expect_int(self) -> int:
        tok = self.next()
        if tok[0] != "int":
            raise ParseError(f"expected an integer, got {tok[1]!r}", tok[2])
        try:
            return int(tok[1])
        except ValueError:  # over the interpreter's limit on integer digits
            raise ParseError(f"integer of {len(tok[1])} characters is too long", tok[2]) from None

    def done(self) -> bool:
        return self.pos >= len(self.tokens)


MAX_SPACE_SIZE = 4096  # dim X * prod(n_j + 1); a larger space is refused


@lru_cache(maxsize=256)
def parse_space(text: str) -> Space:
    """One Space object per text; a ParseError is raised again on each call."""
    p = _Parser(text)
    dims = []
    while True:
        tok = p.next()
        if tok[1] not in ("P", "p"):
            raise ParseError(f"expected 'P', got {tok[1]!r}", tok[2])
        n = p.expect_int()
        if n < 1:
            raise ParseError(f"factor dimension must be >= 1, got {n}", tok[2])
        dims.append(n)
        if sum(dims) * prod(d + 1 for d in dims) > MAX_SPACE_SIZE:
            raise ParseError(f"space exceeds dim X * prod(n_j + 1) <= {MAX_SPACE_SIZE}", tok[2])
        if p.done():
            break
        tok = p.next()
        if tok[1] not in ("x", "X"):
            raise ParseError(f"expected 'x' between factors, got {tok[1]!r}", tok[2])
    return Space(tuple(dims))


def _parse_int_list(p: _Parser) -> list[int]:
    p.expect("(")
    values = [p.expect_int()]
    while True:
        tok = p.next()
        if tok[1] == ")":
            return values
        if tok[1] != ",":
            raise ParseError(f"expected ',' or ')', got {tok[1]!r}", tok[2])
        values.append(p.expect_int())


def _parse_atom(p: _Parser):
    tok = p.next()
    if tok[1] in ("O", "o"):
        return ("line", _parse_int_list(p), tok[2])
    if tok[1] in ("W", "w"):
        power = p.expect_int()
        args = _parse_int_list(p)
        if len(args) != 1:
            raise ParseError("W atoms take exactly one twist argument", tok[2])
        return ("cot", (power, args[0]), tok[2])
    raise ParseError(f"expected an atom, got {tok[1]!r}", tok[2])


def _parse_summand(p: _Parser, space: Space) -> BoxSummand:
    parts = [_parse_atom(p)]
    while True:
        tok = p.peek()
        if tok is None or tok[1] != "*":
            break
        p.next()
        parts.append(_parse_atom(p))
    s = space.num_factors
    if len(parts) == 1 and parts[0][0] == "line" and len(parts[0][1]) > 1:
        degrees = parts[0][1]
        if len(degrees) != s:
            raise ParseError(
                f"line summand lists {len(degrees)} degrees but the space has {s} factors",
                parts[0][2],
            )
        return line_summand(space, degrees)
    if len(parts) != s:
        raise ParseError(
            f"summand has {len(parts)} atoms but the space has {s} factors", parts[0][2]
        )
    atoms = []
    for kind, payload, pos in parts:
        if kind == "line":
            if len(payload) != 1:
                raise ParseError("a per-factor line atom takes a single degree", pos)
            atoms.append(Line(payload[0]))
        else:
            power, t = payload
            atoms.append(Cotangent(power, t))
    try:
        return make_summand(space, atoms)
    except (InvalidAtomError, ArityError) as exc:
        raise ParseError(str(exc), parts[0][2]) from exc


def parse_bundle(space_text: str, bundle_text: str) -> tuple[Space, Bundle]:
    """Parse a space and a bundle description, returning canonical forms."""
    space = parse_space(space_text)
    p = _Parser(bundle_text)
    summands = [_parse_summand(p, space)]
    tvec = None
    while not p.done():
        tok = p.next()
        if tok[1] == "+":
            summands.append(_parse_summand(p, space))
        elif tok[1] == "@":
            tvec = _parse_int_list(p)
            if len(tvec) != space.num_factors:
                raise ParseError(
                    f"twist vector lists {len(tvec)} entries but the space has "
                    f"{space.num_factors} factors",
                    tok[2],
                )
            if not p.done():
                extra = p.peek()
                raise ParseError(f"unexpected trailing input {extra[1]!r}", extra[2])
            break
        else:
            raise ParseError(f"expected '+' or '@', got {tok[1]!r}", tok[2])
    bundle = make_bundle(space, summands)
    if tvec is not None:
        bundle = twist(bundle, tvec)
    return space, bundle


def format_space(space: Space) -> str:
    return "x".join(f"P{n}" for n in space.dims)


def format_atom(atom: Atom) -> str:
    if isinstance(atom, Line):
        return f"O({atom.degree})"
    return f"W{atom.p}({atom.twist})"


def format_summand(space: Space, s: BoxSummand) -> str:
    if space.num_factors > 1 and all(isinstance(a, Line) for a in s.atoms):
        return "O(" + ",".join(str(a.degree) for a in s.atoms) + ")"
    return "*".join(format_atom(a) for a in s.atoms)


def format_bundle(bundle: Bundle) -> str:
    return " + ".join(format_summand(bundle.space, s) for s in bundle.summands)

"""Exact sheaf cohomology for box summands via per-factor formulas and Kunneth.

Two independent routes are provided for a single projective factor: closed
formulas (h_line, h_bott) and a long-exact-sequence chase through the Euler
sequence (oracle_euler_sequence).  The test suite plays them against each
other; the engine itself only uses the closed formulas.

By Bott's formula an atom has at most one nonzero group at any twist, so by
Kunneth a box summand has at most one too.  Each atom's support is stated
once, as ranges of the twist (_atom_support); point values and nonvanishing
windows are both folds of those ranges over the summands.  In a balanced
twist a summand's window for each level is one interval.  A summand's
supports are read once (summand_supports); an offset k only shifts them, and
one sweep over the ranges' starts gives the windows of every level at k
(level_windows), in O(s^2) for s factors.  regularity.summand_windows
keeps the windows for the check bits, the witnesses and Reg in each
summand's record (regularity.summand_facts); it sweeps each untwisted
summand once, since a diagonal twist by c shifts every window by -c.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, prod
from typing import Iterable, Optional

from .bundles import (
    ArityError,
    Atom,
    BoxSummand,
    Bundle,
    Cotangent,
    Line,
    ModelError,
    Space,
    normalize_atom,
    twist_atom,
)

Endpoint = Optional[int]  # None encodes an unbounded endpoint


def extended_binomial(x: int, k: int) -> int:
    """Binomial coefficient with integer (possibly negative) upper argument."""
    if k < 0:
        return 0
    num = 1
    for i in range(k):
        num *= x - i
    value, rem = divmod(num, factorial(k))
    assert rem == 0
    return value


def h_line(n: int, d: int, i: int) -> int:
    """dim H^i of O(d) on a single projective space of dimension n."""
    if i == 0 and d >= 0:
        return comb(d + n, n)
    if i == n and d <= -n - 1:
        return comb(-d - 1, n)
    return 0


def h_bott(n: int, p: int, t: int, i: int) -> int:
    """dim H^i of W^p(t) on a dimension-n factor, for 1 <= p <= n-1.

    At most one cohomological degree is nonzero for each (p, t).
    """
    if not 1 <= p <= n - 1:
        raise ModelError(f"h_bott expects 1 <= p <= n-1, got p={p}, n={n}")
    if i == 0 and t > p:
        return comb(t + n - p, t) * comb(t - 1, p)
    if i == p and t == 0:
        return 1
    if i == n and t < p - n:
        return comb(-t + p, -t) * comb(-t - 1, n - p)
    return 0


def koszul_section_rank(n: int, q: int, t: int) -> int:
    """Rank of the degree-t global-section Koszul differential out of spot q.

    Valid for t >= 1, where the section-level Koszul complex is exact at
    every interior spot, so the rank telescopes to an alternating sum.
    """
    total = 0
    sign = 1
    for j in range(q, n + 2):
        if t - j >= 0:
            total += sign * comb(n + 1, j) * comb(t - j + n, n)
        sign = -sign
    return total


@lru_cache(maxsize=None)
def oracle_euler_sequence(n: int, p: int, t: int, i: int) -> int:
    """dim H^i of W^p(t) computed by chasing the twisted Euler sequence.

    Uses 0 -> W^p(t) -> O(t-p)^C(n+1,p) -> W^(p-1)(t) -> 0 and recursion on
    p, with line cohomology as the only closed-form input.  Independent of
    h_bott.
    """
    if i < 0 or i > n:
        return 0
    atom = normalize_atom(n, Cotangent(p, t))
    if isinstance(atom, Line):
        return h_line(n, atom.degree, i)
    p = atom.p

    def c_vec(j: int) -> int:
        return oracle_euler_sequence(n, p - 1, t, j)

    def b_vec(j: int) -> int:
        return comb(n + 1, p) * h_line(n, t - p, j)

    b_support = [j for j in range(n + 1) if b_vec(j)]
    c_support = [j for j in range(n + 1) if c_vec(j)]
    if not b_support:
        # H^i(A) = H^(i-1)(C)
        return c_vec(i - 1)
    if not c_support:
        return b_vec(i)
    beta = b_support[0]
    gamma = c_support[0]
    if beta == 0 and gamma == 0:
        # middle rank resolves the two unknowns of the four-term sequence
        s0 = koszul_section_rank(n, p, t)
        if i == 0:
            return b_vec(0) - s0
        if i == 1:
            return c_vec(0) - s0
        return 0
    if beta == n and gamma == n:
        return b_vec(n) - c_vec(n) if i == n else 0
    if beta == gamma + 1:
        return b_vec(beta) + c_vec(gamma) if i == beta else 0
    # disjoint supports
    if i == beta:
        return b_vec(beta)
    if i == gamma + 1:
        return c_vec(gamma)
    return 0


def _atom_support(n: int, atom: Atom) -> tuple[tuple[int, Endpoint, Endpoint], ...]:
    """Bott's formula as ranges: each (level, lo, hi) such that
    H^level(atom(t)) on P^n is nonzero exactly for lo <= t <= hi, None
    unbounded.  The ranges are disjoint, so at most one group is nonzero at
    any twist; they are listed from the top down, the last one unbounded
    below."""
    atom = normalize_atom(n, atom)
    if isinstance(atom, Line):
        return _support(n, 0, atom.degree)
    return _support(n, atom.p, atom.twist)


def _support(n: int, p: int, c: int) -> tuple[tuple[int, Endpoint, Endpoint], ...]:
    """_atom_support of W^p(c) on P^n, 1 <= p <= n-1, or of O(c) for p = 0."""
    if p == 0:
        return ((0, -c, None), (n, None, -c - n - 1))
    return ((0, p + 1 - c, None), (p, -c, -c), (n, None, p - n - 1 - c))


def _summand_group(space: Space, summand: BoxSummand, tvec: tuple[int, ...]):
    """The one nonzero group (i, dim) of the summand twisted by tvec, or None.

    By Kunneth it is the product of one group per atom: the levels add up
    and the dimensions multiply."""
    i, dim = 0, 1
    for n, atom, t in zip(space.dims, summand.atoms, tvec):
        atom = normalize_atom(n, atom)
        for level, lo, hi in _atom_support(n, atom):
            if (lo is None or lo <= t) and (hi is None or t <= hi):
                break
        else:
            return None
        i += level
        if isinstance(atom, Line):
            dim *= h_line(n, atom.degree + t, level)
        else:
            dim *= h_bott(n, atom.p, atom.twist + t, level)
    return i, dim


def _twist_vector(space: Space, tvec: Iterable[int]) -> tuple[int, ...]:
    tvec = tuple(tvec)
    if len(tvec) != space.num_factors:
        raise ArityError(f"twist vector length {len(tvec)} does not match the space")
    return tvec


def _groups(bundle: Bundle, tvec: Iterable[int]):
    """The nonzero group (i, dim) of each summand twisted by tvec."""
    tvec = _twist_vector(bundle.space, tvec)
    for s in bundle.summands:
        group = _summand_group(bundle.space, s, tvec)
        if group is not None:
            yield group


def h_bundle(bundle: Bundle, tvec: Iterable[int], i: int) -> int:
    """dim H^i of the bundle twisted by O(tvec)."""
    return sum(dim for j, dim in _groups(bundle, tvec) if j == i)


def h_vector(bundle: Bundle, tvec: Iterable[int]) -> tuple[int, ...]:
    out = [0] * (bundle.space.total_dim + 1)
    for i, dim in _groups(bundle, tvec):
        out[i] += dim
    return tuple(out)


# ---------------------------------------------------------------------------
# Euler characteristic, by an independent recursion


def _chi_line(n: int, d: int) -> int:
    return extended_binomial(d + n, n)


@lru_cache(maxsize=None)
def _chi_cot(n: int, p: int, t: int) -> int:
    if p < 0:
        return 0
    if p == 0:
        return _chi_line(n, t)
    # additivity over the twisted Euler sequence
    return comb(n + 1, p) * _chi_line(n, t - p) - _chi_cot(n, p - 1, t)


def euler_characteristic_atom(n: int, atom: Atom) -> int:
    if isinstance(atom, Line):
        return _chi_line(n, atom.degree)
    return _chi_cot(n, atom.p, atom.twist)


def euler_characteristic(bundle: Bundle, tvec: Iterable[int] = None) -> int:
    space = bundle.space
    tvec = _twist_vector(space, (0,) * space.num_factors if tvec is None else tvec)
    total = 0
    for s in bundle.summands:
        term = 1
        for n, atom, t in zip(space.dims, s.atoms, tvec):
            term *= euler_characteristic_atom(n, twist_atom(atom, t))
        total += term
    return total


# ---------------------------------------------------------------------------
# nonvanishing windows in a balanced twist parameter


def summand_supports(space: Space, summand: BoxSummand) -> tuple:
    """The support ranges of each atom of the summand, untwisted.  Twisting
    the atom by k_j only moves its ranges by -k_j."""
    return tuple(_atom_support(n, atom) for n, atom in zip(space.dims, summand.atoms))


def level_windows(supports: tuple, k: tuple[int, ...]) -> dict[int, tuple[Endpoint, Endpoint]]:
    """{i: (lo, hi)} for every level i where some t makes h^i(summand
    twisted by (t+k_1, ..., t+k_s)) nonzero, from the summand's supports;
    None for an unbounded end.

    Each atom's nonzero level can only fall as t grows (n -> 0 for O(a),
    n -> p -> 0 for W^p(c)), and each level holds on an interval of t.  So
    two twists with the same total level i have the same level on every
    factor, and so does every twist between them: the window is one
    interval, the intersection of one range per factor, and it starts at
    the largest lo among them, or at -infinity when none has a finite lo.
    The sweep visits those starts: -infinity, where each factor sits in its
    last range, and each finite lo shifted by -k_j.  A factor's ranges are
    disjoint, so at each start it sits in at most one of them; that fixes
    the level and the window's upper end, and every window is found.
    O(s^2) for s factors.
    """
    windows = {sum(ranges[-1][0] for ranges in supports):
               (None, min(ranges[-1][2] - kj for ranges, kj in zip(supports, k)))}
    starts = {lo - kj for ranges, kj in zip(supports, k) for _, lo, _ in ranges if lo is not None}
    for t in starts:
        i, hi = 0, None
        for ranges, kj in zip(supports, k):
            u = t + kj
            for level, rlo, rhi in ranges:  # top down: the one range that can hold u
                if rlo is None or rlo <= u:
                    break
            if rhi is not None:
                if rhi < u:
                    break
                if hi is None or rhi - kj < hi:
                    hi = rhi - kj
            i += level
        else:
            windows[i] = (t, hi)
    return windows


def nonvanishing_t_window(
    bundle: Bundle, k: Iterable[int], i: int
) -> tuple[tuple[Endpoint, Endpoint], ...]:
    """Exact set of integers t with h^i(bundle twisted by (t,...,t)+k) nonzero.

    Sorted, disjoint and non-adjacent (lo, hi) pairs, None for an unbounded
    end: the summands' intervals, sorted and merged.  Finite for
    0 < i < dim X; for i = 0 or i = dim X the set may contain rays.
    """
    space = bundle.space
    k = _twist_vector(space, k)
    if not 0 <= i <= space.total_dim:
        return ()
    windows = (level_windows(summand_supports(space, s), k).get(i) for s in bundle.summands)
    merged: list[tuple[Endpoint, Endpoint]] = []
    for lo, hi in sorted(filter(None, windows), key=lambda w: (w[0] is not None, w[0])):
        if merged:
            plo, phi = merged[-1]
            # overlapping or adjacent integer intervals merge
            if phi is None or lo is None or lo <= phi + 1:
                merged[-1] = (plo, None if phi is None or hi is None else max(phi, hi))
                continue
        merged.append((lo, hi))
    return tuple(merged)


# ---------------------------------------------------------------------------
# tables


MAX_TABLE_TWISTS = 10**5  # twist vectors in one table; a larger box is refused

@dataclass(frozen=True)
class CohomologyTable:
    bundle: Bundle
    twist_box: tuple[tuple[int, int], ...]
    entries: dict  # (i, tvec) -> positive dimension

    def dimension(self, i: int, tvec: tuple[int, ...]) -> int:
        return self.entries.get((i, tuple(tvec)), 0)


def build_table(bundle: Bundle, twist_box: Iterable[tuple[int, int]]) -> CohomologyTable:
    """Tabulate all nonzero h^i over a rectangular box of twists."""
    twist_box = tuple((int(lo), int(hi)) for lo, hi in twist_box)
    if len(twist_box) != bundle.space.num_factors:
        raise ModelError("twist box arity does not match the space")
    for lo, hi in twist_box:
        if lo > hi:
            raise ModelError(f"empty twist range {lo}..{hi}")
    ranges = [range(lo, hi + 1) for lo, hi in twist_box]
    if prod(map(len, ranges)) > MAX_TABLE_TWISTS:
        raise ModelError(f"twist box has more than {MAX_TABLE_TWISTS} twist vectors")
    entries = {}
    for tvec in itertools.product(*ranges):
        for i, dim in _groups(bundle, tvec):
            entries[(i, tvec)] = entries.get((i, tvec), 0) + dim
    return CohomologyTable(bundle, twist_box, entries)

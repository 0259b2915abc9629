"""Exact sheaf cohomology for box summands via per-factor formulas and Kunneth.

Two independent routes are provided for a single projective factor: closed
formulas (h_line, h_bott) and a long-exact-sequence chase through the Euler
sequence (oracle_euler_sequence); the engine only uses the closed formulas.

By Bott's formula an atom has at most one nonzero group at any twist, so by
Kunneth a box summand has at most one too.  Each atom's support is stated
once, as ranges of the twist (_support); point values and windows fold
those ranges over the summands, each read through one record per sheaf
(summand_facts, atoms in normal form).  In a balanced twist a summand's
window for each level is one interval, and one sweep over the ranges'
starts gives the windows of every level at an offset (level_windows), in
O(s^2) for s factors.  A diagonal twist by c shifts every window by -c, so
regularity.summand_windows keeps windows once per diagonal twist class,
keyed on the atoms with first twist 0, and a summand with first twist c
reads them at t + c.  A table over a box of twists (build_table) is, per
summand, the product of one column per factor: levels add, dims multiply.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod
from typing import Iterable, Optional

from .bundles import (
    ArityError,
    Bundle,
    Cotangent,
    Line,
    ModelError,
    Space,
    normalize_atom,
)

Endpoint = Optional[int]  # None encodes an unbounded endpoint


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


def _support(n: int, p: int, c: int) -> tuple[tuple[int, Endpoint, Endpoint], ...]:
    """Bott's formula as ranges for W^p(c) on P^n, 1 <= p <= n-1, or for
    O(c) when p = 0: each (level, lo, hi) such that H^level(atom(t)) is
    nonzero exactly for lo <= t <= hi, None unbounded.  The ranges are
    disjoint, so at most one group is nonzero at any twist; they are listed
    from the top down, the last one unbounded below."""
    if p == 0:
        return ((0, -c, None), (n, None, -c - n - 1))
    return ((0, p + 1 - c, None), (p, -c, -c), (n, None, p - n - 1 - c))


class SummandFacts:
    """One summand's atoms in normal form, (n_j, p_j, t_j) with p_j = 0 for
    O(t_j), the spread of its line degrees (max - min, None for a cotangent),
    and facts filled on first use with the reader's space: a sweep mask per
    tuple of check ids, Reg per definition and tags.  No window and no
    check's bit is kept: splitting._summand_fails reads a bit off the
    windows of the diagonal class (regularity.summand_windows)."""

    __slots__ = ("atoms", "spread", "masks", "regs", "tags")

    def __init__(self, atoms: tuple, spread: Optional[int] = None):
        self.atoms, self.spread = atoms, spread
        self.masks, self.regs, self.tags = {}, {}, None


@lru_cache(maxsize=None)
def summand_facts(dims: tuple, key: tuple) -> SummandFacts:
    """The record of the summand with this key, (0, 0, 2t) for O(t) and
    (1, 2p, 2t) for W^p(t) per atom, on the space with these dims.  One
    record per sheaf: a key written out of normal form (W^0(t), W^n(t))
    gets the record of its normal key.  A key whose atom count is not the
    space's factor count is refused (ArityError) on a miss."""
    if len(key) != 3 * len(dims):
        raise ArityError(f"summand has {len(key) // 3} atoms but the space has "
                         f"{len(dims)} factors")
    atoms, normal = [], True
    for n, kind, p, t in zip(dims, key[::3], key[1::3], key[2::3]):
        p, t = p // 2, t // 2
        if kind and not 0 < p < n:  # W^0(t) and W^n(t) are lines; any other p is refused
            a = normalize_atom(n, Cotangent(p, t))
            if isinstance(a, Line):
                p, t, normal = 0, a.degree, False
        atoms.append((n, p, t))
    if not normal:
        normal_key = tuple(x for _, p, t in atoms for x in (int(p > 0), 2 * p, 2 * t))
        return summand_facts(dims, normal_key)
    twice = key[2::3]
    return SummandFacts(tuple(atoms), None if any(key[::3]) else (max(twice) - min(twice)) // 2)


def summand_records(bundle: Bundle) -> list[SummandFacts]:
    """The record of each summand of the bundle, in order.  Every engine
    entry point reads records here, so an empty bundle is refused here."""
    if not bundle.summands:
        raise ModelError("a bundle needs at least one summand")
    dims, records = bundle.space.dims, []
    for s in bundle.summands:  # a loop: cheaper than a comprehension before Python 3.12
        records.append(summand_facts(dims, s.key))
    return records


def _summand_group(atoms: tuple, tvec: tuple[int, ...]):
    """The one nonzero group (i, dim), or None, of the summand twisted by
    tvec, from its record's atoms (n, p, t).

    By Kunneth it is the product of one group per atom: the levels add up
    and the dimensions multiply."""
    i, dim = 0, 1
    for (n, p, c), t in zip(atoms, tvec):
        for level, lo, hi in _support(n, p, c):
            if (lo is None or lo <= t) and (hi is None or t <= hi):
                break
        else:
            return None
        i += level
        dim *= h_bott(n, p, c + t, level) if p else h_line(n, c + t, level)
    return i, dim


def _twist_vector(space: Space, tvec: Iterable[int]) -> tuple[int, ...]:
    tvec = tuple(tvec)
    if len(tvec) != space.num_factors:
        raise ArityError(f"twist vector length {len(tvec)} does not match the space")
    return tvec


def h_bundle(bundle: Bundle, tvec: Iterable[int], i: int) -> int:
    """dim H^i of the bundle twisted by O(tvec): the sum of the summands'
    groups at level i."""
    tvec = _twist_vector(bundle.space, tvec)
    total = 0
    for f in summand_records(bundle):
        group = _summand_group(f.atoms, tvec)
        if group is not None and group[0] == i:
            total += group[1]
    return total


# ---------------------------------------------------------------------------
# nonvanishing windows in a balanced twist parameter


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
    windows = (level_windows(tuple(_support(*a) for a in f.atoms), k).get(i)
               for f in summand_records(bundle))
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
    """Tabulate all nonzero h^i over a rectangular box of twists.

    By Kunneth a summand's table is the product of one column per factor:
    the (t, level, dim) of its atom at each t of that factor's range where
    the atom has a group.  The levels add and the dims multiply, so a box
    costs one atom value per factor and range entry, then one product per
    nonzero twist vector of each summand."""
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
    for f in summand_records(bundle):
        cells = [((), 0, 1)]  # (twist vector so far, level, dim)
        for atom, r in zip(f.atoms, ranges):
            column = []
            for t in r:
                group = _summand_group((atom,), (t,))
                if group is not None:
                    column.append(((t,), *group))
            cells = [(tvec + tail, i + level, dim * d)
                     for tvec, i, dim in cells for tail, level, d in column]
        for tvec, i, dim in cells:
            key = (i, tvec)
            entries[key] = entries.get(key, 0) + dim
    return CohomologyTable(bundle, twist_box, entries)

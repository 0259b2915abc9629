"""Multigraded regularity for decomposable bundles.

Two definition families are implemented and kept strictly separate:

* "paper": vanishing of H^i at twists p + k where k runs over the box
  -n_j <= k_j <= 0 with k_1 + ... + k_s = -i, for every i >= 1.
* "hw": the two-factor variant asking vanishing at p + (j, k) with
  j + k = -i - 1 and j, k <= -1, for every i >= 1.

Reg is the least balanced p at which the bundle is regular.  Both
definitions are monotone (regular at p implies regular at p + 1), so the
irregular balanced twists are the union of the nonvanishing windows of the
required groups, and Reg is one past the largest point of that union.

Each definition, like each splitting check, is an offset family (i, k,
required).  A summand's facts depend on its integers only, so one memo,
summand_facts(space.dims, summand.key), keeps one record per summand: its
(index, lo, hi) windows per family, the checks' bits, Reg per definition
and the detector's tags, each filled on first use.  At offset k the windows
of all levels come from one sweep of the untwisted summand
S(k - (c, ..., c)), c = t_1 + k_1, shifted by -c.  The sweeps are memoized
on integers (_untwisted_windows), so summands and families that reach the
same untwisted summand share one.  reg is a max over the records.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Callable, Iterator, Union

from .bundles import ArityError, Bundle, Cotangent, Line, ModelError, Space, normalize_atom
from .cohomology import _support, _twist_vector, h_bundle, level_windows

DEFINITIONS = ("paper", "hw")


def box_offsets(
    space: Space, i: int, at_least: bool = False, interior: bool = False
) -> Iterator[tuple[int, ...]]:
    """Box vectors k with -n_j <= k_j <= 0 and sum -i, in lexicographic order.

    With at_least the sum may be anything from -i up to 0; with interior the
    box is open at the bottom, -n_j < k_j.  The "paper" definition uses the
    plain family; the splitting checks also use the other two.
    """
    ranges = [range(-n + 1 if interior else -n, 1) for n in space.dims]
    for k in itertools.product(*ranges):
        total = sum(k)
        if total == -i or (at_least and total > -i):
            yield k


def hw_offsets(space: Space, i: int) -> Iterator[tuple[int, int]]:
    if space.num_factors != 2:
        raise ArityError("the 'hw' definition is only defined on two-factor spaces")
    for j in range(-i, 0):
        yield (j, -i - 1 - j)


@lru_cache(maxsize=None)
def offsets(space: Space, family: Callable, r: int) -> tuple:
    """The offset family (i, k, required) for the space and rank r."""
    return tuple(family(space, r))


@lru_cache(maxsize=None)
def _untwisted_windows(factors: tuple) -> dict:
    """level_windows at offset 0 of the summand with factors (n_j, p_j, t_j):
    W^p_j(t_j) on P^n_j, or O(t_j) for p_j = 0.  Keyed on integers, with
    t_1 = 0 (summand_windows), so summands that differ by an offset or a
    diagonal twist share one sweep."""
    return level_windows(tuple(_support(*f) for f in factors), (0,) * len(factors))


class SummandFacts:
    """One summand's atoms, (n_j, p_j, t_j) as _untwisted_windows takes them,
    and its facts, filled on first use with the reader's space: windows per
    (family, r), bits per (family, r, twist), Reg per definition, tags."""

    __slots__ = ("atoms", "windows", "bits", "regs", "tags")

    def __init__(self, atoms: tuple):
        self.atoms, self.windows, self.bits, self.regs, self.tags = atoms, {}, {}, {}, None


@lru_cache(maxsize=None)
def summand_facts(dims: tuple, key: tuple) -> SummandFacts:
    """The record of the summand with this key, (0, 0, 2t) for O(t) and
    (1, 2p, 2t) for W^p(t) per atom, on the space with these dims."""
    atoms = []
    for n, kind, p, t in zip(dims, key[::3], key[1::3], key[2::3]):
        p, t = p // 2, t // 2
        if kind:  # normal form may turn W^p(t) into a line
            a = normalize_atom(n, Cotangent(p, t))
            p, t = (0, a.degree) if isinstance(a, Line) else (a.p, a.twist)
        atoms.append((n, p, t))
    return SummandFacts(tuple(atoms))


def summand_records(bundle: Bundle) -> list[SummandFacts]:
    """The record of each summand of the bundle, in order."""
    dims, records = bundle.space.dims, []
    for s in bundle.summands:  # a loop: cheaper than a comprehension before Python 3.12
        records.append(summand_facts(dims, s.key))
    return records


def summand_windows(space: Space, facts: SummandFacts, family: Callable, r: int) -> tuple:
    """(index, lo, hi) for each index of the family where the summand's
    window is nonempty, None for an unbounded end.  At offset k the summand
    has the windows of its twist by k - (c, ..., c), c = t_1 + k_1 its first
    twisted degree, shifted by -c: one _untwisted_windows per offset."""
    records = facts.windows.get((family, r))
    if records is None:
        levels: dict = {}
        records = []
        for index, (i, k, _) in enumerate(offsets(space, family, r)):
            if k not in levels:
                c = facts.atoms[0][2] + k[0]
                levels[k] = c, _untwisted_windows(tuple(
                    (n, p, t + kj - c) for (n, p, t), kj in zip(facts.atoms, k)))
            c, windows = levels[k]
            window = windows.get(i)
            if window is not None:
                lo, hi = window
                records.append((index, None if lo is None else lo - c,
                                None if hi is None else hi - c))
        records = facts.windows[family, r] = tuple(records)
    return records


def _paper_family(space: Space, r: int):
    return ((i, k, True) for i in range(1, space.total_dim + 1) for k in box_offsets(space, i))


def _hw_family(space: Space, r: int):
    return ((i, k, True) for i in range(1, space.total_dim + 1) for k in hw_offsets(space, i))


def _family(definition: str) -> Callable:
    """The groups H^i(E(p + k)) that must vanish for regularity at p."""
    if definition not in DEFINITIONS:
        raise ValueError(f"unknown regularity definition {definition!r}")
    return _paper_family if definition == "paper" else _hw_family


def _failures(bundle: Bundle, p: Union[int, tuple], definition: str) -> Iterator[tuple]:
    """Each (i, k, dim) with the required group nonzero at base twist p, lazily."""
    pv = _twist_vector(bundle.space, (p,) * bundle.space.num_factors if isinstance(p, int) else p)
    groups = ((i, k, h_bundle(bundle, tuple(a + b for a, b in zip(pv, k)), i))
              for i, k, _ in offsets(bundle.space, _family(definition), 0))
    return (group for group in groups if group[2])


def regularity_failures(
    bundle: Bundle, p: Union[int, tuple], definition: str = "paper"
) -> list[tuple[int, tuple[int, ...], int]]:
    """All (i, k, dim) with the required group nonzero at base twist p."""
    return list(_failures(bundle, p, definition))


def is_regular_at(bundle: Bundle, p: Union[int, tuple], definition: str = "paper") -> bool:
    return next(_failures(bundle, p, definition), None) is None


def _summand_reg(space: Space, facts: SummandFacts, definition: str) -> int:
    """Reg of one summand: one past the largest upper end of its windows."""
    if definition not in facts.regs:
        family = _family(definition)
        windows = summand_windows(space, facts, family, 0)
        for index, _, hi in windows:
            if hi is None:
                i, k, _ = offsets(space, family, 0)[index]
                raise ModelError(f"the window of H^{i} at offset {k} is unbounded above")
        facts.regs[definition] = 1 + max(hi for _, _, hi in windows)
    return facts.regs[definition]


def reg(bundle: Bundle, definition: str = "paper") -> int:
    """Least balanced twist at which the bundle is regular.

    Every required group with i >= 1 vanishes above its window: the window
    is finite for 0 < i < dim X and a downward ray at i = dim X.  Reg is one
    past the largest upper endpoint, whatever the size of the degrees.
    """
    value = None
    for f in summand_records(bundle):  # Reg read inline, filled where missing
        v = f.regs.get(definition)
        if v is None:
            v = _summand_reg(bundle.space, f, definition)
        if value is None or v > value:
            value = v
    return value

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
required).  A summand's record (cohomology.summand_facts) keeps its
(index, lo, hi) windows per family and its Reg per definition, filled on
first use.  A diagonal twist by c shifts both by -c, so a record with first
twist c != 0 reads those of its diagonal class, whose first twist is 0.  At
offset k its windows come from one sweep of S(k - (k_1, ..., k_1)), shifted
by -k_1, memoized on integers (_untwisted_windows) and shared by every
summand and family that reaches it.  reg is a max over the records.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Callable, Iterator, Union

from .bundles import ArityError, Bundle, ModelError, Space
from .cohomology import (SummandFacts, _support, _twist_vector, diagonal_class, h_bundle,
                         level_windows, summand_records)

DEFINITIONS = ("paper", "hw")


def box_offsets(space: Space) -> tuple:
    """The box vectors k with -n_j <= k_j <= 0, in lexicographic order.  The
    "paper" definition and the splitting checks' families filter them."""
    return tuple(itertools.product(*[range(-n, 1) for n in space.dims]))


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


def summand_windows(space: Space, facts: SummandFacts, family: Callable, r: int) -> tuple:
    """(index, lo, hi) for each index of the family where the summand's
    window is nonempty, None for an unbounded end.  A record with first twist
    c != 0 shifts those of its diagonal class by -c; only one with first twist
    0 sweeps, at offset k one _untwisted_windows of its twist by k - k_1."""
    records = facts.windows.get((family, r))
    if records is None:
        c, records = facts.atoms[0][2], []
        if c:
            for index, lo, hi in summand_windows(space, diagonal_class(facts), family, r):
                records.append((index, None if lo is None else lo - c,
                                None if hi is None else hi - c))
        else:
            levels = {}
            for index, (i, k, _) in enumerate(offsets(space, family, r)):
                if k not in levels:
                    levels[k] = _untwisted_windows(tuple(
                        (n, p, t + kj - k[0]) for (n, p, t), kj in zip(facts.atoms, k)))
                if i in levels[k]:
                    lo, hi = levels[k][i]
                    records.append((index, None if lo is None else lo - k[0],
                                    None if hi is None else hi - k[0]))
        records = facts.windows[family, r] = tuple(records)
    return records


def _paper_family(space: Space, r: int):
    """Box offsets with sum exactly -i, for 1 <= i <= dim X."""
    box = box_offsets(space)
    return ((i, k, True) for i in range(1, space.total_dim + 1) for k in box if sum(k) == -i)


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
    """Reg of one summand: one past the largest upper end of its windows,
    or for first twist c not 0, the Reg of its diagonal class minus c."""
    if definition not in facts.regs:
        c = facts.atoms[0][2]
        if c:
            facts.regs[definition] = _summand_reg(space, diagonal_class(facts), definition) - c
        else:
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

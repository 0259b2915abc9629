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
required).  A diagonal twist by c shifts every window by -c, so the
(index, lo, hi) windows per family are memoized once per diagonal class, on
the atoms twisted to first twist 0 (_class_windows); a summand with first
twist c reads them at t + c, and its Reg, kept in its record
(cohomology.summand_facts), is the class's minus c.  At offset k a class's
windows come from one sweep of S(k - (k_1, ..., k_1)), shifted by -k_1,
memoized on integers too (_untwisted_windows) and shared by every summand
and family that reaches it.  reg is a max over the records.

Regularity at p = (p_1, ..., p_s), or at an int p read as (p, ..., p), is
membership in the same windows: H^i(S(p + k)) is H^i of the summand
S(p - (p_1, ..., p_1)) at the balanced twist p_1 and offset k, so a required
group is nonzero at p exactly when the diagonal class of some summand's twist
by p - (p_1, ..., p_1), made of integers and not a record, holds p_1 plus
the summand's first twist in its window there.  h_bundle runs only to give
the dimensions of the groups reported (regularity_failures).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Callable, Iterator, Union

from .bundles import ArityError, Bundle, ModelError, Space
from .cohomology import (SummandFacts, _support, _twist_vector, h_bundle, level_windows,
                         summand_records)

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
    t_1 = 0 (_class_windows), so summands that differ by an offset or a
    diagonal twist share one sweep."""
    return level_windows(tuple(_support(*f) for f in factors), (0,) * len(factors))


@lru_cache(maxsize=None)
def _class_windows(space: Space, factors: tuple, family: Callable, r: int) -> tuple:
    """(index, lo, hi) for each index of the family where the window of the
    summand with factors (n_j, p_j, t_j), t_1 = 0, is nonempty, None for an
    unbounded end: at offset k one _untwisted_windows, shifted by -k_1."""
    levels, windows = {}, []
    for index, (i, k, _) in enumerate(offsets(space, family, r)):
        if k not in levels:
            levels[k] = _untwisted_windows(tuple(
                (n, p, t + kj - k[0]) for (n, p, t), kj in zip(factors, k)))
        if i in levels[k]:
            lo, hi = levels[k][i]
            windows.append((index, None if lo is None else lo - k[0],
                            None if hi is None else hi - k[0]))
    return tuple(windows)


def summand_windows(space: Space, atoms: tuple, family: Callable, r: int) -> tuple:
    """The _class_windows of the diagonal class of the summand with atoms
    (n_j, p_j, t_j), its twist by -t_1: the summand's own windows, read at
    t + t_1 with no shifted copy made."""
    c = atoms[0][2]
    if c:
        factors = []
        for n, p, t in atoms:  # a loop: cheaper than a comprehension before Python 3.12
            factors.append((n, p, t - c))
        atoms = tuple(factors)
    return _class_windows(space, atoms, family, r)


def _unbounded(space: Space, family: Callable, r: int, index: int, end: str) -> ModelError:
    """The error for the family's window at index, unbounded at end ("below" or "above")."""
    i, k, _ = offsets(space, family, r)[index]
    return ModelError(f"the window of H^{i} at offset {k} is unbounded {end}")


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


def _nonzero(bundle: Bundle, p: Union[int, tuple], definition: str) -> tuple[tuple, list]:
    """p as a twist vector, and the (i, k) of each required group nonzero
    at base twist p, in family order: the indexes where some summand, twisted
    by q = p - (p_1, ..., p_1), has a diagonal class whose window holds p_1
    plus the summand's first twist."""
    space = bundle.space
    pv = _twist_vector(space, (p,) * space.num_factors if isinstance(p, int) else p)
    family = _family(definition)
    groups, q, held = offsets(space, family, 0), [pj - pv[0] for pj in pv], set()
    for f in summand_records(bundle):
        atoms = tuple([(n, e, t + qj) for (n, e, t), qj in zip(f.atoms, q)]) if any(q) else f.atoms
        t = pv[0] + f.atoms[0][2]  # q_1 = 0: the first twist stays
        for index, lo, hi in summand_windows(space, atoms, family, 0):
            if (lo is None or lo <= t) and (hi is None or t <= hi):
                held.add(index)
    return pv, [groups[index][:2] for index in sorted(held)]


def regularity_failures(
    bundle: Bundle, p: Union[int, tuple], definition: str = "paper"
) -> list[tuple[int, tuple[int, ...], int]]:
    """All (i, k, dim) with the required group nonzero at base twist p, in
    family order: one h_bundle call per group, for its dimension."""
    pv, groups = _nonzero(bundle, p, definition)
    return [(i, k, h_bundle(bundle, tuple(a + b for a, b in zip(pv, k)), i)) for i, k in groups]


def is_regular_at(bundle: Bundle, p: Union[int, tuple], definition: str = "paper") -> bool:
    """Whether every required group vanishes at base twist p: whether no
    summand's window holds it, with no h_bundle call."""
    return not _nonzero(bundle, p, definition)[1]


def _summand_reg(space: Space, facts: SummandFacts, definition: str) -> int:
    """Reg of one summand, kept in its record: one past the largest upper
    end of its diagonal class's windows, minus its first twist."""
    if definition not in facts.regs:
        family = _family(definition)
        windows = summand_windows(space, facts.atoms, family, 0)
        for index, _, hi in windows:
            if hi is None:
                raise _unbounded(space, family, 0, index, "above")
        facts.regs[definition] = 1 + max(hi for _, _, hi in windows) - facts.atoms[0][2]
    return facts.regs[definition]


def reg(bundle: Bundle, definition: str = "paper") -> int:
    """Least balanced twist at which the bundle is regular.

    Every required group with i >= 1 vanishes above its window: the window
    is finite for 0 < i < dim X and a downward ray at i = dim X.  Reg is one
    past the largest upper endpoint, whatever the size of the degrees: the
    max over the summands of _summand_reg, which keeps each in its record.
    """
    return max([_summand_reg(bundle.space, f, definition) for f in summand_records(bundle)])

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
(index, lo, hi) windows per family are memoized once per diagonal class,
keyed on the class a record carries (SummandFacts.diagonal, the atoms
twisted to first twist 0; _class_windows).  At offset k a class's windows
come from one sweep of S(k - (k_1, ..., k_1)), shifted by -k_1, memoized on
integers too (_untwisted_windows) and shared by every summand and family
that reaches it.  The memoized family (offsets) carries its plan
(Offsets): the shift k - (k_1, ..., k_1) once per distinct offset, and per
group its level, the slot of its offset and k_1, so a class reads one sweep
per distinct offset and walks no offset twice.  One reader, holding,
answers every window question of a record at a balanced twist t, reading
its class at t + c for a summand with first twist c: which windows hold t,
or where each starts; the splitting checks ask it too.  A summand's Reg, kept in its record, is its class's
minus c, and reg is a max over the records.

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
from typing import Callable, Iterator, Optional, Union

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


class Offsets(tuple):
    """An offset family, the (i, k, required) of each group in family order,
    with its plan for the windows of a class (_class_windows): shifts holds
    k - (k_1, ..., k_1) once per distinct offset k, in first-seen order, and
    entries the (index, i, slot, k_1) of each group, slot the position of its
    k in shifts."""

    shifts: tuple
    entries: tuple


@lru_cache(maxsize=None)
def offsets(space: Space, family: Callable, r: int) -> Offsets:
    """The offset family (i, k, required) for the space and rank r, planned."""
    groups, slots = Offsets(family(space, r)), {}
    groups.entries = tuple([(index, i, slots.setdefault(k, len(slots)), k[0])
                            for index, (i, k, _) in enumerate(groups)])
    groups.shifts = tuple([tuple([kj - k[0] for kj in k]) for k in slots])
    return groups


@lru_cache(maxsize=None)
def _untwisted_windows(factors: tuple) -> dict:
    """level_windows at offset 0 of the summand with factors (n_j, p_j, t_j):
    W^p_j(t_j) on P^n_j, or O(t_j) for p_j = 0.  Keyed on integers, with
    t_1 = 0 (_class_windows), so summands that differ by an offset or a
    diagonal twist share one sweep."""
    return level_windows(tuple(_support(*f) for f in factors))


@lru_cache(maxsize=None)
def _class_windows(space: Space, factors: tuple, family: Callable, r: int) -> tuple:
    """(index, lo, hi) for each index of the family where the window of the
    summand with factors (n_j, p_j, t_j), t_1 = 0, is nonempty, None for an
    unbounded end: at offset k one _untwisted_windows, shifted by -k_1, read
    once per distinct k (Offsets.shifts)."""
    groups = offsets(space, family, r)
    levels = [_untwisted_windows(tuple([(n, p, t + d) for (n, p, t), d in zip(factors, shift)]))
              for shift in groups.shifts]
    windows = []
    for index, i, slot, k1 in groups.entries:
        window = levels[slot].get(i)
        if window is not None:
            lo, hi = window
            windows.append((index, None if lo is None else lo - k1,
                            None if hi is None else hi - k1))
    return tuple(windows)


def holding(space: Space, facts: SummandFacts, family: Callable, r: int,
            t: Optional[int], q: Optional[list] = None) -> list:
    """The (index, twist) of each window of the family that the summand's
    diagonal class (facts.diagonal, or its twist by q, q_1 = 0) has, read
    at t plus the summand's first twist c: those that hold the balanced
    twist t, each at t, or with t None every window at its least twist
    lo - c.  A window unbounded below has no least twist: ModelError."""
    c, diagonal = facts.atoms[0][2], facts.diagonal
    if q is not None:
        diagonal = tuple([(n, p, d + qj) for (n, p, d), qj in zip(diagonal, q)])
    windows = _class_windows(space, diagonal, family, r)
    if t is None:
        least = []
        for index, lo, _ in windows:
            if lo is None:
                i, k, _ = offsets(space, family, r)[index]
                raise ModelError(f"the window of H^{i} at offset {k} is unbounded below")
            least.append((index, lo - c))
        return least
    u = t + c
    return [(index, t) for index, lo, hi in windows
            if (lo is None or lo <= u) and (hi is None or u <= hi)]


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
    at base twist p, in family order: the indexes where the diagonal class
    of some summand twisted by q = p - (p_1, ..., p_1) holds p_1 (holding)."""
    space = bundle.space
    pv = _twist_vector(space, (p,) * space.num_factors if isinstance(p, int) else p)
    family = _family(definition)
    groups, q, held = offsets(space, family, 0), [pj - pv[0] for pj in pv], set()
    for f in summand_records(bundle):
        for index, _ in holding(space, f, family, 0, pv[0], q if any(q) else None):
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
    end of its diagonal class's windows, minus its first twist.  Every
    window has an upper end: every family has i >= 1, so at each of its
    groups some factor sits at a level above 0, whose range is bounded above
    (only level 0 holds at every large twist)."""
    if definition not in facts.regs:
        windows = _class_windows(space, facts.diagonal, _family(definition), 0)
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

"""Splitting criteria: vanishing conditions, structural forms, and the
extremal-summand detector.

Each check id pairs a cohomological condition with a structural form; the
checks are rows of one table, CHECKS, read by one evaluator.  A summand is
read only through its record (cohomology.summand_facts, one per sheaf), so
a bundle gets the verdict of its sheaf however its atoms are written.  The
condition is an AND of one bit per summand and the witnesses are built when
read, both from the windows that regularity.holding says the summand's
diagonal class has at the twist, or at some twist; no bit is kept, and the
witnesses take dimensions from h_bundle.  The forms and the detector
(the summands' tags) read only the records.
verify_bundle is one straight-line pass per bundle that reads the records
and the rank first, computes the Reg gate and the detection at most once
each and builds one TheoremVerdict per check id.  summand_mask packs a
summand's bits for the checks that fold (CheckSpec.spread) and one pair for
the Reg gate into one int in its record, so the enumeration harness decides
those from the OR of a bundle's masks alone; mask_checks decodes it into
the folded checks that report a finding, the one statement of when a
folded check agrees, and only these two know the layout.  applicability and condition_for read the verdict of
verify_theorem.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property, partial
from typing import Callable, Iterable, Iterator, Optional

from .bundles import (
    ArityError,
    BoxSummand,
    Bundle,
    Cotangent,
    Line,
    ModelError,
    Space,
    format_summand,
    line_summand,
    make_bundle,
    make_summand,
    rank,
)
from .cohomology import (MAX_TABLE_TWISTS, SummandFacts, _summand_group, h_bundle,
                         summand_facts, summand_records)
from .regularity import _summand_reg, box_offsets, holding, offsets, reg


class TheoremId(str, Enum):
    T1 = "T1"
    T2 = "T2"
    C1 = "C1"
    C2 = "C2"
    T0 = "T0"
    P4 = "P4"
    T3 = "T3"
    T2B = "T2B"
    T4 = "T4"
    P4B = "P4B"

    # each name is its value, so this is Enum's hash (of the name) without a Python call
    __hash__ = str.__hash__


class PreconditionError(ModelError):
    pass


@dataclass(frozen=True)
class Witness:
    """One nonvanishing group H^i(E(t,...,t) tensor O(k)) with its dimension."""

    i: int
    k: tuple[int, ...]
    t: int
    dim: int
    required: bool = True

    def to_json(self) -> dict:
        """The witness as JSON; the dimension is a decimal string."""
        return {"i": self.i, "k": list(self.k), "t": self.t, "dim": str(self.dim),
                "required": self.required}


def _witnesses(bundle: Bundle, family: Callable, r: int, twist: Optional[int]) -> list[Witness]:
    """One witness per group of the family that some summand makes nonzero
    (regularity.holding): at the twist, or with twist None at the least
    twist where some summand's window starts; dimension h_bundle there.
    Preconditions are not checked."""
    space, starts = bundle.space, {}
    for f in summand_records(bundle):
        for index, t in holding(space, f, family, r, twist):
            starts[index] = min(t, starts.get(index, t))
    groups, found = offsets(space, family, r), []
    for index in sorted(starts):
        i, k, required = groups[index]
        t = starts[index]
        found.append(Witness(i, k, t, h_bundle(bundle, tuple(t + kj for kj in k), i), required))
    return found


# ---------------------------------------------------------------------------
# ACM


def acm_witnesses(bundle: Bundle) -> list[Witness]:
    """The nonvanishing intermediate groups H^i, 0 < i < dim X, one per i at
    the least balanced twist where H^i is nonzero."""
    return _witnesses(bundle, _acm_family, 0, None)  # the family ignores the rank


def is_acm(bundle: Bundle) -> bool:
    """True when every intermediate cohomology group vanishes for all
    balanced twists: no summand has a window in the family."""
    return not any([_summand_fails(bundle.space, f, _acm_family, 0, None)  # every bit is read
                    for f in summand_records(bundle)])


def acm_printed_variant_line(space: Space, degrees: Iterable[int], variant: str) -> bool:
    """Published closed-form variants, kept verbatim for comparison runs."""
    a = tuple(degrees)
    if len(a) != space.num_factors:
        raise ArityError("degree vector length does not match the space")
    if variant == "b2":
        if space.num_factors != 2:
            raise ArityError("variant 'b2' is a two-factor statement")
        n, m = space.dims
        return (a[0] - a[1] >= -m) and (a[1] - a[0] >= -n)
    if variant == "b3":
        idx = range(space.num_factors)
        for j in idx:
            if not any(a[j] - a[h] <= space.dims[h] for h in idx if h != j):
                return False
            if not any(a[j] - a[k] >= -space.dims[j] for k in idx if k != j):
                return False
        return True
    raise ValueError(f"unknown variant {variant!r}")


def acm_discrepancy(space: Space, degree_range: tuple[int, int], variant: str) -> list[dict]:
    """Degree vectors where the variant formula disagrees with the engine.
    An empty degree range, or a grid of more than MAX_TABLE_TWISTS vectors,
    is refused."""
    lo, hi = degree_range
    if lo > hi:
        raise ModelError(f"empty degree range {lo}..{hi}")
    if (hi - lo + 1) ** space.num_factors > MAX_TABLE_TWISTS:
        raise ModelError(f"degree grid has more than {MAX_TABLE_TWISTS} vectors")
    out = []
    for a in itertools.product(range(lo, hi + 1), repeat=space.num_factors):
        truth = is_acm(make_bundle(space, [line_summand(space, a)]))
        claimed = acm_printed_variant_line(space, a, variant)
        if truth != claimed:
            out.append({"degrees": a, "acm": truth, "variant": claimed})
    return out


# ---------------------------------------------------------------------------
# offset families: (i, k, required) for a space and the bundle's rank


def _acm_family(space: Space, r: int):
    """The zero offset, for 0 < i < dim X."""
    return ((i, (0,) * space.num_factors, True) for i in range(1, space.total_dim))


def _exact_family(space: Space, r: int):
    """Box offsets with sum exactly -i, for 0 < i < dim X."""
    box = box_offsets(space)
    return ((i, k, True) for i in range(1, space.total_dim) for k in box if sum(k) == -i)


def _step_family(space: Space, r: int):
    """Box offsets with sum in [-i, 0], for 0 < i < dim X, except the corner
    offsets whose coordinates all lie in {0, -n_j}; the zero offset stays in."""
    box = [k for k in box_offsets(space)
           if not any(k) or not all(kj in (0, -n) for kj, n in zip(k, space.dims))]
    return ((i, k, True) for i in range(1, space.total_dim) for k in box if sum(k) >= -i)


def _interior_family(space: Space, r: int):
    """Strict-interior offsets -n_j < k_j <= 0 with sum at least -i, for
    i below min(rank, dim X)."""
    box = [k for k in box_offsets(space) if all(kj > -n for kj, n in zip(k, space.dims))]
    return ((i, k, True) for i in range(1, min(r, space.total_dim)) for k in box if sum(k) >= -i)


def _boundary_family(space: Space, r: int):
    """The interior family, then the two-factor boundary family: offsets with
    sum -i touching k_1 = -n or k_2 = -m, for 0 < i < dim X.  Groups at i = n
    or i = m are informational only."""
    yield from _interior_family(space, r)
    n, m = space.dims
    for i, k, _ in _exact_family(space, r):
        if k[0] == -n or k[1] == -m:
            yield i, k, i != n and i != m


def _first_cohomology_family(space: Space, r: int):
    """H^1 at the zero offset and one step down in each factor."""
    s = space.num_factors
    yield 1, (0,) * s, True
    for j in range(s):
        yield 1, tuple(-1 if h == j else 0 for h in range(s)), True


# rank rules: None when the rule holds, otherwise the reason


def _rank_below_dim(space: Space, r: int) -> Optional[str]:
    d = space.total_dim
    return f"rank {r} is not below dim X = {d}" if r >= d else None


def _rank_below_min_factor(space: Space, r: int) -> Optional[str]:
    n = min(space.dims)
    return f"rank {r} is not below min factor dimension {n}" if r >= n else None


def _rank_two_on_large_factors(space: Space, r: int) -> Optional[str]:
    if any(n <= 2 for n in space.dims):
        return "every factor must have dimension greater than 2"
    if r != 2:
        return f"rank must be 2, got {r}"
    return None


# ---------------------------------------------------------------------------
# structural forms


def _beyond(facts: SummandFacts, spread: int) -> bool:
    """The summand is not a line whose degrees differ by at most spread."""
    return facts.spread is None or facts.spread > spread


def _lines_within(records: list, spread: int) -> bool:
    """Every summand a line whose degrees differ by at most spread: balanced
    lines for spread 0, step lines for spread 1.  Read off the records."""
    for f in records:  # a loop: cheaper than all() over a generator
        if _beyond(f, spread):
            return False
    return True


def _top_corners(space: Space) -> Iterator[tuple[int, ...]]:
    """Corner vectors 0 <= h_j <= n_j with h_j = n_j on at least one factor."""
    corners = itertools.product(*[range(0, n + 1) for n in space.dims])
    return (h for h in corners if any(hj == n for hj, n in zip(h, space.dims)))


def _corner_summand(space: Space, h: tuple[int, ...]) -> BoxSummand:
    """O where h_j = n_j, O(1) where h_j = 0, W^h_j(h_j + 1) in between."""
    atoms = [Line(0) if hj == n else Line(1) if hj == 0 else Cotangent(hj, hj + 1)
             for hj, n in zip(h, space.dims)]
    return make_summand(space, atoms)


def _has_extremal_summand(records: list) -> bool:
    """Some summand is on the extremal menu: every atom O, O(1) or
    W^a(a+1), with O on at least one factor.  Those are the corner summands
    (h_j = n_j, 0 or a on factor j), so the menu itself is not built."""
    for f in records:
        pairs = [(p, t) for _, p, t in f.atoms]
        if (0, 0) in pairs and all(t == p + 1 if p else t in (0, 1) for p, t in pairs):
            return True
    return False


def _line_pair(records: list, menu: Callable[[tuple], bool]) -> bool:
    """Two line summands, one with degrees on the menu and the other with
    nonnegative degrees."""
    if len(records) != 2 or any(f.spread is None for f in records):
        return False
    degrees = [tuple(t for _, _, t in f.atoms) for f in records]
    return any(menu(first) and min(second) >= 0 for first, second in (degrees, degrees[::-1]))


def _p4_menu(d: tuple) -> bool:
    return not any(d) or d in ((0, 1), (1, 0))


def _p4b_menu(d: tuple) -> bool:
    """Every 0/1 degree vector except all ones."""
    return set(d) <= {0, 1} and 0 in d


def classify_form(bundle: Bundle, theorem: TheoremId) -> bool:
    """Does the canonical form match the structure the check id predicts?"""
    return CHECKS[TheoremId(theorem)].form(summand_records(bundle))


# ---------------------------------------------------------------------------
# the checks


@dataclass(frozen=True)
class CheckSpec:
    """One check id: the condition is the vanishing of every group of the
    offset family at the fixed balanced twist, or at every balanced twist
    when twist is None.  Preconditions: two factors, rank rule, Reg = 0."""

    family: Callable[[Space, int], Iterator[tuple[int, tuple[int, ...], bool]]]
    form: Callable[[list], bool]  # reads the summands' records
    twist: Optional[int] = None
    two_factor: bool = False
    rank_rule: Optional[Callable[[Space, int], Optional[str]]] = None
    reg_zero: bool = False
    detector: bool = False  # cross-check the verdict with the extremal detector
    acm_crosscheck: bool = False  # the condition should force ACM; only on a check that folds
    # whether the family reads the rank; the others are read, and their
    # windows, bits and witnesses kept, at rank 0 for every bundle
    reads_rank: bool = field(init=False)
    # the bound of a line-spread form when the check folds: with no rank
    # rule, Reg gate or detector and a rank-free family, the condition, the
    # form and the ACM cross-check each fail by an OR of summand bits
    # (summand_mask); None for the other checks
    spread: Optional[int] = field(init=False)

    def __post_init__(self):
        reads_rank = self.family in (_interior_family, _boundary_family)
        folds = (getattr(self.form, "func", None) is _lines_within and self.rank_rule is None
                 and not (self.reg_zero or self.detector or reads_rank))
        object.__setattr__(self, "reads_rank", reads_rank)
        object.__setattr__(self, "spread", self.form.keywords["spread"] if folds else None)


_T3 = CheckSpec(_exact_family, partial(_lines_within, spread=0), acm_crosscheck=True)
_T2B = CheckSpec(_step_family, partial(_lines_within, spread=1))
_T4 = CheckSpec(_interior_family, _has_extremal_summand, reg_zero=True, detector=True)
_P4B = CheckSpec(_first_cohomology_family, partial(_line_pair, menu=_p4b_menu), twist=0,
                 rank_rule=_rank_two_on_large_factors, reg_zero=True)

# The two-factor checks restrict the any-factor ones.  C2 reads T4's interior
# family, which under C2's rank bound is the family C2 states; C1 reads that
# family plus the boundary family; T0 reads it at the fixed twist -1.  P4 is
# P4B with its own form menu.
CHECKS: dict[TheoremId, CheckSpec] = {
    TheoremId.T1: replace(_T3, two_factor=True),
    TheoremId.T2: replace(_T2B, two_factor=True),
    TheoremId.C1: replace(_T2B, two_factor=True, family=_boundary_family,
                          rank_rule=_rank_below_dim),
    TheoremId.C2: replace(_T2B, two_factor=True, family=_interior_family,
                          rank_rule=_rank_below_min_factor),
    TheoremId.T0: replace(_T4, two_factor=True, twist=-1),
    TheoremId.P4: replace(_P4B, two_factor=True, form=partial(_line_pair, menu=_p4_menu)),
    TheoremId.T3: _T3,
    TheoremId.T2B: _T2B,
    TheoremId.T4: _T4,
    TheoremId.P4B: _P4B,
}


def applicability(bundle: Bundle, theorem: TheoremId) -> Optional[str]:
    """None when the check applies; otherwise a human-readable reason."""
    return verify_theorem(bundle, theorem).reason


def _summand_fails(space: Space, facts: SummandFacts, family: Callable, r: int,
                   twist: Optional[int]) -> bool:
    """Does the summand make a required group of the family nonzero, at the
    twist or, with twist None, at some balanced twist?  A plain read, kept
    nowhere, of the windows of its diagonal class (regularity.holding).
    With twist None, a window unbounded below raises ModelError."""
    held = holding(space, facts, family, r, twist)
    if not held:
        return False
    groups = offsets(space, family, r)
    return any([groups[index][2] for index, _ in held])


def summand_mask(space: Space, facts: SummandFacts, key: tuple) -> int:
    """The summand's bits for key, check ids that apply on the space (those
    that fold, then those with the Reg gate), stored in the record on a
    miss: three per folded id in key order, then one Reg pair if key has a
    gated id.  A folded check's are set when its condition fails
    (_summand_fails), when its form fails (_beyond) and, if the condition
    should force ACM and holds, on an ACM window.  The Reg pair is set when
    the summand's Reg is above 0 and when it is 0.  Each record fills its
    own bits, off the windows its diagonal class shares, in one pass over
    the key."""
    mask = facts.masks.get(key)
    if mask is None:
        mask = shift = 0
        for theorem in key:
            spec = CHECKS[theorem]
            if spec.spread is None:  # the Reg pair, after the folded ids
                value = _summand_reg(space, facts, "paper")
                mask |= ((value > 0) | (value == 0) << 1) << shift
                break
            fails = _summand_fails(space, facts, spec.family, 0, spec.twist)
            window = spec.acm_crosscheck and not fails and _summand_fails(
                space, facts, _acm_family, 0, None)
            mask |= (fails | _beyond(facts, spec.spread) << 1 | window << 2) << shift
            shift += 3
        facts.masks[key] = mask
    return mask


def mask_checks(key: tuple, mask: int) -> tuple[dict, bool]:
    """Decode mask, the OR of a bundle's summand masks for key
    (summand_mask), as (findings, Reg is 0).  findings maps each folded id
    of key that reports a finding to its (condition, form, window): whether
    the condition holds, whether the form holds and whether some summand
    has an ACM window, which is not is_acm(bundle) when the condition
    holds.  A folded id agrees, and is absent, when its condition and form
    hold together and a condition that holds meets no ACM window; this is
    the one place that states the rule.  Reg(E + F) = max(Reg E, Reg F),
    so Reg is 0 when no summand has Reg above 0 and some has Reg 0; with no
    gated id in key, it reads True."""
    findings, regular = {}, True
    for theorem in key:
        if CHECKS[theorem].spread is None:  # the Reg pair, after the folded ids
            regular = mask == 2
            break
        condition, form, window = not mask & 1, not mask & 2, bool(mask & 4)
        if condition != form or condition and window:
            findings[theorem] = condition, form, window
        mask >>= 3
    return findings, regular


def condition_for(bundle: Bundle, theorem: TheoremId) -> tuple[bool, list[Witness]]:
    """Evaluate the check's vanishing condition.  A failed precondition
    raises ArityError (two-factor checks) or PreconditionError, with the
    reason applicability gives."""
    verdict = verify_theorem(bundle, theorem)
    if not verdict.applicable:
        two_factor = CHECKS[verdict.theorem].two_factor and bundle.space.num_factors != 2
        raise (ArityError if two_factor else PreconditionError)(verdict.reason)
    return verdict.condition_holds, list(verdict.witnesses)


# ---------------------------------------------------------------------------
# extremal detector


@dataclass(frozen=True)
class SummandTag:
    label: str
    corner: tuple[int, ...]
    summand: BoxSummand


def _tag_label(space: Space, h: tuple[int, ...], summand: BoxSummand) -> str:
    if h == space.dims:
        return "Triv"
    if space.num_factors == 2:
        n, m = space.dims
        if h == (n, 0):
            return "E01"
        if h == (0, m):
            return "E10"
        if h[0] == n:
            return f"CotSecond({h[1]})"
        if h[1] == m:
            return f"CotFirst({h[0]})"
    return f"GeneralBox[{format_summand(space, summand)}]"


def _summand_tags(space: Space, facts: SummandFacts) -> tuple[SummandTag, ...]:
    """One tag per top corner h where the summand has H^|h| nonzero at
    -1-h, in _top_corners order."""
    if facts.tags is None:
        tags = []
        for h in _top_corners(space):
            group = _summand_group(facts.atoms, tuple(-1 - hj for hj in h))
            if group is not None and group[0] == sum(h):
                s = _corner_summand(space, h)
                tags.append(SummandTag(_tag_label(space, h, s), h, s))
        facts.tags = tuple(tags)
    return facts.tags


def detect_extremal_summand(bundle: Bundle, reg_value: Optional[int] = None) -> list[SummandTag]:
    """Probe the corner groups of E(-1,...,-1) and name the summand each
    nonzero probe forces.  Requires Reg = 0; a caller that already knows Reg
    passes it as reg_value instead of having it computed again.  Dimensions
    are positive, so a corner group of the sum is nonzero exactly when it is
    for some summand: the tags are the union of the summands' tags, in
    corner order (_top_corners is lexicographic)."""
    reg_value = reg(bundle) if reg_value is None else reg_value
    if reg_value != 0:
        raise PreconditionError(f"detector needs Reg = 0, got {reg_value}")
    space = bundle.space
    tags = {tag.corner: tag for f in summand_records(bundle) for tag in _summand_tags(space, f)}
    return [tags[h] for h in sorted(tags)]


# ---------------------------------------------------------------------------
# verdicts

_UNREAD = object()


@dataclass(frozen=True)
class TheoremVerdict:
    theorem: TheoremId
    applicable: bool
    reason: Optional[str] = None
    condition_holds: Optional[bool] = None
    form_holds: Optional[bool] = None
    consistent: Optional[bool] = None
    detected: tuple = ()
    detector_agrees: Optional[bool] = None
    bundle: Optional[Bundle] = field(default=None, repr=False)

    @cached_property
    def witnesses(self) -> tuple:
        """The condition_for witnesses, built on first read, at the bundle's
        rank for a family that reads it."""
        if not self.applicable:
            return ()
        spec = CHECKS[self.theorem]
        r = rank(self.bundle) if spec.reads_rank else 0
        return tuple(_witnesses(self.bundle, spec.family, r, spec.twist))


def verify_bundle(bundle: Bundle, ids: Iterable[TheoremId]) -> list[TheoremVerdict]:
    """The verdicts of the check ids (TheoremId members) on the bundle, in
    order, from one pass.  The summands' records and the rank are read
    first, so an empty bundle is refused whatever the checks.  The
    preconditions are checked in order: two factors, the rank rule, Reg = 0;
    the first that fails is the reason of a verdict that does not apply.
    The Reg gate and the detection are computed at most once each, when a
    check first needs them.  The condition is the AND of the summands'
    bits, read off their classes' windows (_summand_fails); the form reads
    the records."""
    space, verdicts = bundle.space, []
    records, r = summand_records(bundle), rank(bundle)
    detection = None
    gate = _UNREAD  # the Reg gate's reason, None when Reg is 0
    for theorem in ids:
        spec, reason = CHECKS[theorem], None
        if spec.two_factor and space.num_factors != 2:
            reason = f"{theorem.value} is a two-factor check, space has {space.num_factors} factors"
        else:
            if spec.rank_rule is not None:
                reason = spec.rank_rule(space, r)
            if reason is None and spec.reg_zero:
                if gate is _UNREAD:  # one read per bundle: its reason is every gated reason
                    value = reg(bundle)
                    gate = f"Reg must be 0, got {value}" if value else None
                reason = gate
        if reason is not None:
            verdicts.append(TheoremVerdict(theorem, False, reason))
            continue
        r_family = r if spec.reads_rank else 0
        cond = not any([_summand_fails(space, f, spec.family, r_family, spec.twist)
                        for f in records])  # every bit is read: a window unbounded below raises
        form, detected, agrees = spec.form(records), (), None
        if spec.detector:  # Reg = 0: the gate has just passed
            if detection is None:  # the tags; has the bundle every tagged summand (by record)?
                detected = tuple(detect_extremal_summand(bundle, reg_value=0))
                held = set(records)
                agrees = all(summand_facts(space.dims, t.summand.key) in held
                             for t in detected) if detected else None
                detection = detected, agrees
            detected, agrees = detection
        verdicts.append(TheoremVerdict(theorem, True, None, cond, form, cond == form, detected,
                                       agrees, bundle))
    return verdicts


def verify_theorem(bundle: Bundle, theorem: TheoremId) -> TheoremVerdict:
    return verify_bundle(bundle, (TheoremId(theorem),))[0]

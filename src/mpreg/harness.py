"""Enumeration harness: generate families of bundles, run the splitting
checks over them, and aggregate agreement statistics.  The checks that
fold are decided per bundle from the OR of its summands' masks; rows come
from verdict_rows for the other checks and for bundles with a finding."""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from math import prod
from typing import Iterable

from .bundles import (
    ArityError,
    Bundle,
    Cotangent,
    Line,
    ModelError,
    ParseError,
    Space,
    _summand_key,
    format_bundle,
    format_space,
    make_summand,
    parse_space,
)
from .cohomology import summand_facts
from .regularity import is_regular_at
from .splitting import (CHECKS, TheoremId, is_acm, mask_consistent, row_verdict, summand_mask,
                        verdict_rows)

ALL_THEOREMS = tuple(t.value for t in TheoremId)


class ConfigError(ModelError):
    pass


MAX_BUNDLES = 10**7  # bundles in one run, over all its spaces; a larger family is refused


def _multisets(n: int, k: int, cap: int) -> int:
    """Multisets of 1 to k items of n kinds: the sum over j of
    C(n + j - 1, j), which is C(n + k, k) - 1.  The product runs over
    min(n, k) factors and stops once past cap, returning a value past cap."""
    c = 1
    for j in range(1, min(n, k) + 1):
        c = c * (max(n, k) + j) // j
        if c > cap + 1:
            break
    return c - 1


@dataclass(frozen=True)
class EnumerationConfig:
    spaces: tuple[str, ...]
    degree_min: int = -2
    degree_max: int = 2
    cotangent: bool = False
    cot_twist_min: int = -2
    cot_twist_max: int = 2
    max_summands: int = 2
    theorems: tuple[str, ...] = ALL_THEOREMS
    jobs: int = 1  # only 1; kept because the benchmark (perfbench/workloads.py) passes jobs=1

    def __post_init__(self):
        if self.degree_min > self.degree_max:
            raise ConfigError("empty degree range")
        if self.cot_twist_min > self.cot_twist_max:
            raise ConfigError("empty cotangent twist range")
        if self.max_summands < 1:
            raise ConfigError("max_summands must be at least 1")
        if self.jobs != 1:
            raise ConfigError(f"jobs must be 1, got {self.jobs}: parallel runs were removed")
        for t in self.theorems:
            if t not in ALL_THEOREMS:
                raise ConfigError(f"unknown check id {t!r}")
        if not self.theorems or len(set(self.theorems)) < len(self.theorems):
            raise ConfigError(f"list each check id once, got {', '.join(self.theorems) or 'none'}")
        canonical, count = set(), 0
        lines = self.degree_max - self.degree_min + 1
        twists = self.cot_twist_max - self.cot_twist_min + 1 if self.cotangent else 0
        for text in self.spaces:
            try:
                space = parse_space(text)
            except ParseError as exc:
                raise ConfigError(f"bad space {text!r}: {exc}") from exc
            canonical.add(format_space(space))
            summands = prod(lines + (n - 1) * twists for n in space.dims)  # as enumerate_atoms
            count += _multisets(summands, self.max_summands, MAX_BUNDLES)
        if len(canonical) < len(self.spaces):
            raise ConfigError(f"list each space once, got {', '.join(self.spaces)}")
        if count > MAX_BUNDLES:
            raise ConfigError(f"the family holds more than MAX_BUNDLES = {MAX_BUNDLES} bundles")


def parse_range(value: str) -> tuple[int, int]:
    """An inclusive integer range written lo..hi, as in config files and
    on the command line."""
    parts = value.split("..")
    if len(parts) != 2:
        raise ConfigError(f"expected a range like -2..2, got {value!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ConfigError(f"non-integer range bound in {value!r}") from exc
    if lo > hi:
        raise ConfigError(f"empty range {value!r}")
    return lo, hi


_BOOL = {"on": True, "true": True, "1": True, "off": False, "false": False, "0": False}


def parse_config_text(text: str) -> EnumerationConfig:
    """Parse a key = value configuration, one setting per line."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key == "spaces":
            parts = [p.strip() for p in val.split(",") if p.strip()]
            if not parts:
                raise ConfigError(f"line {lineno}: no spaces listed")
            values["spaces"] = tuple(parts)
        elif key == "degrees":
            values["degree_min"], values["degree_max"] = parse_range(val)
        elif key == "cotangent":
            if val.lower() not in _BOOL:
                raise ConfigError(f"line {lineno}: expected on/off, got {val!r}")
            values["cotangent"] = _BOOL[val.lower()]
        elif key == "cotangent_twists":
            values["cot_twist_min"], values["cot_twist_max"] = parse_range(val)
        elif key in ("max_summands", "jobs"):
            try:
                values[key] = int(val)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: bad integer {val!r}") from exc
        elif key == "theorems":
            values["theorems"] = tuple(p.strip() for p in val.split(",") if p.strip())
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    if "spaces" not in values:
        raise ConfigError("configuration must list at least one space")
    return EnumerationConfig(**values)


def load_config(path: str) -> EnumerationConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


# ---------------------------------------------------------------------------
# enumeration


def enumerate_atoms(n: int, cfg: EnumerationConfig):
    for a in range(cfg.degree_min, cfg.degree_max + 1):
        yield Line(a)
    if cfg.cotangent:
        for p in range(1, n):
            for t in range(cfg.cot_twist_min, cfg.cot_twist_max + 1):
                yield Cotangent(p, t)


def enumerate_summands(space: Space, cfg: EnumerationConfig):
    per_factor = [list(enumerate_atoms(n, cfg)) for n in space.dims]
    for atoms in itertools.product(*per_factor):
        yield make_summand(space, atoms)


def enumerate_bundles(space: Space, cfg: EnumerationConfig):
    """All bundles with up to max_summands summands, one per multiset."""
    summands = sorted(
        enumerate_summands(space, cfg),
        key=lambda s: tuple((a.degree, -1) if isinstance(a, Line) else (a.twist, a.p) for a in s.atoms),
    )
    # the summands are canonical already: sorting a multiset by the stored
    # key (unique per summand) gives the bundle make_bundle would
    for size in range(1, cfg.max_summands + 1):
        for combo in itertools.combinations_with_replacement(summands, size):
            yield Bundle(space, tuple(sorted(combo, key=_summand_key)))


# ---------------------------------------------------------------------------
# verification runs


@dataclass
class TheoremStats:
    applicable: int = 0
    not_applicable: int = 0
    consistent: int = 0
    inconsistent: int = 0
    samples: list = field(default_factory=list)


@dataclass
class RunReport:
    config: EnumerationConfig
    total_bundles: int
    per_theorem: dict
    findings: list
    elapsed_seconds: float

    @property
    def ok(self) -> bool:
        return all(st.inconsistent == 0 for st in self.per_theorem.values())


_WITNESS_CAP = 4
_SAMPLE_CAP = 3


def _finding(kind: str, space_text: str, name: str, verdict) -> dict:
    """One finding on the verdict, with the fields its kind adds."""
    found = {"type": kind, "space": space_text, "bundle": name, "theorem": verdict.theorem.value}
    if kind == "inconsistent":
        found.update(condition=verdict.condition_holds, form=verdict.form_holds,
                     witnesses=[w.to_json() for w in verdict.witnesses[:_WITNESS_CAP]])
    elif kind == "detector_mismatch":
        found["detected"] = [t.label for t in verdict.detected]
    return found


def run_verification(cfg: EnumerationConfig) -> RunReport:
    """Check every bundle of every configured space for ``cfg.theorems``.
    Bundles stream from ``enumerate_bundles``, so a run holds one at a
    time.  The checks that fold (CheckSpec.spread) are decided by the OR
    of the bundle's summand masks: a bundle whose mask agrees is counted
    applicable and consistent for each of them, and calls ``verdict_rows``
    only for the other checks; a bundle whose mask holds a finding calls
    it for every check.  The stats are tallied from the rows; a bundle's
    name, its verdict for a check and the finding dicts are made only when
    that check has a finding."""
    start = time.monotonic()
    per_theorem = {tid: TheoremStats() for tid in cfg.theorems}
    findings: list = []
    total = 0

    ids = tuple(map(TheoremId, cfg.theorems))
    every = [(per_theorem[t.value], t, CHECKS[t]) for t in ids]
    folded = [check for check in every if check[2].spread is not None]
    others, rest, key = every, ids, ()  # the checks that do not fold; the mask's, per space
    if folded:
        others = [check for check in every if check[2].spread is None]
        rest = tuple(t for _, t, _ in others)
    for space in map(parse_space, cfg.spaces):
        space_text, dims = format_space(space), space.dims
        if folded:  # those that apply on the space
            key = tuple(t for _, t, spec in folded if space.num_factors == 2 or not spec.two_factor)
        agree, before, found = {}, total, 0  # mask -> mask_consistent; bundles with a finding
        for bundle in enumerate_bundles(space, cfg):
            total += 1
            row_ids, checks = rest, others
            if key:
                m = 0  # the OR of the summands' masks
                for s in bundle.summands:
                    f = summand_facts(dims, s.key)
                    mask = f.bits.get(key)
                    m |= summand_mask(space, f, key) if mask is None else mask
                ok = agree.get(m)
                if ok is None:
                    ok = agree[m] = mask_consistent(key, m)
                if not ok:
                    row_ids, checks = ids, every
                    found += 1
            if not row_ids:
                continue
            name = acm = None  # format_bundle(bundle) and is_acm(bundle), each made at most once
            for (st, theorem, spec), row in zip(checks, verdict_rows(bundle, row_ids)):
                reason, cond, form, detected, agrees, _ = row
                if reason is not None:
                    st.not_applicable += 1
                    continue
                st.applicable += 1
                kinds = []
                if cond == form:
                    st.consistent += 1
                else:
                    st.inconsistent += 1
                    kinds.append("inconsistent")
                if detected and agrees is False:
                    kinds.append("detector_mismatch")
                if spec.detector and cond and not detected:
                    kinds.append("detector_empty")
                if spec.acm_crosscheck and cond:
                    if acm is None:
                        acm = is_acm(bundle)
                    if not acm:
                        kinds.append("t1_without_acm")
                if kinds:
                    name = name or format_bundle(bundle)
                    if cond != form and len(st.samples) < _SAMPLE_CAP:
                        st.samples.append(name)
                    verdict = row_verdict(bundle, theorem, row)
                    findings.extend(_finding(kind, space_text, name, verdict) for kind in kinds)
        free = total - before - found  # the bundles whose mask agrees
        for st, t, _ in folded:  # consistent on each of them, or not applicable
            if t in key:
                st.applicable += free
                st.consistent += free
            else:
                st.not_applicable += free

    return RunReport(
        config=cfg,
        total_bundles=total,
        per_theorem=per_theorem,
        findings=findings,
        elapsed_seconds=time.monotonic() - start,
    )


# ---------------------------------------------------------------------------
# regularity definition comparison


def compare_regularity_definitions(
    bundles: Iterable[Bundle], p_range: tuple[int, int] = (-2, 2)
) -> dict:
    """Empirical comparison of the two regularity definitions.

    Checks, over every bundle and base point in range:
    * strict definition at (p, q) implies box definition at (p, q);
    * box regularity at (p-m+1, p-n+1) implies strict regularity at (p, p),
      in both factor pairings.

    H^i of a direct sum is the sum of its summands' H^i, so a bundle is
    regular at a point exactly when every summand is: each distinct summand
    is probed once per point and definition.
    """
    lo, hi = p_range
    report = {
        "checked_bundles": 0,
        "hw_implies_box_violations": [],
        "shift_literal_violations": [],
        "shift_swapped_violations": [],
    }
    probes: dict = {}  # (space, summand key, point, definition) -> regular, for this call

    def regular(bundle: Bundle, point: tuple, definition: str) -> bool:
        for s in bundle.summands:
            key = (bundle.space, s.key, point, definition)
            if key not in probes:
                probes[key] = is_regular_at(Bundle(bundle.space, (s,)), point, definition)
            if not probes[key]:
                return False
        return True

    for bundle in bundles:
        space = bundle.space
        if space.num_factors != 2:
            raise ArityError("definition comparison requires two-factor spaces")
        n, m = space.dims
        report["checked_bundles"] += 1
        name = format_bundle(bundle)
        for p in range(lo, hi + 1):
            for q in range(lo, hi + 1):
                if regular(bundle, (p, q), "hw") and not regular(bundle, (p, q), "paper"):
                    report["hw_implies_box_violations"].append(
                        {"bundle": name, "space": format_space(space), "p": (p, q)}
                    )
        for p in range(lo, hi + 1):
            for key, shifted in (("shift_literal_violations", (p - m + 1, p - n + 1)),
                                 ("shift_swapped_violations", (p - n + 1, p - m + 1))):
                if regular(bundle, shifted, "paper") and not regular(bundle, (p, p), "hw"):
                    report[key].append({"bundle": name, "space": format_space(space), "p": p})
    return report

"""Enumeration harness: generate families of bundles, run the splitting
checks over them, and aggregate agreement statistics.  The OR of a
bundle's summand masks alone decides the checks that fold and the Reg = 0
gate (splitting.mask_checks); verify_bundle gives the verdicts of the
other checks, the gated ones only on a bundle whose Reg is 0."""

from __future__ import annotations

import itertools
import re
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
from .splitting import (CHECKS, TheoremId, TheoremVerdict, mask_checks, summand_mask,
                        verify_bundle)

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
            canonical.add(space)  # one Space per dims, whatever the text
            summands = prod(lines + (n - 1) * twists for n in space.dims)  # as enumerate_atoms
            count += _multisets(summands, self.max_summands, MAX_BUNDLES)
        if len(canonical) < len(self.spaces):
            raise ConfigError(f"list each space once, got {', '.join(self.spaces)}")
        if count > MAX_BUNDLES:
            raise ConfigError(f"the family holds more than MAX_BUNDLES = {MAX_BUNDLES} bundles")


def _integer(text: str) -> int:
    """The integer in text, written as bundle text writes one (bundles._TOKEN_RE):
    no sign +, no underscore.  ValueError otherwise, or past int()'s digit limit."""
    if not re.fullmatch(r"-?\d+", text.strip()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_range(value: str) -> tuple[int, int]:
    """An inclusive integer range written lo..hi, as in config files and
    on the command line, each bound read by _integer."""
    parts = value.split("..")
    if len(parts) != 2:
        raise ConfigError(f"expected a range like -2..2, got {value!r}")
    try:
        lo, hi = map(_integer, parts)
    except ValueError as exc:
        raise ConfigError(f"non-integer range bound in {value!r}") from exc
    if lo > hi:
        raise ConfigError(f"empty range {value!r}")
    return lo, hi


_BOOL = {"on": True, "true": True, "1": True, "off": False, "false": False, "0": False}


def parse_config_text(text: str) -> EnumerationConfig:
    """Parse a key = value configuration, one setting per line, each key once."""
    values: dict = {}
    given: set = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in given:
            raise ConfigError(f"line {lineno}: key {key!r} given twice")
        given.add(key)
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
        elif key == "max_summands":
            try:
                values[key] = _integer(val)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: bad integer {val!r}") from exc
        elif key == "theorems":  # case-insensitive, as --theorem
            values["theorems"] = tuple(p.strip().upper() for p in val.split(",") if p.strip())
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
    """Check every bundle of every configured space for ``cfg.theorems``,
    streamed from ``enumerate_bundles``.  The OR of a bundle's summand
    masks (summand_mask), decoded by mask_checks, decides the checks that
    fold (CheckSpec.spread), each applicable and consistent or, on a
    finding, given its verdict off the mask.  It decides the Reg gate too:
    unless the bundle's Reg is 0, no gated check (CheckSpec.reg_zero)
    applies.  A two-factor check applies to no bundle of another space and
    is counted so in bulk.  ``verify_bundle`` gives the other checks'
    verdicts in id order, the gated ones only at Reg 0.  A bundle's name
    and finding dicts are made only for a finding."""
    start = time.monotonic()
    per_theorem = {tid: TheoremStats() for tid in cfg.theorems}
    findings: list = []
    total = 0

    ids = map(TheoremId.__members__.__getitem__, cfg.theorems)  # each name is its value
    every = [(per_theorem[t], t, CHECKS[t]) for t in ids]
    for space in map(parse_space, cfg.spaces):
        dims, two = space.dims, space.num_factors == 2
        # the checks that can apply on the space; any other applies to none of its bundles
        here = [check for check in every if two or not check[2].two_factor]
        # the mask's key: the folded checks of here, then the gated ones
        folds = tuple(t for _, t, spec in here if spec.spread is not None)
        key = folds + tuple(t for _, t, spec in here if spec.reg_zero)
        decoded, before, found, irregular = {}, total, 0, 0  # mask -> what it decides; bundles
        for bundle in enumerate_bundles(space, cfg):
            total += 1
            m = 0  # the OR of the summands' masks
            for s in bundle.summands if key else ():
                f = summand_facts(dims, s.key)
                mask = f.masks.get(key)
                m |= summand_mask(space, f, key) if mask is None else mask
            if m not in decoded:  # what the mask decides, and the checks that get verdicts
                bits, regular = mask_checks(key, m)  # Reg = 0, or no gated check applies
                checks = [check for check in here if bits and check[1] in bits or
                          check[2].spread is None and (regular or not check[2].reg_zero)]
                decoded[m] = bits, regular, tuple(t for _, t, spec in checks
                                                  if spec.spread is None), checks
            bits, regular, rest_ids, checks = decoded[m]
            irregular += not regular
            if bits is not None:  # a finding: the folded checks' verdicts off the mask
                found += 1
                others = iter(verify_bundle(bundle, rest_ids) if rest_ids else ())
                verdicts = [TheoremVerdict(t, True, condition_holds=bits[t][0],
                                           form_holds=bits[t][1],
                                           consistent=bits[t][0] == bits[t][1],
                                           bundle=bundle) if t in bits else next(others)
                            for _, t, _ in checks]
            elif rest_ids:
                verdicts = verify_bundle(bundle, rest_ids)
            else:
                continue
            name = None  # format_bundle(bundle), made at most once
            for (st, theorem, spec), verdict in zip(checks, verdicts):
                if not verdict.applicable:
                    st.not_applicable += 1
                    continue
                st.applicable += 1
                cond, kinds = verdict.condition_holds, []
                if verdict.consistent:
                    st.consistent += 1
                else:
                    st.inconsistent += 1
                    kinds.append("inconsistent")
                if verdict.detected and verdict.detector_agrees is False:
                    kinds.append("detector_mismatch")
                if spec.detector and cond and not verdict.detected:
                    kinds.append("detector_empty")
                if spec.acm_crosscheck and cond and bits[theorem][2]:  # a folded check's ACM bit
                    kinds.append("t1_without_acm")
                if kinds:
                    name = name or format_bundle(bundle)
                    if not verdict.consistent and len(st.samples) < _SAMPLE_CAP:
                        st.samples.append(name)
                    findings.extend(_finding(kind, format_space(space), name, verdict)
                                    for kind in kinds)
        free = total - before - found  # the bundles whose mask agrees
        for st, t, spec in every:
            if spec.two_factor and not two:  # not in here: it applies to no bundle
                st.not_applicable += total - before
            elif spec.reg_zero:  # not applicable on a bundle whose Reg is not 0
                st.not_applicable += irregular
            elif t in folds:  # consistent on each bundle whose mask agrees
                st.applicable += free
                st.consistent += free

    return RunReport(cfg, total, per_theorem, findings, time.monotonic() - start)


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

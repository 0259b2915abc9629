"""Enumeration harness: generate families of bundles, run the splitting
checks over them, and aggregate agreement statistics.  The OR of a
bundle's summand masks, its mask class, alone decides the checks that
fold and the Reg = 0 gate (splitting.mask_checks).  A folded check gets a
verdict only where it reports a finding; verify_bundle gives the verdicts
of the other checks, the gated ones only on a bundle whose Reg is 0.
Each space keeps one dict from mask class to bundle count, and every
check the mask alone decides is tallied once per class off it.

A sweep may be many small runs (the sweep_windows benchmark workload makes
100 runs of 20 bundles per round), so what a run decides from its config
alone is memoized per process: the family's size check (_family_size),
the checks that can apply on each space with their mask key
(_space_checks), and what each distinct (key, mask) pair decides
(_decoded).  A run pays only for its bundles."""

from __future__ import annotations

import itertools
import re
import time
from dataclasses import dataclass, field
from functools import lru_cache
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
        # tuples, so that a config built from lists keys the per-process memos
        object.__setattr__(self, "spaces", tuple(self.spaces))
        object.__setattr__(self, "theorems", tuple(self.theorems))
        if not self.spaces:
            raise ConfigError("configuration must list at least one space")
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
        lines = self.degree_max - self.degree_min + 1
        twists = self.cot_twist_max - self.cot_twist_min + 1 if self.cotangent else 0
        if _family_size(self.spaces, lines, twists, self.max_summands) > MAX_BUNDLES:
            raise ConfigError(f"the family holds more than MAX_BUNDLES = {MAX_BUNDLES} bundles")


@lru_cache(maxsize=None)
def _family_size(spaces: tuple, lines: int, twists: int, max_summands: int) -> int:
    """The bundles of a run over the spaces, with lines line atoms per
    factor and twists twists per cotangent power, or a value past
    MAX_BUNDLES (_multisets).  A bad space text, or a space listed twice
    under any text, is a ConfigError.  Counted once per process, for the
    many small runs that each check a config."""
    canonical, count = set(), 0
    for text in spaces:
        try:
            space = parse_space(text)
        except ParseError as exc:
            raise ConfigError(f"bad space {text!r}: {exc}") from exc
        canonical.add(space.dims)  # one Space per dims, whatever the text
        summands = prod(lines + (n - 1) * twists for n in space.dims)  # as enumerate_atoms
        count += _multisets(summands, max_summands, MAX_BUNDLES)
    if len(canonical) < len(spaces):
        raise ConfigError(f"list each space once, got {', '.join(spaces)}")
    return count


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
    values: dict = {"spaces": ()}  # refused by EnumerationConfig unless a line lists some
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


@lru_cache(maxsize=None)
def _space_checks(theorems: tuple, spaces: tuple) -> tuple:
    """Per space of a run, (space, ids, key): the ids of the checks that can
    apply on the space, in run order (a two-factor check applies to no
    bundle of another), and the key of the summand masks: the folded ids
    among them, then the gated ones.  Planned once per process, for the
    many small runs."""
    plans = []
    for space in map(parse_space, spaces):
        two = space.num_factors == 2
        ids = tuple([t for t in map(TheoremId, theorems) if two or not CHECKS[t].two_factor])
        key = tuple([t for t in ids if CHECKS[t].spread is not None])
        key += tuple([t for t in ids if CHECKS[t].reg_zero])
        plans.append((space, ids, key))
    return tuple(plans)


@lru_cache(maxsize=None)
def _decoded(ids: tuple, key: tuple, mask: int) -> tuple:
    """What mask, the OR of a bundle's summand masks for key, decides for
    ids, the check ids that can apply on a space in run order: (findings,
    regular, verdict_ids, rest).  findings and regular are mask_checks':
    the bits of each folded id that reports a finding, and whether Reg is
    0 (or no gated check applies).  verdict_ids: in run order, the ids
    that get a verdict on the bundle, the folded ones in findings and the
    others that apply (a gated one only at Reg 0).  rest: those of them
    that do not fold, for verify_bundle.  Decoded once per process, for
    the many small runs."""
    findings, regular = mask_checks(key, mask)
    verdict_ids = tuple([t for t in ids if t in findings or CHECKS[t].spread is None
                         and (regular or not CHECKS[t].reg_zero)])
    rest = tuple([t for t in verdict_ids if t not in findings])
    return findings, regular, verdict_ids, rest


def run_verification(cfg: EnumerationConfig) -> RunReport:
    """Check every bundle of every configured space for ``cfg.theorems``,
    streamed from ``enumerate_bundles``.  The OR of a bundle's summand
    masks (summand_mask) is its mask class, and _decoded says what the
    class decides.  A folded check (CheckSpec.spread) gets a verdict, off
    the mask, only where it reports a finding; ``verify_bundle`` gives the
    other checks' verdicts in id order, the gated ones (CheckSpec.reg_zero)
    only at Reg 0.  Every other check is tallied once per mask class at the
    end of the space: a folded check with no finding is applicable and
    consistent, a gated one off Reg 0 and a two-factor one off two factors
    are not applicable.  A bundle's name and finding dicts are made only
    for a finding."""
    start = time.monotonic()
    per_theorem = {tid: TheoremStats() for tid in cfg.theorems}
    findings: list = []
    total = 0

    for space, ids, key in _space_checks(cfg.theorems, cfg.spaces):
        dims = space.dims
        classes: dict = {}  # mask -> [bundles, *_decoded(ids, key, mask)]
        space_text = None  # format_space(space), made at most once
        for bundle in enumerate_bundles(space, cfg):
            m = 0  # the OR of the summands' masks
            for s in bundle.summands if key else ():
                f = summand_facts(dims, s.key)
                mask = f.masks.get(key)
                m |= summand_mask(space, f, key) if mask is None else mask
            entry = classes.get(m)
            if entry is None:
                entry = classes[m] = [0, *_decoded(ids, key, m)]
            entry[0] += 1
            _, bits, _, verdict_ids, rest = entry
            if not verdict_ids:
                continue
            verdicts = verify_bundle(bundle, rest) if rest else ()
            if bits:  # the folded findings' verdicts, off the mask, among the others
                others = iter(verdicts)
                verdicts = [TheoremVerdict(t, True, condition_holds=bits[t][0],
                                           form_holds=bits[t][1],
                                           consistent=bits[t][0] == bits[t][1], bundle=bundle)
                            if t in bits else next(others) for t in verdict_ids]
            name = None  # format_bundle(bundle), made at most once
            for verdict in verdicts:
                t = verdict.theorem
                st, spec = per_theorem[t], CHECKS[t]
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
                if spec.acm_crosscheck and cond and bits[t][2]:  # a folded check's ACM window bit
                    kinds.append("t1_without_acm")
                if kinds:
                    name = name or format_bundle(bundle)
                    space_text = space_text or format_space(space)
                    if not verdict.consistent and len(st.samples) < _SAMPLE_CAP:
                        st.samples.append(name)
                    findings.extend(_finding(kind, space_text, name, verdict) for kind in kinds)
        for bundles, _, _, verdict_ids, _ in classes.values():  # the checks the mask decides
            total += bundles
            for t, st in per_theorem.items():
                if t in verdict_ids:  # tallied per bundle
                    continue
                if t in key and CHECKS[t].spread is not None:  # folded, with no finding
                    st.applicable += bundles
                    st.consistent += bundles
                else:  # gated off Reg 0, or two-factor off two factors
                    st.not_applicable += bundles

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

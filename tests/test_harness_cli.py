"""Enumeration harness, configuration parsing, and the command line surface."""

import itertools
import json
import os
import subprocess
import sys
import time
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

from mpreg import harness
from mpreg.bundles import ParseError, parse_bundle, parse_space
from mpreg.harness import (
    ALL_THEOREMS,
    ConfigError,
    EnumerationConfig,
    compare_regularity_definitions,
    enumerate_bundles,
    enumerate_summands,
    parse_config_text,
    run_verification,
)


# ---------------------------------------------------------------------------
# configuration


def test_parse_config_full():
    cfg = parse_config_text(
        """
        # harness setup
        spaces = P1xP1, P2xP3
        degrees = -1..1
        cotangent = on
        cotangent_twists = 0..1
        max_summands = 3
        theorems = T1, T2
        """
    )
    assert cfg.spaces == ("P1xP1", "P2xP3")
    assert (cfg.degree_min, cfg.degree_max) == (-1, 1)
    assert cfg.cotangent and (cfg.cot_twist_min, cfg.cot_twist_max) == (0, 1)
    assert cfg.max_summands == 3
    assert cfg.theorems == ("T1", "T2")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("degrees = -1..1", "space"),
        ("spaces = P1xP1\ndegrees = 3..1", "range"),
        ("spaces = P1xP1\nmax_summands = 0", "max_summands"),
        ("spaces = P1xP1\nbogus = 1", "bogus"),
        ("spaces = Px1", "space"),
        ("spaces = P1xP1\ntheorems = T9", "T9"),
        # range bounds are written as bundle text writes integers
        ("spaces = P1xP1\ndegrees = +1..2", "non-integer"),
        ("spaces = P1xP1\ncotangent_twists = 1_0..1_1", "non-integer"),
        # and so is max_summands
        ("spaces = P1xP1\nmax_summands = 1_0", "line 2: bad integer '1_0'"),
        ("spaces = P1xP1\nmax_summands = +3", "line 2: bad integer '+3'"),
        pytest.param("spaces = P1xP1\nmax_summands = " + "9" * 5000, "line 2: bad integer",
                     id="max_summands-past-the-digit-limit"),
        # each key at most once: a second line would silently replace the first
        ("spaces = P1xP1\nspaces = P2xP2", "line 2: key 'spaces' given twice"),
        ("spaces = P1xP1\ndegrees = 0..1\n# again\ndegrees = -1..1",
         "line 4: key 'degrees' given twice"),
    ],
)
def test_parse_config_rejects(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert fragment.lower() in str(err.value).lower()


def test_parse_config_check_ids_are_case_insensitive(tmp_path, capsys):
    from mpreg import cli

    # as with --theorem and the spaces: t1 and T1 are one id, listed twice
    cfg = parse_config_text("spaces = p1xp1\ntheorems = t1, c2, T2b")
    assert cfg.theorems == ("T1", "C2", "T2B")
    with pytest.raises(ConfigError, match="list each check id once, got T1, T1"):
        parse_config_text("spaces = P1xP1\ntheorems = t1, T1")
    path = tmp_path / "lower.cfg"
    path.write_text("spaces = P1xP1\ndegrees = 0..1\nmax_summands = 1\ntheorems = t1\n")
    assert cli.main(["verify-paper", "--config", str(path)]) == 0
    assert "T1" in capsys.readouterr().out


# only ParseError or ConfigError may escape the parsers
_DSL_PIECES = st.one_of(
    st.sampled_from(["P", "p", "x", "O(", "W", "(", ")", ",", "*", "+", "@", "-", "..", " ",
                     "=", "#", "\n"]),
    st.integers(-99, 99).map(str),
    st.just("9" * 5000),  # past the interpreter's limit on integer digits
    st.text(max_size=3),
)
_dsl_text = st.lists(_DSL_PIECES, max_size=12).map("".join)
_space_text = st.lists(st.one_of(st.sampled_from(["P", "x"]), st.integers(0, 99).map(str),
                                 st.just("9" * 5000)), max_size=6).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_space_text, _dsl_text, st.sampled_from(["P1", "P2xP3", "P1xP1xP2"])),
       _dsl_text)
def test_parse_bundle_raises_only_parse_error(space_text, bundle_text):
    try:
        parse_bundle(space_text, bundle_text)
    except ParseError:
        pass


def test_space_listed_twice_is_a_config_error(tmp_path, capsys):
    from mpreg import cli

    with pytest.raises(ConfigError, match="list each space once"):
        EnumerationConfig(spaces=("P1xP1", "P2", "p1Xp1"))
    path = tmp_path / "run.cfg"
    path.write_text("spaces = P1xP1, p1xp1\n")
    assert cli.main(["verify-paper", "--config", str(path)]) == 2
    assert "list each space once, got P1xP1, p1xp1" in capsys.readouterr().err


def test_config_without_spaces_is_refused_through_the_library_too(tmp_path, capsys):
    from mpreg import cli

    # one check, in EnumerationConfig, for the library and the config file
    with pytest.raises(ConfigError, match="^configuration must list at least one space$"):
        EnumerationConfig(spaces=())
    path = tmp_path / "none.cfg"
    path.write_text("degrees = 0..1\n")
    assert cli.main(["verify-paper", "--config", str(path)]) == 2
    assert "configuration must list at least one space" in capsys.readouterr().err


def test_config_refuses_one_text_where_it_wants_a_sequence_of_texts():
    # a str is a sequence of one-character texts: refused by name, not split
    for fields, name in (({"spaces": "P1xP1"}, "spaces"),
                         ({"spaces": ("P1xP1",), "theorems": "T1"}, "theorems")):
        with pytest.raises(ConfigError, match=f"^{name} must be a sequence of texts, not one"):
            EnumerationConfig(**fields)
    assert EnumerationConfig(spaces=["P1xP1"], theorems=["T1"]).theorems == ("T1",)


def test_config_of_lists_runs_as_the_config_of_tuples():
    # the lists are kept as tuples, which key the harness's per-process memos
    listed = EnumerationConfig(spaces=["P1xP1"], theorems=["T1", "T3"])
    tupled = EnumerationConfig(spaces=("P1xP1",), theorems=("T1", "T3"))
    assert listed == tupled and isinstance(listed.spaces, tuple)
    got, want = run_verification(listed), run_verification(tupled)
    assert got.total_bundles == want.total_bundles == 350
    assert (got.per_theorem, got.findings) == (want.per_theorem, want.findings)


def test_parse_config_overlong_integer_is_a_config_error():
    with pytest.raises(ConfigError, match="bad space"):
        parse_config_text("spaces = P" + "9" * 5000)
    with pytest.raises(ConfigError, match="non-integer range bound"):  # past int()'s limit
        parse_config_text("spaces = P1xP1\ndegrees = 0.." + "9" * 5000)
    with pytest.raises(ConfigError, match="bad integer"):  # read as range bounds are
        parse_config_text("spaces = P1xP1\nmax_summands = " + "9" * 5000)


_CONFIG_LINE = st.tuples(
    st.sampled_from(["spaces", "degrees", "cotangent", "cotangent_twists", "max_summands",
                     "theorems", "bogus"]),
    st.one_of(_dsl_text, _space_text),
).map(lambda kv: f"{kv[0]} = {kv[1]}")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_CONFIG_LINE, _dsl_text), max_size=6).map("\n".join))
def test_parse_config_raises_only_config_error(text):
    try:
        parse_config_text(text)
    except ConfigError:
        pass


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_counts_line_only():
    sp = parse_space("P1xP1")
    cfg = EnumerationConfig(spaces=("P1xP1",), degree_min=-1, degree_max=1,
                            max_summands=2)
    summands = list(enumerate_summands(sp, cfg))
    assert len(summands) == 9
    bundles = list(enumerate_bundles(sp, cfg))
    # 9 singles plus 45 unordered pairs with repetition
    assert len(bundles) == 54
    assert len(set(bundles)) == 54


def test_enumeration_includes_cotangent_atoms():
    sp = parse_space("P2xP2")
    cfg = EnumerationConfig(spaces=("P2xP2",), degree_min=0, degree_max=0,
                            cotangent=True, cot_twist_min=1, cot_twist_max=1,
                            max_summands=1)
    summands = set(enumerate_summands(sp, cfg))
    # per factor: O(0) and W1(1)
    assert len(summands) == 4


def test_enumeration_matches_make_bundle():
    # enumerate_bundles builds each Bundle from canonical summands directly;
    # the reference re-normalises every combination through make_bundle
    from mpreg.bundles import Line, make_bundle

    sp = parse_space("P2xP2")
    cfg = EnumerationConfig(spaces=("P2xP2",), degree_min=-1, degree_max=1,
                            cotangent=True, max_summands=2)
    summands = sorted(
        enumerate_summands(sp, cfg),
        key=lambda s: tuple((a.degree, -1) if isinstance(a, Line) else (a.twist, a.p)
                            for a in s.atoms),
    )
    expected = [make_bundle(sp, combo) for size in (1, 2)
                for combo in itertools.combinations_with_replacement(summands, size)]
    assert len(expected) == 64 + 64 * 65 // 2
    assert list(enumerate_bundles(sp, cfg)) == expected


def _reference_report(cfg):
    """run_verification as a plain loop: full verdicts with the witnesses of
    condition_for, built eagerly, and every bundle formatted."""
    from mpreg.bundles import ArityError, format_bundle, format_space
    from mpreg.harness import TheoremStats
    from mpreg.splitting import (CHECKS, PreconditionError, TheoremId, classify_form,
                                 condition_for, detect_extremal_summand, is_acm)

    per_theorem = {tid: TheoremStats() for tid in cfg.theorems}
    findings, total = [], 0
    for space_text in cfg.spaces:
        space = parse_space(space_text)
        label = format_space(space)
        for bundle in enumerate_bundles(space, cfg):
            total += 1
            name = format_bundle(bundle)
            for tid in cfg.theorems:
                spec, st = CHECKS[TheoremId(tid)], per_theorem[tid]
                try:
                    cond, witnesses = condition_for(bundle, tid)
                except (ArityError, PreconditionError):
                    st.not_applicable += 1
                    continue
                st.applicable += 1
                form = classify_form(bundle, tid)
                detected = detect_extremal_summand(bundle) if spec.detector else []
                base = {"space": label, "bundle": name, "theorem": tid}
                if cond == form:
                    st.consistent += 1
                else:
                    st.inconsistent += 1
                    if len(st.samples) < 3:
                        st.samples.append(name)
                    findings.append({"type": "inconsistent", **base, "condition": cond,
                                     "form": form,
                                     "witnesses": [w.to_json() for w in witnesses[:4]]})
                if detected and not all(t.summand in bundle.summands for t in detected):
                    findings.append({"type": "detector_mismatch", **base,
                                     "detected": [t.label for t in detected]})
                if spec.detector and cond and not detected:
                    findings.append({"type": "detector_empty", **base})
                if spec.acm_crosscheck and cond and not is_acm(bundle):
                    findings.append({"type": "t1_without_acm", **base})
    return total, per_theorem, findings


def test_run_verification_matches_eager_reference():
    cfg = EnumerationConfig(spaces=("P1xP1", "P1xP2"), degree_min=-1, degree_max=1,
                            cotangent=True, theorems=ALL_THEOREMS)
    rep = run_verification(cfg)
    total, per_theorem, findings = _reference_report(cfg)
    assert rep.total_bundles == total == 378
    assert rep.per_theorem == per_theorem
    assert any(f.get("witnesses") for f in findings)
    assert [json.dumps(f) for f in rep.findings] == [json.dumps(f) for f in findings]


_FOLDING = ("T1", "T2", "T3", "T2B")  # checks whose verdicts the summand masks decide


@st.composite
def _differential_configs(draw):
    """Small configs on 1-3 factors whose checks fold, do not, or mix."""
    spaces = tuple(draw(st.lists(st.sampled_from(("P1", "P2", "P1xP1", "P1xP2", "P2xP1",
                                                  "P2xP2", "P1xP1xP1", "P1xP1xP2")),
                                 min_size=1, max_size=2, unique=True)))
    folding = draw(st.lists(st.sampled_from(_FOLDING), unique=True))
    other = draw(st.lists(st.sampled_from([t for t in ALL_THEOREMS if t not in _FOLDING]),
                          unique=True, min_size=0 if folding else 1))
    degree_min, cot_twist_min = draw(st.integers(-2, 1)), draw(st.integers(-1, 1))
    cfg = EnumerationConfig(
        spaces=spaces,
        degree_min=degree_min,
        degree_max=degree_min + draw(st.sampled_from((2, 1, 0))),
        cotangent=draw(st.booleans()),
        cot_twist_min=cot_twist_min,
        cot_twist_max=cot_twist_min + draw(st.sampled_from((0, 1))),
        max_summands=draw(st.sampled_from((3, 2, 1))),
        theorems=tuple(draw(st.permutations(folding + other))),
    )
    bundles = (b for text in spaces for b in enumerate_bundles(parse_space(text), cfg))
    assume(next(itertools.islice(bundles, 800, None), None) is None)  # at most 800 bundles
    return cfg


@settings(max_examples=50, deadline=None)
@given(_differential_configs())
@example(EnumerationConfig(spaces=("P1xP1xP1", "P1xP2"), degree_min=-1, degree_max=1,
                           theorems=("C2", "T2B", "T3", "T1")))  # mask findings, mixed
# 27 bundles, 30 findings; on O(0,1,2) a T4 inconsistency and detector
# mismatch meet a T2B inconsistency, in the order of the check ids
@example(EnumerationConfig(spaces=("P1xP1xP1",), degree_min=0, degree_max=2, max_summands=1,
                           theorems=("T4", "T2B")))
@example(EnumerationConfig(spaces=("P1xP1xP1",), degree_min=0, degree_max=2, max_summands=1,
                           theorems=("T2B", "T4")))
# gated, folded and other ids mixed.  On P3xP3, P4B's rank rule comes before
# the Reg gate (9 bundles fail it), and Reg-0 bundles such as O(0,2) have
# C2, T4 and P4B findings; on P1xP1xP1 the Reg-0 O(0,1,2) has T2B and T4
# findings, and on P1xP2 T0 applies too
@example(EnumerationConfig(spaces=("P3xP3",), degree_min=0, degree_max=2,
                           theorems=("P4B", "T2B", "C2", "T4")))
@example(EnumerationConfig(spaces=("P1xP1xP1", "P1xP2"), degree_min=0, degree_max=2,
                           max_summands=1, theorems=("T2B", "C1", "T0", "T4", "T3")))
# a gated, a folded and a rank-rule id interleave in run order, on mask
# classes that mix folded findings with bundles whose Reg is not 0
@example(EnumerationConfig(spaces=("P1xP2", "P1xP1xP1"), degree_min=0, degree_max=2,
                           max_summands=2, theorems=("T4", "T2B", "C2", "T3", "T0")))
def test_run_verification_matches_eager_reference_on_drawn_configs(cfg):
    rep = run_verification(cfg)
    total, per_theorem, findings = _reference_report(cfg)
    assert rep.total_bundles == total
    assert rep.per_theorem == per_theorem  # the counts and the samples
    assert [json.dumps(f) for f in rep.findings] == [json.dumps(f) for f in findings]


def _counting_verdicts(monkeypatch) -> list:
    """The bundles passed to harness.verify_bundle from now on, in order."""
    calls, real_verify = [], harness.verify_bundle

    def counting(bundle, ids):
        calls.append(bundle)
        return real_verify(bundle, ids)

    monkeypatch.setattr(harness, "verify_bundle", counting)
    return calls


def test_folded_checks_never_call_verify_bundle(monkeypatch):
    # the masks decide the bundles with a finding too
    calls = _counting_verdicts(monkeypatch)
    t3 = run_verification(EnumerationConfig(spaces=("P1xP1xP1",), theorems=("T3",)))
    assert t3.total_bundles == 8000 and t3.findings == []
    t2b = run_verification(EnumerationConfig(spaces=("P1xP1xP1",), theorems=("T2B",)))
    found = [f["bundle"] for f in t2b.findings]
    assert len(found) == len(set(found)) == 711
    # one mask for both checks
    both = run_verification(EnumerationConfig(spaces=("P1xP1xP1",), theorems=("T3", "T2B")))
    assert both.findings == t2b.findings
    assert calls == []


def test_mask_checks_reads_three_bits_per_check():
    from mpreg.splitting import mask_checks

    key = ("T3", "T2B")  # per check, low bits first: condition fails, form fails, ACM window
    # no gated id in the key: Reg = 0 reads True; a check that agrees is absent
    assert mask_checks(key, 0b000_000) == mask_checks(key, 0b011_011) == ({}, True)
    # a window does not count once the condition fails
    assert mask_checks(key, 0b000_111) == ({}, True)
    # per check that reports a finding (condition holds, form holds, ACM window)
    assert mask_checks(key, 0b000_100) == ({"T3": (True, True, True)}, True)
    assert mask_checks(key, 0b001_000) == ({"T2B": (False, True, False)}, True)
    assert mask_checks(key, 0b010_011) == ({"T2B": (True, False, False)}, True)
    assert mask_checks(key, 0b010_100) == ({"T3": (True, True, True),
                                            "T2B": (True, False, False)}, True)


def test_each_summand_mask_is_filled_at_most_once_per_run(monkeypatch):
    from collections import Counter

    from mpreg import splitting
    from mpreg.cohomology import summand_facts

    real_mask, fills = splitting.summand_mask, Counter()

    def counting_mask(space, facts, key):
        if key not in facts.masks:
            fills[id(facts), key] += 1
        return real_mask(space, facts, key)

    summand_facts.cache_clear()
    splitting._class_bits.cache_clear()
    monkeypatch.setattr(harness, "summand_mask", counting_mask)
    monkeypatch.setattr(splitting, "summand_mask", counting_mask)  # a fill outside the harness too
    # on P1xP1 the mask covers T1, T2B and T3, on P1xP1xP1 T2B and T3; C2 does not fold
    cfg = EnumerationConfig(spaces=("P1xP1", "P1xP1xP1"), degree_min=-1, degree_max=1,
                            max_summands=3, theorems=("T1", "T2B", "C2", "T3"))
    first = run_verification(cfg)
    assert max(fills.values()) == 1
    # one fill per summand of the family, and no other record; the folded
    # bits come from one class pass per diagonal class of the space
    assert sorted(Counter(key for _, key in fills).values()) == [9, 27]
    classes = set()
    for text in cfg.spaces:
        space = parse_space(text)
        records = [summand_facts(space.dims, s.key) for s in enumerate_summands(space, cfg)]
        filled = {i for i, key in fills if len(key) == 5 - space.num_factors}
        assert filled == set(map(id, records))
        classes |= {(space.dims, f.diagonal) for f in records}
    assert len(classes) == 5 + 19
    assert splitting._class_bits.cache_info().misses == len(classes)
    second = run_verification(cfg)
    assert sum(fills.values()) == 9 + 27
    assert splitting._class_bits.cache_info().misses == len(classes)
    assert replace(second, elapsed_seconds=0) == replace(first, elapsed_seconds=0)


def test_a_cold_sweep_decides_folded_bits_once_per_diagonal_class(monkeypatch):
    # a cold T3/T2B sweep of P1xP1xP1 runs one class pass per diagonal class
    # (61 for the 125 summands), which reads one untwisted sweep per distinct
    # offset of the union of T3's, T2B's and the ACM family; the mask path
    # calls no holding
    from mpreg import regularity, splitting
    from mpreg.cohomology import summand_facts
    from mpreg.splitting import _acm_family, _exact_family, _step_family

    real_mask, real_windows = splitting.summand_mask, regularity._untwisted_windows
    inside, reads, holds = [], [], []

    def masking(space, facts, key):
        inside.append(key)
        try:
            return real_mask(space, facts, key)
        finally:
            inside.pop()

    def untwisted(factors):
        if inside:
            reads.append(factors)
        return real_windows(factors)

    def recording_holding(real):
        def holding(*args):
            if inside:
                holds.append(args)
            return real(*args)
        return holding

    for memo in (summand_facts, splitting._class_bits, regularity._untwisted_windows,
                 regularity._class_windows):
        memo.cache_clear()
    monkeypatch.setattr(harness, "summand_mask", masking)
    monkeypatch.setattr(regularity, "_untwisted_windows", untwisted)
    for module in (splitting, regularity):
        monkeypatch.setattr(module, "holding", recording_holding(module.holding))
    cfg = EnumerationConfig(spaces=("P1xP1xP1",), degree_min=-2, degree_max=2,
                            theorems=("T3", "T2B"))
    assert run_verification(cfg).findings
    space = parse_space("P1xP1xP1")
    classes = {summand_facts(space.dims, s.key).diagonal for s in enumerate_summands(space, cfg)}
    shifts = set()
    for family in (_exact_family, _step_family, _acm_family):
        shifts |= set(regularity.offsets(space, family, 0).shifts)
    assert len(classes) == 61 and len(shifts) == 7
    assert splitting._class_bits.cache_info().misses == 61
    assert sorted(reads) == sorted(tuple((n, p, t + d) for (n, p, t), d in zip(diagonal, shift))
                                   for diagonal in classes for shift in shifts)
    assert holds == []
    # a key with no folded id holds only the Reg pair, and takes no class pass
    before = splitting._class_bits.cache_info()
    regular = EnumerationConfig(spaces=("P2xP2",), degree_min=-1, degree_max=1, cotangent=True,
                                cot_twist_min=-1, cot_twist_max=1, theorems=("T0", "T4"))
    assert run_verification(regular).total_bundles
    assert splitting._class_bits.cache_info() == before


def test_acm_bit_is_read_only_for_summands_whose_condition_bit_is_clear(monkeypatch):
    # T3's exact family has no zero offset on P1xP1xP1 and the ACM family
    # only that one, so a class pass reads its own diagonal's untwisted
    # windows exactly when it reads the ACM family
    from mpreg import regularity, splitting
    from mpreg.cohomology import summand_facts
    from mpreg.splitting import _exact_family

    real_pass, real_windows = splitting._class_bits, regularity._untwisted_windows
    current, read = [], []

    def recording_pass(space, diagonal, spread, folds):
        current[:] = [diagonal]
        return real_pass(space, diagonal, spread, folds)

    def recording_windows(factors):
        read.append((current[0], factors))
        return real_windows(factors)

    summand_facts.cache_clear()
    real_pass.cache_clear()
    monkeypatch.setattr(splitting, "_class_bits", recording_pass)
    monkeypatch.setattr(regularity, "_untwisted_windows", recording_windows)
    cfg = EnumerationConfig(spaces=("P1xP1xP1",), theorems=("T3",))
    assert run_verification(cfg).findings == []
    acm_read = {diagonal for diagonal, factors in read if factors == diagonal}
    space = parse_space("P1xP1xP1")
    assert all(any(k) for _, k, _ in splitting.offsets(space, _exact_family, 0))
    records = [summand_facts(space.dims, s.key) for s in enumerate_summands(space, cfg)]
    # every record takes its mask from its class's pass, whatever its first twist
    assert all(set(f.masks) == {("T3",)} for f in records)
    clear = {f.diagonal for f in records if not splitting._summand_fails(
        space, f, _exact_family, 0, None)}
    assert 0 < len(clear) < len({f.diagonal for f in records})
    assert acm_read == clear


def test_a_window_unbounded_below_raises_from_the_mask(monkeypatch):
    # H^1 of O(t) on P1 is nonzero for every t <= -2: a T2B read through this
    # family has no condition bit, so the summand's mask raises
    from mpreg import splitting
    from mpreg.bundles import ModelError
    from mpreg.cohomology import summand_facts
    from mpreg.splitting import TheoremId, is_acm, verify_theorem

    def top(space, r):
        return [(1, (0,), True)]

    t2b = TheoremId.T2B
    monkeypatch.setitem(splitting.CHECKS, t2b, replace(splitting.CHECKS[t2b], family=top))
    calls = _counting_verdicts(monkeypatch)
    cfg = EnumerationConfig(spaces=("P1",), degree_min=0, degree_max=0, max_summands=1,
                            theorems=("T2B",))
    summand_facts.cache_clear()  # no mask of the real T2B
    splitting._class_bits.cache_clear()  # nor class bits
    try:
        with pytest.raises(ModelError, match="unbounded below"):
            run_verification(cfg)
        assert calls == []
        [bundle] = enumerate_bundles(parse_space("P1"), cfg)
        assert summand_facts((1,), bundle.summands[0].key).masks == {}  # nothing stored
        assert splitting._class_bits.cache_info().currsize == 0
        with pytest.raises(ModelError, match="unbounded below"):
            verify_theorem(bundle, t2b)
        monkeypatch.setattr(splitting, "_acm_family", top)
        with pytest.raises(ModelError, match="unbounded below"):
            is_acm(bundle)
    finally:
        summand_facts.cache_clear()  # nor of this one
        splitting._class_bits.cache_clear()


def test_inconsistent_finding_carries_the_first_four_witnesses(monkeypatch):
    from mpreg import harness, splitting
    from mpreg.splitting import Witness

    # no real inconsistent verdict is known with more than four witnesses
    witnesses = tuple(Witness(1, (-j, 0), j, j + 1) for j in range(6))

    # T2B folds: its decoded mask, per check (condition, form, ACM window),
    # is read as an applicable, inconsistent verdict; masks are decoded once
    # per process, so the decoding memo starts and ends empty
    monkeypatch.setattr(harness, "mask_checks",
                        lambda key, mask: ({t: (False, True, False) for t in key}, True))
    monkeypatch.setattr(splitting, "_witnesses", lambda *args: list(witnesses))
    cfg = EnumerationConfig(spaces=("P1",), degree_min=0, degree_max=0, max_summands=1,
                            theorems=("T2B",))
    harness._decoded.cache_clear()
    try:
        [finding] = run_verification(cfg).findings
    finally:
        harness._decoded.cache_clear()
    assert finding["witnesses"] == [w.to_json() for w in witnesses[:4]]


def test_run_verification_small_all_consistent():
    cfg = EnumerationConfig(spaces=("P1xP1",), degree_min=-1, degree_max=1,
                            max_summands=2, theorems=("T1", "T2"))
    rep = run_verification(cfg)
    assert rep.total_bundles == 54
    assert rep.ok
    for tid in ("T1", "T2"):
        st = rep.per_theorem[tid]
        assert st.applicable == 54 and st.inconsistent == 0
    assert rep.elapsed_seconds >= 0


_SMALL_SPACES = ("P1", "P2", "P1xP1", "P1xP2", "P2xP1", "P2xP2")


@st.composite
def _small_configs(draw):
    degree_min = draw(st.integers(-1, 1))
    cot_twist_min = draw(st.integers(-1, 1))
    return EnumerationConfig(
        spaces=tuple(draw(st.lists(st.sampled_from(_SMALL_SPACES), min_size=1, max_size=2,
                                   unique=True))),
        degree_min=degree_min,
        degree_max=draw(st.integers(degree_min, 1)),
        cotangent=draw(st.booleans()),
        cot_twist_min=cot_twist_min,
        cot_twist_max=draw(st.integers(cot_twist_min, 1)),
        max_summands=draw(st.integers(1, 2)),
        theorems=tuple(draw(st.lists(st.sampled_from(ALL_THEOREMS), min_size=1, unique=True))),
    )


@settings(max_examples=40, deadline=None)
@given(_small_configs(), st.integers(1, 3))
def test_bundle_budget_is_the_enumerated_count(cfg, max_summands):
    cfg = replace(cfg, max_summands=max_summands)
    count = sum(sum(1 for _ in enumerate_bundles(parse_space(text), cfg)) for text in cfg.spaces)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "MAX_BUNDLES", count)
        assert replace(cfg) == cfg
        mp.setattr(harness, "MAX_BUNDLES", count - 1)
        with pytest.raises(ConfigError, match="MAX_BUNDLES"):
            replace(cfg)


def test_serial_run_streams_one_bundle_at_a_time(monkeypatch):
    from mpreg import harness

    real_enumerate, real_verify = harness.enumerate_bundles, harness.verify_bundle
    real_facts, events = harness.summand_facts, []

    def logged_enumerate(space, cfg):
        for bundle in real_enumerate(space, cfg):
            events.append(("pulled", bundle))
            yield bundle

    def logged_facts(dims, key):
        events.append(("read", key))
        return real_facts(dims, key)

    def logged_verify(bundle, ids):
        events.append(("checked", bundle))
        return real_verify(bundle, ids)

    monkeypatch.setattr(harness, "enumerate_bundles", logged_enumerate)
    monkeypatch.setattr(harness, "summand_facts", logged_facts)
    monkeypatch.setattr(harness, "verify_bundle", logged_verify)
    # T1 and T3 fold, read off the summands' masks; C2 does not, so every
    # bundle also calls verify_bundle
    cfg = EnumerationConfig(spaces=("P1xP1", "P2"), degree_min=-1, degree_max=1,
                            theorems=("T1", "T3", "C2"))
    assert run_verification(cfg).total_bundles == 54 + 9
    bundles = [b for text in cfg.spaces for b in real_enumerate(parse_space(text), cfg)]
    # bundle n + 1 is pulled only after bundle n has been read and checked;
    # C2 applies to no bundle of P2, so those are counted without a check
    assert events == [event for b in bundles
                      for event in [("pulled", b), *(("read", s.key) for s in b.summands),
                                    *[("checked", b)] * (b.space.num_factors == 2)]]


def test_two_factor_checks_off_two_factor_spaces_are_counted_without_a_verdict(monkeypatch):
    from mpreg import harness

    real_verify, calls = harness.verify_bundle, []

    def counting_verify(bundle, ids):
        calls.append(ids)
        return real_verify(bundle, ids)

    monkeypatch.setattr(harness, "verify_bundle", counting_verify)
    cfg = EnumerationConfig(spaces=("P1xP1xP1",), degree_min=-1, degree_max=1,
                            theorems=("C1", "C2", "T0", "P4", "T3"))
    rep = run_verification(cfg)
    assert calls == []
    assert (rep.total_bundles, rep.findings) == (27 + 27 * 28 // 2, [])
    off = harness.TheoremStats(not_applicable=405)
    assert rep.per_theorem == {"C1": off, "C2": off, "T0": off, "P4": off,
                               "T3": harness.TheoremStats(applicable=405, consistent=405)}


def _count_eq(monkeypatch) -> dict:
    """Count the __eq__ calls on BoxSummand and Space from now on."""
    from mpreg.bundles import BoxSummand, Space

    calls = {BoxSummand: 0, Space: 0}
    for cls in calls:
        def counted(self, other, _eq=cls.__eq__, _cls=cls):
            calls[_cls] += 1
            return _eq(self, other)

        monkeypatch.setattr(cls, "__eq__", counted)
    return calls


def test_second_run_makes_no_summand_eq_and_no_new_fact_misses(monkeypatch):
    # the records are keyed on integers, so a warm run in the same
    # interpreter finds every one without comparing summands
    from mpreg.bundles import BoxSummand
    from mpreg.cohomology import summand_facts

    cfg = EnumerationConfig(spaces=("P1xP1xP1", "P1xP1xP2"), theorems=("T3", "T2B"))
    first = run_verification(cfg)
    misses = summand_facts.cache_info().misses
    calls = _count_eq(monkeypatch)
    second = run_verification(cfg)
    assert second.total_bundles == 16000
    assert replace(second, elapsed_seconds=0) == replace(first, elapsed_seconds=0)
    assert calls[BoxSummand] == 0
    assert summand_facts.cache_info().misses == misses


def test_unpickled_bundles_match_originals_with_no_new_fact_misses(monkeypatch):
    # equal bundles made anew, which find the originals' records by key
    import pickle

    from mpreg.bundles import BoxSummand
    from mpreg.cohomology import summand_facts
    from mpreg.splitting import TheoremId, verify_bundle

    cfg = EnumerationConfig(spaces=("P2xP2",), degree_min=-1, degree_max=1, cotangent=True,
                            cot_twist_min=-1, cot_twist_max=1, max_summands=3)
    originals = list(itertools.islice(enumerate_bundles(parse_space("P2xP2"), cfg), 0, 3000, 7))
    ids = tuple(TheoremId)

    def verdicts(bundles):
        return [[(v, v.witnesses) for v in verify_bundle(b, ids)] for b in bundles]

    expected = verdicts(originals)
    copies = pickle.loads(pickle.dumps(originals))
    assert all(c is not o and c.summands[0] is not o.summands[0]
               for c, o in zip(copies, originals))
    misses = summand_facts.cache_info().misses
    calls = _count_eq(monkeypatch)
    got = verdicts(copies)
    assert calls[BoxSummand] == 0
    assert summand_facts.cache_info().misses == misses
    monkeypatch.undo()
    assert got == expected


def test_is_acm_called_at_most_once_per_bundle(monkeypatch):
    from collections import Counter

    from mpreg import harness, splitting
    from mpreg.bundles import format_bundle
    from mpreg.splitting import TheoremId, is_acm, verify_theorem

    cfg = EnumerationConfig(spaces=("P1xP1",), degree_min=-2, degree_max=2,
                            max_summands=2, theorems=("T1", "T3"))
    calls = Counter()

    def counting_is_acm(bundle):
        calls[bundle] += 1
        return is_acm(bundle)

    held, expected = set(), []  # the bundles whose condition holds: the cross-check reads ACM
    for bundle in enumerate_bundles(parse_space("P1xP1"), cfg):
        for tid in cfg.theorems:
            if verify_theorem(bundle, TheoremId(tid)).condition_holds:
                held.add(bundle)
                if not is_acm(bundle):
                    expected.append({"type": "t1_without_acm", "space": "P1xP1",
                                     "bundle": format_bundle(bundle), "theorem": tid})
    assert held
    monkeypatch.setattr(splitting, "is_acm", counting_is_acm)
    # T1 and T3 fold: every bundle reads ACM off its summands' bits, the
    # bundles with a finding too
    rep = run_verification(cfg)
    assert not hasattr(harness, "is_acm") and calls == Counter()
    assert [f for f in rep.findings if f["type"] == "t1_without_acm"] == expected


def test_run_verification_reads_reg_and_rank_once_per_bundle(monkeypatch):
    from collections import Counter

    from mpreg import splitting
    from mpreg.bundles import format_bundle

    real_reg, real_rank = splitting.reg, splitting.rank
    regs, ranks = Counter(), Counter()

    def counting_reg(bundle, *args):
        regs[bundle] += 1
        return real_reg(bundle, *args)

    def counting_rank(bundle):
        ranks[bundle] += 1
        return real_rank(bundle)

    monkeypatch.setattr(splitting, "reg", counting_reg)
    monkeypatch.setattr(splitting, "rank", counting_rank)
    # the harness imports no rank; were it to, its reads would count too
    monkeypatch.setattr(harness, "rank", counting_rank, raising=False)
    cfg = EnumerationConfig(spaces=("P2xP2",), cotangent=True, theorems=("T0", "T4"))
    regular = run_verification(cfg)
    windows = run_verification(EnumerationConfig(spaces=("P1xP1xP2",), theorems=("T3", "T2B")))
    assert (regular.total_bundles, windows.total_bundles) == (5150, 8000)
    assert max(regs.values()) == 1
    # the summand masks decide the Reg gate: reg runs, in verify_bundle, only
    # on the Reg = 0 bundles, and only they go on to need the rank
    applicable = regular.per_theorem["T4"].applicable
    assert 0 < applicable == regular.per_theorem["T0"].applicable < 5150
    assert set(regs) == {b for b in enumerate_bundles(parse_space("P2xP2"), cfg)
                         if real_reg(b) == 0}
    assert sum(regs.values()) == applicable
    # T3 and T2B fold, and their families ignore the rank: a bundle with a
    # finding gets its verdicts off the mask, with no rank read
    found = {f["bundle"] for f in windows.findings}
    assert 0 < len(found) < 8000
    # verify_bundle reads the rank once per bundle; the witnesses of an
    # inconsistent T0 or T4 finding, whose family reads the rank, read it
    # once more off the bundle, and no other reader does
    witnessed = Counter(f["bundle"] for f in regular.findings if f["type"] == "inconsistent")
    assert witnessed and len(ranks) == applicable
    assert +Counter({format_bundle(b): n - 1 for b, n in ranks.items()}) == witnessed


def test_run_verification_detects_at_most_once_per_applicable_bundle(monkeypatch):
    from collections import Counter

    from mpreg import splitting
    from mpreg.regularity import reg
    from mpreg.splitting import verify_theorem

    real_detect, real_verify = splitting.detect_extremal_summand, harness.verify_bundle
    detections, verified = Counter(), []

    def counting_detect(bundle, *args, **kwargs):
        detections[bundle] += 1
        return real_detect(bundle, *args, **kwargs)

    def recording_verify(bundle, ids):
        verified.append(bundle)
        return real_verify(bundle, ids)

    monkeypatch.setattr(splitting, "detect_extremal_summand", counting_detect)
    monkeypatch.setattr(harness, "verify_bundle", recording_verify)
    cfg = EnumerationConfig(spaces=("P2xP2",), cotangent=True, theorems=("T0", "T4"))
    rep = run_verification(cfg)
    monkeypatch.undo()
    applicable = rep.per_theorem["T4"].applicable
    assert 0 < applicable == rep.per_theorem["T0"].applicable
    assert max(detections.values()) == 1
    assert sum(detections.values()) == applicable
    # T0 and T4 fail only the Reg gate, decided from the summand masks with no verdict pass
    irregular = [b for b in enumerate_bundles(parse_space("P2xP2"), cfg) if reg(b) != 0]
    assert rep.per_theorem["T0"].not_applicable == rep.per_theorem["T4"].not_applicable
    assert rep.per_theorem["T4"].not_applicable == len(irregular) == 5150 - applicable
    assert len(verified) == applicable and not set(verified) & set(irregular)
    # the reason, with Reg's value in it, is the verdict's
    for bundle in irregular[::97]:
        for tid in ("T0", "T4"):
            assert verify_theorem(bundle, tid).reason == f"Reg must be 0, got {reg(bundle)}"


def test_run_verification_builds_verdicts_only_for_findings(monkeypatch):
    from mpreg.splitting import TheoremVerdict

    real_init, built = TheoremVerdict.__init__, []

    def counting_init(self, theorem, *args, **kwargs):
        built.append(theorem)
        real_init(self, theorem, *args, **kwargs)

    monkeypatch.setattr(TheoremVerdict, "__init__", counting_init)
    t3 = run_verification(EnumerationConfig(spaces=("P1xP1xP1",), theorems=("T3",)))
    assert t3.total_bundles == 8000 and t3.findings == []
    assert built == []
    t2b = run_verification(EnumerationConfig(spaces=("P1xP1xP1",), theorems=("T2B",)))
    found = {(f["bundle"], f["theorem"]) for f in t2b.findings}
    assert found and t2b.per_theorem["T2B"].inconsistent == len(found)
    assert len(built) == len(found)
    # both: on a bundle with a finding only the check that reports one gets
    # a verdict, and T3, which agrees there, is tallied off the mask
    built.clear()
    both = run_verification(EnumerationConfig(spaces=("P1xP1xP1",), theorems=("T3", "T2B")))
    assert both.findings == t2b.findings and built == ["T2B"] * len(found)
    assert both.per_theorem == {**t3.per_theorem, **t2b.per_theorem}


def test_masks_are_decoded_once_per_process(monkeypatch):
    # the first run decodes each distinct (checks, mask) pair once; a second
    # run of the same family, with the memos kept, decodes none again
    real, decodes = harness.mask_checks, []

    def counting(key, mask):
        decodes.append((key, mask))
        return real(key, mask)

    monkeypatch.setattr(harness, "mask_checks", counting)
    harness._decoded.cache_clear()
    cfg = EnumerationConfig(spaces=("P1xP1xP1", "P1xP1xP2"), theorems=("T3", "T2B"))
    first = run_verification(cfg)
    assert decodes and len(decodes) == len(set(decodes)) == harness._decoded.cache_info().misses
    decodes.clear()
    second = run_verification(cfg)
    assert decodes == []
    assert (second.total_bundles, second.findings) == (first.total_bundles, first.findings)


def _recording_class_windows(monkeypatch) -> set:
    """The keys (space, factors, family, r) that regularity._class_windows
    reads from now on, from an empty memo."""
    from mpreg import regularity

    real, keys = regularity._class_windows, set()

    def recording(space, factors, family, r):
        keys.add((space, factors, family, r))
        return real(space, factors, family, r)

    real.cache_clear()
    monkeypatch.setattr(regularity, "_class_windows", recording)
    return keys


def test_rank_free_families_keep_one_window_entry_per_summand(monkeypatch):
    # T3's, T2B's and the ACM family ignore the rank, so the diagonal class
    # of a summand of a rank-1 and of a rank-2 bundle takes one class pass
    # for its folded bits, and the witnesses of a finding read each of its
    # windows at rank 0, once
    from mpreg import regularity, splitting
    from mpreg.bundles import parse_bundle
    from mpreg.cohomology import summand_facts
    from mpreg.splitting import (_acm_family, _exact_family, _interior_family, _step_family,
                                 verify_theorem)

    real_pass, passes = splitting._class_bits, []

    def recording_pass(space, diagonal, spread, folds):
        passes.append((space, diagonal, spread, folds))
        return real_pass(space, diagonal, spread, folds)

    summand_facts.cache_clear()
    real_pass.cache_clear()
    monkeypatch.setattr(splitting, "_class_bits", recording_pass)
    memo, keys = regularity._class_windows, _recording_class_windows(monkeypatch)
    space = parse_space("P1xP1xP1")
    cfg = EnumerationConfig(spaces=("P1xP1xP1",), theorems=("T3", "T2B"))
    rep = run_verification(cfg)
    assert rep.total_bundles == 125 + 125 * 126 // 2
    records = [summand_facts(space.dims, s.key) for s in enumerate_summands(space, cfg)]
    # one record per summand, and none for a diagonal class
    assert summand_facts.cache_info().currsize == len(set(records)) == 125
    # folded bits are kept per diagonal class, keyed on the atoms with first
    # twist 0: the 61 classes O(0, b, c) of the 125 summands, with no rank
    assert len(passes) == 125 and real_pass.cache_info().currsize == len(set(passes)) == 61
    assert {f.diagonal for f in records} == {diagonal for _, diagonal, _, _ in passes}
    assert all(diagonal[0][2] == 0 for _, diagonal, _, _ in passes)
    # the witnesses of a finding read class windows, at rank 0, one entry each
    assert rep.findings and memo.cache_info().currsize == len(keys)
    assert {family for _, _, family, _ in keys} <= {_exact_family, _step_family, _acm_family}
    assert all(r == 0 and factors[0][2] == 0 for _, factors, _, r in keys)
    mask_key = ("T3", "T2B")  # the run's summand masks, and nothing else
    assert all(f.masks[mask_key] >= 0 for f in records)
    assert all(set(f.masks) == {mask_key} for f in records)
    # a verdict whose family reads the rank reads its witnesses at the
    # bundle's own rank
    _, b = parse_bundle("P1xP1xP1", "O(0,0,0) + O(1,1,1)")
    verdict = verify_theorem(b, "T4")
    keys.clear()
    assert verdict.applicable and verdict.witnesses is verdict.witnesses
    assert {(family, r) for _, _, family, r in keys} == {(_interior_family, 2)}


def test_only_diagonal_classes_keep_windows(monkeypatch, capsys):
    # sweeps, gated verdicts, witnesses, CLI queries and points off the
    # diagonal all read windows through diagonal classes, keyed on atoms
    # whose first twist is 0: no record keeps a window entry
    from mpreg import cli, cohomology, splitting
    from mpreg.bundles import parse_bundle
    from mpreg.cohomology import SummandFacts, summand_facts
    from mpreg.regularity import regularity_failures
    from mpreg.splitting import TheoremId

    seen = []

    def recording(dims, key):
        seen.append(summand_facts(dims, key))
        return seen[-1]

    summand_facts.cache_clear()
    keys = _recording_class_windows(monkeypatch)
    for module in (cohomology, splitting, harness):
        monkeypatch.setattr(module, "summand_facts", recording)
    try:
        windows = run_verification(EnumerationConfig(
            spaces=("P1xP1xP1", "P1xP1xP2"), degree_min=-1, degree_max=1,
            theorems=("T3", "T2B", "T4")))
        regular = run_verification(EnumerationConfig(
            spaces=("P2xP2",), degree_min=-1, degree_max=1, cotangent=True, cot_twist_min=-1,
            cot_twist_max=1, theorems=("T0", "T4")))
        assert windows.findings and regular.total_bundles
        bundle = "O(3,-2) + W1(5)*O(-4) + O(1)*W1(2)"
        for argv in (["reg", "--format", "json"], ["acm"], ["check", "--theorem", "T4"],
                     ["check", "--theorem", "T0"]):
            assert cli.main([*argv, "--space", "P2xP2", "--bundle", bundle]) in (0, 3, 4)
        capsys.readouterr()
        _, b = parse_bundle("P2xP2", bundle)
        assert regularity_failures(b, (2, -3)) and regularity_failures(b, (-3, 4), "hw")
        twisted = {id(f): f for f in seen if f.atoms[0][2]}.values()
        assert SummandFacts.__slots__ == ("atoms", "diagonal", "spread", "masks", "regs",
                                          "tags")
        assert len(twisted) > 50 and len(keys) > 50
        assert [factors for _, factors, _, _ in keys if factors[0][2]] == []
        # a record keeps sweep masks only, each under a tuple of check ids:
        # verdicts, acm and check read their bits off the windows, kept nowhere
        assert any(f.masks for f in seen)
        assert [key for f in seen for key in f.masks
                if not (isinstance(key, tuple) and set(key) <= set(TheoremId))] == []
    finally:
        summand_facts.cache_clear()


def test_class_windows_are_read_on_each_records_own_diagonal(monkeypatch):
    # a sweep, is_acm, reg and witnesses on summands with first twists other
    # than 0 key every class-window read on the reading record's diagonal
    # slot itself: no read builds a key
    from mpreg import regularity
    from mpreg.cohomology import summand_facts, summand_records
    from mpreg.regularity import reg
    from mpreg.splitting import acm_witnesses, condition_for, is_acm

    real, keys = regularity._class_windows, []

    def recording(space, factors, family, r):
        keys.append(factors)
        return real(space, factors, family, r)

    summand_facts.cache_clear()
    real.cache_clear()
    monkeypatch.setattr(regularity, "_class_windows", recording)
    try:
        cfg = EnumerationConfig(spaces=("P1xP1xP1",), degree_min=-2, degree_max=2,
                                max_summands=2, theorems=("T3", "T2B"))
        assert run_verification(cfg).findings
        records = [summand_facts((1, 1, 1), s.key)
                   for s in enumerate_summands(parse_space("P1xP1xP1"), cfg)]
        text = "O(-30,12) + W1(7)*O(20) + O(3,-17)"
        space, b = parse_bundle("P2xP3", text)
        records += summand_records(b)
        assert not is_acm(b) and acm_witnesses(b) and reg(b) > 0
        _, c1 = parse_bundle("P1xP2", "O(4,4) + O(4,6)")
        records += summand_records(c1)
        assert condition_for(c1, "C1")[1]
        diagonals = {id(f.diagonal) for f in records}
        assert sum(f.diagonal is not f.atoms for f in records) > 50
        assert len(keys) > 100 and all(id(factors) in diagonals for factors in keys)
    finally:
        summand_facts.cache_clear()
        real.cache_clear()


def test_comparison_requires_two_factors():
    from mpreg.bundles import ArityError, parse_bundle

    _, b = parse_bundle("P1xP1xP1", "O(0,0,0)")
    with pytest.raises(ArityError):
        compare_regularity_definitions([b])


def test_comparison_report_shape():
    cfg = EnumerationConfig(spaces=("P1xP1",), degree_min=-1, degree_max=1,
                            max_summands=1)
    bundles = list(enumerate_bundles(parse_space("P1xP1"), cfg))
    rep = compare_regularity_definitions(bundles, p_range=(-1, 1))
    assert rep["checked_bundles"] == len(bundles)
    assert rep["hw_implies_box_violations"] == []
    assert isinstance(rep["shift_literal_violations"], list)
    assert isinstance(rep["shift_swapped_violations"], list)


def test_comparison_probes_summands_and_reports_as_a_per_bundle_loop(monkeypatch):
    # every real family tried reports no violations, so a synthetic
    # summand-wise predicate stands in for is_regular_at: a bundle is
    # "regular" where every summand's integers, point and definition mix to
    # a nonzero residue
    from mpreg.bundles import format_bundle, format_space

    probed = []

    def synthetic(bundle, point, definition):
        probed.append((bundle.space, bundle.summands, point, definition))
        return all((sum(s.key) + 7 * point[0] + 11 * point[1] + 13 * (definition == "hw")) % 4
                   for s in bundle.summands)

    def per_bundle(bundles, lo, hi):
        report = {"checked_bundles": 0, "hw_implies_box_violations": [],
                  "shift_literal_violations": [], "shift_swapped_violations": []}
        for b in bundles:
            (n, m), name, space = b.space.dims, format_bundle(b), format_space(b.space)
            report["checked_bundles"] += 1
            for p in range(lo, hi + 1):
                for q in range(lo, hi + 1):
                    if synthetic(b, (p, q), "hw") and not synthetic(b, (p, q), "paper"):
                        report["hw_implies_box_violations"].append(
                            {"bundle": name, "space": space, "p": (p, q)})
            for p in range(lo, hi + 1):
                for key, shifted in (("shift_literal_violations", (p - m + 1, p - n + 1)),
                                     ("shift_swapped_violations", (p - n + 1, p - m + 1))):
                    if synthetic(b, shifted, "paper") and not synthetic(b, (p, p), "hw"):
                        report[key].append({"bundle": name, "space": space, "p": p})
        return report

    cfg = EnumerationConfig(spaces=("P1xP2", "P2xP2"), degree_min=-1, degree_max=1,
                            cotangent=True, cot_twist_min=-1, cot_twist_max=0)
    bundles = [b for text in cfg.spaces for b in enumerate_bundles(parse_space(text), cfg)]
    expected = per_bundle(bundles, -2, 2)
    assert all(expected[key] for key in expected if key != "checked_bundles")
    probed.clear()
    monkeypatch.setattr(harness, "is_regular_at", synthetic)
    assert compare_regularity_definitions(bundles, p_range=(-2, 2)) == expected
    # one probe per distinct (space, summand, point, definition), each of one summand
    assert all(len(summands) == 1 for _, summands, _, _ in probed)
    assert len(set(probed)) == len(probed)


# ---------------------------------------------------------------------------
# CLI


def run_cli(*args, env=None):
    cmd = [sys.executable, "-m", "mpreg.cli", *args]
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(cmd, capture_output=True, text=True, env=full_env,
                          timeout=300)


COHOMOLOGY_SCHEMA = {
    "type": "object",
    "required": ["space", "bundle", "entries"],
    "properties": {
        "space": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "bundle": {"type": "string"},
        "entries": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["i", "t", "dim"],
                "properties": {
                    "i": {"type": "integer", "minimum": 0},
                    "t": {"type": "array", "items": {"type": "integer"}},
                    "dim": {"type": "string", "pattern": "^[0-9]+$"},
                },
            },
        },
    },
}

CHECK_SCHEMA = {
    "type": "object",
    "required": ["theorem", "condition", "form", "consistent", "witnesses",
                 "detected"],
    "properties": {
        "theorem": {"type": "string"},
        "condition": {"type": ["boolean", "null"]},
        "form": {"type": ["boolean", "null"]},
        "consistent": {"type": ["boolean", "null"]},
        "witnesses": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["i", "k", "t", "dim"],
                "properties": {"dim": {"type": "string", "pattern": "^[0-9]+$"}},
            },
        },
        "detected": {"type": "array", "items": {"type": "string"}},
    },
}


def test_cli_cohomology_json_schema():
    res = run_cli("cohomology", "--space", "P1xP2", "--bundle", "O(0,2)",
                  "--twist-range=-2..0", "--format", "json")
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    if jsonschema is not None:
        jsonschema.validate(payload, COHOMOLOGY_SCHEMA)
    assert payload["space"] == [1, 2]
    assert {"i": 0, "t": [0, 0], "dim": "6"} in payload["entries"]


def test_cli_cohomology_csv():
    res = run_cli("cohomology", "--space", "P1xP1", "--bundle", "O(-2,-2)",
                  "--twist-range", "0..0", "--format", "csv")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "i,t_1,t_2,dim"
    assert "2,0,0,1" in lines[1:]


def test_cli_cohomology_per_factor_ranges():
    res = run_cli("cohomology", "--space", "P1xP2", "--bundle", "O(0,0)",
                  "--twist-range=0..1,-1..0", "--format", "json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    ts = {tuple(e["t"]) for e in payload["entries"]}
    assert ts <= {(0, -1), (0, 0), (1, -1), (1, 0)}


def test_cli_bad_range_exits_2():
    res = run_cli("cohomology", "--space", "P1xP1", "--bundle", "O(0,0)",
                  "--twist-range", "5..1")
    assert res.returncode == 2
    assert "error" in res.stderr.lower()


def test_cli_oversized_twist_box_exits_2_at_once():
    start = time.perf_counter()
    res = run_cli("cohomology", "--space", "P1xP1", "--bundle", "O(0,0)",
                  "--twist-range=-3000..3000")
    assert res.returncode == 2
    assert "twist vectors" in res.stderr
    assert time.perf_counter() - start < 10


def test_cli_oversized_space_exits_2_at_once():
    start = time.perf_counter()
    res = run_cli("reg", "--space", "P3000", "--bundle", "O(0)")
    assert res.returncode == 2
    assert "exceeds" in res.stderr
    assert time.perf_counter() - start < 10


_MANY_FACTORS = ("--space", "P1xP1xP1xP1xP1xP1xP1xP2", "--bundle",
                 "O(0,1,0,1,0,1,0,2) + O(-1)*O(0)*O(1)*O(0)*O(-1)*O(0)*O(1)*W1(1)")


@pytest.mark.parametrize("command", [("reg",), ("check", "--theorem", "T3"), ("acm",)])
def test_cli_many_factor_space_answers(command):
    # eight factors, size 3456 within MAX_SPACE_SIZE: answered with the normal code
    res = run_cli(*command, *_MANY_FACTORS, "--format", "json")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["space"] == [1] * 7 + [2]


def test_cli_parse_error_exits_2():
    res = run_cli("reg", "--space", "P1xP1", "--bundle", "O(0,0")
    assert res.returncode == 2


def test_cli_reg_hw_flag():
    res = run_cli("reg", "--space", "P1xP1", "--bundle", "O(2,-1)",
                  "--definition", "hw", "--format", "json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["definition"] == "hw"
    assert payload["value"] == 1


def test_cli_reg_hw_three_factors_exits_2():
    res = run_cli("reg", "--space", "P1xP1xP1", "--bundle", "O(0,0,0)",
                  "--definition", "hw")
    assert res.returncode == 2


@pytest.mark.parametrize(
    "space,bundle,expected",
    [
        ("P1xP1", "O(-20000,-20000)", 20000),
        ("P1xP1", "O(20000,0)", 0),
        ("P2xP2", "O(20000,0)", 0),
        ("P2xP2", "O(-20,-20)", 20),
        ("P2xP2", "O(200,0)", 0),
    ],
)
def test_cli_reg_far_from_the_degrees(space, bundle, expected):
    res = run_cli("reg", "--space", space, "--bundle", bundle, "--format", "json")
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["value"] == expected
    assert payload["monotone_checked"] is True


def test_cli_reg_probes_h_bundle_only_for_the_failures_it_prints(monkeypatch, capsys):
    # Reg, the monotone step and the failures at Reg - 1 are read from the
    # windows; h_bundle runs once per printed failure, for its dimension
    from mpreg import cli, regularity

    calls, h_bundle = [], regularity.h_bundle

    def counting(bundle, tvec, i):
        calls.append((tuple(tvec), i))
        return h_bundle(bundle, tvec, i)

    monkeypatch.setattr(regularity, "h_bundle", counting)
    argv = ["reg", "--space", "P2xP2", "--bundle", "W1(3)*O(-2) + O(5,-7)",
            "--definition", "hw", "--format", "json"]
    assert cli.main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["monotone_checked"] is True
    assert len(calls) == len(payload["failures"]) == 1
    _, b = parse_bundle("P2xP2", "W1(3)*O(-2) + O(5,-7)")
    calls.clear()
    assert regularity.is_regular_at(b, payload["value"] + 1, "hw")
    assert calls == []


def test_cli_acm():
    res = run_cli("acm", "--space", "P1xP2", "--bundle", "O(0,2)",
                  "--format", "json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["acm"] is False
    assert payload["witnesses"]


def test_cli_check_consistent_json():
    res = run_cli("check", "--space", "P1xP2", "--bundle", "O(1,1)",
                  "--theorem", "T1", "--format", "json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    if jsonschema is not None:
        jsonschema.validate(payload, CHECK_SCHEMA)
    assert payload["theorem"] == "T1"
    assert payload["consistent"] is True


def test_cli_check_inconsistent_exits_3():
    # a frozen nonsplitting gap: condition holds, the form does not
    res = run_cli("check", "--space", "P3xP3", "--bundle", "O(0,2) + O(1,1)",
                  "--theorem", "P4", "--format", "json")
    assert res.returncode == 3
    payload = json.loads(res.stdout)
    assert payload["condition"] is True and payload["form"] is False


def test_cli_check_precondition_exits_4():
    res = run_cli("check", "--space", "P2xP3", "--bundle", "O(3,3)",
                  "--theorem", "T0", "--format", "json")
    assert res.returncode == 4
    payload = json.loads(res.stdout)
    assert payload["applicable"] is False
    assert "Reg" in payload["reason"]


def test_cli_classify():
    res = run_cli("classify", "--space", "P2xP3", "--bundle",
                  "O(0,0) + O(1,1)", "--format", "json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["rank"] == 2
    assert payload["reg"] == 0
    assert payload["forms"]["T1"] is True
    assert "Triv" in payload["detected"]


def test_cli_verify_paper_with_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "spaces = P1xP1\ndegrees = -1..1\nmax_summands = 2\ntheorems = T1, T2\n"
    )
    res = run_cli("verify-paper", "--config", str(cfg), "--format", "json")
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["ok"] is True
    assert payload["total_bundles"] == 54
    assert payload["per_theorem"]["T1"]["inconsistent"] == 0


def test_cli_verify_paper_inconsistent_exits_3(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "spaces = P3xP3\ndegrees = -2..2\nmax_summands = 2\ntheorems = P4\n"
    )
    res = run_cli("verify-paper", "--config", str(cfg), "--format", "json")
    assert res.returncode == 3
    payload = json.loads(res.stdout)
    assert payload["ok"] is False
    assert payload["per_theorem"]["P4"]["inconsistent"] == 11


def test_cli_verify_paper_bad_config_exits_2(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("spaces = P1xP1\ndegrees = 2..-2\n")
    res = run_cli("verify-paper", "--config", str(cfg))
    assert res.returncode == 2


def test_cli_verify_paper_over_the_bundle_budget_exits_2_at_once(tmp_path):
    # about 1.04e13 bundles: 63 atoms per factor, 3969 summands, up to 4 of them
    cfg = tmp_path / "run.cfg"
    cfg.write_text("spaces = P3xP3\ndegrees = -10..10\ncotangent = on\n"
                   "cotangent_twists = -10..10\nmax_summands = 4\n")
    start = time.perf_counter()
    res = run_cli("verify-paper", "--config", str(cfg))
    assert res.returncode == 2
    assert "MAX_BUNDLES" in res.stderr
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize(
    "argv, config",
    [
        (["--theorem", "T1", "--theorem", "t1"], "spaces = P1xP1\n"),
        ([], "spaces = P1xP1\ntheorems = T1, T1\n"),
        ([], "spaces = P1xP1\ntheorems =\n"),
    ],
    ids=["repeated-flag", "repeated-in-config", "empty-in-config"],
)
def test_cli_verify_paper_empty_or_repeated_ids_exit_2(tmp_path, capsys, argv, config):
    from mpreg import cli

    path = tmp_path / "run.cfg"
    path.write_text(config)
    assert cli.main(["verify-paper", "--config", str(path), *argv]) == 2
    assert "check id" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", [1, 0, 2], ids=["jobs-1", "jobs-0", "jobs-2"])
def test_cli_config_key_jobs_is_unknown(tmp_path, capsys, jobs):
    # parallel runs and the config key jobs are gone: even jobs = 1 is refused
    from mpreg import cli

    path = tmp_path / "run.cfg"
    path.write_text(f"spaces = P1xP1\ndegrees = -1..0\ntheorems = T1\njobs = {jobs}\n")
    assert cli.main(["verify-paper", "--config", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: line 4: unknown key 'jobs'\n")
    with pytest.raises(ConfigError, match="^line 1: unknown key 'jobs'$"):
        parse_config_text(f"jobs = {jobs}\nspaces = P1xP1")


@pytest.mark.parametrize("argv", [[], ["--theorem", "T1"]], ids=["all-ids", "one-id"])
def test_cli_verify_paper_empty_config_path_exits_2(capsys, argv):
    # an empty path names no file; only a missing --config runs the default battery
    from mpreg import cli

    assert cli.main(["verify-paper", "--config", "", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


_BATTERY = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "run_verification.py")


@pytest.mark.parametrize("cmd", [["-m", "mpreg.cli", "verify-paper"], [_BATTERY, "--quick"]],
                         ids=["cli", "battery-script"])
def test_jobs_flag_is_a_usage_error(cmd):
    res = subprocess.run([sys.executable, *cmd, "--jobs", "2"], capture_output=True, text=True,
                         timeout=300)
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr.startswith("usage: ")
    assert res.stderr.endswith("error: unrecognized arguments: --jobs 2\n")


_ACM_SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                           "acm_discrepancy.py")


@pytest.mark.parametrize("argv,out,err", [
    (["--space", "P1xP1xP1", "--variant", "b2"], "",
     "error: variant 'b2' is a two-factor statement\n"),
    (["--bound", "-1"], "", "error: empty degree range 1..-1\n"),
    (["--space", "P1xP1xP1", "--bound", "1"],
     "P1xP1xP1 variant=b3 degrees [-1, 1]: 0 disagreement(s)\ntotal disagreements: 0\n", ""),
], ids=["b2-asked-off-two-factors", "empty-grid", "b2-skipped-by-default"])
def test_acm_discrepancy_script_refuses_what_it_cannot_sweep(capsys, argv, out, err):
    # an explicit b2 on a space without two factors exits 2, as does an empty
    # grid; only the default pass over both variants skips b2 there
    import importlib.util

    spec = importlib.util.spec_from_file_location("acm_discrepancy_script", _ACM_SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(argv) == (2 if err else 0)
    assert capsys.readouterr() == (out, err)


def test_cli_import_loads_no_process_pool():
    code = ("import sys, mpreg.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert (res.returncode, res.stdout) == (0, "[]\n")


def test_cli_classify_computes_reg_once(monkeypatch, capsys):
    from mpreg import cli, splitting
    from mpreg.regularity import reg as real_reg

    calls = []

    def counting_reg(*args, **kwargs):
        calls.append(args)
        return real_reg(*args, **kwargs)

    monkeypatch.setattr(cli, "reg", counting_reg)
    monkeypatch.setattr(splitting, "reg", counting_reg)
    code = cli.main(["classify", "--space", "P2xP3", "--bundle", "O(0,0) + O(0,1)"])
    assert code == 0
    assert "detected: E01, Triv" in capsys.readouterr().out
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# JSON output and the CLI contract

_JSON_STRINGS = st.one_of(
    st.text(),
    st.sampled_from(["", "\x00\x1f\x7f", "é \U0001F600", "\ud800", '"\\/\b\f\n\r\t']),
)
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), _JSON_STRINGS,
    st.integers(), st.integers(2**64, 2**200), st.integers(-2**200, -2**64),
    st.floats(allow_nan=False, allow_infinity=False),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_JSON_STRINGS, inner, max_size=4)),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_json_writer_matches_the_stdlib_indent_2_sort_keys(value):
    from mpreg import cli

    parts = []
    cli._json(value, "", parts)
    assert "".join(parts) == json.dumps(value, indent=2, sort_keys=True)


def _cli_contract(argv):
    """cli.main(argv) returns 0, 2, 3 or 4 (argparse's SystemExit(2) counts as
    2) and raises nothing else; JSON output is the stdlib's indent=2,
    sort_keys=True rendering of itself.  Returns (code, stdout)."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    from mpreg import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    text = out.getvalue()
    if argv[argv.index("--format") + 1] == "json" and code != 2:
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", argv
    return code, text


_CLI_SPACES = ("P1", "P2", "P1xP1", "P1xP2", "P2xP3", "P1xP1xP1", "P2xP1xP1xP1")
_CLI_BAD_SPACES = st.one_of(st.sampled_from(["P3000", "P0", "P1x", ""]),
                            st.text("P0123x ", max_size=8))
_CLI_BAD_BUNDLES = st.one_of(
    st.sampled_from(["O(1", "O(0,1,2)", "W9(1)*O(0)", "O(10**30)", "O(99999999999999999999,0)"]),
    st.text("OW()0123-,*+@ ", max_size=16),
)
# each refused on every space of _CLI_SPACES: five ranges are more than any
# has factors, and 120001 twists per factor exceed MAX_TABLE_TWISTS
_CLI_BAD_RANGES = st.sampled_from(["5..1", "-60000..60000", "1..", "a..b",
                                   "0..1,0..1,0..1,0..1,0..1", "-1..1,", "1_0..1_1", "+1..2"])


@st.composite
def _cli_calls(draw):
    """(argv, bad range) for calls of every subcommand with every required
    option: about a third of them have a malformed space, bundle or twist
    range, and some an option value argparse refuses.  The flag tells whether
    a malformed twist range was drawn."""
    command = draw(st.sampled_from(["cohomology", "reg", "acm", "check", "classify",
                                    "verify-paper"]))
    argv, bad = [command], draw(st.sampled_from(["", "", "", "space", "bundle", "range"]))
    if command == "verify-paper":  # a run on a good config is the next test
        argv += ["--config", draw(st.sampled_from(["no-such-file.cfg", ".", ""]))]
        if draw(st.booleans()):
            argv += ["--theorem", draw(st.sampled_from(["T1", "t3", "T9"]))]
    else:
        space = draw(st.sampled_from(_CLI_SPACES))
        dims = [int(n) for n in space[1:].split("xP")]
        degree = st.integers(-4, 4)
        atom = st.one_of(degree.map("O({})".format),
                         st.builds("W{}({})".format, st.integers(0, max(dims)), degree))
        bundle = " + ".join("*".join(draw(atom) for _ in dims)
                            for _ in range(draw(st.integers(1, 3))))
        argv += ["--space", draw(_CLI_BAD_SPACES) if bad == "space" else space,
                 "--bundle", draw(_CLI_BAD_BUNDLES) if bad == "bundle" else bundle]
    if command == "cohomology":
        box = ",".join(f"{lo}..{lo + w}" for lo, w in draw(
            st.lists(st.tuples(st.integers(-5, 3), st.integers(0, 4)), min_size=1, max_size=3)))
        argv.append("--twist-range=" + (draw(_CLI_BAD_RANGES) if bad == "range" else box))
    bad_range = command == "cohomology" and bad == "range"
    if command == "check":
        argv += ["--theorem", draw(st.sampled_from(["T1", "t2b", "P4B", "C2", "T0", "T9"]))]
    if command == "reg" and draw(st.booleans()):
        argv += ["--definition", draw(st.sampled_from(["paper", "hw", "HW"]))]
    return argv + ["--format", draw(st.sampled_from(["json", "json", "text", "csv"]))], bad_range


@settings(max_examples=300, deadline=None)
@given(_cli_calls())
def test_cli_returns_a_documented_exit_code_and_stdlib_json(call):
    argv, bad_range = call
    code, _ = _cli_contract(argv)
    if bad_range:
        assert code == 2, argv


@pytest.mark.parametrize("bounds", ["1_0..1_1", "+1..2"])
def test_cli_refuses_range_bounds_that_bundle_text_would_not_read(bounds):
    # int() reads 1_0 as 10 and +1 as 1; a range bound is written -?digits
    argv = ["cohomology", "--space", "P1xP1", "--bundle", "O(1,1)", f"--twist-range={bounds}",
            "--format", "json"]
    assert _cli_contract(argv)[0] == 2


def test_cli_contract_holds_for_verify_paper_on_a_tiny_config(tmp_path):
    # the one payload with a float, elapsed_seconds
    path = tmp_path / "run.cfg"
    path.write_text("spaces = P1xP1, P1xP1xP1\ndegrees = -2..0\nmax_summands = 2\n")
    code, text = _cli_contract(["verify-paper", "--config", str(path), "--format", "json"])
    assert code == 3 and isinstance(json.loads(text)["elapsed_seconds"], float)
    assert _cli_contract(["verify-paper", "--config", str(path), "--format", "text"])[0] == 3


_QUERY = ["--space", "P1xP1", "--bundle", "O(1,1)"]
_ARGPARSE_EDGES = [
    ["--help"], [], ["nosuch", *_QUERY], ["--jobs", "2"], ["--", "reg", *_QUERY],
    *([command, "-h"] for command in ("cohomology", "reg", "acm", "check", "classify",
                                      "verify-paper")),
    ["reg", *_QUERY, "--jobs", "2"], ["verify-paper", "--jobs", "2"],
    ["reg", "--spa", "P1xP1", "--bundle", "O(1,1)", "--form", "json"],
    ["check", *_QUERY, "--theorem", "T9"], ["check", *_QUERY, "--theorem", "t2b"],
    ["reg", *_QUERY, "--definition", "xx"],
    ["acm", "--space", "P1xP1"], ["classify", *_QUERY, "--format", "json", "--format", "text"],
    ["reg", *_QUERY, "stray"], ["reg", *_QUERY, "--", "stray"], ["reg", "--", *_QUERY],
    ["reg", *_QUERY, "--bogus"], ["reg", *_QUERY, "--help", "--bogus"],
    ["cohomology", *_QUERY, "--twist-range", "-1..1"],
    ["cohomology", *_QUERY, "--twist-range=-1..1", "--format", "csv"],
    ["check", "--space", "P1xP1xP1", "--bundle", "O(0,1,2)", "--theorem", "T2B"],
]


def _answer(run, argv):
    """(exit code, stdout, stderr) of run(argv), argparse's exits included."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _nested_parse(argv):
    # one parse of the whole argv by the top parser, which nests the
    # subcommand's parse and refuses what it leaves over
    from mpreg import cli

    args = cli.build_parser().parse_args(argv)
    return args.func(args, sys.stdout)


@pytest.mark.parametrize("argv", _ARGPARSE_EDGES, ids=lambda argv: " ".join(argv) or "no arguments")
def test_cli_main_answers_like_the_nested_argparse_parse(argv):
    from mpreg import cli

    assert _answer(cli.main, argv) == _answer(_nested_parse, argv)

"""The benchmark's traced mode wraps program functions by name; each name
it lists must still exist, or ``perfbench/run.py --trace 1`` fails."""

import importlib
import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module, function, _ in tracing.TRACED:
        target = importlib.import_module(f"mpreg.{module}")
        assert callable(getattr(target, function, None)), f"mpreg.{module}.{function}"


_RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def test_benchmark_reset_clears_every_memo():
    # The benchmark empties the program's caches before each round; a memo it
    # cannot find would stay warm across rounds and change what is measured.
    from mpreg import bundles, cohomology, harness, regularity, splitting
    from mpreg.bundles import parse_bundle

    spec = importlib.util.spec_from_file_location("perfbench_run", _RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    memos = (regularity.offsets, regularity._untwisted_windows, regularity._class_windows,
             splitting._class_bits, cohomology.summand_facts, bundles.parse_space,
             harness._family_size, harness._space_checks, harness._decoded)
    _, b = parse_bundle("P2xP2", "O(0,0) + W1(1)*O(-1)")
    _, b0 = parse_bundle("P2xP2", "O(0,0) + O(0,1)")  # Reg 0, so T0 and T4 detect
    before = [splitting.verify_theorem(x, tid) for x in (b, b0) for tid in splitting.TheoremId]
    cfg = harness.EnumerationConfig(spaces=("P1xP1",), degree_min=0, degree_max=1,
                                    theorems=("T3", "T2B"))
    swept = harness.run_verification(cfg).per_theorem
    assert all(memo.cache_info().currsize for memo in memos)
    caches = list(run.program_caches().values())
    for memo in memos:
        assert any(cache is memo for cache in caches), memo.__qualname__
    # the closed-form reference (the Euler-sequence oracle) keeps its own
    # cache, outside the verdict path
    references = {"mpreg.cohomology.oracle_euler_sequence"}
    engine = {name for name in run.program_caches()
              if name.startswith(("mpreg.cohomology.", "mpreg.regularity.", "mpreg.splitting."))}
    assert engine - references == {"mpreg.regularity.offsets",
                                   "mpreg.regularity._untwisted_windows",
                                   "mpreg.regularity._class_windows",
                                   "mpreg.splitting._class_bits",
                                   "mpreg.cohomology.summand_facts"}
    # the harness checks a config's family, plans its spaces' checks and
    # decodes each summand mask once per process
    assert {name for name in run.program_caches() if name.startswith("mpreg.harness.")} == {
        "mpreg.harness._family_size", "mpreg.harness._space_checks", "mpreg.harness._decoded"}
    # nothing is cached on a model object: a summand or a space holds what it was made with
    assert all(set(vars(s)) == {"atoms", "key", "min_dims", "degrees"}
               for x in (b, b0) for s in x.summands)
    assert [vars(bundles.parse_space(text)) for text in ("P2xP2", "P1xP1")] == [
        {"dims": (2, 2)}, {"dims": (1, 1)}]
    for cache in caches:
        cache.cache_clear()
    assert [memo.cache_info().currsize for memo in memos] == [0] * len(memos)
    after = [splitting.verify_theorem(x, tid) for x in (b, b0) for tid in splitting.TheoremId]
    assert after == before
    assert harness.run_verification(cfg).per_theorem == swept

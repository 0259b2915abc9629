"""The three workloads: their seeded inputs, the timed call, and the checks.

A workload makes one round of requests from the seed.  A request is one
``run_verification`` call on a slice of a seeded sample of a family (the
sweeps) or one command line query (``query_session``).  ``execute`` is the only code that
runs inside the timed section; ``check`` judges a request's answer against
the benchmark's own cohomology in ``oracle`` or against a property the
answer must have, never against stored output.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from math import comb

import oracle

# ---------------------------------------------------------------------------
# sweeps: run_verification with jobs=1 on seeded samples of two families

# The families of the issue's sweeps, as EnumerationConfig fields: line
# bundles of degrees -2..2 with up to 2 summands on P1xP1xP1 and P1xP1xP2
# (8000 bundles each), and P2xP2 with degrees and cotangent twists -2..2
# (5150 bundles).
WINDOW_FAMILY = {"spaces": ("P1xP1xP1", "P1xP1xP2"), "theorems": ("T3", "T2B")}
REGULAR_FAMILY = {"spaces": ("P2xP2",), "theorems": ("T0", "T4"), "cotangent": True}
FAMILY_RANGE = (-2, 2)  # degrees and cotangent twists
MAX_SUMMANDS = 2


def family_summands(dims, family) -> list[tuple]:
    """Every summand of the family on one space, in the benchmark's atoms."""
    lo, hi = FAMILY_RANGE
    per_factor = []
    for n in dims:
        atoms = [("O", a) for a in range(lo, hi + 1)]
        if family.get("cotangent"):
            atoms += [("W", p, t) for p in range(1, n) for t in range(lo, hi + 1)]
        per_factor.append(atoms)
    return list(itertools.product(*per_factor))


def family_bundles(dims, family) -> list[tuple]:
    """Every bundle of the family on one space, one per multiset of summands,
    grouped by first summand."""
    summands = family_summands(dims, family)
    return [
        tuple(summands[j] for j in combo)
        for size in range(1, MAX_SUMMANDS + 1)
        for combo in itertools.combinations_with_replacement(range(len(summands)), size)
    ]


def sample_requests(seed: int, family: dict, bundles_per_space: int, count: int) -> list[dict]:
    """A stratified sample of the family, split into ``count`` requests.  The
    family on each space, in the order of ``family_bundles``, is cut into
    ``bundles_per_space`` equal strata and the seed picks one bundle from
    each.  Request j verifies the j-th run of consecutive picks on every
    space of the family, so it holds bundles with neighbouring first
    summands, as one stretch of a full ``verify-paper`` run does."""
    rng = random.Random(seed)
    size = bundles_per_space // count
    reqs = [{"family": family, "bundles": {}} for _ in range(count)]
    for space in family["spaces"]:
        dims = oracle.parse_space(space)
        pool = family_bundles(dims, family)
        bounds = [len(pool) * j // bundles_per_space for j in range(bundles_per_space + 1)]
        picks = [pool[rng.randrange(lo, hi)] for lo, hi in zip(bounds, bounds[1:])]
        for j, req in enumerate(reqs):
            req["bundles"][dims] = picks[j * size:(j + 1) * size]
    return reqs


def windows_requests(seed: int) -> list[dict]:
    """2000 of the 16000 bundles of WINDOW_FAMILY, in 100 requests of 10 on
    each space."""
    return sample_requests(seed, WINDOW_FAMILY, 1000, 100)


def regular_requests(seed: int) -> list[dict]:
    """1030 of the 5150 bundles of REGULAR_FAMILY, in 103 requests of 10."""
    return sample_requests(seed, REGULAR_FAMILY, 1030, 103)


def family_config(family: dict, spaces=None) -> dict:
    """EnumerationConfig fields of the family, on all its spaces or on some."""
    lo, hi = FAMILY_RANGE
    return {"spaces": spaces or family["spaces"], "theorems": family["theorems"],
            "cotangent": family.get("cotangent", False), "degree_min": lo, "degree_max": hi,
            "cot_twist_min": lo, "cot_twist_max": hi, "max_summands": MAX_SUMMANDS, "jobs": 1}


def program_atoms(summand) -> tuple:
    """A program summand in the benchmark's atoms."""
    return tuple(("O", a.degree) if hasattr(a, "degree") else ("W", a.p, a.twist)
                 for a in summand.atoms)


class SampledBundles:
    """Stands in for ``harness.enumerate_bundles`` during the sweeps, so that
    ``run_verification`` verifies the bundles of the current request and not
    the whole family.  Like the program's enumerator it builds each bundle
    with ``make_bundle``, here from the program's summands, made once."""

    def __init__(self):
        from mpreg import bundles, harness

        self.make_bundle = bundles.make_bundle
        self.real = harness.enumerate_bundles
        self.current: dict[tuple, list[tuple]] = {}  # dims -> bundles
        self.summands = {}  # (dims, benchmark atoms) -> the program's summand
        for family in (WINDOW_FAMILY, REGULAR_FAMILY):
            for space in family["spaces"]:
                cfg = harness.EnumerationConfig(**family_config(family, (space,)))
                parsed = bundles.parse_space(space)
                for summand in harness.enumerate_summands(parsed, cfg):
                    self.summands[(parsed.dims, program_atoms(summand))] = summand
        harness.enumerate_bundles = self.enumerate

    def enumerate(self, space, cfg):
        for bundle in self.current[space.dims]:
            yield self.make_bundle(space, [self.summands[(space.dims, s)] for s in bundle])


SAMPLER = None  # the SampledBundles in use


def prepare_sweeps() -> None:
    global SAMPLER
    SAMPLER = SampledBundles()


def execute_sweep(req: dict):
    from mpreg import harness

    SAMPLER.current = req["bundles"]
    report = harness.run_verification(harness.EnumerationConfig(**family_config(req["family"])))
    return report.total_bundles, report


def sweep_digest(report) -> str:
    return json.dumps(
        [
            report.total_bundles,
            {t: [s.applicable, s.not_applicable, s.consistent, s.inconsistent]
             for t, s in report.per_theorem.items()},
            report.findings,
        ],
        sort_keys=True,
    )


def _multiset_count(n: int, k_max: int) -> int:
    return sum(comb(n + k - 1, k) for k in range(1, k_max + 1))


def check_family(family: dict) -> list[str]:
    """The family the sweeps sample is the program's own: its size is the
    multiset count from the config, and the program's enumerator yields the
    same bundles."""
    from mpreg import bundles, harness

    errors = []
    for space in family["spaces"]:
        dims = oracle.parse_space(space)
        ours = family_bundles(dims, family)
        expected = _multiset_count(len(family_summands(dims, family)), MAX_SUMMANDS)
        cfg = harness.EnumerationConfig(**family_config(family, (space,)))
        theirs = [tuple(program_atoms(s) for s in b.summands)
                  for b in SAMPLER.real(bundles.parse_space(space), cfg)]
        if not len(ours) == len(theirs) == expected:
            errors.append(f"{space}: the family has {len(ours)} bundles, the program "
                          f"enumerates {len(theirs)}, the multiset count is {expected}")
        elif {tuple(sorted(b)) for b in ours} != {tuple(sorted(b)) for b in theirs}:
            errors.append(f"{space}: the program enumerates other bundles than the family")
    return errors


def _check_totals(req, report) -> list[str]:
    errors = []
    count = sum(map(len, req["bundles"].values()))
    if report.total_bundles != count:
        errors.append(f"total_bundles {report.total_bundles} != {count} enumerated")
    for tid, st in report.per_theorem.items():
        if st.applicable + st.not_applicable != report.total_bundles:
            errors.append(f"{tid}: verdict counts do not add up to the bundle count")
        if st.consistent + st.inconsistent != st.applicable:
            errors.append(f"{tid}: consistency counts do not add up to the applicable count")
    return errors


def _t2b_condition_holds(dims, bundle) -> bool:
    """Brute-force T2B condition: no H^i(E(t + k)) for 0 < i < dim X, box
    offsets k of sum >= -i other than the nonzero corners, and every t in a
    range containing all nonvanishing."""
    d = sum(dims)
    reach = oracle.magnitude(bundle) + d + 2
    for i in range(1, d):
        for k in itertools.product(*[range(-n, 1) for n in dims]):
            if sum(k) < -i:
                continue
            if any(k) and all(kj in (0, -n) for kj, n in zip(k, dims)):
                continue
            for t in range(-reach, reach + 1):
                if oracle.h(dims, bundle, tuple(t + kj for kj in k), i):
                    return False
    return True


def check_windows(req, report, _answers=None) -> list[str]:
    errors = _check_totals(req, report)
    t3, t2b = report.per_theorem["T3"], report.per_theorem["T2B"]
    if t3.inconsistent:
        errors.append(f"T3 reports {t3.inconsistent} inconsistencies; the paper proves T3")
    if t3.applicable != report.total_bundles or t2b.applicable != report.total_bundles:
        errors.append("T3 and T2B must apply to every bundle")
    gaps = []
    for f in report.findings:
        if f["theorem"] == "T3":
            errors.append(f"T3 finding {f['type']} on {f['bundle']}")
        elif f["type"] == "inconsistent":
            gaps.append(f)
    if len(gaps) != t2b.inconsistent:
        errors.append("T2B inconsistency findings do not match the count")
    for f in gaps:
        dims = oracle.parse_space(f["space"])
        bundle = oracle.parse_bundle(dims, f["bundle"])
        step = all(max(a[1] for a in s) - min(a[1] for a in s) <= 1 for s in bundle)
        if not (f["condition"] and not f["form"]) or step:
            errors.append(f"T2B gap on {f['bundle']} is not condition-true and form-false")
        elif not _t2b_condition_holds(dims, bundle):
            errors.append(f"T2B condition on {f['bundle']} fails by brute force")
    return errors


_SUMMAND_REG: dict = {}  # (dims, summand) -> brute-force Reg


def check_regular(req, report, _answers=None) -> list[str]:
    errors = _check_totals(req, report)
    reg_zero = 0
    for dims, bundles in req["bundles"].items():
        for s in {s for bundle in bundles for s in bundle}:
            if (dims, s) not in _SUMMAND_REG:
                _SUMMAND_REG[(dims, s)] = oracle.scan_reg(dims, (s,))
        reg_zero += sum(1 for bundle in bundles
                        if max(_SUMMAND_REG[(dims, s)] for s in bundle) == 0)
    for tid in ("T0", "T4"):
        applicable = report.per_theorem[tid].applicable
        if applicable != reg_zero:
            errors.append(f"{tid} applies to {applicable} bundles, {reg_zero} have Reg 0")
    return errors


# ---------------------------------------------------------------------------
# query_session: command line queries in one interpreter

TWO_FACTOR = ((1, 1), (1, 2), (2, 2), (2, 3))
ANY_SPACE = TWO_FACTOR + ((1, 1, 1),)
THEOREMS = ("T1", "T2", "C1", "C2", "T0", "P4", "T3", "T2B", "T4", "P4B")

# The long Reg walks form a ladder of 72 rungs whose expected cost grows by
# a constant factor from 3 ms to 120 ms, so the slowest tenth of the queries
# is a dense run of walks and its 90th percentile does not jump between
# seeds.  Rung j takes family j mod 8 (space, walk direction, extra atom or
# summand, definition) and sets the degree magnitude m from that family's
# rough cost per walk step, measured once on this code; m stays within
# [20, 4000], far inside the 10000-step guard of the walk.
WALK_FAMILIES = (
    # dims, shape, extra, definition, microseconds per walk step
    ((1, 1), "up", None, "paper", 32),
    ((2, 2), "down", None, "paper", 110),
    ((2, 3), "up", "cotangent", "paper", 108),
    ((1, 2), "down", "summand", "hw", 105),
    ((2, 2), "up", "summand", "paper", 99),
    ((1, 1), "down", None, "hw", 36),
    ((2, 3), "down", "summand", "paper", 280),
    ((2, 2), "up", "cotangent", "hw", 44),
)
WALK_RUNGS = 72
WALK_COST_MS = (3.0, 120.0)
WALK_MAGNITUDE = (20, 4000)


def _walk_query(rng, rung):
    dims, shape, extra, definition, step_us = WALK_FAMILIES[rung % len(WALK_FAMILIES)]
    lo, hi = WALK_COST_MS
    cost_ms = lo * (hi / lo) ** (rung / (WALK_RUNGS - 1)) * (1 + (rng.random() - 0.5) / 25)
    m = min(max(round(cost_ms * 1000 / step_us), WALK_MAGNITUDE[0]), WALK_MAGNITUDE[1])
    if shape == "up":
        # the walk starts at -m - dim X, far below Reg, and climbs to about 0
        main = (("O", m), ("O", rng.randint(-1, 2)))
    else:
        # Reg is about m and the walk climbs from 0
        main = (("O", -m), ("O", -m + rng.randint(-2, 2)))
    if extra == "cotangent":
        main = (main[0], ("W", 1, rng.randint(-1, 2)))
    bundle = (main,)
    if extra == "summand":
        bundle += ((("O", rng.randint(-2, 2)), ("O", rng.randint(-2, 2))),)
    return _query("reg", dims, bundle, "--definition", definition)


def _atom(rng, n, lo, hi):
    if n >= 2 and rng.random() < 0.3:
        return ("W", rng.randint(1, n - 1), rng.randint(-2, 3))
    return ("O", rng.randint(lo, hi))


def _bundle(rng, dims, lo=-2, hi=2, max_summands=2):
    return tuple(
        tuple(_atom(rng, n, lo, hi) for n in dims)
        for _ in range(rng.randint(1, max_summands))
    )


def _query(kind, dims, bundle, *extra, text=None):
    argv = [kind, "--space", oracle.fmt_space(dims),
            "--bundle", text or oracle.fmt_bundle(bundle), *extra, "--format", "json"]
    return {"kind": kind, "dims": dims, "bundle": bundle, "argv": argv}


def _reg_pair(dims, bundle, definition, t):
    """Reg of E and of E(t, ..., t), the second through the '@' twist suffix."""
    first = _query("reg", dims, bundle, "--definition", definition)
    second = _query("reg", dims, bundle, "--definition", definition,
                    text=f"{oracle.fmt_bundle(bundle)}@({','.join([str(t)] * len(dims))})")
    second["pair"] = (first, t)
    return [first, second]


def query_requests(seed: int) -> list[dict]:
    """240 queries: 72 long Reg walks, 12 pairs of short Reg queries on E
    and E(t, ..., t), 30 check, 30 classify, 30 acm and 54 cohomology tables
    over small twist boxes."""
    rng = random.Random(seed)
    reqs = []
    reqs += [_walk_query(rng, rung) for rung in range(WALK_RUNGS)]
    for _ in range(12):
        dims = rng.choice(ANY_SPACE)
        definition = rng.choice(("paper", "hw")) if len(dims) == 2 else "paper"
        reqs += _reg_pair(dims, _bundle(rng, dims, -3, 3), definition, rng.randint(-3, 3))
    for _ in range(30):
        theorem = rng.choice(THEOREMS)
        if theorem in ("P4", "P4B"):
            dims = (3, 3)
            bundle = tuple((("O", rng.randint(-1, 2)), ("O", rng.randint(-1, 2)))
                           for _ in range(2))
        else:
            dims = rng.choice(ANY_SPACE)
            bundle = _bundle(rng, dims)
        reqs.append(_query("check", dims, bundle, "--theorem", theorem))
    for _ in range(30):
        dims = rng.choice(ANY_SPACE)
        reqs.append(_query("classify", dims, _bundle(rng, dims)))
    for _ in range(30):
        dims = rng.choice(ANY_SPACE)
        reqs.append(_query("acm", dims, _bundle(rng, dims, -40, 40)))
    for _ in range(54):
        dims = rng.choice(ANY_SPACE)
        width = 3 if len(dims) == 3 else 4
        ranges = []
        for _ in dims:
            start = rng.randint(-5, 2)
            ranges.append(f"{start}..{start + width - 1}")
        req = _query("cohomology", dims, _bundle(rng, dims), "--twist-range=" + ",".join(ranges))
        req["box"] = [tuple(map(int, r.split(".."))) for r in ranges]
        reqs.append(req)
    rng.shuffle(reqs)
    return reqs


def execute_query(req: dict):
    from mpreg import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(req["argv"])
    if code not in (0, 3, 4):
        raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
    return 1, (code, out.getvalue())


def query_digest(answer) -> str:
    return f"{answer[0]}\n{answer[1]}"


def _witness_errors(dims, bundle, witnesses) -> list[str]:
    errors = []
    for w in witnesses:
        tvec = tuple(w["t"] + kj for kj in w["k"])
        own = oracle.h(dims, bundle, tvec, w["i"])
        if int(w["dim"]) != own or own == 0:
            errors.append(f"witness h^{w['i']} at {tvec} = {w['dim']}, expected {own}")
    return errors


def _is_acm(dims, bundle) -> bool:
    reach = oracle.magnitude(bundle) + sum(dims) + 2
    return not any(
        oracle.h(dims, bundle, (t,) * len(dims), i)
        for i in range(1, sum(dims))
        for t in range(-reach, reach + 1)
    )


def check_query(req, answer, answers_by_id) -> list[str]:
    code, text = answer
    data = json.loads(text)
    dims, bundle, kind = req["dims"], req["bundle"], req["kind"]
    if kind == "reg":
        r = data["value"]
        definition = data["definition"]
        own_bundle = bundle
        if "pair" in req:
            first, t = req["pair"]
            own_bundle = oracle.twist(bundle, t)
            r_first = json.loads(answers_by_id[id(first)][1])["value"]
            if r != r_first - t:
                return [f"Reg(E({t})) = {r} but Reg(E) - {t} = {r_first - t}"]
        if not oracle.reg_answer_holds(dims, own_bundle, r, definition):
            return [f"Reg = {r} is not the least regular twist ({definition})"]
        return []
    if kind == "cohomology":
        got = {(e["i"], tuple(e["t"])): int(e["dim"]) for e in data["entries"]}
        own = {}
        for tvec in itertools.product(*[range(a, b + 1) for a, b in req["box"]]):
            for i, x in enumerate(
                map(sum, zip(*(oracle.summand_vector(dims, s, tvec) for s in bundle)))
            ):
                if x:
                    own[(i, tvec)] = x
        return [] if got == own else ["cohomology table differs from the Kunneth evaluation"]
    if kind == "acm":
        errors = _witness_errors(dims, bundle, data["witnesses"])
        if data["acm"] != _is_acm(dims, bundle):
            errors.append(f"ACM answer {data['acm']} is wrong")
        return errors
    if kind == "classify":
        errors = []
        if data["rank"] != oracle.rank(dims, bundle):
            errors.append(f"rank {data['rank']} != {oracle.rank(dims, bundle)}")
        if not oracle.reg_answer_holds(dims, bundle, data["reg"], "paper"):
            errors.append(f"Reg = {data['reg']} is not the least regular twist")
        return errors
    # check: the exit code says what the payload says, every witness is real,
    # and a check needing Reg = 0 applies only when Reg is 0
    errors = _witness_errors(dims, bundle, data["witnesses"])
    expected = 4 if not data["applicable"] else (0 if data["consistent"] else 3)
    if code != expected:
        errors.append(f"exit {code} for a payload that calls for {expected}")
    if data["applicable"] and data["theorem"] in ("T0", "T4", "P4", "P4B"):
        if oracle.scan_reg(dims, bundle) != 0:
            errors.append(f"{data['theorem']} applied although Reg != 0")
    if data["applicable"] and data["condition"] is False:
        if not any(w["required"] for w in data["witnesses"]):
            errors.append("condition fails without a required witness")
    return errors


# ---------------------------------------------------------------------------


class Workload:
    """A round of a workload is one session: the program's caches are emptied
    at its start and kept across its requests, as in one ``mpreg
    verify-paper`` run or one interpreter answering many queries."""

    def __init__(self, make, execute, digest, check, prepare=None, family=None):
        self.make, self.execute, self.digest, self._check = make, execute, digest, check
        self.prepare, self.family = prepare, family

    def check(self, requests, answers) -> list[list[str]]:
        """Errors per request; ``answers[j]`` is None when request j raised."""
        shared = check_family(self.family) if self.family else []
        by_id = {id(r): a for r, a in zip(requests, answers)}
        out = []
        for req, answer in zip(requests, answers):
            if answer is None:
                out.append(["raised"])
                continue
            try:
                out.append(self._check(req, answer, by_id) + shared)
            except Exception as exc:  # an answer the checks cannot read is wrong
                out.append([f"check raised {type(exc).__name__}: {exc}"])
        return out


WORKLOADS = {
    "sweep_windows": Workload(windows_requests, execute_sweep, sweep_digest, check_windows,
                              prepare_sweeps, WINDOW_FAMILY),
    "sweep_regular": Workload(regular_requests, execute_sweep, sweep_digest, check_regular,
                              prepare_sweeps, REGULAR_FAMILY),
    "query_session": Workload(query_requests, execute_query, query_digest, check_query),
}

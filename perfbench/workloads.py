"""Workloads of the modgrid benchmark: inputs, timed calls, checks, layer metrics.

Each workload is a function ``inputs(seed)`` that returns plain data (lists,
ints, strings) and a function ``run(rec, inputs, scratch)`` that makes every
timed call into the library through ``rec.op`` and then, outside the timed
region, checks every result with ``rec.expect``.  A call that raises or gives a
wrong result is a failed operation; the round goes on.

Why each workload exists, and which layer metric should move which end-to-end
metric on it (later changes state their prediction against this table):

psi_serial -- serial ``psi`` at n = 11, 12, 13 (unit) and n = 10 (any).
    Almost all time is the branch-and-bound, through the prime engine and the
    composite kernel engine.  Packing is never called; census runs only for
    the witness recount inside ``psi``.
    search.psi.s, search.psi.n13.s, search.psi.n13.nodes, search.composite.s,
    search.nodes, search.pruned, search.prune_ratio, search.nodes_per_s
    -> wall_s, op_p50_ms and op_p90_ms (the four calls are the operations).
psi_parallel_resume -- ``psi(13)`` with workers 1 and 2 behind checkpoints,
    then interrupt-and-resume pairs.  The only workload that runs the process
    pool, checkpoint writes and resume.
    search.parallel.speedup, search.parallel.node_inflation
    -> parallel_efficiency; search.resume.node_overhead -> wall_s;
    search.resume.failed -> failed/attempted.  It is not listed in
    BENCHMARK.json, which admits only workloads on which no operation fails,
    while the workers > 1 resume defect fails its fixed psi(10) case.
census_counts -- ``count_triples`` / ``count_quadruples`` on permutation
    families, random prime transversals and random composite transversals,
    with batches of ``collinear_triple`` between them.  Search and packing
    are never called.
    census.count_triples.{prime,composite_unit,composite_any}.s,
    census.count_quadruples.s, census.structured.s, census.random.s,
    census.pairs_per_s -> wall_s; geometry.collinear_triple.prime.ns
    -> op_p50_ms and geometry.collinear_triple.unit.ns -> op_p90_ms (the
    batches are most of the operations); the composite kernel table moves
    peak_rss_mb here and search.composite.s on psi_serial; constructions.s
    is a small regression canary.
cli_cold -- one cold interpreter: ``modgrid verify --level quick``,
    ``modgrid pack exact`` at large K > 3L, then the closed-form grid and
    greedy calls that reuse the packing DP cache.
    packing.t_exact.large.s, cli.verify_quick.s, cli.pack_exact.s -> wall_s;
    packing.t_exact.grid.s, packing.t_exact.calls -> op_p50_ms, op_p90_ms;
    verification.checks, verification.checks_failed -> failed/attempted.

Predictions for later changes: search changes move the psi_* workloads and
leave census_counts unchanged; census and predicate changes move
census_counts, and psi_serial only through search.composite.s; packing changes
move only cli_cold.

Only public names that the package keeps are called, and only ``value``,
``witness``, ``exact``, ``nodes_explored`` and ``nodes_pruned`` are read from
a ``SearchOutcome``.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Optional

import modgrid
from modgrid import cli
from modgrid.verification import PSI_TABLE

#: Psi(10) under ANY-line semantics at the time the benchmark was defined.
#: It has no outside reference, so it is pinned as a regression value.
PSI_10_ANY = 60

#: End-to-end metrics printed by every workload with ``--trace 0``.
E2E_METRICS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
}

#: Per-layer metrics printed by every workload with ``--trace 1``; a layer a
#: workload does not call reads 0.
LAYER_METRICS = {
    "search.psi.s": "s",
    "search.psi.n13.s": "s",
    "search.psi.n13.nodes": "count",
    "search.composite.s": "s",
    "search.nodes": "count",
    "search.pruned": "count",
    "search.prune_ratio": "ratio",
    "search.nodes_per_s": "1/s",
    "census.count_triples.prime.s": "s",
    "census.count_triples.composite_unit.s": "s",
    "census.count_triples.composite_any.s": "s",
    "census.count_quadruples.s": "s",
    "census.structured.s": "s",
    "census.random.s": "s",
    "census.pairs_per_s": "1/s",
    "geometry.collinear_triple.prime.ns": "ns",
    "geometry.collinear_triple.unit.ns": "ns",
    "geometry.collinear_triple.any.ns": "ns",
    "constructions.s": "s",
    "packing.t_exact.large.s": "s",
    "packing.t_exact.grid.s": "s",
    "packing.t_exact.calls": "count",
    "packing.optima": "count",
    "cli.verify_quick.s": "s",
    "cli.pack_exact.s": "s",
    "verification.checks": "count",
    "verification.checks_failed": "count",
    "trace.overhead_s": "s",
}

#: Extra metrics of psi_parallel_resume, the only workload that runs them.
PARALLEL_E2E_METRICS = {"parallel_efficiency": "ratio"}
PARALLEL_LAYER_METRICS = {
    "search.parallel.speedup": "ratio",
    "search.parallel.node_inflation": "ratio",
    "search.resume.node_overhead": "ratio",
    "search.resume.failed": "count",
}


# ---------------------------------------------------------------------------
# operations and spans
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One timed call into the library; with tracing on it is also a span."""

    name: str
    attrs: dict
    parent: Optional[int]
    start: float = 0.0
    seconds: float = 0.0
    result: object = None
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass
class Recorder:
    """Times each call into the library and collects the checks' verdicts.

    With ``trace`` on it also keeps a span per phase, so that every operation
    has the phase that caused it as its parent.  Spans stay in memory until
    the round ends.
    """

    trace: bool
    ops: list = field(default_factory=list)
    phases: list = field(default_factory=list)
    _phase: Optional[int] = None

    def op(self, name: str, fn: Callable[[], object], **attrs) -> Op:
        op = Op(name, attrs, self._phase)
        op.start = time.perf_counter()
        try:
            op.result = fn()
        except Exception as exc:  # a failing call is counted; the round goes on
            op.error = f"raised {type(exc).__name__}: {exc}"
        op.seconds = time.perf_counter() - op.start
        self.ops.append(op)
        return op

    @contextlib.contextmanager
    def phase(self, name: str):
        if not self.trace:
            yield
            return
        span = {"id": len(self.phases), "name": name, "parent": self._phase,
                "start": time.perf_counter()}
        self.phases.append(span)
        outer, self._phase = self._phase, span["id"]
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._phase = outer

    def expect(self, op: Op, check: Callable[[object], bool], what: str) -> bool:
        """Record a failure on ``op`` unless ``check(op.result)`` holds."""
        if op.failed:
            return False
        try:
            ok = bool(check(op.result))
        except Exception as exc:  # a malformed result fails its check
            ok, what = False, f"{what} ({type(exc).__name__}: {exc})"
        if not ok:
            op.error = f"wrong result: {what}"
        return ok

    def failures(self) -> list:
        return [f"{op.name} {op.attrs}: {op.error}" for op in self.ops if op.failed]

    def spans(self) -> list:
        origin = self.ops[0].start if self.ops else 0.0
        out = [dict(p, start=p["start"] - origin, end=p["end"] - origin)
               for p in self.phases]
        for op in self.ops:
            out.append({"name": op.name, "parent": op.parent,
                        "start": op.start - origin,
                        "end": op.start + op.seconds - origin,
                        "attrs": op.attrs, "error": op.error})
        return out


# ---------------------------------------------------------------------------
# reference counts the checks compare against
# ---------------------------------------------------------------------------


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def ref_collinear(points, n: int, unit: bool) -> bool:
    """Whether distinct points of Z_n x Z_n lie on one line, in closed form.

    With d_i = p_i - p_0 (entries in [0, n)), M the gcd of the 2x2 minors of
    the d_i and g = gcd(n, every entry of every d_i): the points lie on a unit
    line (gcd(a, b, n) = 1) iff n*g divides M, and on some line iff
    gcd(M, n) > 1.  The tests hold it to ``collinear_set``.
    """
    x0, y0 = points[0]
    d = [((x - x0) % n, (y - y0) % n) for x, y in points[1:]]
    minors = 0
    for (ax, ay), (bx, by) in combinations(d, 2):
        minors = math.gcd(minors, ax * by - bx * ay)
    if not unit:
        return math.gcd(minors, n) > 1
    g = math.gcd(n, *(c for v in d for c in v))
    return minors % (n * g) == 0


def ref_counts(points, n: int, unit: bool) -> tuple[int, int]:
    """(collinear triples, collinear quadruples) of a point set.

    Prime n: pairs are bucketed by their unique line.  Composite n: every
    triple is tested with ``ref_collinear`` and each collinear triple is
    extended by later points.
    """
    if _is_prime(n):
        inv = [0] + [pow(d, -1, n) for d in range(1, n)]
        pairs: Counter = Counter()
        for (px, py), (qx, qy) in combinations(points, 2):
            dx = (qx - px) % n
            if dx == 0:
                pairs[(n, px)] += 1
            else:
                s = (qy - py) * inv[dx] % n
                pairs[(s, (py - s * px) % n)] += 1
        sizes = [(1 + math.isqrt(1 + 8 * c)) // 2 for c in pairs.values()]
        return sum(math.comb(k, 3) for k in sizes), sum(math.comb(k, 4) for k in sizes)
    triples = quadruples = 0
    m = len(points)
    for i, j, k in combinations(range(m), 3):
        t = (points[i], points[j], points[k])
        if ref_collinear(t, n, unit):
            triples += 1
            quadruples += sum(
                1 for l in range(k + 1, m) if ref_collinear(t + (points[l],), n, unit)
            )
    return triples, quadruples


def oracle_agrees(triples, n: int, mode: str) -> bool:
    """Whether ``collinear_set``, the package's reference predicate, agrees
    with ``ref_collinear`` on every given triple."""
    m = modgrid.CollinearityMode(mode)
    return all(modgrid.collinear_set(t, n, m) == ref_collinear(t, n, mode == "unit")
               for t in triples)


def _is_permutation(sigma, n: int) -> bool:
    return sorted(sigma) == list(range(n))


def _points(sigma) -> list:
    return [(x, y) for x, y in enumerate(sigma)]


# ---------------------------------------------------------------------------
# psi_serial
# ---------------------------------------------------------------------------


def psi_serial_inputs(seed: int) -> dict:
    """The psi sizes are fixed; the seed only orders the calls."""
    calls = [[11, "unit"], [12, "unit"], [13, "unit"], [10, "any"]]
    random.Random(seed).shuffle(calls)
    return {"calls": calls}


def _check_exact_psi(rec: Recorder, op: Op, n: int, mode: str) -> None:
    expected = PSI_TABLE[n] if mode == "unit" else PSI_10_ANY
    rec.expect(op, lambda o: o.exact, "psi reported exact = False")
    rec.expect(op, lambda o: o.value == expected, f"psi({n}, {mode}) != {expected}")
    rec.expect(op, lambda o: _is_permutation(o.witness, n), "witness is no permutation")
    rec.expect(
        op,
        lambda o: ref_counts(_points(o.witness), n, mode == "unit")[0] == o.value,
        "witness does not have value triples",
    )


def psi_serial(rec: Recorder, inputs: dict, scratch: str) -> None:
    ops = []
    with rec.phase("psi_serial"):
        for n, mode in inputs["calls"]:
            m = modgrid.CollinearityMode(mode)
            ops.append((n, mode, rec.op("search.psi", lambda: modgrid.psi(n, mode=m),
                                        n=n, mode=mode, workers=1, role="serial")))
    for n, mode, op in ops:
        _check_exact_psi(rec, op, n, mode)


# ---------------------------------------------------------------------------
# psi_parallel_resume
# ---------------------------------------------------------------------------

#: The reproduction of the workers > 1 resume defect; always included.
FIXED_RESUME_CASE = {"n": 10, "workers": 2, "max_nodes": 50}


def psi_parallel_resume_inputs(seed: int) -> dict:
    """Interrupt-and-resume pairs at n = 9, 10, 11 for workers 1 and 2.

    A seeded pair's node budget is a seeded fraction of the node count of the
    uninterrupted serial run.
    """
    rng = random.Random(seed)
    pairs = [{"n": n, "workers": w, "fraction": round(rng.uniform(0.05, 0.95), 4)}
             for n in (9, 10, 11) for w in (1, 2)]
    return {"pairs": pairs + [FIXED_RESUME_CASE]}


def _same_outcome(o, ref) -> bool:
    return (o.value, o.exact, o.witness) == (ref.value, ref.exact, ref.witness)


def psi_parallel_resume(rec: Recorder, inputs: dict, scratch: str) -> None:
    budget = modgrid.SearchBudget
    refs = {}
    with rec.phase("reference"):
        for n in sorted({pair["n"] for pair in inputs["pairs"]}):
            refs[n] = rec.op("search.psi", lambda: modgrid.psi(n),
                             n=n, mode="unit", workers=1, role="reference")
    full = {}
    with rec.phase("parallel"):
        for w in (1, 2):
            path = os.path.join(scratch, f"psi13_w{w}.json")
            full[w] = rec.op(
                "search.psi",
                lambda: modgrid.psi(13, budget=budget(workers=w), checkpoint=path),
                n=13, mode="unit", workers=w, role="parallel",
            )
    resumes = []
    with rec.phase("resume"):
        for i, pair in enumerate(inputs["pairs"]):
            n, w, ref = pair["n"], pair["workers"], refs[pair["n"]]
            if ref.failed:
                continue  # already counted; there is nothing to compare with
            max_nodes = pair.get("max_nodes") or max(
                1, round(pair["fraction"] * ref.result.nodes_explored))
            path = os.path.join(scratch, f"resume_{i}.json")
            cut = rec.op(
                "search.psi",
                lambda: modgrid.psi(n, budget=budget(max_nodes=max_nodes, workers=w),
                                    checkpoint=path),
                n=n, mode="unit", workers=w, role="interrupted", max_nodes=max_nodes,
            )
            resumed = rec.op(
                "search.psi",
                lambda: modgrid.psi(n, budget=budget(workers=w), checkpoint=path),
                n=n, mode="unit", workers=w, role="resumed", max_nodes=max_nodes,
            )
            resumes.append((n, cut, resumed))

    for n, op in refs.items():
        _check_exact_psi(rec, op, n, "unit")
    for op in full.values():
        _check_exact_psi(rec, op, 13, "unit")
    for n, cut, resumed in resumes:
        r = refs[n].result
        # an interrupted run reports an upper bound, or no witness at all
        rec.expect(cut, lambda o: _same_outcome(o, r) if o.exact
                   else o.witness is None or o.value >= r.value,
                   "interrupted run contradicts the uninterrupted run")
        got = resumed.result
        rec.expect(resumed, lambda o: _same_outcome(o, r),
                   f"resumed psi({n}) gave (value, exact, witness) = "
                   f"({got.value}, {got.exact}, {got.witness}), uninterrupted "
                   f"({r.value}, {r.exact}, {r.witness})" if got else "")


# ---------------------------------------------------------------------------
# census_counts
# ---------------------------------------------------------------------------

#: Prime strata for the family sample; one seeded prime p = 2 mod 3 is drawn
#: from each, so that all four families apply.  Narrow strata keep the work of
#: a round nearly the same for every seed.
FAMILY_STRATA = [(11, 60), (160, 200)]
#: The largest family prime, always included with the inverse map (triples
#: only: its quadruple count repeats the same line census).
FAMILY_TOP_PRIME = 503
RANDOM_PRIME = 503
COMPOSITE_TOP = 60
COMPOSITE_SEEDED = (32, 37)
#: Any-mode quadruples confirm every candidate with a line scan (7 s at
#: n = 30), so they are counted at this smaller modulus only.
COMPOSITE_ANY_QUAD_N = 16
#: collinear_triple batches: kind -> (n, mode, batches, calls per batch).
#: Cheap prime and any-mode batches are most of the operations, so op_p50_ms
#: falls among the prime batches; the 60 unit-mode batches (a line scan per
#: call) hold op_p90_ms, with about 20 count operations above them.
BATCHES = {"prime": (503, "unit", 280, 20), "any": (60, "any", 100, 20),
           "unit": (60, "unit", 60, 10)}
#: Triples per input checked against ``collinear_set``, whose line scan
#: costs O(n^2) per call, so only for n <= ORACLE_MAX_N.
ORACLE_SAMPLE = 6
ORACLE_MAX_N = 64


def _mobius_params(rng: random.Random, p: int) -> list:
    while True:
        a, b, c, d = (rng.randrange(p) for _ in range(4))
        if c and (a * d - b * c) % p:
            return [a, b, c, d]


def _random_triple(rng: random.Random, n: int, collinear: bool) -> list:
    """Three distinct points; on a common unit line when ``collinear``."""
    if not collinear:
        while True:
            t = [(rng.randrange(n), rng.randrange(n)) for _ in range(3)]
            if len(set(t)) == 3:
                return [list(p) for p in t]
    while True:
        d = (rng.randrange(n), rng.randrange(n))
        if math.gcd(n, *d) == 1:
            break
    x, y = rng.randrange(n), rng.randrange(n)
    s, t = rng.sample(range(1, n), 2)
    return [[x, y], [(x + s * d[0]) % n, (y + s * d[1]) % n],
            [(x + t * d[0]) % n, (y + t * d[1]) % n]]


def census_counts_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    families = [{"family": "inverse", "p": FAMILY_TOP_PRIME, "quadruples": False}]
    for lo, hi in FAMILY_STRATA:
        p = rng.choice([p for p in range(lo, hi + 1) if p % 3 == 2 and _is_prime(p)])
        families += [{"family": "inverse", "p": p}, {"family": "g", "p": p},
                     {"family": "mobius", "p": p, "params": _mobius_params(rng, p)},
                     {"family": "cubic", "p": p}]

    def perm(n):
        sigma = list(range(n))
        rng.shuffle(sigma)
        return sigma

    small_prime = rng.choice([p for p in range(31, 62) if _is_prime(p)])
    random_prime = [{"n": p, "sigma": perm(p)} for p in (small_prime, RANDOM_PRIME)]
    seeded_n = rng.choice([n for n in range(*COMPOSITE_SEEDED) if not _is_prime(n)])
    composite = []
    for n in (seeded_n, COMPOSITE_TOP):
        sigma = perm(n)
        composite += [{"n": n, "mode": "unit", "sigma": sigma, "quadruples": n == seeded_n},
                      {"n": n, "mode": "any", "sigma": sigma, "quadruples": False}]
    composite.append({"n": COMPOSITE_ANY_QUAD_N, "mode": "any",
                      "sigma": perm(COMPOSITE_ANY_QUAD_N), "quadruples": True})
    batches = []
    for kind, (n, mode, count, calls) in BATCHES.items():
        for _ in range(count):
            batches.append({"kind": kind, "n": n, "mode": mode, "triples": [
                _random_triple(rng, n, collinear=i % 2 == 0) for i in range(calls)]})
    rng.shuffle(batches)
    return {"families": families, "random_prime": random_prime,
            "composite": composite, "batches": batches,
            "oracle_seed": rng.randrange(2**32)}


def _build_family(spec: dict):
    p, family = spec["p"], spec["family"]
    if family == "mobius":
        return lambda: modgrid.mobius_permutation(p, modgrid.MobiusParams(*spec["params"]))
    build = {"inverse": modgrid.inverse_permutation, "g": modgrid.g_permutation,
             "cubic": modgrid.cubic_permutation}[family]
    return lambda: build(p)


def _family_counts(spec: dict) -> tuple[int, int]:
    p = spec["p"]
    if spec["family"] == "cubic":
        return (p - 1) * (p - 2) // 6, 0
    return (p - 1) // 2, 0


def _count_ops(rec: Recorder, pts, n: int, mode: str, source: str, quadruples: bool):
    kind = "prime" if _is_prime(n) else f"composite_{mode}"
    m = modgrid.CollinearityMode(mode)
    attrs = dict(n=n, mode=mode, kind=kind, source=source, pairs=math.comb(len(pts), 2))
    tri = rec.op("census.count_triples", lambda: modgrid.count_triples(pts, n, m), **attrs)
    quad = None
    if quadruples:
        quad = rec.op("census.count_quadruples",
                      lambda: modgrid.count_quadruples(pts, n, m), **attrs)
    return tri, quad


def census_counts(rec: Recorder, inputs: dict, scratch: str) -> None:
    batches = [(spec, [[tuple(p) for p in t] for t in spec["triples"]])
               for spec in inputs["batches"]]
    slots = sum(len(inputs[k]) for k in ("families", "random_prime", "composite"))
    per_slot = -(-len(batches) // slots)
    batch_ops = []

    def predicate_batches():
        # spread between the counts, so that the op percentiles, which the
        # batches set, sample the whole round rather than one second of it
        with rec.phase("collinear_triple"):
            for spec, triples in batches[len(batch_ops):len(batch_ops) + per_slot]:
                n, m = spec["n"], modgrid.CollinearityMode(spec["mode"])
                batch_ops.append((spec, triples, rec.op(
                    "geometry.collinear_triple",
                    lambda: [modgrid.collinear_triple(a, b, c, n, m) for a, b, c in triples],
                    kind=spec["kind"], n=n, mode=spec["mode"], calls=len(triples))))

    fam_ops = []
    with rec.phase("families"):
        for spec in inputs["families"]:
            built = rec.op(f"constructions.{spec['family']}", _build_family(spec),
                           p=spec["p"])
            if built.failed:
                fam_ops.append((spec, built, None, None))
            else:
                fam_ops.append((spec, built) + _count_ops(
                    rec, _points(built.result), spec["p"], "unit", "structured",
                    spec.get("quadruples", True)))
            predicate_batches()
    rand_ops = []
    with rec.phase("random"):
        for spec in inputs["random_prime"] + inputs["composite"]:
            pts, n, mode = _points(spec["sigma"]), spec["n"], spec.get("mode", "unit")
            rand_ops.append((pts, n, mode) + _count_ops(
                rec, pts, n, mode, "random", spec.get("quadruples", True)))
            predicate_batches()

    for spec, built, tri, quad in fam_ops:
        p = spec["p"]
        if not rec.expect(built, lambda s: _is_permutation(s, p), "not a permutation"):
            continue
        want_t, want_q = _family_counts(spec)
        rec.expect(tri, lambda v: v == want_t, f"{spec} triples != {want_t}")
        if quad is not None:
            rec.expect(quad, lambda v: v == want_q, f"{spec} quadruples != {want_q}")
    oracle_rng = random.Random(inputs["oracle_seed"])
    for pts, n, mode, tri, quad in rand_ops:
        if n <= ORACLE_MAX_N:
            sample = oracle_rng.sample(list(combinations(pts, 3)), ORACLE_SAMPLE)
            rec.expect(tri, lambda v: oracle_agrees(sample, n, mode),
                       f"reference predicate disagrees with collinear_set mod {n}")
        want_t, want_q = ref_counts(pts, n, mode == "unit")
        rec.expect(tri, lambda v: v == want_t, f"triples mod {n} ({mode}) != {want_t}")
        if quad is not None:
            rec.expect(quad, lambda v: v == want_q,
                       f"quadruples mod {n} ({mode}) != {want_q}")
    for spec, triples, op in batch_ops:
        n, mode = spec["n"], spec["mode"]
        if n <= ORACLE_MAX_N:
            sample = [oracle_rng.choice(triples)]
            rec.expect(op, lambda got: oracle_agrees(sample, n, mode),
                       f"reference predicate disagrees with collinear_set mod {n}")
        want = [ref_collinear(t, n, mode == "unit") for t in triples]
        rec.expect(op, lambda got: got == want, f"collinear_triple mod {n} ({mode})")


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

#: The large cold DP call; every other (K, L) lies inside its cache envelope.
PACK_TOP = [500, 50]
GRID_L_MAX = 60
GREEDY_SAMPLE = 200


def cli_cold_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    pack = [PACK_TOP]
    for _ in range(2):
        L = rng.randint(10, PACK_TOP[1])
        pack.append([rng.randint(3 * L + 1, PACK_TOP[0]), L])
    grid = [[K, L] for L in range(1, GRID_L_MAX + 1) for K in range(3 * L + 1)]
    return {"pack": pack, "grid_l_max": GRID_L_MAX,
            "greedy": rng.sample(grid, GREEDY_SAMPLE)}


def run_cli(argv: list) -> tuple[int, str]:
    """``modgrid`` CLI in-process: (exit code, standard output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _checks_of(cli_result: tuple) -> list:
    return json.loads(cli_result[1])["result"]["checks"]


def _pack_ok(report: dict, K: int, L: int) -> bool:
    result = report["result"]
    value = result["value"]
    greedy_cost = modgrid.trip_cost(modgrid.greedy_packing(K, L))
    return (
        bool(result["optima"])
        and all(len(parts) == L and sum(parts) == K
                and list(parts) == sorted(parts, reverse=True)
                and modgrid.trip_cost(parts) == value for parts in result["optima"])
        and modgrid.jensen_lower_bound(K, L) - 1e-9 <= value <= greedy_cost
    )


def cli_cold(rec: Recorder, inputs: dict, scratch: str) -> None:
    with rec.phase("verify"):
        verify = rec.op("cli.verify_quick", lambda: run_cli(["verify", "--level", "quick"]))
    packs = []
    with rec.phase("pack"):
        for i, (K, L) in enumerate(inputs["pack"]):
            packs.append((K, L, rec.op(
                "cli.pack_exact", lambda: run_cli(["pack", "exact", str(K), str(L)]),
                K=K, L=L, large=i == 0)))
    grid = {}
    with rec.phase("grid"):
        for L in range(1, inputs["grid_l_max"] + 1):
            for K in range(3 * L + 1):
                grid[K, L] = rec.op("packing.t_exact", lambda: modgrid.t_exact(K, L),
                                    K=K, L=L)
        greedy = [(K, L, rec.op("packing.greedy_packing",
                                lambda: modgrid.greedy_packing(K, L), K=K, L=L))
                  for K, L in inputs["greedy"]]

    if rec.expect(verify, lambda r: r[0] == cli.EXIT_OK and _checks_of(r),
                  "verify quick exit code or report"):
        checks = _checks_of(verify.result)
        verify.attrs.update(checks=len(checks),
                            checks_failed=sum(not c["passed"] for c in checks))
        rec.expect(verify, lambda r: all(c["passed"] for c in checks),
                   "verify quick reported failing checks")
    for K, L, op in packs:
        if rec.expect(op, lambda r: r[0] == cli.EXIT_OK and _pack_ok(json.loads(r[1]), K, L),
                      f"pack exact {K} {L}: exit code, optima, bounds or cost"):
            op.attrs["optima"] = len(json.loads(op.result[1])["result"]["optima"])
    for (K, L), op in grid.items():
        closed = modgrid.t_closed_form(K, L)
        jensen = modgrid.jensen_lower_bound(K, L)
        rec.expect(op, lambda r: r.value == closed and r.value >= jensen - 1e-9,
                   f"T({K},{L}) against closed form {closed} and Jensen {jensen}")
    for K, L, op in greedy:
        exact = grid[K, L].result
        rec.expect(op, lambda parts: len(parts) == L and sum(parts) == K
                   and exact is not None and modgrid.trip_cost(parts) >= exact.value,
                   f"greedy({K},{L}) is no distribution or beats the optimum")


WORKLOADS = {
    "psi_serial": (psi_serial_inputs, psi_serial),
    "psi_parallel_resume": (psi_parallel_resume_inputs, psi_parallel_resume),
    "census_counts": (census_counts_inputs, census_counts),
    "cli_cold": (cli_cold_inputs, cli_cold),
}


# ---------------------------------------------------------------------------
# per-layer metrics from the operations of one traced round
# ---------------------------------------------------------------------------


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(ops: list) -> dict:
    """Every per-layer metric of one round; a layer not called reads 0."""
    def total(name, pred=lambda o: True, key=lambda o: o.seconds):
        return sum(key(o) for o in ops if o.name == name and pred(o))

    def count(name, attr, pred=lambda o: True):
        return total(name, pred, lambda o: o.attrs.get(attr, 0))

    def nodes(o, attr):  # a call that raised has no outcome
        return getattr(o.result, attr, 0)

    psi_s = total("search.psi")
    search_nodes = total("search.psi", key=lambda o: nodes(o, "nodes_explored"))
    search_pruned = total("search.psi", key=lambda o: nodes(o, "nodes_pruned"))
    serial13 = lambda o: o.attrs["n"] == 13 and o.attrs["workers"] == 1
    census = ("census.count_triples", "census.count_quadruples")
    prime_pairs = count("census.count_triples", "pairs", lambda o: o.attrs["kind"] == "prime")
    prime_s = total("census.count_triples", lambda o: o.attrs["kind"] == "prime")

    def ns_per_call(kind):
        calls = count("geometry.collinear_triple", "calls", lambda o: o.attrs["kind"] == kind)
        s = total("geometry.collinear_triple", lambda o: o.attrs["kind"] == kind)
        return _ratio(s * 1e9, calls)

    def triples_s(kind):
        return total("census.count_triples", lambda o: o.attrs["kind"] == kind)

    return {
        "search.psi.s": psi_s,
        "search.psi.n13.s": total("search.psi", serial13),
        "search.psi.n13.nodes": total("search.psi", serial13,
                                      lambda o: nodes(o, "nodes_explored")),
        "search.composite.s": total("search.psi", lambda o: not _is_prime(o.attrs["n"])),
        "search.nodes": search_nodes,
        "search.pruned": search_pruned,
        "search.prune_ratio": _ratio(search_pruned, search_nodes),
        "search.nodes_per_s": _ratio(search_nodes, psi_s),
        "census.count_triples.prime.s": prime_s,
        "census.count_triples.composite_unit.s": triples_s("composite_unit"),
        "census.count_triples.composite_any.s": triples_s("composite_any"),
        "census.count_quadruples.s": total("census.count_quadruples"),
        "census.structured.s": sum(total(c, lambda o: o.attrs["source"] == "structured")
                                   for c in census),
        "census.random.s": sum(total(c, lambda o: o.attrs["source"] == "random")
                               for c in census),
        "census.pairs_per_s": _ratio(prime_pairs, prime_s),
        "geometry.collinear_triple.prime.ns": ns_per_call("prime"),
        "geometry.collinear_triple.unit.ns": ns_per_call("unit"),
        "geometry.collinear_triple.any.ns": ns_per_call("any"),
        "constructions.s": sum(o.seconds for o in ops if o.name.startswith("constructions.")),
        "packing.t_exact.large.s": total("cli.pack_exact", lambda o: o.attrs["large"]),
        "packing.t_exact.grid.s": total("packing.t_exact"),
        "packing.t_exact.calls": total("packing.t_exact", key=lambda o: 1),
        "packing.optima": count("cli.pack_exact", "optima"),
        "cli.verify_quick.s": total("cli.verify_quick"),
        "cli.pack_exact.s": total("cli.pack_exact"),
        "verification.checks": count("cli.verify_quick", "checks"),
        "verification.checks_failed": count("cli.verify_quick", "checks_failed"),
    }


def parallel_metrics(ops: list) -> dict:
    """Metrics of psi_parallel_resume: workers 1 against 2 at n = 13, resume cost."""
    def pick(role, **attrs):
        return [o for o in ops if o.name == "search.psi" and o.attrs["role"] == role
                and all(o.attrs[k] == v for k, v in attrs.items())]

    w1, w2 = pick("parallel", workers=1), pick("parallel", workers=2)
    t1, t2 = sum(o.seconds for o in w1), sum(o.seconds for o in w2)
    def nodes(some):  # a call that raised has no outcome
        return sum(getattr(o.result, "nodes_explored", 0) for o in some)

    ref_nodes = {o.attrs["n"]: nodes([o]) for o in pick("reference")}
    spent = nodes(pick("interrupted") + pick("resumed"))
    baseline = sum(ref_nodes.get(o.attrs["n"], 0) for o in pick("resumed"))
    return {
        "parallel_efficiency": _ratio(t1, 2 * t2),
        "search.parallel.speedup": _ratio(t1, t2),
        "search.parallel.node_inflation": _ratio(nodes(w2), nodes(w1)),
        "search.resume.node_overhead": _ratio(spent, baseline),
        "search.resume.failed": sum(o.failed for o in pick("resumed")),
    }

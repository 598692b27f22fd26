"""The benchmark's workloads, the inputs they generate and the correctness gate.

A workload is one cycle of ops.  An op is a closure ``op(tracer)`` that calls
the library through ``tracer.call`` and raises :class:`GateFailure` when an
output is wrong, so a faster wrong answer counts as a failed op.  A run
repeats whole cycles, which keeps the mix of ops identical from run to run;
the seed picks the sampled arrays, their order, the mutation sites and the
``JobSpec`` seeds.

In a traced cycle every op also probes the layers its workload does not time
end to end (rebuilding and re-certifying a job's array, scanning its pairs,
re-evaluating its IVs), so every layer has a span in every workload.  Probes
run inside ``probe`` spans and only when tracing is on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable

import numpy as np

from codedshuffle import (
    STAR,
    CodedArray,
    ConstructionError,
    GcParameters,
    JobSpec,
    algorithm1,
    algorithm2,
    choose_iv_bits,
    cli,
    compute_stats,
    ct_load,
    gc_load,
    load_from_array,
    nnc_load,
    nnc_pda,
    parse_array,
    run_job,
    validate_mra,
    validate_pda,
)
from codedshuffle.kernels import first_pair_violation
from codedshuffle.mapreduce import IvOracle

from tracing import Tracer

ETAS = ((1, 1), (1, 2), (2, 1), (2, 2))
FAMILIES = ("algorithm1", "algorithm2", "nnc_pda")


class GateFailure(Exception):
    """An op produced a wrong result."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise GateFailure(what)


@dataclass(frozen=True)
class Case:
    """One array of a constructor family; algorithm2 params are (L, r, kvec)."""

    family: str
    params: tuple

    def build(self) -> CodedArray:
        if self.family == "algorithm1":
            return algorithm1(*self.params)
        if self.family == "algorithm2":
            return algorithm2(GcParameters(*self.params))
        return nnc_pda(*self.params)

    def closed_form(self) -> Fraction:
        if self.family == "algorithm1":
            return ct_load(*self.params)
        if self.family == "algorithm2":
            return gc_load(GcParameters(*self.params))
        return nnc_load(*self.params)

    @property
    def is_pda(self) -> bool:
        # algorithm2 blocks of different degrees have unequal star counts
        return self.family != "algorithm2" or sum(map(bool, self.params[2])) == 1


def sweep_cases():
    """The criterion-5/9 sweep: algorithm1 for L <= 8, algorithm2 for L <= 6
    with K_alpha <= 3, nnc_pda for L <= 12 with coding gain g >= 3."""
    for lam in range(2, 9):
        for alpha in range(1, lam):
            for r in range(1, lam - alpha + 1):
                yield Case("algorithm1", (lam, r, alpha))
    for lam in range(2, 7):
        for r in range(1, lam):
            for kvec in product(range(4), repeat=lam - r):
                if any(kvec):
                    yield Case("algorithm2", (lam, r, kvec))
    for lam in range(2, 13):
        for r in range(1, lam + 1):
            if lam % r:
                continue
            for alpha in range(1, lam // r):
                d = lam - (alpha - 1) * r
                if (2 * lam) % d == 0 and 2 * lam // d >= 3:
                    yield Case("nnc_pda", (lam, r, alpha))


def build_sweep():
    """(case, array, stats) for every constructible sweep case."""
    out = []
    for case in sweep_cases():
        try:
            arr = case.build()
        except ConstructionError:
            continue  # parameter points with no valid fill
        out.append((case, arr, compute_stats(arr)))
    return out


def stratified(items, cost, size, rng):
    """Pick about ``size`` items, split over the families by their share of
    ``items``; within a family, one item from each equal-count band of
    ascending cost, so every seed draws nearly the same mix of costs."""
    picks = []
    for fam in FAMILIES:
        pool = sorted((it for it in items if it[0].family == fam), key=cost)
        n = max(1, round(size * len(pool) / len(items)))
        picks += [
            pool[rng.randrange(i * len(pool) // n, (i + 1) * len(pool) // n)]
            for i in range(n)
        ]
    return picks


@dataclass(frozen=True)
class Job:
    """One ``run_job`` call with the values the gate expects of it."""

    case: Case
    array: CodedArray
    eta1: int
    eta2: int
    t_base: int
    spec: JobSpec
    load: Fraction  # closed form
    messages: int  # sum over symbols of g
    xor_terms: int  # sum over symbols of g(g-1)

    @property
    def iv_bits(self) -> int:
        return self.spec.files * self.spec.functions * self.spec.iv_bits


def make_job(case, arr, stats, eta1, eta2, t_base, seed) -> Job:
    t = choose_iv_bits(arr, t_base, eta1, eta2)
    gs = stats.multiplicity.values()
    return Job(
        case, arr, eta1, eta2, t_base,
        JobSpec(arr.rows * eta1, arr.cols * eta2, t, seed),
        case.closed_form(), sum(gs), sum(g * (g - 1) for g in gs),
    )


def mutate(arr: CodedArray, u1: float, u2: float) -> CodedArray:
    """Copy a symbol into a starred cell of its own column, which breaks C2-1.

    ``u1`` and ``u2`` in [0, 1) pick the symbol cell and the starred cell.
    """
    grid = arr.grid.copy()
    star = grid == STAR
    cells = np.argwhere(~star & star.any(axis=0))
    f, k = cells[int(u1 * len(cells))]
    rows = np.flatnonzero(star[:, k])
    grid[rows[int(u2 * len(rows))], k] = grid[f, k]
    return CodedArray(grid)


def certify(tr: Tracer, case: Case, site=None):
    """Construct, round-trip, validate and load one array; ``site`` mutates it.

    Returns the array and its stats.  An unmutated array must pass
    validate_mra, get the PDA verdict of its family and load at its closed
    form; a mutated one must fail both validators and make
    load_from_array raise ValueError.
    """
    arr = tr.call(f"constructors.{case.family}", case.build)
    if site is not None:
        arr = mutate(arr, *site)
    text = tr.call("arrays.serialize", arr.serialize)
    check(tr.call("arrays.parse", parse_array, text) == arr, "parse(serialize(a)) != a")
    stats = tr.call("arrays.stats", compute_stats, arr)
    mra = tr.call("arrays.validate_mra", validate_mra, arr)
    pda = tr.call("arrays.validate_pda", validate_pda, arr)
    tr.count("arrays.cells", arr.rows * arr.cols)
    tr.count("arrays.certified", 1)
    if site is None:
        check(mra.ok, f"{case} rejected as MRA")
        check(pda.ok == case.is_pda, f"{case} got the wrong PDA verdict")
        load = tr.call("metrics.load_from_array", load_from_array, arr)
        check(load == tr.call("metrics.closed_form", case.closed_form),
              f"{case} load differs from its closed form")
    else:
        tr.count("arrays.rejected", 1)
        check(not mra.ok and not pda.ok, f"mutated {case} accepted")
        try:
            tr.call("metrics.load_from_array", load_from_array, arr)
        except ValueError:
            pass
        else:
            raise GateFailure(f"load_from_array accepted mutated {case}")
    return arr, stats


def scan_pairs(tr: Tracer, arr: CodedArray, stats, clean: bool) -> None:
    hit = tr.call("kernels.pair_scan", first_pair_violation, arr.grid)
    tr.count("kernels.pairs", sum(g * (g - 1) // 2 for g in stats.multiplicity.values()))
    check((hit is None) == clean, "pair scan verdict differs from the validators")


def reevaluate_ivs(job: Job) -> int:
    """Evaluate through IvOracle every IV the job's reducers verified."""
    eta1, eta2 = job.eta1, job.eta2
    oracle = IvOracle(job.spec.seed, job.spec.iv_bits)
    n = 0
    for f, k in np.argwhere(job.array.grid != STAR).tolist():
        for q in range(k * eta2, (k + 1) * eta2):
            for i in range(f * eta1, (f + 1) * eta1):
                oracle.value(q, i)
                n += 1
    return n


def decode_op(job: Job, digests: dict, key) -> Callable[[Tracer], None]:
    """One run_job plus transcript dump, gated on decode, load, message
    count and a transcript digest that must repeat whenever the job does."""

    def op(tr: Tracer) -> None:
        transcript, report = tr.call("mapreduce.run_job", run_job, job.array, job.spec)
        text = tr.call("mapreduce.dump", transcript.dump)
        check(report.all_ok, f"{job.case}: a reducer failed to decode")
        check(report.measured_load == job.load, f"{job.case}: load differs from closed form")
        check(len(transcript.messages) == job.messages, f"{job.case}: message count")
        digest = hashlib.sha256(text.encode()).hexdigest()
        check(digests.setdefault(key, digest) == digest, f"{job.case}: transcript changed")
        if not tr.enabled:
            return
        tr.count("mapreduce.messages", len(transcript.messages))
        tr.count("mapreduce.xor_terms", job.xor_terms)
        tr.count("mapreduce.bits_sent", transcript.total_bits)
        tr.count("mapreduce.iv_bits", job.iv_bits)
        with tr.span("probe"):
            arr, stats = certify(tr, job.case)
            check(arr == job.array, f"{job.case}: constructor is not deterministic")
            scan_pairs(tr, arr, stats, clean=True)
            t = tr.call("mapreduce.choose_iv_bits", choose_iv_bits,
                        arr, job.t_base, job.eta1, job.eta2)
            check(t == job.spec.iv_bits, f"{job.case}: choose_iv_bits changed")
            verified = tr.call("mapreduce.iv_oracle", reevaluate_ivs, job)
            check(verified == sum(r.recovered_ivs for r in report.per_reducer),
                  f"{job.case}: recovered IV count")

    return op


def validate_op(case: Case, site) -> Callable[[Tracer], None]:
    """Certify one array; with a mutation site it must be rejected."""

    def op(tr: Tracer) -> None:
        arr, stats = certify(tr, case, site)
        if not tr.enabled:
            return
        with tr.span("probe"):
            scan_pairs(tr, arr, stats, clean=site is None)
            if site is None:
                t = tr.call("mapreduce.choose_iv_bits", choose_iv_bits, arr, 1)
                check(all(t % (g - 1) == 0 for g in stats.multiplicity.values()),
                      f"{case}: IV width does not split every carrier")

    return op


def repro_op(tr: Tracer) -> None:
    """``codedshuffle repro`` must exit 0 with no FAIL line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = tr.call("cli.repro", cli.main, ["repro"])
    lines = out.getvalue().splitlines()
    check(code == 0 and not any(ln.startswith("FAIL") for ln in lines), "repro failed")


@dataclass
class Workload:
    """One cycle of ``(op, traced_only, key)`` steps; traced-only ops are
    probes.  Steps with equal keys run the same op on the same input."""

    cycle: list[tuple[Callable[[Tracer], None], bool, object]]
    digests: dict = field(default_factory=dict)


def decode_workload(jobs: list[Job]) -> Workload:
    wl = Workload([])
    wl.cycle = [(decode_op(job, wl.digests, i), False, i) for i, job in enumerate(jobs)]
    wl.cycle.append((repro_op, True, "repro"))
    return wl


def decode_cost(item) -> float:
    """Rough run_job cost in microseconds, used only to stratify samples."""
    _case, _arr, stats, eta1, eta2 = item
    gs = stats.multiplicity.values()
    return (150 + 80 * len(gs) + 3 * sum(gs) * eta1 * eta2
            + 0.6 * sum(g * g * (g - 1) for g in gs))


def decode_sweep(seed: int, size: int = 300) -> Workload:
    """Many small jobs from the criterion-9 population, etas in {1, 2}^2."""
    rng = random.Random(seed)
    points = [(c, a, s, e1, e2) for c, a, s in build_sweep() for e1, e2 in ETAS]
    points.sort(key=decode_cost)
    # The heavy points (the twelve L=8 algorithm1 jobs with g >= 56) would
    # set the tail.  The two costliest are in every sample and the others in
    # none; the next fourteen are in every sample too, so the ops that make
    # the tail are the same for every seed, not a matter of its draw.
    heavy = sum(decode_cost(p) > 150_000 for p in points)
    top = points[-2:] + points[-heavy - 14:-heavy]
    sample = top + stratified(points[:-heavy - 14], decode_cost, size - len(top), rng)
    rng.shuffle(sample)
    return decode_workload([
        make_job(c, a, s, e1, e2, 1, rng.getrandbits(32))
        for c, a, s, e1, e2 in sample
    ])


LARGE_CASES = (
    Case("algorithm1", (16, 2, 2)),
    Case("algorithm1", (12, 5, 5)),
    Case("algorithm1", (12, 6, 6)),
    Case("algorithm1", (12, 2, 4)),
    Case("algorithm2", (6, 1, (3,) * 5)),
    Case("nnc_pda", (36, 3, 9)),
)


def validate_cost(item) -> int:
    _case, arr, stats = item
    return arr.rows * arr.cols + 30 * len(stats.multiplicity)


def validate_arrays(seed: int) -> Workload:
    """Certify the large cases and a sweep sample in four passes.

    Each array is mutated in exactly one pass, so a quarter of the array ops
    take the reject path and every cycle holds the same mix.  Each pass ends
    with ``codedshuffle repro`` and, when traced, one small decode probe.
    """
    passes = 4
    rng = random.Random(seed)
    sample = stratified(build_sweep(), validate_cost, 32, rng)
    rng.shuffle(sample)
    cases = list(LARGE_CASES) + [c for c, _a, _s in sample]
    bad_pass = [rng.randrange(passes) for _ in cases]
    sites = [(rng.random(), rng.random()) for _ in cases]
    c, a, s = min(sample, key=validate_cost)
    wl = Workload([])
    probe = decode_op(make_job(c, a, s, 1, 1, 1, rng.getrandbits(32)), wl.digests, 0)
    for p in range(passes):
        for i in rng.sample(range(len(cases)), len(cases)):
            bad = bad_pass[i] == p
            wl.cycle.append((validate_op(cases[i], sites[i] if bad else None), False, (i, bad)))
        wl.cycle.append((repro_op, False, "repro"))
        wl.cycle.append((probe, True, "probe"))
    return wl


# name -> (factory, seconds budgeted per cycle).  A run of S seconds performs
# round(S / budget) whole cycles, so every run and every commit measures the
# same ops; at 45 s that is 11 and 5 cycles.  On a 2-core Intel Xeon VM the
# cycles took about 3.5-5 s and 7-12 s when the benchmark was defined, the
# spread being load from elsewhere on the host.
WORKLOADS = {
    "decode_sweep": (decode_sweep, 4.0),
    "validate_arrays": (validate_arrays, 9.0),
}

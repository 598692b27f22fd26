#!/usr/bin/env python3
"""Benchmark of the codedshuffle package, run from the repository root:

    python3 perfbench/run.py --workload decode_sweep --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45

Each workload is a single-threaded closed loop: the next op starts when the
previous one returns.  A run performs a fixed number of whole cycles of ops
(see workloads.py), sized to take about ``--seconds``, and checks every op.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs
untraced-then-traced cycle pairs, at least two and as many as fit in
``--seconds``, and reports per-layer self times
(median per traced cycle), exact work counts per cycle, and the tracing
overhead: traced minus untraced cycle wall time, which includes
``trace.probe_s`` of probe calls made only when tracing.  The last line of
stdout is the result as JSON; the full record, with the environment
fingerprint and, when traced, every span, is written under ``.perfbench/``.
``--workload all`` runs each workload in its own process and prints one
table.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("decode_sweep", "validate_arrays")

# span names timed per layer; each is reported as "<name>_s"
LAYERS = (
    "kernels.pair_scan",
    "arrays.parse",
    "arrays.serialize",
    "arrays.stats",
    "arrays.validate_mra",
    "arrays.validate_pda",
    "constructors.algorithm1",
    "constructors.algorithm2",
    "constructors.nnc_pda",
    "mapreduce.run_job",
    "mapreduce.choose_iv_bits",
    "mapreduce.dump",
    "mapreduce.iv_oracle",
    "metrics.load_from_array",
    "metrics.closed_form",
    "cli.repro",
)
COUNTS = (
    "kernels.pairs",
    "arrays.cells",
    "arrays.certified",
    "arrays.rejected",
    "mapreduce.messages",
    "mapreduce.xor_terms",
    "mapreduce.bits_sent",
    "mapreduce.iv_bits",
)
UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "kernels.mpairs_per_s": "Mpair/s",
    "mapreduce.iv_mbit_per_s": "Mbit/s",
    "arrays.reject_share": "share",
    "trace.overhead_s": "s",
    "trace.probe_s": "s",
}


def add_source_path() -> bool:
    """Put the checkout's ``src`` first on the import path, if it is there."""
    src = ROOT / "src"
    if not (src / "codedshuffle" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    return True


def fingerprint() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def run_cycle(wl, tracer, failures: list) -> list[int]:
    """Run one cycle and return the nanoseconds of each op that ran.

    Traced-only ops run as ``probe`` spans, and only when tracing; an
    untraced cycle runs the same ops in the same order every time.
    """
    from workloads import GateFailure

    times = []
    for op, traced_only, _key in wl.cycle:
        if traced_only and not tracer.enabled:
            continue
        t0 = time.perf_counter_ns()
        try:
            with tracer.span("probe" if traced_only else "op", op=len(times)):
                op(tracer)
        except GateFailure as exc:
            failures.append(str(exc))
        except Exception:  # any crash is a failed op, reported below
            failures.append(traceback.format_exc())
        times.append(time.perf_counter_ns() - t0)
    return times


def end_to_end(keys: list, cycles: list, setup_s: float) -> tuple[dict, dict]:
    """Metrics of the untraced cycles, which all ran the ops keyed ``keys``.

    Each op's time is the fastest of its repeats, which are spread over the
    whole run: load from elsewhere on a shared host only ever slows an op
    down, and it comes and goes over seconds, so the fastest repeat is the
    one it disturbed least.  Ops with equal keys are repeats of each other.
    The op times of one cycle are then summarised as ops per second, a
    median and the tail value that has ten ops beyond it.
    """
    fastest: dict = {}
    for times in cycles:
        for key, ns in zip(keys, times):
            fastest[key] = min(ns, fastest.get(key, ns))
    per_op = [fastest[key] for key in keys]
    n = len(per_op)
    tail_at = max(0, n - 11)  # ten ops lie beyond this one
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": n / (sum(per_op) / 1e9),
        "op_p50_ms": statistics.median(per_op) / 1e6,
        "op_tail_ms": sorted(per_op)[tail_at] / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {"ops_per_cycle": n, "distinct_ops": len(fastest),
             "op_tail_percentile": 100 * (tail_at + 1) / n}
    return metrics, extra


def per_layer(pairs: list) -> tuple[dict, dict, list]:
    """Median per traced cycle of each layer metric, plus the exact counts.

    Returns the metrics, the counts of one cycle, and the names of counts
    that did not repeat exactly across cycles.
    """
    from tracing import outer_seconds, self_seconds

    cycles = []
    for untraced_wall, traced_wall, tr in pairs:
        own = self_seconds(tr.spans)
        m = {f"{name}_s": own[name] for name in LAYERS}
        m["kernels.pairs"] = tr.counts["kernels.pairs"]
        m["kernels.mpairs_per_s"] = tr.counts["kernels.pairs"] / own["kernels.pair_scan"] / 1e6
        m["arrays.cells"] = tr.counts["arrays.cells"]
        m["arrays.reject_share"] = tr.counts["arrays.rejected"] / tr.counts["arrays.certified"]
        for name in ("messages", "xor_terms", "bits_sent", "iv_bits"):
            m[f"mapreduce.{name}"] = tr.counts[f"mapreduce.{name}"]
        m["mapreduce.iv_mbit_per_s"] = tr.counts["mapreduce.iv_bits"] / own["mapreduce.run_job"] / 1e6
        m["trace.overhead_s"] = traced_wall - untraced_wall
        m["trace.probe_s"] = outer_seconds(tr.spans, "probe")
        cycles.append(m)
    counts = {k: pairs[0][2].counts[k] for k in COUNTS}
    drifted = [k for k in COUNTS if any(tr.counts[k] != counts[k] for *_w, tr in pairs)]
    metrics = {k: statistics.median(c[k] for c in cycles) for k in cycles[0]}
    return metrics, counts, drifted


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") else "count"


def measure(name: str, seed: int, seconds: int, trace: bool) -> dict:
    t0 = time.perf_counter()
    import workloads
    from tracing import Tracer

    import_s = time.perf_counter() - t0
    factory, cycle_s = workloads.WORKLOADS[name]
    generate = []
    wl = None
    for _ in range(SETUP_REPEATS):
        wl = None  # free the previous inputs before building new ones
        t0 = time.perf_counter()
        wl = factory(seed)
        generate.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(generate)

    untraced: list[list[int]] = []
    failures: list[str] = []
    pairs = []
    start = time.perf_counter()
    cycles = max(1, round(seconds / cycle_s))
    while len(untraced) < cycles:
        t0 = time.perf_counter()
        untraced.append(run_cycle(wl, Tracer(False), failures))
        untraced_wall = time.perf_counter() - t0
        if not trace:
            continue
        tr = Tracer(True)
        t0 = time.perf_counter()
        traced = run_cycle(wl, tr, failures)
        pairs.append((untraced_wall, time.perf_counter() - t0, tr))
        # a traced cycle runs probes as well, so pairs stop at the deadline;
        # two at least, so that the counts can be seen to repeat
        elapsed = time.perf_counter() - start
        fits = elapsed + elapsed / len(pairs) / 2 < seconds
        cycles = len(pairs) + 1 if fits or len(pairs) < 2 else len(pairs)
    attempted = sum(map(len, untraced)) + (len(traced) * len(pairs) if trace else 0)

    details = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": fingerprint(),
        "cycles": len(untraced),
        "setup": {"import_s": import_s, "generate_s": generate},
        "failed_ratio": len(failures) / attempted,
        "failures": failures[:20],
    }
    if trace:
        metrics, counts, drifted = per_layer(pairs)
        details["counts"] = counts
        details["counts_drifted"] = drifted
        correct = not failures and not drifted
    else:
        keys = [key for _op, traced_only, key in wl.cycle if not traced_only]
        metrics, extra = end_to_end(keys, untraced, setup_s)
        details.update(extra)
        details["op_ns"] = untraced
        correct = not failures
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps({"result": result, "details": details}, indent=1))
    if trace:
        spans = [tr.spans for *_w, tr in pairs]
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start_ns", "end_ns", "parent", "op"], "cycles": spans}))
    for msg in failures[:5]:
        print(f"FAILED OP: {msg}", file=sys.stderr)
    print(f"workload {name} seed {seed} trace {int(trace)}: {len(untraced)} cycles, "
          f"{attempted} ops, {len(failures)} failed")
    print("env " + json.dumps(details["env"]))
    for key in ("failed_ratio", "ops_per_cycle", "distinct_ops", "op_tail_percentile",
                "counts", "counts_drifted"):
        if key in details:
            print(f"{key} {json.dumps(details[key])}")
    return result


def run_all(args) -> dict:
    """Run every workload in its own process and print one table."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"{name} exited with code {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        print(f"  {'failed_ratio':28s} {res['failed'] / res['attempted']:>16.6g} share")
        for metric, val in res["metrics"].items():
            print(f"  {metric:28s} {val['value']:>16.6g} {val['unit']}")
            merged["metrics"][f"{name}.{metric}"] = val
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not add_source_path():
        print(f"no codedshuffle sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    else:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

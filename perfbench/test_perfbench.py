"""Checks that the benchmark's gate is live and its output keeps the contract.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

assert run.add_source_path()

import workloads  # noqa: E402
from tracing import Tracer, self_seconds  # noqa: E402
from workloads import Case, GateFailure  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def small_job(seed=3):
    case = Case("algorithm1", (4, 2, 1))
    arr = case.build()
    return workloads.make_job(case, arr, workloads.compute_stats(arr), 2, 1, 1, seed)


def test_clean_ops_pass_traced_and_untraced():
    op = workloads.decode_op(small_job(), {}, 0)
    op(Tracer(False))
    op(Tracer(True))
    workloads.validate_op(Case("nnc_pda", (12, 2, 4)), None)(Tracer(True))
    workloads.validate_op(Case("nnc_pda", (12, 2, 4)), (0.3, 0.6))(Tracer(True))
    workloads.repro_op(Tracer(False))


def test_wrong_expected_load_fails_the_op():
    job = small_job()
    wrong = dataclasses.replace(job, load=job.load + 1)
    with pytest.raises(GateFailure, match="closed form"):
        workloads.decode_op(wrong, {}, 0)(Tracer(False))


def test_flipped_payload_bit_fails_the_op(monkeypatch):
    op = workloads.decode_op(small_job(), {}, 0)
    op(Tracer(False))
    real = workloads.run_job

    def corrupted(arr, spec):
        transcript, report = real(arr, spec)
        first = transcript.messages[0]
        msgs = (dataclasses.replace(first, payload=first.payload ^ 1),) + transcript.messages[1:]
        return dataclasses.replace(transcript, messages=msgs), report

    monkeypatch.setattr(workloads, "run_job", corrupted)
    with pytest.raises(GateFailure, match="transcript changed"):
        op(Tracer(False))


def test_accepted_mutation_fails_the_op(monkeypatch):
    ok = workloads.validate_mra(Case("nnc_pda", (12, 2, 4)).build())
    monkeypatch.setattr(workloads, "validate_mra", lambda arr: ok)
    monkeypatch.setattr(workloads, "validate_pda", lambda arr: ok)
    with pytest.raises(GateFailure, match="accepted"):
        workloads.validate_op(Case("nnc_pda", (12, 2, 4)), (0.5, 0.5))(Tracer(False))


def test_mutation_breaks_the_column_condition():
    arr = Case("algorithm1", (6, 2, 2)).build()
    bad = workloads.mutate(arr, 0.71, 0.2)
    assert int((bad.grid != arr.grid).sum()) == 1
    assert not workloads.validate_mra(bad).ok
    with pytest.raises(ValueError):
        workloads.load_from_array(bad)


def traced_cycle(wl):
    tr = Tracer(True)
    for op, _traced_only, _key in wl.cycle:
        with tr.span("op"):
            op(tr)
    return tr


def test_counts_and_transcripts_repeat_for_a_seed():
    first = workloads.decode_sweep(11, size=12)
    second = workloads.decode_sweep(11, size=12)
    a, b = traced_cycle(first), traced_cycle(second)
    assert a.counts == b.counts
    assert a.counts["mapreduce.messages"] > 0
    assert first.digests == second.digests
    other = workloads.decode_sweep(12, size=12)
    traced_cycle(other)
    assert other.digests != first.digests


def test_self_time_excludes_children():
    spans = [["op", 0, 100, -1, 0], ["a", 10, 40, 0, 0], ["b", 50, 60, 0, 0]]
    own = self_seconds(spans)
    assert own["op"] == pytest.approx(60e-9)
    assert own["a"] == pytest.approx(30e-9)


def test_op_time_is_the_fastest_repeat_of_its_key():
    cycles = [[30e6, 5e6, 10e6], [20e6, 7e6, 40e6]]
    metrics, extra = run.end_to_end(["a", "b", "a"], cycles, 1.0)
    assert extra["distinct_ops"] == 2
    assert metrics["op_p50_ms"] == pytest.approx(10)
    assert metrics["ops_per_s"] == pytest.approx(3 / 25e-3)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_declared_metric(trace, kind):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "decode_sweep",
         "--seed", "4", "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True, cwd=run.ROOT,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decode_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

#!/usr/bin/env python3
"""Digests that pin what the package computes, for before/after comparisons.

Run from anywhere in a checkout:

    python3 tools/identity_digests.py

It imports the package from the checkout's ``src`` and the sweep definition
from ``tests/conftest.py``, and prints five sha256 values:

* ``arrays``: over ``serialize()`` of every array of the criterion-5 sweep
  (subset topology with up to 8 mappers, the concatenated family with up to
  6 mappers and multiplicities up to 3, the constructible wrap-around
  points with up to 12 mappers) followed by the subset-topology arrays
  (16, 2, 2), (12, 5, 5), (12, 6, 6) and (12, 2, 4);
* ``jobs``: over ``dump()`` of the transcript and the sorted JSON of the
  report of every criterion-9 job, that is every sweep array at
  eta in {(1, 1), (1, 2), (2, 1), (2, 2)} with the smallest IV width for
  t_base 1, at seeds 17 and 3 (15 248 jobs);
* ``parse``: over the ``parse_array`` outcome (the grid's shape and bytes,
  or the error message) of each of those array texts with one fault in its
  grid body, chosen from the text's index i: fault i % 4 (a token replaced
  by ``x``, a token dropped, a row dropped, a symbol zero-padded to 20
  digits) in row i % F at token i // 4 (mod the row's tokens or symbols);
* ``stats``: over the ``compute_stats`` fields, the star-run starts and the
  ``validate_mra``, ``validate_pda`` and ``validate_l_cyclic`` reports (at
  the array's cyclic shift, else 1) of each of those arrays and of a copy
  with one fault: the i-th array's symbol cell i * 7919 (mod the symbol
  cells in partly starred columns, row-major) copied into starred cell i of
  its column (mod its stars), as the benchmark's mutation does;
* ``cli``: over the argv, exit code, stdout and stderr of each command of
  :func:`cli_commands`: ``repro``, ``sweep`` of every family at 1 to 12
  mappers (gc with three vectors each, most of them of the wrong length),
  ``loads`` at one point per family, ``construct`` per family and four
  usage errors.

Two commits compute the same thing exactly when all digests agree.  The
job digest takes about 20 s on a 2-core VM; :func:`job_digest` gives it
at any seeds, and the test suite pins the seed-17 half and checks the same
jobs' reports for acceptance criterion 9.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from codedshuffle import (  # noqa: E402
    STAR,
    ArrayFormatError,
    CodedArray,
    JobSpec,
    algorithm1,
    choose_iv_bits,
    compute_stats,
    parse_array,
    run_job,
    validate_l_cyclic,
    validate_mra,
    validate_pda,
)
from codedshuffle.cli import main as cli_main  # noqa: E402
from conftest import build_sweep  # noqa: E402

LARGE_ALG1 = ((16, 2, 2), (12, 5, 5), (12, 6, 6), (12, 2, 4))
ETAS = ((1, 1), (1, 2), (2, 1), (2, 2))
SEEDS = (17, 3)


def with_fault(text: str, i: int) -> str:
    """``text`` with fault i % 4 in its grid body (see the module doc)."""
    header, *rows = text.splitlines()
    f = i % len(rows)
    toks = rows[f].split()
    k = i // 4
    kind = i % 4
    if kind == 0:
        toks[k % len(toks)] = "x"
    elif kind == 1:
        del toks[k % len(toks)]
    elif kind == 2:
        del rows[f]
    else:
        # a symbol of the first row from f on that holds one
        while not (syms := [j for j, t in enumerate(toks) if t != "*"]):
            f = (f + 1) % len(rows)
            toks = rows[f].split()
        at = syms[k % len(syms)]
        toks[at] = toks[at].zfill(20)
    if kind != 2:
        rows[f] = " ".join(toks)
    return "\n".join([header, *rows]) + "\n"


def parse_outcome(text: str) -> bytes:
    try:
        grid = parse_array(text).grid
    except ArrayFormatError as exc:
        return f"error {exc}\n".encode()
    return f"grid {grid.shape}\n".encode() + grid.tobytes()


def with_mutation(arr: CodedArray, i: int) -> CodedArray:
    """``arr`` with one symbol copied into a starred cell of its column
    (see the module doc); ``arr`` itself when no column is partly starred."""
    grid = arr.grid.copy()
    star = grid == STAR
    cells = np.argwhere(~star & star.any(axis=0))
    if not len(cells):
        return arr
    f, k = cells[i * 7919 % len(cells)]
    rows = np.flatnonzero(star[:, k])
    grid[rows[i % len(rows)], k] = grid[f, k]
    return CodedArray(grid)


def report_json(report) -> dict:
    return {
        "checks": dict(report.checks),
        "violation": report.violation and report.violation.describe(),
        "details": dict(report.details),
    }


def stats_outcome(arr: CodedArray) -> bytes:
    st = compute_stats(arr)
    shift = 1 if st.cyclic_shift is None else st.cyclic_shift
    out = {
        "multiplicity": list(st.multiplicity.items()),
        "histogram": list(st.histogram.items()),
        "column_stars": st.column_stars,
        "common_g": st.common_g,
        "cyclic_shift": st.cyclic_shift,
        "star_run_starts": arr.star_run_starts.tolist(),
        "mra": report_json(validate_mra(arr)),
        "pda": report_json(validate_pda(arr)),
        "l_cyclic": report_json(validate_l_cyclic(arr, shift)),
    }
    return json.dumps(out).encode()


def cli_commands():
    """The command lines of the ``cli`` digest."""
    yield ["repro"]
    for lam in range(1, 13):
        for family in ("ct", "nnc", "be"):
            yield ["sweep", family, "--lambda", str(lam)]
        ones = ",".join(["1"] * (lam - 1))
        for kvec in (ones, "2,0,1", "0,3"):
            yield ["sweep", "gc", "--lambda", str(lam), "--kvec", kvec]
    yield ["loads", "ct", "--lambda", "12", "--r", "2", "--alpha", "4"]
    yield ["loads", "nnc", "--lambda", "12", "--r", "2", "--alpha", "4"]
    yield ["loads", "gc", "--lambda", "4", "--r", "2", "--kvec", "2,3"]
    yield ["loads", "be", "--lambda", "12", "--r", "5/2", "--alpha", "4"]
    yield ["construct", "alg1", "--lambda", "5", "--r", "2", "--alpha", "2"]
    yield ["construct", "alg2", "--lambda", "4", "--r", "2", "--kvec", "2,3"]
    yield ["construct", "nnc", "--lambda", "12", "--r", "2", "--alpha", "4"]
    # usage errors, each named on stderr
    yield ["loads", "ct", "--lambda", "12", "--r", "2"]
    yield ["loads", "gc", "--lambda", "4", "--r", "2", "--kvec", "2,-1"]
    yield ["construct", "alg1", "--lambda", "4", "--r", "x", "--alpha", "2"]
    yield ["construct", "nnc", "--lambda", "5", "--r", "2", "--alpha", "2"]


def cli_outcome(argv: list[str]) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return json.dumps([argv, code, out.getvalue(), err.getvalue()]).encode()


def array_digests(sweep: list[CodedArray]) -> tuple[str, str, str]:
    """The ``arrays``, ``parse`` and ``stats`` digests of the sweep arrays
    followed by the large subset-topology arrays."""
    arrays = hashlib.sha256()
    parse = hashlib.sha256()
    stats = hashlib.sha256()
    for i, arr in enumerate(sweep + [algorithm1(*p) for p in LARGE_ALG1]):
        text = arr.serialize()
        arrays.update(text.encode())
        parse.update(parse_outcome(with_fault(text, i)))
        stats.update(stats_outcome(arr))
        stats.update(stats_outcome(with_mutation(arr, i)))
    return arrays.hexdigest(), parse.hexdigest(), stats.hexdigest()


def job_digest(sweep: list[CodedArray], seeds=SEEDS) -> tuple[str, list]:
    """The ``jobs`` digest of the sweep arrays' jobs at ``seeds``, and the
    report of each job in the order run: array, then eta, then seed."""
    jobs = hashlib.sha256()
    reports = []
    for arr in sweep:
        for eta1, eta2 in ETAS:
            t = choose_iv_bits(arr, 1, eta1, eta2)
            for seed in seeds:
                spec = JobSpec(arr.rows * eta1, arr.cols * eta2, t, seed=seed)
                tr, rep = run_job(arr, spec)
                jobs.update(tr.dump().encode())
                jobs.update(json.dumps(rep.to_json_dict(), sort_keys=True).encode())
                reports.append(rep)
    return jobs.hexdigest(), reports


def main() -> None:
    cli = hashlib.sha256()
    commands = list(cli_commands())
    for argv in commands:
        cli.update(cli_outcome(argv))
    sweep = [arr for *_, arr in build_sweep()]
    arrays, parse, stats = array_digests(sweep)
    jobs, reports = job_digest(sweep)
    print(f"arrays {arrays} ({len(sweep)} sweep + {len(LARGE_ALG1)} large)")
    print(f"jobs   {jobs} ({len(reports)} jobs)")
    print(f"parse  {parse} ({len(sweep) + len(LARGE_ALG1)} faulted texts)")
    print(f"stats  {stats} ({len(sweep) + len(LARGE_ALG1)} arrays and their mutations)")
    print(f"cli    {cli.hexdigest()} ({len(commands)} commands)")


if __name__ == "__main__":
    main()

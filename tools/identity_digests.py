#!/usr/bin/env python3
"""Digests that pin what the package computes, for before/after comparisons.

Run from anywhere in a checkout:

    python3 tools/identity_digests.py

It imports the package from the checkout's ``src`` and the sweep definition
from ``tests/conftest.py``, and prints three sha256 values:

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
  digits) in row i % F at token i // 4 (mod the row's tokens or symbols).

Two commits compute the same thing exactly when all digests agree.  The
job digest takes about 20 s on a 2-core VM.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from codedshuffle import (  # noqa: E402
    ArrayFormatError,
    ConstructionError,
    JobSpec,
    algorithm1,
    algorithm2,
    choose_iv_bits,
    nnc_pda,
    parse_array,
    run_job,
)
from conftest import alg1_triples, alg2_params, nnc_triples  # noqa: E402

LARGE_ALG1 = ((16, 2, 2), (12, 5, 5), (12, 6, 6), (12, 2, 4))
ETAS = ((1, 1), (1, 2), (2, 1), (2, 2))
SEEDS = (17, 3)


def sweep_arrays():
    """The criterion-5 sweep in conftest order: subset, concatenated, wrap-around."""
    arrays = [algorithm1(*p) for p in alg1_triples()]
    arrays += [algorithm2(p) for p in alg2_params()]
    for p in nnc_triples():
        try:
            arrays.append(nnc_pda(*p))
        except ConstructionError:
            continue
    return arrays


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


def main() -> None:
    sweep = sweep_arrays()
    arrays = hashlib.sha256()
    parse = hashlib.sha256()
    for i, arr in enumerate(sweep + [algorithm1(*p) for p in LARGE_ALG1]):
        text = arr.serialize()
        arrays.update(text.encode())
        parse.update(parse_outcome(with_fault(text, i)))
    jobs = hashlib.sha256()
    count = 0
    for arr in sweep:
        for eta1, eta2 in ETAS:
            t = choose_iv_bits(arr, 1, eta1, eta2)
            for seed in SEEDS:
                spec = JobSpec(arr.rows * eta1, arr.cols * eta2, t, seed=seed)
                tr, rep = run_job(arr, spec)
                jobs.update(tr.dump().encode())
                jobs.update(json.dumps(rep.to_json_dict(), sort_keys=True).encode())
                count += 1
    print(f"arrays {arrays.hexdigest()} ({len(sweep)} sweep + {len(LARGE_ALG1)} large)")
    print(f"jobs   {jobs.hexdigest()} ({count} jobs)")
    print(f"parse  {parse.hexdigest()} ({len(sweep) + len(LARGE_ALG1)} faulted texts)")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""A/B timings of two copies of the package, side by side in one process.

Run from anywhere in a checkout:

    python3 tools/ab_timing.py OLD_SRC NEW_SRC [--repeat N] [--seed S]

``OLD_SRC`` and ``NEW_SRC`` are ``src`` directories that each hold a
``codedshuffle`` package, for example that of a clone of the parent commit
and the checkout's own.  Both packages are copied to a temporary directory
as ``cs_old`` and ``cs_new`` and imported together, so both sides share one
interpreter and the same host load at the same moment; separate benchmark
runs on a busy host can differ by far more than a few percent.

The inputs come from the checkout: the criterion-5 sweep of
``tests/conftest.build_sweep`` and the mutation and large arrays of
``tools/identity_digests.py``.  The groups of cases are:

* ``build``: construct each sweep array from its point (a gc point's
  ``GcParameters`` included) and ``compute_stats`` of it;
* ``scan clean``: ``kernels.scan_groups`` of each sweep array, on the
  side's own ``group_cells`` plan, built before timing;
* ``scan mutated``: the same on each sweep array i as
  ``identity_digests.with_mutation(arr, i)`` mutates it;
* ``scan hard``: the same on the four seeded invalid grids of
  :func:`hard_grids`, the scan's worst cases: many cells per symbol and
  hits in every chunk;
* ``run_job+dump``: ``run_job`` plus ``dump`` of every criterion-9 job
  (each sweep array at the four eta pairs, the smallest IV width for
  t_base 1) at seed ``S`` (default 17), on arrays whose plans are cached;
* ``certify``: construct, serialize, parse, stats, both validators and
  ``load_from_array`` of each large subset-topology array and of each
  sweep array, built from its point; its rows below the group's give the
  large cases and the sweep ones;
* ``certify mutated``: the same from each large array's mutated grid;
* ``text``: ``parse_array`` of the text of each sweep array, of each sweep
  array i as ``with_mutation(arr, i)`` mutates it, and of each large array
  and its mutated copy, every text serialized before timing; a case's
  output is the parsed grid or the error message.  Its rows below the
  group's give the sweep cases, the large ones, and each large array with
  its mutated copy.

Each case runs once on each side first, and both sides must give equal
outputs; else the tool names the case and exits 1.  Then each case is
timed ``N`` times per side (default 5), the side that goes first
alternating, and its best time is kept.  For each group, and each part
of a group that has parts, the tool prints the total of the best times on
each side, the median of the per-case ratio new/old, and the share of
cases where each side is faster.  At the defaults it takes about two
minutes on a 2-core VM.
"""

from __future__ import annotations

import argparse
import importlib
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

# identity_digests puts the checkout's src and tests on the path
from identity_digests import ETAS, LARGE_ALG1, with_mutation  # noqa: E402

import numpy as np  # noqa: E402
from codedshuffle import STAR, CodedArray, algorithm1  # noqa: E402
from conftest import build_sweep  # noqa: E402

SIDES = ("cs_old", "cs_new")


def load_sides(old_src: Path, new_src: Path, tmp: Path) -> list:
    """Both packages, copied under the names of :data:`SIDES`."""
    sys.path.insert(0, str(tmp))
    sides = []
    for name, src in zip(SIDES, (old_src, new_src)):
        shutil.copytree(
            src / "codedshuffle", tmp / name,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        sides.append(importlib.import_module(name))
    return sides


def hard_grids() -> list[np.ndarray]:
    """Random grids from ``default_rng(5)``: 512 x 512 with 1000 labels and
    half the cells stars, 256 x 256 with 5000 labels and 80% stars,
    256 x 256 with one label and half stars, and 2000 x 300 with 20 labels
    and half stars; each violates the crossing condition."""
    rng = np.random.default_rng(5)
    grids = []
    for shape, labels, stars in [
        ((512, 512), 1000, 0.5),
        ((256, 256), 5000, 0.8),
        ((256, 256), 1, 0.5),
        ((2000, 300), 20, 0.5),
    ]:
        grid = rng.integers(0, labels, shape)
        grid[rng.random(shape) < stars] = STAR
        grids.append(grid)
    return grids


def scan_case(cs, grid):
    plan = cs.kernels.group_cells(grid)[1:]
    return lambda: cs.kernels.scan_groups(grid.shape, *plan)


def job_case(arr, cs, eta1, eta2, seed):
    t = cs.choose_iv_bits(arr, 1, eta1, eta2)
    spec = cs.JobSpec(arr.rows * eta1, arr.cols * eta2, t, seed=seed)

    def run():
        transcript, report = cs.run_job(arr, spec)
        return transcript.dump(), report

    return run


def builder(cs, family, point):
    """The side's construction of ``family``'s array at ``point``, as a thunk."""
    return {
        "ct": lambda: cs.algorithm1(*point),
        "gc": lambda: cs.algorithm2(cs.GcParameters(*point)),
        "nnc": lambda: cs.nnc_pda(*point),
    }[family]


def build_case(cs, family, point):
    construct = builder(cs, family, point)

    def run():
        arr = construct()
        return arr, cs.compute_stats(arr)

    return run


def certify_case(cs, build):
    def run():
        arr = build()
        text = arr.serialize()
        parsed = cs.parse_array(text) == arr
        stats = cs.compute_stats(arr)
        mra, pda = cs.validate_mra(arr), cs.validate_pda(arr)
        try:
            load = cs.load_from_array(arr)
        except ValueError as exc:
            load = str(exc)
        return text, parsed, stats, mra, pda, load

    return run


def parse_case(cs, text):
    def run():
        try:
            return cs.parse_array(text).grid
        except cs.ArrayFormatError as exc:
            return str(exc)

    return run


def report_outcome(report):
    return dict(report.checks), report.violation and report.violation.describe(), report.details


def job_outcome(out):
    text, report = out
    return text, report.to_json_dict()


def census(st):
    return (list(st.multiplicity.items()), st.histogram, st.column_stars, st.common_g,
            st.cyclic_shift)


def build_outcome(out):
    arr, st = out
    return arr.grid.shape, arr.grid.tobytes(), census(st)


def parse_outcome(out):
    return out if isinstance(out, str) else (out.shape, out.tobytes())


def certify_outcome(out):
    text, parsed, st, mra, pda, load = out
    return text, parsed, census(st), report_outcome(mra), report_outcome(pda), load


def groups(sides, seed: int):
    """(name, cases, outcome, parts) per group; a case is its thunk on each
    side, ``outcome`` turns a thunk's return into values to compare, and
    ``parts`` names slices of the cases reported on their own rows."""
    points = build_sweep()
    sweep = [arr for *_, arr in points]
    mutated = [with_mutation(arr, i).grid for i, arr in enumerate(sweep)]
    large = [algorithm1(*p) for p in LARGE_ALG1]
    broken = [with_mutation(arr, len(sweep) + j).grid for j, arr in enumerate(large)]
    arrays = [[cs.CodedArray(arr.grid) for arr in sweep] for cs in sides]
    yield "build", [
        [build_case(cs, family, tuple(point)) for cs in sides] for family, point, _ in points
    ], build_outcome, []
    yield "scan clean", [[scan_case(cs, a.grid) for cs in sides] for a in sweep], tuple, []
    yield "scan mutated", [[scan_case(cs, g) for cs in sides] for g in mutated], tuple, []
    yield "scan hard", [[scan_case(cs, g) for cs in sides] for g in hard_grids()], tuple, []
    jobs = [
        [job_case(arrs[i], cs, eta1, eta2, seed) for cs, arrs in zip(sides, arrays)]
        for i in range(len(sweep))
        for eta1, eta2 in ETAS
    ]
    yield "run_job+dump", jobs, job_outcome, []
    yield "certify", [
        [certify_case(cs, builder(cs, "ct", p)) for cs in sides] for p in LARGE_ALG1
    ] + [
        [certify_case(cs, builder(cs, family, tuple(point))) for cs in sides]
        for family, point, _ in points
    ], certify_outcome, [
        ("large", slice(0, len(LARGE_ALG1))),
        ("sweep", slice(len(LARGE_ALG1), None)),
    ]
    yield "certify mutated", [
        [certify_case(cs, lambda cs=cs, g=g: cs.CodedArray(g)) for cs in sides]
        for g in broken
    ], certify_outcome, []
    # each large array's text beside its mutated copy's
    texts = [a.serialize() for a in sweep] + [CodedArray(g).serialize() for g in mutated]
    for arr, g in zip(large, broken):
        texts += [arr.serialize(), CodedArray(g).serialize()]
    n = 2 * len(sweep)
    yield "text", [[parse_case(cs, t) for cs in sides] for t in texts], parse_outcome, [
        ("sweep", slice(0, n)),
        ("large", slice(n, None)),
        *((str(p), slice(n + 2 * j, n + 2 * j + 2)) for j, p in enumerate(LARGE_ALG1)),
    ]


def row(name: str, best: list) -> str:
    """The report line of the cases whose best times are ``best``."""
    old, new = (sum(b[s] for b in best) / 1e6 for s in (0, 1))
    ratio = statistics.median(b / a for a, b in best)
    old_wins = sum(a < b for a, b in best) / len(best)
    new_wins = sum(b < a for a, b in best) / len(best)
    return (f"{name:<16}{len(best):>6}{old:>10.1f}{new:>10.1f}{new / old:>9.3f}"
            f"{ratio:>8.3f}{old_wins:>12.0%}{new_wins:>12.0%}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    ap.add_argument("old_src", type=Path)
    ap.add_argument("new_src", type=Path)
    ap.add_argument("--repeat", type=int, default=5, help="timed runs per case and side")
    ap.add_argument("--seed", type=int, default=17, help="the jobs' IV seed")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory(prefix="ab-timing-") as tmp:
        sides = load_sides(args.old_src, args.new_src, Path(tmp))
        print(f"old {args.old_src}, new {args.new_src}, best of {args.repeat}")
        print(f"{'group':<16}{'cases':>6}{'old ms':>10}{'new ms':>10}{'new/old':>9}"
              f"{'median':>8}{'old faster':>12}{'new faster':>12}")
        for name, cases, outcome, parts in groups(sides, args.seed):
            best = [[float("inf")] * 2 for _ in cases]
            for i, thunks in enumerate(cases):
                if outcome(thunks[0]()) != outcome(thunks[1]()):
                    print(f"{name}: case {i} gives different outputs on the two sides")
                    return 1
                for rep in range(args.repeat):
                    for s in (0, 1) if rep % 2 == 0 else (1, 0):
                        t0 = time.perf_counter_ns()
                        thunks[s]()
                        best[i][s] = min(best[i][s], time.perf_counter_ns() - t0)
            print(row(name, best))
            for part, cut in parts:
                print(row(f"  {part}", best[cut]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

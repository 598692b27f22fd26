#!/usr/bin/env python3
"""Mutation checks: faults put into the package on purpose, each with the
tests that must catch it.

Run from anywhere in a checkout:

    python3 tools/mutants.py

Each row of :data:`MUTANTS` names a file of the package, a text that occurs
in it exactly once, the text that replaces it, and the pytest node ids
that must fail once it is replaced.  The tool copies the checkout's
``src``, ``tests``, ``tools`` and ``pyproject.toml`` to a temporary
directory and first runs every named test there unchanged, which must
pass.  It then applies each row in turn to that copy, runs pytest on the
row's node ids, stopping at the first failure, and restores the file.  A
row is killed when pytest reports a failed test or a collection error.

It prints one line per row and exits 1 when a row survives or its text
does not occur exactly once (the code it breaks has changed: update or
remove the row), else 0.  A new fault found by hand belongs in the table,
with the tests that catch it.  The 26 rows took 101 s on a 2-core VM,
most of it hypothesis shrinking the two property failures.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = "src/codedshuffle/"

# (file, old text, new text, node ids that must fail)
MUTANTS = [
    # the be curve interpolated from the wrong corner
    (
        PKG + "metrics.py",
        "(corner(lam, alpha, lo + 1) - low) * (r - lo)",
        "(corner(lam, alpha, lo + 1) - low) * (lo + 1 - r)",
        ["tests/test_metrics.py::test_be_points_read_two_corners_of_the_curve"],
    ),
    # the transcript's total missing one message
    (
        PKG + "mapreduce.py",
        "return int(self.messages.bits.sum())",
        "return int(self.messages.bits[1:].sum())",
        ["tests/test_mapreduce.py::test_rebuilt_transcript_reports_the_bits_it_carries"],
    ),
    # the subset topology's r range one wider
    (
        PKG + "constructors.py",
        "if not 1 <= r <= mappers - alpha:",
        "if not 1 <= r <= mappers - alpha + 1:",
        ["tests/test_constructors.py::test_family_rule_accepts_only_its_points[ct]"],
    ),
    # be's r range one longer
    (
        PKG + "metrics.py",
        "return range(1, lam - alpha + 2)",
        "return range(1, lam - alpha + 3)",
        ["tests/test_metrics.py::test_be_corners"],
    ),
    # the wrap-around family's alpha bound loosened
    (
        PKG + "constructors.py",
        "if alpha >= lam // r:",
        "if alpha > lam // r:",
        ["tests/test_constructors.py::test_nnc_preconditions"],
    ),
    # a column of the sweep CSV renamed
    (
        PKG + "cli.py",
        '"L_achievable",',
        '"L_achievable_exact",',
        ["tests/test_cli.py::test_loads_and_sweep"],
    ),
    # the graph layers left writable
    (
        PKG + "mapreduce.py",
        "            layer.setflags(write=False)\n",
        "",
        ["tests/test_mapreduce.py::test_graph_layers_are_read_only_bool_copies"],
    ),
    # the copies of an alpha-subset's reducers repeated instead of tiled
    (
        PKG + "mapreduce.py",
        "np.tile(members(a).T, count)",
        "np.repeat(members(a).T, count, axis=1)",
        ["tests/test_mapreduce.py::test_access_pattern_matches_arrays"],
    ),
    # the wrap-around links transposed
    (
        PKG + "mapreduce.py",
        "(i[:, None] - i) % lam < alpha",
        "(i - i[:, None]) % lam < alpha",
        ["tests/test_mapreduce.py::test_mrg_nnc_example"],
    ),
    # layers of different mapper counts accepted
    (
        PKG + "mapreduce.py",
        "\n            and self.storage.shape[1] == self.links.shape[0]",
        "",
        ["tests/test_mapreduce.py::test_graph_rejects_bad_layers[mapper-counts-differ]"],
    ),
    # every cell of a symbol failing when any of its messages is wrong
    (
        PKG + "mapreduce.py",
        "ok = np.add.reduceat(wrong, plan.offsets[:-1], dtype=int).repeat(counts) == wrong",
        "ok = ~np.logical_or.reduceat(wrong, plan.offsets[:-1]).repeat(counts)",
        ["tests/test_mapreduce.py::test_corrupted_payload_fails_exactly_its_readers"],
    ),
    # a reader's own wrong message counted against it (the same verdicts as
    # the row above, from a miscount rather than a dropped count)
    (
        PKG + "mapreduce.py",
        ".repeat(counts) == wrong",
        ".repeat(counts) == 0",
        ["tests/test_mapreduce.py::test_corrupted_payload_fails_exactly_its_readers"],
    ),
    # the wrong messages of a symbol counted as one, so two wrong messages
    # leave both their senders decoding: only several corruptions at once show it
    (
        PKG + "mapreduce.py",
        "np.add.reduceat(wrong, plan.offsets[:-1], dtype=int)",
        "np.logical_or.reduceat(wrong, plan.offsets[:-1])",
        ["tests/test_mapreduce.py::test_corrupted_messages_fail_as_the_reference_decodes"],
    ),
    # the pad bits of each message masked before the compare: the expected
    # bytes take the payload's pad bits
    (
        PKG + "mapreduce.py",
        "_windows(expected, pb)[first_byte[a:b]] = totals.reshape(n * g, pb)\n",
        "_windows(expected, pb)[first_byte[a:b]] = totals.reshape(n * g, pb)\n"
        "            expected[first_byte[a:b]] |= ("
        "payload[first_byte[a:b]] & ~np.uint8(0xFF >> (8 * pb - plen)))\n",
        ["tests/test_mapreduce.py::test_corrupted_payload_fails_exactly_its_readers"],
    ),
    # the packet table's view shifted onto the diagonal
    (
        PKG + "mapreduce.py",
        "table.reshape(n, g * g, pb)[:, 1:]",
        "table.reshape(n, g * g, pb)[:, :-1]",
        ["tests/test_mapreduce.py::test_transcript_digests_pinned"],
    ),
    # the IV table's slot map off by one
    (
        PKG + "mapreduce.py",
        "self.slot = read.cumsum() - 1",
        "self.slot = read.cumsum()",
        ["tests/test_mapreduce.py::test_carriers_match_oracle"],
    ),
    # repro exiting 0 although a check failed
    (
        PKG + "cli.py",
        "return EXIT_REPRO_FAIL if failures else EXIT_OK",
        "return EXIT_OK",
        ["tests/test_cli.py::test_repro_failure_exits_1"],
    ),
    # validate --cyclic checking the array's own shift, not the one given
    (
        PKG + "cli.py",
        "validate_l_cyclic(arr, args.cyclic)",
        "validate_l_cyclic(arr, stats.cyclic_shift or 1)",
        ["tests/test_cli.py::test_validate_cyclic[1-False]"],
    ),
    # a report naming its last failed condition's witness, not its first
    (
        PKG + "arrays.py",
        "violation=next((w for _, w in found if w is not None), None)",
        "violation=next((w for _, w in reversed(found) if w is not None), None)",
        [
            "tests/test_arrays.py::test_validate_pda_gappy_labels",
            "tests/test_arrays.py::test_first_orphan_matches_bruteforce[rows2]",
        ],
    ),
    # C2-2 failing on a row that is non-star in a cell's column only
    # through the symbol's own cell there
    (
        PKG + "kernels.py",
        "        hits &= ~_bitsets(shape, group[one], lone >> 6, _row_bit(lone)).take(group, axis=1)\n",
        "",
        ["tests/test_arrays.py::test_pair_scan_matches_bruteforce"],
    ),
    # C2-1 blind to a symbol repeated in a column
    (
        PKG + "kernels.py",
        "c21_ok = columns.size == at.size and not repeat.any()",
        "c21_ok = not repeat.any()",
        ["tests/test_arrays.py::test_pair_scan_matches_bruteforce"],
    ),
    # the census lookup one label to the right
    (
        PKG + "arrays.py",
        "i = int(labels.searchsorted(s)) if",
        'i = int(labels.searchsorted(s, "right")) if',
        ["tests/test_arrays.py::test_census_is_a_read_only_mapping_over_two_columns"],
    ),
    # the census iterated in reverse
    (
        PKG + "arrays.py",
        "return iter(self.labels.tolist())",
        "return iter(self.labels[::-1].tolist())",
        ["tests/test_arrays.py::test_census_is_a_read_only_mapping_over_two_columns"],
    ),
    # each serializer block dropping the row after it
    (
        PKG + "arrays.py",
        "for f0 in range(0, F, step):",
        "for f0 in range(0, F, step + 1):",
        [
            "tests/test_arrays.py::test_serialize_matches_bruteforce_in_small_blocks",
            "tests/test_constructors.py::test_algorithm1_text_digests_pinned",
        ],
    ),
    # each serializer block repeating the last row of the one before
    (
        PKG + "arrays.py",
        "for f0 in range(0, F, step):",
        "for f0 in range(0, F, max(1, step - 1)):",
        [
            "tests/test_arrays.py::test_serialize_matches_bruteforce_in_small_blocks",
            "tests/test_constructors.py::test_algorithm1_text_digests_pinned",
        ],
    ),
    # the subsets read one member short
    (
        PKG + "constructors.py",
        "count=comb(mappers, size) * size)",
        "count=comb(mappers, size) * size - 1)",
        [
            "tests/test_constructors.py::test_subsets_are_lexicographic[6-4]",
            "tests/test_constructors.py::test_algorithm1_5_2_2",
        ],
    ),
]

# pytest's exit codes for failed tests and an interrupted run (a collection
# error)
_KILLED = {1, 2}


def _pytest(tree: Path, ids: list[str]) -> tuple[int, str]:
    """pytest's exit code on ``ids`` in ``tree`` and its last line of output."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *ids],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    return done.returncode, (done.stdout + done.stderr).strip().rpartition("\n")[2]


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        for part in ("src", "tests", "tools"):
            shutil.copytree(
                ROOT / part, tree / part,
                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis", "*.egg-info"),
            )
        shutil.copy2(ROOT / "pyproject.toml", tree)
        ids = sorted({i for *_, row_ids in MUTANTS for i in row_ids})
        code, tail = _pytest(tree, ids)
        if code != 0:
            print(f"the named tests fail on the unchanged tree (exit {code}): {tail}")
            return 1
        bad = 0
        for path, old, new, row_ids in MUTANTS:
            source = (tree / path).read_text()
            where = f"{path}: {old.strip()[:60]!r}"
            if source.count(old) != 1:
                print(f"STALE    {where} occurs {source.count(old)} times")
                bad += 1
                continue
            (tree / path).write_text(source.replace(old, new))
            t0 = time.perf_counter()
            try:
                code, _ = _pytest(tree, row_ids)
            finally:
                (tree / path).write_text(source)
            killed = code in _KILLED
            bad += not killed
            verdict = "killed  " if killed else "SURVIVED"
            print(f"{verdict} {where} ({time.perf_counter() - t0:.1f} s, exit {code})")
        print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
        return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

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
with the tests that catch it.  The 55 rows took about 105 s on a 2-core VM,
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
    # the packet bit table's view shifted onto the diagonal
    (
        PKG + "mapreduce.py",
        "table.reshape(n, g * g, 8 * pb)[:, 1:]",
        "table.reshape(n, g * g, 8 * pb)[:, :-1]",
        ["tests/test_mapreduce.py::test_transcript_digests_pinned"],
    ),
    # packets padded on the right rather than the left
    (
        PKG + "mapreduce.py",
        "runs[:, :, :g, 8 * pb - plen :]",
        "runs[:, :, :g, 0 : plen]",
        ["tests/test_mapreduce.py::test_transcript_digests_pinned"],
    ),
    # the IV table's slot map off by one
    (
        PKG + "mapreduce.py",
        "self.slot = read.cumsum() - 1",
        "self.slot = read.cumsum()",
        ["tests/test_mapreduce.py::test_carriers_match_oracle"],
    ),
    # gc's parser also taking --alpha
    (
        PKG + "cli.py",
        "        elif point:\n",
        "        if point:\n",
        ["tests/test_cli.py::test_foreign_flag_exit_code"],
    ),
    # a sweep's ct, nnc and be parsers taking --alpha
    (
        PKG + "cli.py",
        "        elif point:\n",
        "        else:\n",
        ["tests/test_cli.py::test_foreign_flag_exit_code"],
    ),
    # --kvec given to every family, required by gc's
    (
        PKG + "cli.py",
        '        if _CONSTRUCT_NAMES.get(name, name) == "gc":\n'
        "            f.add_argument(\n"
        '                "--kvec", required=True, help="comma-separated multiplicities K_1,K_2,..."\n'
        "            )\n"
        "        elif point:\n",
        '        gc = _CONSTRUCT_NAMES.get(name, name) == "gc"\n'
        '        f.add_argument("--kvec", required=gc, help="comma-separated multiplicities K_1,K_2,...")\n'
        "        if point and not gc:\n",
        ["tests/test_cli.py::test_foreign_flag_exit_code"],
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
        "not (hits & ~sets.take(group, axis=1)).any()",
        "not hits.any()",
        ["tests/test_arrays.py::test_pair_scan_matches_bruteforce"],
    ),
    # C2-1 blind to a symbol repeated in a column
    (
        PKG + "kernels.py",
        "            c21_ok &= columns.size == at.size\n",
        "",
        ["tests/test_arrays.py::test_pair_scan_matches_bruteforce"],
    ),
    # a repeated row's bit added to the symbol's row bitset once per repeat
    (
        PKG + "kernels.py",
        "    if repeat.any():\n",
        "    if False:\n",
        ["tests/test_arrays.py::test_pair_scan_matches_bruteforce_on_tall_grids[default-chunks]"],
    ),
    # C2 decided only while both flags hold, so one failing leaves the
    # other undecided in the chunks after it
    (
        PKG + "kernels.py",
        "if c21_ok or c22_ok:",
        "if c21_ok and c22_ok:",
        ["tests/test_arrays.py::test_pair_scan_matches_bruteforce_one_symbol_per_chunk"],
    ),
    # the C2 flags and the first pair decided only in the chunks where no
    # cell has a hit or repeats a row
    (
        PKG + "kernels.py",
        "        if not (at.size or j.size):\n            continue\n",
        "        if at.size or j.size:\n            continue\n",
        ["tests/test_arrays.py::test_pair_scan_matches_bruteforce"],
    ),
    # the first pair blind to a cell that shares its row with an earlier one
    (
        PKG + "kernels.py",
        "np.concatenate((j, at[below])), np.concatenate((r[j], low[below]))",
        "np.concatenate((j[:0], at[below])), np.concatenate((r[j][:0], low[below]))",
        ["tests/test_arrays.py::test_pair_scan_matches_bruteforce"],
    ),
    # the first pair blind to a hit row below the hit cell's own
    (
        PKG + "kernels.py",
        "np.concatenate((j, at[below])), np.concatenate((r[j], low[below]))",
        "j, r[j]",
        ["tests/test_arrays.py::test_pair_scan_matches_bruteforce"],
    ),
    # the first pair blind to a hit row above the hit cell's own
    (
        PKG + "kernels.py",
        "cell = np.concatenate((cell[keep], i[up]))\n"
        "        row = np.concatenate((row[keep], _lowest(above[:, up])))",
        "cell, row = cell[keep], row[keep]",
        ["tests/test_arrays.py::test_pair_scan_matches_bruteforce"],
    ),
    # the earlier hit cells tried only after the least later cell
    (
        PKG + "kernels.py",
        "near = pos[at] < least",
        "near = pos[at] > least",
        ["tests/test_arrays.py::test_pair_scan_matches_bruteforce"],
    ),
    # a bitset's lowest row read one row low
    (
        PKG + "kernels.py",
        "[1] - 1",
        "[1] - 2",
        ["tests/test_arrays.py::test_pair_scan_matches_bruteforce"],
    ),
    # a block cut before an item that ends exactly at the budget
    (
        PKG + "kernels.py",
        'ends.searchsorted(base + BLOCK, "right")',
        'ends.searchsorted(base + BLOCK, "left")',
        ["tests/test_arrays.py::test_blocks_matches_bruteforce"],
    ),
    # every block after the first measured from the first item
    (
        PKG + "kernels.py",
        "base = ends[lo - 1] if lo else 0",
        "base = 0",
        ["tests/test_arrays.py::test_blocks_matches_bruteforce"],
    ),
    # a block so large that no pass is ever cut: the memory pins fail
    (
        PKG + "kernels.py",
        "BLOCK = 1 << 18",
        "BLOCK = 1 << 40",
        [
            "tests/test_mapreduce.py::test_run_job_memory_follows_the_block",
            "tests/test_arrays.py::test_serialize_memory_follows_the_text",
        ],
    ),
    # a star run moved by the wrong shift taken for the cyclic layout
    (
        PKG + "arrays.py",
        "return _first(starts < 0), None if moved is None else moved + 1",
        "return _first(starts < 0), None",
        [
            "tests/test_arrays.py::test_validate_l_cyclic",
            "tests/test_arrays.py::test_star_layout_matches_bruteforce",
        ],
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
    # the parser blind to a pair of neighbouring stars (and so to a star
    # before a digit, which the mark of a run's first digit makes a pair)
    (
        PKG + "arrays.py",
        "np.count_nonzero(pairs) or ",
        "",
        [
            "tests/test_arrays.py::test_parse_matches_reference_on_long_texts[10-4-4-pair]",
            "tests/test_arrays.py::test_parse_matches_reference_on_long_texts[10-4-4-star-digit]",
        ],
    ),
    # the parser blind to a star after a run of two or more digits
    (
        PKG + "arrays.py",
        " or np.count_nonzero(star[run_end])",
        "",
        ["tests/test_arrays.py::test_parse_matches_reference_on_long_texts[10-4-4-digit-star]"],
    ),
    # the stars of a comment line between rows counted as tokens
    (
        PKG + "arrays.py",
        'blk[ends[i - 1] + 1 - a : ends[i] - a] = ord(" ")',
        'line = blk[ends[i - 1] + 1 - a : ends[i] - a]; line[line != ord("*")] = ord(" ")',
        [
            "tests/test_arrays.py::test_comments_are_ignored",
            "tests/test_arrays.py::test_parse_matches_reference_on_long_texts[10-4-4-comment]",
        ],
    ),
    # a tab read as a token byte, not a gap
    (
        PKG + "arrays.py",
        '_GAP if b in b" \\t\\x1f" else',
        '_GAP if b in b" \\x1f" else',
        ["tests/test_arrays.py::test_parse_matches_reference_on_long_texts[10-4-4-tab]"],
    ),
    # each block's last row counted one byte short of its line break
    (
        PKG + "arrays.py",
        "[blk.size - 1]",
        "[blk.size - 2]",
        ["tests/test_arrays.py::test_parse_matches_reference_on_long_texts[10-4-4-tab]"],
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
    # each serializer block's all-star text cut by the block rule alone,
    # never to the grid's rows
    (
        PKG + "arrays.py",
        "max(1, min(F, kernels.BLOCK // (2 * K)))",
        "max(1, kernels.BLOCK // (2 * K))",
        ["tests/test_arrays.py::test_serialize_block_holds_at_most_the_grid"],
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
    # every copy of a block offset by one symbol instead of the block's count
    (
        PKG + "constructors.py",
        "np.arange(first, first + n * m).reshape(m, n).T[:, None]",
        "first + np.arange(n)[:, None, None] + np.arange(m)",
        ["tests/test_constructors.py::test_algorithm2_matches_reference"],
    ),
    # each degree's symbols starting where the first degree's do
    (
        PKG + "constructors.py",
        "        first += count * comb(lam, a + r)\n",
        "",
        ["tests/test_constructors.py::test_algorithm2_matches_reference"],
    ),
    # the sums of table entries taken as ranks, not as ranks from the end
    (
        PKG + "constructors.py",
        "out[::-1, :, ::-1][x[0], :, x[1]]",
        "out[x[0], :, x[1]]",
        ["tests/test_constructors.py::test_algorithm1_matches_reference[6]"],
    ),
    # the binomial table's read rule a - b < mappers - q taken as <=
    (
        PKG + "constructors.py",
        "for a in range(b, top)]",
        "for a in range(b, top + 1)]",
        ["tests/test_constructors.py::test_binomial_table_holds_what_the_ranks_read[5]"],
    ),
    # an IV read one bit off its place in the stream
    (
        PKG + "mapreduce.py",
        "acc >>= span - end",
        "acc >>= span - end + 1",
        ["tests/test_mapreduce.py::test_oracle_known_answers"],
    ),
    # algorithm1 handing a huge mapper count to ct_parameters unrefused
    (
        PKG + "constructors.py",
        """    _check_cells(mappers, mappers, least="at least ")\n""",
        "",
        [
            "tests/test_constructors.py::"
            "test_algorithm1_refuses_a_huge_lambda_before_its_parameters"
        ],
    ),
    # a subset's lexicographic rank one too high
    (
        PKG + "constructors.py",
        "return comb(universe, m) - 1 - sum(",
        "return comb(universe, m) - sum(",
        ["tests/test_constructors.py::test_rank_examples"],
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

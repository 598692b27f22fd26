from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import codedshuffle
from codedshuffle import load_fixture, parse_array
from codedshuffle.cli import FAMILIES, MAX_MAPPERS, main


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    return _run


def _write(tmp_path, name):
    path = tmp_path / f"{name}.txt"
    path.write_text(load_fixture(name).serialize())
    return str(path)


def test_construct_summary(run, tmp_path):
    out_path = tmp_path / "arr.txt"
    code, out, _ = run(
        "construct", "alg1", "--lambda", "4", "--r", "2", "--alpha", "2",
        "--out", str(out_path),
    )
    assert code == 0
    assert out.strip() == "F=6 K=6 S=1 Z=5 g=6"
    assert parse_array(out_path.read_text()) == load_fixture("ct_4_2_2")


def test_construct_nnc_summary(run, tmp_path):
    out_path = tmp_path / "arr.txt"
    code, out, _ = run(
        "construct", "nnc", "--lambda", "12", "--r", "2", "--alpha", "4",
        "--out", str(out_path),
    )
    assert code == 0
    assert "S=12" in out and "g=4" in out and "Z=8" in out


def test_construct_nnc_large_point(run, tmp_path):
    out_path = tmp_path / "arr.txt"
    code, out, _ = run(
        "construct", "nnc", "--lambda", "60", "--r", "1", "--alpha", "31",
        "--out", str(out_path),
    )
    assert code == 0
    assert out.strip() == "F=60 K=60 S=435 Z=31 g=4"


def test_construct_nnc_step_cap_exit_code(run):
    code, out, err = run("construct", "nnc", "--lambda", "26", "--r", "1", "--alpha", "23")
    assert code == 2 and out == ""
    assert "MAX_FILL_STEPS" in err
    assert "no fill exists" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "nnc", "--lambda", "100000", "--r", "1", "--alpha", "1"),
        ("construct", "alg1", "--lambda", "40", "--r", "20", "--alpha", "20"),
        ("construct", "alg2", "--lambda", "20", "--r", "4", "--kvec", "0,0,0,1" + ",0" * 12),
        ("construct", "alg1", "--lambda", "100000", "--r", "50000", "--alpha", "1"),
        ("construct", "alg1", "--lambda", "1600000", "--r", "800000", "--alpha", "1"),
        ("construct", "alg2", "--lambda", "100000", "--r", "50000", "--kvec", "1" + ",0" * 49999),
        ("construct", "alg2", "--lambda", "4", "--r", "1", "--kvec", "9" * 4300 + ",0,0"),
    ],
    ids=["nnc", "alg1", "alg2", "alg1-huge", "alg1-huger", "alg2-huge", "alg2-long-kvec"],
)
def test_construct_cell_cap_exit_code(run, argv):
    # refused before anything is allocated; the nnc layout alone would take
    # 74.5 GiB.  At a huge --lambda the refusal comes before any binomial,
    # and a side longer than the 4300 digits str() prints (the reducer count
    # of a 4300-digit --kvec entry) is named by a power of two
    t0 = time.perf_counter()
    code, out, err = run(*argv)
    assert code == 2 and out == ""
    assert "MAX_ARRAY_CELLS" in err
    assert time.perf_counter() - t0 < 1.0


def test_construct_precondition_exit_code(run):
    code, _, err = run("construct", "nnc", "--lambda", "5", "--r", "2", "--alpha", "2")
    assert code == 2
    assert "divide" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "alg1", "--lambda", "4", "--r", "2"),
        ("construct", "nnc", "--lambda", "12", "--r", "2"),
        ("loads", "ct", "--lambda", "12", "--r", "2"),
        ("loads", "be", "--lambda", "12", "--r", "5/2"),
    ],
    ids=" ".join,
)
def test_missing_alpha_exit_code(run, argv):
    code, _, err = run(*argv)
    assert code == 2
    assert "--alpha" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "alg2", "--lambda", "4", "--r", "2"),
        ("loads", "gc", "--lambda", "4", "--r", "2"),
        ("sweep", "gc", "--lambda", "6"),
    ],
    ids=" ".join,
)
def test_missing_kvec_exit_code(run, argv):
    code, _, err = run(*argv)
    assert code == 2
    assert "--kvec" in err


def test_validate_json(run, tmp_path):
    path = _write(tmp_path, "mra_irregular")
    code, out, _ = run("validate", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["mra"]["ok"] is True
    assert payload["pda"]["ok"] is False
    assert payload["column_stars"] == [2, 2, 2, 2, 3]


@pytest.mark.parametrize("shift, ok", [("2", True), ("14", True), ("-10", True), ("1", False)])
def test_validate_cyclic(run, tmp_path, shift, ok):
    # the shift is read mod F = 12, so 14 and -10 are the array's own 2
    path = _write(tmp_path, "cyclic_pda_12")
    code, out, _ = run("validate", path, "--cyclic", shift)
    assert code == 0
    payload = json.loads(out)
    assert payload["cyclic_shift"] == 2
    report = payload["l_cyclic"]
    assert report["ok"] is ok and report["checks"]["cyclic-shift"] is ok
    if not ok:
        assert report["first_violation"] == "l-cyclic column=1"


def test_validate_huge_label_names_the_missing_one(run, tmp_path):
    path = tmp_path / "label.txt"
    path.write_text(f"2 2\n{10**18} *\n* {10**18}\n")
    code, out, _ = run("validate", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["S"] == 1
    assert payload["pda"]["first_violation"] == "A2 symbol=0"


def test_validate_oversize_token_exit_code(run, tmp_path):
    path = tmp_path / "big.txt"
    path.write_text("2 1\n99999999999999999999\n99999999999999999999\n")
    code, _, err = run("validate", str(path))
    assert code == 2
    assert "int64" in err


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    st.one_of(
        st.text().map(str.encode),
        st.text(alphabet="0123456789*# \t\n\r").map(str.encode),
        st.binary(),
    )
)
def test_validate_never_raises(run, tmp_path, data):
    # any file, UTF-8 or not, ends in a documented exit code
    path = tmp_path / "any.txt"
    path.write_bytes(data)
    code, _, _ = run("validate", str(path))
    assert code in (0, 2)


_FAMILY_COMMANDS = [("construct", family) for family in ("alg1", "alg2", "nnc")] + [
    (command, family) for command in ("loads", "sweep") for family in FAMILIES
]
_ARRAY_COMMANDS = [("truncate",), ("simulate",)]


def _is_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


# no large integers: a large --lambda asks for a large array
_ODD_TOKENS = st.one_of(
    st.sampled_from(
        ["-1", "0", "5/2", "1/0", "-3/4", "0/0", "7/1", "", "1e-99999999"]
    ),
    st.text(max_size=8).filter(lambda tok: not _is_int(tok)),
)


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.sampled_from(_FAMILY_COMMANDS + _ARRAY_COMMANDS), st.data())
def test_nnc_parameters_never_raise(run, tmp_path, command, data):
    # any small, fractional or non-integer --lambda/--r/--alpha/--kvec of
    # any family's construct, loads or sweep, and any such --keep of
    # truncate or --files/--functions/--iv-bits/--seed of simulate on a
    # 4 x 5 array, ends in a documented exit code.  Values are drawn near
    # the flags' ranges, and each flag is now and then left out or given an
    # odd token; algorithm1(16, 8, 8) alone is a 1.3 GB grid, so the
    # subset-topology arrays stay at 10 mappers or fewer
    if command == ("truncate",):
        keep = data.draw(st.lists(st.integers(-1, 5), max_size=6))
        values = {"--keep": ",".join(map(str, keep))}
    elif command == ("simulate",):
        values = {
            "--files": data.draw(st.integers(-1, 12)),
            "--functions": data.draw(st.integers(-1, 15)),
            "--iv-bits": data.draw(st.just("auto") | st.integers(-1, 8)),
            "--seed": data.draw(st.integers(-(2**70), 2**70)),
        }
    else:
        lam = data.draw(st.integers(2, 10 if command[1] in ("alg1", "alg2") else 16))
        r = data.draw(st.integers(1, lam))
        size = lam - 1 if command[0] == "sweep" else lam - r
        kvec = data.draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
        values = {
            "--lambda": lam,
            "--r": r,
            "--alpha": data.draw(st.integers(1, lam)),
            "--kvec": ",".join(map(str, kvec)),
        }
        if command[0] == "sweep":  # a sweep takes no --r or --alpha
            del values["--r"], values["--alpha"]
    argv = list(command)
    if command in _ARRAY_COMMANDS:
        argv.append(_write(tmp_path, "mra_irregular"))
    for flag, value in values.items():
        how = data.draw(st.sampled_from(["value"] * 6 + ["odd", "left out"]))
        if how != "left out":
            argv += [flag, str(value) if how == "value" else data.draw(_ODD_TOKENS)]
    code, _, _ = run(*argv)
    assert code in (0, 2)


def test_zero_denominator_r_exit_code(run):
    code, out, err = run("loads", "be", "--lambda", "6", "--r", "1/0", "--alpha", "2")
    assert code == 2 and out == ""
    assert "zero denominator" in err


def test_exponent_r_is_refused_before_it_is_expanded(run):
    # Fraction would expand 1e-99999999 to a 10**99999999 denominator
    t0 = time.perf_counter()
    code, out, err = run(
        "loads", "be", "--lambda", "12", "--r", "1e-99999999", "--alpha", "4"
    )
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert "--r '1e-99999999'" in err
    for r, load in (("5/2", "53/2805"), ("2.5", "53/2805")):
        code, out, _ = run("loads", "be", "--lambda", "12", "--r", r, "--alpha", "4")
        assert code == 0 and json.loads(out)["L_achievable"] == load


def test_long_decimal_r_is_refused_by_name(run):
    # int(), inside Fraction, refuses a digit run of more than 4300 digits
    r = "2." + "0" * 5000 + "1"
    code, out, err = run("loads", "be", "--lambda", "12", "--r", r, "--alpha", "4")
    assert code == 2 and out == ""
    assert "--r has 5003 characters, more than 4300" in err
    r = "2.5" + "0" * 4297
    code, out, _ = run("loads", "be", "--lambda", "12", "--r", r, "--alpha", "4")
    assert code == 0 and json.loads(out)["L_achievable"] == "53/2805"


def test_sweep_be_reads_two_corners_per_point(run):
    t0 = time.perf_counter()
    code, out, _ = run("sweep", "be", "--lambda", "300")
    assert time.perf_counter() - t0 < 4.0
    # alpha in [1, 299], r in [1, 301 - alpha], and the header
    assert code == 0 and len(out.splitlines()) == 1 + sum(range(2, 301))


def test_rationals_past_the_int_string_limit(run):
    ones = ",".join(["1"] * 500)
    code, out, err = run("loads", "gc", "--lambda", "1000", "--r", "500", "--kvec", ones)
    assert code == 0, err
    num, den = json.loads(out)["L_achievable"].split("/")
    assert len(den) > 4300 and num.isdigit() and den.isdigit()


def test_truncate_roundtrip(run, tmp_path):
    path = _write(tmp_path, "mra_irregular")
    out_path = tmp_path / "clip.txt"
    code, out, _ = run("truncate", path, "--keep", "0,1,2", "--out", str(out_path))
    assert code == 0
    assert parse_array(out_path.read_text()) == load_fixture("mra_3col")
    code, _, err = run("truncate", path, "--keep", "0,1,2,3")
    assert code == 2 and "symbol 3" in err


@pytest.mark.parametrize("keep, token", [("0,x,2", "'x'"), ("0,,2", "''")])
def test_truncate_bad_keep_is_named(run, tmp_path, keep, token):
    code, out, err = run("truncate", _write(tmp_path, "mra_irregular"), "--keep", keep)
    assert code == 2 and out == ""
    assert f"--keep must be an integer, got {token}" in err


def test_simulate_json_and_exit(run, tmp_path):
    path = _write(tmp_path, "mra_irregular")
    code, out, _ = run(
        "simulate", path, "--files", "4", "--functions", "5", "--iv-bits", "auto"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["measured_load"] == "15/40"
    assert payload["all_decoded"] is True
    assert payload["iv_bits"] == 2
    assert payload["message_count"] == 9


def test_simulate_divisibility_exit(run, tmp_path):
    # the job's own check names the count, whatever the IV width
    path = _write(tmp_path, "mra_irregular")
    for iv_bits in ("auto", "2"):
        code, _, err = run(
            "simulate", path, "--files", "3", "--functions", "5", "--iv-bits", iv_bits
        )
        assert code == 2
        assert "batch count 4 must divide file count 3" in err


def test_simulate_non_integer_iv_bits_is_named(run, tmp_path):
    path = _write(tmp_path, "cyclic_pda_4")
    code, out, err = run(
        "simulate", path, "--files", "4", "--functions", "4", "--iv-bits", "x"
    )
    assert code == 2 and out == ""
    assert "--iv-bits must be an integer, got 'x'" in err


def test_non_integer_seed_variable_is_named(run, tmp_path, monkeypatch):
    path = _write(tmp_path, "cyclic_pda_4")
    monkeypatch.setenv("CODEDSHUFFLE_SEED", "abc")
    code, out, err = run("simulate", path, "--files", "4", "--functions", "4")
    assert code == 2 and out == ""
    assert "CODEDSHUFFLE_SEED must be an integer, got 'abc'" in err
    # a --seed flag leaves the variable unread
    code, _, _ = run("simulate", path, "--files", "4", "--functions", "4", "--seed", "1")
    assert code == 0


def test_simulate_job_size_cap_exit(run, tmp_path):
    path = _write(tmp_path, "mra_irregular")
    t0 = time.perf_counter()
    code, out, err = run(
        "simulate", path, "--files", "4000000", "--functions", "5000000"
    )
    assert code == 2 and out == ""
    assert "MAX_JOB_IV_BITS" in err
    assert time.perf_counter() - t0 < 1.0


def test_simulate_transcript_dump(run, tmp_path):
    path = _write(tmp_path, "cyclic_pda_4")
    dump = tmp_path / "t.txt"
    code, _, _ = run(
        "simulate", path, "--files", "4", "--functions", "4",
        "--iv-bits", "3", "--seed", "5", "--dump-transcript", str(dump),
    )
    assert code == 0
    lines = dump.read_text().splitlines()
    assert len(lines) == 8
    assert all(len(ln.split()) == 4 for ln in lines)


def test_seed_env_var(run, tmp_path, monkeypatch):
    path = _write(tmp_path, "cyclic_pda_4")
    d0, d1, d2 = (tmp_path / n for n in ("a.txt", "b.txt", "c.txt"))
    run("simulate", path, "--files", "4", "--functions", "4",
        "--dump-transcript", str(d0))
    monkeypatch.setenv("CODEDSHUFFLE_SEED", "123")
    run("simulate", path, "--files", "4", "--functions", "4",
        "--dump-transcript", str(d1))
    run("simulate", path, "--files", "4", "--functions", "4",
        "--seed", "0", "--dump-transcript", str(d2))
    # env seed applies when --seed is absent; the flag wins otherwise
    assert d0.read_text() != d1.read_text()
    assert d0.read_text() == d2.read_text()


def test_loads_and_sweep(run, tmp_path):
    code, out, _ = run("loads", "gc", "--lambda", "4", "--r", "2", "--kvec", "2,3")
    assert code == 0
    payload = json.loads(out)
    assert payload["L_achievable"] == "1/10"
    assert payload["L_lower_bound"] == "7/494"

    out_csv = tmp_path / "sweep.csv"
    code, _, _ = run("sweep", "ct", "--lambda", "6", "--out", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == (
        "topology,Lambda,r,alpha_or_Kvec,L_achievable,"
        "L_lower_bound,L_achievable_decimal"
    )
    assert len(lines) > 10


def test_repro_passes(run):
    code, out, _ = run("repro")
    assert code == 0
    assert "FAIL" not in out.replace("FLAGGED", "")
    assert out.count("FLAGGED") == 2


def test_one_parser_serves_every_call(run):
    # the parser is built once per process, and a usage error leaves it as
    # it was for the next command
    code, before, _ = run("repro")
    assert code == 0
    code, out, err = run("construct", "alg1", "--lambda", "x", "--r", "1")
    assert code == 2 and out == "" and "invalid int value: 'x'" in err
    code, after, _ = run("repro")
    assert code == 0 and after == before
    assert codedshuffle.cli.build_parser() is codedshuffle.cli.build_parser()


def test_repro_failure_exits_1(run, monkeypatch):
    # a truncation that orphans a symbol but is not refused is a failed
    # reproduction: exit 1, with the other checks as before
    truncate = codedshuffle.cli.truncate_columns

    def keep_orphans(arr, keep):
        try:
            return truncate(arr, keep)
        except codedshuffle.TruncationError:
            return arr

    monkeypatch.setattr(codedshuffle.cli, "truncate_columns", keep_orphans)
    code, out, _ = run("repro")
    assert code == 1
    failed = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert len(failed) == 1
    assert failed[0].startswith("FAIL    truncate keep {0,1,2,3} ")
    assert out.splitlines()[-1].startswith("31 passed, 1 failed, 2 flagged ")


@pytest.mark.parametrize(
    "argv",
    [
        ("loads", "ct", "--lambda", "30000", "--r", "15000", "--alpha", "1"),
        ("loads", "be", "--lambda", str(MAX_MAPPERS + 1), "--r", "1", "--alpha", "1"),
        ("sweep", "ct", "--lambda", "30000"),
        ("sweep", "gc", "--lambda", str(MAX_MAPPERS + 1), "--kvec", "1"),
    ],
)
def test_closed_forms_refuse_lambda_above_cap(run, argv):
    # refused before anything is computed, even the gc vector's parse
    start = time.perf_counter()
    code, out, err = run(*argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and not out
    assert f"MAX_MAPPERS = {MAX_MAPPERS}" in err


@pytest.mark.parametrize("family", ["ct", "be", "nnc"])
def test_closed_forms_at_cap_are_quick(run, family):
    start = time.perf_counter()
    code, out, _ = run(
        "loads", family, "--lambda", str(MAX_MAPPERS), "--r", "1", "--alpha", "1"
    )
    assert time.perf_counter() - start < 1
    assert code == 0 and json.loads(out)["Lambda"] == MAX_MAPPERS


def test_cli_determinism(run, tmp_path):
    args = ("loads", "ct", "--lambda", "12", "--r", "2", "--alpha", "4")
    _, out1, _ = run(*args)
    _, out2, _ = run(*args)
    assert out1 == out2


def _identity_digests():
    """tools/identity_digests.py, imported as a module."""
    path = Path(__file__).resolve().parents[1] / "tools" / "identity_digests.py"
    spec = importlib.util.spec_from_file_location("identity_digests", path)
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    return digests


def test_cli_digest_pinned():
    # the cli digest of tools/identity_digests.py: the argv, exit code,
    # stdout and stderr of its 84 commands, run in process
    digests = _identity_digests()
    cli = hashlib.sha256()
    for argv in digests.cli_commands():
        cli.update(digests.cli_outcome(argv))
    assert cli.hexdigest() == (
        "a6866d88bb56f679739dda90c209c45687d6d9d2822b122b3d20e501cfff690a"
    )


def test_array_digests_pinned(constructor_sweep):
    # the arrays, parse and stats digests of tools/identity_digests.py over
    # the sweep arrays and the large subset-topology arrays
    sweep = [arr for *_, arr in constructor_sweep]
    assert _identity_digests().array_digests(sweep) == (
        "c5a471ae438eee31672fe4a3007123079c43b87d27a758347e0345c075476e84",
        "799278c5287a05dc05c6e6e1ce135276ad9e868d6550fb9bd09df0c209e29786",
        "65c55f31ecdf30488bf31292d700553a5bdd3b546952b09d994babb77009c052",
    )


def test_console_entrypoint():
    # the child imports the package the suite imports, installed or not
    src = str(Path(codedshuffle.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "codedshuffle.cli", "loads", "nnc",
         "--lambda", "12", "--r", "2", "--alpha", "4"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["L_achievable"] == "1/9"

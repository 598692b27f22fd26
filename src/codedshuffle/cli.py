"""Command-line front end.

Subcommands: construct | validate | truncate | simulate | loads | sweep |
repro.  Exit codes: 0 success, 1 reproduction failure, 2 precondition or
usage error (including a fill search that gave up at its step cap, and a
loads or sweep --lambda above ``MAX_MAPPERS``), 3 decode failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from collections import namedtuple
from fractions import Fraction
from functools import cache
from math import comb

from . import load_fixture
from .arrays import (
    CodedArray,
    TruncationError,
    parse_array,
    truncate_columns,
    validate_l_cyclic,
    validate_mra,
    validate_pda,
)
from .constructors import (
    ConstructionError,
    GcParameters,
    algorithm1,
    algorithm2,
    ct_points,
    gc_points,
    mrg_ct,
    mrg_gc,
    mrg_nnc,
    nnc_pda,
    nnc_points,
)
from .mapreduce import JobSpec, choose_iv_bits, run_job
from .metrics import (
    be_load,
    be_lower_bound,
    be_points,
    ct_load,
    ct_lower_bound,
    format_rational,
    gc_load,
    gc_lower_bound,
    load_from_array,
    nnc_load,
)

SEED_ENV = "CODEDSHUFFLE_SEED"

EXIT_OK = 0
EXIT_REPRO_FAIL = 1
EXIT_USAGE = 2
EXIT_DECODE = 3


# One topology: its points at a mapper count (and gc's vector), and at a point
# (mappers, r, alpha), or gc's GcParameters (mappers, r, kvec), its array,
# map-reduce graph, closed-form load and lower bound; None where it has none.
Family = namedtuple("Family", "points build graph load bound")

FAMILIES = {
    "ct": Family(
        ct_points,
        lambda p: algorithm1(*p),
        lambda p: mrg_ct(*p),
        lambda p: ct_load(*p),
        lambda p: ct_lower_bound(*p),
    ),
    "nnc": Family(
        nnc_points,
        lambda p: nnc_pda(*p),
        lambda p: mrg_nnc(*p),
        lambda p: nnc_load(*p),
        None,
    ),
    "gc": Family(gc_points, algorithm2, mrg_gc, gc_load, gc_lower_bound),
    # the subset topology at fractional r, by memory sharing between corners
    "be": Family(
        be_points,
        None,
        None,
        lambda p: be_load(p[0], p[2], p[1]),
        lambda p: be_lower_bound(p[0], p[2], p[1]),
    ),
}

# construct's families, the subset and multiplicity ones named by their algorithms
_CONSTRUCT_NAMES = {"alg1": "ct", "alg2": "gc", "nnc": "nnc"}

# Largest --lambda that loads and sweep take.  At the cap the closed forms
# are exact binomials of up to about 1000 bits, and every family's load and
# bound at one point take well under a second; a sweep has up to about
# lambda**2 / 2 points.
MAX_MAPPERS = 1000


def _parse_kvec(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ConstructionError(f"bad multiplicity vector: {text!r}")


def _point(args):
    """The chosen family, its point (None for a sweep) and the flag values
    giving it, in flag order, from the flags :func:`_add_families` gave it."""
    if args.command in ("loads", "sweep") and args.mappers > MAX_MAPPERS:
        raise ConstructionError(
            f"--lambda {args.mappers} is above MAX_MAPPERS = {MAX_MAPPERS}, "
            f"the largest that {args.command} evaluates"
        )
    name = _CONSTRUCT_NAMES.get(args.family, args.family)
    given: dict = {}
    if hasattr(args, "r"):
        if len(args.r) > 4300:  # int(), also inside Fraction, reads at most 4300 digits
            raise ConstructionError(f"--r has {len(args.r)} characters, more than 4300")
        if name == "be" and "e" in args.r.lower():  # Fraction expands 1e-99999999
            raise ConstructionError(f"--r {args.r!r}: give r as p/q or a decimal")
        try:
            given["r"] = Fraction(args.r) if name == "be" else int(args.r)
        except ZeroDivisionError:
            raise ConstructionError(f"r has a zero denominator: {args.r!r}") from None
    if hasattr(args, "kvec"):
        given["kvec"] = _parse_kvec(args.kvec)
    elif hasattr(args, "alpha"):
        given["alpha"] = args.alpha
    point = (args.mappers, *given.values()) if "r" in given else None
    if point and name == "gc":
        point = GcParameters(*point)
    return FAMILIES[name], point, given


def _summary_line(arr: CodedArray) -> str:
    stats = arr.stats
    zs = set(stats.column_stars)
    z = str(stats.column_stars[0]) if len(zs) == 1 else "-"
    g = str(stats.common_g) if stats.common_g is not None else "-"
    return f"F={arr.rows} K={arr.cols} S={arr.symbol_count} Z={z} g={g}"


def _read_array(path: str) -> CodedArray:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_array(fh.read())


def _write_out(text: str, path) -> None:
    """Write ``text`` to ``path`` as it is, or to stdout without a path."""
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _integer(text: str, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {text!r}") from None


def cmd_construct(args) -> int:
    family, point, _ = _point(args)
    arr = family.build(point)
    _write_out(arr.serialize(), args.out)
    print(_summary_line(arr))
    return EXIT_OK


def _report_dict(report) -> dict:
    out = {"ok": report.ok, "checks": dict(report.checks)}
    if report.violation is not None:
        out["first_violation"] = report.violation.describe()
    return out


def cmd_validate(args) -> int:
    arr = _read_array(args.array)
    stats = arr.stats
    payload = {
        "F": arr.rows,
        "K": arr.cols,
        "S": arr.symbol_count,
        "column_stars": list(stats.column_stars),
        "regular_g": stats.common_g,
        "cyclic_shift": stats.cyclic_shift,
        "mra": _report_dict(validate_mra(arr)),
        "pda": _report_dict(validate_pda(arr)),
    }
    if args.cyclic is not None:
        payload["l_cyclic"] = _report_dict(validate_l_cyclic(arr, args.cyclic))
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_truncate(args) -> int:
    arr = _read_array(args.array)
    out = truncate_columns(arr, [_integer(tok, "--keep") for tok in args.keep.split(",")])
    _write_out(out.serialize(), args.out)
    print(_summary_line(out))
    return EXIT_OK


def cmd_simulate(args) -> int:
    arr = _read_array(args.array)
    if args.iv_bits == "auto":  # run_job checks that the counts divide
        t = choose_iv_bits(arr, 1, args.files // arr.rows, args.functions // arr.cols)
    else:
        t = _integer(args.iv_bits, "--iv-bits")
    seed = args.seed
    if seed is None:
        seed = _integer(os.environ.get(SEED_ENV, "0"), SEED_ENV)
    spec = JobSpec(args.files, args.functions, t, seed)
    transcript, report = run_job(arr, spec)
    if args.dump_transcript:
        _write_out(transcript.dump(), args.dump_transcript)
    payload = report.to_json_dict()
    payload["iv_bits"] = t
    payload["message_count"] = len(transcript.messages)
    print(json.dumps(payload, indent=2))
    return EXIT_OK if report.all_ok else EXIT_DECODE


def cmd_loads(args) -> int:
    family, point, given = _point(args)
    ach = family.load(point)
    low = family.bound(point) if family.bound else None
    out = {"topology": args.family, "Lambda": args.mappers, **given}
    out["L_achievable"] = format_rational(ach)
    out["L_achievable_decimal"] = round(float(ach), 6)
    if low is not None:
        out["L_lower_bound"] = format_rational(low)
        out["L_lower_bound_decimal"] = round(float(low), 6)
    print(json.dumps(out, indent=2, default=str))  # be's r is a Fraction
    return EXIT_OK


def _sweep_rows(args):
    family, _, given = _point(args)
    for point in family.points(args.mappers, *given.values()):
        lam, r, alpha_or_kvec = point
        # a gc sweep is labelled by the whole vector it was asked for
        label = ",".join(map(str, given["kvec"])) if given else str(alpha_or_kvec)
        low = family.bound(point) if family.bound else None
        yield args.family, lam, r, label, family.load(point), low


def cmd_sweep(args) -> int:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        [
            "topology",
            "Lambda",
            "r",
            "alpha_or_Kvec",
            "L_achievable",
            "L_lower_bound",
            "L_achievable_decimal",
        ]
    )
    for topo, lam, r, label, ach, low in _sweep_rows(args):
        writer.writerow(
            [
                topo,
                lam,
                r,
                label,
                format_rational(ach),
                format_rational(low) if low is not None else "",
                f"{float(ach):.6f}",
            ]
        )
    _write_out(buf.getvalue(), args.out)
    return EXIT_OK


# --- repro -----------------------------------------------------------------

_FIXTURE_CHECKS = [
    # name, valid MRA?, valid PDA?, S, regular g (or None), cyclic shift
    # (the basic PDA is not an MRA: its last symbol occurs only once)
    ("basic_pda", False, True, 4, None, None),
    ("regular_pda_3", True, True, 4, 3, None),
    ("cyclic_pda_4", True, True, 4, 2, 2),
    ("mra_irregular", True, False, 4, None, None),
    ("mra_2regular", True, False, 5, 2, None),
    ("mra_3col", True, True, 3, 2, None),
    ("cyclic_pda_12", True, True, 12, 4, 2),
    ("ct_4_2_2", True, True, 1, 6, None),
    ("ct_4_2_1", True, True, 4, 3, None),
    ("gc_4_2_k20", True, True, 8, 3, None),
    ("gc_4_2_k03", True, True, 3, 6, None),
    ("gc_4_2_k23", True, False, 11, None, None),
]


def _repro_checks():
    checks: list[tuple[str, str, str]] = []

    def add(ok: bool, name: str, detail: str, flagged: bool = False):
        status = "FLAGGED" if flagged else ("PASS" if ok else "FAIL")
        checks.append((status, name, detail))

    # each golden array is parsed once; arrays are immutable, so the checks
    # below share them
    fixtures = {name: load_fixture(name) for name, *_ in _FIXTURE_CHECKS}

    # 1. golden fixture validation
    for name, want_mra, want_pda, want_s, want_g, want_l in _FIXTURE_CHECKS:
        arr = fixtures[name]
        stats = arr.stats
        ok = validate_mra(arr).ok == want_mra
        ok &= validate_pda(arr).ok == want_pda
        ok &= arr.symbol_count == want_s
        if want_g is not None:
            ok &= stats.common_g == want_g
        if want_l is not None:
            ok &= validate_l_cyclic(arr, want_l).ok
        add(ok, f"fixture {name}", f"S={arr.symbol_count} g={stats.common_g}")

    # 2. constructors reproduce the golden arrays
    pairs = [
        ("alg1(4,2,2)", algorithm1(4, 2, 2), "ct_4_2_2", True),
        ("alg1(4,2,1)", algorithm1(4, 2, 1), "ct_4_2_1", True),
        ("alg2(4,2,(2,0))", algorithm2(GcParameters(4, 2, (2, 0))), "gc_4_2_k20", True),
        ("alg2(4,2,(0,3))", algorithm2(GcParameters(4, 2, (0, 3))), "gc_4_2_k03", True),
        ("alg2(4,2,(2,3))", algorithm2(GcParameters(4, 2, (2, 3))), "gc_4_2_k23", True),
        ("nnc(12,2,4)", nnc_pda(12, 2, 4), "cyclic_pda_12", False),
        ("nnc(4,2,1)", nnc_pda(4, 2, 1), "cyclic_pda_4", False),
    ]
    for label, built, fixture, exact in pairs:
        ref = fixtures[fixture]
        ok = built == ref if exact else built.equal_up_to_relabeling(ref)
        how = "cell-for-cell" if exact else "up to relabeling"
        add(ok, f"construct {label}", f"matches {fixture} {how}")

    big = fixtures["mra_irregular"]
    ok = truncate_columns(big, [0, 1, 2]) == fixtures["mra_3col"]
    add(ok, "truncate keep {0,1,2}", "drops the two rightmost columns")
    try:
        truncate_columns(big, [0, 1, 2, 3])
        add(False, "truncate keep {0,1,2,3}", "expected an orphaned symbol")
    except TruncationError as exc:
        add(exc.symbol == 3, "truncate keep {0,1,2,3}", str(exc))

    # 3. bit-exact simulations
    sims = [
        ("mra_irregular", 4, 5, None, Fraction(15, 40), 9),
        ("ct_4_2_2", 6, 6, 5, Fraction(1, 30), 6),
        ("cyclic_pda_12", 12, 12, 3, Fraction(1, 9), 48),
    ]
    for name, files, funcs, t, want, want_msgs in sims:
        arr = fixtures[name]
        if t is None:
            t = choose_iv_bits(arr, 1, files // arr.rows, funcs // arr.cols)
        transcript, rep = run_job(arr, JobSpec(files, funcs, t, 0))
        ok = (
            rep.all_ok
            and rep.measured_load == want
            and len(transcript.messages) == want_msgs
        )
        add(
            ok,
            f"simulate {name}",
            f"load {rep.total_bits}/{rep.denominator} "
            f"({len(transcript.messages)} messages, all decoded={rep.all_ok})",
        )

    # 4. comparison-table loads at Lambda=12, r=2, alpha=4
    nnc_l = nnc_load(12, 2, 4)
    ct_l = ct_load(12, 2, 4)
    ok = f"{float(nnc_l):.2f}" == "0.11" and nnc_l == Fraction(1, 9)
    add(ok, "table: wrap-around load", f"{format_rational(nnc_l)} -> {float(nnc_l):.2f}")
    ok = f"{float(ct_l):.2f}" == "0.03" and ct_l == Fraction(28, 924)
    add(ok, "table: subset-topology load", f"28/924 = {format_rational(ct_l)} -> {float(ct_l):.2f}")
    add(
        comb(12, 4) == 495 and comb(12, 2) == 66,
        "table: node/file counts",
        "wrap-around K=F=N=12 vs subset K=Q=495, F=N=66",
    )

    # 5. optimality corner alpha = mappers - r
    for point in ((4, 2, 2), (5, 2, 3), (6, 3, 3)):
        ach, low = FAMILIES["ct"].load(point), FAMILIES["ct"].bound(point)
        add(
            ach == low,
            "optimal corner ({},{},{})".format(*point),
            f"achievable = bound = {format_rational(ach)}",
        )

    # 6. single-mapper reducers recover the classic bound
    ok = all(ct_lower_bound(6, r, 1) == Fraction(6 - r, 6 * r) for r in range(1, 6))
    add(ok, "classic bound alpha=1", "(L-r)/(L*r) for L=6, r in 1..5")

    # 7. published decimals that the formulas contradict
    gc_l = gc_load(GcParameters(4, 2, (2, 3)))
    add(
        gc_l == Fraction(1, 10),
        "mixed-degree load (4,2,(2,3))",
        f"published 0.046 unreproduced; computed {format_rational(gc_l)}",
        flagged=True,
    )
    add(
        ct_l == Fraction(28, 924),
        "subset-topology decimal (12,2,4)",
        f"published prose 0.3 unreproduced; computed 28/924 = "
        f"{format_rational(ct_l)} ~ {float(ct_l):.4f} (table value 0.03 matches)",
        flagged=True,
    )
    # coding gain 2 corner: formula and array agree, nothing to reconcile
    corner = load_from_array(nnc_pda(4, 2, 1))
    add(
        corner == nnc_load(4, 2, 1) == Fraction(1, 2),
        "wrap-around g=2 corner (4,2,1)",
        f"formula and array both give {format_rational(corner)}",
    )
    return checks


def cmd_repro(_args) -> int:
    checks = _repro_checks()
    width = max(len(name) for _, name, _ in checks)
    failures = 0
    for status, name, detail in checks:
        if status == "FAIL":
            failures += 1
        print(f"{status:7s} {name:<{width}s}  {detail}")
    passed = sum(1 for s, _, _ in checks if s == "PASS")
    flagged = sum(1 for s, _, _ in checks if s == "FLAGGED")
    print(
        f"\n{passed} passed, {failures} failed, {flagged} flagged "
        f"(flagged values are known publication discrepancies, not errors)"
    )
    return EXIT_REPRO_FAIL if failures else EXIT_OK


def _add_families(p, names, point=True, out=None):
    """One sub-parser per family of ``names``, with only the flags it reads:
    --lambda, --r at a point, gc's --kvec, else --alpha at a point, --out."""
    families = p.add_subparsers(dest="family", required=True)
    for name in names:
        f = families.add_parser(name)
        f.add_argument("--lambda", dest="mappers", type=int, required=True)
        if point:
            f.add_argument("--r", required=True)
        if _CONSTRUCT_NAMES.get(name, name) == "gc":
            f.add_argument(
                "--kvec", required=True, help="comma-separated multiplicities K_1,K_2,..."
            )
        elif point:
            f.add_argument("--alpha", type=int, required=True)
        if out:
            f.add_argument("--out", help=out)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: a build takes about
    1 ms, and parsing leaves the parser as it was."""
    parser = argparse.ArgumentParser(
        prog="codedshuffle",
        description="Construct, validate, and simulate coded shuffle arrays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build an array family member")
    _add_families(p, _CONSTRUCT_NAMES, out="output path (default: stdout)")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("validate", help="validate an array file")
    p.add_argument("array")
    p.add_argument("--cyclic", type=int, help="also check the l-cyclic layout")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("truncate", help="restrict an array to chosen columns")
    p.add_argument("array")
    p.add_argument("--keep", required=True, help="comma-separated column indices")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_truncate)

    p = sub.add_parser("simulate", help="run the coded shuffle on an array")
    p.add_argument("array")
    p.add_argument("--files", type=int, required=True)
    p.add_argument("--functions", type=int, required=True)
    p.add_argument("--iv-bits", default="auto", help="bits per IV or 'auto'")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--dump-transcript", help="write the message dump here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("loads", help="evaluate load formulas at one point")
    _add_families(p, FAMILIES)
    p.set_defaults(func=cmd_loads)

    p = sub.add_parser("sweep", help="CSV of loads over a parameter range")
    _add_families(p, FAMILIES, point=False, out="CSV path (default: stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("repro", help="re-derive the published example values")
    p.set_defaults(func=cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed its usage message
        return exc.code
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # the package's errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

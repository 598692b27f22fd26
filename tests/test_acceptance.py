"""Acceptance suite: one test per exit criterion, with pinned tolerances.

Each test carries the ``acceptance`` marker; the conftest summary hook
prints one pass/fail line per criterion at the end of the run.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from codedshuffle import (
    GcParameters,
    JobSpec,
    algorithm1,
    algorithm2,
    compute_stats,
    ct_load,
    gc_lower_bound,
    load_from_array,
    nnc_load,
    nnc_pda,
    run_job,
    truncate_columns,
    validate_l_cyclic,
    validate_mra,
    validate_pda,
)
from codedshuffle.arrays import STAR, TruncationError
from codedshuffle.cli import FAMILIES, main

from oracles import bf_validate_mra, bf_validate_pda


@pytest.mark.acceptance(num=1, name="fixture validation")
def test_criterion_1_fixture_validation(golden):
    t0 = time.perf_counter()
    a1 = golden["basic_pda"]
    rep = validate_pda(a1)
    assert rep.ok and rep.details["Z"] == 2
    assert (a1.rows, a1.cols, a1.symbol_count) == (4, 4, 4)

    a2 = golden["regular_pda_3"]
    assert validate_pda(a2).ok and compute_stats(a2).common_g == 3

    a3 = golden["cyclic_pda_4"]
    assert validate_pda(a3).ok
    rep = validate_l_cyclic(a3, 2)
    assert rep.ok and rep.details["g"] == 2
    assert compute_stats(a3).column_stars == (2, 2, 2, 2)

    p1 = golden["mra_irregular"]
    assert validate_mra(p1).ok and not validate_pda(p1).ok
    assert (p1.cols, p1.rows, p1.symbol_count) == (5, 4, 4)

    p1_hat = golden["mra_3col"]
    assert validate_mra(p1_hat).ok
    assert (p1_hat.cols, p1_hat.rows, p1_hat.symbol_count) == (3, 4, 3)

    p5 = golden["gc_4_2_k23"]
    assert validate_mra(p5).ok
    assert (p5.cols, p5.rows, p5.symbol_count) == (26, 6, 11)

    assert time.perf_counter() - t0 < 1.0


@pytest.mark.acceptance(num=2, name="constructor exactness")
def test_criterion_2_constructor_exactness(golden):
    t0 = time.perf_counter()
    assert algorithm1(4, 2, 2) == golden["ct_4_2_2"]
    assert algorithm1(4, 2, 1) == golden["ct_4_2_1"]
    assert algorithm2(GcParameters(4, 2, (2, 3))) == golden["gc_4_2_k23"]
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.acceptance(num=3, name="cyclic family reproduction")
def test_criterion_3_nnc_reproduction(golden):
    t0 = time.perf_counter()
    p3 = nnc_pda(12, 2, 4)
    assert p3.equal_up_to_relabeling(golden["cyclic_pda_12"])
    assert validate_pda(p3).ok
    rep = validate_l_cyclic(p3, 2)
    assert rep.ok and rep.details["g"] == 4
    st = compute_stats(p3)
    assert set(st.column_stars) == {8} and p3.symbol_count == 12

    a3 = nnc_pda(4, 2, 1)
    assert a3.equal_up_to_relabeling(golden["cyclic_pda_4"])
    assert time.perf_counter() - t0 < 5.0


@pytest.mark.acceptance(num=4, name="simulation loads")
def test_criterion_4_simulation_loads(golden):
    t0 = time.perf_counter()
    _, rep = run_job(golden["mra_irregular"], JobSpec(4, 5, 2, 0))
    assert rep.all_ok and rep.measured_load == Fraction(15, 40)
    _, rep = run_job(golden["ct_4_2_2"], JobSpec(6, 6, 5, 0))
    assert rep.all_ok and rep.measured_load == Fraction(1, 30)
    _, rep = run_job(golden["cyclic_pda_12"], JobSpec(12, 12, 3, 0))
    assert rep.all_ok and rep.measured_load == Fraction(1, 9)
    assert time.perf_counter() - t0 < 2.0


@pytest.mark.acceptance(num=5, name="formula identities")
def test_criterion_5_formula_identities(constructor_sweep):
    t0 = time.perf_counter()
    assert constructor_sweep, "empty sweep"
    for family, point, arr in constructor_sweep:
        assert load_from_array(arr) == FAMILIES[family].load(point), point
    assert time.perf_counter() - t0 < 60.0


@pytest.mark.acceptance(num=6, name="published decimals")
def test_criterion_6_published_decimals():
    ct = float(ct_load(12, 2, 4))
    assert f"{ct:.2f}" == "0.03" and abs(ct - 0.03) <= 5e-3
    nnc = float(nnc_load(12, 2, 4))
    assert f"{nnc:.2f}" == "0.11" and abs(nnc - 0.11) <= 5e-3
    low = float(gc_lower_bound(GcParameters(4, 2, (2, 3))))
    assert f"{low:.3f}" == "0.014" and abs(low - 0.014) <= 5e-3


@pytest.mark.acceptance(num=7, name="optimality corner")
def test_criterion_7_optimality_corner():
    for lam, r in ((4, 2), (5, 2), (6, 3)):
        alpha = lam - r
        kvec = tuple(1 if a == alpha else 0 for a in range(1, lam - r + 1))
        assert ct_load(lam, r, alpha) == gc_lower_bound(GcParameters(lam, r, kvec))
    assert ct_load(4, 2, 2) == Fraction(1, 30)


@pytest.mark.acceptance(num=8, name="single-access bound")
def test_criterion_8_single_access_bound():
    for r in range(1, 6):
        params = GcParameters(6, r, (1,) + (0,) * (5 - r))
        assert gc_lower_bound(params) == Fraction(6 - r, 6 * r)


@pytest.mark.acceptance(num=9, name="property suites")
def test_criterion_9_property_suites(golden, constructor_sweep, criterion_9_jobs):
    # decode completeness over the criterion-5 sweep at eta1, eta2 in {1, 2}
    _, reports = criterion_9_jobs
    assert len(reports) == 4 * len(constructor_sweep)
    for i, (family, point, _arr) in enumerate(constructor_sweep):
        expected = FAMILIES[family].load(point)
        for rep in reports[4 * i : 4 * i + 4]:
            assert rep.all_ok
            assert rep.measured_load == expected

    # truncation: succeeds exactly when every surviving symbol count is >= 2
    p5 = golden["gc_4_2_k23"]
    rng = random.Random(2024)
    for _ in range(100):
        size = rng.randint(1, p5.cols)
        keep = sorted(rng.sample(range(p5.cols), size))
        sub = p5.grid[:, keep]
        vals, counts = np.unique(sub[sub != STAR], return_counts=True)
        expect_ok = not (counts == 1).any() if vals.size else True
        try:
            out = truncate_columns(p5, keep)
            assert expect_ok
            assert np.array_equal(out.star_mask, p5.star_mask[:, keep])
        except TruncationError:
            assert not expect_ok

    # validators agree with the brute-force pair scan on every fixture
    for name, arr in golden.items():
        g = arr.grid.tolist()
        assert validate_mra(arr).ok == bf_validate_mra(g), name
        assert validate_pda(arr).ok == bf_validate_pda(g), name


@pytest.mark.acceptance(num=10, name="flagged discrepancies")
def test_criterion_10_flagged_discrepancies(capsys):
    code = main(["repro"])
    out = capsys.readouterr().out
    assert code == 0
    flagged = [ln for ln in out.splitlines() if ln.startswith("FLAGGED")]
    assert len(flagged) == 2
    mixed = next(ln for ln in flagged if "0.046" in ln)
    assert "1/10" in mixed
    prose = next(ln for ln in flagged if "0.3" in ln)
    assert "28/924" in prose
    assert not any(ln.startswith("FAIL") for ln in out.splitlines())

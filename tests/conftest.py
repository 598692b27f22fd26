from __future__ import annotations

import gc
import importlib.util
import tracemalloc
from itertools import product
from pathlib import Path

import pytest

from codedshuffle import fixture_names, load_fixture
from codedshuffle.cli import FAMILIES
from codedshuffle.constructors import ConstructionError, GcParameters, ct_points, nnc_points

_ACCEPTANCE_RESULTS: dict[int, tuple[str, str]] = {}


@pytest.fixture(scope="session")
def golden() -> dict:
    return {name: load_fixture(name) for name in fixture_names()}


def alg2_params(max_mappers: int = 6, max_k: int = 3):
    for lam in range(2, max_mappers + 1):
        for r in range(1, lam):
            for kvec in product(range(max_k + 1), repeat=lam - r):
                if any(kvec):
                    yield GcParameters(lam, r, kvec)


def nnc_triples(max_mappers: int = 12, min_g: int = 3):
    """Wrap-around points with integral coding gain at least min_g."""
    for lam in range(2, max_mappers + 1):
        for _, r, alpha in nnc_points(lam):
            d = lam - (alpha - 1) * r
            if (2 * lam) % d == 0 and 2 * lam // d >= min_g:
                yield lam, r, alpha


def build_sweep() -> list:
    """The criterion-5 sweep as (family, point, array) triples."""
    points = [("ct", p) for lam in range(2, 9) for p in ct_points(lam)]
    points += [("gc", p) for p in alg2_params()]
    points += [("nnc", p) for p in nnc_triples()]
    sweep = []
    for family, point in points:
        try:
            sweep.append((family, point, FAMILIES[family].build(point)))
        except ConstructionError:
            # wrap-around points with no valid fill stay out of the sweep
            continue
    return sweep


@pytest.fixture(scope="session")
def constructor_sweep() -> list:
    return build_sweep()


def identity_digests():
    """tools/identity_digests.py, imported as a module."""
    path = Path(__file__).resolve().parents[1] / "tools" / "identity_digests.py"
    spec = importlib.util.spec_from_file_location("identity_digests", path)
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    return digests


def traced(call):
    """``call()``, its traced peak and the traced bytes it left held.
    Garbage is collected first, so no collection of earlier garbage runs
    inside the trace."""
    gc.collect()
    tracemalloc.start()
    try:
        out = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak, kept


@pytest.fixture(scope="session")
def criterion_9_jobs(constructor_sweep) -> tuple[str, list]:
    """The 7 624 seed-17 jobs of acceptance criterion 9, run once: each
    sweep array at eta (1, 1), (1, 2), (2, 1) and (2, 2) with the smallest
    IV width for t_base 1.  Their jobs digest and their reports, four per
    array in that order."""
    sweep = [arr for *_, arr in constructor_sweep]
    return identity_digests().job_digest(sweep, seeds=(17,))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when != "call":
        return
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    num = marker.kwargs.get("num", marker.args[0] if marker.args else 0)
    name = marker.kwargs.get("name", item.name)
    _ACCEPTANCE_RESULTS[num] = (name, "PASS" if rep.passed else "FAIL")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_ACCEPTANCE_RESULTS):
        name, status = _ACCEPTANCE_RESULTS[num]
        terminalreporter.write_line(f"criterion {num:2d} ({name}): {status}")

from __future__ import annotations

from itertools import product

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

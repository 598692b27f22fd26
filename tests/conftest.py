from __future__ import annotations

from itertools import product

import pytest

from codedshuffle import algorithm1, algorithm2, fixture_names, load_fixture, nnc_pda
from codedshuffle.constructors import ConstructionError, GcParameters

_ACCEPTANCE_RESULTS: dict[int, tuple[str, str]] = {}


@pytest.fixture(scope="session")
def golden() -> dict:
    return {name: load_fixture(name) for name in fixture_names()}


def alg1_triples(max_mappers: int = 8):
    for lam in range(2, max_mappers + 1):
        for alpha in range(1, lam):
            for r in range(1, lam - alpha + 1):
                yield lam, r, alpha


def alg2_params(max_mappers: int = 6, max_k: int = 3):
    for lam in range(2, max_mappers + 1):
        for r in range(1, lam):
            for kvec in product(range(max_k + 1), repeat=lam - r):
                if any(kvec):
                    yield GcParameters(lam, r, kvec)


def nnc_triples(max_mappers: int = 12, min_g: int = 3):
    """Constructible wrap-around triples with coding gain at least min_g."""
    for lam in range(2, max_mappers + 1):
        for r in range(1, lam + 1):
            if lam % r:
                continue
            for alpha in range(1, lam // r):
                d = lam - (alpha - 1) * r
                if (2 * lam) % d or 2 * lam // d < min_g:
                    continue
                yield lam, r, alpha


@pytest.fixture(scope="session")
def constructor_sweep():
    """The criterion-5 sweep, built once: (array, expected-load thunk) sets."""
    alg1 = [(lam, r, a, algorithm1(lam, r, a)) for lam, r, a in alg1_triples()]
    alg2 = [(p, algorithm2(p)) for p in alg2_params()]
    nnc = []
    for lam, r, a in nnc_triples():
        try:
            nnc.append((lam, r, a, nnc_pda(lam, r, a)))
        except ConstructionError:
            # parameter points with no valid fill stay out of the sweep
            continue
    return {"alg1": alg1, "alg2": alg2, "nnc": nnc}


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

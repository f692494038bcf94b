"""Shared fixtures and the acceptance scoreboard.

Every test in test_acceptance.py is named test_cNN_*; the terminal summary
groups their outcomes by criterion and prints one pass/fail line each, so a
plain ``pytest`` run ends with a readable scoreboard even when a criterion is
split over parametrized cases.
"""

import numpy as np
import pytest

from harnack import EdgeWeights, characteristic_polynomial, sample_interior
from harnack import amoeba as amoeba_mod
from harnack.numerics import polyroots_batch

CRITERIA = {
    "c01": "uniform weights factor into cube-root lines",
    "c02": "curve intercepts equal zig-zag alternating products",
    "c03": "amoeba area reaches pi^2 d^2 / 2",
    "c04": "Ronkin Hessian determinant is 1/pi^2, residual O(h^2)",
    "c05": "Ronkin value matches independent quadrature",
    "c06": "amoeba map is 2-to-1 over interior points",
    "c07": "hole orders and real ovals agree",
    "c08": "boundary data round trip recovers the curve",
    "c09": "boundary Jacobian symmetry, kernel, block structure",
    "c10": "isoradial weights land on the sine-quotient curve",
    "c11": "vertex divisor puts one point on every compact oval",
    "c12": "admissible perturbation raises the enclosed volume",
    "c13": "coefficient decrease shrinks only its own hole",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    tallies = {key: [0, 0] for key in CRITERIA}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py::test_c" not in nodeid:
                continue
            key = nodeid.split("::", 1)[1].split("_")[1]
            if key not in tallies:
                continue
            tallies[key][1] += 1
            if outcome == "passed":
                tallies[key][0] += 1
    if all(total == 0 for _, total in tallies.values()):
        return
    terminalreporter.section("acceptance criteria")
    for key, desc in CRITERIA.items():
        passed, total = tallies[key]
        if total == 0:
            verdict = "NOT RUN"
        elif passed == total:
            verdict = f"PASS ({passed}/{total} cases)"
        else:
            verdict = f"FAIL ({passed}/{total} cases)"
        terminalreporter.write_line(f"{key} {desc}: {verdict}")


@pytest.fixture(scope="session")
def line_poly():
    return characteristic_polynomial(EdgeWeights.uniform(1))


@pytest.fixture(scope="session")
def u2_poly():
    return characteristic_polynomial(EdgeWeights.uniform(2))


@pytest.fixture(scope="session")
def u3_poly():
    return characteristic_polynomial(EdgeWeights.uniform(3))


@pytest.fixture(scope="session")
def interior_sampler():
    """Seeded ``sample_interior``: points at least ``margin`` deep inside an amoeba."""

    def sample(poly, count, seed, margin=0.25):
        return sample_interior(poly, count, np.random.default_rng(seed), margin=margin)

    return sample


@pytest.fixture
def root_batches(monkeypatch):
    """A list that gains one entry, the row count, per ``polyroots_batch`` call made by ``harnack.amoeba``."""
    batches = []

    def counted(rows):
        batches.append(len(rows))
        return polyroots_batch(rows)

    monkeypatch.setattr(amoeba_mod, "polyroots_batch", counted)
    return batches

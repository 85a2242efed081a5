import json

import numpy as np
import pytest

from csample.gmm import GaussianMixture
from csample.linalg_rng import SpdMatrix

ACCEPTANCE_LINES = []


def record_criterion(number, passed, detail):
    """Collect one acceptance-criterion verdict for the terminal summary."""
    status = "PASS" if passed else "FAIL"
    if passed is None:
        status = "SKIP"
    ACCEPTANCE_LINES.append(f"criterion {number:2d}: {status} - {detail}")


def selection_bytes(selection):
    """An AIC selection's table and mixture as summary.json and gmm.json
    write them."""
    return (json.dumps(selection.table, indent=2, sort_keys=True),
            json.dumps(selection.mixture.to_json_dict(), indent=2, sort_keys=True))


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)

# Synthetic one-dimensional benchmark: the mixture the prior ensemble is
# drawn from, and a seven-component reference fit of it used as a fixed
# target in density/gradient tests.
TRUE_1D = {
    "weights": [0.09, 0.19, 0.09, 0.28, 0.15, 0.15, 0.03, 0.02],
    "means": [-6.0, -2.5, 0.0, 2.5, 6.0, 6.5, 7.5, 8.0],
    "variances": [0.20, 0.28, 0.08, 0.24, 0.28, 0.08, 0.12, 0.04],
}

FIT_1D = {
    "weights": [0.111, 0.177, 0.045, 0.065, 0.146, 0.225, 0.231],
    "means": [-5.78, -2.49, -1.49, 0.12, 2.05, 2.78, 6.12],
    "variances": [0.123, 0.223, 0.001, 0.061, 0.032, 0.148, 0.164],
}


def make_mixture_1d(params):
    covs = [SpdMatrix.from_diagonal([v]) for v in params["variances"]]
    means = np.asarray(params["means"], dtype=float).reshape(-1, 1)
    return GaussianMixture(params["weights"], means, covs, structure="diagonal")


@pytest.fixture
def true_mixture_1d():
    return make_mixture_1d(TRUE_1D)


@pytest.fixture
def fit_mixture_1d():
    return make_mixture_1d(FIT_1D)

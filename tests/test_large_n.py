"""Bijection laws on seeded 321-avoiders far beyond the exhaustive range.

The exhaustive tests stop at n <= 10; these run the same laws at n = 100
and 300, where words print spaced and the bit masks are wide.  The whole
file has a stated budget, asserted when its last test ends.
"""

import time

import pytest

from crossperm import perms
from crossperm.bijections import gamma, theta, theta_inverse, theta_pipeline, theta_recursive
from samplers import two_run_merges

BUDGET_S = 5.0

BATCHES = {100: (200, 100), 300: (40, 300)}  # n: (count, seed)


@pytest.fixture(scope="module", autouse=True)
def file_budget():
    start = time.perf_counter()
    yield
    assert time.perf_counter() - start < BUDGET_S


@pytest.fixture(scope="module", params=sorted(BATCHES), ids=lambda n: f"n{n}")
def batch(request):
    n = request.param
    return two_run_merges(n, *BATCHES[n])


def triple(sigma):
    return perms.fp(sigma), perms.exc(sigma), perms.crs(sigma)


def test_theta_routes_agree(batch):
    for sigma in batch:
        assert theta_recursive(sigma) == theta_pipeline(sigma), sigma


def test_theta_inverse_undoes_theta(batch):
    for sigma in batch:
        assert theta_inverse(theta(sigma)) == sigma, sigma


def test_theta_and_gamma_preserve_fp_exc_crs(batch):
    for sigma in batch:
        want = triple(sigma)
        assert triple(theta(sigma)) == want, sigma
        assert triple(gamma(sigma)) == want, sigma

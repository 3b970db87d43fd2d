"""The ellipticity and bounds search against the ellipticity oracle
(``ellipticity_oracle``: the profiles evaluated at every node and one
multiply-then-dot per nonzero entry of A).

(a) The quadrature arrays equal the oracle's bitwise.
(b) ``estimate_ellipticity`` agrees with the oracle to 1e-13 relative: the
trials test the same fields, and only the summation order of each Rayleigh
quotient differs.  The custom operators have constant and varying entries
and none of the symmetries A_ij^{ab} = A_ji^{ba} or A_ij^{ab} = A_ij^{ba},
with N = 2 components in both dimensions, so a gradient row mixed up
between components and directions changes the estimate.
(c) ``estimate_bounds`` equals the oracle exactly.
"""

import numpy as np
import pytest

import ellipticity_oracle as oracle
from narrowgap import (GapProfile, NarrowRegion, PolynomialField,
                       estimate_bounds, estimate_ellipticity, make_builtin,
                       parse_expression)
from narrowgap.operators import EllipticOperator, _quadrature_nodes

REL = 1e-13


def _region(n):
    h1 = {2: "0.5*x1^2 + 0.3*x1^4", 3: "0.5*x1^2 + 0.3*x1^4 + 0.5*x2^2"}[n]
    h2 = {2: "-x1^2 + 0.2*x1^3", 3: "-x1^2 + 0.2*x1^3 - x2^2 + 0.1*x1*x2^2"}[n]
    return NarrowRegion(n=n, epsilon=0.1, profile=GapProfile(
        h1=parse_expression(h1, nvars=n - 1), h2=parse_expression(h2, nvars=n - 1)))


def _custom(n):
    """N = 2, strongly elliptic, with no symmetry of A."""
    def p(text):
        return parse_expression(text, nvars=n)

    A = np.full((2, 2, n, n), PolynomialField.zero(n), dtype=object)
    for a in range(n):
        A[0, 0, a, a] = p("2 + x1^2")
        A[1, 1, a, a] = p("3")
    A[0, 0, 0, 1] = p("0.4")
    A[0, 1, 0, 1] = p(f"0.5 + 0.3*x{n}")
    A[1, 0, 0, n - 1] = p("-0.25*x1")
    return EllipticOperator(n, 2, A, label="custom")


def _operator(kind, n):
    if kind == "custom":
        return _custom(n)
    return make_builtin(kind, n=n, lame_mu=1.0, lame_lambda=1.5)


@pytest.fixture(scope="module", params=[2, 3], ids=["2d", "3d"])
def region(request):
    return _region(request.param)


@pytest.mark.parametrize("spec", [(49, 25), (33, 17)])
def test_quadrature_matches_the_oracle_bitwise(region, spec):
    new = _quadrature_nodes(region, spec)
    old = oracle._quadrature_nodes(region, spec)
    for name in ("points", "weights", "delta", "dT"):
        got, want = getattr(new, name), getattr(old, name)
        assert got.shape == want.shape, name
        assert np.array_equal(got, want), name


@pytest.mark.parametrize("kind", ["laplace", "lame", "custom"])
def test_ellipticity_matches_the_oracle(region, kind):
    op = _operator(kind, region.n)
    got = estimate_ellipticity(op, region, seed=1)
    want = oracle.estimate_ellipticity(op, region, seed=1)
    assert want > 0.5
    assert abs(got - want) <= REL * abs(want)


@pytest.mark.parametrize("kind", ["laplace", "lame", "custom"])
def test_bounds_match_the_oracle_exactly(region, kind):
    op = _operator(kind, region.n)
    assert estimate_bounds(op, region) == oracle.estimate_bounds(op, region)

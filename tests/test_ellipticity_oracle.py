"""The ellipticity and bounds search against the ellipticity oracle
(``ellipticity_oracle``: the profiles evaluated at every node, every
dictionary field built at the nodes and one multiply-then-dot per nonzero
entry of A).

(a) The quadrature arrays equal the oracle's bitwise; the per-column arrays
broadcast over t give the oracle's nodal ones, and the product of the
column and level weights gives the oracle's nodal weights to rounding.
(b) Every entry of the sine-mode Gram matrices equals the nodal quadrature
sum of its two dictionary fields, built the oracle's way, to 1e-13 of the
matrix's largest entry, in 2-D and 3-D.
(c) ``estimate_ellipticity`` agrees to 1e-13 relative with the smallest
eigenvalue of the pencil (sym K, D) on the oracle's nodal Grams, reduced by
a Cholesky factor of D.  The custom operators have constant and varying
entries and none of the symmetries A_ij^{ab} = A_ji^{ba} or
A_ij^{ab} = A_ij^{ba}, with N = 2 components in both dimensions, so a
gradient row or a Gram block mixed up between components and directions,
or a K used without its symmetric part, changes the result.
(d) ``estimate_bounds`` equals the oracle exactly.
"""

import numpy as np
import pytest

import ellipticity_oracle as oracle
from narrowgap import (GapProfile, NarrowRegion, PolynomialField,
                       estimate_bounds, estimate_ellipticity, make_builtin,
                       parse_expression)
from narrowgap.operators import (_SINE_KMAX, EllipticOperator, _quadrature_nodes,
                                 _sine_grams)

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
    return EllipticOperator(n, 2, A)


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
    mt = spec[1]
    for got, want in ((new.points, old.points),
                      (np.repeat(new.delta, mt), old.delta),
                      ((new.dbottom[:, :, None] + new.t * new.ddelta[:, :, None])
                       .reshape(region.nd, -1), old.dT)):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    assert np.allclose(np.outer(new.col_weights, new.level_weights).ravel(),
                       old.weights, rtol=1e-15, atol=0)


def _assert_gram(got, want):
    assert np.abs(got - want).max() <= REL * np.abs(want).max()


@pytest.mark.parametrize("kind", ["laplace", "lame", "custom"])
def test_sine_grams_match_nodal_sums(region, kind):
    op = _operator(kind, region.n)
    spec = (49, 25) if region.n == 2 else (25, 13)
    K, D = _sine_grams(op, region, _quadrature_nodes(region, spec))
    K_old, D_old = oracle.sine_grams(op, region, spec)
    assert K.shape == K_old.shape == (op.N * _SINE_KMAX[op.n] ** op.n,) * 2
    _assert_gram(D, D_old)
    _assert_gram(K, K_old)


@pytest.mark.parametrize("kind", ["laplace", "lame", "custom"])
def test_ellipticity_matches_the_oracle(region, kind):
    op = _operator(kind, region.n)
    got = estimate_ellipticity(op, region)
    want = oracle.estimate_ellipticity(op, region)
    assert want > 0.5
    assert abs(got - want) <= REL * abs(want)


@pytest.mark.parametrize("kind", ["laplace", "lame", "custom"])
def test_bounds_match_the_oracle_exactly(region, kind):
    op = _operator(kind, region.n)
    assert estimate_bounds(op, region) == oracle.estimate_bounds(op, region)

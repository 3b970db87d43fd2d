"""The ellipticity and bounds search against the ellipticity oracle
(``ellipticity_oracle``: the profiles evaluated at every node, every trial
field built at the nodes and one multiply-then-dot per nonzero entry of A).

(a) The quadrature arrays equal the oracle's bitwise; the per-column arrays
broadcast over t give the oracle's nodal ones.
(b) Every entry of the Gram matrices equals the nodal quadrature sum of its
two dictionary fields, built the oracle's way, to 1e-13 of the matrix's
largest entry: the sine modes in 2-D and 3-D, and the four divergence-free
basis fields in 2-D.
(c) ``estimate_ellipticity`` agrees with the oracle to 1e-13 relative for
seeds 0, 1, 7 and 4, 16, 64 trials: the trials test the same fields, and
only the summation order of each Rayleigh quotient differs.  The custom
operators have constant and varying entries and none of the symmetries
A_ij^{ab} = A_ji^{ba} or A_ij^{ab} = A_ij^{ba}, with N = 2 components in
both dimensions, so a gradient row or a Gram block mixed up between
components and directions changes the result.
(d) ``estimate_bounds`` equals the oracle exactly.
"""

import itertools

import numpy as np
import pytest

import ellipticity_oracle as oracle
from narrowgap import (GapProfile, NarrowRegion, PolynomialField,
                       estimate_bounds, estimate_ellipticity, make_builtin,
                       parse_expression)
from narrowgap.geometry import vertical_jets
from narrowgap.operators import (_SINE_KMAX, EllipticOperator, _divfree_grams,
                                 _quadrature_nodes, _sine_grams, _sine_tables)

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
    mt = spec[1]
    for got, want in ((new.points, old.points), (new.weights, old.weights),
                      (np.repeat(new.delta, mt), old.delta),
                      ((new.dbottom[:, :, None] + new.t * new.ddelta[:, :, None])
                       .reshape(region.nd, -1), old.dT)):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    assert np.allclose(np.outer(new.col_weights, new.level_weights).ravel(),
                       old.weights, rtol=1e-15, atol=0)


class _Draws:
    """Stands in for the random generator of the oracle's candidates: every
    integer draw returns ``ints`` and every normal draw 1."""

    def __init__(self, ints):
        self.ints = np.asarray(ints)

    def integers(self, low, high, size):
        return self.ints

    def normal(self):
        return 1.0


def _assert_gram(got, want):
    assert np.abs(got - want).max() <= REL * np.abs(want).max()


def _nodal_gram(op, quad, left, right, i, j):
    """sum_m w_m A_ij^{ab}(x_m) left[:, a, m] right[:, b, m] over the nonzero
    entries of A_ij."""
    out = np.zeros((len(left), len(right)))
    for a, b in np.ndindex(op.n, op.n):
        coef = op.A[i, j, a, b]
        if not coef.is_zero():
            weighted = left[:, a] * (quad.weights * coef.value_many(quad.points))
            out += weighted @ right[:, b].T
    return out


@pytest.mark.parametrize("kind", ["laplace", "lame", "custom"])
def test_sine_grams_match_nodal_sums(region, kind):
    op = _operator(kind, region.n)
    n, N = op.n, op.N
    spec = (49, 25) if n == 2 else (25, 13)
    K, D = _sine_grams(op, region, _quadrature_nodes(region, spec))
    quad = oracle._quadrature_nodes(region, spec)
    tables = _sine_tables(region, quad)
    # one mode per dictionary index, the first axis slowest and t fastest
    modes = np.array([oracle._sine_candidate(_Draws(ks), tables, quad, 1, nmodes=1)[0]
                      for ks in itertools.product(range(1, _SINE_KMAX + 1), repeat=n)])
    m = len(modes)
    unit = np.einsum("kam,lam->kl", modes * quad.weights, modes)
    _assert_gram(D, np.kron(np.eye(N), unit))
    K = K.reshape(N, m, N, m)
    for i, j in np.ndindex(N, N):
        _assert_gram(K[i, :, j, :], _nodal_gram(op, quad, modes, modes, i, j))


@pytest.mark.parametrize("kind", ["lame", "custom"])
def test_divfree_grams_match_nodal_sums(kind):
    region = _region(2)
    op = _operator(kind, 2)
    K, D = _divfree_grams(op, region, _quadrature_nodes(region, (49, 25)))
    quad = oracle._quadrature_nodes(region, (49, 25))
    x1 = quad.axes[0][:, None]
    ujets = vertical_jets(region, x1[..., None], quad.t)
    basis = np.array([oracle._divfree_candidate(_Draws(e), region.r_solve, x1,
                                                quad.t, ujets)
                      for e in np.eye(4)])  # [q, i, a, node]
    _assert_gram(D, np.einsum("qiam,riam->qr", basis * quad.weights, basis))
    want = sum(_nodal_gram(op, quad, basis[:, i], basis[:, j], i, j)
               for i, j in np.ndindex(2, 2))
    _assert_gram(K, want)


@pytest.mark.parametrize("kind", ["laplace", "lame", "custom"])
def test_ellipticity_matches_the_oracle(region, kind):
    op = _operator(kind, region.n)
    for seed, trials in itertools.product((0, 1, 7), (4, 16, 64)):
        got = estimate_ellipticity(op, region, trials=trials, seed=seed)
        want = oracle.estimate_ellipticity(op, region, trials=trials, seed=seed)
        assert want > 0.5
        assert abs(got - want) <= REL * abs(want), (seed, trials)


@pytest.mark.parametrize("kind", ["laplace", "lame", "custom"])
def test_bounds_match_the_oracle_exactly(region, kind):
    op = _operator(kind, region.n)
    assert estimate_bounds(op, region) == oracle.estimate_bounds(op, region)

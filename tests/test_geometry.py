"""Gap geometry: profiles, regions, hypothesis validation."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from narrowgap import (
    GapProfile,
    GeometryError,
    NarrowRegion,
    PolynomialField,
    geometry,
    parse_expression,
    validate_profile,
)

from conftest import flat_profile, p1, quad_profile


def region(eps=0.1, profile=None):
    return NarrowRegion(n=2, epsilon=eps,
                        profile=profile or quad_profile())


def test_origin_normalization_is_enforced():
    with pytest.raises(GeometryError):
        GapProfile(h1=p1("x1"), h2=PolynomialField.zero(1))
    with pytest.raises(GeometryError):
        GapProfile(h1=p1("x1^2 + 1"), h2=PolynomialField.zero(1))


def test_gap_width_quadratic():
    reg = region(eps=0.1)
    pts = np.array([[0.0], [0.3], [-0.5]])
    np.testing.assert_allclose(reg.delta_poly.value_many(pts),
                               [0.1, 0.19, 0.35], atol=1e-15)


def test_region_polynomials_are_exact():
    # epsilon enters as a binary float, so the constant terms are the exact
    # Fraction image of that float, not of the decimal literal
    reg = region(eps=0.1)
    assert reg.delta_poly.coefficient((2,)) == 1
    assert reg.delta_poly.coefficient((0,)) == Fraction(0.1)
    assert reg.bottom_poly.coefficient((0,)) == -Fraction(0.1) / 2
    assert (reg.profile.h1 + Fraction(reg.epsilon) / 2).coefficient((2,)) == Fraction(1, 2)


def test_validate_quadratic_profile_passes():
    rep = validate_profile(region(eps=0.1))
    assert rep.passed
    assert rep.min_eigenvalue == 2.0
    # delta(x') = eps + |x'|^2 exactly, so both comparability constants are 1
    assert rep.c21_lower == pytest.approx(1.0, abs=1e-12)
    assert rep.c21_upper == pytest.approx(1.0, abs=1e-12)
    assert [c.name for c in rep.failures()] == []


@pytest.mark.parametrize("r_solve", [1.0, 0.8])
def test_comparability_constants_sample_the_solve_ball(r_solve):
    prof = GapProfile(h1=p1("0.5*x1^2 + 0.3*x1^4"), h2=p1("-x1^2 + 0.2*x1^3"))
    reg = NarrowRegion(n=2, epsilon=0.1, profile=prof, r_solve=r_solve,
                       r_analyze=0.4)
    rep = validate_profile(reg)
    x = np.linspace(-r_solve, r_solve, geometry.SAMPLES_PER_DIM)
    x = x[x**2 <= r_solve**2 + 1e-12]
    ratios = reg.delta_poly.value_many(x[:, None]) / (0.1 + x**2)
    assert (rep.c21_lower, rep.c21_upper) == (ratios.min(), ratios.max())


def test_validate_flat_profile_fails_convexity_only():
    rep = validate_profile(region(profile=flat_profile()))
    assert not rep.passed
    assert [c.name for c in rep.failures()] == ["convexity_kappa0"]

    over = validate_profile(region(profile=flat_profile()),
                            allow_degenerate=True)
    assert over.passed
    assert over.degenerate_override
    # the failed check stays on the record
    assert any(c.name == "convexity_kappa0" and not c.passed
               for c in over.checks)


def test_closing_gap_rejected_at_construction():
    prof = GapProfile(h1=p1("-x1^2"), h2=p1("x1^2"))
    with pytest.raises(GeometryError):
        NarrowRegion(n=2, epsilon=0.05, profile=prof)


def test_validate_kappa1_bound_checked():
    prof = GapProfile(h1=p1("0.5*x1^2"), h2=p1("-0.5*x1^2"),
                      kappa0=1.0, kappa1=0.5)  # claimed C2 bound too small
    rep = validate_profile(NarrowRegion(n=2, epsilon=0.1, profile=prof))
    assert not rep.passed
    assert "c2_bound_kappa1" in [c.name for c in rep.failures()]


def test_region_requires_positive_epsilon():
    for eps in (0.0, float("inf"), float("nan")):
        with pytest.raises(GeometryError):
            NarrowRegion(n=2, epsilon=eps, profile=quad_profile())


def test_two_tangential_dimensions():
    h1 = parse_expression("0.5*x1^2 + 0.5*x2^2", nvars=2)
    h2 = parse_expression("-0.5*x1^2 - 0.5*x2^2", nvars=2)
    prof = GapProfile(h1=h1, h2=h2, kappa0=1.0, kappa1=6.0)
    reg = NarrowRegion(n=3, epsilon=0.1, profile=prof)
    rep = validate_profile(reg)
    assert rep.passed
    assert rep.min_eigenvalue == pytest.approx(2.0, abs=1e-12)
    assert reg.delta_poly.value_many(np.array([[0.1, 0.2]]))[0] == pytest.approx(
        0.15, abs=1e-15)


# -- the tensor-grid evaluator of the geometry gate ---------------------------


@st.composite
def polynomials(draw):
    """PolynomialFields in 1 or 2 variables up to degree 4: any subset of
    the monomials, so mixed terms, constants and the zero polynomial."""
    nvars = draw(st.sampled_from([1, 2]))
    expos = [e for e in itertools.product(range(5), repeat=nvars) if sum(e) <= 4]
    coef = st.fractions(min_value=-8, max_value=8, max_denominator=64)
    terms = draw(st.dictionaries(st.sampled_from(expos), coef, max_size=8))
    return PolynomialField(nvars, terms)


@settings(max_examples=150, deadline=None)
@given(poly=polynomials(), r=st.sampled_from([1.0, 0.8, 0.35]),
       m=st.integers(min_value=2, max_value=41))
@example(poly=PolynomialField.zero(2), r=1.0, m=16)
@example(poly=PolynomialField.constant(2, Fraction(-3, 7)), r=1.0, m=16)
@example(poly=PolynomialField.constant(1, 5), r=0.8, m=17)
def test_sample_grid_values_agree_with_value_many(poly, r, m):
    grid = geometry._SampleGrid(poly.nvars, r, m)
    on_grid = grid.values(poly)
    assert on_grid.shape == (m,) * poly.nvars
    expected = poly.value_many(_box(poly.nvars, r, m))
    scale = np.abs(expected).max()
    assert np.abs(on_grid.ravel() - expected).max() <= 1e-14 * scale


def _box(nd, r, m):
    """The m^nd points of the regular grid of [-r, r]^nd in C order, shape
    (m^nd, nd)."""
    axes = np.meshgrid(*[np.linspace(-r, r, m)] * nd, indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=-1)


def _ball(nd, r, m):
    """The points of _box(nd, r, m) inside the r-ball, |x'|^2 <= r^2 + 1e-12."""
    box = _box(nd, r, m)
    return box[(box**2).sum(axis=-1) <= r**2 + 1e-12]


def test_sample_grid_masks_the_ball():
    for nd in (1, 2):
        grid = geometry._SampleGrid(nd, 0.8, 33)
        box = _box(nd, 0.8, 33)
        inside = (box**2).sum(axis=-1) <= 0.8**2 + 1e-12
        np.testing.assert_array_equal(grid.radius_sq.ravel(), (box**2).sum(axis=-1))
        np.testing.assert_array_equal(grid.inside.ravel(), inside)
        np.testing.assert_array_equal(grid.points, box[inside])


def _point_cloud_validation(region, samples_per_dim=160, tol=1e-9):
    """The numbers of validate_profile computed on the points of the sample
    grid inside each ball, with value_many, and the checks that fail."""
    prof = region.profile
    ball = _ball(prof.nd, 1.0, samples_per_dim)
    box = _ball(prof.nd, region.r_solve, samples_per_dim)
    c2_h1, c2_h2 = (float(sum(h.c2_samples(lambda p: p.value_many(ball))).max())
                    for h in (prof.h1, prof.h2))
    ratios = (region.delta_poly.value_many(box)
              / (region.epsilon + (box**2).sum(axis=-1)))
    numbers = {
        "min_eigenvalue": float(np.linalg.eigvalsh(
            [[float(prof.separation().deriv(i).deriv(j).value((0,) * prof.nd))
              for j in range(prof.nd)] for i in range(prof.nd)]).min()),
        "c2_norm_h1": c2_h1,
        "c2_norm_h2": c2_h2,
        "positive_gap": float(region.delta_poly.value_many(ball).min()),
        "c21_lower": float(ratios.min()),
        "c21_upper": float(ratios.max()),
    }
    failures = []
    if numbers["min_eigenvalue"] < prof.kappa0 - tol:
        failures.append("convexity_kappa0")
    if c2_h1 + c2_h2 > prof.kappa1 + tol:
        failures.append("c2_bound_kappa1")
    if not numbers["c21_lower"] > 0:
        failures.append("gap_comparability")
    return numbers, failures


GAP3D = ("0.5*x1^2 + 0.5*x2^2", "-0.5*x1^2 - 0.5*x2^2")
CURVED3D = ("0.6*x1^2 + 0.3*x1*x2 + 0.4*x2^2 + 0.2*x1^3 - 0.1*x2^4",
            "-0.5*x1^2 + 0.1*x1*x2^2 - 0.7*x2^2")


@pytest.mark.parametrize("gap, kappa1, r_solve", [
    (GAP3D, 100.0, 1.0),
    (CURVED3D, 100.0, 0.8),
    (CURVED3D, 9.0, 0.8),  # a C2 claim the sampled norms exceed
])
def test_validate_profile_matches_the_point_cloud(gap, kappa1, r_solve):
    h1, h2 = (parse_expression(text, nvars=2) for text in gap)
    reg = NarrowRegion(n=3, epsilon=0.05, r_solve=r_solve, r_analyze=0.4,
                       profile=GapProfile(h1=h1, h2=h2, kappa1=kappa1))
    rep = validate_profile(reg)
    numbers, failures = _point_cloud_validation(reg)
    measured = {name: getattr(rep, name) for name in numbers if name != "positive_gap"}
    (gap_check,) = [c for c in rep.checks if c.name == "positive_gap"]
    measured["positive_gap"] = gap_check.measured
    assert measured == pytest.approx(numbers, rel=1e-13, abs=0)
    assert [c.name for c in rep.failures()] == failures
    assert rep.passed == (not failures)


def test_validate_profile_evaluates_no_point_cloud(monkeypatch):
    sizes = []
    value_many = PolynomialField.value_many

    def spy(self, points):
        sizes.append(int(np.prod(np.shape(points)[:-1])))
        return value_many(self, points)

    monkeypatch.setattr(PolynomialField, "value_many", spy)
    h1, h2 = (parse_expression(text, nvars=2) for text in CURVED3D)
    reg = NarrowRegion(n=3, epsilon=0.05, r_solve=0.8, r_analyze=0.4,
                       profile=GapProfile(h1=h1, h2=h2))
    validate_profile(reg)
    assert max(sizes, default=0) <= 160

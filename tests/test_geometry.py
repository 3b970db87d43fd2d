"""Gap geometry: profiles, regions, hypothesis validation."""

from fractions import Fraction

import numpy as np
import pytest

from narrowgap import (
    GapProfile,
    GeometryError,
    NarrowRegion,
    PolynomialField,
    gap_width_many,
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
    np.testing.assert_allclose(gap_width_many(reg, pts),
                               [0.1, 0.19, 0.35], atol=1e-15)


def test_region_polynomials_are_exact():
    # epsilon enters as a binary float, so the constant terms are the exact
    # Fraction image of that float, not of the decimal literal
    reg = region(eps=0.1)
    assert reg.delta_poly.coefficient((2,)) == 1
    assert reg.delta_poly.coefficient((0,)) == Fraction(0.1)
    assert reg.bottom_poly.coefficient((0,)) == -Fraction(0.1) / 2
    assert reg.top_poly.coefficient((2,)) == Fraction(1, 2)


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
    rep = validate_profile(reg, samples_per_dim=64)
    x = np.linspace(-r_solve, r_solve, 64)
    x = x[x**2 <= r_solve**2 + 1e-12]
    ratios = gap_width_many(reg, x[:, None]) / (0.1 + x**2)
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
    with pytest.raises(GeometryError):
        NarrowRegion(n=2, epsilon=0.0, profile=quad_profile())


def test_two_tangential_dimensions():
    h1 = parse_expression("0.5*x1^2 + 0.5*x2^2", nvars=2)
    h2 = parse_expression("-0.5*x1^2 - 0.5*x2^2", nvars=2)
    prof = GapProfile(h1=h1, h2=h2, kappa0=1.0, kappa1=6.0)
    reg = NarrowRegion(n=3, epsilon=0.1, profile=prof)
    rep = validate_profile(reg, samples_per_dim=33)
    assert rep.passed
    assert rep.min_eigenvalue == pytest.approx(2.0, abs=1e-12)
    assert gap_width_many(reg, np.array([[0.1, 0.2]]))[0] == pytest.approx(
        0.15, abs=1e-15)

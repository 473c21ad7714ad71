"""The spherical Laplacian by the Euclidean identity against its definition.

``laplace_sphere`` computes laplace_euclid - euler^2 - (m - 2) euler with the
quotient rule on N / B^e; ``oracles.laplace_sphere_by_fields`` is the sum of
the X_ij applied twice.  The stored values must agree exactly: the same
numerator residue class (as a dict, since only term order may differ), the
same base and the same exponent.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphere_sos.harmonics import HarmonicityError, custom_harmonic, stereographic_harmonic
from sphere_sos.polynomials import Polynomial, SphereFunction, SpherePolynomial
from sphere_sos.realization import jet_functions
from sphere_sos.sphere_ops import generate_harmonic_basis, laplace_sphere

from oracles import check_spherical_eigenvalue, laplace_sphere_by_fields

coefficients = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def polynomials(draw, m):
    exps = st.lists(st.integers(0, 3), min_size=m, max_size=m).map(tuple)
    return Polynomial(m, draw(st.dictionaries(exps, coefficients, max_size=4)))


@st.composite
def sphere_functions(draw):
    """Exponents 0-3; zero and constant numerators and bases; half the bases
    are given a negative leading coefficient before normalisation."""
    m = draw(st.integers(2, 5))
    num = SpherePolynomial(draw(polynomials(m)))
    base = SpherePolynomial(draw(polynomials(m)))
    if base.is_zero():
        base = SpherePolynomial.one(m)
    if draw(st.booleans()) and base.leading_coefficient() > 0:
        base = -base
    return SphereFunction._make(num, base, draw(st.integers(0, 3)))


def stored(f):
    if isinstance(f, SpherePolynomial):
        return f.poly.numerators, f.poly.denominator
    return f.num.poly.numerators, f.num.poly.denominator, f.base, f.exp


def assert_matches_fields(f):
    assert stored(laplace_sphere(f)) == stored(laplace_sphere_by_fields(f))


def x(m, i):
    return SpherePolynomial.variable(m, i)


@given(sphere_functions())
@settings(max_examples=200, deadline=None)
@example(SphereFunction.zero(3))
@example(SphereFunction.constant(4, Fraction(-7, 3)))
@example(SphereFunction._make(SpherePolynomial.constant(2, 5), x(2, 1) - x(2, 2), 3))
@example(SphereFunction._make(x(3, 1), SpherePolynomial.one(3) - x(3, 3), 2))
@example(SphereFunction._make(x(5, 2) * x(5, 4), x(5, 5).scale(-2) - x(5, 1), 1))
def test_quotients_match_the_field_sum(f):
    assert_matches_fields(f)
    assert_matches_fields(f.num)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_two_jets_match_the_field_sum(m):
    for f in jet_functions(m):
        assert_matches_fields(f)
        assert_matches_fields(f.num)


def test_zero_result_collapses_to_exponent_zero():
    # A harmonic quotient: the numerator over B^(e+2) reduces to zero, stored as 0 / 1.
    h = stereographic_harmonic(2, "re").value
    assert h.exp > 0
    out = laplace_sphere(h)
    assert out.is_zero() and out.exp == 0 and out.base == SpherePolynomial.one(3)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_eigenvalues_on_the_harmonic_basis(m):
    for d in range(7):
        for p in generate_harmonic_basis(m, d):
            assert check_spherical_eigenvalue(p)


def test_non_harmonic_quotient_is_rejected():
    # x1 / (2 - x3) is not harmonic; the quotient route must say so.
    f = SphereFunction(x(3, 1), SpherePolynomial.constant(3, 2) - x(3, 3))
    assert not laplace_sphere(f).is_zero()
    with pytest.raises(HarmonicityError):
        custom_harmonic(f)


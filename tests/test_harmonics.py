import math
from fractions import Fraction

import pytest

from sphere_sos.harmonics import (
    CapDomain,
    HarmonicityError,
    complex_power_parts,
    custom_harmonic,
    euclidean_harmonic,
    planar_combination,
    stereographic_harmonic,
)
from sphere_sos.polynomials import (
    Polynomial,
    SphereFunction,
    SpherePolynomial,
    sample_cap_points,
)
from sphere_sos.sphere_ops import (
    RotationField,
    apply_rotation_field,
    generate_harmonic_basis,
    laplace_sphere,
)


def var(m, i):
    return Polynomial.variable(m, i)


class TestStereographicFamily:
    def test_k0_is_constant_one(self):
        h = stereographic_harmonic(0, "re")
        assert h.value == SphereFunction.constant(3, 1)

    def test_k1_real_part(self):
        h = stereographic_harmonic(1, "re")
        expected = SphereFunction(
            SpherePolynomial(var(3, 1)),
            SpherePolynomial(Polynomial.one(3) - var(3, 3)),
        )
        assert h.value == expected
        assert laplace_sphere(h.value).is_zero()

    def test_k2_real_part(self):
        h = stereographic_harmonic(2, "re")
        expected = SphereFunction(
            SpherePolynomial(var(3, 1) ** 2 - var(3, 2) ** 2),
            SpherePolynomial((Polynomial.one(3) - var(3, 3)) ** 2),
        )
        assert h.value == expected

    @pytest.mark.parametrize("k", range(7))
    @pytest.mark.parametrize("part", ["re", "im"])
    def test_harmonicity_through_degree_six(self, k, part):
        h = stereographic_harmonic(k, part)
        assert laplace_sphere(h.value).is_zero()

    @pytest.mark.parametrize("k", range(1, 7))
    def test_closure_under_axis_rotation(self, k):
        # X12 fixes the pole axis, so it maps the family into itself; the
        # image must be accepted by the certifying constructor.
        h = stereographic_harmonic(k, "re")
        rotated = apply_rotation_field(RotationField(1, 2), h.value)
        assert laplace_sphere(rotated).is_zero()
        accepted = custom_harmonic(rotated, tag=f"X12(stereo:k={k}:re)")
        assert accepted.provenance.startswith("custom:")

    def test_denominator_vanishes_only_at_pole(self):
        # base = 0 with the sphere relation forces x3 = 1 then x1 = x2 = 0.
        h = stereographic_harmonic(3, "im")
        base = h.value.base
        # substitute x3 = 1 into the base: the residue must be the zero function
        sub = {exps: c for exps, c in base.poly.terms.items() if exps[2] == 0}
        drop = {
            (exps[0], exps[1], 0): c
            for exps, c in base.poly.terms.items()
            if exps[2] == 1
        }
        collapsed = Polynomial(3, sub) + Polynomial(3, drop)
        assert collapsed.is_zero()
        # and on the sphere x3 = 1 forces x1^2 + x2^2 = 0, i.e. the north pole
        assert h.value.exp == 3

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            stereographic_harmonic(-1, "re")
        with pytest.raises(ValueError):
            stereographic_harmonic(2, "abs")

    def test_non_harmonic_value_rejected(self):
        bad = SphereFunction.from_polynomial(SpherePolynomial(var(3, 1) ** 2))
        with pytest.raises(HarmonicityError):
            custom_harmonic(bad)

    def test_a_pole_off_the_excluded_point_is_rejected(self):
        # x1 / (1 + x3) is harmonic, but its pole is the south pole, inside the cap.
        base = SpherePolynomial(Polynomial.one(3) + var(3, 3))
        south = SphereFunction(SpherePolynomial(var(3, 1)), base)
        assert laplace_sphere(south).is_zero()
        with pytest.raises(HarmonicityError, match="avoids the cap"):
            custom_harmonic(south)

    def test_provenance_tags(self):
        assert stereographic_harmonic(3, "im").provenance == "stereo:k=3:im"

    def test_function_and_domain_must_share_the_ambient_dimension(self):
        two = SphereFunction.constant(4, 2)
        with pytest.raises(ValueError, match="ambient dimension 4, domain has 3"):
            custom_harmonic(two)
        domain = CapDomain(4, (Fraction(0), Fraction(0), Fraction(0), Fraction(1)))
        assert custom_harmonic(two, domain=domain).m == 4


class TestComplexPowerParts:
    def test_small_powers(self):
        x1, x2 = var(3, 1), var(3, 2)
        re0, im0 = complex_power_parts(0)
        assert re0 == Polynomial.one(3) and im0.is_zero()
        re2, im2 = complex_power_parts(2)
        assert re2 == x1**2 - x2**2
        assert im2 == 2 * (x1 * x2)


class TestPlanarCombination:
    def test_sum_of_re_and_im(self):
        h = planar_combination([(1, "re", 1), (1, "im", 1)])
        expected = SphereFunction(
            SpherePolynomial(var(3, 1) + var(3, 2)),
            SpherePolynomial(Polynomial.one(3) - var(3, 3)),
        )
        assert h.value == expected

    def test_empty_combination_is_zero(self):
        h = planar_combination([])
        assert h.value.is_zero()

    def test_mixed_degrees_harmonic(self):
        h = planar_combination([(2, "re", 1), (0, "re", -1)])
        assert laplace_sphere(h.value).is_zero()
        assert h.value == stereographic_harmonic(2, "re").value - SphereFunction.constant(3, 1)

    def test_rational_coefficients(self):
        h = planar_combination([(3, "im", Fraction(2, 7)), (1, "re", Fraction(-1, 2))])
        assert laplace_sphere(h.value).is_zero()


class TestCapDomain:
    def test_radius_bounds(self):
        with pytest.raises(ValueError):
            CapDomain(radius=0.0)
        with pytest.raises(ValueError):
            CapDomain(radius=3.5)

    def test_pole_must_be_on_sphere(self):
        with pytest.raises(ValueError):
            CapDomain(pole=(Fraction(1), Fraction(1), Fraction(0)))

    def test_center_is_antipode(self):
        # The default cap excludes the north pole and is centred at its
        # antipode, the south pole; the certificate's sample points lie in it.
        dom = CapDomain()
        assert dom.pole == (0, 0, 1)
        center = tuple(-c for c in dom.pole)
        for point in sample_cap_points(20, seed=3):
            cosine = float(sum(p * c for p, c in zip(point, center)))
            assert math.acos(cosine) < dom.radius


class TestEuclideanHarmonics:
    def test_basis_coordinates(self):
        p = euclidean_harmonic(3, 1, [1, 0, 0])
        basis = generate_harmonic_basis(3, 1)
        assert p == basis[0]

    def test_degree_zero(self):
        assert euclidean_harmonic(3, 0, [Fraction(5, 2)]) == Polynomial.constant(
            3, Fraction(5, 2)
        )

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            euclidean_harmonic(3, 2, [1, 2])

    def test_m2_degree2(self):
        p = euclidean_harmonic(2, 2, [1, 1])
        from sphere_sos.polynomials import laplace_euclid

        assert laplace_euclid(p).is_zero()

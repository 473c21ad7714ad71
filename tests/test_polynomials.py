import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sphere_sos.polynomials import (
    Polynomial,
    SpherePolynomial,
    euler_operator,
    laplace_euclid,
)
from sphere_sos.quotients import (
    PLANE_SAMPLE_LIMIT,
    SphereFunction,
    _normalize,
    sample_cap_points,
    sample_plane_points,
)

from conftest import random_polynomial, random_sphere_function
from oracles import (
    cap_points_by_fractions,
    evaluate_fraction_loop,
    function_evaluate_float_loop,
    function_evaluate_fraction_loop,
    sphere_point_from_plane,
)


def var(m, i):
    return Polynomial.variable(m, i)


# ----------------------------------------------------------------------
# hypothesis strategies: small exact polynomials on 3 variables
# ----------------------------------------------------------------------

coeffs = st.integers(min_value=-8, max_value=8).map(Fraction)
exponents = st.tuples(
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)
)
polys = st.dictionaries(exponents, coeffs, max_size=4).map(
    lambda terms: Polynomial(3, terms)
)


class TestRawPolynomial:
    def test_reduction_substitutes_last_square(self):
        assert SpherePolynomial(var(3, 3) ** 2) == SpherePolynomial(
            Polynomial.one(3) - var(3, 1) ** 2 - var(3, 2) ** 2
        )

    def test_defining_relation_reduces_to_zero(self):
        rel = Polynomial.radius_squared(3) - Polynomial.one(3)
        assert SpherePolynomial(rel).is_zero()

    def test_cube_of_last_variable(self):
        x1, x2, x3 = (var(3, i) for i in (1, 2, 3))
        assert SpherePolynomial(x3**3) == SpherePolynomial(
            x3 - x1**2 * x3 - x2**2 * x3
        )

    def test_partial_derivative_examples(self):
        x1, x2, x3 = (var(3, i) for i in (1, 2, 3))
        assert (x1 * x2**2).partial(2) == 2 * (x1 * x2)
        assert Polynomial.constant(3, 7).partial(1).is_zero()
        assert (x1**2 * x3 + x3).partial(3) == x1**2 + Polynomial.one(3)

    def test_partial_index_out_of_range(self):
        with pytest.raises(IndexError):
            Polynomial.one(3).partial(4)

    def test_product_examples(self):
        x1, x3 = var(3, 1), var(3, 3)
        assert SpherePolynomial(x1) * SpherePolynomial(x1) == SpherePolynomial(x1**2)
        lhs = SpherePolynomial(Polynomial.one(3) - x3) * SpherePolynomial(
            Polynomial.one(3) + x3
        )
        assert lhs == SpherePolynomial(var(3, 1) ** 2 + var(3, 2) ** 2)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            Polynomial.one(3) + Polynomial.one(4)

    def test_euler_operator_examples(self):
        x1, x2, x3 = (var(3, i) for i in (1, 2, 3))
        assert euler_operator(x1 * x2) == 2 * (x1 * x2)
        assert euler_operator(Polynomial.constant(3, 5)).is_zero()
        assert euler_operator(x1 + x1 * x2 * x3) == x1 + 3 * (x1 * x2 * x3)

    def test_laplace_euclid_examples(self):
        x1, x2 = var(3, 1), var(3, 2)
        assert laplace_euclid(x1**2) == Polynomial.constant(3, 2)
        assert laplace_euclid(x1**2 - x2**2).is_zero()
        assert laplace_euclid(x1**2 * x2) == 2 * x2

    @given(polys, polys)
    @settings(max_examples=60, deadline=None)
    def test_reduction_is_ring_homomorphism(self, p, q):
        assert SpherePolynomial(p * q) == SpherePolynomial(p) * SpherePolynomial(q)
        assert SpherePolynomial(p + q) == SpherePolynomial(p) + SpherePolynomial(q)

    @given(polys)
    @settings(max_examples=40, deadline=None)
    def test_reduction_is_idempotent(self, p):
        once = SpherePolynomial(p)
        assert SpherePolynomial(once.poly) == once

    @given(polys)
    @settings(max_examples=40, deadline=None)
    def test_normal_form_bounds_last_exponent(self, p):
        assert all(exps[-1] <= 1 for exps in SpherePolynomial(p).poly.terms)

    @given(polys, polys, polys)
    @settings(max_examples=40, deadline=None)
    def test_ring_axioms(self, p, q, r):
        assert (p + q) * r == p * r + q * r
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p + (-p) == Polynomial.zero(3)

    def test_serialization_format(self):
        p = Polynomial(3, {(2, 1, 0): Fraction(3, 2), (0, 0, 0): Fraction(-1)})
        assert str(p) == "3/2 * x1^2 x2 + -1"


class TestEvaluation:
    def test_quotient_example(self):
        f = SphereFunction(
            SpherePolynomial(var(3, 1)),
            SpherePolynomial(Polynomial.one(3) - var(3, 3)),
        )
        assert f.evaluate((Fraction(3, 5), 0, Fraction(4, 5))) == 3

    def test_constant_function(self):
        one = SphereFunction.constant(3, 1)
        for pt in sample_cap_points(5, seed=1):
            assert one.evaluate(pt) == 1

    def test_sphere_relation_collapses(self):
        f = SphereFunction.from_polynomial(
            SpherePolynomial(Polynomial.radius_squared(3))
        )
        assert f.evaluate((0, 0, 1)) == 1

    def test_off_sphere_point_rejected(self):
        one = SphereFunction.constant(3, 1)
        with pytest.raises(ValueError):
            one.evaluate((1, 1, 1))

    def test_denominator_zero_rejected(self):
        f = SphereFunction(
            SpherePolynomial(var(3, 1)),
            SpherePolynomial(Polynomial.one(3) - var(3, 3)),
        )
        with pytest.raises(ZeroDivisionError):
            f.evaluate((0, 0, 1))

    def test_evaluation_is_multiplicative(self):
        rng = random.Random(7)
        pts = sample_cap_points(10, seed=3)
        for _ in range(10):
            f = random_sphere_function(rng)
            g = random_sphere_function(rng)
            for pt in pts[:3]:
                assert (f * g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt)
                assert (f + g).evaluate(pt) == f.evaluate(pt) + g.evaluate(pt)

    def test_stereographic_points_are_exact(self):
        for u, v in [(0, 0), (1, 2), (Fraction(1, 3), Fraction(-2, 7))]:
            x, y, z = sphere_point_from_plane(u, v)
            assert x * x + y * y + z * z == 1

    def test_sample_points_deterministic_and_distinct(self):
        a = sample_cap_points(50, seed=11)
        b = sample_cap_points(50, seed=11)
        assert a == b
        assert len(set(a)) == 50

    def test_plane_sample_limit_counts_the_drawable_points(self):
        # u and v are each some p/den with den in 2..40 and |p| <= den.
        coordinates = {Fraction(p, den) for den in range(2, 41) for p in range(-den, den + 1)}
        assert len(coordinates) ** 2 == PLANE_SAMPLE_LIMIT

    def test_more_samples_than_distinct_points_fail_before_any_draw(self, monkeypatch):
        import random as random_module

        def no_draws(seed):
            raise AssertionError("drew a point")

        monkeypatch.setattr(random_module, "Random", no_draws)
        with pytest.raises(ValueError, match="distinct plane points"):
            sample_plane_points(PLANE_SAMPLE_LIMIT + 1, seed=0)
        with pytest.raises(ValueError, match="distinct plane points"):
            sample_cap_points(10**9, seed=0)


# ----------------------------------------------------------------------
# the integer evaluation and the float evaluator against the plain loops
# ----------------------------------------------------------------------

exact_coords = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-2, max_value=2, max_denominator=60)
)
float_coords = st.floats(min_value=-2, max_value=2, allow_nan=False)


def same_float(a: float, b: float) -> bool:
    """Bit equality: unlike ==, it tells 0.0 from -0.0."""
    return a.hex() == b.hex()


class TestIntegerEvaluation:
    # Coefficient denominators 6 and 35, so the lcm L is not one of them.
    @given(polys.map(lambda p: p.scale(Fraction(1, 6)) + var(3, 2).scale(Fraction(-2, 35))),
           st.tuples(exact_coords, exact_coords, exact_coords))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_fraction_loop(self, p, pt):
        assert p.evaluate(pt) == evaluate_fraction_loop(p, pt)

    @given(polys)
    @settings(max_examples=40, deadline=None)
    def test_matches_the_fraction_loop_at_cap_points(self, p):
        for pt in sample_cap_points(10, seed=2):
            assert p.evaluate(pt) == evaluate_fraction_loop(p, pt)

    def test_certificate_left_hand_side_at_cap_points(self):
        from sphere_sos.certificates import delta_power
        from sphere_sos.harmonics import stereographic_harmonic

        h = stereographic_harmonic(3, "re").value
        lhs = delta_power(h * h, 2)
        for pt in sample_cap_points(20, seed=5):
            for q in (lhs.num.poly, lhs.base.poly):
                assert q.evaluate(pt) == evaluate_fraction_loop(q, pt)
            assert lhs.evaluate(pt) == evaluate_fraction_loop(
                lhs.num.poly, pt
            ) / evaluate_fraction_loop(lhs.base.poly, pt) ** lhs.exp

    def test_zero_polynomial_and_bad_points(self):
        value = Polynomial.zero(3).evaluate((1, Fraction(1, 2), 0))
        assert value == 0 and isinstance(value, Fraction)
        with pytest.raises(ValueError):
            Polynomial.zero(3).evaluate((1, 2))
        with pytest.raises(ValueError):
            var(3, 1).evaluate((1, 2, 3, 4))
        with pytest.raises(TypeError):
            var(3, 1).evaluate((0.5, 0, 0))


one = Polynomial.one(3)
# Denominator bases with no zero on the sample cap, which avoids the north pole.
cap_bases = st.sampled_from(
    [one, one - var(3, 3), one.scale(3) - var(3, 3) + var(3, 1), one.scale(2) + var(3, 1) * var(3, 2)]
)
# Numerators over denominators 6 and 35; the empty dict gives the zero function.
cap_functions = st.builds(
    lambda num, base, exp: SphereFunction._make(SpherePolynomial(num), SpherePolynomial(base), exp),
    polys.map(lambda p: p.scale(Fraction(5, 6)) + p.partial(1).scale(Fraction(-2, 35))),
    cap_bases,
    st.integers(0, 3),
)


class TestIntegerSampleStage:
    """The sample points and their exact values, built in integers, against
    the Fraction construction and the Fraction evaluation they replaced."""

    @pytest.mark.parametrize("seed", range(51))
    def test_points_match_the_fraction_construction(self, seed):
        points = sample_cap_points(40, seed)
        assert points == cap_points_by_fractions(40, seed)
        assert all(type(x) is Fraction for pt in points for x in pt)
        assert [[(x.numerator, x.denominator) for x in pt] for pt in points] == [
            [(x.numerator, x.denominator) for x in pt] for pt in cap_points_by_fractions(40, seed)
        ]

    @given(cap_functions)
    @settings(max_examples=150, deadline=None)
    def test_values_match_the_fraction_evaluation(self, f):
        for pt in sample_cap_points(10, seed=6):
            value = f.evaluate(pt)
            assert type(value) is Fraction
            assert value == function_evaluate_fraction_loop(f, pt)

    @pytest.mark.parametrize(
        "f",
        [
            SphereFunction.zero(3),
            SphereFunction.constant(3, Fraction(-2, 7)),
            SphereFunction.from_polynomial(SpherePolynomial(var(3, 2) * var(3, 2))),
            SphereFunction(SpherePolynomial(Polynomial.zero(3)), SpherePolynomial(one - var(3, 3))),
        ],
        ids=["zero", "constant", "exp-0", "zero-over-base"],
    )
    def test_zero_constant_and_polynomial_functions(self, f):
        for pt in sample_cap_points(20, seed=8):
            assert f.evaluate(pt) == function_evaluate_fraction_loop(f, pt)
            g = SphereFunction.from_polynomial(f.num)
            assert g.evaluate(pt) == function_evaluate_fraction_loop(g, pt)

    @pytest.mark.parametrize(
        "point", [(1, Fraction(1, 2), 0), (Fraction(3, 5), Fraction(4, 5), Fraction(1, 7)), (0, 0)]
    )
    def test_off_sphere_message_is_unchanged(self, point):
        f = SphereFunction(SpherePolynomial(var(3, 1)), SpherePolynomial(one - var(3, 3)))
        with pytest.raises(ValueError) as expected:
            function_evaluate_fraction_loop(f, point)
        with pytest.raises(ValueError) as got:
            f.evaluate(point)
        assert str(got.value) == str(expected.value)
        assert str(got.value).endswith("is not on the unit sphere")
        with pytest.raises(ValueError, match="is not on the unit sphere"):
            SphereFunction.from_polynomial(f.num).evaluate(point)

    def test_wrong_length_message_is_unchanged(self):
        f = SphereFunction.constant(4, 1)
        with pytest.raises(ValueError, match=r"^point has length 3, expected 4$"):
            f.evaluate((0, 0, 1))
        with pytest.raises(ValueError, match=r"^point has length 3, expected 4$"):
            SphereFunction.from_polynomial(f.num).evaluate((0, 0, 1))

    @pytest.mark.parametrize("exp", [1, 3])
    def test_north_pole_message_is_unchanged(self, exp):
        f = SphereFunction._make(SpherePolynomial(var(3, 1)), SpherePolynomial(one - var(3, 3)), exp)
        for pole in [(0, 0, 1), (Fraction(0), Fraction(0, 5), Fraction(3, 3))]:
            with pytest.raises(ZeroDivisionError) as expected:
                function_evaluate_fraction_loop(f, pole)
            with pytest.raises(ZeroDivisionError) as got:
                f.evaluate(pole)
            assert str(got.value) == str(expected.value) == "denominator vanishes at ('0', '0', '1')"

    @pytest.mark.parametrize("count", [0, -3])
    def test_counts_below_one_are_rejected(self, count):
        with pytest.raises(ValueError, match="distinct plane points, asked for"):
            sample_plane_points(count, seed=0)
        with pytest.raises(ValueError, match="distinct plane points, asked for"):
            sample_cap_points(count, seed=0)


# Cap points whose coordinates, in lowest terms, do not share one denominator.
UNEQUAL_DENOMINATORS = [
    pt for pt in sample_cap_points(300, seed=9) if len({x.denominator for x in pt}) > 1
][:25] + [(Fraction(3, 5), Fraction(0), Fraction(-4, 5)), (Fraction(-1), 0, 0)]


class TestHornerEvaluation:
    """Exact values by Horner's rule over the point's common denominator,
    against the Fraction loops they replaced."""

    def test_random_sphere_functions_at_points_with_unequal_denominators(self):
        rng = random.Random(2718)
        assert len(UNEQUAL_DENOMINATORS) == 27
        for _ in range(60):
            f = random_sphere_function(rng)
            f = f * f * f  # degrees up to 9: long runs with uneven steps
            for pt in UNEQUAL_DENOMINATORS:
                assert f.evaluate(pt) == function_evaluate_fraction_loop(f, pt)

    def test_exp_zero_functions(self):
        rng = random.Random(3141)
        for _ in range(40):
            f = SphereFunction.from_polynomial(SpherePolynomial(random_polynomial(rng, 3, 6, 12)))
            assert f.exp == 0
            for pt in UNEQUAL_DENOMINATORS:
                assert f.evaluate(pt) == function_evaluate_fraction_loop(f, pt)
                g = SphereFunction.from_polynomial(f.num)
                assert g.evaluate(pt) == evaluate_fraction_loop(f.num.poly, pt)

    @pytest.mark.parametrize("m, grid", [(1, 7), (2, 5), (3, 4), (4, 3), (5, 2)])
    def test_polynomials_on_the_euclidean_grid(self, m, grid):
        # The sample points of euclid_certificate: every coordinate in
        # {2i/(grid - 1) - 1}, so a point mixes denominators 1 and grid - 1.
        rng = random.Random(m)
        steps = [Fraction(2 * i, grid - 1) - 1 for i in range(grid)]
        for _ in range(15):
            p = random_polynomial(rng, m, 8, 10).scale(Fraction(5, 6))
            p = p + Polynomial.constant(m, Fraction(-1, 35))
            for pt in product(steps, repeat=m):
                assert p.evaluate(pt) == evaluate_fraction_loop(p, pt)

    @given(st.integers(1, 5).flatmap(lambda m: st.tuples(
        st.dictionaries(st.tuples(*[st.integers(0, 7)] * m), coeffs, max_size=12),
        st.tuples(*[exact_coords] * m))))
    @settings(max_examples=200, deadline=None)
    def test_sparse_polynomials_in_any_dimension(self, case):
        terms, pt = case
        p = Polynomial(len(pt), terms)
        assert p.evaluate(pt) == evaluate_fraction_loop(p, pt)

    @pytest.mark.parametrize("exp", [1, 2])
    def test_a_vanishing_denominator_keeps_its_message(self, exp):
        # A base that vanishes away from the north pole, at a point whose
        # coordinates have denominators 1 and 5.
        f = SphereFunction._make(SpherePolynomial(var(3, 2)), SpherePolynomial(var(3, 1)), exp)
        point = (0, Fraction(3, 5), Fraction(-8, 10))
        with pytest.raises(ZeroDivisionError) as expected:
            function_evaluate_fraction_loop(f, point)
        with pytest.raises(ZeroDivisionError) as got:
            f.evaluate(point)
        assert str(got.value) == str(expected.value)
        assert str(got.value) == "denominator vanishes at ('0', '3/5', '-4/5')"


def circle_kernel_at(h: SphereFunction, point) -> float:
    """The growth circle kernel of h on a one-node table at 0.0 + 1.0 * point:
    h's value there, squared.  A -0.0 coordinate reads as 0.0 + 1.0 * -0.0 =
    0.0, which only the sign of a zero term tells apart, and no square does."""
    from sphere_sos.growth import _circle_kernel

    return _circle_kernel(h)(0.0, 0.0, 0.0, 1.0, (point,))


class TestFloatEvaluator:
    # Sevenths are not dyadic, so every coefficient rounds on its way to float.
    @given(polys.map(lambda p: p.scale(Fraction(1, 7))),
           st.tuples(float_coords, float_coords, float_coords))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_float_loop(self, p, pt):
        h = SphereFunction.from_polynomial(SpherePolynomial(p))
        value = function_evaluate_float_loop(h, pt)
        assert same_float(circle_kernel_at(h, pt), value * value)

    @pytest.mark.parametrize(
        "family",
        [f"stereo:k={k}:{part}" for k in range(7) for part in ("re", "im")]
        + ["control:equator-band"],
    )
    def test_matches_the_float_loop_on_growth_integrands(self, family):
        from sphere_sos.cli import NON_SUBHARMONIC_CONTROL, resolve_family

        h = resolve_family(family, NON_SUBHARMONIC_CONTROL).value
        for pt in sample_cap_points(40, seed=4):
            pt = tuple(float(x) for x in pt)
            value = function_evaluate_float_loop(h, pt)
            assert same_float(circle_kernel_at(h, pt), value * value)

    def test_zero_denominator_raises(self):
        f = SphereFunction(
            SpherePolynomial(var(3, 1)),
            SpherePolynomial(Polynomial.one(3) - var(3, 3)),
        )
        with pytest.raises(ZeroDivisionError):
            circle_kernel_at(f, (0.0, 0.0, 1.0))

    def test_powers_are_left_to_right_products(self):
        x = 1.1
        h = SphereFunction.from_polynomial(SpherePolynomial(var(3, 1).scale(3) ** 4))
        value = 81 * (x * x * x * x)
        assert circle_kernel_at(h, (x, 0.0, 0.0)) == value * value

    def test_powers_overflow_to_inf(self):
        # libm's pow raises where the product overflows; no circle inside a
        # growth disk comes near either.
        with pytest.raises(OverflowError):
            1e200**2
        h = SphereFunction.from_polynomial(SpherePolynomial(var(3, 1) ** 2))
        assert circle_kernel_at(h, (1e200, 0.0, 0.0)) == math.inf


class TestSphereDimension:
    @pytest.mark.parametrize("build", [
        lambda: SpherePolynomial.zero(1),
        lambda: SpherePolynomial.one(1),
        lambda: SpherePolynomial.constant(1, 3),
        lambda: SpherePolynomial.variable(1, 1),
        lambda: SpherePolynomial(Polynomial.variable(1, 1)),
        lambda: SphereFunction.zero(1),
        lambda: SphereFunction.constant(1, 2),
    ])
    def test_one_variable_has_no_sphere_ring(self, build):
        # Every constructor raises what the normal form raises for m < 2.
        with pytest.raises(ValueError, match="at least two variables"):
            build()


class TestQuotientField:
    def test_addition_with_shared_denominator(self):
        x1 = SpherePolynomial(var(3, 1))
        den = SpherePolynomial(Polynomial.one(3) - var(3, 3))
        f = SphereFunction(x1, den)
        assert f + f == f.scale(2)

    def test_cross_multiplication_equality(self):
        rng = random.Random(21)
        for _ in range(15):
            f = random_sphere_function(rng)
            q = SpherePolynomial(random_polynomial(rng, 3, max_degree=2))
            if q.is_zero():
                continue
            scaled = SphereFunction(f.num * q, f.denominator * q)
            assert scaled == f
            assert f == scaled

    def test_equality_is_transitive_on_equal_family(self):
        rng = random.Random(22)
        f = random_sphere_function(rng)
        variants = []
        for _ in range(3):
            q = SpherePolynomial(random_polynomial(rng, 3, max_degree=2))
            if q.is_zero():
                q = SpherePolynomial.one(3)
            variants.append(SphereFunction(f.num * q, f.denominator * q))
        assert variants[0] == variants[1]
        assert variants[1] == variants[2]
        assert variants[0] == variants[2]

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            SphereFunction(SpherePolynomial.one(3), SpherePolynomial.zero(3))

    def test_denominator_in_quotient_ring_not_raw(self):
        # x1^2 + x2^2 + x3^2 - 1 is nonzero raw but zero in the quotient.
        rel = Polynomial.radius_squared(3) - Polynomial.one(3)
        with pytest.raises(ZeroDivisionError):
            SphereFunction(SpherePolynomial.one(3), SpherePolynomial(rel))

    def test_numerator_denominator_views(self):
        x1 = SpherePolynomial(var(3, 1))
        den = SpherePolynomial(Polynomial.one(3) - var(3, 3))
        f = SphereFunction(x1, den)
        g = f * f
        assert g.denominator == den * den
        assert g * g == SphereFunction(x1**4, (den * den) * (den * den))

    def test_field_axioms_random(self):
        rng = random.Random(5)
        for _ in range(10):
            f, g, h = (random_sphere_function(rng) for _ in range(3))
            assert (f + g) * h == f * h + g * h
            assert f * g == g * f
            assert f - f == SphereFunction.zero(3)

    @settings(max_examples=150, deadline=None)
    @given(polys, polys, polys, st.integers(0, 3), st.integers(1, 3), st.sampled_from([-1, 2, 0]))
    def test_canonical_base_path_matches_normalize(self, a, b, raw_base, e, k, c):
        # A base taken from a SphereFunction is already canonical: _make's
        # trusted path must store exactly what _normalize would.
        base = SpherePolynomial(raw_base)
        assume(not base.is_zero())
        f = SphereFunction._make(SpherePolynomial(b), base, e)
        g = SphereFunction._make(SpherePolynomial(a), base, e + k)
        num = SpherePolynomial(a)
        for exp in (f.exp, f.exp + k) if f.exp else (0,):
            made = SphereFunction._make(num, f.base, exp, True)
            assert (made.num, made.base, made.exp) == _normalize(num, f.base, exp)
        for r in (-f, f.scale(c), f + g, g + f, f * g, f * f, f + f.scale(c)):
            assert (r.num, r.base, r.exp) == _normalize(r.num, r.base, r.exp)

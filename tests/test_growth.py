import math
from fractions import Fraction

import pytest

from sphere_sos import growth
from sphere_sos.growth import (
    analyze_growth,
    check_mean_monotonicity,
    check_second_derivative_at_zero,
    spherical_mean,
)
from sphere_sos.harmonics import planar_combination, stereographic_harmonic
from sphere_sos.cli import resolve_family
from sphere_sos.polynomials import Polynomial, SphereFunction, SpherePolynomial

from oracles import (
    evaluate_fraction_loop,
    laplace_sphere_by_fields,
    spherical_mean_loop,
    substitute_linear,
)

SOUTH = (0.0, 0.0, -1.0)


def squared(h):
    return h.value * h.value


def squared_control():
    value, _ = resolve_family("control:equator-band")
    return value * value


class TestSphericalMean:
    def test_constant_function(self):
        one = SphereFunction.constant(3, 1)
        for r in (0.1, 0.7, 1.2):
            assert spherical_mean(one, SOUTH, r, 64) == pytest.approx(1.0, abs=1e-14)

    def test_limit_at_zero_radius(self):
        sq = squared(stereographic_harmonic(1, "re"))
        small = spherical_mean(sq, SOUTH, 1e-5, 64)
        assert abs(small - sq.evaluate_float(SOUTH)) < 1e-9

    def test_closed_form_oracle(self):
        # For h = x1/(1 - x3) the circle mean about the south pole is
        # tan(r/2)^2 / 2 (the pullback is the plane coordinate u).
        sq = squared(stereographic_harmonic(1, "re"))
        for r in (0.2, 0.4, 0.8):
            assert spherical_mean(sq, SOUTH, r, 256) == pytest.approx(
                math.tan(r / 2) ** 2 / 2, rel=1e-12
            )

    def test_quadrature_self_consistency(self):
        for k, part in ((1, "re"), (2, "im"), (3, "re")):
            sq = squared(stereographic_harmonic(k, part))
            for r in (0.3, 0.9):
                m256 = spherical_mean(sq, SOUTH, r, 256)
                m512 = spherical_mean(sq, SOUTH, r, 512)
                assert abs(m256 - m512) < 1e-12

    def test_low_order_rejected(self):
        one = SphereFunction.constant(3, 1)
        with pytest.raises(ValueError):
            spherical_mean(one, SOUTH, 0.5, 4)

    def test_rotation_invariance(self):
        # Rotate by the exact rational orthogonal matrix built from (3,4,5)
        # in the x1 x3 plane; means about the rotated center must agree.
        h = stereographic_harmonic(2, "re")
        sq = squared(h)
        c, s = Fraction(3, 5), Fraction(4, 5)
        rot = [[c, 0, -s], [0, 1, 0], [s, 0, c]]
        inv = [[c, 0, s], [0, 1, 0], [-s, 0, c]]
        rotated = substitute_linear(sq, inv)
        new_center = (
            float(-rot[0][2]),
            float(-rot[1][2]),
            float(-rot[2][2]),
        )  # image of the south pole
        for r in (0.2, 0.6, 1.0):
            a = spherical_mean(sq, SOUTH, r, 128)
            b = spherical_mean(rotated, new_center, r, 128)
            assert abs(a - b) < 1e-12


class TestSphericalMeanMatchesTheNodeLoop:
    @pytest.mark.parametrize("order", [8, 64, 1024])
    def test_bit_identical(self, order):
        integrands = [
            squared(stereographic_harmonic(3, "re")),
            squared(stereographic_harmonic(5, "im")),
            squared_control(),
        ]
        tilted = (0.1, 0.05, -math.sqrt(1 - 0.0125))
        for f in integrands:
            for center in (SOUTH, tilted, (1.0, 0.0, 0.0)):
                for r in (0.0, 0.37, 1.2):
                    got = spherical_mean(f, center, r, order)
                    assert got.hex() == spherical_mean_loop(f, center, r, order).hex()

    def test_circle_through_the_pole_raises(self):
        # The radius pi/2 circle about (1, 0, 0) meets the north pole at the
        # node phi = pi/2, where 1 - x3 is exactly 0.0 in floats.
        f = squared(stereographic_harmonic(2, "re"))
        with pytest.raises(ZeroDivisionError):
            spherical_mean_loop(f, (1.0, 0.0, 0.0), math.pi / 2, 8)
        with pytest.raises(ZeroDivisionError):
            spherical_mean(f, (1.0, 0.0, 0.0), math.pi / 2, 8)


TILTED = (0.1, 0.05, -math.sqrt(1 - 0.0125))
GROWTH_FAMILIES = [f"stereo:k={k}:{part}" for k in range(7) for part in ("re", "im")] + [
    "control:equator-band"
]


@pytest.mark.parametrize("order", [8, 64, 1024])
@pytest.mark.parametrize("family", GROWTH_FAMILIES)
def test_whole_report_matches_the_node_loop(family, order, monkeypatch):
    # Every circle mean of a report, and M''(0) fitted from three more, equal
    # the bits of the same report with each mean taken by the node loop.
    value, _ = resolve_family(family)
    f = value * value
    for center in (SOUTH, TILTED, (1.0, 0.0, 0.0)):
        got = analyze_growth(f, family, center, 1.2, 4, order)
        with monkeypatch.context() as patch:
            patch.setattr(growth, "spherical_mean", spherical_mean_loop)
            expected = analyze_growth(f, family, center, 1.2, 4, order)
        assert [m.hex() for m in got.means] == [m.hex() for m in expected.means]
        assert got.second_derivative_fd.hex() == expected.second_derivative_fd.hex()
        assert got == expected


class TestCircleCaches:
    def test_interleaved_integrands_and_tables(self):
        value, _ = resolve_family("stereo:k=3:re")
        first, second = value * value, squared_control()
        fresh_value, _ = resolve_family("stereo:k=3:re")
        fresh = fresh_value * fresh_value
        assert fresh is not first and fresh == first
        tables = [(SOUTH, 64), (TILTED, 1024)]
        calls = [(first, 0), (second, 0), (first, 1), (second, 1), (fresh, 0), (first, 1),
                 (second, 0), (fresh, 1)]
        for f, which in calls:
            center, order = tables[which]
            got = spherical_mean(f, center, 0.5, order)
            assert got.hex() == spherical_mean_loop(f, center, 0.5, order).hex()

    def test_one_table_is_kept(self):
        one = SphereFunction.constant(3, 1)
        spherical_mean(one, SOUTH, 0.5, 64)
        spherical_mean(one, TILTED, 0.5, 128)
        info = growth._tangent_table.cache_info()
        assert info.maxsize == info.currsize == 1

    def test_signed_zero_centers_match_the_loop(self):
        f = squared(stereographic_harmonic(3, "re"))
        for center in ((0.0, 0.0, -1.0), (-0.0, -0.0, -1.0), (0.0, 0.0, -1.0)):
            for r in (0.0, 0.5):
                got = spherical_mean(f, center, r, 16)
                assert got.hex() == spherical_mean_loop(f, center, r, 16).hex()

    @pytest.mark.parametrize(
        "c", [Fraction(3, 10**310), Fraction(10**300, 7), Fraction(-1, 3)],
        ids=["tiny", "huge", "negative"],
    )
    def test_coefficient_literals_are_exact(self, c):
        # A constant's one-node kernel returns its float literal unchanged;
        # 3e-310 is subnormal and 10**300 / 7 is not a short decimal.
        assert growth._circle_kernel(SphereFunction.constant(3, c))(
            0.0, 0.0, 0.0, 1.0, ((0.0, 0.0, -1.0),)
        ) == float(c)
        x1, x2, x3 = (SpherePolynomial.variable(3, i) for i in (1, 2, 3))
        f = SphereFunction.from_polynomial(x1 * x1.scale(c) + x2.scale(c) + x3.scale(Fraction(1, 7)))
        for center in (SOUTH, TILTED):
            got = spherical_mean(f, center, 0.7, 64)
            assert got.hex() == spherical_mean_loop(f, center, 0.7, 64).hex()

    @pytest.mark.parametrize(
        "center",
        [(0.0, -1.0), (0.0, 0.0, 0.0, -1.0), (math.nan, 0.0, -1.0), (0.0, math.inf, -1.0),
         (10**400, 0, 0), "south", "0,0,-1", None, (Fraction(1, 2), 0.0, -1.0)],
    )
    def test_center_must_be_three_finite_floats(self, center):
        one = SphereFunction.constant(3, 1)
        with pytest.raises(ValueError, match="center must be 3 finite floats"):
            spherical_mean(one, center, 0.5, 8)

    def test_off_sphere_centers_are_rejected(self):
        one = SphereFunction.constant(3, 1)
        with pytest.raises(ValueError, match="center must lie on the unit sphere"):
            spherical_mean(one, (0.0, 0.0, -2.0), 0.5, 8)
        f = squared(stereographic_harmonic(1, "re"))
        with pytest.raises(ValueError, match="center must lie on the unit sphere"):
            analyze_growth(f, "x", (0.0, 0.0, -3.0), 1.2, 3, 8)

    def test_the_unit_sphere_check_uses_the_cli_tolerance(self):
        one = SphereFunction.constant(3, 1)
        assert spherical_mean(one, (0.0, 0.0, -(1.0 + 4e-13)), 0.5, 8) == 1.0
        with pytest.raises(ValueError, match="center must lie on the unit sphere"):
            spherical_mean(one, (0.0, 0.0, -(1.0 + 1e-11)), 0.5, 8)

    def test_integer_center_is_read_as_floats(self):
        f = squared(stereographic_harmonic(2, "im"))
        got = spherical_mean(f, [1, 0, 0], 0.5, 32)
        assert got.hex() == spherical_mean(f, (1.0, 0.0, 0.0), 0.5, 32).hex()


class TestMonotonicity:
    def test_constant_passes(self):
        means = [1.0] * 10
        ok, idx = check_mean_monotonicity(means)
        assert ok and idx is None

    @pytest.mark.parametrize(
        "k,part", [(0, "re"), (1, "re"), (1, "im"), (2, "re"), (3, "im")]
    )
    def test_family_members_monotone(self, k, part):
        sq = squared(stereographic_harmonic(k, part))
        radii = [1.2 * (i + 1) / 40 for i in range(40)]
        means = [spherical_mean(sq, SOUTH, r, 128) for r in radii]
        ok, _ = check_mean_monotonicity(means)
        assert ok

    def test_non_subharmonic_control_flagged(self):
        # f = 1 - x3^2 peaks on the equator; about an equatorial center the
        # mean of f^2 strictly decreases, so the checker must flag it.
        x3 = SpherePolynomial.variable(3, 3)
        f = SphereFunction.from_polynomial(SpherePolynomial.one(3) - x3 * x3)
        sq = f * f
        radii = [1.2 * (i + 1) / 40 for i in range(40)]
        means = [spherical_mean(sq, (1.0, 0.0, 0.0), r, 128) for r in radii]
        ok, idx = check_mean_monotonicity(means)
        assert not ok
        assert idx is not None


class TestSecondDerivative:
    def test_constant_both_sides_zero(self):
        one = SphereFunction.constant(3, 1)
        ok, fd, exact = check_second_derivative_at_zero(one, SOUTH)
        assert ok
        assert exact == 0.0
        assert abs(fd) < 1e-9

    def test_flat_profile_families(self):
        # k >= 2 members vanish to high order at the pole: exact side is 0
        # and the finite difference must stay inside the absolute fallback.
        for k in (2, 3, 4):
            sq = squared(stereographic_harmonic(k, "im"))
            ok, fd, exact = check_second_derivative_at_zero(sq, SOUTH)
            assert exact == 0.0
            assert ok, (k, fd)

    def test_degree_one_pullback(self):
        sq = squared(stereographic_harmonic(1, "re"))
        ok, fd, exact = check_second_derivative_at_zero(sq, SOUTH)
        assert ok
        assert exact == pytest.approx(0.25, abs=1e-15)
        assert fd == pytest.approx(0.25, rel=1e-6)

    def test_combined_family_member(self):
        h = planar_combination([(1, "re", 1), (1, "im", 1)])
        sq = squared(h)
        ok, fd, exact = check_second_derivative_at_zero(sq, SOUTH)
        assert ok
        # |grad h|^2 doubles relative to the single-part case
        assert exact == pytest.approx(0.5, abs=1e-15)

    def test_offcenter_reference_value(self):
        # The exact side is evaluated wherever the center sits.
        sq = squared(stereographic_harmonic(2, "re"))
        center = (math.sin(0.4), 0.0, -math.cos(0.4))
        ok, fd, exact = check_second_derivative_at_zero(sq, center)
        assert ok


# The growth ops of the benchmark's growth-basis workload at seeds 0-3 (the
# equator-band control runs at every seed).
BENCH_GROWTH_OPS = [
    ("control:equator-band", "1,0,0"),
    ("stereo:k=1:im", "0.021989682366557115,-0.15813160920758831,-0.9871731601086187"),
    ("stereo:k=3:im", "0.02415986810696243,-0.03093656135366633,-0.9992293179969577"),
    ("stereo:k=5:re", "-0.06968627708992171,0.16954326777228512,-0.9830559003121043"),
    ("stereo:k=1:re", "0.001263319645899863,0.010953195479080458,-0.9999392139186608"),
    ("stereo:k=3:im", "-0.005041143793606621,0.010814813358244354,-0.9999288108066887"),
    ("stereo:k=5:im", "0.03191251598312016,0.01895948912769841,-0.9993108270681569"),
    ("stereo:k=1:re", "0.0435812211275788,-0.00929925572142057,-0.9990066070892909"),
    ("stereo:k=3:im", "-0.09122533477071465,-0.02359009079593445,-0.9955508253786999"),
    ("stereo:k=5:re", "-0.1469154580745355,-0.024472810290407324,-0.9888462619311655"),
    ("stereo:k=1:im", "-0.030163568955880526,-0.0592727714580698,-0.9977859979331857"),
    ("stereo:k=3:im", "0.06228423132997927,-0.07537566448745157,-0.99520811076413"),
    ("stereo:k=5:im", "-0.017877506846180613,-0.01143447368616842,-0.9997747984223673"),
]


@pytest.mark.parametrize("family, center", BENCH_GROWTH_OPS)
def test_second_derivative_exact_is_within_rounding(family, center):
    # The float reference is half the Laplacian of h^2, summed in term order at
    # the float center; the exact rational value of the field sum at that same
    # point is the oracle, so only rounding separates them.
    value, _ = resolve_family(family)
    f = value * value
    point = tuple(float(c) for c in center.split(","))
    *_, exact = check_second_derivative_at_zero(f, point, order=8)
    lap = laplace_sphere_by_fields(f)
    at = [Fraction(c) for c in point]
    reference = Fraction(1, 2) * evaluate_fraction_loop(lap.num.poly, at) / (
        evaluate_fraction_loop(lap.base.poly, at) ** lap.exp
    )
    assert abs(Fraction(exact) - reference) <= Fraction(2e-15) * abs(reference)


class TestAnalyzeGrowth:
    def test_full_report_for_family_member(self):
        sq = squared(stereographic_harmonic(2, "im"))
        report = analyze_growth(sq, "stereo:k=2:im", SOUTH, 1.2, 40, 256)
        assert report.monotone
        assert report.second_derivative_ok
        assert report.passed
        assert len(report.radii) == len(report.means) == 40
        assert report.radii[-1] == pytest.approx(1.2)

    def test_grid_validation(self):
        sq = squared(stereographic_harmonic(1, "re"))
        with pytest.raises(ValueError):
            analyze_growth(sq, "x", SOUTH, 1.2, 1, 64)
        with pytest.raises(ValueError):
            analyze_growth(sq, "x", SOUTH, 0.0, 10, 64)

    def test_control_report_fails(self):
        x3 = SpherePolynomial.variable(3, 3)
        f = SphereFunction.from_polynomial(SpherePolynomial.one(3) - x3 * x3)
        report = analyze_growth(f * f, "control", (1.0, 0.0, 0.0), 1.2, 40, 128)
        assert not report.monotone
        assert not report.passed

import math
import tracemalloc
from fractions import Fraction

import pytest

from sphere_sos import growth
from sphere_sos.growth import (
    analyze_growth,
    check_mean_monotonicity,
    check_second_derivative_at_zero,
    spherical_mean,
)
from sphere_sos.harmonics import (
    CapDomain,
    HarmonicFunction,
    planar_combination,
    stereographic_harmonic,
)
from sphere_sos.cli import NON_SUBHARMONIC_CONTROL, resolve_family
from sphere_sos.polynomials import Polynomial, SphereFunction, SpherePolynomial, sample_cap_points
from sphere_sos.sphere_ops import laplace_sphere

from oracles import (
    evaluate_fraction_loop,
    expanded_square_mean_loop,
    function_evaluate_float_loop,
    laplace_sphere_by_fields,
    spherical_mean_loop,
    substitute_linear,
)

SOUTH = (0.0, 0.0, -1.0)


def family_value(family):
    return resolve_family(family, NON_SUBHARMONIC_CONTROL).value


def harmonic(k, part):
    return stereographic_harmonic(k, part).value


class TestSphericalMean:
    def test_constant_function(self):
        one = SphereFunction.constant(3, 1)
        for r in (0.1, 0.7, 1.2):
            assert spherical_mean(one, SOUTH, r, 64) == pytest.approx(1.0, abs=1e-14)

    def test_limit_at_zero_radius(self):
        h = harmonic(1, "re")
        small = spherical_mean(h, SOUTH, 1e-5, 64)
        assert abs(small - function_evaluate_float_loop(h, SOUTH) ** 2) < 1e-9

    def test_closed_form_oracle(self):
        # For h = x1/(1 - x3) the circle mean of h^2 about the south pole is
        # tan(r/2)^2 / 2 (the pullback is the plane coordinate u).
        h = harmonic(1, "re")
        for r in (0.2, 0.4, 0.8):
            assert spherical_mean(h, SOUTH, r, 256) == pytest.approx(
                math.tan(r / 2) ** 2 / 2, rel=1e-12
            )

    def test_quadrature_self_consistency(self):
        for k, part in ((1, "re"), (2, "im"), (3, "re")):
            h = harmonic(k, part)
            for r in (0.3, 0.9):
                m256 = spherical_mean(h, SOUTH, r, 256)
                m512 = spherical_mean(h, SOUTH, r, 512)
                assert abs(m256 - m512) < 1e-12

    def test_low_order_rejected(self):
        one = SphereFunction.constant(3, 1)
        with pytest.raises(ValueError):
            spherical_mean(one, SOUTH, 0.5, 4)

    def test_rotation_invariance(self):
        # Rotate by the exact rational orthogonal matrix built from (3,4,5)
        # in the x1 x3 plane; means about the rotated center must agree.
        h = harmonic(2, "re")
        c, s = Fraction(3, 5), Fraction(4, 5)
        rot = [[c, 0, -s], [0, 1, 0], [s, 0, c]]
        inv = [[c, 0, s], [0, 1, 0], [-s, 0, c]]
        rotated = substitute_linear(h, inv)
        new_center = (
            float(-rot[0][2]),
            float(-rot[1][2]),
            float(-rot[2][2]),
        )  # image of the south pole
        for r in (0.2, 0.6, 1.0):
            a = spherical_mean(h, SOUTH, r, 128)
            b = spherical_mean(rotated, new_center, r, 128)
            assert abs(a - b) < 1e-12


class TestSphericalMeanMatchesTheNodeLoop:
    @pytest.mark.parametrize("order", [8, 64, 1024])
    def test_bit_identical(self, order):
        integrands = [
            harmonic(3, "re"),
            harmonic(5, "im"),
            family_value("control:equator-band"),
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
        f = harmonic(2, "re")
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
    h = HarmonicFunction(family_value(family), CapDomain(), family)
    for center in (SOUTH, TILTED, (1.0, 0.0, 0.0)):
        got = analyze_growth(h, center, 1.2, 4, order)
        with monkeypatch.context() as patch:
            patch.setattr(growth, "spherical_mean", spherical_mean_loop)
            expected = analyze_growth(h, center, 1.2, 4, order)
        assert [m.hex() for m in got.means] == [m.hex() for m in expected.means]
        assert got.second_derivative_fd.hex() == expected.second_derivative_fd.hex()
        assert got == expected


@pytest.mark.parametrize("family", GROWTH_FAMILIES)
def test_means_agree_with_the_expanded_square(family):
    # Squaring h at each node and evaluating the expanded normal form of h * h
    # there give the same mean up to rounding: the margin that the golden
    # file's 1e-12 tolerance on growth means relies on.
    h = family_value(family)
    for center in (SOUTH, TILTED, (1.0, 0.0, 0.0)):
        for r in (0.1, 0.7, 1.2):
            got = spherical_mean(h, center, r, 64)
            expected = expanded_square_mean_loop(h, center, r, 64)
            assert abs(got - expected) <= 1e-13 * abs(expected)


@pytest.mark.parametrize(
    "family", [f"stereo:k={k}:{part}" for k in range(3, 7) for part in ("re", "im")]
)
def test_squared_node_values_beat_the_expanded_square(family):
    # Against the exact square of h at the same float point, a node value
    # v * v errs by less than the expanded form of h * h, whose alternating
    # coefficients cancel near the zeros of h.  For k <= 2 and the control the
    # two can tie at about 1e-16, so they are left out.
    h = family_value(family)
    expanded = h * h
    squared_errors, expanded_errors = [], []
    for point in sample_cap_points(40, seed=4):
        point = tuple(float(x) for x in point)
        at = [Fraction(x) for x in point]
        num, base = (evaluate_fraction_loop(p.poly, at) for p in (h.num, h.base))
        exact = (num / base**h.exp) ** 2
        got = growth._circle_kernel(h)(0.0, 0.0, 0.0, 1.0, (point,))
        if exact == 0:
            assert got == 0.0
            continue
        squared_errors.append(abs(Fraction(got) - exact) / exact)
        expanded_value = function_evaluate_float_loop(expanded, point)
        expanded_errors.append(abs(Fraction(expanded_value) - exact) / exact)
    assert max(squared_errors) < Fraction(5e-14)
    assert max(squared_errors) < max(expanded_errors)


@pytest.mark.parametrize("family", GROWTH_FAMILIES)
def test_means_agree_with_the_libm_power_loop(family):
    # Powers taken as left-to-right products move a mean by a few roundings
    # against the earlier node loop, whose powers were libm's v ** e.
    h = family_value(family)
    for center in (SOUTH, TILTED, (1.0, 0.0, 0.0)):
        for r in (0.1, 0.7, 1.2):
            got = spherical_mean(h, center, r, 64)
            expected = spherical_mean_loop(h, center, r, 64, power=pow)
            assert abs(got - expected) <= 1e-14 * abs(expected)


@pytest.mark.parametrize("family", GROWTH_FAMILIES)
def test_the_kernel_source_calls_no_pow(family):
    source = growth._kernel_source(family_value(family))
    assert "**" not in source and "pow" not in source


class TestCircleCaches:
    def test_interleaved_integrands_and_tables(self):
        first, second = family_value("stereo:k=3:re"), family_value("control:equator-band")
        fresh = family_value("stereo:k=3:re")
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
        f = harmonic(3, "re")
        for center in ((0.0, 0.0, -1.0), (-0.0, -0.0, -1.0), (0.0, 0.0, -1.0)):
            for r in (0.0, 0.5):
                got = spherical_mean(f, center, r, 16)
                assert got.hex() == spherical_mean_loop(f, center, r, 16).hex()

    @pytest.mark.parametrize(
        "c", [Fraction(3, 10**310), Fraction(10**300, 7), Fraction(-1, 3)],
        ids=["tiny", "huge", "negative"],
    )
    def test_coefficient_literals_are_exact(self, c):
        # A constant's float sum is its float literal unchanged, and its
        # one-node kernel squares that literal; 3e-310 is subnormal and
        # 10**300 / 7 is not a short decimal.
        assert eval(growth._float_sum(Polynomial.constant(3, c))) == float(c)
        assert growth._circle_kernel(SphereFunction.constant(3, c))(
            0.0, 0.0, 0.0, 1.0, ((0.0, 0.0, -1.0),)
        ) == float(c) * float(c)
        x1, x2, x3 = (SpherePolynomial.variable(3, i) for i in (1, 2, 3))
        f = SphereFunction.from_polynomial(x1 * x1.scale(c) + x2.scale(c) + x3.scale(Fraction(1, 7)))
        for center in (SOUTH, TILTED):
            got = spherical_mean(f, center, 0.7, 64)
            assert got.hex() == spherical_mean_loop(f, center, 0.7, 64).hex()

    def test_the_zero_function_has_mean_zero(self):
        # Its numerator is the empty sum 0.0, over the base 1.
        zero = SphereFunction.zero(3)
        assert spherical_mean(zero, TILTED, 0.5, 8) == 0.0
        assert spherical_mean_loop(zero, TILTED, 0.5, 8) == 0.0

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
        h = HarmonicFunction(harmonic(1, "re"), CapDomain(), "x")
        with pytest.raises(ValueError, match="center must lie on the unit sphere"):
            analyze_growth(h, (0.0, 0.0, -3.0), 1.2, 3, 8)

    def test_the_unit_sphere_check_uses_the_cli_tolerance(self):
        one = SphereFunction.constant(3, 1)
        assert spherical_mean(one, (0.0, 0.0, -(1.0 + 4e-13)), 0.5, 8) == 1.0
        with pytest.raises(ValueError, match="center must lie on the unit sphere"):
            spherical_mean(one, (0.0, 0.0, -(1.0 + 1e-11)), 0.5, 8)

    def test_integer_center_is_read_as_floats(self):
        f = harmonic(2, "im")
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
        h = harmonic(k, part)
        radii = [1.2 * (i + 1) / 40 for i in range(40)]
        means = [spherical_mean(h, SOUTH, r, 128) for r in radii]
        ok, _ = check_mean_monotonicity(means)
        assert ok

    def test_non_subharmonic_control_flagged(self):
        # f = 1 - x3^2 peaks on the equator; about an equatorial center the
        # mean of f^2 strictly decreases, so the checker must flag it.
        x3 = SpherePolynomial.variable(3, 3)
        f = SphereFunction.from_polynomial(SpherePolynomial.one(3) - x3 * x3)
        radii = [1.2 * (i + 1) / 40 for i in range(40)]
        means = [spherical_mean(f, (1.0, 0.0, 0.0), r, 128) for r in radii]
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
            h = harmonic(k, "im")
            ok, fd, exact = check_second_derivative_at_zero(h, SOUTH)
            assert exact == 0.0
            assert ok, (k, fd)

    def test_degree_one_pullback(self):
        h = harmonic(1, "re")
        ok, fd, exact = check_second_derivative_at_zero(h, SOUTH)
        assert ok
        assert exact == pytest.approx(0.25, abs=1e-15)
        assert fd == pytest.approx(0.25, rel=1e-6)

    def test_combined_family_member(self):
        h = planar_combination([(1, "re", 1), (1, "im", 1)])
        ok, fd, exact = check_second_derivative_at_zero(h.value, SOUTH)
        assert ok
        # |grad h|^2 doubles relative to the single-part case
        assert exact == pytest.approx(0.5, abs=1e-15)

    def test_offcenter_reference_value(self):
        # The exact side is evaluated wherever the center sits.
        h = harmonic(2, "re")
        center = (math.sin(0.4), 0.0, -math.cos(0.4))
        ok, fd, exact = check_second_derivative_at_zero(h, center)
        assert ok

    @pytest.mark.parametrize("step", [0.04, 0.1, 0.3])
    def test_the_fit_is_exact_on_an_even_sextic_profile(self, monkeypatch, step):
        # M(r) = M(0) + (A/2) r^2 + B r^4 + C r^6 is the fitted form, so the
        # fit returns A (twice the r^2 coefficient) up to rounding.  Off the
        # pole M(0) = h(center)^2 is not 0, so the fit subtracts it.
        h = harmonic(1, "re")
        center = (math.sin(0.4), 0.0, -math.cos(0.4))
        m0 = function_evaluate_float_loop(h, center) ** 2
        assert m0 > 0.04
        a, b, c = 0.7, -2.5, 11.0
        monkeypatch.setattr(
            growth, "spherical_mean",
            lambda f, center, r, order: m0 + a / 2 * r**2 + b * r**4 + c * r**6,
        )
        fd = growth.second_derivative_at_zero_fd(h, center, 64, step=step)
        assert fd == pytest.approx(a, rel=1e-12)


class TestSecondDerivativeNearThePole:
    # h = stereo:k=1:re varies on the scale of the distance d to its pole, the
    # north pole.  With the fixed step 0.04 the fit was off by 2.2e-6, 1.1e-4,
    # 1.1e-3 and 4.2e-3 relative at these angles from the south pole, and
    # falsified the harmonic h; the step min(0.04, d / 25) keeps it near 1.5e-7.
    @pytest.mark.parametrize("angle", [2.5, 2.8, 2.9, 2.94])
    def test_the_step_shrinks_near_the_pole(self, angle):
        h = stereographic_harmonic(1, "re")
        center = (math.sin(angle), 0.0, -math.cos(angle))
        report = analyze_growth(h, center, 0.05, 4, 256)
        assert report.passed
        assert abs(report.second_derivative_fd / report.second_derivative_exact - 1) < 1e-6

    def test_centers_a_radian_from_the_pole_keep_the_fixed_step(self, monkeypatch):
        steps = []
        check = growth.check_second_derivative_at_zero

        def spy(*args, step):
            steps.append(step)
            return check(*args, step=step)

        monkeypatch.setattr(growth, "check_second_derivative_at_zero", spy)
        h = stereographic_harmonic(1, "re")
        for angle in (0.0, 1.0, 2.0, 2.5):
            analyze_growth(h, (math.sin(angle), 0.0, -math.cos(angle)), 0.05, 2, 8)
        assert steps[:3] == [growth.SECOND_DERIVATIVE_STEP] * 3
        assert steps[3] == pytest.approx((math.pi - 2.5) / growth.SECOND_DERIVATIVE_POLE_STEPS)


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
    # The reference is half the Laplacian of h^2, exact at the float center and
    # rounded once; the exact rational value there of the package's Laplacian
    # and of the field sum, each by the Fraction loop, is the oracle, so the
    # reference must be that value correctly rounded.
    h = family_value(family)
    point = tuple(float(c) for c in center.split(","))
    *_, exact = check_second_derivative_at_zero(h, point, order=8)
    at = [Fraction(c) for c in point]
    for lap in (laplace_sphere(h * h), laplace_sphere_by_fields(h * h)):
        reference = Fraction(1, 2) * evaluate_fraction_loop(lap.num.poly, at) / (
            evaluate_fraction_loop(lap.base.poly, at) ** lap.exp
        )
        assert exact == float(reference)


class TestAnalyzeGrowth:
    def test_full_report_for_family_member(self):
        h = HarmonicFunction(harmonic(2, "im"), CapDomain(), "stereo:k=2:im")
        report = analyze_growth(h, SOUTH, 1.2, 40, 256)
        assert report.monotone
        assert report.second_derivative_ok
        assert report.passed
        assert len(report.radii) == len(report.means) == 40
        assert report.radii[-1] == pytest.approx(1.2)

    def test_grid_validation(self):
        h = HarmonicFunction(harmonic(1, "re"), CapDomain(), "x")
        with pytest.raises(ValueError):
            analyze_growth(h, SOUTH, 1.2, 1, 64)
        with pytest.raises(ValueError):
            analyze_growth(h, SOUTH, 0.0, 10, 64)

    def test_control_report_fails(self):
        x3 = SpherePolynomial.variable(3, 3)
        f = SphereFunction.from_polynomial(SpherePolynomial.one(3) - x3 * x3)
        h = HarmonicFunction(f, CapDomain(), "control")
        report = analyze_growth(h, (1.0, 0.0, 0.0), 1.2, 40, 128)
        assert not report.monotone
        assert not report.passed

    def test_circles_that_leave_the_disk_are_refused(self):
        # 0.2 + 3.05 > 3.0: the outer circles pass close to the pole, where the
        # means grow past 1e5 and would read as a non-monotone verdict.
        h = stereographic_harmonic(2, "re")
        tilted = (math.sin(0.2), 0.0, -math.cos(0.2))
        with pytest.raises(ValueError, match="leave the working cap"):
            analyze_growth(h, tilted, 3.05, 40, 256)

    def test_the_disk_is_read_off_the_domain_pole(self):
        # A cap of radius 1 about the north pole (its excluded pole is south).
        one = SphereFunction.constant(3, 1)
        h = HarmonicFunction(one, CapDomain(pole=(0, 0, -1), radius=1.0), "one")
        north = (0.0, 0.0, 1.0)
        report = analyze_growth(h, north, 0.9, 4, 8)
        assert report.passed and report.means == [1.0] * 4
        with pytest.raises(ValueError, match="leave the working cap"):
            analyze_growth(h, north, 1.1, 4, 8)
        with pytest.raises(ValueError, match="leave the working cap"):
            analyze_growth(h, SOUTH, 0.5, 4, 8)

    def test_counts_up_to_the_bounds_are_accepted(self):
        h = stereographic_harmonic(1, "re")
        assert analyze_growth(h, SOUTH, 1.2, growth.MAX_GRID, 8).passed
        assert analyze_growth(h, SOUTH, 1.2, 2, growth.MAX_QUADRATURE_ORDER).passed

    def test_oversized_counts_fail_before_any_table_or_radius_list(self):
        # 2**30 nodes or radii would take gigabytes: each bound is checked
        # before anything of that size is built.
        h = stereographic_harmonic(2, "re")
        quad = rf"quadrature order must be <= {growth.MAX_QUADRATURE_ORDER}, got {2**30}"
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=quad):
                spherical_mean(h.value, SOUTH, 0.5, 2**30)
            with pytest.raises(ValueError, match=quad):
                analyze_growth(h, SOUTH, 1.2, 2, 2**30)
            with pytest.raises(ValueError, match=rf"need at most {growth.MAX_GRID} grid radii"):
                analyze_growth(h, SOUTH, 1.2, 2**30, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

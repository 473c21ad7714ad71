"""The stereographic family and its planar combinations against closed forms on S^2.

For h = Re or Im w^K, w = (x1 + i x2)/(1 - x3), Delta^k(h^2) is a radial
function with integer weights (``oracles.stereo_square_weights``), and the
circle mean of h^2 about the south pole is tan^(2K)(r/2) / 2.  For any
h = Re sum_n b_n w^n it is 1/2 sum_pq C_pq w^p wbar^q by the Hermitian
recursion (``oracles.planar_closed_form``).  The oracles share nothing with
the certificate routes but the quotient field's equality, so they check the
left side, both routes' squares and the growth means at any depth.
"""

import functools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphere_sos.certificates import (
    chart_squares,
    delta_power,
    gram_matrix,
    gram_squares,
    word_span,
)
from sphere_sos.cli import main
from sphere_sos.harmonics import planar_combination, stereographic_harmonic
from sphere_sos.polynomials import SphereFunction
from sphere_sos.sphere_ops import RotationField, apply_rotation_field, rotation_fields

from oracles import (
    hermitian_sum,
    planar_closed_form,
    planar_form,
    radial_sum,
    stereo_closed_form,
    stereo_power,
    stereo_square_weights,
)


def harmonic(K, part):
    return stereographic_harmonic(K, part).value


@pytest.mark.parametrize("k", [1, 2, 4, 6])
@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize("K", [1, 2, 3, 5])
def test_left_side_equals_the_closed_form(K, part, k):
    h = harmonic(K, part)
    assert stereo_power(h) == K
    assert delta_power(h * h, k) == stereo_closed_form(h, k)


@pytest.mark.parametrize("k, count, bits", [(16, 20, 115), (24, 28, 192)])
def test_deep_left_side_equals_the_closed_form(k, count, bits):
    h = harmonic(3, "re")
    weights = stereo_square_weights(3, k)
    assert len(weights) == count and max(weights.values()).bit_length() == bits
    assert min(weights.values()) > 0
    assert delta_power(h * h, k) == radial_sum(weights)


@pytest.mark.parametrize("K, part, k", [(1, "re", 3), (2, "im", 5), (3, "re", 8), (5, "im", 2)])
def test_gram_squares_equal_the_closed_form(K, part, k):
    """2^k sum_i d_i u_i^2, the right side certify proves, is the closed form."""
    h = harmonic(K, part)
    fields = [functools.partial(apply_rotation_field, field) for field in rotation_fields(3)]
    span = word_span(h, k, fields)
    weights, u = gram_squares(span, gram_matrix(span))
    assert weighted_sum_of_squares(weights, u).scale(2**k) == stereo_closed_form(h, k)


def weighted_sum_of_squares(weights, u):
    total = SphereFunction.zero(3)
    for d, v in zip(weights, u):
        total = total + (v * v).scale(d)
    return total


@pytest.mark.parametrize("K, part, k", [(1, "im", 1), (3, "re", 4), (5, "im", 2)])
def test_the_planar_form_of_one_power_is_the_radial_one(K, part, k):
    h = harmonic(K, part)
    assert planar_closed_form(((K, part, 1),), k) == stereo_closed_form(h, k)


@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.sampled_from(["re", "im"]),
                  st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)),
        min_size=1, max_size=3,
    ),
    st.integers(1, 6),
)
@settings(max_examples=30, deadline=None)
def test_planar_left_side_and_chart_squares_equal_the_closed_form(terms, k):
    """delta_power(h^2, k) and 2^k sum_i d_i u_i^2 from chart_squares, for
    mixed Re and Im parts and rational coefficients."""
    h = planar_combination(terms)
    expected = planar_closed_form(h.chart, k)
    assert delta_power(h.value * h.value, k) == expected
    weights, u, _ = chart_squares(h.value, h.chart, k)
    assert all(d > 0 for d in weights)
    assert weighted_sum_of_squares(weights, u).scale(2**k) == expected


def test_a_planar_entry_changed_by_one_fails():
    # The closed form sees every entry of C^(3): each one changed by 1, in
    # its real part or, off the diagonal (where Im |w|^(2p) = 0), its
    # imaginary part.
    terms = ((3, "re", 1), (1, "im", 2), (2, "re", Fraction(1, 3)))
    h = planar_combination(terms).value
    lhs = delta_power(h * h, 3)
    form = planar_form(terms, 3)
    assert lhs == hermitian_sum(form).scale(Fraction(1, 2))
    for key, (re, im) in form.items():
        for changed in ((re + 1, im), (re, im + 1))[: 1 + (key[0] != key[1])]:
            assert lhs != hermitian_sum({**form, key: changed}).scale(Fraction(1, 2)), key


def test_a_weight_changed_by_one_fails():
    h = harmonic(3, "im")
    lhs = delta_power(h * h, 4)
    weights = stereo_square_weights(3, 4)
    assert lhs == radial_sum(weights)
    for n in sorted(weights):
        for step in (1, -1):
            assert lhs != radial_sum({**weights, n: weights[n] + step}), (n, step)


def test_a_sum_of_two_powers_is_refused():
    """Re w + Re w^2 is harmonic, but its left side is not radial: the
    rotation about the x3 axis moves it, so no weights t^n could match."""
    h = planar_combination([(1, "re", 1), (2, "re", 1)]).value
    assert not apply_rotation_field(RotationField(1, 2), delta_power(h * h, 1)).is_zero()
    with pytest.raises(ValueError, match="not Re or Im of a power of w"):
        stereo_power(h)
    with pytest.raises(ValueError, match="not Re or Im of a power of w"):
        stereo_closed_form(h, 2)


@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize("K", [1, 3, 5])
def test_growth_means_about_the_south_pole(tmp_path, K, part):
    """The geodesic circle of radius r about the south pole is |w| = tan(r/2),
    where h^2 has mean |w|^(2K) / 2."""
    out = tmp_path / "growth.json"
    assert main(["growth", "--family", f"stereo:k={K}:{part}", "--center", "south",
                 "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert len(report["radii"]) == len(report["means"]) > 1
    for r, mean in zip(report["radii"], report["means"]):
        exact = math.tan(r / 2) ** (2 * K) / 2
        assert abs(mean - exact) <= 1e-13 * exact, (r, mean, exact)

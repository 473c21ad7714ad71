"""The integer-numerator kernel against the Fraction kernel it replaced.

Every comparison is exact and order-sensitive: coefficients are compared as
``list(p.terms.items())``, because term order is part of the output (float
sums run in it), and floats are compared by ``.hex()``.
"""

import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphere_sos.polynomials import DEGREE_LIMIT, Polynomial, _reduce_terms, laplace_euclid
from sphere_sos.sphere_ops import rotation_fields

from oracles import (
    FractionPolynomial,
    apply_raw_loop,
    evaluate_float_loop,
    evaluate_fraction_loop,
    reduce_terms_loop,
    term_order_key,
)

M = 3

# x3 up to 9, so the normal form expands up to the fourth power of the complement.
exponents = st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 9))
small = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
large = st.builds(Fraction, st.integers(-(2**90), 2**90), st.integers(1, 2**70))


@st.composite
def shared_denominator(draw):
    den = draw(st.sampled_from([3, 12, 2**40, 3**30 * 7]))
    nums = draw(st.lists(st.integers(-(10**12), 10**12), min_size=1, max_size=6))
    keys = draw(st.lists(exponents, min_size=len(nums), max_size=len(nums), unique=True))
    return dict(zip(keys, (Fraction(n, den) for n in nums)))


def term_dicts(coeffs):
    return st.dictionaries(exponents, coeffs, max_size=6)


negative = term_dicts(st.one_of(small, large).map(lambda c: -abs(c)))
term_maps = st.one_of(term_dicts(small), term_dicts(large), shared_denominator(), negative)


@st.composite
def cancelling(draw):
    """p and q where q repeats some of p's terms negated, among its own: p + q
    and p - (-q) cancel, and (u + v)(u - v) cancels its cross terms."""
    p = draw(term_maps)
    own = draw(term_maps)
    picked = draw(st.lists(st.sampled_from(sorted(p)), unique=True) if p else st.just([]))
    q = {}
    for exps in draw(st.permutations(picked + [e for e in own if e not in picked])):
        q[exps] = -p[exps] if exps in picked else own[exps]
    return p, q


def both(terms):
    return Polynomial(M, terms), FractionPolynomial(M, terms)


def assert_same(new, old):
    assert list(new.terms.items()) == list(old.terms.items())
    assert new.denominator > 0
    assert math.gcd(new.denominator, *new.numerators.values()) == 1
    assert all(type(n) is int and n for n in new.numerators.values())


pairs = st.one_of(st.tuples(term_maps, term_maps), cancelling())


@given(pairs)
@settings(max_examples=150, deadline=None)
def test_ring_operations_match(pq):
    (p, op), (q, oq) = both(pq[0]), both(pq[1])
    assert_same(p + q, op + oq)
    assert_same(q + p, oq + op)
    assert_same(p - q, op - oq)
    assert_same(p + (-p), op + (-op))
    assert_same(-q, -oq)
    assert_same(p * q, op * oq)
    assert_same((p + q) * (p - q), (op + oq) * (op - oq))
    assert (p + q == q + p) and (p * q == q * p)
    assert hash(p + q) == hash(q + p)


@given(term_maps, st.integers(0, 3))
# p * p^2 and p^2 * p order these terms differently, which pins the order of
# the square-and-multiply products.
@example({(0, 0, 0): 1, (2, 1, 0): -2, (0, 1, 0): Fraction(4, 3), (1, 0, 0): Fraction(3, 2)}, 3)
@settings(max_examples=60, deadline=None)
def test_power_matches(terms, n):
    p, op = both(terms)
    assert_same(p**n, op**n)


@given(term_maps, st.one_of(small, large, st.integers(-5, 5)))
@settings(max_examples=100, deadline=None)
def test_scale_matches(terms, c):
    p, op = both(terms)
    assert_same(p.scale(c), op.scale(c))
    assert_same(p * c, op.scale(c))


@given(term_maps, st.integers(1, M))
@settings(max_examples=100, deadline=None)
def test_partial_matches(terms, index):
    p, op = both(terms)
    assert_same(p.partial(index), op.partial(index))


@given(term_maps)
@settings(max_examples=100, deadline=None)
def test_content_and_leading_coefficient_match(terms):
    p, op = both(terms)
    assert p.content() == op.content()
    assert p.leading_coefficient() == op.leading_coefficient()
    assert p.scale(1 / p.content()).content() == 1


@st.composite
def near_the_relation(draw):
    """Terms plus a multiple of x1^2 + x2^2 + x3^2 - 1, so the normal form
    cancels while it sums."""
    p, op = both(draw(term_maps))
    r, opr = both(draw(term_maps))
    rel = Polynomial.radius_squared(M) - Polynomial.one(M)
    orel = FractionPolynomial.radius_squared(M) - FractionPolynomial.one(M)
    if draw(st.booleans()):
        return p + rel * r, op + orel * opr
    return rel * r + p, orel * opr + op


@given(st.one_of(term_maps.map(both), near_the_relation()))
@settings(max_examples=150, deadline=None)
def test_sphere_normal_form_matches(pair):
    p, op = pair
    assert_same(_reduce_terms(p), reduce_terms_loop(op))


@given(st.one_of(term_maps, cancelling().map(lambda pq: {**pq[0], **pq[1]})))
@settings(max_examples=100, deadline=None)
def test_rotation_fields_match(terms):
    p, op = both(terms)
    for field in rotation_fields(M):
        assert_same(field.apply_raw(p), apply_raw_loop(field.i, field.j, op))


points = st.tuples(*[st.one_of(small, large, st.integers(-3, 3))] * M)
float_points = st.tuples(*[st.floats(-2, 2, allow_nan=False)] * M)


@given(term_maps, points, float_points)
@settings(max_examples=100, deadline=None)
def test_evaluation_matches(terms, point, fpoint):
    p, op = both(terms)
    assert p.evaluate(point) == evaluate_fraction_loop(op, point)
    assert p.evaluate_float(fpoint).hex() == evaluate_float_loop(p, fpoint).hex()
    assert p.evaluate_float(fpoint).hex() == op.float_evaluator()(fpoint).hex()


@given(term_maps)
@settings(max_examples=100, deadline=None)
def test_text_and_pickle_round_trips(terms):
    p, op = both(terms)
    assert str(p) == str(op)
    by_text = Polynomial.parse(str(p), M)
    descending = sorted(op.terms.items(), key=lambda kv: term_order_key(kv[0]), reverse=True)
    assert list(by_text.terms.items()) == descending
    # Nothing pickles a polynomial, so a round trip must fail loudly, not
    # rebuild one around the immutability guard.
    with pytest.raises((AttributeError, TypeError)):
        pickle.loads(pickle.dumps(p))


def test_terms_view_is_read_only():
    p = Polynomial(M, {(1, 0, 0): Fraction(1, 2)})
    with pytest.raises(TypeError):
        p.terms[(0, 0, 0)] = Fraction(1)
    assert p.terms == {(1, 0, 0): Fraction(1, 2)}
    # One int numerator over one int denominator, keyed as the kernel keys x1.
    assert (list(p.numerators.values()), p.denominator) == ([1], 2)
    assert p.numerators.keys() == Polynomial.variable(M, 1).numerators.keys()


class TestInputGuard:
    def test_fractional_exponent_rejected(self):
        with pytest.raises(TypeError):
            Polynomial(3, {(1.5, 0, 0): 1})

    def test_float_exponent_rejected_even_when_whole(self):
        with pytest.raises(TypeError):
            Polynomial(3, {(1.0, 0, 0): 1})

    def test_bool_exponent_rejected(self):
        with pytest.raises(TypeError):
            Polynomial(3, {(True, 0, 0): 1})

    def test_bool_coefficient_rejected(self):
        with pytest.raises(TypeError):
            Polynomial(3, {(1, 0, 0): True})
        with pytest.raises(TypeError):
            Polynomial.constant(3, False)
        with pytest.raises(TypeError):
            Polynomial.one(3).scale(True)

    def test_float_coefficient_rejected(self):
        with pytest.raises(TypeError):
            Polynomial(3, {(1, 0, 0): 0.5})

    def test_int_exponents_and_coefficients_accepted(self):
        p = Polynomial(3, {(1, 0, 2): 3, (0, 0, 0): Fraction(-1, 4)})
        assert list(p.terms.items()) == [((1, 0, 2), Fraction(3)), ((0, 0, 0), Fraction(-1, 4))]


# ----------------------------------------------------------------------
# packed monomial keys for m = 2..5, up to the degree limit
# ----------------------------------------------------------------------


@st.composite
def monomials(draw, m, degree):
    """An exponent tuple of length m and total degree at most ``degree``
    (exactly ``degree`` in about half the draws)."""
    total = draw(st.one_of(st.just(degree), st.integers(0, degree)))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=m - 1, max_size=m - 1)))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, total]))


def packed_terms(m, degree, last=None):
    """Term maps of degree <= ``degree``; with ``last`` the exponent of x_m
    is at most that, so the oracle's normal form stays small."""
    keys = monomials(m, degree)
    if last is not None:
        keys = keys.filter(lambda e: e[-1] <= last)
    return st.dictionaries(keys, st.one_of(small, large), max_size=5)


@st.composite
def packed_pairs(draw):
    """(m, p, q) with deg p + deg q <= DEGREE_LIMIT, so p * q is representable."""
    m = draw(st.integers(2, 5))
    split = draw(st.integers(0, DEGREE_LIMIT))
    return m, draw(packed_terms(m, split)), draw(packed_terms(m, DEGREE_LIMIT - split))


@given(packed_pairs())
@settings(max_examples=150, deadline=None)
def test_packed_products_match(pair):
    m, p, q = pair
    a, oa = Polynomial(m, p), FractionPolynomial(m, p)
    b, ob = Polynomial(m, q), FractionPolynomial(m, q)
    assert_same(a * b, oa * ob)
    assert_same(a + b, oa + ob)
    assert a.degree() == max((sum(e) for e, c in p.items() if c), default=-1)


@given(st.integers(2, 5).flatmap(lambda m: st.tuples(st.just(m), packed_terms(m, DEGREE_LIMIT))))
@settings(max_examples=150, deadline=None)
def test_packed_derivatives_and_fields_match(case):
    m, terms = case
    p, op = Polynomial(m, terms), FractionPolynomial(m, terms)
    laplacian = FractionPolynomial(m)
    for i in range(1, m + 1):
        assert_same(p.partial(i), op.partial(i))
        laplacian = laplacian + op.partial(i).partial(i)
    assert_same(laplace_euclid(p), laplacian)
    for field in rotation_fields(m):
        assert_same(field.apply_raw(p), apply_raw_loop(field.i, field.j, op))
    assert str(p) == str(op)


@given(st.integers(2, 5).flatmap(lambda m: st.tuples(st.just(m), packed_terms(m, DEGREE_LIMIT, 9))))
@settings(max_examples=100, deadline=None)
def test_packed_normal_form_matches(case):
    m, terms = case
    p, op = Polynomial(m, terms), FractionPolynomial(m, terms)
    assert_same(_reduce_terms(p), reduce_terms_loop(op))


@pytest.mark.parametrize("m", [2, 3, 5])
def test_past_the_degree_limit_fails_loudly(m):
    top = (DEGREE_LIMIT,) + (0,) * (m - 1)
    last = (0,) * (m - 1) + (DEGREE_LIMIT,)
    # At the limit every slot holds its exponent exactly.
    assert list(Polynomial(m, {top: 1, last: 2}).terms) == [top, last]
    with pytest.raises(ValueError, match="packed-key limit"):
        Polynomial(m, {(DEGREE_LIMIT + 1,) + (0,) * (m - 1): 1})
    with pytest.raises(ValueError, match="packed-key limit"):
        Polynomial(m, {(1,) * (m - 1) + (DEGREE_LIMIT - m + 2,): 1})
    x = Polynomial.variable(m, m)
    assert (x ** DEGREE_LIMIT).terms == {last: 1}
    with pytest.raises(ValueError, match="packed-key limit"):
        x ** (DEGREE_LIMIT + 1)
    with pytest.raises(ValueError, match="packed-key limit"):
        x ** 128 * x ** 128

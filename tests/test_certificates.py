import functools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphere_sos import certificates, linalg
from sphere_sos.certificates import (
    CertificateReport,
    SamplePoint,
    _weighted_sum,
    chart_form,
    delta_power,
    euclid_certificate,
    gram_matrix,
    ldl_squares,
    verify_certificate,
    word_span,
)
from sphere_sos.harmonics import (
    CapDomain,
    HarmonicFunction,
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
    rotation_fields,
)

from conftest import random_sphere_function
from oracles import (
    cap_points_by_fractions,
    certificate_words,
    euclid_word_rhs,
    function_evaluate_fraction_loop,
    gram_squares_by_fractions,
    hermitian_sum,
    sos_certificate,
    stored_form,
)


def var(m, i):
    return Polynomial.variable(m, i)


class TestDeltaPower:
    def test_power_zero_is_identity(self):
        f = SphereFunction.from_polynomial(SpherePolynomial(var(3, 1)))
        assert delta_power(f, 0) == f

    def test_on_x1_squared_with_leibniz_oracle(self):
        # Independent route: Delta(f^2) = 2 f Delta f + 2 sum (X_ij f)^2.
        f = SphereFunction.from_polynomial(SpherePolynomial(var(3, 1)))
        square = f * f
        engine = delta_power(square, 1)
        oracle = f * laplace_sphere(f) * Fraction(2)
        for field in rotation_fields(3):
            d = apply_rotation_field(field, f)
            oracle = oracle + (d * d).scale(2)
        assert engine == oracle
        # frozen closed form: 2 - 6 x1^2
        expected = SphereFunction.from_polynomial(
            SpherePolynomial(Polynomial.constant(3, 2) - 6 * var(3, 1) ** 2)
        )
        assert engine == expected

    def test_constant_collapses(self):
        one = SphereFunction.constant(3, 1)
        for k in (1, 2, 5):
            assert delta_power(one, k).is_zero()

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            delta_power(SphereFunction.constant(3, 1), -1)


class TestCertificateTerms:
    def test_word_count_k1(self):
        h = stereographic_harmonic(2, "re")
        terms = sos_certificate(h, 1)
        assert len(terms) == 3
        fields = rotation_fields(3)
        for field, term in zip(fields, terms):
            assert term == apply_rotation_field(field, h.value)

    def test_word_count_k2(self):
        h = stereographic_harmonic(1, "re")
        assert len(sos_certificate(h, 2)) == 9
        assert len(certificate_words(3, 2)) == 9

    def test_words_apply_first_field_first(self):
        # Term of the word (X_a, X_b) is X_b(X_a h); X12 and X13 do not
        # commute on h, so the reversed order would give a different term.
        h = stereographic_harmonic(2, "re")
        terms = sos_certificate(h, 2)
        words = certificate_words(3, 2)
        for (a, b), term in zip(words, terms):
            assert term == apply_rotation_field(b, apply_rotation_field(a, h.value))
        x12_then_x13 = terms[words.index((RotationField(1, 2), RotationField(1, 3)))]
        x13_then_x12 = terms[words.index((RotationField(1, 3), RotationField(1, 2)))]
        assert x12_then_x13 != x13_then_x12

    def test_constant_harmonic_gives_zero_terms(self):
        h = stereographic_harmonic(0, "re")
        assert all(t.is_zero() for t in sos_certificate(h, 1))

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            sos_certificate(stereographic_harmonic(1, "re"), 0)

    def test_terms_remain_harmonic(self):
        h = stereographic_harmonic(3, "im")
        for term in sos_certificate(h, 2):
            assert laplace_sphere(term).is_zero()


class TestVerifyCertificate:
    def test_k1_family1(self):
        report = verify_certificate(stereographic_harmonic(1, "re"), 1, sample_count=20)
        assert report.equality_verified
        assert report.terms_harmonic
        assert report.all_samples_nonnegative
        assert report.term_count == report.expected_term_count == 3
        assert report.passed

    def test_constant_trivial_all_powers(self):
        h = stereographic_harmonic(0, "re")
        for k in (0, 1, 3):
            report = verify_certificate(h, k, sample_count=5)
            assert report.passed

    def test_k3_term_count(self):
        report = verify_certificate(stereographic_harmonic(1, "re"), 3, sample_count=10)
        assert report.term_count == 27
        assert report.passed

    def test_power_zero_report(self):
        report = verify_certificate(stereographic_harmonic(2, "im"), 0, sample_count=10)
        assert report.term_count == report.expected_term_count == 1
        assert report.passed

    def test_exact_identity_over_family_grid(self):
        for k_family in range(5):
            for part in ("re", "im"):
                h = stereographic_harmonic(k_family, part)
                for power in (1, 2):
                    lhs = delta_power(h.value * h.value, power)
                    rhs = _weighted_sum([t * t for t in sos_certificate(h, power)], power)
                    assert lhs == rhs, (k_family, part, power)

    def test_exact_identity_extends_to_degree_six_members(self):
        for k_family in (5, 6):
            for part in ("re", "im"):
                h = stereographic_harmonic(k_family, part)
                for power in (1, 2, 3):
                    lhs = delta_power(h.value * h.value, power)
                    rhs = _weighted_sum([t * t for t in sos_certificate(h, power)], power)
                    assert lhs == rhs, (k_family, part, power)

    def test_sample_signs_are_exact(self):
        report = verify_certificate(stereographic_harmonic(2, "re"), 2, sample_count=30)
        for sample in report.samples:
            assert isinstance(sample.value, Fraction)
            assert sample.value >= 0

    def test_determinism_of_sampling(self):
        h = stereographic_harmonic(1, "im")
        a = verify_certificate(h, 1, sample_count=12, seed=5)
        b = verify_certificate(h, 1, sample_count=12, seed=5)
        assert [s.point for s in a.samples] == [s.point for s in b.samples]

    def test_sum_order_invariance(self):
        # The k = 2 certificate value must not depend on summation order.
        h = stereographic_harmonic(2, "re")
        terms = sos_certificate(h, 2)
        forward = _weighted_sum([t * t for t in terms], 2)
        backward = _weighted_sum([t * t for t in reversed(terms)], 2)
        rng = random.Random(17)
        shuffled = list(terms)
        rng.shuffle(shuffled)
        assert forward == backward == _weighted_sum([t * t for t in shuffled], 2)

    def test_empty_sum_rejected(self):
        with pytest.raises(ValueError):
            _weighted_sum([], 1)


def report_with(equality=True, harmonic=True, sample_value=1, term_count=9):
    south = (Fraction(0), Fraction(0), Fraction(-1))
    sample = SamplePoint(point=south, value=Fraction(sample_value))
    return CertificateReport("f", 2, term_count, equality, harmonic, [sample])


class TestPassedVerdict:
    """``passed`` is exactly equality, harmonic terms and nonnegative samples."""

    @pytest.mark.parametrize(
        "broken", [{"equality": False}, {"harmonic": False}, {"sample_value": -1}]
    )
    def test_each_verdict_alone_fails(self, broken):
        assert report_with(**broken).passed is False

    def test_term_counts_are_bookkeeping(self):
        # k = 2 has 9 words; any other count leaves the verdict alone.
        for count in (0, 8, 9):
            report = report_with(term_count=count)
            assert report.expected_term_count == report.term_count == count
            assert report.passed is True


class TestCertificateNegativeControl:
    @pytest.mark.parametrize("k", [1, 2])
    def test_non_harmonic_input_fails_equality(self, k):
        # x3 wrapped without the construction-time harmonicity proof.
        x3 = SphereFunction.from_polynomial(SpherePolynomial(var(3, 3)))
        fake = HarmonicFunction(value=x3, domain=CapDomain(), provenance="control:x3")
        report = verify_certificate(fake, k, sample_count=4)
        assert report.equality_verified is False
        assert report.terms_harmonic is False
        assert report.passed is False

    @pytest.mark.parametrize("k, negatives", [(1, 44), (2, 156)])
    def test_negative_samples_at_the_defaults(self, k, negatives):
        # Delta^k(x3^2) is negative on part of the cap; every sample value is
        # checked against the Fraction evaluation at the Fraction-built points.
        x3 = SphereFunction.from_polynomial(SpherePolynomial(var(3, 3)))
        fake = HarmonicFunction(value=x3, domain=CapDomain(), provenance="control:x3")
        report = verify_certificate(fake, k)
        lhs = delta_power(x3 * x3, k)
        points = cap_points_by_fractions(certificates.DEFAULT_SAMPLE_COUNT, certificates.DEFAULT_SEED)
        assert [s.point for s in report.samples] == points
        assert [s.value for s in report.samples] == [
            function_evaluate_fraction_loop(lhs, pt) for pt in points
        ]
        assert sum(not s.nonnegative for s in report.samples) == negatives
        assert report.all_samples_nonnegative is False
        assert report.passed is False

    @pytest.mark.parametrize("count", [0, -3])
    def test_sample_counts_below_one_are_rejected(self, count):
        h = stereographic_harmonic(1, "re")
        with pytest.raises(ValueError, match="distinct plane points, asked for"):
            verify_certificate(h, 1, sample_count=count)

    def test_dropping_any_nonzero_square_breaks_equality(self):
        h = stereographic_harmonic(2, "re")
        lhs = delta_power(h.value * h.value, 2)
        squares = [t * t for t in sos_certificate(h, 2)]
        assert _weighted_sum(squares, 2) == lhs
        nonzero = [i for i, sq in enumerate(squares) if not sq.is_zero()]
        assert nonzero
        for i in nonzero:
            assert _weighted_sum(squares[:i] + squares[i + 1:], 2) != lhs


class TestSphereOnlySampler:
    @staticmethod
    def no_exact_work(monkeypatch):
        def delta_power(*args):
            raise AssertionError("delta_power ran")

        monkeypatch.setattr(certificates, "delta_power", delta_power)

    @pytest.mark.parametrize("m", [2, 4, 5])
    def test_other_spheres_fail_before_the_exact_work(self, monkeypatch, m):
        # A constant is harmonic on every sphere, but the sample points are
        # drawn on S^2 alone, so the check must stop before Delta^k runs.
        pole = (Fraction(0),) * (m - 1) + (Fraction(1),)
        h = HarmonicFunction(SphereFunction.constant(m, 2), CapDomain(pole), "two")
        self.no_exact_work(monkeypatch)
        with pytest.raises(ValueError, match=r"sample_cap_points draws points on S\^2 only"):
            verify_certificate(h, 3)

    def test_the_guard_sees_the_exact_work_on_s2(self, monkeypatch):
        # The same stand-in is reached on S^2, so the test above sees it.
        self.no_exact_work(monkeypatch)
        with pytest.raises(AssertionError, match="delta_power ran"):
            verify_certificate(stereographic_harmonic(1, "re"), 3)


def rotation_span(h, k):
    """The span of the word terms of h over the rotation fields, in
    verify_certificate's field order."""
    fields = [functools.partial(apply_rotation_field, field) for field in rotation_fields(h.m)]
    return word_span(h.value, k, fields)


def span_squares(span):
    """(weights, u, used) of the span route: its Gram form through the tail."""
    return ldl_squares(*gram_matrix(span), span.levels[-1])


def chart_squares(h, k):
    """(weights, u, used) of the chart route: its real form through the tail."""
    return ldl_squares(*chart_form(h.chart, k))


def partials(m):
    return [operator.methodcaller("partial", i) for i in range(1, m + 1)]


def euclid_span_rhs(p, k):
    """2^k sum_i d_i u_i^2 from the span of the partial-derivative terms."""
    span = word_span(p, k, partials(p.m))
    d, u, _ = span_squares(span)
    if not u:
        return Polynomial.zero(p.m)
    return _weighted_sum([(t * t).scale(w) for w, t in zip(d, u)], k)


def harmonic_combination(m, d):
    """A signed combination of the whole degree-d harmonic basis."""
    total = Polynomial.zero(m)
    for i, q in enumerate(generate_harmonic_basis(m, d)):
        total = total + q.scale((-1) ** i * (i + 1))
    return total


def gram_rhs(h, k):
    """2^k sum_i d_i u_i^2 from the span of the word terms."""
    d, u, _ = span_squares(rotation_span(h, k))
    if not u:
        return SphereFunction.zero(h.m)
    return _weighted_sum([(t * t).scale(w) for w, t in zip(d, u)], k)


def numerator_vectors(funcs):
    """Coefficient vectors of the numerators over the largest denominator
    power, built here independently of the certificates module."""
    base = next((f.base for f in funcs if f.exp > 0), None)
    e = max(f.exp for f in funcs)
    polys = [(f.num * base ** (e - f.exp)).poly if f.exp < e else f.num.poly for f in funcs]
    monomials = sorted({mono for p in polys for mono in p.terms})
    return [[p.terms.get(mono, 0) for mono in monomials] for p in polys]


class TestGramRoute:
    """verify_certificate proves the identity on the span of the word terms;
    sos_certificate (all 3^k words) is the oracle."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("part", ["re", "im"])
    @pytest.mark.parametrize("family", range(5))
    def test_matches_the_word_route(self, family, part, k):
        h = stereographic_harmonic(family, part)
        terms = sos_certificate(h, k)
        word_rhs = _weighted_sum([t * t for t in terms], k)
        assert gram_rhs(h, k) == word_rhs
        lhs = delta_power(h.value * h.value, k)
        report = verify_certificate(h, k, sample_count=3, seed=k)
        assert report.term_count == report.expected_term_count == len(terms) == 3**k
        assert report.equality_verified is (lhs == word_rhs) is True
        assert report.terms_harmonic is all(laplace_sphere(t).is_zero() for t in terms)
        points = sample_cap_points(3, k)
        assert [s.point for s in report.samples] == points
        assert [s.value for s in report.samples] == [lhs.evaluate(pt) for pt in points]
        assert report.square_count == report.span_dimension <= 2 * (family + k) + 1

    @pytest.mark.parametrize("family, part", [(1, "re"), (2, "im"), (3, "re")])
    def test_span_dimension_is_the_rank_of_the_word_terms(self, family, part):
        h = stereographic_harmonic(family, part)
        span = rotation_span(h, 3)
        for k in (1, 2, 3):
            vectors = numerator_vectors(sos_certificate(h, k))
            assert len(span.levels[k]) == len(linalg.column_basis(vectors)[0])
        assert span.dimension == len(span.levels[3])

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_constant_family_has_an_empty_span(self, k):
        report = verify_certificate(stereographic_harmonic(0, "re"), k, sample_count=3)
        assert report.passed
        assert report.term_count == report.expected_term_count == 3**k
        assert report.span_dimension == report.square_count == (1 if k == 0 else 0)

    def test_field_matrices_reproduce_every_image(self):
        h = stereographic_harmonic(2, "im")
        span = rotation_span(h, 3)
        fields = rotation_fields(3)
        assert len(span.denominators) == len(span.matrices) == 3
        for j, field_matrices in enumerate(span.matrices, start=1):
            q = span.denominators[j - 1]
            assert q > 0
            for field, a in zip(fields, field_matrices):
                assert all(type(x) is int for row in a for x in row)
                for i, v in enumerate(span.levels[j - 1]):
                    combo = SphereFunction.zero(3)
                    for r, w in enumerate(span.levels[j]):
                        combo = combo + w.scale(Fraction(a[r][i], q))
                    assert apply_rotation_field(field, v) == combo

    @pytest.mark.parametrize("column", ["first-pivot", "last-pivot", "first-other", "last"])
    def test_a_wrong_coordinate_in_any_column_is_caught(self, monkeypatch, column):
        # column_basis trusts no elimination: it re-checks what _coordinates returns.
        real = linalg._coordinates

        def wrong_in_one_column(rows):
            pivots, coords, den = real(rows)
            others = [c for c in range(len(coords)) if c not in pivots]
            chosen = {"first-pivot": pivots[:1], "last-pivot": pivots[-1:],
                      "first-other": others[:1], "last": [len(coords) - 1]}[column]
            for c in chosen:
                coords[c] = coords[c][:-1] + [coords[c][-1] + 1]
            return pivots, coords, den

        monkeypatch.setattr(linalg, "_coordinates", wrong_in_one_column)
        with pytest.raises(RuntimeError, match="span coordinates"):
            rotation_span(stereographic_harmonic(2, "re"), 2)
        with pytest.raises(RuntimeError, match="span coordinates"):
            word_span(harmonic_combination(3, 3), 2, partials(3))

    def test_wrong_span_coordinates_are_caught(self, monkeypatch):
        real = linalg._coordinates

        def off_by_one(rows):
            pivots, coords, den = real(rows)
            coords[-1] = [x + 1 for x in coords[-1]]
            return pivots, coords, den

        monkeypatch.setattr(linalg, "_coordinates", off_by_one)
        with pytest.raises(RuntimeError, match="span coordinates"):
            rotation_span(stereographic_harmonic(2, "re"), 2)

    def test_perturbed_field_matrix_breaks_equality(self, monkeypatch):
        # A stereographic input runs the chart route, a copy without its chart
        # the span route: a diagonal entry of C^(k) changed by 1 (the real form
        # stays semidefinite) and the span route's last field matrix perturbed
        # are both caught by the equality check.
        h = stereographic_harmonic(2, "re")
        real_form, real_span = certificates.hermitian_form, word_span

        def perturbed_form(form, k):
            form = dict(real_form(form, k))
            a, b = form[2, 2]
            form[2, 2] = (a + 1, b)
            return form

        def perturbed_span(*args):
            span = real_span(*args)
            span.matrices[-1][0][0][0] += 1
            return span

        for name, patch, family in (("hermitian_form", perturbed_form, h),
                                    ("word_span", perturbed_span, h._replace(chart=()))):
            with monkeypatch.context() as context:
                context.setattr(certificates, name, patch)
                report = verify_certificate(family, 2, sample_count=2)
            assert report.equality_verified is False, name
            assert report.terms_harmonic is True, name

    def test_dropping_any_weighted_square_breaks_equality(self, monkeypatch):
        h = stereographic_harmonic(2, "re")
        dimension = verify_certificate(h, 2, sample_count=1).span_dimension
        assert dimension > 1
        real = _weighted_sum
        for i in range(dimension):
            monkeypatch.setattr(
                certificates, "_weighted_sum",
                lambda squares, k, i=i: real(squares[:i] + squares[i + 1:], k),
            )
            assert verify_certificate(h, 2, sample_count=1).equality_verified is False

    def test_every_square_counts_for_harmonicity(self, monkeypatch):
        # Harmonicity is checked on the span route's level basis v (u = L^T v
        # is unit triangular in it) and on the chart route's elements (every
        # u_i is a combination of them): a Laplacian that fails on any one of
        # them, the last included, fails the verdict and leaves equality alone.
        h = stereographic_harmonic(2, "re")
        routes = [(h._replace(chart=()), rotation_span(h, 2).levels[-1]),
                  (h, chart_squares(h, 2)[2])]
        real = certificates._laplacian
        for family, checked_terms in routes:
            assert len(checked_terms) > 1
            for bad in checked_terms:
                checked = []

                def fails_on_bad(f, bad=bad):
                    image = real(f)
                    if isinstance(f, SphereFunction) and f == bad:
                        checked.append(f)
                        return image + bad
                    return image

                monkeypatch.setattr(certificates, "_laplacian", fails_on_bad)
                report = verify_certificate(family, 2, sample_count=1)
                assert len(checked) == 1
                assert report.equality_verified is True
                assert report.terms_harmonic is False

    def test_squares_match_the_full_product(self):
        # Each cross term once gives the value of term * term, in another term order.
        rng = random.Random(31)
        terms = [random_sphere_function(rng) for _ in range(30)]
        terms += [f.num.poly for f in terms] + [SphereFunction.zero(3), Polynomial.zero(4)]
        for term in terms:
            assert certificates._square(term) == term * term

    def test_a_square_past_the_degree_limit_fails_loudly(self):
        x = Polynomial.variable(2, 1)
        assert certificates._square(x**127) == x**254
        with pytest.raises(ValueError, match="packed-key limit"):
            certificates._square(x**128)


def span_fingerprint(span):
    return [[str(v) for v in level] for level in span.levels], span.matrices, span.denominators


def planar_terms():
    coefficient = st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool)
    term = st.tuples(st.integers(0, 4), st.sampled_from(["re", "im"]), coefficient)
    return st.lists(term, min_size=1, max_size=3)


def conjugate(h):
    """The harmonic conjugate Im f of h = Re f, from h's chart: the conjugate
    of c Re w^n is c Im w^n, and that of c Im w^n = Re(-i c w^n) is -c Re w^n."""
    return planar_combination([(n, "im", c) if part == "re" else (n, "re", -c)
                               for n, part, c in h.chart])


def rank(terms):
    if not terms:
        return 0
    return len(linalg.column_basis(certificates._coefficient_rows(terms), len(terms))[0])


def assert_squares_span_the_word_terms_and_their_conjugates(h, powers):
    """The chart route's squares span the length-k word terms of h and of its
    harmonic conjugate, by elimination over monomials: as many squares as
    that span has dimensions, and adding them to the terms keeps the rank."""
    top = max(powers)
    spans = rotation_span(h, top), rotation_span(conjugate(h), top)
    for k in powers:
        terms = spans[0].levels[k] + spans[1].levels[k]
        u = chart_squares(h, k)[1]
        assert len(u) == rank(terms) == rank(terms + u), k


WRONG_CHARTS = [
    ((2, "im", 1),), ((2, "re", 2),), ((2, "re", 1), (0, "re", 1)), ((1, "re", 1),),
    ((3, "re", 1),), ((0, "im", 1),),
]


class TestChartRoute:
    """The chart route (``chart_form`` through ``ldl_squares``) certifies an
    input with a chart by the Hermitian recursion: the span route over monomials and the closed form of
    tests/oracles.py are the references, and every wrong recursion, factor or
    square is caught by a check that runs on the functions."""

    def test_every_column_is_the_laplacian_applied_to_its_element(self):
        # One step from C^(0) = E_pq (a real or an imaginary unit) is the
        # Laplacian of Re or -Im of w^p wbar^q.
        for p in range(8):
            for q in range(8):
                for unit in ((1, 0), (0, 1)):
                    column = certificates.hermitian_form({(p, q): unit}, 1)
                    assert len(column) <= 3
                    assert all(type(x) is int for entry in column.values() for x in entry)
                    image = laplace_sphere(hermitian_sum({(p, q): unit}))
                    assert hermitian_sum(column) == image, (p, q, unit)

    @pytest.mark.parametrize("part", ["re", "im"])
    @pytest.mark.parametrize("K", [0, 1, 2, 3, 5])
    def test_the_span_is_the_elimination_span(self, K, part):
        # k = 0 takes the span route, which keeps the single square h (none for h = 0).
        h = stereographic_harmonic(K, part)
        assert span_squares(rotation_span(h, 0))[1] == ([] if h.value.is_zero() else [h.value])
        assert_squares_span_the_word_terms_and_their_conjugates(h, range(1, 7))

    @given(planar_terms(), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_planar_combinations_span_as_by_elimination(self, terms, k):
        h = planar_combination(terms)
        assert h.chart == tuple((n, part, Fraction(c)) for n, part, c in terms)
        assert_squares_span_the_word_terms_and_their_conjugates(h, [k])

    def test_a_combination_whose_top_terms_cancel_keeps_its_exponent(self):
        # Re w^3 + Re w - Re w^3 is Re w over (x3 - 1)^3: its certificate is Re w's.
        h = planar_combination([(3, "re", 1), (1, "re", 1), (3, "re", -1)])
        plain = planar_combination([(1, "re", 1)])
        assert h.value.exp == 3 and h.value == plain.value
        for k in range(4):
            report = verify_certificate(h, k, sample_count=5)
            assert report.passed, k
            assert report._replace(family="", wall_time=0) == verify_certificate(
                plain, k, sample_count=5)._replace(family="", wall_time=0)

    @pytest.mark.parametrize("K, part", [(1, "re"), (3, "im")])
    def test_reports_match_the_elimination_route(self, K, part):
        # Verdicts, samples and counts agree but for the squares: below
        # k = K + 1 the conjugate's word terms are not yet in h's span.
        h = stereographic_harmonic(K, part)
        for k in range(5):
            chart = verify_certificate(h, k, sample_count=5)
            plain = verify_certificate(h._replace(chart=()), k, sample_count=5)
            assert chart._replace(wall_time=0, span_dimension=0) == plain._replace(
                wall_time=0, span_dimension=0)
            assert chart.passed
            assert chart.square_count >= plain.square_count
            assert (chart.square_count == plain.square_count) is (k == 0 or k > K), k

    @pytest.mark.parametrize("terms", [[(2, "re", 1)],
                                       [(3, "re", 1), (1, "im", 2), (2, "re", Fraction(1, 3))]])
    def test_an_entry_of_c_changed_by_one_never_passes(self, monkeypatch, terms):
        # A changed diagonal entry keeps M semidefinite and breaks equality;
        # a changed Hermitian pair breaks equality or leaves M without LDL
        # factors, an engine fault.  No change passes.
        h = planar_combination(terms)
        real = certificates.hermitian_form
        entries = {}
        monkeypatch.setattr(certificates, "hermitian_form",
                            lambda form, k: entries.update(real(form, k)) or real(form, k))
        chart_form(h.chart, 2)
        for p, q in [key for key in entries if key[0] <= key[1]]:
            for da, db in ((1, 0), (0, 1)) if p != q else ((1, 0),):

                def changed(form, k, p=p, q=q, da=da, db=db):
                    form = dict(real(form, k))
                    for key, sign in {(p, q): 1, (q, p): -1}.items():
                        a, b = form.get(key, (0, 0))
                        form[key] = (a + da, b + sign * db)
                    return form

                monkeypatch.setattr(certificates, "hermitian_form", changed)
                try:
                    report = verify_certificate(h, 2, sample_count=1)
                except linalg.EngineFault:
                    assert p != q
                    continue
                assert report.equality_verified is False, (p, q, da, db)

    def test_a_changed_entry_exits_1(self, monkeypatch, tmp_path):
        from sphere_sos.cli import main

        real = certificates.hermitian_form

        def changed(form, k):
            form = dict(real(form, k))
            a, b = form[2, 2]
            form[2, 2] = (a + 1, b)
            return form

        monkeypatch.setattr(certificates, "hermitian_form", changed)
        argv = ["certify", "--family", "stereo:k=2:re", "--power", "2", "--samples", "3",
                "--output", str(tmp_path / "report.json")]
        assert main(argv) == 1

    @pytest.mark.parametrize("change", ["negative pivot", "zero pivot, nonzero row"])
    def test_a_real_form_without_ldl_factors_is_an_engine_fault(self, monkeypatch, capsys,
                                                                change):
        # For Re w^2 + Re w, C^(1) couples the top power 3 to 2: a zero there
        # leaves a nonzero row.  The top diagonal entry of a single power,
        # negated, is a negative pivot.
        from sphere_sos.cli import main

        real = certificates.hermitian_form

        def broken(form, k):
            form = dict(real(form, k))
            top = max(p for p, _ in form)
            a, b = form[top, top]
            form[top, top] = (-a if change == "negative pivot" else 0, b)
            return form

        monkeypatch.setattr(certificates, "hermitian_form", broken)
        h = planar_combination([(2, "re", 1), (1, "re", 1)])
        with pytest.raises(linalg.EngineFault, match="no LDL factors"):
            verify_certificate(h, 1, sample_count=1)
        if change == "negative pivot":
            assert main(["certify", "--family", "stereo:k=2:re", "--power", "2"]) == 3
            assert "engine fault" in capsys.readouterr().err

    def test_dropping_any_square_breaks_equality(self, monkeypatch):
        # At k = 1 the real form of a mixed combination is singular: the
        # squares are its positive pivots only, and each one counts.
        h = planar_combination([(3, "re", 1), (1, "im", 2), (2, "re", Fraction(1, 3))])
        count = verify_certificate(h, 1, sample_count=1).square_count
        assert 1 < count < 2 * (3 + 1) + 1
        real = _weighted_sum
        for i in range(count):
            monkeypatch.setattr(
                certificates, "_weighted_sum",
                lambda squares, k, i=i: real(squares[:i] + squares[i + 1:], k),
            )
            assert verify_certificate(h, 1, sample_count=1).equality_verified is False

    @pytest.mark.parametrize("chart", WRONG_CHARTS)
    def test_a_chart_that_is_not_the_value_is_refused(self, chart):
        h = stereographic_harmonic(2, "re")._replace(chart=chart)
        with pytest.raises(ValueError, match="does not give the function"):
            verify_certificate(h, 2, sample_count=1)

    def test_a_wrong_chart_is_refused_at_power_zero(self):
        # k = 0 takes the span route, but the chart is checked before a route is chosen.
        for chart in WRONG_CHARTS:
            h = stereographic_harmonic(2, "re")._replace(chart=chart)
            with pytest.raises(ValueError, match="does not give the function"):
                verify_certificate(h, 0, sample_count=1)

    def test_power_zero_takes_the_span_route(self, monkeypatch):
        # Re(f^2) / 2 is not killed at k = 0, so the real form of C^(0) is not h^2's.
        h = stereographic_harmonic(2, "re")
        with pytest.raises(ValueError, match="needs k >= 1"):
            chart_form(h.chart, 0)

        def no_chart_route(chart, k):
            raise AssertionError("chart_form ran")

        monkeypatch.setattr(certificates, "chart_form", no_chart_route)
        report = verify_certificate(h, 0, sample_count=1)
        assert report.passed and report.square_count == 1


class TestCoefficientRows:
    def test_a_term_without_denominator_is_lifted_to_the_common_base(self):
        # A polynomial term (exponent 0) next to terms over x3 - 1: its column
        # is its numerator times the base's power, as if written over it.
        h = stereographic_harmonic(2, "re").value
        p = SpherePolynomial(var(3, 2) + Polynomial.one(3))
        g = SphereFunction.from_polynomial(p)
        lifted = SphereFunction._make(p * h.base**h.exp, h.base, h.exp, canonical=True)
        rows = certificates._coefficient_rows([h, g])
        assert rows == certificates._coefficient_rows([h, lifted])
        assert len(linalg.column_basis(rows)[0]) == 2
        assert len(linalg.column_basis(certificates._coefficient_rows([h, g, h + g]))[0]) == 2


class TestGramFault:
    def test_a_gram_matrix_without_ldl_factors_is_an_engine_fault(self):
        span = rotation_span(stereographic_harmonic(2, "re"), 2)
        gram, den = gram_matrix(span)
        negated = [[-x for x in row] for row in gram]
        with pytest.raises(linalg.EngineFault, match="no LDL factors"):
            ldl_squares(negated, den, span.levels[-1])

    def test_a_zero_pivot_on_the_span_route_is_an_engine_fault(self, monkeypatch):
        # The last row and column set to zero leave a semidefinite form that
        # ldl factors with one zero pivot: one square fewer than the span has
        # dimensions, which the word terms' Gram matrix never gives.
        real = gram_matrix

        def singular(span):
            gram, den = real(span)
            return [row[:-1] + [0] for row in gram[:-1]] + [[0] * len(gram)], den

        monkeypatch.setattr(certificates, "gram_matrix", singular)
        h = stereographic_harmonic(2, "re")._replace(chart=())
        with pytest.raises(linalg.EngineFault, match="zero pivot"):
            verify_certificate(h, 2, sample_count=1)


def stored(v):
    """Every stored piece of a square: its term order, denominators and exponent."""
    if isinstance(v, Polynomial):
        return list(v.numerators.items()), v.denominator
    return stored_form(v)


def assert_the_tail_gives_the_fraction_route(span):
    gram, den = gram_matrix(span)
    assert all(type(x) is int for row in gram for x in row) and type(den) is int and den > 0
    weights, u, used = span_squares(span)
    reference_weights, reference_u = gram_squares_by_fractions(gram, den, span.levels[-1])
    assert weights == reference_weights
    assert all(type(d) is Fraction and d > 0 for d in weights)
    assert [stored(v) for v in u] == [stored(v) for v in reference_u]
    assert len(used) == span.dimension and all(a is b for a, b in zip(used, span.levels[-1]))


# Square counts for k = 0..6, as the two routes gave them with their own
# factoring code: the chart route's at k >= 1, the span route's otherwise.
CHARTED_COUNTS = {0: [1, 0, 0, 0, 0, 0, 0], 1: [1, 5, 7, 9, 11, 13, 15],
                  2: [1, 6, 9, 11, 13, 15, 17], 3: [1, 6, 10, 13, 15, 17, 19]}
PLAIN_COUNTS = {0: [1, 0, 0, 0, 0, 0, 0], 1: [1, 3, 7, 9, 11, 13, 15],
                2: [1, 3, 8, 11, 13, 15, 17], 3: [1, 3, 8, 12, 15, 17, 19]}


def square_counts(h, powers=range(7)):
    reports = [verify_certificate(h, k, sample_count=1) for k in powers]
    assert all(r.square_count == r.span_dimension for r in reports)
    return [r.square_count for r in reports]


class TestOneTail:
    """ldl_squares factors both routes' Gram forms.  On the span route it
    gives what ldl on the Gram matrix as Fractions over its denominator gave
    (``oracles.gram_squares_by_fractions``), and no square count moves."""

    @pytest.mark.parametrize("part", ["re", "im"])
    @pytest.mark.parametrize("K", [0, 1, 2, 3])
    def test_stereographic_spans_give_the_fraction_route(self, K, part):
        h = stereographic_harmonic(K, part)
        for k in range(5):
            assert_the_tail_gives_the_fraction_route(rotation_span(h, k))

    def test_the_control_and_a_euclidean_harmonic_give_the_fraction_route(self):
        x3 = SphereFunction.from_polynomial(SpherePolynomial(var(3, 3)))
        control = HarmonicFunction(value=x3, domain=CapDomain(), provenance="control:x3")
        p = harmonic_combination(4, 3)
        for k in range(5):
            assert_the_tail_gives_the_fraction_route(rotation_span(control, k))
            assert_the_tail_gives_the_fraction_route(word_span(p, k, partials(p.m)))

    @pytest.mark.parametrize("part", ["re", "im"])
    @pytest.mark.parametrize("K", [0, 1, 2, 3])
    def test_stereographic_square_counts_are_unchanged(self, K, part):
        h = stereographic_harmonic(K, part)
        zero = [0] * 7
        assert square_counts(h) == (CHARTED_COUNTS[K] if K or part == "re" else zero)
        assert square_counts(h._replace(chart=())) == (PLAIN_COUNTS[K] if K or part == "re"
                                                        else zero)

    def test_other_square_counts_are_unchanged(self):
        h = planar_combination([(3, "re", 1), (1, "im", 2), (2, "re", Fraction(1, 3))])
        assert square_counts(h) == [1, 6, 11, 13, 15, 17, 19]
        assert square_counts(h._replace(chart=())) == [1, 3, 8, 13, 15, 17, 19]
        x3 = SphereFunction.from_polynomial(SpherePolynomial(var(3, 3)))
        control = HarmonicFunction(value=x3, domain=CapDomain(), provenance="control:x3")
        assert square_counts(control) == [1, 2, 3, 3, 3, 3, 3]
        for (m, d), counts in (((3, 2), [1, 3, 1, 0, 0, 0, 0]), ((4, 3), [1, 3, 3, 1, 0, 0, 0])):
            basis = generate_harmonic_basis(m, d)
            p = basis[0] + basis[-1].scale(2)
            assert [euclid_certificate(p, k, grid=2).square_count for k in range(7)] == counts


class TestBadPivotPrime:
    """A pivot prime that divides a level's minor loses rank or moves a pivot
    modulo p; the exact check fails and the level is eliminated on every row."""

    @pytest.fixture
    def failed_checks(self, monkeypatch):
        real, failures = linalg._spans, []

        def counted(rows, pivots, coords, den):
            ok = real(rows, pivots, coords, den)
            if not ok:
                failures.append(pivots)
            return ok

        monkeypatch.setattr(linalg, "_spans", counted)
        return failures

    @pytest.mark.parametrize("part", ["re", "im"])
    @pytest.mark.parametrize("prime", [2, 3, 5])
    def test_spans_and_reports_do_not_change(self, monkeypatch, tmp_path, failed_checks,
                                             part, prime):
        from sphere_sos.cli import main

        h = stereographic_harmonic(3, part)
        family = ["--family", f"stereo:k=3:{part}", "--power", "5", "--samples", "20"]
        good = rotation_span(h, 6)
        # The CLI certifies h on its chart; the copy without it runs the span route.
        good_report = verify_certificate(h._replace(chart=()), 5, sample_count=20)
        assert main(["certify", *family, "--output", str(tmp_path / "good.json")]) == 0
        assert failed_checks == []
        monkeypatch.setattr(linalg, "PIVOT_PRIME", prime)
        assert span_fingerprint(rotation_span(h, 6)) == span_fingerprint(good)
        bad_report = verify_certificate(h._replace(chart=()), 5, sample_count=20)
        assert bad_report._replace(wall_time=0) == good_report._replace(wall_time=0)
        assert main(["certify", *family, "--output", str(tmp_path / "bad.json")]) == 0
        assert (tmp_path / "bad.json").read_bytes() == (tmp_path / "good.json").read_bytes()
        if prime != 3:
            # Modulo 2 and 5 some stereo:k=3 levels lose rank, so the fallback ran.
            assert failed_checks

    def test_a_corrupted_coordinate_on_the_full_path_raises(self, monkeypatch, failed_checks):
        monkeypatch.setattr(linalg, "PIVOT_PRIME", 2)
        real = linalg._coordinates

        def corrupt_after_a_failed_check(rows):
            pivots, coords, den = real(rows)
            if failed_checks:  # the answer on the pivot rows mod 2 failed: the full path
                coords[-1] = [x + 1 for x in coords[-1]]
            return pivots, coords, den

        monkeypatch.setattr(linalg, "_coordinates", corrupt_after_a_failed_check)
        with pytest.raises(RuntimeError, match="span coordinates"):
            rotation_span(stereographic_harmonic(3, "re"), 4)
        assert len(failed_checks) == 2


class TestGeneralizedLeibniz:
    def test_on_random_non_harmonic_functions(self):
        # Delta(f^2) = 2 f Delta f + 2 sum (X_ij f)^2 without any harmonicity.
        rng = random.Random(909)
        for _ in range(50):
            f = random_sphere_function(rng)
            lhs = laplace_sphere(f * f)
            rhs = f * laplace_sphere(f) * Fraction(2)
            for field in rotation_fields(3):
                d = apply_rotation_field(field, f)
                rhs = rhs + (d * d).scale(2)
            assert lhs == rhs


class TestEuclideanCertificates:
    def test_m2_power_sequence(self):
        p = var(2, 1) ** 2 - var(2, 2) ** 2
        sq = p * p
        assert delta_power(sq, 1) == 8 * (var(2, 1) ** 2 + var(2, 2) ** 2)
        assert delta_power(sq, 2) == Polynomial.constant(2, 32)
        assert delta_power(sq, 3).is_zero()

    def test_linear_case(self):
        p = var(3, 1)
        assert delta_power(p * p, 1) == Polynomial.constant(3, 2)
        assert delta_power(p * p, 2).is_zero()

    def test_constant_case(self):
        p = Polynomial.constant(3, 5)
        for k in (1, 2, 3):
            assert delta_power(p * p, k).is_zero()

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_certificate_equality_on_harmonic_basis(self, m, k):
        from sphere_sos.sphere_ops import generate_harmonic_basis

        for d in range(4):
            for p in generate_harmonic_basis(m, d):
                report = euclid_certificate(p, k, grid=3)
                assert report.equality_verified
                assert report.all_samples_nonnegative
                assert report.passed

    def test_non_harmonic_rejected(self):
        with pytest.raises(ValueError):
            euclid_certificate(var(2, 1) ** 2, 1)

    def test_a_one_point_grid_samples_the_origin_only(self):
        report = euclid_certificate(var(2, 1) * var(2, 2), 2, grid=1)
        assert [s.point for s in report.samples] == [(0, 0)]
        assert report.passed

    @pytest.mark.parametrize("grid", [0, -5])
    def test_empty_grid_rejected(self, grid):
        # A grid below one point would sample the origin alone and pass.
        with pytest.raises(ValueError, match="grid >= 1"):
            euclid_certificate(var(2, 1), 1, grid=grid)

    def test_term_count(self):
        p = var(3, 1)
        report = euclid_certificate(p, 2, grid=2)
        assert isinstance(report, CertificateReport)
        assert report.family == "euclid:m=3"
        assert report.term_count == report.expected_term_count == 9
        assert report.terms_harmonic


class TestEuclideanNegativeControls:
    """The shared engine reaches a false verdict on R^m: run directly, it
    takes a field set or a start term that euclid_certificate would refuse."""

    def run(self, p, k, fields):
        points = [(Fraction(1), Fraction(1))]
        return certificates._certificate(p, k, fields, points, "control", 0, 0.0)

    def test_missing_field_breaks_equality(self):
        # Delta(x1^2 x2^2) = 2 x1^2 + 2 x2^2, but d_1 alone gives 2 x2^2.
        report = self.run(var(2, 1) * var(2, 2), 1, partials(2)[:1])
        assert not report.equality_verified
        assert not report.passed

    def test_non_harmonic_square_is_named(self):
        # k = 0: the one square is p itself, so equality holds and Delta p = 2.
        report = self.run(var(2, 1) ** 2, 0, partials(2))
        assert report.equality_verified
        assert not report.terms_harmonic
        assert not report.passed


class TestEuclideanSpanRoute:
    """euclid_certificate runs on the span of the m^k word terms; the word
    route of tests/oracles.py (one square per word) is the reference."""

    @pytest.mark.parametrize("d", range(7))
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_matches_the_word_route(self, m, d):
        p = harmonic_combination(m, d)
        assert not p.is_zero()
        square = p * p
        for k in range(7):
            report = euclid_certificate(p, k, grid=2)
            assert report.passed, k
            assert report.term_count == m**k
            word_rhs = euclid_word_rhs(p, k)
            assert euclid_span_rhs(p, k) == word_rhs == delta_power(square, k), k
            assert word_rhs.is_zero() is (k > d)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_zero_has_an_empty_span(self, m):
        p = Polynomial.zero(m)
        for k in range(7):
            report = euclid_certificate(p, k, grid=2)
            assert report.passed and report.equality_verified
            assert report.term_count == m**k
            assert word_span(p, k, partials(m)).dimension == 0
            assert euclid_span_rhs(p, k).is_zero() and euclid_word_rhs(p, k).is_zero()

    def test_levels_are_the_independent_partials(self):
        # Level j of x1^2 - x2^2 is spanned by its order-j partials.
        p = var(2, 1) ** 2 - var(2, 2) ** 2
        span = word_span(p, 3, partials(2))
        first = [2 * var(2, 1), -2 * var(2, 2)]
        assert span.levels == [[p], first, [Polynomial.constant(2, 2)], []]
        # d1 and d2 take first to [2] and [-2]: the coordinates [1, 0], [0, -1] over 1.
        assert span.matrices[1] == [[[1, 0]], [[0, -1]]]
        assert span.denominators == [1, 1, 1]

    def test_deep_certificate(self):
        # 4^8 = 65,536 words; the span route lists none of them.
        basis = generate_harmonic_basis(4, 8)
        report = euclid_certificate(basis[0] + basis[-1], 8, grid=2)
        assert report.passed
        assert report.term_count == 4**8

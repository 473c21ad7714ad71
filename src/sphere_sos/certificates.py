"""Sum-of-squares certificates for powers of the Laplacian on h^2.

For a harmonic h the k-th spherical Laplacian power of h^2 equals
2^k times the sum of (X_w h)^2 over all length-k words w in the rotation
fields; every word term is again harmonic because the fields commute with the
Laplacian.  ``verify_certificate`` proves the identity on the span of the
terms, never listing the 3^k words (the Gram-matrix form of a sum of squares,
Parrilo 2003):

  * level by level, the fields are applied to a basis of the span of the
    length-(j-1) terms; exact elimination keeps the first independent images
    as the level-j basis and reads off each field's exact matrix A_a, which
    is re-checked on every image;
  * the sum of the squared terms is then v^T G_k v over the level-k basis v,
    with G_0 = [1] and G_j = sum_a A_a G_(j-1) A_a^T;
  * G_k = L diag(d) L^T exactly, every d_i > 0, so the right-hand side is
    2^k sum_i d_i u_i^2 with u = L^T v: as many squares as the span has
    dimensions (2(K + k) + 1 at most for the stereographic family of degree
    K), where the word route has 3^k.

Since L^T is invertible and every basis element is a word term, the u_i are
all harmonic exactly when every word term is.  Equality is verified exactly
(cross-multiplication in the quotient field) and nonnegativity is then
re-checked by exact rational sign tests at deterministic sample points on the
cap, drawn first (a count below 1 fails before any certificate work) and
built and evaluated in integers.  Both statements run one engine: with the
coordinate partials as fields, ``euclid_certificate`` runs the same stages on
a harmonic polynomial of R^m and returns the same report, ``terms_harmonic``
included (checked against the Euclidean Laplacian).
"""

from __future__ import annotations

import functools
import math
import operator
import time
from fractions import Fraction
from itertools import product
from typing import Callable, NamedTuple, Sequence

from . import linalg
from .harmonics import HarmonicFunction
from .linalg import Matrix
from .polynomials import (
    DEFAULT_SAMPLE_COUNT,
    DEFAULT_SEED,
    DEGREE_LIMIT,
    Polynomial,
    SphereFunction,
    SpherePolynomial,
    _multiply_into,
    laplace_euclid,
    sample_cap_points,
)
from .sphere_ops import apply_rotation_field, laplace_sphere, rotation_fields


class SamplePoint(NamedTuple):
    point: tuple[Fraction, ...]
    value: Fraction

    @property
    def nonnegative(self) -> bool:
        return self.value >= 0


class CertificateReport(NamedTuple):
    """Outcome of verifying one (h, k) pair.

    ``expected_term_count`` is bookkeeping: the field count to the k-th power,
    which ``term_count`` equals by construction, so it takes no part in
    ``passed``.
    """

    family: str
    k: int
    term_count: int
    expected_term_count: int
    equality_verified: bool
    terms_harmonic: bool
    samples: Sequence[SamplePoint] = ()
    seed: int = DEFAULT_SEED
    wall_time: float = 0.0
    span_dimension: int = 0
    square_count: int = 0

    @property
    def all_samples_nonnegative(self) -> bool:
        return all(s.nonnegative for s in self.samples)

    @property
    def passed(self) -> bool:
        return self.equality_verified and self.terms_harmonic and self.all_samples_nonnegative


def _laplacian(f: Polynomial | SphereFunction) -> Polynomial | SphereFunction:
    # Both Laplacians are looked up when called, so a wrapper installed on
    # this module runs (the benchmark tracer counts laplace_sphere this way).
    return laplace_euclid(f) if isinstance(f, Polynomial) else laplace_sphere(f)


def delta_power(f: Polynomial | SphereFunction, k: int) -> Polynomial | SphereFunction:
    """k-fold Laplacian, exact: Euclidean on a Polynomial, spherical on a
    SphereFunction."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    for _ in range(k):
        f = _laplacian(f)
    return f


def _weighted_sum(squares: Sequence[Polynomial | SphereFunction], k: int):
    """2^k times the sum of the squares, accumulated in the order given."""
    if not squares:
        raise ValueError("certificate needs at least one term")
    total = None
    for sq in squares:
        total = sq if total is None else total + sq
    return total.scale(Fraction(2) ** k)


def _square_and_harmonicity(term: Polynomial | SphereFunction):
    """(term^2, whether term is harmonic).  The square of the numerator adds
    each cross term 2 c_a c_b once, in a term order that no certificate
    output depends on (``term * term`` keeps the order of the full product)."""
    p = term if isinstance(term, Polynomial) else term.num.poly
    if 2 * p.degree() > DEGREE_LIMIT:
        raise ValueError(f"square degree exceeds the packed-key limit {DEGREE_LIMIT}")
    items = list(p.numerators.items())
    twice = [(e, 2 * c) for e, c in items]
    out = {e + e: c * c for e, c in items}
    for i, item in enumerate(items):
        _multiply_into(out, (item,), twice[i + 1 :])
    square = Polynomial.from_numerators(p.m, out, p.denominator**2)
    if isinstance(term, SphereFunction):
        square = SphereFunction._make(SpherePolynomial(square), term.base, 2 * term.exp, True)
    return square, _laplacian(term).is_zero()


def _map_ordered(fn: Callable, items: Sequence) -> list:
    # A plain in-order map, kept as a named function because the benchmark
    # tracer times the square/harmonicity stage through it.
    return [fn(item) for item in items]


# ----------------------------------------------------------------------
# the span of the word terms and its Gram matrix
# ----------------------------------------------------------------------


class WordSpan(NamedTuple):
    """Bases of the spans of the word terms of a start term s, level by level.

    ``levels[j]`` is a basis of the span of the length-j terms Y_w s
    (``levels[0]`` is [s], or [] when s = 0).  ``matrices[j - 1][a]`` is the
    exact matrix of field a from level j - 1 to level j: Y_a applied to
    ``levels[j - 1][i]`` is the sum over r of ``A[r][i] * levels[j][r]``.
    ``term_count`` is the number of words, the product of the field counts
    over the levels.
    """

    levels: list[list[Polynomial | SphereFunction]]
    matrices: list[list[Matrix]]
    term_count: int

    @property
    def dimension(self) -> int:
        return len(self.levels[-1])


def _coefficient_rows(funcs: Sequence[Polynomial | SphereFunction]) -> list[list[int]]:
    """One column per function, one row per monomial: the coefficients of
    the polynomials, as integers over the lcm of their denominators.
    Polynomials are taken as they are; sphere functions by their numerators
    over one common denominator base^e.  Normal forms are unique and base^e
    is a fixed nonzero function, so the linear relations among the columns
    are exactly those among the functions."""
    polys = funcs
    if funcs and isinstance(funcs[0], SphereFunction):
        bases = [f.base for f in funcs if f.exp > 0]
        if any(b != bases[0] for b in bases[1:]):
            raise ValueError("certificate terms do not share one denominator base")
        e = max(f.exp for f in funcs)
        polys = [
            f.num.poly if f.exp == e else (f.num * bases[0] ** (e - f.exp)).poly for f in funcs
        ]
    den = math.lcm(*(p.denominator for p in polys))
    columns = [(p.numerators, den // p.denominator) for p in polys]
    monomials = sorted({mono for p in polys for mono in p.numerators})
    return [[nums.get(mono, 0) * scale for nums, scale in columns] for mono in monomials]


def word_span(
    start: Polynomial | SphereFunction, k: int, fields: Sequence[Callable]
) -> WordSpan:
    """Exact bases of the spans of the length-0..k word terms of start, and
    the field matrices between them.  Each field is a callable that maps a
    term to its image; images are taken field by field, and each level keeps
    the first independent ones."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    basis = [] if start.is_zero() else [start]
    levels, matrices, term_count = [basis], [], 1
    for _ in range(k):
        images = [field(v) for field in fields for v in basis]
        rows = _coefficient_rows(images)
        pivots, coords = linalg.column_basis(rows, len(images))
        n = len(basis)
        matrices.append(
            [
                [[coords[a * n + i][r] for i in range(n)] for r in range(len(pivots))]
                for a in range(len(fields))
            ]
        )
        basis = [images[c] for c in pivots]
        levels.append(basis)
        term_count *= len(fields)
    return WordSpan(levels=levels, matrices=matrices, term_count=term_count)


def gram_matrix(span: WordSpan) -> Matrix:
    """G_k with sum over words w of (Y_w s)^2 = v^T G_k v on the level-k basis
    v: G_0 = [1] on the basis [s], G_j = sum_a A_a G_(j-1) A_a^T.

    Runs in integers: G_j is an integer matrix over one denominator, and each
    level's field matrices are scaled to integers by one common factor q, so
    G_j takes the denominator of G_(j-1) times q^2.
    """
    gram, den = [[1] for _ in span.levels[0]], 1
    for field_matrices in span.matrices:
        q = math.lcm(*(x.denominator for a in field_matrices for row in a for x in row))
        n = len(field_matrices[0])
        total = [[0] * n for _ in range(n)]
        for a in field_matrices:
            a = [[x.numerator * (q // x.denominator) for x in row] for row in a]
            # G is symmetric, so its rows are its columns.
            ag = [[sum(map(operator.mul, row, col)) for col in gram] for row in a]
            for r in range(n):
                for s in range(r, n):
                    total[r][s] += sum(map(operator.mul, ag[r], a[s]))
        for r in range(n):
            for s in range(r):
                total[r][s] = total[s][r]
        gram, den = total, den * q * q
    return [[Fraction(x, den) for x in row] for row in gram]


def gram_squares(
    span: WordSpan, gram: Matrix
) -> tuple[list[Fraction], list[Polynomial | SphereFunction]]:
    """(d, u) with v^T G v = sum_i d_i u_i^2, from G = L diag(d) L^T and
    u = L^T v on the level-k basis v.

    G is the Gram matrix of the word terms, which include the basis itself,
    so it is positive definite; a pivot d_i <= 0, on which ``linalg.ldl``
    raises ValueError, is an engine bug and raises EngineFault.
    """
    try:
        lower, pivots = linalg.ldl(gram)
    except ValueError as exc:
        raise linalg.EngineFault(f"the Gram matrix has no LDL factors: {exc}") from exc
    basis = span.levels[-1]
    u = []
    for i, v in enumerate(basis):
        for r in range(i + 1, len(basis)):
            if lower[r][i]:
                v = v + basis[r].scale(lower[r][i])
        u.append(v)
    return pivots, u


def _certificate(
    f: Polynomial | SphereFunction,
    k: int,
    fields: Sequence[Callable],
    points: Sequence[tuple[Fraction, ...]],
    family: str,
    seed: int,
    start: float,
) -> CertificateReport:
    """The certificate stages of S^(m-1) and R^m, for the word terms of f in
    the fields; ``wall_time`` runs from the perf_counter reading ``start``."""
    lhs = delta_power(f * f, k)
    span = word_span(f, k, fields)
    weights, u = gram_squares(span, gram_matrix(span))
    per_square = _map_ordered(_square_and_harmonicity, u)
    squares = [sq.scale(d) for d, (sq, _) in zip(weights, per_square)]
    rhs = _weighted_sum(squares, k) if squares else type(f).zero(f.m)
    equality = lhs == rhs
    terms_harmonic = all(flag for _, flag in per_square)
    samples = [SamplePoint(point=pt, value=lhs.evaluate(pt)) for pt in points]
    return CertificateReport(
        family=family,
        k=k,
        term_count=span.term_count,
        expected_term_count=len(fields) ** k,
        equality_verified=equality,
        terms_harmonic=terms_harmonic,
        samples=samples,
        seed=seed,
        wall_time=time.perf_counter() - start,
        span_dimension=span.dimension,
        square_count=len(squares),
    )


def verify_certificate(
    h: HarmonicFunction,
    k: int,
    sample_count: int = DEFAULT_SAMPLE_COUNT,
    seed: int = DEFAULT_SEED,
) -> CertificateReport:
    """Exact equality of delta_power(h^2, k) with its certificate, plus signs.

    The right-hand side 2^k sum_w (X_w h)^2 is built on the span of the word
    terms as 2^k sum_i d_i u_i^2 (see the module docstring); k = 0 is the
    single empty word with term h itself.  An equality failure or a negative
    sample is recorded in the report, never dropped.
    """
    if h.m != 3:
        raise ValueError(f"sample_cap_points draws points on S^2 only, got ambient dimension {h.m}")
    start = time.perf_counter()
    points = sample_cap_points(sample_count, seed)
    # Bound when the certificate runs, so the fields call apply_rotation_field
    # as this module holds it then (the benchmark tracer wraps it).
    fields = [functools.partial(apply_rotation_field, field) for field in rotation_fields(h.m)]
    return _certificate(h.value, k, fields, points, h.provenance, seed, start)


def euclid_certificate(p: Polynomial, k: int, grid: int = 5) -> CertificateReport:
    """Certificate for the Euclidean power statement on a harmonic polynomial.

    Checks laplace_euclid^k (p^2) == 2^k * sum over the m^k length-k words in
    the coordinate partials of (d_w p)^2, exactly, then sign-tests the left
    side on a rational grid in [-1, 1]^m.  The partials commute with the
    Laplacian, so the stages are those of ``verify_certificate``, and the
    report is a ``CertificateReport`` with family ``euclid:m=M``.  The grid
    draws nothing at random, so ``seed`` keeps its default.
    """
    if not laplace_euclid(p).is_zero():
        raise ValueError("euclid_certificate needs a Euclidean-harmonic polynomial")
    if grid < 1:
        raise ValueError(f"need grid >= 1, got {grid}")
    start = time.perf_counter()
    steps = [Fraction(2 * i, grid - 1) - 1 for i in range(grid)] if grid > 1 else [Fraction(0)]
    points = list(product(steps, repeat=p.m))
    fields = [operator.methodcaller("partial", i) for i in range(1, p.m + 1)]
    return _certificate(p, k, fields, points, f"euclid:m={p.m}", DEFAULT_SEED, start)

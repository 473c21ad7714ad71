"""Sum-of-squares certificates for powers of the Laplacian on h^2.

For a harmonic h the k-th spherical Laplacian power of h^2 equals
2^k times the sum of (X_w h)^2 over all length-k words w in the rotation
fields; every word term is again harmonic because the fields commute with the
Laplacian.  ``verify_certificate`` proves the identity as 2^k sum_i d_i u_i^2
with every d_i > 0 and every u_i harmonic, never listing the 3^k words, by
one of two routes.

The span route (the Gram-matrix form of a sum of squares, Parrilo 2003)
serves every input:

  * level by level, the fields are applied to a basis of the span of the
    length-(j-1) terms; exact elimination keeps the first independent images
    as the level-j basis and reads off each field's exact matrix A_a, which
    is re-checked on every image;
  * the sum of the squared terms is then v^T G_k v over the level-k basis v,
    with G_0 = [1] and G_j = sum_a A_a G_(j-1) A_a^T;
  * G_k = L diag(d) L^T exactly, so u = L^T v: as many squares as the span
    has dimensions (2(K + k) + 1 at most for the stereographic family of
    degree K), where the word route has 3^k.

Harmonicity is checked on the basis v itself: L^T is unit upper triangular,
so the u_i are all harmonic exactly when the v_i are, and every v_i is a word
term and every word term a combination of them.

The chart route serves an input that carries its coordinates in the chart
w = (x1 + i x2)/(1 - x3) (``HarmonicFunction.chart``: the stereographic
family and its planar combinations).  Such an h is Re f, f = sum_n b_n w^n
with b_n in Q(i), as Im(c w^n) = Re(-i c w^n):

  * the round metric is 4 |dw|^2 / (1 + |w|^2)^2, so the Laplacian is
    (1 + |w|^2)^2 d dbar: it takes w^p wbar^q to
    pq (w^(p-1) wbar^(q-1) + 2 w^p wbar^q + w^(p+1) wbar^(q+1));
  * h^2 = Re(f^2) / 2 + |f|^2 / 2 and dbar kills the holomorphic f^2, so for
    k >= 1 Delta^k(h^2) = 1/2 sum_pq C_pq w^p wbar^q, with C^(0) = b b* and
    C^(j+1)_pq = (p+1)(q+1) C_(p+1,q+1) + 2pq C_pq + (p-1)(q-1) C_(p-1,q-1)
    in integers over one denominator (``hermitian_form``);
  * C = A + iB is Hermitian (A symmetric, B antisymmetric), so with
    x_p = Re w^p and y_p = Im w^p the cross terms of (x + iy)^T C (x - iy)
    cancel: the sum is x^T A x + 2 x^T B y + y^T A y, the quadratic form of
    M = [[A, B], [B^T, A]] on the elements Re w^p and Im w^p (Im w^0 = 0
    is left out);
  * M = L diag(d) L^T exactly (``linalg.ldl`` skips a zero pivot whose row
    is zero: M is only semidefinite when k is small against the spread of
    the degrees), and u_i = sum_r L_ri e_r over the elements e_r.

No word term, level or field matrix is built; k = 0 keeps the single square
h.  Harmonicity is checked on the elements whose row of M is nonzero: a zero
row stays zero in elimination, so every u_i is a combination of them.  The
square count is the rank of M, the dimension of the span of the word terms
of h and of its harmonic conjugate Im f: in the chart each rotation field
acts on f as a holomorphic field V_a, and X_w Re f = Re(V_w f).

Either route only builds the right-hand side: equality, the signs of the d_i
and harmonicity are checked on the functions, so a wrong span or recursion
can only turn a true verdict false.  A chart that does not give its function
is refused with ValueError.  The squares are added in ascending denominator
exponent.  Equality is verified exactly (cross-multiplication in the
quotient field) and nonnegativity is then re-checked by exact rational sign
tests at deterministic sample points on the cap, drawn first (a count below
1 fails before any certificate work) and built and evaluated in integers.
Both statements run one engine: with the coordinate partials as fields,
``euclid_certificate`` runs the span route on a harmonic polynomial of R^m
and returns the same report, ``terms_harmonic`` included (checked against
the Euclidean Laplacian).
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
    Polynomial,
    SpherePolynomial,
    laplace_euclid,
)
from .quotients import SphereFunction, sample_cap_points
from .sphere_ops import apply_rotation_field, laplace_sphere, rotation_fields


class SamplePoint(NamedTuple):
    point: tuple[Fraction, ...]
    value: Fraction

    @property
    def nonnegative(self) -> bool:
        return self.value >= 0


class CertificateReport(NamedTuple):
    """Outcome of verifying one (h, k) pair.

    ``term_count`` is bookkeeping: the field count to the k-th power, the
    number of words, so it takes no part in ``passed``.  The certificate has
    one square per positive pivot, so ``square_count`` is ``span_dimension``:
    the dimension of the level-k span on the span route and the rank of the
    real form M on the chart route (module docstring).
    """

    family: str
    k: int
    term_count: int
    equality_verified: bool
    terms_harmonic: bool
    samples: Sequence[SamplePoint] = ()
    seed: int = DEFAULT_SEED
    wall_time: float = 0.0
    span_dimension: int = 0

    @property
    def expected_term_count(self) -> int:
        return self.term_count

    @property
    def square_count(self) -> int:
        return self.span_dimension

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
    """2^k times the sum of the squares, added in ascending denominator
    exponent, so the running total is lifted once per step up rather than
    each lower square.  Every partial sum is in lowest terms: they keep small
    denominators, where one sum over the lcm of all the squares' denominators
    would not (16,251 bits against at most 2,147 at stereo:k=3:re, power 16)."""
    if not squares:
        raise ValueError("certificate needs at least one term")
    ordered = sorted(squares, key=lambda sq: getattr(sq, "exp", 0))
    total = ordered[0]
    for sq in ordered[1:]:
        total = total + sq
    return total.scale(2**k)


def _square(term: Polynomial | SphereFunction) -> Polynomial | SphereFunction:
    """term^2, by ``Polynomial.square`` on the numerator."""
    square = (term if isinstance(term, Polynomial) else term.num.poly).square()
    if isinstance(term, SphereFunction):
        square = SphereFunction._make(SpherePolynomial(square), term.base, 2 * term.exp, True)
    return square


def _map_ordered(fn: Callable, *items: Sequence) -> list:
    # A plain in-order map, kept as a named function because the benchmark
    # tracer times the square and harmonicity stage through it.
    return list(map(fn, *items))


# ----------------------------------------------------------------------
# the span of the word terms and its Gram matrix
# ----------------------------------------------------------------------


class WordSpan(NamedTuple):
    """Bases of the spans of the word terms of a start term s, level by level.

    ``levels[j]`` is a basis of the span of the length-j terms Y_w s
    (``levels[0]`` is [s], or [] when s = 0).  ``matrices[j - 1][a]`` is the
    integer matrix A of field a from level j - 1 to level j over the level's
    denominator q = ``denominators[j - 1]``: Y_a applied to
    ``levels[j - 1][i]`` is the sum over r of ``A[r][i] / q * levels[j][r]``,
    and q is the least such denominator (``linalg.column_basis``).
    """

    levels: list[list[Polynomial | SphereFunction]]
    matrices: list[list[list[list[int]]]]
    denominators: list[int]

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
        powers = {d: bases[0] ** d for d in {e - f.exp for f in funcs} if d}
        polys = [f.num.poly if f.exp == e else (f.num * powers[e - f.exp]).poly for f in funcs]
    den = math.lcm(*(p.denominator for p in polys))
    columns = [(p.numerators, den // p.denominator) for p in polys]
    monomials = sorted({mono for p in polys for mono in p.numerators})
    return [[nums.get(mono, 0) * scale for nums, scale in columns] for mono in monomials]


def word_span(start: Polynomial | SphereFunction, k: int, fields: Sequence[Callable]) -> WordSpan:
    """Exact bases of the spans of the length-0..k word terms of start, and
    the field matrices between them.  Each field is a callable that maps a
    term to its image; images are taken field by field, and each level keeps
    the first independent ones."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    basis = [] if start.is_zero() else [start]
    levels, matrices, denominators = [basis], [], []
    for _ in range(k):
        images = [field(v) for field in fields for v in basis]
        pivots, coords, den = linalg.column_basis(_coefficient_rows(images), len(images))
        # Field a's matrix: the coordinates of its n images, as columns.
        n = len(basis)
        matrices.append([[list(r) for r in zip(*coords[a * n :][:n])] for a in range(len(fields))])
        denominators.append(den)
        basis = [images[c] for c in pivots]
        levels.append(basis)
    return WordSpan(levels=levels, matrices=matrices, denominators=denominators)


def gram_matrix(span: WordSpan) -> Matrix:
    """G_k with sum over words w of (Y_w s)^2 = v^T G_k v on the level-k basis
    v: G_0 = [1] on the basis [s], G_j = sum_a A_a G_(j-1) A_a^T.

    Runs in integers: G_j is an integer matrix over one denominator, and the
    level's integer field matrices share the level's denominator q, so G_j
    takes the denominator of G_(j-1) times q^2.  That q is the lcm of the
    reduced denominators of the level's coordinates y_i / D, since
    v_p(lcm_i D / gcd(D, y_i)) = v_p(D / gcd(D, y_1, ...)) for every prime p.
    """
    gram, den = [[1] for _ in span.levels[0]], 1
    for field_matrices, q in zip(span.matrices, span.denominators):
        n = len(field_matrices[0])
        total = [[0] * n for _ in range(n)]
        for a in field_matrices:
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
    so it is positive definite; a pivot d_i <= 0 (``linalg.ldl`` raises
    ValueError on a negative one) is an engine bug and raises EngineFault.
    """
    try:
        lower, pivots = linalg.ldl(gram)
    except ValueError as exc:
        raise linalg.EngineFault(f"the Gram matrix is not positive definite: {exc}") from exc
    if not all(pivots):
        raise linalg.EngineFault("the Gram matrix is not positive definite: a pivot is zero")
    return pivots, _combinations(lower, span.levels[-1], range(len(pivots)))


def _combinations(lower: Matrix, basis: Sequence, columns: Sequence[int]) -> list:
    """u_i = sum_r L_ri basis_r for each i in columns, with L unit lower triangular."""
    u = []
    for i in columns:
        v = basis[i]
        for r in range(i + 1, len(basis)):
            if lower[r][i]:
                v = v + basis[r].scale(lower[r][i])
        u.append(v)
    return u


# ----------------------------------------------------------------------
# the Hermitian recursion in the chart
# ----------------------------------------------------------------------


def hermitian_form(form: dict[tuple, tuple[int, int]], k: int) -> dict[tuple, tuple[int, int]]:
    """C^(k) from C^(0) = form, each C as {(p, q): (A_pq, B_pq)} with C = A + iB:
    each step takes C_pq to pq C_pq at (p - 1, q - 1), 2pq C_pq at (p, q) and
    pq C_pq at (p + 1, q + 1), the Laplacian on w^p wbar^q (module docstring)."""
    for _ in range(k):
        step: dict[tuple, tuple[int, int]] = {}
        for (p, q), (a, b) in form.items():
            for s, factor in ((-1, p * q), (0, 2 * p * q), (1, p * q)):
                if factor:
                    a0, b0 = step.get((p + s, q + s), (0, 0))
                    step[p + s, q + s] = (a0 + factor * a, b0 + factor * b)
        form = step
    return form


def chart_squares(
    f: SphereFunction, chart: Sequence[tuple], k: int
) -> tuple[list[Fraction], list[SphereFunction], list[SphereFunction]]:
    """(weights, u, elements) with delta_power(f^2, k) = 2^k sum_i weights_i u_i^2,
    every weight positive, by the Hermitian recursion on f's chart terms
    (n, part, c) of c Re w^n or c Im w^n (module docstring); k = 0 gives the
    single square f.  A chart that does not give f is a ValueError; a real
    form that ``linalg.ldl`` refuses is an EngineFault."""
    top = max((n for n, _, _ in chart), default=0) + k
    # f = Re sum_n b_n w^n, as Im(c w^n) = Re(-i c w^n); b = (x + i y) / den.
    b = [[Fraction(0)] * (top + 1) for _ in "xy"]
    for n, part, c in chart:
        b[part == "im"][n] += Fraction(c) if part == "re" else -Fraction(c)
    den = math.lcm(*(z.denominator for z in b[0] + b[1]))
    x, y = ([int(z * den) for z in zs] for zs in b)
    # SphereFunction keeps 1 - x3 as the base x3 - 1 (primitive, leading
    # coefficient positive), so w^p = (-z)^p / base^p with z = x1 + i x2.
    one = SpherePolynomial.one(3)
    base = SpherePolynomial.variable(3, 3) - one
    z1, z2 = -Polynomial.variable(3, 1), -Polynomial.variable(3, 2)
    re, im, elements = Polynomial.one(3), Polynomial.zero(3), {}
    for p in range(top + 1):
        for part, num in ((0, re), (1, im)) if p else ((0, re),):
            elements[p, part] = SphereFunction._make(SpherePolynomial._trusted(num),
                                                     base if p else one, p, True)
        re, im = re * z1 - im * z2, re * z2 + im * z1
    # Re(b w^p) = Re(b) Re w^p - Im(b) Im w^p.
    value = SphereFunction.zero(3)
    for (p, part), e in elements.items():
        if c := -y[p] if part else x[p]:
            value = value + e.scale(Fraction(c, den))
    if value != f:
        raise ValueError(f"the chart {chart} does not give the function it comes with")
    if k == 0:
        return ([Fraction(1)], [f], [f]) if not f.is_zero() else ([], [], [])
    # The real form M = [[A, B], [B^T, A]] on the elements (p, 0) = Re w^p and
    # (p, 1) = Im w^p, from the top power down.
    order = list(reversed(elements))
    index = {element: i for i, element in enumerate(order)}
    m = [[0] * len(order) for _ in order]
    # C^(0) = b b*: (x_p + i y_p)(x_q - i y_q) on the powers that f uses.
    used = [p for p in range(top + 1) if x[p] or y[p]]
    initial = {(p, q): (x[p] * x[q] + y[p] * y[q], y[p] * x[q] - x[p] * y[q])
               for p in used for q in used}
    for (p, q), (a, b) in hermitian_form(initial, k).items():
        for sp, sq, entry in ((0, 0, a), (1, 1, a), (0, 1, b), (1, 0, -b)):
            if (p, sp) in index and (q, sq) in index:
                m[index[p, sp]][index[q, sq]] = entry
    try:
        lower, pivots = linalg.ldl(m)
    except ValueError as exc:
        raise linalg.EngineFault(f"the real form of C^({k}) has no LDL factors: {exc}") from exc
    # Delta^k(f^2) = v^T M v / (2 den^2) = 2^k sum_i d_i / (2^(k+1) den^2) u_i^2.
    positive = [i for i, d in enumerate(pivots) if d]
    basis = [elements[element] for element in order]
    return ([pivots[i] / (2 ** (k + 1) * den * den) for i in positive],
            _combinations(lower, basis, positive),
            [e for e, row in zip(basis, m) if any(row)])


def _certificate(f: Polynomial | SphereFunction, k: int, fields: Sequence[Callable],
                 points: Sequence[tuple[Fraction, ...]], family: str, seed: int,
                 start: float, chart: Sequence[tuple] = ()) -> CertificateReport:
    """The certificate stages of S^(m-1) and R^m: by the Hermitian recursion
    on f's chart when it has one, else on the span of the word terms of f in
    the fields; ``wall_time`` runs from the perf_counter reading ``start``."""
    lhs = delta_power(f * f, k)
    if chart:
        weights, u, basis = chart_squares(f, chart, k)
    else:
        span = word_span(f, k, fields)
        weights, u = gram_squares(span, gram_matrix(span))
        basis = span.levels[-1]
    squares = [sq.scale(d) for d, sq in zip(weights, _map_ordered(_square, u))]
    harmonic = all(_map_ordered(lambda term: _laplacian(term).is_zero(), basis))
    rhs = _weighted_sum(squares, k) if squares else type(f).zero(f.m)
    # Keyword arguments run in order: equality, then the samples.
    return CertificateReport(
        family=family, k=k, term_count=len(fields) ** k,
        equality_verified=lhs == rhs, terms_harmonic=harmonic,
        samples=[SamplePoint(point=pt, value=lhs.evaluate(pt)) for pt in points], seed=seed,
        wall_time=time.perf_counter() - start, span_dimension=len(u),
    )


def verify_certificate(
    h: HarmonicFunction,
    k: int,
    sample_count: int = DEFAULT_SAMPLE_COUNT,
    seed: int = DEFAULT_SEED,
) -> CertificateReport:
    """Exact equality of delta_power(h^2, k) with its certificate, plus signs.

    The right-hand side 2^k sum_w (X_w h)^2 is built as 2^k sum_i d_i u_i^2,
    by the Hermitian recursion when h has a chart and on the span of the
    word terms otherwise (see the module docstring); k = 0 is the single
    empty word with term h itself.  An equality failure or a negative sample
    is recorded in the report, never dropped.
    """
    if h.m != 3:
        raise ValueError(f"sample_cap_points draws points on S^2 only, got ambient dimension {h.m}")
    start = time.perf_counter()
    points = sample_cap_points(sample_count, seed)
    # Bound when the certificate runs, so the fields call apply_rotation_field
    # as this module holds it then (the benchmark tracer wraps it).
    fields = [functools.partial(apply_rotation_field, field) for field in rotation_fields(h.m)]
    return _certificate(h.value, k, fields, points, h.provenance, seed, start, h.chart)


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

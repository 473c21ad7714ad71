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

Harmonicity is checked on the basis v itself: L^T is unit upper triangular,
so the u_i are all harmonic exactly when the v_i are, and every v_i is a word
term and every word term a combination of them.  The squares are added in
ascending denominator exponent.  Equality is verified exactly
(cross-multiplication in the quotient field) and nonnegativity is then
re-checked by exact rational sign tests at deterministic sample points on the
cap, drawn first (a count below 1 fails before any certificate work) and
built and evaluated in integers.  Both statements run one engine: with the
coordinate partials as fields, ``euclid_certificate`` runs the same stages on
a harmonic polynomial of R^m and returns the same report, ``terms_harmonic``
included (checked against the Euclidean Laplacian).

An input built in the chart w = (x1 + i x2)/(1 - x3) carries its coordinates
there (``HarmonicFunction.chart``: the stereographic family and its planar
combinations), and ``chart_span`` builds the same span with no elimination
over monomials.  Every word term lies in the module spanned by 1, Re w^n and
Im w^n (n <= K + k).  A field X is a real derivation, so
X(Re(b w^n)) = Re(b n w^(n-1) X(w)) for b = 1 or -i (the Leibniz rule), with
X12 w = i w, X13 w = (1 + w^2)/2 and X23 w = i (1 - w^2)/2: on the module the
fields are sparse integer matrices over 2 (``chart_matrices``).  The three
X(w) are proved, not assumed: six exact ``apply_rotation_field`` calls check
the columns of Re w and Im w (X(1) = 0 for any derivation), and every column
for n >= 2 is the same algebra in w on a proved X(w).  The elements are
linearly independent (on the circle |w| = r, Re w^n and Im w^n are
r^n cos(nt) and r^n sin(nt)), so the images' coordinate vectors, at most
2(K + k) + 1 rows, have exactly the images' linear relations, and
``linalg.column_basis`` returns the same pivots, coordinates and least
denominators on them.  Each level function is then rebuilt over base^e from
its coordinates.  ``apply_rotation_field`` raises the exponent by one exactly
for X13 and X23, which are also the fields that raise the top power of w, so
e is the largest n a function uses plus the start's excess (zero unless a
combination's top terms cancel); over a given base^e the numerator's normal
form is unique, so the levels are the elimination route's down to their str.
A chart that does not give its function is refused with ValueError.  Either
route only builds the right-hand side: equality and harmonicity are checked
on the functions, so no span can make a false identity pass.
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
    one square per element of the level-k span basis, so ``square_count`` is
    ``span_dimension``.
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


def _square_and_harmonicity(term: Polynomial | SphereFunction, basis_term):
    """(term^2, whether basis_term is harmonic)."""
    square = (term if isinstance(term, Polynomial) else term.num.poly).square()
    if isinstance(term, SphereFunction):
        square = SphereFunction._make(SpherePolynomial(square), term.base, 2 * term.exp, True)
    return square, _laplacian(basis_term).is_zero()


def _map_ordered(fn: Callable, *items: Sequence) -> list:
    # A plain in-order map, kept as a named function because the benchmark
    # tracer times the square/harmonicity stage through it.
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


def _span(basis: list, k: int, n_fields: int, images_of: Callable, rows_of: Callable) -> WordSpan:
    """The level loop of both span routes: images_of(basis) lists the images
    field by field, rows_of(images) gives their coefficient rows, and each
    level keeps the first independent images."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    levels, matrices, denominators = [basis], [], []
    for _ in range(k):
        images = images_of(basis)
        pivots, coords, den = linalg.column_basis(rows_of(images), len(images))
        # Field a's matrix: the coordinates of its n images, as columns.
        n = len(basis)
        matrices.append([[list(r) for r in zip(*coords[a * n :][:n])] for a in range(n_fields)])
        denominators.append(den)
        basis = [images[c] for c in pivots]
        levels.append(basis)
    return WordSpan(levels=levels, matrices=matrices, denominators=denominators)


def word_span(start: Polynomial | SphereFunction, k: int, fields: Sequence[Callable]) -> WordSpan:
    """Exact bases of the spans of the length-0..k word terms of start, and
    the field matrices between them.  Each field is a callable that maps a
    term to its image; images are taken field by field, and each level keeps
    the first independent ones."""
    return _span([] if start.is_zero() else [start], k, len(fields),
                 lambda basis: [field(v) for field in fields for v in basis], _coefficient_rows)


def _chart_entry(n: int, im: bool, x) -> dict:
    """x on Im w^n (im) or Re w^n, at its module index; Im w^0 = 0 has none."""
    return {2 * n - 1 + im if n else 0: x} if n or not im else {}


def chart_matrices(top: int) -> list[list[dict[int, int]]]:
    """Twice X12, X13 and X23 on the module {1, Re w^n, Im w^n : n <= top} as
    sparse integer matrices: column j of a field is {row: entry}, with 1 at
    index 0 and Re w^n, Im w^n at 2n - 1 and 2n (rows reach 2 top + 2).  From
    X(w^n) = n w^(n-1) X(w) (module docstring), with s = 1 on Re w^n, s = -1
    on Im w^n, P its part and Q the other:
    2 X12 (P w^n) = -2sn Q w^n, 2 X13 (P w^n) = n (P w^(n-1) + P w^(n+1)) and
    2 X23 (P w^n) = sn (Q w^(n+1) - Q w^(n-1))."""
    entry = _chart_entry
    matrices = [[{}], [{}], [{}]]  # X(1) = 0
    for n in range(1, top + 1):
        for im, s in ((False, 1), (True, -1)):
            matrices[0].append(entry(n, not im, -2 * s * n))
            matrices[1].append({**entry(n - 1, im, n), **entry(n + 1, im, n)})
            matrices[2].append({**entry(n - 1, not im, -s * n), **entry(n + 1, not im, s * n)})
    return matrices


def chart_span(start: SphereFunction, chart: Sequence[tuple], k: int) -> WordSpan:
    """``word_span`` of start over the rotation fields of S^2, run on the
    coordinates of its chart, terms (n, part, c) of c Re w^n or c Im w^n:
    the same levels, matrices and denominators (module docstring).  A chart
    that does not give start is a ValueError; a field matrix column that
    ``apply_rotation_field`` disproves is an EngineFault."""
    top = max((n for n, _, _ in chart), default=0) + k
    # SphereFunction keeps 1 - x3 as the base x3 - 1 (primitive, leading
    # coefficient positive), so w^n = (-z)^n / base^n with z = x1 + i x2.
    one = SpherePolynomial.one(3)
    base = SpherePolynomial.variable(3, 3) - one
    x1, x2 = -Polynomial.variable(3, 1), -Polynomial.variable(3, 2)
    re, im, nums = Polynomial.one(3), Polynomial.zero(3), [one]
    for _ in range(top + 1):  # the images of the elements up to top
        re, im = re * x1 - im * x2, re * x2 + im * x1
        nums += [SpherePolynomial(re), SpherePolynomial(im)]
    lifted = {}

    def numerator(j: int, e: int) -> SpherePolynomial:
        # Element j's numerator over base^e, for e at least its power n.
        if (j, e) not in lifted:
            lifted[j, e] = nums[j] if e == (j + 1) // 2 else numerator(j, e - 1) * base
        return lifted[j, e]

    def rebuild(vector: Sequence[int], scale: Fraction) -> SphereFunction:
        # scale * sum_j vector[j] element_j over base^e, e the largest n it uses plus shift.
        used = [j for j, x in enumerate(vector) if x]
        if not used:
            return SphereFunction.zero(3)
        e, total = (used[-1] + 1) // 2 + shift, {}
        for j in used:
            for key, x in numerator(j, e).poly.numerators.items():
                total[key] = total.get(key, 0) + vector[j] * x
        scaled = {key: x * scale.numerator for key, x in total.items() if x}
        poly = Polynomial.from_numerators(3, scaled, scale.denominator)
        return SphereFunction._make(SpherePolynomial._trusted(poly), base if e else one, e, True)

    coords = [Fraction(0)] * len(nums)
    for n, part, c in chart:
        for r, x in _chart_entry(n, part == "im", Fraction(c)).items():
            coords[r] += x
    den = math.lcm(*(c.denominator for c in coords))
    vector = [int(c * den) for c in coords]
    used = [j for j, x in enumerate(vector) if x]
    # A combination whose top terms cancel keeps the larger exponent of its sum.
    shift = start.exp - (used[-1] + 1) // 2 if used else 0
    if shift < 0 or rebuild(vector, Fraction(1, den)) != start:
        raise ValueError(f"the chart {chart} does not give the function it comes with")
    matrices = chart_matrices(top)
    for field, columns in zip(rotation_fields(3), matrices if k else ()):
        for j in (1, 2):
            column = [columns[j].get(r, 0) for r in range(len(vector))]
            element = SphereFunction._make(nums[j], base, 1, canonical=True)
            if apply_rotation_field(field, element) != rebuild(column, Fraction(1, 2)):
                raise linalg.EngineFault(f"the chart matrix of {field} is wrong on element {j}")

    def images_of(basis: list[list[int]]) -> list[list[int]]:
        out = []
        for columns in matrices:
            for v in basis:
                image = [0] * len(v)
                for j, x in enumerate(v):
                    if x:
                        for r, y in columns[j].items():
                            image[r] += x * y
                out.append(image)
        return out

    span = _span([] if start.is_zero() else [vector], k, 3, images_of,
                 lambda images: [row for row in zip(*images) if any(row)])
    # Level j's vectors are den 2^j times its functions' coordinates.
    levels = [[start] if span.levels[0] else []]
    levels += [[rebuild(v, Fraction(1, den << j)) for v in level]
               for j, level in enumerate(span.levels[1:], start=1)]
    return span._replace(levels=levels)


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


def _certificate(f: Polynomial | SphereFunction, k: int, fields: Sequence[Callable],
                 points: Sequence[tuple[Fraction, ...]], family: str, seed: int,
                 start: float, chart: Sequence[tuple] = ()) -> CertificateReport:
    """The certificate stages of S^(m-1) and R^m, for the word terms of f in
    the fields, on f's chart coordinates when it has them; ``wall_time`` runs
    from the perf_counter reading ``start``."""
    lhs = delta_power(f * f, k)
    span = chart_span(f, chart, k) if chart else word_span(f, k, fields)
    weights, u = gram_squares(span, gram_matrix(span))
    per_square = _map_ordered(_square_and_harmonicity, u, span.levels[-1])
    squares = [sq.scale(d) for d, (sq, _) in zip(weights, per_square)]
    rhs = _weighted_sum(squares, k) if squares else type(f).zero(f.m)
    # Keyword arguments run in order: equality, harmonicity, then the samples.
    return CertificateReport(
        family=family, k=k, term_count=len(fields) ** k,
        equality_verified=lhs == rhs, terms_harmonic=all(flag for _, flag in per_square),
        samples=[SamplePoint(point=pt, value=lhs.evaluate(pt)) for pt in points], seed=seed,
        wall_time=time.perf_counter() - start, span_dimension=span.dimension,
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

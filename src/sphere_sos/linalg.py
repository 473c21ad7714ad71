"""Exact dense linear algebra over the rationals.

Small matrices only (harmonic-basis kernels, Gram matrices, complements).
Every routine runs on one elimination loop, ``_bareiss``: rows are scaled to
integers and eliminated fraction-free in the Bareiss style, so each
intermediate entry stays an exact integer and each two-row update divides out
the previous pivot exactly.  ``column_basis`` reads the echelon form through
one back-substitution and checks it, and rank, kernels and inverses are read
off that checked column basis.  ``ldl`` is the loop's only other reader:
without row swaps the Bareiss pivots are the leading principal minors
(Bareiss 1968) and the rows are the scaled rows of D L^T, so a matrix is
positive definite exactly when ``ldl`` succeeds.

``column_basis`` searches modulo PIVOT_PRIME and checks exactly (McConnell et
al. 2011): the rows that carry the pivots mod p are eliminated alone, and then
every column is checked against its coordinates on every row, in integers.
A pass proves the full elimination's answer: its pivots are the first
independent columns and coordinates in a basis are unique.  A prime that
divides a minor fails the check and the level is redone on every row; only a
failure there raises EngineFault.

Entries are normalised by ``exact``: an int where the value is integral and a
Fraction otherwise, so integer input skips every Fraction round-trip.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterator, Sequence

Matrix = list[list[int | Fraction]]

# column_basis searches its pivot rows modulo this prime (the largest below 2^30).
PIVOT_PRIME = 1_073_741_789


class EngineFault(RuntimeError):
    """An internal exact check failed: a bug in the engine, never a verdict."""


def exact(x) -> int | Fraction:
    """x as an int when it is integral, else as a Fraction; any other
    number, a float included, converts exactly."""
    if type(x) is not int:
        q = x if type(x) is Fraction else Fraction(x)
        x = q.numerator if q.denominator == 1 else q
    return x


def _exact_rows(rows: Sequence[Sequence]) -> Matrix:
    return [list(map(exact, row)) for row in rows]


def _den_lcm(row: Sequence[int | Fraction]) -> int:
    return math.lcm(*(x.denominator for x in row))


def _bareiss(m: list[list[int]]) -> Iterator[tuple[int, int, int]]:
    """Fraction-free elimination of the integer matrix m, in place.

    Yields (row r, pivot column c, row p the pivot came from) once the pivot
    row has been swapped into place and before column c is cleared below it;
    a caller may stop at any step.  After step r the leading rows of m are an
    echelon form, and with no swap before it (p == r == c at every step so
    far) m[r][c] is the leading principal minor of order r + 1.
    """
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    prev_pivot = 1
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            return
        p = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        yield r, c, p
        pivot = m[r][c]
        for i in range(r + 1, n_rows):
            factor = m[i][c]
            for j in range(c, n_cols):
                # Bareiss update: division by the previous pivot is exact.
                m[i][j] = (m[i][j] * pivot - factor * m[r][j]) // prev_pivot
        prev_pivot = pivot
        r += 1


def fraction_free_echelon(rows: Sequence[Sequence]) -> tuple[list[list[int]], list[int]]:
    """Bareiss echelon form of an integer matrix.

    Returns (echelon matrix, pivot column indices).  Integer rows are
    copied; rational input is scaled row-wise to integers first, which does
    not change the row space or the kernel.
    """
    m = _integer_rows(rows)
    return m, [c for _, c, _ in _bareiss(m)]


def _back_substitute(
    echelon: list[list[int]], pivots: list[int], n: int, free: int
) -> tuple[list[int], int]:
    """(y, d) with x = y / d the kernel vector over n unknowns with
    x[free] = 1 and every other non-pivot coordinate 0.

    Runs in integers on y = D x, D the last pivot.  D is the determinant of
    the pivot rows and columns of the scaled input (Bareiss 1968), so by
    Cramer's rule every y[c] is an integer and each row divides exactly.
    Row r is zero left of its pivot, so its sum runs over the nonzero y only.
    """
    d = echelon[len(pivots) - 1][pivots[-1]] if pivots else 1
    y = [0] * n
    y[free] = d
    support = [free]
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        row = echelon[r]
        y[c], rest = divmod(-sum(row[j] * y[j] for j in support), row[c])
        if rest:
            raise EngineFault("fraction-free back-substitution left a remainder")
        if y[c]:
            support.append(c)
    return y, d


def rank(rows: Sequence[Sequence]) -> int:
    return len(column_basis(rows)[0]) if rows else 0


def nullspace(rows: Sequence[Sequence], n_cols: int | None = None) -> list[list[int]]:
    """Exact basis of the right kernel, as primitive integer vectors: for each
    non-pivot column c, e_c minus c's coordinates on the pivot columns, scaled
    by the lcm of its denominators, so coordinate c is positive.  Each vector
    is in the kernel by column_basis's exact check."""
    pivots, coords = column_basis(rows, n_cols)
    basis = []
    for c in sorted(set(range(len(coords))) - set(pivots)):
        vec = [0] * len(coords)
        vec[c] = 1
        for p, q in zip(pivots, coords[c]):
            vec[p] = -q
        basis.append(vec)
    return _integer_rows(basis)


def column_basis(
    rows: Sequence[Sequence], n_cols: int | None = None
) -> tuple[list[int], Matrix]:
    """The first maximal set of independent columns, and every column's
    coordinates in it.

    Returns (pivots, coords): column c equals the sum over r of
    coords[c][r] * column pivots[r], exactly.  A pivot column has unit
    coordinates; any other column reads its coordinates off the kernel vector
    that it spans with the pivot columns before it.  The answer is checked
    exactly on every row (module docstring).
    """
    if not rows:
        if n_cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return [], [[] for _ in range(n_cols)]
    m = _integer_rows(rows)
    if n_cols is not None and n_cols != len(m[0]):
        raise ValueError(f"rows have {len(m[0])} columns, not {n_cols}")
    # With no pivot modulo the prime (m is zero there), the first try is m itself.
    for candidate in ([m[i] for i in _pivot_rows_mod_p(m)] or m, m):
        pivots, coords = _coordinates(candidate)
        if _spans(m, pivots, coords):
            return pivots, coords
    raise EngineFault(
        "a column differs from its span coordinates (this indicates a bug in the engine)"
    )


def _integer_rows(rows: Sequence[Sequence]) -> list[list[int]]:
    """The rows as ints: integer rows are copied, and any other row is made
    exact and scaled by the lcm of its denominators.  Ragged rows are a
    ValueError."""
    if len({len(row) for row in rows}) > 1:
        raise ValueError("matrix rows differ in length")
    if all(type(x) is int for row in rows for x in row):
        return [list(row) for row in rows]
    out = []
    for row in _exact_rows(rows):
        lcm = _den_lcm(row)
        out.append([int(x * lcm) for x in row])
    return out


def _pivot_rows_mod_p(m: list[list[int]]) -> list[int]:
    """The rows that carry the pivots of m's elimination modulo PIVOT_PRIME,
    each pivot taken from the first remaining row that is nonzero there."""
    p = PIVOT_PRIME
    remaining = {i: [x % p for x in row] for i, row in enumerate(m)}
    carriers = []
    for c in range(len(m[0])):
        r = next((i for i, row in remaining.items() if row[c]), None)
        if r is not None:
            carriers.append(r)
            pivot = remaining.pop(r)
            inverse = pow(pivot[c], -1, p)
            for i, row in remaining.items():
                if f := row[c] * inverse % p:
                    remaining[i] = [(x - f * y) % p for x, y in zip(row, pivot)]
    return carriers


def _coordinates(m: list[list[int]]) -> tuple[list[int], Matrix]:
    """column_basis of the integer rows m by Bareiss elimination, unchecked."""
    echelon, pivots = fraction_free_echelon(m)
    coords: Matrix = [[] for _ in echelon[0]]
    for r, c in enumerate(pivots):
        coords[c] = [int(i == r) for i in range(len(pivots))]
    for free in sorted(set(range(len(coords))) - set(pivots)):
        y, d = _back_substitute(echelon, pivots, len(coords), free=free)
        coords[free] = [Fraction(-y[c], d) for c in pivots]
    return pivots, coords


def _spans(m: list[list[int]], pivots: list[int], coords: Matrix) -> bool:
    """Whether column c == sum_r coords[c][r] * column pivots[r] on every row
    of m, for every column, pivot columns included, checked in integers."""
    pivot_entries = [[row[p] for p in pivots] for row in m]
    for c, x in enumerate(coords):
        den = math.lcm(*(q.denominator for q in x))
        nums = [q.numerator * (den // q.denominator) for q in x]
        for row, entries in zip(m, pivot_entries):
            if den * row[c] != sum(map(mul, nums, entries)):
                return False
    return True


def invert(rows: Sequence[Sequence]) -> Matrix:
    """Exact inverse read off the column basis of [A | I]: column j of the
    inverse is the coordinate vector of e_j in A's columns.  Raises
    ZeroDivisionError on singular input."""
    a = _square(rows)
    n = len(a)
    pivots, coords = column_basis(
        [row + [int(i == j) for j in range(n)] for i, row in enumerate(a)], 2 * n
    )
    # [A | I] has rank n; A is invertible iff all n pivots fall in A's columns.
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [[exact(coords[n + j][i]) for j in range(n)] for i in range(n)]


def _square(rows: Sequence[Sequence]) -> Matrix:
    a = _exact_rows(rows)
    if any(len(row) != len(a) for row in a):
        raise ValueError("matrix must be square")
    return a


def ldl(rows: Sequence[Sequence]) -> tuple[Matrix, list[Fraction]]:
    """Exact G = L diag(d) L^T of a symmetric positive definite matrix G.

    Returns (L, d) with L unit lower triangular and every d_r > 0.  Gaussian
    elimination without row swaps turns G into D L^T; the Bareiss row r is
    that row times an integer, so L[j][r] is the ratio of its entries j and
    r, and d_r is the ratio of consecutive leading principal minors.  Raises
    ValueError when G is not symmetric or some d_r is not positive, which by
    Sylvester's criterion is exactly when G is not positive definite.
    """
    a = _square(rows)
    n = len(a)
    if any(a[i][j] != a[j][i] for i in range(n) for j in range(i)):
        raise ValueError("matrix must be symmetric")
    lower: Matrix = [[int(i == j) for j in range(n)] for i in range(n)]
    pivots: list[Fraction] = []
    previous = 1
    m = _integer_rows(a)
    scale = 1
    for r, c, p in _bareiss(m):
        # A step that swaps or skips a column has a zero leading minor.
        if not r == c == p:
            break
        # The minor of a is the Bareiss pivot over the row scalings so far.
        scale *= _den_lcm(a[r])
        minor = Fraction(m[r][r], scale)
        if minor <= 0:
            break
        pivots.append(minor / previous)
        previous = minor
        for j in range(r + 1, n):
            lower[j][r] = Fraction(m[r][j], m[r][r])
    if len(pivots) < n:
        raise ValueError("matrix is not positive definite")
    return lower, pivots

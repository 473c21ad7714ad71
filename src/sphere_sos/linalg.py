"""Exact dense linear algebra over the rationals.

Small matrices only (harmonic-basis kernels, Gram matrices, complements).
Every routine runs on one elimination loop, ``_bareiss``: rows are scaled to
integers and eliminated fraction-free in the Bareiss style, so each
intermediate entry stays an exact integer and each two-row update divides out
the previous pivot exactly.  ``nullspace`` and ``column_basis`` read the
echelon form through one back-substitution, and ``invert`` reads the inverse
off the column basis of [A | I].  Without row swaps the Bareiss pivots are
the leading principal minors (Bareiss 1968) and the rows are the scaled rows
of D L^T, which is how ``ldl`` factors a positive definite matrix; a matrix
is positive definite exactly when ``ldl`` succeeds.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Sequence

Matrix = list[list[Fraction]]


def _to_fraction_matrix(rows: Sequence[Sequence]) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def _den_lcm(row: Sequence[Fraction]) -> int:
    return math.lcm(*(x.denominator for x in row))


def _clear_denominators(rows: Matrix) -> list[list[int]]:
    out = []
    for row in rows:
        lcm = _den_lcm(row)
        out.append([int(x * lcm) for x in row])
    return out


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
    if all(type(x) is int for row in rows for x in row):
        m = [list(row) for row in rows]
    else:
        m = _clear_denominators(_to_fraction_matrix(rows))
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
            raise ArithmeticError("fraction-free back-substitution left a remainder")
        if y[c]:
            support.append(c)
    return y, d


def rank(rows: Sequence[Sequence]) -> int:
    if not rows:
        return 0
    _, pivots = fraction_free_echelon(rows)
    return len(pivots)


def nullspace(rows: Sequence[Sequence], n_cols: int | None = None) -> list[list[Fraction]]:
    """Exact basis of the right kernel.

    Back-substitution runs in integers on the echelon form; each kernel
    vector is rescaled to a primitive integer vector with a fixed sign
    convention (its free coordinate positive) so the basis is deterministic.
    """
    if not rows:
        if n_cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return [
            [Fraction(1) if j == i else Fraction(0) for j in range(n_cols)]
            for i in range(n_cols)
        ]
    echelon, pivots = fraction_free_echelon(rows)
    basis = []
    for _, y, d in _kernel_vectors(echelon, pivots):
        # y[free] = d, so dividing by the gcd with d's sign makes it positive.
        g = math.gcd(*y) if d > 0 else -math.gcd(*y)
        basis.append([Fraction(v // g) for v in y])
    return basis


def _kernel_vectors(
    echelon: list[list[int]], pivots: list[int]
) -> Iterator[tuple[int, list[int], int]]:
    """(free column c, y, d) with y / d the kernel vector whose coordinate c
    is 1 and every other free coordinate 0, for each free column in order."""
    n_cols = len(echelon[0])
    pivot_set = set(pivots)
    for free in (c for c in range(n_cols) if c not in pivot_set):
        yield (free, *_back_substitute(echelon, pivots, n_cols, free=free))


def column_basis(
    rows: Sequence[Sequence], n_cols: int | None = None
) -> tuple[list[int], list[list[Fraction]]]:
    """The first maximal set of independent columns, and every column's
    coordinates in it.

    Returns (pivots, coords): column c equals the sum over r of
    coords[c][r] * column pivots[r], exactly.  A pivot column has unit
    coordinates; any other column reads its coordinates off the kernel vector
    that it spans with the pivot columns before it.
    """
    if not rows:
        if n_cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return [], [[] for _ in range(n_cols)]
    echelon, pivots = fraction_free_echelon(rows)
    coords: list[list[Fraction]] = [[] for _ in echelon[0]]
    for r, c in enumerate(pivots):
        coords[c] = [Fraction(int(i == r)) for i in range(len(pivots))]
    for free, y, d in _kernel_vectors(echelon, pivots):
        coords[free] = [Fraction(-y[c], d) for c in pivots]
    return pivots, coords


def invert(rows: Sequence[Sequence]) -> Matrix:
    """Exact inverse read off the column basis of [A | I]: column j of the
    inverse is the coordinate vector of e_j in A's columns.  Raises
    ZeroDivisionError on singular input."""
    a = _square(rows)
    n = len(a)
    pivots, coords = column_basis(
        [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)], 2 * n
    )
    # [A | I] has rank n; A is invertible iff all n pivots fall in A's columns.
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [[coords[n + j][i] for j in range(n)] for i in range(n)]


def _square(rows: Sequence[Sequence]) -> Matrix:
    a = _to_fraction_matrix(rows)
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
    lower = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    pivots: list[Fraction] = []
    previous = Fraction(1)
    m = _clear_denominators(a)
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

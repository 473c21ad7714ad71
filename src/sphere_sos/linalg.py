"""Exact dense linear algebra over the rationals.

Small matrices only (harmonic-basis kernels, Gram matrices, membership
tests).  Every routine runs on one elimination loop, ``_bareiss``: rows are
scaled to integers and eliminated fraction-free in the Bareiss style, so each
intermediate entry stays an exact integer and each two-row update divides out
the previous pivot exactly.  ``nullspace``, ``solve`` and ``invert`` read the
echelon form through one back-substitution.  Without row swaps the Bareiss
pivots are the leading principal minors (Bareiss 1968), which is how
``leading_principal_minors`` gets them.
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

    Returns (echelon matrix, pivot column indices).  Rational input is scaled
    row-wise to integers first; row scaling does not change the row space or
    the kernel.
    """
    m = _clear_denominators(_to_fraction_matrix(rows))
    return m, [c for _, c, _ in _bareiss(m)]


def _back_substitute(
    echelon: list[list[int]], pivots: list[int], x: list[Fraction], rhs_col: int | None = None
) -> list[Fraction]:
    """Fill the pivot coordinates of x, whose free coordinates are preset, so
    that every echelon row r reads sum_j echelon[r][j] x[j] = echelon[r][rhs_col]
    (= 0 when rhs_col is None); j runs over the len(x) unknowns."""
    n = len(x)
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        start = Fraction(0 if rhs_col is None else -echelon[r][rhs_col])
        s = sum((Fraction(echelon[r][j]) * x[j] for j in range(c + 1, n)), start)
        x[c] = -s / echelon[r][c]
    return x


def rank(rows: Sequence[Sequence]) -> int:
    if not rows:
        return 0
    _, pivots = fraction_free_echelon(rows)
    return len(pivots)


def nullspace(rows: Sequence[Sequence], n_cols: int | None = None) -> list[list[Fraction]]:
    """Exact basis of the right kernel.

    Back-substitution runs over Fractions on the integer echelon form; each
    kernel vector is rescaled to a primitive integer vector with a fixed sign
    convention (free coordinate = +1 before rescaling) so the basis is
    deterministic.
    """
    if not rows:
        if n_cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return [
            [Fraction(1) if j == i else Fraction(0) for j in range(n_cols)]
            for i in range(n_cols)
        ]
    echelon, pivots = fraction_free_echelon(rows)
    n_cols = len(echelon[0])
    pivot_set = set(pivots)
    basis: list[list[Fraction]] = []
    for free in (c for c in range(n_cols) if c not in pivot_set):
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        basis.append(_primitive(_back_substitute(echelon, pivots, vec)))
    return basis


def _primitive(vec: list[Fraction]) -> list[Fraction]:
    den_lcm = _den_lcm(vec)
    ints = [int(x * den_lcm) for x in vec]
    g = math.gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return [Fraction(v) for v in ints]


def solve(rows: Sequence[Sequence], rhs: Sequence) -> list[Fraction] | None:
    """One exact solution of A x = b, or None if the system is inconsistent."""
    a = _to_fraction_matrix(rows)
    b = [Fraction(x) for x in rhs]
    if len(a) != len(b):
        raise ValueError("matrix and right-hand side sizes differ")
    if not a:
        return []
    n_cols = len(a[0])
    echelon, pivots = fraction_free_echelon([row + [v] for row, v in zip(a, b)])
    # A pivot in the rhs column means 0 = nonzero.
    if pivots and pivots[-1] == n_cols:
        return None
    return _back_substitute(echelon, pivots, [Fraction(0)] * n_cols, n_cols)


def invert(rows: Sequence[Sequence]) -> Matrix:
    """Exact inverse from the echelon form of [A | I]; raises
    ZeroDivisionError on singular input."""
    a = _to_fraction_matrix(rows)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    echelon, pivots = fraction_free_echelon(
        [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    )
    # [A | I] has rank n; A is invertible iff all n pivots fall in A's columns.
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    columns = [_back_substitute(echelon, pivots, [Fraction(0)] * n, n + j) for j in range(n)]
    return [[col[i] for col in columns] for i in range(n)]


def in_span(vectors: Sequence[Sequence], target: Sequence) -> bool:
    """Exact membership of target in the rational span of the given vectors."""
    if not vectors:
        return all(Fraction(x) == 0 for x in target)
    cols = [[Fraction(vec[i]) for vec in vectors] for i in range(len(target))]
    return solve(cols, target) is not None


def leading_principal_minors(rows: Sequence[Sequence]) -> list[Fraction]:
    """Leading principal minors of a square matrix, exactly, up to and
    including the first zero one (for definiteness tests).

    They are the pivots of Bareiss elimination without row swaps, divided by
    the row scalings that cleared denominators; a step that needs a swap or
    skips a column has a zero minor, and elimination stops there.
    """
    a = _to_fraction_matrix(rows)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    m = _clear_denominators(a)
    minors: list[Fraction] = []
    scale = 1
    for r, c, p in _bareiss(m):
        if not r == c == p:
            break
        scale *= _den_lcm(a[r])
        minors.append(Fraction(m[r][c], scale))
    if len(minors) < n:
        minors.append(Fraction(0))
    return minors

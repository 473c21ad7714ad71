"""Exact dense linear algebra over the rationals.

Small matrices only (harmonic-basis kernels, Gram matrices, complements).
Every routine runs on one elimination loop, ``_bareiss``: rows are scaled to
integers and eliminated fraction-free in the Bareiss style, so each
intermediate entry stays an exact integer and each two-row update divides out
the previous pivot exactly.  ``column_basis`` reads the echelon form through
one back-substitution and checks it, and rank, kernels and inverses are read
off that checked column basis, in integers over one least denominator.
``ldl`` is the loop's only other reader: without row swaps the Bareiss
pivots are the leading principal minors (Bareiss 1968) and the rows are the
scaled rows of D L^T, so a matrix is positive definite exactly when ``ldl``
succeeds.

``column_basis`` searches modulo PIVOT_PRIME and checks exactly (McConnell et
al. 2011): the rows that carry the pivots mod p are eliminated alone, and then
every column is checked against its coordinates in integers: den must be
positive, a pivot column must have den e_r as its coordinates, and any other
column c is checked on every row at once.  Packed as P = sum_i m[i] 2^(W i)
(Kronecker substitution), it passes when den P_c == sum_r x_r P_(p_r).  The
digits of the difference are the row errors z_i = den m[i][c] - sum_r x_r
m[i][p_r], with |z_i| <= max|m| (den + sum_r |x_r|) < 2^W, so a zero proves
every row: a lowest nonzero z_i would leave it nonzero modulo 2^(W (i + 1)).
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


def _back_substitute(echelon: list[list[int]], pivots: list[int], n: int, free: int) -> list[int]:
    """y = D x, x the kernel vector over n unknowns with x[free] = 1 and
    every other non-pivot coordinate 0, and D the last pivot.

    D is the determinant of the pivot rows and columns of the scaled input
    (Bareiss 1968), so by Cramer's rule every y[c] is an integer and each row
    divides exactly.  Row r is zero left of its pivot, so its sum runs over
    the nonzero y only.
    """
    y = [0] * n
    y[free] = echelon[len(pivots) - 1][pivots[-1]] if pivots else 1
    support = [free]
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        row = echelon[r]
        y[c], rest = divmod(-sum(row[j] * y[j] for j in support), row[c])
        if rest:
            raise EngineFault("fraction-free back-substitution left a remainder")
        if y[c]:
            support.append(c)
    return y


def rank(rows: Sequence[Sequence]) -> int:
    return len(column_basis(rows)[0]) if rows else 0


def nullspace(rows: Sequence[Sequence], n_cols: int | None = None) -> list[list[int]]:
    """Exact basis of the right kernel, as primitive integer vectors: for each
    non-pivot column c, den e_c minus c's coordinates on the pivot columns,
    over their gcd, so coordinate c is positive.  Each vector is in the kernel
    by column_basis's exact check."""
    pivots, coords, den = column_basis(rows, n_cols)
    basis = []
    for c in sorted(set(range(len(coords))) - set(pivots)):
        vec = [0] * len(coords)
        vec[c] = den
        for p, x in zip(pivots, coords[c]):
            vec[p] = -x
        g = math.gcd(*vec)
        basis.append([x // g for x in vec])
    return basis


def column_basis(
    rows: Sequence[Sequence], n_cols: int | None = None
) -> tuple[list[int], list[list[int]], int]:
    """The first maximal set of independent columns, and every column's
    coordinates in it, as integers over one denominator.

    Returns (pivots, coords, den) with den > 0 the least common denominator:
    den times column c equals the sum over r of coords[c][r] * column
    pivots[r], exactly.  A pivot column has coordinates den e_r; any other
    column reads its coordinates off the kernel vector that it spans with the
    pivot columns before it.  The answer is checked exactly on every row
    (module docstring).
    """
    if not rows:
        if n_cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return [], [[] for _ in range(n_cols)], 1
    m = _integer_rows(rows)
    if n_cols is not None and n_cols != len(m[0]):
        raise ValueError(f"rows have {len(m[0])} columns, not {n_cols}")
    # With no pivot modulo the prime (m is zero there), the first try is m itself.
    for candidate in ([m[i] for i in _pivot_rows_mod_p(m)] or m, m):
        pivots, coords, den = _coordinates(candidate)
        if _spans(m, pivots, coords, den):
            return pivots, coords, den
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
            inverse, tail = pow(pivot[c], -1, p), pivot[c + 1 :]
            # Columns up to c are never read again: only the tail is updated.
            for row in remaining.values():
                if f := row[c] * inverse % p:
                    row[c + 1 :] = [(x - f * y) % p for x, y in zip(row[c + 1 :], tail)]
    return carriers


def _coordinates(m: list[list[int]]) -> tuple[list[int], list[list[int]], int]:
    """column_basis of the integer rows m by Bareiss elimination, unchecked.
    Every back-substitution is over the last pivot D, so the coordinates are
    integers over D; one gcd, taking D's sign, makes the denominator least."""
    echelon, pivots = fraction_free_echelon(m)
    n = len(echelon[0])
    d = echelon[len(pivots) - 1][pivots[-1]] if pivots else 1
    coords = [[0] * len(pivots) for _ in range(n)]
    for r, c in enumerate(pivots):
        coords[c][r] = d
    for c in sorted(set(range(n)) - set(pivots)):
        y = _back_substitute(echelon, pivots, n, free=c)
        coords[c] = [-y[p] for p in pivots]
    g = math.gcd(d, *(x for column in coords for x in column)) * (1 if d > 0 else -1)
    return pivots, [[x // g for x in column] for column in coords], d // g


def _spans(m: list[list[int]], pivots: list[int], coords: list[list[int]], den: int) -> bool:
    """Whether den > 0 and den * column c == sum_r coords[c][r] * column
    pivots[r] on every row of m, for every column (den = 0 with zero
    coordinates would pass every row).  Pivot column pivots[r] passes exactly
    when its coordinates are den e_r; any other column is checked packed."""
    if den <= 0:
        return False
    units = [[den * (i == r) for i in range(len(pivots))] for r in range(len(pivots))]
    if [coords[p] for p in pivots] != units:
        return False
    others = sorted(set(range(len(coords))) - set(pivots))
    # W whole bytes, 2^W > the row error bound (module docstring): each entry,
    # offset by 2^(W - 1) into [0, 2^W), is one digit, in one pass per column.
    top = max((abs(x) for row in m for x in row), default=0)
    bound = top * (den + max((sum(map(abs, coords[c])) for c in others), default=0))
    size = bound.bit_length() // 8 + 1
    offset = 1 << 8 * size - 1
    offsets = int.from_bytes(offset.to_bytes(size, "little") * len(m), "little")
    packed = [int.from_bytes(b"".join((x + offset).to_bytes(size, "little") for x in col), "little")
              - offsets for col in zip(*m)]
    basis = [packed[p] for p in pivots]
    return all(den * packed[c] == sum(map(mul, coords[c], basis)) for c in others)


def invert(rows: Sequence[Sequence]) -> Matrix:
    """Exact inverse read off the column basis of [A | I]: column j of the
    inverse is the coordinate vector of e_j in A's columns, over den, and a
    Fraction only where den does not divide it.  Raises ZeroDivisionError on
    singular input."""
    a = _square(rows)
    n = len(a)
    pivots, coords, den = column_basis(
        [row + [int(i == j) for j in range(n)] for i, row in enumerate(a)], 2 * n
    )
    # [A | I] has rank n; A is invertible iff all n pivots fall in A's columns.
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [[Fraction(x, den) if x % den else x // den for x in row] for row in zip(*coords[n:])]


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

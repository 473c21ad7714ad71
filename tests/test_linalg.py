"""Exact linear algebra against sympy.Matrix on seeded random rational matrices."""

import math
import random
from fractions import Fraction

import pytest
import sympy

from sphere_sos import linalg
from sphere_sos.lie import BilinearForm


def random_matrix(rng, n_rows, n_cols, rank=None):
    """Random rationals; with ``rank`` given, a product of two random factors
    of that inner size (so rank at most ``rank``, almost surely equal)."""

    def entry():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    if rank is None:
        return [[entry() for _ in range(n_cols)] for _ in range(n_rows)]
    left = [[entry() for _ in range(rank)] for _ in range(n_rows)]
    right = [[entry() for _ in range(n_cols)] for _ in range(rank)]
    return [
        [sum((left[i][t] * right[t][j] for t in range(rank)), Fraction(0)) for j in range(n_cols)]
        for i in range(n_rows)
    ]


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])


def from_sympy(matrix):
    return [[Fraction(int(x.p), int(x.q)) for x in matrix.row(i)] for i in range(matrix.rows)]


def matvec(rows, vec):
    return [sum((a * b for a, b in zip(row, vec)), Fraction(0)) for row in rows]


def as_fractions(pivots, coords, den):
    """column_basis's answer with each coordinate as a Fraction: (pivots,
    coords[c][r] / den)."""
    return pivots, [[Fraction(x, den) for x in column] for column in coords]


def solve_by_column_basis(rows, rhs):
    """One solution of A x = b read off the column basis of [A | b], or None
    when b is a pivot column, that is when A x = b is inconsistent."""
    n_cols = len(rows[0])
    pivots, coords = as_fractions(
        *linalg.column_basis([list(row) + [b] for row, b in zip(rows, rhs)])
    )
    if pivots and pivots[-1] == n_cols:
        return None
    x = [Fraction(0)] * n_cols
    for p, c in zip(pivots, coords[n_cols]):
        x[p] = c
    return x


SHAPES = [
    (n_rows, n_cols, rank)
    for n_rows, n_cols in ((3, 3), (4, 6), (6, 4), (5, 5))
    for rank in (None, 2)
]

# Invertible, but the first pivot is zero, so elimination must swap rows.
NEEDS_SWAP = [
    [[0, 1], [1, 0]],
    [[0, 2, 1], [3, 1, 0], [1, 0, 0]],
    [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
]

SINGULAR = [
    [[1, 2], [2, 4]],
    [[0, 0], [0, 0]],
    [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
    [[0, 1, 0], [0, 1, 1], [0, 0, 1]],
]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("shape", SHAPES)
class TestAgainstSympy:
    def test_rank(self, shape, seed):
        a = random_matrix(random.Random(seed), *shape)
        assert linalg.rank(a) == to_sympy(a).rank()

    def test_echelon_pivots_and_integrality(self, shape, seed):
        a = random_matrix(random.Random(seed), *shape)
        echelon, pivots = linalg.fraction_free_echelon(a)
        assert all(isinstance(x, int) for row in echelon for x in row)
        assert tuple(pivots) == to_sympy(a).rref()[1]

    def test_nullspace(self, shape, seed):
        a = random_matrix(random.Random(seed), *shape)
        basis = linalg.nullspace(a)
        expected = to_sympy(a).nullspace()
        assert len(basis) == len(expected)
        pivots = to_sympy(a).rref()[1]
        free = [c for c in range(shape[1]) if c not in pivots]
        for vec, c in zip(basis, free):
            assert all(x == 0 for x in matvec(a, vec))
            assert all(x.denominator == 1 for x in vec)
            # Primitive, with its own free coordinate positive.
            assert math.gcd(*(int(x) for x in vec)) == 1
            assert vec[c] > 0 and all(vec[f] == 0 for f in free if f != c)
        if basis:
            # Same span: stacking either basis on ours adds no rank.
            ours = to_sympy(basis)
            theirs = sympy.Matrix.hstack(*expected).T
            assert ours.rank() == len(basis) == sympy.Matrix.vstack(ours, theirs).rank()

    def test_column_basis(self, shape, seed):
        a = random_matrix(random.Random(seed), *shape)
        answer = linalg.column_basis(a)
        pivots, coords, den = answer
        assert den > 0 and math.gcd(den, *sum(coords, [])) == 1
        assert all(type(x) is int for column in coords for x in column)
        pivots, coords = as_fractions(*answer)
        assert tuple(pivots) == to_sympy(a).rref()[1]
        columns = [list(col) for col in zip(*a)]
        for c, x in enumerate(coords):
            combo = [sum((q * columns[p][i] for q, p in zip(x, pivots)), Fraction(0))
                     for i in range(len(a))]
            assert combo == columns[c]

    def test_solve(self, shape, seed):
        rng = random.Random(seed)
        a = random_matrix(rng, *shape)
        n_rows, n_cols, _ = shape
        reachable = matvec(a, [Fraction(rng.randint(-3, 3)) for _ in range(n_cols)])
        x = solve_by_column_basis(a, reachable)
        assert x is not None and matvec(a, x) == reachable
        arbitrary = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n_rows)]
        consistent = to_sympy(a).rank() == sympy.Matrix.hstack(
            to_sympy(a), to_sympy([[b] for b in arbitrary])
        ).rank()
        x = solve_by_column_basis(a, arbitrary)
        assert (x is not None) == consistent
        if x is not None:
            assert matvec(a, x) == arbitrary


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_invert_and_minors_on_random_square(n, seed):
    # Odd seeds draw a singular matrix (rank n - 1) when n > 1.
    rank = n - 1 if seed % 2 and n > 1 else None
    a = random_matrix(random.Random(100 * n + seed), n, n, rank=rank)
    s = to_sympy(a)
    if s.det() == 0:
        with pytest.raises(ZeroDivisionError):
            linalg.invert(a)
    else:
        assert linalg.invert(a) == from_sympy(s.inv())
    # ldl succeeds on a + a^T iff its leading minors are all positive, and
    # the products of its pivots are those minors.
    sym = [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]
    minors = [to_sympy(sym)[: k + 1, : k + 1].det() for k in range(n)]
    if all(x > 0 for x in minors):
        _, d = linalg.ldl(sym)
        assert [math.prod(d[: k + 1]) for k in range(n)] == minors
    else:
        with pytest.raises(ValueError, match="positive definite"):
            linalg.ldl(sym)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("n", [2, 3, 5])
def test_positive_definiteness_on_random_symmetric(n, seed):
    rng = random.Random(1000 * n + seed)
    g = random_matrix(rng, n, n)
    # g^T g + shift: positive definite for large shifts, indefinite for
    # negative ones, and somewhere in between for the rest.
    shift = Fraction(rng.randint(-8, 4))
    sym = [
        [
            sum((g[t][i] * g[t][j] for t in range(n)), Fraction(0)) + (shift if i == j else 0)
            for j in range(n)
        ]
        for i in range(n)
    ]
    assert BilinearForm.from_rows(sym).is_positive_definite() == to_sympy(sym).is_positive_definite


@pytest.mark.parametrize("rows", NEEDS_SWAP)
def test_invert_with_row_swap(rows):
    inverse = linalg.invert(rows)
    assert inverse == from_sympy(to_sympy(rows).inv())
    assert linalg.rank(rows) == len(rows)
    ones = [Fraction(1)] * len(rows)
    assert solve_by_column_basis(rows, ones) == matvec(inverse, ones)


@pytest.mark.parametrize("rows", SINGULAR)
def test_singular_matrix_rejected(rows):
    with pytest.raises(ZeroDivisionError):
        linalg.invert(rows)
    assert linalg.rank(rows) < len(rows)


def test_swap_trap_is_not_positive_definite():
    # A swapping elimination of [[0,1],[1,0]] ends on the identity; the
    # leading minors (0, -1) show the form is indefinite.
    with pytest.raises(ValueError, match="positive definite"):
        linalg.ldl([[0, 1], [1, 0]])
    assert not BilinearForm.from_rows([[0, 1], [1, 0]]).is_positive_definite()
    assert not BilinearForm.from_rows([[1, 0], [0, 0]]).is_positive_definite()


def test_nullspace_with_a_pivot_in_the_last_column():
    # The last pivot row has nothing to its right: its sum is empty.
    assert linalg.nullspace([[1, 1, 0], [0, 0, 1]]) == [[-1, 1, 0]]
    assert linalg.nullspace([[0, 1]]) == [[1, 0]]


def test_nullspace_sign_with_a_negative_last_pivot():
    # y[free] is the last pivot, -1 here: the sign comes from it, not from y.
    assert linalg.nullspace([[1, 0, 1], [0, -1, 1]]) == [[-1, 1, 1]]
    assert linalg.nullspace([[2, 0, 4], [0, -3, 6]]) == [[-2, 2, 1]]


def test_minors_undo_the_row_scaling():
    # The rows are scaled by 6 and 12 (or 15) before elimination; the pivots
    # are ratios of the leading minors of the unscaled matrix.
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(1, 4)]]
    assert linalg.ldl(rows)[1] == [Fraction(1, 2), (Fraction(1, 8) - Fraction(1, 9)) * 2]
    # Second minor 1/10 - 1/9 < 0.
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(1, 5)]]
    with pytest.raises(ValueError, match="positive definite"):
        linalg.ldl(rows)


@pytest.mark.parametrize("seed", range(4))
def test_integer_rows_are_copied_not_converted(seed):
    rng = random.Random(seed)
    rows = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(4)]
    before = [row[:] for row in rows]
    echelon, pivots = linalg.fraction_free_echelon(rows)
    assert (echelon, pivots) == linalg.fraction_free_echelon(
        [[Fraction(x) for x in row] for row in rows]
    )
    assert all(type(x) is int for row in echelon for x in row)
    assert rows == before


def test_non_square_rejected():
    with pytest.raises(ValueError):
        linalg.invert([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        linalg.ldl([[1, 2, 3], [4, 5, 6]])


def test_column_basis_of_an_empty_matrix_needs_a_column_count():
    assert linalg.column_basis([], 3) == ([], [[], [], []], 1)
    with pytest.raises(ValueError):
        linalg.column_basis([])


RAGGED = [[[1], [3, 4]], [[1, 2], [3]], [[Fraction(1, 2)], [3, 4]]]


@pytest.mark.parametrize("rows", RAGGED)
@pytest.mark.parametrize(
    "solve", [linalg.column_basis, linalg.nullspace, linalg.rank, linalg.fraction_free_echelon]
)
def test_ragged_rows_are_rejected(solve, rows):
    with pytest.raises(ValueError, match="differ in length"):
        solve(rows)


@pytest.mark.parametrize("solve", [linalg.column_basis, linalg.nullspace])
def test_a_column_count_the_rows_contradict_is_rejected(solve):
    with pytest.raises(ValueError, match="2 columns, not 5"):
        solve([[1, 2]], 5)
    assert solve([[1, 2]], 2) == solve([[1, 2]])


def test_column_basis_keeps_the_first_independent_columns():
    pivots, coords, den = linalg.column_basis([[0, 1, 2, 1], [0, 0, 0, 1]])
    assert pivots == [1, 3]
    assert coords == [[0, 0], [1, 0], [2, 0], [0, 1]]
    assert den == 1


def test_column_basis_reads_integers_over_the_least_positive_denominator():
    # The last Bareiss pivot is -2: every coordinate is an integer over it,
    # and the answer takes the least denominator, with a positive sign.
    assert linalg.fraction_free_echelon([[1, 2, 1], [3, 4, 0]])[0][1][1] == -2
    assert linalg.column_basis([[1, 2, 1], [3, 4, 0]]) == (
        [0, 1], [[2, 0], [0, 2], [-4, 3]], 2
    )
    # Pivots 6 and 6 * 5: the coordinates share the factor 6 with D = 30.
    pivots, coords, den = linalg.column_basis([[6, 0, 6], [0, 5, 10]])
    assert (pivots, coords, den) == ([0, 1], [[1, 0], [0, 1], [1, 2]], 1)


class TestPivotPrime:
    """column_basis eliminates the rows that carry its pivots modulo
    PIVOT_PRIME and keeps the answer only if the exact check on every row
    passes; otherwise it eliminates every row."""

    # Modulo 2 the first row vanishes, so the pivot rows mod 2 miss column 0.
    ROWS = [[2, 0, 4], [0, 1, 1], [2, 1, 5]]

    def test_a_prime_dividing_a_minor_falls_back_to_every_row(self, monkeypatch):
        expected = linalg.column_basis(self.ROWS)
        assert expected == ([0, 1], [[1, 0], [0, 1], [2, 1]], 1)
        tried = []
        real = linalg._coordinates
        monkeypatch.setattr(linalg, "_coordinates", lambda rows: tried.append(rows) or real(rows))
        monkeypatch.setattr(linalg, "PIVOT_PRIME", 2)
        assert linalg.column_basis(self.ROWS) == expected
        assert tried == [[[0, 1, 1]], self.ROWS]

    def test_only_a_failure_on_every_row_raises(self, monkeypatch):
        real = linalg._coordinates

        def corrupt(when):
            def coordinates(rows):
                pivots, coords, den = real(rows)
                if when(rows):
                    coords[2] = [x + 1 for x in coords[2]]
                return pivots, coords, den
            return coordinates

        monkeypatch.setattr(linalg, "PIVOT_PRIME", 2)
        monkeypatch.setattr(linalg, "_coordinates", corrupt(lambda rows: len(rows) < 3))
        assert linalg.column_basis(self.ROWS) == ([0, 1], [[1, 0], [0, 1], [2, 1]], 1)
        monkeypatch.setattr(linalg, "_coordinates", corrupt(lambda rows: len(rows) == 3))
        with pytest.raises(RuntimeError, match="span coordinates"):
            linalg.column_basis(self.ROWS)

    @pytest.mark.parametrize("prime", [2, 3, 5, 7])
    @pytest.mark.parametrize("seed", range(4))
    def test_any_prime_gives_the_same_answer(self, monkeypatch, prime, seed):
        rng = random.Random(seed)
        rows = [[rng.choice([0, 0, prime, 1, -prime, 2 * prime]) for _ in range(6)]
                for _ in range(8)]
        solvers = (linalg.column_basis, linalg.nullspace, linalg.rank)
        expected = [solve(rows) for solve in solvers]
        monkeypatch.setattr(linalg, "PIVOT_PRIME", prime)
        assert [solve(rows) for solve in solvers] == expected
        assert len(expected[0][0]) == expected[2] == sympy.Matrix(rows).rank()


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_ldl_matches_sympy_on_positive_definite(n, seed):
    rng = random.Random(2000 * n + seed)
    g = random_matrix(rng, n, n)
    # g^T g + I is positive definite with rational entries.
    sym = [
        [sum((g[t][i] * g[t][j] for t in range(n)), Fraction(int(i == j))) for j in range(n)]
        for i in range(n)
    ]
    lower, d = linalg.ldl(sym)
    sym_l, sym_d = to_sympy(sym).LDLdecomposition()
    assert lower == from_sympy(sym_l)
    assert d == [from_sympy(sym_d)[i][i] for i in range(n)]
    assert all(x > 0 for x in d)


NOT_POSITIVE_DEFINITE = [
    [[-1]],
    [[0]],
    [[1, 2], [2, 1]],  # indefinite
    [[1, 1], [1, 1]],  # semidefinite, singular
    [[0, 1], [1, 0]],  # a swap would hide the zero leading minor
    [[2, 1, 0], [1, 2, 0], [0, 0, -3]],
]


@pytest.mark.parametrize("rows", NOT_POSITIVE_DEFINITE)
def test_ldl_rejects_a_matrix_that_is_not_positive_definite(rows):
    with pytest.raises(ValueError, match="positive definite"):
        linalg.ldl(rows)


def test_ldl_rejects_asymmetric_and_non_square_input():
    with pytest.raises(ValueError, match="symmetric"):
        linalg.ldl([[2, 1], [0, 2]])
    with pytest.raises(ValueError, match="square"):
        linalg.ldl([[1, 2, 3], [4, 5, 6]])
    assert linalg.ldl([]) == ([], [])


class TestEngineFault:
    """A failed internal check is an EngineFault, never a verdict or a rejection."""

    def test_a_back_substitution_remainder_is_an_engine_fault(self):
        # Not a Bareiss echelon form: x2 = 1 gives x0 = 1/6, and 3 * x0 is no integer.
        with pytest.raises(linalg.EngineFault, match="remainder"):
            linalg._back_substitute([[2, 1, 0], [0, 3, 1]], [0, 1], 3, free=2)

    def test_a_wrong_kernel_vector_is_an_engine_fault(self, monkeypatch):
        # One pivot coordinate of every back-substitution off by one: the
        # kernel vector would miss the kernel, and the exact check says so.
        real = linalg._back_substitute

        def corrupt(echelon, pivots, n, free):
            y = real(echelon, pivots, n, free)
            y[pivots[0]] += 1
            return y

        monkeypatch.setattr(linalg, "_back_substitute", corrupt)
        with pytest.raises(linalg.EngineFault, match="span coordinates"):
            linalg.nullspace([[1, 2, 3], [4, 5, 6]])

    def test_a_wrong_pivot_coordinate_is_an_engine_fault(self, monkeypatch):
        # A pivot column is checked by its coordinates alone: twice the unit
        # vector would say the column is twice itself.
        real = linalg._coordinates

        def corrupt(m):
            pivots, coords, den = real(m)
            coords[pivots[-1]] = [2 * q for q in coords[pivots[-1]]]
            return pivots, coords, den

        monkeypatch.setattr(linalg, "_coordinates", corrupt)
        with pytest.raises(linalg.EngineFault, match="span coordinates"):
            linalg.column_basis([[1, 2, 3], [4, 5, 6]])

    @pytest.mark.parametrize(
        "corrupt",
        [
            # Zero coordinates over 0 would pass every row check, vacuously.
            lambda pivots, coords, den: (pivots, [[0] * len(x) for x in coords], 0),
            # Every coordinate and den negated: the same ratios, but den < 0.
            lambda pivots, coords, den: (pivots, [[-q for q in x] for x in coords], -den),
        ],
        ids=["zero-denominator", "negated-denominator"],
    )
    def test_a_denominator_that_is_not_positive_is_an_engine_fault(self, monkeypatch, corrupt):
        real = linalg._coordinates
        monkeypatch.setattr(linalg, "_coordinates", lambda m: corrupt(*real(m)))
        with pytest.raises(linalg.EngineFault, match="span coordinates"):
            linalg.column_basis([[1, 2, 3], [4, 5, 6]])

    def test_a_failed_check_on_every_row_is_an_engine_fault(self, monkeypatch):
        monkeypatch.setattr(linalg, "_spans", lambda m, pivots, coords, den: False)
        with pytest.raises(linalg.EngineFault, match="span coordinates"):
            linalg.column_basis([[1, 2], [3, 4]])


class TestPackedCheck:
    """_spans checks every row of a dependent column as one identity of
    packed columns; the digit width must keep one row's error from carrying
    into the next, and the lowest and highest digits must count."""

    @pytest.mark.parametrize("w", [8, 16, 32, 64])
    def test_row_errors_that_cancel_at_a_narrow_width_are_caught(self, w):
        # Column 2 is 3 a + 2 e, claimed as (3 - 2^w) a + 3 e: the row errors
        # are +2^w in row 1 and -1 in row 2, which cancel as w-bit digits.  The
        # entries fit in 3 bits, so a width read off them alone is too narrow.
        m = [[0, 0, 0], [1, 0, 3], [0, 1, 2], [0, 0, 0]]
        assert linalg.column_basis(m) == ([0, 1], [[1, 0], [0, 1], [3, 2]], 1)
        claimed = [[1, 0], [0, 1], [3 - (1 << w), 3]]
        errors = [row[2] - sum(x * q for x, q in zip(claimed[2], row)) for row in m]
        assert errors == [0, 1 << w, -1, 0]
        assert sum(z << w * i for i, z in enumerate(errors)) == 0
        assert linalg._spans(m, [0, 1], claimed, 1) is False
        # The same errors times -5, over den 5.
        assert linalg._spans(m, [0, 1], [[5, 0], [0, 5], [5 * (3 + (1 << w)), 5]], 5) is False

    @pytest.mark.parametrize("scale", [1, 1 << 70])
    @pytest.mark.parametrize("row", [0, -1])
    def test_an_entry_off_by_one_in_the_first_or_last_row_is_caught(self, row, scale):
        # Columns 2 and 4 depend on 0, 1 and 3 with den 2; the entries reach 2^72.
        rng = random.Random(row)
        a, b, c = ([rng.randint(-9, 9) * 2 * scale for _ in range(6)] for _ in range(3))
        m = [[x, y, x - y, z, (x + 3 * y + z) // 2] for x, y, z in zip(a, b, c)]
        pivots, coords, den = linalg.column_basis(m)
        assert pivots == [0, 1, 3] and den in (1, 2) and linalg._spans(m, pivots, coords, den)
        for column in (2, 4):
            bad = [list(r) for r in m]
            bad[row][column] += 1
            assert linalg._spans(bad, pivots, coords, den) is False

    @pytest.mark.parametrize("den", [0, -1])
    def test_a_denominator_that_is_not_positive_is_rejected(self, den):
        # den * column 1 == 2 den * column 0 holds on every row, packed or not.
        m = [[1, 2], [3, 6], [-5, -10]]
        coords = [[den], [2 * den]]
        assert all(den * r[1] == 2 * den * r[0] for r in m)
        assert linalg._spans(m, [0], coords, den) is False


def test_integral_results_are_ints():
    inverse = linalg.invert([[2, 0], [0, 1.0]])
    assert inverse == [[Fraction(1, 2), 0], [0, 1]]
    assert [type(x) for row in inverse for x in row] == [Fraction, int, int, int]
    kernel = linalg.nullspace([[0.5, 1.0, 0]])
    assert kernel == [[-2, 1, 0], [0, 0, 1]]
    assert all(type(x) is int for v in kernel for x in v)

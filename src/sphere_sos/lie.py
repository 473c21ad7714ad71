"""Exact Lie-algebra infrastructure.

Algebras are given by exact structure constants on a labelled basis,
stored sparsely: for each basis pair (i, j) only the nonzero (k, c) with
[X_i, X_j] = sum_k c X_k, sorted by k.  Only this module knows that layout;
``LieAlgebraData.from_brackets`` builds it and ``bracket`` returns dense
coordinate tuples.  so(m) comes straight from the closed form of the
matrix-unit commutators, its trace form is the identity, and the Killing
form is read from the constants, so no m x m matrix is ever multiplied.
Forms are symmetric matrices.  Every stored value is an int where it is
integral and a Fraction otherwise, never a float (``linalg.exact``), so the
built-in cases run in integers.  Everything downstream is exact: brackets,
invariance checks with explicit counterexample witnesses, orthogonal
reductive decompositions, and Casimir elements as (dual vector, basis vector)
pairs.  A decomposition needs a positive definite form, so a subalgebra k
and its complement m are each other's B-orthogonal complements: closure,
stability and natural reductivity are all read off B-orthogonality, and
nothing is ever projected onto m.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from typing import Mapping, NamedTuple, Sequence

from . import linalg
from .linalg import exact

Rational = int | Fraction
Vector = tuple[Rational, ...]
Sparse = tuple[tuple[int, Rational], ...]


def _vec(values: Sequence) -> Vector:
    return tuple(map(exact, values))


def _sparse(coeffs: Mapping[int, Rational]) -> Sparse:
    return tuple((k, exact(c)) for k, c in sorted(coeffs.items()) if c != 0)


class LieAlgebraData(
    NamedTuple(
        "LieAlgebraData",
        [("labels", tuple[str, ...]), ("structure", tuple[tuple[Sparse, ...], ...])],
    )
):
    """Sparse structure constants: structure[i][j] lists the nonzero (k, c)
    with [X_i, X_j] = sum_k c X_k, in increasing k."""

    __slots__ = ()

    def __new__(cls, labels: tuple[str, ...], structure: tuple[tuple[Sparse, ...], ...]):
        self = super().__new__(cls, labels, structure)
        if len(self.structure) != self.dim or any(
            len(row) != self.dim or any(entry != _sparse(dict(entry)) for entry in row)
            for row in self.structure
        ):
            raise ValueError("structure constants must be dim x dim sorted nonzero (k, c) lists")
        if any(not 0 <= k < self.dim for row in self.structure for entry in row for k, _ in entry):
            raise ValueError("structure constant index out of range")
        return self

    @property
    def dim(self) -> int:
        return len(self.labels)

    @classmethod
    def from_brackets(
        cls, labels: Sequence[str], brackets: Mapping[tuple[int, int], Mapping[int, Rational]]
    ) -> "LieAlgebraData":
        """Algebra with [X_i, X_j] = sum_k brackets[i, j][k] X_k; pairs not
        listed bracket to zero (so antisymmetry is the caller's to state)."""
        dim = len(labels)
        structure = tuple(
            tuple(_sparse(brackets.get((i, j), {})) for j in range(dim)) for i in range(dim)
        )
        return cls(labels=tuple(labels), structure=structure)

    def basis_vector(self, index: int) -> Vector:
        return tuple(int(k == index) for k in range(self.dim))

    def bracket(self, u: Sequence, v: Sequence) -> Vector:
        """[u, v] in coordinates; bilinear extension of the structure constants."""
        u, v = _vec(u), _vec(v)
        if len(u) != self.dim or len(v) != self.dim:
            raise ValueError("coordinate vectors must match the algebra dimension")
        out = [0] * self.dim
        for i, ci in enumerate(u):
            if ci == 0:
                continue
            for j, cj in enumerate(v):
                if cj == 0:
                    continue
                for k, c in self.structure[i][j]:
                    out[k] += ci * cj * c
        return _vec(out)

    def check_antisymmetry(self) -> bool:
        s = self.structure
        return all(
            s[i][j] == tuple((k, -c) for k, c in s[j][i])
            for i, j in product(range(self.dim), repeat=2)
        )

    def check_jacobi(self) -> bool:
        """Jacobi identity on all basis triples, exactly; J(i, j, k) sums the same three
        double brackets as its rotations, so only the smallest rotation is checked."""
        s = self.structure
        for i, j, k in product(range(self.dim), repeat=3):
            if (i, j, k) > min((j, k, i), (k, i, j)):
                continue
            total: defaultdict[int, Rational] = defaultdict(int)
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                # [X_a, [X_b, X_c]]
                for n, x in s[b][c]:
                    for t, y in s[a][n]:
                        total[t] += x * y
            if any(total.values()):
                return False
        return True


class BilinearForm(NamedTuple("BilinearForm", [("matrix", tuple[Vector, ...])])):
    """Symmetric exact matrix; positive definiteness checked on demand."""

    __slots__ = ()

    def __new__(cls, matrix: tuple[Vector, ...]):
        self = super().__new__(cls, matrix)
        n = len(self.matrix)
        if any(len(row) != n for row in self.matrix):
            raise ValueError("form matrix must be square")
        for i in range(n):
            for j in range(i):
                if self.matrix[i][j] != self.matrix[j][i]:
                    raise ValueError("form matrix must be symmetric")
        return self

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "BilinearForm":
        return cls(tuple(_vec(row) for row in rows))

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def __call__(self, u: Sequence, v: Sequence) -> Rational:
        """u^T B v, summed over the nonzero coordinates of u and v only."""
        if len(u) != self.dim or len(v) != self.dim:
            raise ValueError("coordinate vectors must match the form dimension")
        v_support = [(j, exact(y)) for j, y in enumerate(v) if y]
        total = 0
        for i, x in enumerate(u):
            if x:
                row = self.matrix[i]
                total += exact(x) * sum(row[j] * y for j, y in v_support)
        return exact(total)

    def is_positive_definite(self) -> bool:
        """Exact: B = L D L^T with every pivot of D positive."""
        try:
            return all(d > 0 for d in linalg.ldl(self.matrix)[1])
        except ValueError:
            return False

    def scale(self, factor) -> "BilinearForm":
        f = exact(factor)
        return BilinearForm(tuple(_vec(x * f for x in row) for row in self.matrix))


# ----------------------------------------------------------------------
# concrete algebras
# ----------------------------------------------------------------------


def so_algebra(m: int) -> LieAlgebraData:
    """so(m) on the basis {E_ij}_{i<j}, from the closed form
    [E_ij, E_kl] = d_jk E_il - d_ik E_jl - d_jl E_ik + d_il E_jk
    of the matrix-unit commutators, with E_ji = -E_ij and E_ii = 0."""
    if m < 3:
        raise ValueError(f"need m >= 3, got {m}")
    pairs = list(combinations(range(1, m + 1), 2))
    index = {p: n for n, p in enumerate(pairs)}
    brackets = {}
    for (a, (i, j)), (b, (k, l)) in product(enumerate(pairs), repeat=2):
        coeffs: defaultdict[int, int] = defaultdict(int)
        for delta, sign, (p, q) in (
            (j == k, 1, (i, l)),
            (i == k, -1, (j, l)),
            (j == l, -1, (i, k)),
            (i == l, 1, (j, k)),
        ):
            if delta and p != q:
                coeffs[index[min(p, q), max(p, q)]] += sign if p < q else -sign
        brackets[a, b] = coeffs
    return LieAlgebraData.from_brackets([f"E{i}{j}" for i, j in pairs], brackets)


def su2_algebra() -> LieAlgebraData:
    """su(2) abstractly: [e1, e2] = e3 and cyclic permutations."""
    brackets = {}
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        brackets[i, j] = {k: 1}
        brackets[j, i] = {k: -1}
    return LieAlgebraData.from_brackets(("e1", "e2", "e3"), brackets)


def su2_round_form() -> BilinearForm:
    """Form on su2_algebra whose projected Casimir matches the unit-sphere
    Laplacian on S^3 (the flow fields of the cyclic basis have length 1/2
    there, so the matching Gram matrix is I/4)."""
    return BilinearForm.from_rows(
        [[Fraction(1, 4) if i == j else 0 for j in range(3)] for i in range(3)]
    )


def trace_form(m: int) -> BilinearForm:
    """B(X, Y) = -1/2 trace(XY) on the E_ij basis of so(m).

    trace(E_ij E_kl) is -2 on equal pairs and 0 otherwise, so B is the
    identity: {E_ij} is orthonormal, which is the normalization under which
    the projected Casimir reproduces the round Laplacian with constant
    exactly one.  Any other multiple of the trace is ``BilinearForm.scale``.
    """
    dim = m * (m - 1) // 2
    return BilinearForm.from_rows([[int(a == b) for b in range(dim)] for a in range(dim)])


def killing_form(algebra: LieAlgebraData) -> BilinearForm:
    """K(X_a, X_b) = trace(ad X_a ad X_b) = sum_{k,l} c_akl c_blk, exactly,
    read from the structure constants."""
    s, dim = algebra.structure, algebra.dim
    lookup = [[dict(entry) for entry in row] for row in s]

    def entry(a: int, b: int) -> Rational:
        return sum(c * lookup[b][l].get(k, 0) for k in range(dim) for l, c in s[a][k])

    return BilinearForm.from_rows([[entry(a, b) for b in range(dim)] for a in range(dim)])


def perturbed_form(base: BilinearForm) -> BilinearForm:
    """Negative control: base with 1 added to entry (0, 0), symmetric but not
    invariant for the invariant forms of the built-in cases."""
    rows = [list(row) for row in base.matrix]
    rows[0][0] += 1
    return BilinearForm.from_rows(rows)


# ----------------------------------------------------------------------
# invariance and reductivity
# ----------------------------------------------------------------------


def ad_invariance_witness(
    algebra: LieAlgebraData, form: BilinearForm
) -> tuple[int, int, int] | None:
    """First basis triple (z, x, y) violating B([Z,X],Y) + B(X,[Z,Y]) = 0, or None.
    Only x <= y is scanned: the defect is symmetric in (x, y), as B is."""
    if form.dim != algebra.dim:
        raise ValueError("form and algebra dimensions differ")
    s, b, dim = algebra.structure, form.matrix, algebra.dim
    for z, (x, y) in product(range(dim), combinations_with_replacement(range(dim), 2)):
        if sum(c * b[k][y] for k, c in s[z][x]) + sum(c * b[x][k] for k, c in s[z][y]) != 0:
            return (z, x, y)
    return None


class ReductiveDecomposition(NamedTuple):
    """B-orthogonal splitting of the algebra into a subalgebra and its complement."""

    algebra: LieAlgebraData
    form: BilinearForm
    subalgebra_basis: tuple[Vector, ...]
    complement_basis: tuple[Vector, ...]


def orthogonal_decomposition(
    algebra: LieAlgebraData,
    subalgebra_basis: Sequence[Sequence],
    form: BilinearForm,
) -> ReductiveDecomposition:
    """Split the algebra as subalgebra + B-orthogonal complement, verified exactly.

    Checks that the form is positive definite, that the given vectors are
    independent, that their span k is closed under the bracket, and that the
    complement m is bracket-stable under k.  B is positive definite, so
    m = k^perp and k = m^perp, and every check is a B-orthogonality test:
    a dependent k leaves a complement of more than dim - len(k) vectors,
    [a, b] lies in k iff it is B-orthogonal to m, and [k, m] lies in m iff
    it is B-orthogonal to k.
    """
    if form.dim != algebra.dim:
        raise ValueError("form and algebra dimensions differ")
    if not form.is_positive_definite():
        raise ValueError("decomposition needs a positive definite form")
    k_basis = [_vec(v) for v in subalgebra_basis]
    # Complement: kernel of u -> (B(u, k_1), ..., B(u, k_r)).
    constraint = [
        [form(algebra.basis_vector(col), k) for col in range(algebra.dim)] for k in k_basis
    ]
    m_basis = [tuple(v) for v in linalg.nullspace(constraint, n_cols=algebra.dim)]
    if len(k_basis) + len(m_basis) != algebra.dim:
        raise ValueError("subalgebra basis vectors are linearly dependent")
    for a, b in product(k_basis, repeat=2):
        ab = algebra.bracket(a, b)
        if any(form(ab, mvec) != 0 for mvec in m_basis):
            raise ValueError("given span is not closed under the bracket")
    for k, mvec in product(k_basis, m_basis):
        if form(k, mvec) != 0:
            raise linalg.EngineFault("complement is not B-orthogonal")
        km = algebra.bracket(k, mvec)
        if any(form(km, kvec) != 0 for kvec in k_basis):
            raise ValueError("complement is not stable under the subalgebra")
    return ReductiveDecomposition(
        algebra=algebra,
        form=form,
        subalgebra_basis=tuple(k_basis),
        complement_basis=tuple(m_basis),
    )


def natural_reductivity_witness(
    dec: ReductiveDecomposition,
) -> tuple[int, int, int] | None:
    """First complement-basis triple violating
    B([Z,X]_m, Y) + B(X, [Z,Y]_m) = 0, or None.

    For X, Y in m the k-part of [Z, X] is B-orthogonal to Y, so
    B([Z,X]_m, Y) = B([Z,X], Y) and no projection is needed.
    """
    basis = dec.complement_basis
    alg, form = dec.algebra, dec.form
    for z, ez in enumerate(basis):
        brackets = [alg.bracket(ez, ex) for ex in basis]
        # values[x][y] = B([Z, X], Y), and B(X, [Z, Y]) = values[y][x].
        values = [[form(zx, ey) for ey in basis] for zx in brackets]
        for x, y in product(range(len(basis)), repeat=2):
            if values[x][y] + values[y][x] != 0:
                return (z, x, y)
    return None


# ----------------------------------------------------------------------
# Casimir elements
# ----------------------------------------------------------------------


class CasimirElement(NamedTuple):
    """Pairs (dual vector, basis vector); the element is the sum of products."""

    pairs: tuple[tuple[Vector, Vector], ...]


def casimir_element(algebra: LieAlgebraData, form: BilinearForm) -> CasimirElement:
    """Casimir pairs (dual_j, e_j) on the unit basis.  The Casimir's
    coefficient tensor is B^-1 in any basis, and B is the symmetric Gram
    matrix of the unit basis, so dual_j is row j of B^-1.

    Raises ZeroDivisionError on a degenerate form.  The duality
    B(dual_i, e_j) = delta_ij is re-verified exactly.
    """
    if form.dim != algebra.dim:
        raise ValueError("form and algebra dimensions differ")
    basis = [algebra.basis_vector(i) for i in range(algebra.dim)]
    duals = [_vec(row) for row in linalg.invert(form.matrix)]
    # B(dual_i, e_j) is dual_i times column j of B, which is row j.
    for dual, unit in zip(duals, basis):
        if tuple(sum(map(operator.mul, dual, row)) for row in form.matrix) != unit:
            raise linalg.EngineFault("dual basis failed the Gram consistency check")
    return CasimirElement(pairs=tuple(zip(duals, basis)))


def so_subalgebra_fixing_last_axis(m: int) -> list[Vector]:
    """Coordinates in so(m) of the copy of so(m-1) acting on the first m-1 axes."""
    pairs = list(combinations(range(1, m + 1), 2))
    n = len(pairs)
    return [tuple(int(t == k) for t in range(n)) for k, (_, j) in enumerate(pairs) if j < m]

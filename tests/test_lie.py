import random
from fractions import Fraction
from itertools import combinations, product

import pytest

import oracles
from sphere_sos import linalg
from sphere_sos.cli import IDENTITY_CASES, IDENTITY_FORMS, _identity_case
from sphere_sos.lie import (
    BilinearForm,
    LieAlgebraData,
    ad_invariance_witness,
    casimir_element,
    killing_form,
    natural_reductivity_witness,
    orthogonal_decomposition,
    perturbed_form,
    so_algebra,
    so_subalgebra_fixing_last_axis,
    su2_algebra,
    su2_round_form,
    trace_form,
)
from sphere_sos.realization import realize, so_realization


def _mat_mul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)
    ]


class TestSoAlgebra:
    def test_dimension(self):
        assert so_algebra(3).dim == 3
        assert so_algebra(4).dim == 6

    def test_bracket_example(self):
        alg = so_algebra(3)
        e12, e13, e23 = (alg.basis_vector(i) for i in range(3))
        assert alg.bracket(e12, e13) == tuple(
            Fraction(c) for c in (0, 0, -1)
        )  # [E12, E13] = -E23
        assert all(c == 0 for c in alg.bracket(e12, e12))

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_structure_constants_match_matrix_commutators(self, m):
        # Oracle: recompute each bracket as a matrix commutator directly.
        alg = so_algebra(m)
        pairs = list(combinations(range(1, m + 1), 2))
        mats = {p: oracles.so_basis_matrix(m, *p) for p in pairs}
        for a, pa in enumerate(pairs):
            for b, pb in enumerate(pairs):
                coords = alg.bracket(alg.basis_vector(a), alg.basis_vector(b))
                recon = [[Fraction(0)] * m for _ in range(m)]
                for k, pk in enumerate(pairs):
                    if coords[k]:
                        for r in range(m):
                            for c in range(m):
                                recon[r][c] += coords[k] * mats[pk][r][c]
                ab = _mat_mul(mats[pa], mats[pb])
                ba = _mat_mul(mats[pb], mats[pa])
                comm = [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(ab, ba)]
                assert recon == comm

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_jacobi_and_antisymmetry(self, m):
        alg = so_algebra(m)
        assert alg.check_antisymmetry()
        assert alg.check_jacobi()

    def test_checks_reject_bad_constants(self):
        # [a, b] = a alone is not antisymmetric; [a, b] = a, [a, c] = b and
        # [b, c] = 0 leave -b as the Jacobi sum of (a, b, c).
        one_sided = LieAlgebraData.from_brackets(("a", "b"), {(0, 1): {0: 1}})
        assert not one_sided.check_antisymmetry()
        brackets = {}
        for i, j, k in ((0, 1, 0), (0, 2, 1)):
            brackets[i, j] = {k: 1}
            brackets[j, i] = {k: -1}
        broken = LieAlgebraData.from_brackets(("a", "b", "c"), brackets)
        assert broken.check_antisymmetry()
        assert not broken.check_jacobi()

    def test_jacobi_fails_at_a_triple_with_a_repeated_index(self):
        # [a, a] = a: the only failing sums are J(a, a, a) and its rotations,
        # which a scan of i < j < k alone would never visit.
        assert not LieAlgebraData.from_brackets(("a",), {(0, 0): {0: 1}}).check_jacobi()

    @pytest.mark.parametrize("algebra", [so_algebra(3), so_algebra(4), su2_algebra()],
                             ids=["so3", "so4", "su2"])
    def test_one_broken_constant_is_caught_as_by_the_full_scan(self, algebra):
        # Each table differs from a Lie algebra's in one constant of one
        # ordered pair, so its bracket is bilinear but not antisymmetric.
        dim, broken = algebra.dim, 0
        for a, b, n in product(range(dim), repeat=3):
            brackets = {(i, j): dict(algebra.structure[i][j])
                        for i in range(dim) for j in range(dim)}
            brackets[a, b][n] = brackets[a, b].get(n, 0) + 1
            table = LieAlgebraData.from_brackets(algebra.labels, brackets)
            assert table.check_jacobi() is oracles.jacobi_by_all_triples(table)
            broken += not table.check_jacobi()
        assert broken > dim**3 // 2

    def test_malformed_constants_rejected(self):
        with pytest.raises(ValueError):
            LieAlgebraData.from_brackets(("a", "b"), {(0, 1): {2: 1}})
        with pytest.raises(ValueError):
            LieAlgebraData(labels=("a", "b"), structure=(((), ()), ((), ((1, Fraction(0)),))))

    def test_su2_jacobi(self):
        alg = su2_algebra()
        assert alg.check_jacobi()
        assert alg.bracket(alg.basis_vector(0), alg.basis_vector(1)) == (0, 0, 1)

    def test_bracket_bilinearity(self):
        alg = so_algebra(4)
        rng = random.Random(3)
        for _ in range(10):
            u = tuple(Fraction(rng.randint(-4, 4)) for _ in range(6))
            v = tuple(Fraction(rng.randint(-4, 4)) for _ in range(6))
            w = tuple(Fraction(rng.randint(-4, 4)) for _ in range(6))
            left = alg.bracket(tuple(a + b for a, b in zip(u, v)), w)
            split = tuple(
                a + b for a, b in zip(alg.bracket(u, w), alg.bracket(v, w))
            )
            assert left == split
            assert alg.bracket(u, v) == tuple(-c for c in alg.bracket(v, u))


class TestForms:
    def test_trace_form_orthonormal_basis(self):
        B = trace_form(3)
        assert B.matrix == tuple(
            tuple(Fraction(1) if i == j else Fraction(0) for j in range(3))
            for i in range(3)
        )

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_trace_form_matches_matrix_trace(self, m):
        # Oracle: tr(E_a E_b) from the matrix units themselves.
        mats = [oracles.so_basis_matrix(m, *p) for p in combinations(range(1, m + 1), 2)]
        expected = tuple(
            tuple(sum(_mat_mul(a, b)[i][i] for i in range(m)) for b in mats)
            for a in mats
        )
        assert trace_form(m).scale(-2).matrix == expected

    def test_killing_form_so3(self):
        K = killing_form(so_algebra(3))
        e = lambda i: [1 if t == i else 0 for t in range(3)]  # noqa: E731
        assert K(e(0), e(0)) == -2

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_killing_is_scalar_multiple_of_trace(self, m):
        # Killing(X, Y) = (m - 2) * trace(XY) on so(m) basis pairs.
        alg = so_algebra(m)
        K = killing_form(alg)
        T = trace_form(m).scale(-2)
        for i in range(alg.dim):
            for j in range(alg.dim):
                u, v = alg.basis_vector(i), alg.basis_vector(j)
                assert K(u, v) == (m - 2) * T(u, v)

    def test_killing_symmetry(self):
        K = killing_form(so_algebra(4))
        for i in range(6):
            for j in range(6):
                u = [1 if t == i else 0 for t in range(6)]
                v = [1 if t == j else 0 for t in range(6)]
                assert K(u, v) == K(v, u)

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_positive_definiteness_of_default_form(self, m):
        assert trace_form(m).is_positive_definite()
        _, pivots = linalg.ldl(trace_form(m).matrix)
        assert all(x > 0 for x in pivots)

    def test_killing_negative_definite_on_compact_form(self):
        K = killing_form(so_algebra(4))
        assert not K.is_positive_definite()
        assert K.scale(-1).is_positive_definite()

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValueError):
            BilinearForm.from_rows([[1, 2], [3, 4]])

    def test_wrong_length_vectors_rejected(self):
        B = trace_form(3)
        with pytest.raises(ValueError, match="form dimension"):
            B((1, 0, 0, 7), (1, 0, 0))
        with pytest.raises(ValueError, match="form dimension"):
            B((1, 0), (1, 0, 0))
        with pytest.raises(ValueError, match="form dimension"):
            B((1, 0, 0), (1, 0, 0, 7))

    @pytest.mark.parametrize("seed", range(4))
    def test_sparse_sum_matches_the_dense_sum(self, seed):
        rng = random.Random(seed)
        n = 5
        g = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        rows = [[Fraction(g[i][j] + g[j][i], 2) for j in range(n)] for i in range(n)]
        B = BilinearForm.from_rows(rows)
        for _ in range(10):
            # Mostly zero coordinates, in ints, Fractions and floats.
            u = [rng.choice([0, 0, 0, rng.randint(-4, 4), Fraction(1, 3)]) for _ in range(n)]
            v = [rng.choice([0, 0, 0, rng.randint(-4, 4), 0.5]) for _ in range(n)]
            dense = sum(
                (Fraction(u[i]) * rows[i][j] * Fraction(v[j]) for i in range(n) for j in range(n)),
                Fraction(0),
            )
            value = B(u, v)
            # Exact: an int where integral, a Fraction otherwise, never a float.
            assert type(value) is (int if dense.denominator == 1 else Fraction)
            assert value == dense


def _bumped(form: BilinearForm, index: int) -> BilinearForm:
    """The form with 1 added to diagonal entry (index, index)."""
    rows = [list(row) for row in form.matrix]
    rows[index][index] += 1
    return BilinearForm.from_rows(rows)


class TestAdInvariance:
    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_trace_form_invariant(self, m):
        assert ad_invariance_witness(so_algebra(m), trace_form(m)) is None

    def test_su2_round_form_invariant(self):
        assert ad_invariance_witness(su2_algebra(), su2_round_form()) is None

    @pytest.mark.parametrize("m", [3, 4])
    def test_killing_form_invariant(self, m):
        alg = so_algebra(m)
        assert ad_invariance_witness(alg, killing_form(alg)) is None

    def test_perturbed_form_fails_with_witness(self):
        alg = so_algebra(3)
        witness = ad_invariance_witness(alg, perturbed_form(trace_form(3)))
        assert witness is not None
        z, x, y = witness
        B = perturbed_form(trace_form(3))
        ez, ex, ey = (alg.basis_vector(t) for t in (z, x, y))
        defect = B(alg.bracket(ez, ex), ey) + B(ex, alg.bracket(ez, ey))
        assert defect != 0

    def test_trimmed_scan_matches_the_full_triple_scan(self):
        cases = [
            (so_algebra(m), _bumped(trace_form(m), index))
            for m in (3, 4, 5)
            for index in range(so_algebra(m).dim)
        ]
        assert cases[0][1] == perturbed_form(trace_form(3))
        rng = random.Random(19)
        rows = [[Fraction(0)] * 6 for _ in range(6)]
        for i in range(6):
            for j in range(i, 6):
                rows[i][j] = rows[j][i] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        cases.append((so_algebra(4), BilinearForm.from_rows(rows)))
        # B(E12, .) vanishes on [E12, so(3)], so the first violation is the
        # diagonal triple (E12, E13, E13), which a strict x < y scan would skip.
        cases.append((so_algebra(3), BilinearForm.from_rows([[1, 0, 0], [0, 1, 1], [0, 1, 1]])))
        for alg, form in cases:
            witness = ad_invariance_witness(alg, form)
            assert witness is not None
            assert witness == oracles.ad_invariance_by_all_triples(alg, form)

    def test_abelian_algebra_always_invariant(self):
        abelian = LieAlgebraData.from_brackets(("a", "b"), {})
        skew = BilinearForm.from_rows([[2, 1], [1, 3]])
        assert ad_invariance_witness(abelian, skew) is None


class TestDecomposition:
    def test_so4_over_so3(self):
        alg = so_algebra(4)
        dec = orthogonal_decomposition(
            alg, so_subalgebra_fixing_last_axis(4), trace_form(4)
        )
        # complement = span{E14, E24, E34}: components 2, 4, 5 in pair order
        labels = [alg.labels[i] for i, *_ in enumerate(alg.labels)]
        complement_labels = set()
        for vec in dec.complement_basis:
            for i, c in enumerate(vec):
                if c != 0:
                    complement_labels.add(labels[i])
        assert complement_labels == {"E14", "E24", "E34"}
        assert len(dec.complement_basis) == 3

    def test_so3_over_so2(self):
        alg = so_algebra(3)
        dec = orthogonal_decomposition(
            alg, so_subalgebra_fixing_last_axis(3), trace_form(3)
        )
        complement_labels = set()
        for vec in dec.complement_basis:
            for i, c in enumerate(vec):
                if c != 0:
                    complement_labels.add(alg.labels[i])
        assert complement_labels == {"E13", "E23"}

    def test_trivial_subalgebra_gives_whole_algebra(self):
        alg = so_algebra(3)
        dec = orthogonal_decomposition(alg, [], trace_form(3))
        assert len(dec.complement_basis) == 3

    def test_dimensions_add_up(self):
        for m in (3, 4, 5):
            alg = so_algebra(m)
            dec = orthogonal_decomposition(
                alg, so_subalgebra_fixing_last_axis(m), trace_form(m)
            )
            assert len(dec.subalgebra_basis) + len(dec.complement_basis) == alg.dim

    def test_bracket_stability(self):
        alg = so_algebra(4)
        dec = orthogonal_decomposition(
            alg, so_subalgebra_fixing_last_axis(4), trace_form(4)
        )
        m_basis = list(dec.complement_basis)
        for k in dec.subalgebra_basis:
            for mvec in m_basis:
                # Stacking [k, m] on the complement basis adds no rank.
                stacked = m_basis + [alg.bracket(k, mvec)]
                rank = len(linalg.column_basis(stacked)[0])
                assert rank == len(linalg.column_basis(m_basis)[0])

    def test_non_subalgebra_rejected(self):
        alg = so_algebra(3)
        # span{E12 + E13} is not closed under brackets with itself? It is
        # (bracket with itself is 0); use a 2-dim non-closed span instead.
        bad = [alg.basis_vector(0), alg.basis_vector(1)]  # [E12, E13] = -E23
        with pytest.raises(ValueError, match="not closed under the bracket"):
            orthogonal_decomposition(alg, bad, trace_form(3))

    @pytest.mark.parametrize(
        "k",
        [
            [(1, 0, 0), (2, 0, 0)],
            [(0, 0, 0)],
            [(1, 1, 0), (0, 1, 1), (1, 2, 1)],
            [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
        ],
    )
    def test_dependent_basis_rejected(self, k):
        # The complement then has more than dim - len(k) vectors.
        with pytest.raises(ValueError, match="linearly dependent"):
            orthogonal_decomposition(so_algebra(3), k, trace_form(3))

    def test_complement_not_stable_rejected(self):
        # B(E12, E13) = 1, so m = k^perp is spanned by E12 - 2 E13 and E23,
        # and [E12, E23] = E13 is not B-orthogonal to E12.
        alg = so_algebra(3)
        form = BilinearForm.from_rows([[2, 1, 0], [1, 2, 0], [0, 0, 1]])
        with pytest.raises(ValueError, match="not stable under the subalgebra"):
            orthogonal_decomposition(alg, [alg.basis_vector(0)], form)

    def test_form_not_positive_definite_rejected(self):
        alg = so_algebra(3)
        with pytest.raises(ValueError, match="positive definite"):
            orthogonal_decomposition(alg, [], killing_form(alg))


def _weighted_form(weights) -> BilinearForm:
    return BilinearForm.from_rows(
        [[w if i == j else 0 for j in range(len(weights))] for i, w in enumerate(weights)]
    )


def _random_positive_definite_form(rng, dim, diagonal) -> BilinearForm:
    if diagonal:
        return _weighted_form([Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(dim)])
    # g^T g + I with small integer g: positive definite, rarely diagonal.
    g = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)]
    return BilinearForm.from_rows(
        [[sum(g[t][i] * g[t][j] for t in range(dim)) + (i == j) for j in range(dim)]
         for i in range(dim)]
    )


def _random_subalgebra_candidate(rng, alg, kind):
    """A few basis vectors ("coordinate"), one or two random integer vectors
    ("random"), or those plus a combination of them ("dependent")."""
    if kind == "coordinate":
        return [alg.basis_vector(i) for i in sorted(rng.sample(range(alg.dim), rng.randint(0, 3)))]
    vecs = [[rng.randint(-2, 2) for _ in range(alg.dim)] for _ in range(rng.randint(1, 2))]
    if kind == "dependent":
        c = rng.randint(-2, 2)
        vecs.append([c * x for x in vecs[-1]] if len(vecs) == 1 else [a + c * b for a, b in zip(*vecs)])
    return vecs


def _decomposition_cases(seed):
    rng = random.Random(seed)
    for m in (3, 4):
        alg = so_algebra(m)
        for diagonal in (True, False):
            form = _random_positive_definite_form(rng, alg.dim, diagonal)
            for kind in ("coordinate", "random", "dependent"):
                yield alg, _random_subalgebra_candidate(rng, alg, kind), form


def _outcome(decompose, witness, alg, k, form):
    """("ok", complement basis, witness) or (error type, message)."""
    try:
        dec = decompose(alg, k, form)
    except (ValueError, AssertionError) as exc:
        return type(exc).__name__, str(exc)
    return "ok", dec.complement_basis, witness(dec)


class TestAgainstTheProjectionRoute:
    """B-orthogonality tests against span membership and projected brackets."""

    @pytest.mark.parametrize("seed", range(10))
    def test_same_complement_witness_and_error(self, seed):
        for alg, k, form in _decomposition_cases(seed):
            assert _outcome(
                orthogonal_decomposition, natural_reductivity_witness, alg, k, form
            ) == _outcome(
                oracles.decomposition_by_projection,
                oracles.natural_reductivity_by_projection,
                alg, k, form,
            )

    def test_cases_reach_every_outcome(self):
        seen = set()
        for seed in range(10):
            for alg, k, form in _decomposition_cases(seed):
                out = _outcome(orthogonal_decomposition, natural_reductivity_witness, alg, k, form)
                seen.add(out[1] if out[0] != "ok" else out[2] is None)
        assert seen == {
            True,
            False,
            "subalgebra basis vectors are linearly dependent",
            "given span is not closed under the bracket",
            "complement is not stable under the subalgebra",
        }


class TestNaturalReductivity:
    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_holds_for_sphere_pairs(self, m):
        alg = so_algebra(m)
        dec = orthogonal_decomposition(
            alg, so_subalgebra_fixing_last_axis(m), trace_form(m)
        )
        assert natural_reductivity_witness(dec) is None

    def test_trivial_subalgebra_reduces_to_ad_invariance(self):
        alg = so_algebra(3)
        dec = orthogonal_decomposition(alg, [], trace_form(3))
        assert natural_reductivity_witness(dec) is None

    def test_sphere_pairs_are_symmetric(self):
        # [m, m] lands in the subalgebra for so(m)/so(m-1), so the projected
        # brackets vanish and the condition is insensitive to the form there.
        alg = so_algebra(4)
        dec = orthogonal_decomposition(
            alg, so_subalgebra_fixing_last_axis(4), trace_form(4)
        )
        for a in dec.complement_basis:
            for b in dec.complement_basis:
                projected = oracles.project_complement(dec, alg.bracket(a, b))
                assert all(c == 0 for c in projected)

    def test_weighted_form_fails_with_a_nontrivial_witness(self):
        # so(4) over k = span{E12}: m = span{E13, E14, E23, E24, E34}, and
        # [m, m] is not inside k ([E13, E14] = -E34), so the projected brackets
        # do not vanish.  With E14 and E24 weighted 2 the condition fails at
        # (E13, E14, E34): B(-E34, E34) + B(E14, E14) = -1 + 2.
        alg = so_algebra(4)
        k = [alg.basis_vector(0)]
        dec = orthogonal_decomposition(alg, k, _weighted_form([1, 1, 2, 1, 2, 1]))
        assert natural_reductivity_witness(dec) == (0, 1, 4)
        assert oracles.natural_reductivity_by_projection(dec) == (0, 1, 4)
        # The invariant form: naturally reductive though not symmetric.
        dec = orthogonal_decomposition(alg, k, _weighted_form([1] * 6))
        assert natural_reductivity_witness(dec) is None
        m_basis = list(dec.complement_basis)
        assert any(
            len(linalg.column_basis(k + [alg.bracket(a, b)])[0]) > len(k)
            for a in m_basis
            for b in m_basis
        )

    def test_perturbed_form_fails_with_witness_in_group_case(self):
        # With a trivial subalgebra the condition is ad-invariance on the
        # whole algebra, which the perturbed form violates.
        alg = so_algebra(3)
        form = perturbed_form(trace_form(3))
        assert form.is_positive_definite()
        dec = orthogonal_decomposition(alg, [], form)
        witness = natural_reductivity_witness(dec)
        assert witness is not None
        z, x, y = witness
        ez, ex, ey = (dec.complement_basis[t] for t in (z, x, y))
        defect = form(
            oracles.project_complement(dec, alg.bracket(ez, ex)), ey
        ) + form(ex, oracles.project_complement(dec, alg.bracket(ez, ey)))
        assert defect != 0


class TestCasimir:
    def test_orthonormal_basis_is_self_dual(self):
        cas = casimir_element(so_algebra(3), trace_form(3))
        for dual, vec in cas.pairs:
            assert dual == vec

    def test_gram_consistency(self):
        alg = so_algebra(4)
        B = trace_form(4)
        cas = casimir_element(alg, B)
        for i, (dual_i, _) in enumerate(cas.pairs):
            for j, (_, vec_j) in enumerate(cas.pairs):
                assert B(dual_i, vec_j) == (1 if i == j else 0)

    def test_scaling_inverts_duals(self):
        alg = so_algebra(3)
        lam = Fraction(7, 3)
        cas1 = casimir_element(alg, trace_form(3))
        cas2 = casimir_element(alg, trace_form(3).scale(lam))
        for (d1, v1), (d2, v2) in zip(cas1.pairs, cas2.pairs):
            assert v1 == v2
            assert tuple(c / lam for c in d1) == d2

    def test_singular_form_rejected(self):
        singular = BilinearForm.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
        with pytest.raises(ZeroDivisionError):
            casimir_element(so_algebra(3), singular)

    @pytest.mark.parametrize("form_kind", ["invariant", "killing"])
    @pytest.mark.parametrize("group", ["so3", "so4", "so5", "so6", "su2"])
    def test_casimir_tensor_is_the_inverse_form(self, group, form_kind):
        # The coefficient tensor sum_j dual_j (x) e_j of the Casimir is B^-1
        # in any basis; on the unit basis it is read against sympy's inverse.
        if group == "su2":
            alg, invariant = su2_algebra(), su2_round_form()
        else:
            alg, invariant = so_algebra(int(group[2:])), trace_form(int(group[2:]))
        form = invariant if form_kind == "invariant" else killing_form(alg).scale(-1)
        cas = casimir_element(alg, form)
        assert [vec for _, vec in cas.pairs] == [alg.basis_vector(j) for j in range(alg.dim)]
        tensor = [
            [sum(dual[s] * vec[t] for dual, vec in cas.pairs) for t in range(alg.dim)]
            for s in range(alg.dim)
        ]
        inverse = oracles.sp.Matrix(form.matrix).inv()
        assert tensor == [[Fraction(int(x.p), int(x.q)) for x in inverse.row(s)]
                          for s in range(alg.dim)]


def _numbers(value):
    """Every number inside nested tuples and lists (RotationField keys included)."""
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from _numbers(item)
    else:
        yield value


def _exact(values) -> bool:
    """Every value an int where integral and a Fraction otherwise: never a float."""
    return all(
        type(x) is int or (type(x) is Fraction and x.denominator != 1) for x in _numbers(values)
    )


class TestExactValues:
    """The Lie layer keeps integral values as ints and every other value as a
    Fraction, on every built-in case and form, and converts floats exactly."""

    @pytest.mark.parametrize("form_kind", IDENTITY_FORMS)
    @pytest.mark.parametrize("case", IDENTITY_CASES)
    def test_every_value_of_every_case_is_exact(self, case, form_kind):
        _, algebra, invariant, images, subalgebra = _identity_case(case)
        form = {
            "trace": invariant,
            "killing": killing_form(algebra).scale(-1),
            "perturbed": perturbed_form(invariant),
        }[form_kind]
        casimir = casimir_element(algebra, form)
        values = [algebra.structure, form.matrix, casimir.pairs, [f.weights for f in images]]
        values += [realize(images, v).weights for pair in casimir.pairs for v in pair]
        if subalgebra is not None:
            dec = orthogonal_decomposition(algebra, subalgebra, form)
            values += [dec.subalgebra_basis, dec.complement_basis]
        assert _exact(values)

    def test_float_coordinates_give_exact_values(self):
        algebra = so_algebra(3)
        half, quarter = Fraction(1, 2), Fraction(1, 4)
        value = algebra.bracket((0.5, 0, 0), (0, 0.25, 2.0))
        assert value == algebra.bracket((half, 0, 0), (0, quarter, 2)) and _exact(value)
        form = trace_form(3)
        assert form((0.1, 0, 0), (1, 0, 0)) == Fraction(0.1) != Fraction(1, 10)
        assert form((0.5, 0, 0), (2.0, 0, 0)) == 1 and _exact([form((0.5, 0, 0), (2.0, 0, 0))])
        rows = BilinearForm.from_rows([[0.5, 0], [0, 2.0]]).matrix
        assert rows == ((half, 0), (0, 2)) and _exact(rows)
        field = realize(so_realization(3), (0.5, 0.0, 3.0))
        assert [w for _, w in field.weights] == [-half, -3] and _exact(field.weights)
        assert _exact(realize((field,), (0.5,)).weights) and _exact(form.scale(2.0).matrix)

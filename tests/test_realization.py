import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphere_sos.cli import IDENTITY_CASES
from sphere_sos.lie import (
    BilinearForm,
    casimir_element,
    killing_form,
    orthogonal_decomposition,
    so_algebra,
    so_subalgebra_fixing_last_axis,
    su2_algebra,
    su2_round_form,
    trace_form,
)
from sphere_sos.polynomials import Polynomial, SphereFunction, SpherePolynomial
from sphere_sos.realization import (
    ProjectedCasimir,
    _casimir_matrix,
    _realized_matrix,
    _w_keys,
    projected_casimir,
    realize,
    so_realization,
    su2_fields,
    su2_realization,
    verify_commutation_theorem,
    verify_group_case_identity,
    verify_lap_eq_casimir,
)
from sphere_sos.sphere_ops import RotationField, apply_rotation_field, laplace_sphere

from conftest import random_polynomial
from oracles import (
    commutation_by_fields,
    jet_functions,
    realization_antihomomorphism_defect,
    realized_field_by_zero_sum,
    so_basis_matrix,
    standard_test_suite,
)


def sphere_var(m, i):
    return SphereFunction.from_polynomial(SpherePolynomial.variable(m, i))


def so_field(coords, m):
    return realize(so_realization(m), coords)


def agrees_on(lhs, rhs, functions):
    return all(lhs(f) == rhs(f) for f in functions)


def agrees_on_jets(lhs, rhs, m):
    return agrees_on(lhs, rhs, jet_functions(m))


class TestRealization:
    def test_basis_element_realizes_to_minus_rotation(self):
        # E12 -> -X12, checked on x1: flow derivative is x2 d1 - x1 d2.
        field = so_field((1, 0, 0), 3)
        x1 = sphere_var(3, 1)
        x2 = sphere_var(3, 2)
        assert field(x1) == x2
        assert field(x2) == -x1

    def test_zero_element(self):
        field = so_field((0, 0, 0), 3)
        assert field(sphere_var(3, 1)).is_zero()

    def test_linearity(self):
        combined = so_field((1, 1, 0), 3)
        f = sphere_var(3, 1) * sphere_var(3, 3)
        assert combined(f) == so_field((1, 0, 0), 3)(f) + so_field((0, 1, 0), 3)(f)

    @pytest.mark.parametrize("images", [so_realization(3), su2_realization()])
    def test_basis_vectors_realize_to_their_images(self, images):
        f = sphere_var(images[0].m, 1) * sphere_var(images[0].m, 2)
        for a, image in enumerate(images):
            coords = [int(b == a) for b in range(len(images))]
            assert realize(images, coords) == image
            assert realize(images, coords)(f) == image(f)

    def test_coordinate_length_must_match_the_images(self):
        with pytest.raises(ValueError):
            realize(so_realization(3), (1, 0))
        with pytest.raises(ValueError):
            realize(su2_realization(), (1, 0, 0, 0))

    def test_flow_derivative_oracle(self):
        # Differentiate f(exp(t E) p) at t = 0 through the matrix exponential
        # series: d/dt f(p + t E p + ...) = grad f . (E p).
        rng = random.Random(41)
        m = 3
        for idx, (i, j) in enumerate(((1, 2), (1, 3), (2, 3))):
            E = so_basis_matrix(m, i, j)
            p = random_polynomial(rng, m, max_degree=3)
            # oracle: sum_k (E p)_k d_k f where (E p)_k = sum_l E[k][l] x_l
            oracle = Polynomial.zero(m)
            for k in range(m):
                row = Polynomial.zero(m)
                for l in range(m):
                    if E[k][l]:
                        row = row + Polynomial.variable(m, l + 1).scale(E[k][l])
                oracle = oracle + row * p.partial(k + 1)
            coords = [0, 0, 0]
            coords[idx] = 1
            engine = so_field(coords, m)(
                SphereFunction.from_polynomial(SpherePolynomial(p))
            )
            assert engine == SphereFunction.from_polynomial(SpherePolynomial(oracle))

    def test_antihomomorphism_on_random_polynomials(self):
        rng = random.Random(88)
        alg = so_algebra(4)
        for _ in range(30):
            u = tuple(Fraction(rng.randint(-3, 3)) for _ in range(6))
            v = tuple(Fraction(rng.randint(-3, 3)) for _ in range(6))
            p = SphereFunction.from_polynomial(
                SpherePolynomial(random_polynomial(rng, 4, max_degree=3))
            )
            defect = realization_antihomomorphism_defect(alg, so_realization(4), u, v, p)
            assert defect.is_zero()


class TestProjectedCasimir:
    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_equals_laplacian_under_default_form(self, m):
        cas = casimir_element(so_algebra(m), trace_form(m))
        assert verify_lap_eq_casimir(cas, so_realization(m))
        suite = standard_test_suite(m, max_harmonic_degree=3, random_count=5)
        assert agrees_on(projected_casimir(cas, so_realization(m)), laplace_sphere, suite)

    def test_so3_casimir_is_sum_of_rotation_squares(self):
        cas = casimir_element(so_algebra(3), trace_form(3))
        operator = projected_casimir(cas, so_realization(3))
        f = sphere_var(3, 1) * sphere_var(3, 2)
        total = None
        for field in (RotationField(1, 2), RotationField(1, 3), RotationField(2, 3)):
            term = apply_rotation_field(field, apply_rotation_field(field, f))
            total = term if total is None else total + term
        assert operator(f) == total

    def test_annihilates_constants(self):
        cas = casimir_element(so_algebra(4), trace_form(4))
        operator = projected_casimir(cas, so_realization(4))
        assert operator(SphereFunction.constant(4, 1)).is_zero()

    def test_so4_degree_one_eigenvalue(self):
        cas = casimir_element(so_algebra(4), trace_form(4))
        operator = projected_casimir(cas, so_realization(4))
        x1 = sphere_var(4, 1)
        assert operator(x1) == x1.scale(-3)

    def test_scaled_form_scales_operator_inversely(self):
        lam = Fraction(5, 2)
        cas = casimir_element(so_algebra(3), trace_form(3).scale(lam))
        assert verify_lap_eq_casimir(cas, so_realization(3), scale=Fraction(1) / lam)
        suite = standard_test_suite(3, max_harmonic_degree=2, random_count=4)
        assert agrees_on(
            projected_casimir(cas, so_realization(3)),
            lambda f: laplace_sphere(f).scale(Fraction(1) / lam),
            suite,
        )


class TestCommutationTheorem:
    @pytest.mark.parametrize("m", [3, 4])
    def test_complement_and_full_algebra(self, m):
        alg = so_algebra(m)
        form = trace_form(m)
        dec = orthogonal_decomposition(alg, so_subalgebra_fixing_last_axis(m), form)
        cas = casimir_element(alg, form)
        verdicts = verify_commutation_theorem(
            cas, so_realization(m), complement_coords=dec.complement_basis
        )
        sampled = commutation_by_fields(
            cas,
            so_realization(m),
            dec.complement_basis,
            [alg.basis_vector(i) for i in range(alg.dim)],
            standard_test_suite(m, max_harmonic_degree=2, random_count=4),
        )
        assert verdicts == sampled == {"complement": True, "full_algebra": True}

    def test_single_case_example(self):
        # E13 is a complement direction for so(3)/so(2); commutation on a
        # rational harmonic function.
        cas = casimir_element(so_algebra(3), trace_form(3))
        operator = projected_casimir(cas, so_realization(3))
        field = so_field((0, 1, 0), 3)
        f = SphereFunction(
            SpherePolynomial.variable(3, 1),
            SpherePolynomial.one(3) - SpherePolynomial.variable(3, 3),
        )
        assert (field(operator(f)) - operator(field(f))).is_zero()

    def test_constant_function(self):
        cas = casimir_element(so_algebra(3), trace_form(3))
        operator = projected_casimir(cas, so_realization(3))
        field = so_field((1, 0, 0), 3)
        one = SphereFunction.constant(3, 1)
        assert (field(operator(one)) - operator(field(one))).is_zero()


class TestGroupCase:
    def test_quaternionic_fields_close_with_factor_two(self):
        vi, vj, vk = su2_fields()
        rng = random.Random(4)
        for _ in range(10):
            p = SphereFunction.from_polynomial(
                SpherePolynomial(random_polynomial(rng, 4, max_degree=3))
            )
            # [V_i, V_j] = -2 V_k and cyclic
            assert vi(vj(p)) - vj(vi(p)) == vk(p).scale(-2)
            assert vj(vk(p)) - vk(vj(p)) == vi(p).scale(-2)
            assert vk(vi(p)) - vi(vk(p)) == vj(p).scale(-2)

    def test_three_field_sum_equals_six_field_sum(self):
        assert verify_group_case_identity()

    def test_spot_eigenvalue_degree_one(self):
        x1 = sphere_var(4, 1)
        assert ProjectedCasimir.of_squares(su2_fields())(x1) == x1.scale(-3)

    def test_spot_eigenvalue_degree_two(self):
        x1x3 = sphere_var(4, 1) * sphere_var(4, 3)
        assert ProjectedCasimir.of_squares(su2_fields())(x1x3) == x1x3.scale(-8)

    def test_identity_holds_even_raw(self):
        # The two sums of squares agree already as raw differential operators.
        rng = random.Random(12)
        from sphere_sos.sphere_ops import rotation_fields

        vi_w = ((1, 2, 1), (3, 4, 1))
        vj_w = ((1, 3, 1), (2, 4, -1))
        vk_w = ((1, 4, 1), (2, 3, 1))

        def apply_combo(weights, p):
            out = Polynomial.zero(4)
            for i, j, c in weights:
                out = out + RotationField(i, j).apply_raw(p).scale(c)
            return out

        for _ in range(10):
            p = random_polynomial(rng, 4, max_degree=4)
            lhs = Polynomial.zero(4)
            for w in (vi_w, vj_w, vk_w):
                lhs = lhs + apply_combo(w, apply_combo(w, p))
            rhs = Polynomial.zero(4)
            for field in rotation_fields(4):
                rhs = rhs + field.apply_raw(field.apply_raw(p))
            assert lhs == rhs

    def test_su2_casimir_under_round_form_matches_laplacian(self):
        cas = casimir_element(su2_algebra(), su2_round_form())
        assert verify_lap_eq_casimir(cas, su2_realization())
        suite = standard_test_suite(4, max_harmonic_degree=2, random_count=4)
        assert agrees_on(projected_casimir(cas, su2_realization()), laplace_sphere, suite)

    def test_su2_realization_is_antihomomorphism(self):
        alg = su2_algebra()
        rng = random.Random(31)
        for _ in range(10):
            u = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
            v = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
            f = SphereFunction.from_polynomial(
                SpherePolynomial(random_polynomial(rng, 4, max_degree=2))
            )
            defect = realization_antihomomorphism_defect(alg, su2_realization(), u, v, f)
            assert defect.is_zero()

    def test_unhalved_quaternionic_fields_are_not_antihomomorphic(self):
        # Negative control: without the halving, [V_i, V_j] = -2 V_k misses
        # the bracket [e1, e2] = e3 by a factor of two.
        e1, e2 = (1, 0, 0), (0, 1, 0)
        f = sphere_var(4, 1)
        defect = realization_antihomomorphism_defect(su2_algebra(), su2_fields(), e1, e2, f)
        assert not defect.is_zero()

    def test_su2_casimir_commutes_with_every_field(self):
        alg = su2_algebra()
        cas = casimir_element(alg, su2_round_form())
        basis = [alg.basis_vector(i) for i in range(alg.dim)]
        verdicts = verify_commutation_theorem(cas, su2_realization(), complement_coords=basis)
        assert verdicts == {"complement": True, "full_algebra": True}

    @pytest.mark.parametrize("dropped", [0, 1, 2])
    def test_su2_casimir_with_a_pair_dropped_fails_commutation(self, dropped):
        alg = su2_algebra()
        cas = casimir_element(alg, su2_round_form())
        kept = cas._replace(pairs=cas.pairs[:dropped] + cas.pairs[dropped + 1:])
        verdicts = verify_commutation_theorem(kept, su2_realization(), complement_coords=[])
        assert verdicts == {"complement": True, "full_algebra": False}


REALIZATIONS = {
    "so3": lambda: (so_algebra(3), so_realization(3)),
    "so4": lambda: (so_algebra(4), so_realization(4)),
    "so5": lambda: (so_algebra(5), so_realization(5)),
    "su2": lambda: (su2_algebra(), su2_realization()),
}


class TestAntihomomorphismOnGenerators:
    """realize([u, v]) + [realize(u), realize(v)] is a derivation, so it is
    fixed by its values on the coordinates x_i: zero on every x_i and every
    basis pair proves the antihomomorphism law on the whole quotient field.
    The unhalved su(2) fields are the negative control (TestGroupCase)."""

    @pytest.mark.parametrize("name", REALIZATIONS)
    def test_defect_vanishes_on_every_coordinate(self, name):
        alg, images = REALIZATIONS[name]()
        m = images[0].m
        basis = [alg.basis_vector(i) for i in range(alg.dim)]
        for u in basis:
            for v in basis:
                for x in jet_functions(m)[:m]:
                    assert realization_antihomomorphism_defect(alg, images, u, v, x).is_zero()


def commutation_both_routes(m, casimir):
    """(engine verdicts, field-by-field oracle verdicts) for so(m)/so(m-1)."""
    alg = so_algebra(m)
    dec = orthogonal_decomposition(alg, so_subalgebra_fixing_last_axis(m), trace_form(m))
    images = so_realization(m)
    full = [alg.basis_vector(i) for i in range(alg.dim)]
    return (
        verify_commutation_theorem(casimir, images, dec.complement_basis),
        commutation_by_fields(casimir, images, dec.complement_basis, full),
    )


class TestCommutationNegativeControl:
    """The per-image defect route against the field-by-field oracle, on the
    shipped so(m)/so(m-1) cases and with each Casimir pair dropped."""

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_shipped_case_commutes_on_both_routes(self, m):
        cas = casimir_element(so_algebra(m), trace_form(m))
        fast, oracle = commutation_both_routes(m, cas)
        assert fast == oracle == {"complement": True, "full_algebra": True}

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_dropping_any_pair_breaks_complement_commutation(self, m):
        cas = casimir_element(so_algebra(m), trace_form(m))
        for dropped in range(len(cas.pairs)):
            kept = cas._replace(pairs=cas.pairs[:dropped] + cas.pairs[dropped + 1:])
            fast, oracle = commutation_both_routes(m, kept)
            assert fast == oracle == {"complement": False, "full_algebra": False}, dropped

    @pytest.mark.parametrize(
        "coords, expected",
        [([(1, 2, 2)], True), ([(1, 1, 1)], False), ([(1, 2, 2), (1, 0, 0)], False)],
    )
    def test_complement_verdict_weights_each_defect(self, coords, expected):
        # B = I + w w^T with w = (1, 2, 2) is invariant under ad_w alone, so
        # the realized w commutes with B's Casimir although no basis field does.
        w = (1, 2, 2)
        form = BilinearForm.from_rows([[(i == j) + w[i] * w[j] for j in range(3)] for i in range(3)])
        cas = casimir_element(so_algebra(3), form)
        full = [so_algebra(3).basis_vector(i) for i in range(3)]
        fast = verify_commutation_theorem(cas, so_realization(3), coords)
        oracle = commutation_by_fields(cas, so_realization(3), coords, full)
        assert fast == oracle == {"complement": expected, "full_algebra": False}

    @pytest.mark.parametrize("coords, expected", [((1, 2, 2), True), ((1, 1, 1), False)])
    def test_complement_verdict_is_unchanged_by_rescaled_images(self, coords, expected):
        # Images e_a -> Y_a / k_a over different denominators, with the Casimir
        # and the vector rescaled to match, realize the same operators.
        k = (1, 2, 3)
        w = (1, 2, 2)
        form = BilinearForm.from_rows([[(i == j) + w[i] * w[j] for j in range(3)] for i in range(3)])
        cas = casimir_element(so_algebra(3), form)
        images = tuple(v.scale(Fraction(1, s)) for s, v in zip(k, so_realization(3)))

        def stretch(u):
            return tuple(s * x for s, x in zip(k, u))

        rescaled = cas._replace(pairs=tuple((stretch(a), stretch(b)) for a, b in cas.pairs))
        assert verify_lap_eq_casimir(rescaled, images) == verify_lap_eq_casimir(cas, so_realization(3))
        verdicts = verify_commutation_theorem(rescaled, images, [stretch(coords)])
        assert verdicts == {"complement": expected, "full_algebra": False}

    def test_wrong_length_complement_vector_rejected(self):
        cas = casimir_element(so_algebra(3), trace_form(3))
        with pytest.raises(ValueError, match="length 2, expected 3"):
            verify_commutation_theorem(cas, so_realization(3), [(1, 0)])


def case_verdicts(case, suite=None):
    """The realization verdicts of one shipped identity case.

    Without ``suite`` these are the verifiers' 2-jet proofs.  With it, the
    same comparisons are made directly on the functions ``suite(m)``: the
    operators side by side, and commutation by the field-by-field oracle.
    """

    def lap_eq(cas, images, scale=Fraction(1)):
        if suite is None:
            return verify_lap_eq_casimir(cas, images, scale=scale)
        operator = projected_casimir(cas, images)
        return agrees_on(operator, lambda f: laplace_sphere(f).scale(scale), suite(images[0].m))

    if case == "su2-group":
        alg = su2_algebra()
        cas = casimir_element(alg, su2_round_form())
        # -Killing = 2 I against the round form I/4, so the operator scale is 1/8.
        killing_cas = casimir_element(alg, killing_form(alg).scale(-1))
        if suite is None:
            group_case = verify_group_case_identity()
        else:
            squares = ProjectedCasimir.of_squares(su2_fields())
            group_case = agrees_on(squares, laplace_sphere, suite(4))
        return {
            "group_case": group_case,
            "lap_eq_casimir": lap_eq(cas, su2_realization()),
            "lap_eq_killing": lap_eq(killing_cas, su2_realization(), scale=Fraction(1, 8)),
        }
    m = int(case[2])
    alg = so_algebra(m)
    verdicts = {
        "lap_eq_casimir": lap_eq(casimir_element(alg, trace_form(m)), so_realization(m)),
        "lap_eq_killing": lap_eq(
            casimir_element(alg, killing_form(alg).scale(-1)),
            so_realization(m),
            scale=Fraction(1, 2 * (m - 2)),
        ),
    }
    if "-over-" in case:
        dec = orthogonal_decomposition(alg, so_subalgebra_fixing_last_axis(m), trace_form(m))
        cas = casimir_element(alg, trace_form(m))
        if suite is None:
            commutation = verify_commutation_theorem(cas, so_realization(m), dec.complement_basis)
        else:
            full = [alg.basis_vector(i) for i in range(alg.dim)]
            commutation = commutation_by_fields(
                cas, so_realization(m), dec.complement_basis, full, suite(m)
            )
        verdicts.update(commutation)
    return verdicts


class TestJetProof:
    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_jets_are_the_linear_and_quadratic_monomials(self, m):
        jets = jet_functions(m)
        assert len(jets) == m + m * (m + 1) // 2
        assert jets[0] == sphere_var(m, 1)
        assert jets[-1] == sphere_var(m, m) * sphere_var(m, m)
        assert all(f.exp == 0 for f in jets)

    @pytest.mark.parametrize("case", IDENTITY_CASES)
    def test_jet_verdicts_match_the_sampled_suite(self, case):
        jet = case_verdicts(case)
        sampled = case_verdicts(
            case, lambda m: standard_test_suite(m, max_harmonic_degree=3, random_count=6)
        )
        assert jet == sampled
        assert all(jet.values())

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_scaled_operator_fails(self, m):
        cas = casimir_element(so_algebra(m), trace_form(m))
        assert not verify_lap_eq_casimir(cas, so_realization(m), scale=Fraction(2))

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_casimir_with_a_pair_dropped_fails(self, m):
        alg = so_algebra(m)
        cas = casimir_element(alg, trace_form(m))
        dropped = cas._replace(pairs=cas.pairs[1:])
        assert not verify_lap_eq_casimir(dropped, so_realization(m))
        verdicts = verify_commutation_theorem(dropped, so_realization(m), complement_coords=[])
        assert not verdicts["full_algebra"]

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_casimir_plus_first_order_field_fails(self, m):
        operator = projected_casimir(
            casimir_element(so_algebra(m), trace_form(m)), so_realization(m)
        )
        field = so_realization(m)[0]
        assert agrees_on_jets(operator, laplace_sphere, m)
        assert not agrees_on_jets(lambda f: operator(f) + field(f), laplace_sphere, m)

    @pytest.mark.parametrize("m", [4, 5])
    def test_cross_term_seen_only_by_quadratic_jets(self, m):
        # X12 X34 kills every x_i, so only the x_i x_j jets can see it.
        x12, x34 = RotationField(1, 2), RotationField(3, 4)

        def operator(f):
            return laplace_sphere(f) + apply_rotation_field(x12, apply_rotation_field(x34, f))

        assert all(operator(f) == laplace_sphere(f) for f in jet_functions(m)[:m])
        assert not agrees_on_jets(operator, laplace_sphere, m)

    @pytest.mark.parametrize("m", [4, 5])
    def test_casimir_with_a_cross_pair_fails(self, m):
        # The pair (E12*, E12) becomes (E12*, E12 + E34), which adds the cross
        # term E12* E34.  A pair replaced outright would drop its square, which
        # moves every x_i; this change kills every x_i, so only the quadratic
        # columns of W can reject it.
        alg = so_algebra(m)
        cas = casimir_element(alg, trace_form(m))
        labels = list(combinations(range(1, m + 1), 2))
        e12, e34 = (alg.basis_vector(labels.index(p)) for p in ((1, 2), (3, 4)))
        (dual, vec), rest = cas.pairs[0], cas.pairs[1:]
        assert vec == e12
        crossed = cas._replace(pairs=((dual, tuple(a + b for a, b in zip(vec, e34))),) + rest)
        operator = projected_casimir(crossed, so_realization(m))
        assert all(operator(x) == laplace_sphere(x) for x in jet_functions(m)[:m])
        assert not verify_lap_eq_casimir(crossed, so_realization(m))

    def test_group_sum_missing_a_field_fails(self):
        fields = su2_fields()
        for dropped in range(3):
            kept = fields[:dropped] + fields[dropped + 1:]
            assert not agrees_on_jets(
                ProjectedCasimir.of_squares(kept), laplace_sphere, 4
            )


class TestEmptyInputs:
    """No pairs is the zero operator, which gets a verdict; no images is
    rejected."""

    def test_casimir_without_pairs_is_zero(self):
        x1 = sphere_var(3, 1)
        assert ProjectedCasimir(pairs=())(x1) == SphereFunction.zero(3)
        assert ProjectedCasimir(pairs=())(x1.numerator) == SpherePolynomial.zero(3)

    @pytest.mark.parametrize("case", ["so3", "so4", "su2"])
    def test_zero_casimir_gets_a_verdict(self, case):
        alg, form, images = TABLE_CASES[case]()
        empty = casimir_element(alg, form)._replace(pairs=())
        basis = [alg.basis_vector(i) for i in range(alg.dim)]
        assert verify_lap_eq_casimir(empty, images) is False
        assert verify_lap_eq_casimir(empty, images, scale=0) is True
        verdicts = verify_commutation_theorem(empty, images, complement_coords=basis)
        assert verdicts == {"complement": True, "full_algebra": True}

    def test_realize_needs_an_image(self):
        with pytest.raises(ValueError, match="at least one image"):
            realize([], [])


IMAGES = {
    "so3": lambda: so_realization(3),
    "so4": lambda: so_realization(4),
    "so5": lambda: so_realization(5),
    "su2": lambda: su2_realization() + su2_fields(),
}


@st.composite
def sphere_inputs(draw, m):
    """A sphere polynomial, or a quotient num / base^exp with a nonzero base."""
    terms = st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * m), st.integers(-6, 6).map(Fraction), max_size=4
    )
    num = SpherePolynomial(Polynomial(m, draw(terms)))
    if draw(st.booleans()):
        return num
    base = draw(terms.map(lambda t: SpherePolynomial(Polynomial(m, t))).filter(
        lambda b: not b.is_zero()
    ))
    return SphereFunction._make(num, base, draw(st.integers(0, 2)))


def stored(x):
    """Every stored piece of a result, term order included."""
    polys = (x.num, x.base) if isinstance(x, SphereFunction) else (x,)
    pieces = tuple((list(p.poly.numerators.items()), p.poly.denominator) for p in polys)
    return pieces + ((x.exp,) if isinstance(x, SphereFunction) else ())


class TestRealizedFieldFirstTerm:
    @pytest.mark.parametrize("name", IMAGES)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_the_zero_sum(self, name, data):
        images = IMAGES[name]()
        m = images[0].m
        f = data.draw(sphere_inputs(m))
        coords = data.draw(st.lists(st.integers(-3, 3), min_size=len(images), max_size=len(images)))
        fields = (*images, realize(images, coords), realize(images, [0] * len(images)))
        for field in fields:
            assert stored(field(f)) == stored(realized_field_by_zero_sum(field, f))

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            so_realization(3)[0](Polynomial.one(3))


TABLE_CASES = {
    "so3": lambda: (so_algebra(3), trace_form(3), so_realization(3)),
    "so4": lambda: (so_algebra(4), trace_form(4), so_realization(4)),
    "so5": lambda: (so_algebra(5), trace_form(5), so_realization(5)),
    "su2": lambda: (su2_algebra(), su2_round_form(), su2_realization()),
}


def w_image(matrix, p):
    """The image of p in W under the W-matrix N / d, as a sphere polynomial."""
    (n, d), nums = matrix, p.poly.numerators
    assert nums.keys() <= _w_keys(p.m)
    out = {}
    for (e, f), v in n.items():
        if f in nums:
            out[e] = out.get(e, 0) + v * nums[f]
    terms = {e: c for e, c in out.items() if c}
    return SpherePolynomial(Polynomial.from_numerators(p.m, terms, d * p.poly.denominator))


class TestCasimirTable:
    """The exact integer matrices on W = span{1, x_i, x_i x_j} behind the
    Casimir verdicts: each is the operator itself on W, and the verdicts
    belong to one realized Casimir."""

    @pytest.mark.parametrize("case", TABLE_CASES)
    def test_w_matrices_equal_the_operators(self, case):
        alg, form, images = TABLE_CASES[case]()
        m = images[0].m
        operator = projected_casimir(casimir_element(alg, form), images)
        assert len(_w_keys(m)) == m + m * (m + 1) // 2
        rng = random.Random(f"w-matrix:{case}")
        functions = [f.numerator for f in jet_functions(m)]
        functions += [SpherePolynomial.constant(m, Fraction(7, 3)), SpherePolynomial.zero(m)]
        for _ in range(8):
            scale = Fraction(rng.randint(1, 9), rng.randint(1, 6))
            p = random_polynomial(rng, m, max_degree=2, max_terms=6).scale(scale)
            functions.append(SpherePolynomial(p))
        assert {f.degree() for f in functions} >= {0, 1, 2}
        fields = {*images, *(v for pair in operator.pairs for v in pair)}
        for f in functions:
            for field in fields:
                assert w_image(_realized_matrix(field), f) == field(f), (field, f)
            assert w_image(_casimir_matrix(operator), f) == operator(f), f

    def test_table_is_keyed_by_the_casimir(self):
        # A table keyed by the images alone would reuse the full Casimir's
        # rows for the one with a pair dropped and pass it.
        alg = su2_algebra()
        cas = casimir_element(alg, su2_round_form())
        basis = [alg.basis_vector(i) for i in range(alg.dim)]
        images = su2_realization()
        assert verify_lap_eq_casimir(cas, images)
        full = verify_commutation_theorem(cas, images, complement_coords=basis)
        assert full == {"complement": True, "full_algebra": True}
        dropped = cas._replace(pairs=cas.pairs[1:])
        assert not verify_lap_eq_casimir(dropped, images)
        verdicts = verify_commutation_theorem(dropped, images, complement_coords=basis)
        assert verdicts == {"complement": False, "full_algebra": False}

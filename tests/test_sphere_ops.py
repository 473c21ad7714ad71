import random

import pytest

from sphere_sos import sphere_ops
from sphere_sos.harmonics import stereographic_harmonic
from sphere_sos.polynomials import (
    Polynomial,
    SphereFunction,
    SpherePolynomial,
    euler_operator,
    laplace_euclid,
)
from sphere_sos.sphere_ops import (
    RotationField,
    apply_rotation_field,
    generate_harmonic_basis,
    harmonic_space_dimension,
    laplace_sphere,
    monomials_of_degree,
    rotation_fields,
)

import oracles
from oracles import check_spherical_eigenvalue, check_sum_of_squares_identity
from conftest import random_polynomial, random_sphere_function


def var(m, i):
    return Polynomial.variable(m, i)


def sphere_var(m, i):
    return SpherePolynomial.variable(m, i)


class TestRotationFields:
    def test_definition_on_coordinates(self):
        x12 = RotationField(1, 2)
        assert x12.apply_raw(var(3, 1)) == -var(3, 2)

    def test_rotational_invariant(self):
        x12 = RotationField(1, 2)
        assert x12.apply_raw(var(3, 1) ** 2 + var(3, 2) ** 2).is_zero()

    def test_quotient_rule_against_expression_oracle(self):
        # X13 applied to x1/(1 - x3); oracle is sympy expression differentiation.
        f = SphereFunction(
            sphere_var(3, 1),
            SpherePolynomial.one(3) - sphere_var(3, 3),
        )
        result = apply_rotation_field(RotationField(1, 3), f)
        oracle = oracles.rotation_apply(1, 3, oracles.to_sympy_function(f), 3)
        assert oracles.functions_equal_mod_sphere(result, oracle, 3)
        # and the hand-expanded closed form
        import sympy as sp

        x1, x2, x3 = oracles.symbols(3)
        assert oracles.functions_equal_mod_sphere(
            result, (x1**2 - x3 * (1 - x3)) / (1 - x3) ** 2, 3
        )

    def test_invalid_index_pair(self):
        with pytest.raises(ValueError):
            RotationField(2, 2)
        with pytest.raises(IndexError):
            apply_rotation_field(RotationField(1, 4), SpherePolynomial.one(3))

    def test_leibniz_rule(self, rng):
        for _ in range(10):
            f = random_sphere_function(rng)
            g = random_sphere_function(rng)
            for field in rotation_fields(3):
                lhs = apply_rotation_field(field, f * g)
                rhs = f * apply_rotation_field(field, g) + g * apply_rotation_field(
                    field, f
                )
                assert lhs == rhs

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_tangency_to_sphere_relation(self, m):
        relation = Polynomial.radius_squared(m) - Polynomial.one(m)
        for field in rotation_fields(m):
            assert field.apply_raw(relation).is_zero()

    def test_bracket_relations_on_random_polynomials(self):
        # [X_ij, X_ik] = -X_jk as operators, plus disjoint pairs commuting.
        rng = random.Random(777)
        samples = [random_polynomial(rng, 4, max_degree=3) for _ in range(50)]
        x12, x13, x23 = (RotationField(*p) for p in ((1, 2), (1, 3), (2, 3)))
        x34 = RotationField(3, 4)
        for p in samples:
            commutator = x12.apply_raw(x13.apply_raw(p)) - x13.apply_raw(
                x12.apply_raw(p)
            )
            assert commutator == -x23.apply_raw(p)
            disjoint = x12.apply_raw(x34.apply_raw(p)) - x34.apply_raw(
                x12.apply_raw(p)
            )
            assert disjoint.is_zero()


class TestSphericalLaplacian:
    def test_annihilates_constants(self):
        assert laplace_sphere(SphereFunction.constant(3, 1)).is_zero()

    def test_degree_one_eigenvalue_on_s2(self):
        x1 = sphere_var(3, 1)
        assert laplace_sphere(x1) == x1.scale(-2)

    def test_degree_two_eigenvalue_on_s2(self):
        p = sphere_var(3, 1) * sphere_var(3, 2)
        assert laplace_sphere(p) == p.scale(-6)

    def test_matches_sympy_oracle_on_rational_functions(self, rng):
        for _ in range(3):
            f = random_sphere_function(rng)
            engine = laplace_sphere(f)
            oracle = oracles.laplace_sphere_expr(oracles.to_sympy_function(f), 3)
            assert oracles.functions_equal_mod_sphere(engine, oracle, 3)

    def test_raw_polynomial_rejected(self):
        with pytest.raises(TypeError):
            laplace_sphere(var(3, 1))

    def test_no_product_by_a_constant(self, monkeypatch):
        # The base x3 - 1 has the constant partial 1, which scales, not multiplies.
        f = stereographic_harmonic(3, "re").value
        n, b = f.num.poly, f.base.poly
        # The carre du champ as the plain sum of products: same value, same term order.
        products = -(euler_operator(n) * euler_operator(b))
        for i in range(1, 4):
            products = products + n.partial(i) * b.partial(i)
        real, constants = Polynomial.__mul__, []

        def counted(p, q):
            if isinstance(q, Polynomial) and (p.is_constant() or q.is_constant()):
                constants.append((p, q))
            return real(p, q)

        monkeypatch.setattr(Polynomial, "__mul__", counted)
        gamma = sphere_ops._gamma(n, b)
        assert gamma == products and list(gamma.numerators) == list(products.numerators)
        laplace_sphere(f)
        assert constants == []


class TestOperatorIdentity:
    def test_linear_example(self):
        assert check_sum_of_squares_identity(var(3, 1))

    def test_constant_example(self):
        assert check_sum_of_squares_identity(Polynomial.constant(3, 4))

    def test_quadratic_example(self):
        assert check_sum_of_squares_identity(var(3, 1) * var(3, 2))

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_holds_on_random_polynomials(self, m):
        rng = random.Random(100 + m)
        for _ in range(100):
            p = random_polynomial(rng, m, max_degree=5, max_terms=5)
            assert check_sum_of_squares_identity(p)


def check_commutation(field, f):
    """True iff the field commutes with the spherical Laplacian on f, exactly."""
    return apply_rotation_field(field, laplace_sphere(f)) == laplace_sphere(
        apply_rotation_field(field, f)
    )


class TestCommutation:
    def test_linear_function(self):
        f = SphereFunction.from_polynomial(sphere_var(3, 1))
        assert check_commutation(RotationField(1, 2), f)

    def test_constant(self):
        for field in rotation_fields(3):
            assert check_commutation(field, SphereFunction.constant(3, 1))

    def test_rational_function(self):
        f = SphereFunction(
            sphere_var(3, 1), SpherePolynomial.one(3) - sphere_var(3, 3)
        )
        assert check_commutation(RotationField(1, 3), f)

    def test_fixed_suite_all_pairs(self):
        rng = random.Random(2024)
        suite = [random_sphere_function(rng) for _ in range(20)]
        for field in rotation_fields(3):
            for f in suite:
                assert check_commutation(field, f)


class TestHarmonicBasis:
    @pytest.mark.parametrize(
        "m,d,expected",
        [(3, 1, 3), (3, 2, 5), (4, 2, 9), (2, 2, 2), (3, 0, 1), (4, 4, 25)],
    )
    def test_dimensions(self, m, d, expected):
        basis = generate_harmonic_basis(m, d)
        assert len(basis) == expected
        assert harmonic_space_dimension(m, d) == expected

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_members_are_harmonic_and_homogeneous(self, m):
        for d in range(5):
            for p in generate_harmonic_basis(m, d):
                assert laplace_euclid(p).is_zero()
                assert oracles.is_homogeneous(p)
                assert p.degree() == d or p.is_zero()

    def test_m2_degree2_span(self):
        # Classical span {x1^2 - x2^2, x1 x2} up to basis choice.
        basis = generate_harmonic_basis(2, 2)
        classics = [var(2, 1) ** 2 - var(2, 2) ** 2, var(2, 1) * var(2, 2)]
        monos = monomials_of_degree(2, 2)
        from sphere_sos import linalg

        rows = [[p.coefficient(e) for e in monos] for p in basis]
        for q in classics:
            target = [q.coefficient(e) for e in monos]
            # In the span: stacking it on the basis adds no rank.
            assert linalg.rank(rows + [target]) == linalg.rank(rows)

    def test_basis_is_independent(self):
        from sphere_sos import linalg

        basis = generate_harmonic_basis(3, 4)
        monos = monomials_of_degree(3, 4)
        rows = [[p.coefficient(e) for e in monos] for p in basis]
        assert linalg.rank(rows) == len(basis)

    def test_deterministic(self):
        a = [str(p) for p in generate_harmonic_basis(4, 3)]
        b = [str(p) for p in generate_harmonic_basis(4, 3)]
        assert a == b


class TestClosedFormHarmonicBasis:
    @pytest.mark.parametrize(
        "m,d", [(m, d) for m in range(2, 8) for d in range(7)] + [(4, 8)]
    )
    def test_matches_the_nullspace_route(self, m, d):
        basis = generate_harmonic_basis(m, d)
        expected = oracles.harmonic_basis_by_nullspace(m, d)
        assert len(basis) == harmonic_space_dimension(m, d)
        # Same polynomials, in the same order, with their terms in the same order.
        assert [list(p.terms.items()) for p in basis] == [
            list(p.terms.items()) for p in expected
        ]


class TestEigenvalueOracle:
    @pytest.mark.parametrize(
        "m,p_index,l", [(3, 0, 1), (4, 0, 1), (3, None, 2)]
    )
    def test_known_eigenvalue_cases(self, m, p_index, l):
        if p_index is not None:
            p = var(m, 1)
        else:
            p = var(m, 1) * var(m, 2)
        assert check_spherical_eigenvalue(p)

    @pytest.mark.parametrize("m", [3, 4])
    def test_full_basis_through_degree_four(self, m):
        for d in range(5):
            for p in generate_harmonic_basis(m, d):
                assert check_spherical_eigenvalue(p)

    def test_non_harmonic_rejected(self):
        with pytest.raises(ValueError):
            check_spherical_eigenvalue(var(3, 1) ** 2)

    def test_inhomogeneous_rejected(self):
        with pytest.raises(ValueError):
            check_spherical_eigenvalue(var(3, 1) + Polynomial.one(3))

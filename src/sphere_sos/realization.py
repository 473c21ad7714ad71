"""Realizing Lie-algebra elements as derivations of the sphere ring.

A realization is a linear map from a Lie algebra to vector fields, so it is
fixed by the images of the algebra's basis; ``realize(images, coords)``
extends them linearly.  A basis element E_ij of so(m) generates the
one-parameter rotation group of the x_i x_j plane; differentiating
f(exp(t E_ij) p) at t = 0 gives the derivation -X_ij, so ``so_realization(m)``
sends E_ij to -X_ij on S^{m-1}.  ``su2_realization()`` sends the cyclic basis
of su(2) to half the quaternionic fields V_i, V_j, V_k on S^3.  Realization is
an antihomomorphism: realize([u, v]) = -[realize(u), realize(v)].

The projected Casimir of a positive form acts as
f -> sum_j realize(dual_j)(realize(basis_j)(f)); under the default trace-form
normalization it coincides exactly with the spherical Laplacian, and as
``laplace_sphere`` uses the Euclidean identity, not the fields, the two
routes are independent.  The theorem-level checks (Casimir = Laplacian,
commutation, group case) take the basis images, so they serve every realized
algebra, and they are finite proofs on the 2-jets of ``jet_functions``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .lie import CasimirElement, LieAlgebraData
from .polynomials import SphereFunction, SpherePolynomial
from .sphere_ops import (
    RotationField,
    apply_rotation_field,
    laplace_sphere,
    rotation_fields,
)


class RealizedField(NamedTuple):
    """Finite rational combination of rotation fields, acting as a derivation."""

    m: int
    weights: tuple[tuple[RotationField, Fraction], ...]

    @classmethod
    def from_weights(cls, m: int, weights: dict[RotationField, Fraction]) -> "RealizedField":
        clean = tuple(
            (field, Fraction(c))
            for field, c in sorted(weights.items(), key=lambda kv: (kv[0].i, kv[0].j))
            if c != 0
        )
        return cls(m=m, weights=clean)

    def __call__(self, f):
        if not isinstance(f, (SphereFunction, SpherePolynomial)):
            raise TypeError(f"cannot differentiate {type(f).__name__}")
        out = None
        for field, c in self.weights:
            term = apply_rotation_field(field, f)
            # so(m) images carry the one weight -1: negate rather than scale.
            term = term if c == 1 else -term if c == -1 else term.scale(c)
            out = term if out is None else out + term
        return type(f).zero(self.m) if out is None else out

    def scale(self, factor) -> "RealizedField":
        f = Fraction(factor)
        return RealizedField.from_weights(
            self.m, {field: c * f for field, c in self.weights}
        )


def so_realization(m: int) -> tuple[RealizedField, ...]:
    """Images of the E_ij basis of so(m) on S^{m-1}, in pair order: E_ij -> -X_ij
    (the flow convention fixes the sign; squared sums are insensitive to it)."""
    return tuple(
        RealizedField.from_weights(m, {field: Fraction(-1)}) for field in rotation_fields(m)
    )


def su2_fields() -> tuple[RealizedField, RealizedField, RealizedField]:
    """The three quaternionic rotation combinations on S^3.

    V_i = X12 + X34, V_j = X13 - X24, V_k = X14 + X23; they close with
    [V_i, V_j] = -2 V_k and realize left quaternion multiplication.
    """
    one = Fraction(1)
    vi = RealizedField.from_weights(
        4, {RotationField(1, 2): one, RotationField(3, 4): one}
    )
    vj = RealizedField.from_weights(
        4, {RotationField(1, 3): one, RotationField(2, 4): -one}
    )
    vk = RealizedField.from_weights(
        4, {RotationField(1, 4): one, RotationField(2, 3): one}
    )
    return vi, vj, vk


def su2_realization() -> tuple[RealizedField, ...]:
    """Images of the cyclic su(2) basis ([e1, e2] = e3) on S^3: e_i -> V_i / 2,
    the halving that makes the map an antihomomorphism."""
    return tuple(v.scale(Fraction(1, 2)) for v in su2_fields())


def realize(images: Sequence[RealizedField], coords: Sequence) -> RealizedField:
    """The field sum_a coords[a] * images[a] of a coordinate vector."""
    if len(coords) != len(images):
        raise ValueError(
            f"coordinate vector has length {len(coords)}, expected {len(images)}"
        )
    weights: dict[RotationField, Fraction] = {}
    for c, image in zip(coords, images):
        for field, w in image.weights:
            weights[field] = weights.get(field, Fraction(0)) + Fraction(c) * w
    return RealizedField.from_weights(images[0].m, weights)


class ProjectedCasimir(NamedTuple):
    """Realized (dual, basis) field pairs; acts as the sum of compositions."""

    pairs: tuple[tuple[RealizedField, RealizedField], ...]

    @classmethod
    def of_squares(cls, fields: Sequence[RealizedField]) -> "ProjectedCasimir":
        """The sum of each field applied twice, in the given order."""
        return cls(pairs=tuple((v, v) for v in fields))

    def __call__(self, f):
        result = None
        for dual, basic in self.pairs:
            term = dual(basic(f))
            result = term if result is None else result + term
        return result


def projected_casimir(
    casimir: CasimirElement, images: Sequence[RealizedField]
) -> ProjectedCasimir:
    """Realize a Casimir element through the images of its algebra's basis."""
    return ProjectedCasimir(
        pairs=tuple(
            (realize(images, dual), realize(images, vec)) for dual, vec in casimir.pairs
        )
    )


# ----------------------------------------------------------------------
# the 2-jets and theorem-level checks
# ----------------------------------------------------------------------


def jet_functions(m: int) -> list[SphereFunction]:
    """The 2-jets x_i and x_i x_j (i <= j): m + m(m+1)/2 functions.

    Agreement on these proves an operator identity on the whole quotient
    field, provided both sides are sums of compositions of two derivations
    (first-order terms allowed).  Such an L kills constants and its carre du
    champ Gamma(f, g) = (L(fg) - f Lg - g Lf) / 2 is a biderivation, so Gamma
    is fixed by Gamma(x_i, x_j), and L is then fixed on products and quotients
    by L(x_i) and the Leibniz rule L(fg) = f Lg + g Lf + 2 Gamma(f, g)
    (Bakry, Gentil & Ledoux 2014).
    """
    xs = [SpherePolynomial.variable(m, i) for i in range(1, m + 1)]
    products = [xs[i] * xs[j] for i in range(m) for j in range(i, m)]
    return [SphereFunction.from_polynomial(p) for p in xs + products]


def _proof_set(m: int, test_functions: Sequence[SphereFunction] | None) -> list[SphereFunction]:
    """The 2-jets by default; an explicitly empty set proves nothing, so it is rejected."""
    if test_functions is None:
        return jet_functions(m)
    functions = list(test_functions)
    if not functions:
        raise ValueError("an empty test function set proves nothing")
    return functions


def _operators_agree(lhs, rhs, m: int, test_functions) -> bool:
    """True iff lhs(f) == rhs(f) exactly on every function of the proof set."""
    return all(lhs(f) == rhs(f) for f in _proof_set(m, test_functions))


def verify_lap_eq_casimir(
    casimir: CasimirElement,
    images: Sequence[RealizedField],
    test_functions: Sequence[SphereFunction] | None = None,
    scale: Fraction = Fraction(1),
) -> bool:
    """True iff the projected Casimir equals scale * laplace_sphere on every
    test function, exactly; on the default 2-jets this is a proof."""
    return _operators_agree(
        projected_casimir(casimir, images),
        lambda f: laplace_sphere(f).scale(scale),
        images[0].m,
        test_functions,
    )


def verify_commutation_theorem(
    casimir: CasimirElement,
    images: Sequence[RealizedField],
    complement_coords: Sequence[Sequence],
    test_functions: Sequence[SphereFunction] | None = None,
) -> dict[str, bool]:
    """Exact commutation of realized fields with the projected Casimir.

    Returns verdicts for the complement fields (the theorem's statement) and
    for every field of the algebra (stronger, expected true on spheres where
    the operator is rotation invariant).  Each basis image's defect
    Y_a(Omega f) - Omega(Y_a f) is computed once per test function; since
    ``realize`` is linear, the defect of a complement vector c is
    sum_a c_a * defect_a.  Each commutator with the Casimir is again a sum of
    compositions of two derivations, so on the default 2-jets the verdicts
    are proofs.
    """
    m = images[0].m
    operator = projected_casimir(casimir, images)
    applied = [(f, operator(f)) for f in _proof_set(m, test_functions)]
    defects = [[field(lf) - operator(field(f)) for f, lf in applied] for field in images]

    def commutes(coords) -> bool:
        if len(coords) != len(images):
            raise ValueError(
                f"coordinate vector has length {len(coords)}, expected {len(images)}"
            )
        for j in range(len(applied)):
            total = SphereFunction.zero(m)
            for c, row in zip(coords, defects):
                if c:
                    total = total + row[j].scale(c)
            if not total.is_zero():
                return False
        return True

    complement = all(commutes(coords) for coords in complement_coords)
    full_algebra = all(d.is_zero() for row in defects for d in row)
    return {"complement": complement, "full_algebra": full_algebra}


def verify_group_case_identity(
    test_functions: Sequence[SphereFunction] | None = None,
) -> bool:
    """The three-field and six-field sums of squares agree exactly on S^3;
    on the default 2-jets this is a proof."""
    return _operators_agree(
        ProjectedCasimir.of_squares(su2_fields()), laplace_sphere, 4, test_functions
    )


def realization_antihomomorphism_defect(
    algebra: LieAlgebraData, images: Sequence[RealizedField], u: Sequence, v: Sequence, f
):
    """realize([u, v]) f + [realize(u), realize(v)] f; zero when the
    antihomomorphism law holds on f."""
    ru, rv = realize(images, u), realize(images, v)
    return realize(images, algebra.bracket(u, v))(f) + ru(rv(f)) - rv(ru(f))

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
Omega is Q-linear and rotation fields keep the normal-form span
{1, x_i, x_i x_j}, so both Casimir checks read Omega off one table of its
values on normal-form monomials, built once per realized Casimir.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple, Sequence

from .lie import CasimirElement, Rational
from .linalg import exact
from .polynomials import Polynomial, SphereFunction, SpherePolynomial
from .sphere_ops import (
    RotationField,
    apply_rotation_field,
    laplace_sphere,
    rotation_fields,
)


class RealizedField(NamedTuple):
    """Finite exact combination of rotation fields, acting as a derivation."""

    m: int
    weights: tuple[tuple[RotationField, Rational], ...]

    @classmethod
    def from_weights(cls, m: int, weights: dict[RotationField, Rational]) -> "RealizedField":
        clean = tuple(
            (field, exact(c))
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
        f = exact(factor)
        return RealizedField.from_weights(
            self.m, {field: c * f for field, c in self.weights}
        )


def so_realization(m: int) -> tuple[RealizedField, ...]:
    """Images of the E_ij basis of so(m) on S^{m-1}, in pair order: E_ij -> -X_ij
    (the flow convention fixes the sign; squared sums are insensitive to it)."""
    return tuple(
        RealizedField.from_weights(m, {field: -1}) for field in rotation_fields(m)
    )


def su2_fields() -> tuple[RealizedField, RealizedField, RealizedField]:
    """The three quaternionic rotation combinations on S^3.

    V_i = X12 + X34, V_j = X13 - X24, V_k = X14 + X23; they close with
    [V_i, V_j] = -2 V_k and realize left quaternion multiplication.
    """
    vi = RealizedField.from_weights(4, {RotationField(1, 2): 1, RotationField(3, 4): 1})
    vj = RealizedField.from_weights(4, {RotationField(1, 3): 1, RotationField(2, 4): -1})
    vk = RealizedField.from_weights(4, {RotationField(1, 4): 1, RotationField(2, 3): 1})
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
    weights: dict[RotationField, Rational] = {}
    for c, image in zip(map(exact, coords), images):
        for field, w in image.weights:
            weights[field] = weights.get(field, 0) + c * w
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


@functools.lru_cache(maxsize=16)
def _tabulated(operator: ProjectedCasimir):
    """p -> sum_e c_e * operator(x^e) on SpherePolynomials; each row is the
    operator on its normal-form monomial x^e, computed on first use."""
    table: dict = {}

    def apply(p: SpherePolynomial) -> SpherePolynomial:
        out = SpherePolynomial.zero(p.m)
        for e, n in p.poly.numerators.items():
            if e not in table:
                table[e] = operator(SpherePolynomial(Polynomial._make(p.m, {e: 1})))
            out = out + table[e].scale(n)
        return out.scale(Fraction(1, p.poly.denominator))
    return apply


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


def _operators_agree(lhs, rhs, m: int) -> bool:
    """True iff lhs(p) == rhs(p) exactly on every 2-jet p = f.numerator of S^{m-1}."""
    return all(lhs(f.numerator) == rhs(f.numerator) for f in jet_functions(m))


def verify_lap_eq_casimir(
    casimir: CasimirElement,
    images: Sequence[RealizedField],
    scale: Rational = 1,
) -> bool:
    """True iff the projected Casimir equals scale * laplace_sphere on the
    2-jets, exactly: a proof."""
    return _operators_agree(
        _tabulated(projected_casimir(casimir, images)),
        lambda p: laplace_sphere(p).scale(scale),
        images[0].m,
    )


def verify_commutation_theorem(
    casimir: CasimirElement,
    images: Sequence[RealizedField],
    complement_coords: Sequence[Sequence],
) -> dict[str, bool]:
    """Exact commutation of realized fields with the projected Casimir.

    Returns verdicts for the complement fields (the theorem's statement) and
    for every field of the algebra (stronger, expected true on spheres where
    the operator is rotation invariant).  Each basis image's defect
    Y_a(Omega f) - Omega(Y_a f) is computed once per 2-jet f, Omega from the
    table; as ``realize`` is linear, the defect of a complement vector c is
    sum_a c_a * defect_a.  Each commutator with the Casimir is again a sum of
    compositions of two derivations, so on the 2-jets the verdicts are proofs.
    """
    m = images[0].m
    omega = _tabulated(projected_casimir(casimir, images))
    applied = [(p, omega(p)) for p in (f.numerator for f in jet_functions(m))]
    defects = [[field(lp) - omega(field(p)) for p, lp in applied] for field in images]

    def commutes(coords) -> bool:
        if len(coords) != len(images):
            raise ValueError(
                f"coordinate vector has length {len(coords)}, expected {len(images)}"
            )
        for j in range(len(applied)):
            total = SpherePolynomial.zero(m)
            for c, row in zip(coords, defects):
                if c:
                    total = total + row[j].scale(c)
            if not total.is_zero():
                return False
        return True

    complement = all(commutes(coords) for coords in complement_coords)
    full_algebra = all(d.is_zero() for row in defects for d in row)
    return {"complement": complement, "full_algebra": full_algebra}


def verify_group_case_identity() -> bool:
    """The three-field and six-field sums of squares agree exactly on S^3;
    on the 2-jets this is a proof."""
    return _operators_agree(ProjectedCasimir.of_squares(su2_fields()), laplace_sphere, 4)


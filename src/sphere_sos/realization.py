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
algebra, and they are finite proofs on the 2-jets x_i and x_i x_j (i <= j).
Agreement on these proves an operator identity on the whole quotient field,
provided both sides are sums of compositions of two derivations (first-order
terms allowed).  Such an L kills constants and its carre du champ
Gamma(f, g) = (L(fg) - f Lg - g Lf) / 2 is a biderivation, so Gamma is fixed
by Gamma(x_i, x_j), and L is then fixed on products and quotients by L(x_i)
and the Leibniz rule L(fg) = f Lg + g Lf + 2 Gamma(f, g) (Bakry, Gentil &
Ledoux 2014).  Every operator they compare maps W, the span of the
normal-form monomials 1, x_i, x_i x_j, into itself: fields and the Laplacian
raise no degree, and a normal form of degree <= 2 lies in W.  The 2-jets span
W (1 = sum x_i^2), so agreement on them is equality of exact matrices on W.
A realized field's matrix combines the rotation fields' integer matrices,
read once per m, over one denominator; the projected Casimir's is the sum of
the M_dual M_basic.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

from . import quotients
from .lie import CasimirElement, Rational
from .linalg import EngineFault, exact
from .polynomials import Polynomial, SpherePolynomial
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
        # The sphere ring first: a quotient's type is looked up only off it.
        if not isinstance(f, SpherePolynomial) and not isinstance(f, quotients.SphereFunction):
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
    if not images:
        raise ValueError("need at least one image")
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
        return sum((dual(basic(f)) for dual, basic in self.pairs), type(f).zero(f.m))


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


@functools.cache
def _w_keys(m: int) -> frozenset[int]:
    """The packed keys of W's monomials, read off the normal forms of the 2-jets."""
    xs = [SpherePolynomial.variable(m, i) for i in range(1, m + 1)]
    jets = xs + [xs[i] * xs[j] for i in range(m) for j in range(i, m)]
    return frozenset(e for p in jets for e in p.poly.numerators)


@functools.cache
def _w_matrix(m: int, field: RotationField | None = None) -> dict:
    """The integer matrix on W of a rotation field, or of laplace_sphere
    without one: entry (e, f) is the coefficient of x^e in the image of x^f.
    An image that leaves W is an engine fault."""
    keys, matrix = _w_keys(m), {}
    for key in keys:
        p = SpherePolynomial._trusted(Polynomial.from_numerators(m, {key: 1}, 1))
        image = (laplace_sphere(p) if field is None else apply_rotation_field(field, p)).poly
        if image.denominator != 1 or not image.numerators.keys() <= keys:
            raise EngineFault(f"the image {image} of a basis monomial leaves W")
        matrix.update(((e, key), n) for e, n in image.numerators.items())
    return matrix


def _combination(terms: Sequence) -> tuple[dict, int]:
    """(N, d) with N / d = sum c * A over the (rational c, integer matrix A)
    terms, d the least common denominator of the c; zero entries may stay."""
    d = lcm(*(c.denominator for c, _ in terms))
    out: dict = {}
    for c, matrix in terms:
        k = c.numerator * (d // c.denominator)
        for rj, v in matrix.items():
            out[rj] = out.get(rj, 0) + k * v
    return out, d


def _product(a: dict, b: dict) -> dict:
    """The matrix of a after b."""
    columns: dict[int, list] = {}
    for (r, k), v in a.items():
        columns.setdefault(k, []).append((r, v))
    out: dict = {}
    for (k, j), w in b.items():
        for r, v in columns.get(k, ()):
            out[r, j] = out.get((r, j), 0) + v * w
    return out


def _realized_matrix(field: RealizedField) -> tuple[dict, int]:
    """(N, d): the field's matrix on W is N / d."""
    return _combination([(c, _w_matrix(field.m, f)) for f, c in field.weights])


def _casimir_matrix(operator: ProjectedCasimir) -> tuple[dict, int]:
    """(N, d): the sum of M_dual M_basic over the pairs is N / d."""
    terms = [(*_realized_matrix(dual), *_realized_matrix(basic)) for dual, basic in operator.pairs]
    return _combination([(Fraction(1, da * db), _product(a, b)) for a, da, b, db in terms])


def verify_lap_eq_casimir(
    casimir: CasimirElement,
    images: Sequence[RealizedField],
    scale: Rational = 1,
) -> bool:
    """True iff the projected Casimir equals scale * laplace_sphere on the
    2-jets, exactly: a proof."""
    n, d = _casimir_matrix(projected_casimir(casimir, images))
    difference, _ = _combination(((Fraction(1, d), n), (-exact(scale), _w_matrix(images[0].m))))
    return not any(difference.values())


def verify_commutation_theorem(
    casimir: CasimirElement,
    images: Sequence[RealizedField],
    complement_coords: Sequence[Sequence],
) -> dict[str, bool]:
    """Exact commutation of realized fields with the projected Casimir.

    Returns verdicts for the complement fields (the theorem's statement) and
    for every field of the algebra (stronger, expected true on spheres where
    the operator is rotation invariant).  The defects D_a = [M_a, M_Omega] of
    the basis images are formed once on W; as ``realize`` is linear, a
    complement vector c commutes iff sum_a c_a D_a = 0.  Each commutator is a
    sum of compositions of two derivations, so these are 2-jet proofs.
    """
    omega, _ = _casimir_matrix(projected_casimir(casimir, images))
    # D_a = K_a / (d_a * Omega's denominator), K_a an integer commutator.
    defects = [
        (_combination(((1, _product(a, omega)), (-1, _product(omega, a))))[0], d)
        for a, d in map(_realized_matrix, images)
    ]

    def commutes(coords) -> bool:
        if len(coords) != len(images):
            raise ValueError(
                f"coordinate vector has length {len(coords)}, expected {len(images)}"
            )
        terms = [(Fraction(c, d), k) for c, (k, d) in zip(map(exact, coords), defects) if c]
        return not any(_combination(terms)[0].values())

    complement = all(commutes(coords) for coords in complement_coords)
    full_algebra = not any(v for k, _ in defects for v in k.values())
    return {"complement": complement, "full_algebra": full_algebra}


def verify_group_case_identity() -> bool:
    """The three-field and six-field sums of squares agree exactly on S^3;
    on the 2-jets this is a proof."""
    n, d = _casimir_matrix(ProjectedCasimir.of_squares(su2_fields()))
    difference, _ = _combination(((Fraction(1, d), n), (-1, _w_matrix(4))))
    return not any(difference.values())

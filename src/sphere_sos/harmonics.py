"""Exactly harmonic functions on the two-sphere minus a pole.

The working family pulls planar harmonic polynomials back through
stereographic projection from the north pole: with w = (x1 + i*x2)/(1 - x3),
the real and imaginary parts of w^k are rational functions on the sphere that
are harmonic on the complement of the pole (harmonicity in two dimensions is
conformally invariant).  Harmonicity is re-verified exactly at construction;
a failure aborts, since it would mean the engine itself is broken.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .polynomials import Polynomial, RationalLike, SpherePolynomial, laplace_euclid
from .quotients import SphereFunction, require_on_sphere
from .sphere_ops import generate_harmonic_basis, harmonic_space_dimension, laplace_sphere

NORTH_POLE = (Fraction(0), Fraction(0), Fraction(1))


class HarmonicityError(RuntimeError):
    """A value that must be exactly harmonic failed the construction check."""


class CapDomain(
    NamedTuple("CapDomain", [("pole", tuple[Fraction, ...]), ("radius", float)])
):
    """Open geodesic ball B(rho) about the antipode of the excluded pole.

    rho bounds the circles the ``growth`` command averages over; exact sampling
    and the exact checks (global on the quotient ring) do not read it.
    """

    __slots__ = ()

    def __new__(cls, pole: tuple[Fraction, ...] = NORTH_POLE, radius: float = 3.0):
        self = super().__new__(cls, pole, radius)
        if not 0 < self.radius < math.pi:
            raise ValueError(f"cap radius must lie in (0, pi), got {self.radius}")
        require_on_sphere(self.pole)
        return self

    @property
    def ambient_dim(self) -> int:
        return len(self.pole)


class HarmonicFunction(NamedTuple):
    """A SphereFunction together with its domain and a provenance tag.

    Instances are built through the constructors below, which verify
    laplace_sphere(value) == 0 exactly and that the denominator vanishes only
    at the excluded pole.
    """

    value: SphereFunction
    domain: CapDomain
    provenance: str

    @property
    def m(self) -> int:
        return self.value.m


def _certify(value: SphereFunction, domain: CapDomain, provenance: str) -> HarmonicFunction:
    if value.m != domain.ambient_dim:
        raise ValueError(
            f"{provenance}: function has ambient dimension {value.m}, "
            f"domain has {domain.ambient_dim}"
        )
    image = laplace_sphere(value)
    if not image.is_zero():
        raise HarmonicityError(
            f"{provenance}: spherical Laplacian is {image}, not 0 "
            "(this indicates a bug in the construction or the engine)"
        )
    _check_denominator_pole_only(value, domain)
    return HarmonicFunction(value=value, domain=domain, provenance=provenance)


def _check_denominator_pole_only(value: SphereFunction, domain: CapDomain) -> None:
    """Denominator may vanish only at the excluded pole.

    Handled symbolically for the shipped shapes: constant denominators never
    vanish; for a base c*(1 - x3) the sphere relation forces x3 = 1 and then
    x1 = x2 = 0, which is exactly the excluded north pole.
    """
    if value.exp == 0:
        return
    base = value.base
    m = base.m
    one_minus_last = SpherePolynomial.one(m) - SpherePolynomial.variable(m, m)
    scaled = base.leading_coefficient() / one_minus_last.leading_coefficient()
    if base == one_minus_last.scale(scaled) and tuple(domain.pole) == NORTH_POLE:
        return
    raise HarmonicityError(
        f"cannot certify that denominator ({base})^{value.exp} avoids the cap"
    )


def complex_power_parts(k: int) -> tuple[Polynomial, Polynomial]:
    """Real and imaginary parts of (x1 + i*x2)^k as exact raw polynomials in 3 vars."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    re, im = Polynomial.one(3), Polynomial.zero(3)
    x1, x2 = Polynomial.variable(3, 1), Polynomial.variable(3, 2)
    for _ in range(k):
        re, im = re * x1 - im * x2, re * x2 + im * x1
    return re, im


def stereographic_harmonic(
    k: int, part: str, domain: CapDomain | None = None
) -> HarmonicFunction:
    """Re or Im of ((x1 + i*x2)/(1 - x3))^k as a certified harmonic function on S^2."""
    if part not in ("re", "im"):
        raise ValueError(f"part must be 're' or 'im', got {part!r}")
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    domain = domain or CapDomain()
    if domain.ambient_dim != 3:
        raise ValueError("the stereographic family lives on S^2 (ambient dimension 3)")
    re, im = complex_power_parts(k)
    numerator = SpherePolynomial(re if part == "re" else im)
    base = SpherePolynomial.one(3) - SpherePolynomial.variable(3, 3)
    value = SphereFunction._make(numerator, base, k)
    return _certify(value, domain, f"stereo:k={k}:{part}")


def custom_harmonic(
    value: SphereFunction, tag: str = "custom", domain: CapDomain | None = None
) -> HarmonicFunction:
    """Certify an externally built SphereFunction as harmonic on the cap."""
    return _certify(value, domain or CapDomain(), f"custom:{tag}")


def planar_combination(
    coefficients: Sequence[tuple[int, str, RationalLike]],
    domain: CapDomain | None = None,
) -> HarmonicFunction:
    """Exact linear combination sum_c c * (stereographic harmonic k, part)."""
    domain = domain or CapDomain()
    total = SphereFunction.zero(3)
    tags = []
    for k, part, coeff in coefficients:
        h = stereographic_harmonic(k, part, domain)
        total = total + h.value.scale(Fraction(coeff))
        tags.append(f"{coeff}*(k={k}:{part})")
    provenance = "combo:" + "+".join(tags) if tags else "combo:zero"
    return _certify(total, domain, provenance)


def euclidean_harmonic(m: int, d: int, coefficients: Sequence[RationalLike]) -> Polynomial:
    """Harmonic polynomial from coordinates in the canonical degree-d basis."""
    basis = generate_harmonic_basis(m, d)
    if len(coefficients) != len(basis):
        raise ValueError(
            f"coefficient vector has length {len(coefficients)}, "
            f"expected {harmonic_space_dimension(m, d)}"
        )
    total = Polynomial.zero(m)
    for c, b in zip(coefficients, basis):
        total = total + b.scale(Fraction(c))
    if not laplace_euclid(total).is_zero():
        raise HarmonicityError("combination failed the Euclidean harmonicity check")
    return total

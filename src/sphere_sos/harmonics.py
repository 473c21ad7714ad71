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
from .sphere_ops import generate_harmonic_basis, laplace_sphere

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
    at the excluded pole.  ``chart`` is value's coordinates in the chart
    w = (x1 + i*x2)/(1 - x3) when a constructor knows them: terms
    (n, part, coefficient) of Re w^n or Im w^n, from which the certificate
    builds its squares (``certificates.chart_squares``, which checks them
    against value); () means none are known.
    """

    value: SphereFunction
    domain: CapDomain
    provenance: str
    chart: tuple[tuple[int, str, RationalLike], ...] = ()

    @property
    def m(self) -> int:
        return self.value.m


def _certify(
    value: SphereFunction, domain: CapDomain, provenance: str, chart: tuple = ()
) -> HarmonicFunction:
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
    return HarmonicFunction(value=value, domain=domain, provenance=provenance, chart=chart)


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


def chart_basis(top: int) -> dict[tuple[int, int], SphereFunction]:
    """The chart basis: Re w^n at (n, 0) and Im w^n at (n, 1) for
    0 <= n <= top, Im w^0 = 0 left out, in ascending n.  SphereFunction keeps
    1 - x3 as the primitive base x3 - 1, constant term first, so
    w^n = (-z)^n / (x3 - 1)^n with z = x1 + i*x2.  Each element is stored as
    the normal form of its quotient, in the term order growth's float kernel
    sums in."""
    base = -SpherePolynomial.one(3) + SpherePolynomial.variable(3, 3)
    z1, z2 = -Polynomial.variable(3, 1), -Polynomial.variable(3, 2)
    re, im = Polynomial.one(3), Polynomial.zero(3)
    elements = {(0, 0): SphereFunction.constant(3, 1)}
    for n in range(1, top + 1):
        re, im = re * z1 - im * z2, re * z2 + im * z1
        for part, num in enumerate((re, im)):
            elements[n, part] = SphereFunction._make(SpherePolynomial._trusted(num), base, n, True)
    return elements


def chart_sum(chart: Sequence[tuple], elements: dict) -> SphereFunction:
    """sum c * (Re or Im w^n) over the chart terms (n, part, c), in term
    order, from the elements of ``chart_basis`` (0 + t is stored as t, so
    the sum starts from its first term)."""
    terms = [elements[n, part == "im"].scale(Fraction(c))
             for n, part, c in chart if (n, part == "im") in elements]
    return sum(terms[1:], terms[0]) if terms else SphereFunction.zero(3)


def _charted(chart: tuple, provenance: str) -> HarmonicFunction:
    """The sum of the chart terms (n, part, c) over ``chart_basis``, certified once."""
    for n, part, _ in chart:
        if part not in ("re", "im"):
            raise ValueError(f"part must be 're' or 'im', got {part!r}")
        if n < 0:
            raise ValueError(f"need k >= 0, got {n}")
    elements = chart_basis(max((n for n, _, _ in chart), default=0))
    return _certify(chart_sum(chart, elements), CapDomain(), provenance, chart)


def stereographic_harmonic(k: int, part: str) -> HarmonicFunction:
    """Re or Im of ((x1 + i*x2)/(1 - x3))^k as a certified harmonic function on S^2."""
    return _charted(((k, part, 1),), f"stereo:k={k}:{part}")


def planar_combination(coefficients: Sequence[tuple[int, str, RationalLike]]) -> HarmonicFunction:
    """Exact linear combination sum_c c * (stereographic harmonic k, part)."""
    tags = [f"{coeff}*(k={k}:{part})" for k, part, coeff in coefficients]
    provenance = "combo:" + "+".join(tags) if tags else "combo:zero"
    return _charted(tuple((k, part, Fraction(coeff)) for k, part, coeff in coefficients),
                    provenance)


def euclidean_harmonic(m: int, d: int, coefficients: Sequence[RationalLike]) -> Polynomial:
    """Harmonic polynomial from coordinates in the canonical degree-d basis."""
    basis = generate_harmonic_basis(m, d)
    if len(coefficients) != len(basis):
        raise ValueError(
            f"coefficient vector has length {len(coefficients)}, "
            f"expected {len(basis)}"
        )
    total = Polynomial.zero(m)
    for c, b in zip(coefficients, basis):
        total = total + b.scale(Fraction(c))
    if not laplace_euclid(total).is_zero():
        raise HarmonicityError("combination failed the Euclidean harmonicity check")
    return total

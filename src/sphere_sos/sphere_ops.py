"""Rotation vector fields and Laplacians on the unit sphere.

The field X_ij = x_i d/dx_j - x_j d/dx_i generates the rotation of the
x_i x_j plane.  It annihilates the sphere relation, so it descends to a
derivation of the quotient ring; the spherical Laplacian is defined as the
sum of the squares of all the X_ij.  Everything here is exact.  The identity

    sum_{i<j} X_ij^2  =  r^2 * laplace_euclid - euler^2 - (m - 2) * euler

is how ``laplace_sphere`` computes it (r^2 = 1 in the quotient ring): second
partials and Euler operators, with the quotient rule on N / B^e, in place of
m(m-1) field applications.  The tests check the identity on raw
polynomials and against the field sum.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import factorial, gcd, lcm
from typing import NamedTuple

from . import quotients
from .polynomials import (
    DEGREE_LIMIT,
    SLOT,
    Polynomial,
    SpherePolynomial,
    euler_operator,
    laplace_euclid,
    variable_key,
)


class RotationField(NamedTuple("RotationField", [("i", int), ("j", int)])):
    """Index pair (i, j) with i < j naming the derivation x_i d_j - x_j d_i."""

    __slots__ = ()

    def __new__(cls, i: int, j: int):
        if not 1 <= i < j:
            raise ValueError(f"need 1 <= i < j, got ({i}, {j})")
        return super().__new__(cls, i, j)

    def __str__(self) -> str:
        return f"X{self.i}{self.j}"

    def apply_raw(self, p: Polynomial) -> Polynomial:
        """x_i d_j p - x_j d_i p, summed in integers into one dict: the x_i d_j
        terms in p's order, then the x_j d_i terms subtracted from them."""
        if self.j > p.m:
            raise IndexError(f"{self} out of range for m={p.m}")
        m, out = p.m, {}
        for up, down, sign in ((self.i, self.j, 1), (self.j, self.i, -1)):
            shift, step = SLOT * (m - down), variable_key(m, up) - variable_key(m, down)
            for mono, n in p.numerators.items():
                if e := mono >> shift & DEGREE_LIMIT:
                    key = mono + step
                    s = out.get(key, 0) + sign * n * e
                    if s:
                        out[key] = s
                    else:
                        del out[key]
        return Polynomial.from_numerators(p.m, out, p.denominator)


def rotation_fields(m: int) -> list[RotationField]:
    """All m(m-1)/2 rotation fields in lexicographic pair order."""
    return [RotationField(i, j) for i, j in combinations(range(1, m + 1), 2)]


def apply_rotation_field(field: RotationField, f):
    """Apply a rotation field to a sphere polynomial or a quotient, same kind
    back; a raw polynomial goes through ``RotationField.apply_raw``.

    Well-defined on residue classes because the field annihilates the sphere
    relation; on quotients the factored-power denominator makes the quotient
    rule raise the denominator exponent by one instead of squaring it.  Its
    numerator X(N) B - e N X(B) is formed raw and reduced once.  X(B) is zero
    raw exactly when its normal form is: for B = B0 + x_m B1 that needs
    x_i B1 = (1 - x_1^2 - ... - x_(m-1)^2) d_i B1, whose top x_i-power in the
    top degree, c x_i^K, gives (1 + K) c = 0.
    """
    # apply_raw raises IndexError for a field past m.
    if isinstance(f, SpherePolynomial):
        return SpherePolynomial(field.apply_raw(f.poly))
    SphereFunction = quotients.SphereFunction
    if not isinstance(f, SphereFunction):
        raise TypeError(f"cannot differentiate {type(f).__name__}")
    d_num = field.apply_raw(f.num.poly)
    d_base = field.apply_raw(f.base.poly) if f.exp else Polynomial.zero(f.m)
    if d_base.is_zero():
        return SphereFunction._make(SpherePolynomial(d_num), f.base, f.exp, canonical=True)
    num = d_num * f.base.poly - f.num.poly * d_base.scale(f.exp)
    return SphereFunction._make(SpherePolynomial(num), f.base, f.exp + 1, canonical=True)


def _laplacian_raw(p: Polynomial) -> Polynomial:
    """Sum of the X_ij^2 with r^2 = 1: laplace_euclid minus d(d + m - 2) on degree d."""
    m = p.m
    radial = {e: -n * d * (d + m - 2) for e, n in p.numerators.items() if (d := e >> SLOT * m)}
    return laplace_euclid(p) + Polynomial.from_numerators(m, radial, p.denominator)


def _gamma(p: Polynomial, q: Polynomial) -> Polynomial:
    """Carre du champ grad p . grad q - euler(p) euler(q); zero d_i q are
    skipped and a constant d_i q (as of the base x3 - 1) scales d_i p."""
    out = -(euler_operator(p) * euler_operator(q))
    for i in range(1, p.m + 1):
        dq = q.partial(i)
        if not dq.is_zero():
            dp = p.partial(i)
            out = out + (dp.scale(dq.constant_value()) if dq.is_constant() else dp * dq)
    return out


def laplace_sphere(f):
    """Spherical Laplacian of a SpherePolynomial or SphereFunction, same kind back.

    On N / B^e the Leibniz rule L(fg) = f Lg + g Lf + 2 Gamma(f, g) gives
    B^2 LN - e B LB N + e(e+1) Gamma(B, B) N - 2e B Gamma(N, B) over B^(e+2),
    reduced once: the field sum's base and exponent, so the same stored value.
    """
    if isinstance(f, SpherePolynomial):
        return SpherePolynomial(_laplacian_raw(f.poly))
    SphereFunction = quotients.SphereFunction
    if not isinstance(f, SphereFunction):
        raise TypeError(f"laplace_sphere acts on residue classes, got {type(f).__name__}")
    n, e = f.num.poly, f.exp
    if e == 0:
        return SphereFunction.from_polynomial(SpherePolynomial(_laplacian_raw(n)))
    b = f.base.poly
    inner = b * _laplacian_raw(n) - (_laplacian_raw(b) * n + _gamma(n, b).scale(2)).scale(e)
    num = b * inner + (_gamma(b, b) * n).scale(e * (e + 1))
    return SphereFunction._make(SpherePolynomial(num), f.base, e + 2, canonical=True)


# ----------------------------------------------------------------------
# harmonic polynomials
# ----------------------------------------------------------------------


def monomials_of_degree(m: int, d: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree d, graded-lex descending (deterministic)."""
    multisets = combinations_with_replacement(range(m), d)
    return sorted((tuple(map(c.count, range(m))) for c in multisets), reverse=True)


def generate_harmonic_basis(m: int, d: int) -> list[Polynomial]:
    """Exact basis of homogeneous degree-d polynomials killed by laplace_euclid.

    Closed form, by Cauchy-Kovalevskaya in x1: with the Laplacian d1^2 + D',
    D' the one in x2..xm, each degree-d monomial g = x1^e x'^a with e <= 1
    gives the harmonic p_g = sum_j (-1)^j x1^(2j+e) / (2j+e)! * D'^j(x'^a),
    whose only monomial of x1-degree <= 1 is g.  So the p_g, taken in
    graded-lex descending order of g and made primitive integer, are the
    kernel basis that elimination on the Laplacian's coefficient matrix gives.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    if d < 0:
        raise ValueError(f"need d >= 0, got {d}")
    if d > DEGREE_LIMIT:  # before any monomial is listed
        raise ValueError(f"degree {d} exceeds the packed-key limit {DEGREE_LIMIT}")
    basis, x1 = [], variable_key(m, 1)
    for g in [g for g in monomials_of_degree(m, d) if g[0] <= 1]:
        e = g[0]
        terms = {}
        # D'^j(x'^a) has no x1, so the full Laplacian computes it.
        rest, j = Polynomial(m, {(0,) + g[1:]: 1}), 0
        while not rest.is_zero():
            c = Fraction((-1) ** j, factorial(2 * j + e) * rest.denominator)
            for key, k in rest.numerators.items():
                terms[key + (2 * j + e) * x1] = k * c
            rest, j = laplace_euclid(rest), j + 1
        # The terms are homogeneous, so descending keys are descending exponent tuples.
        den = lcm(*(c.denominator for c in terms.values()))
        ordered = sorted(terms.items(), reverse=True)
        nums = {key: c.numerator * (den // c.denominator) for key, c in ordered}
        content = gcd(*nums.values())
        primitive = {key: n // content for key, n in nums.items()}
        basis.append(Polynomial.from_numerators(m, primitive, 1))
    return basis


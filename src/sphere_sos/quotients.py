"""The quotient field of the sphere ring, and exact sample points on S^2.

  SphereFunction    quotient of two sphere polynomials.  Internally the
                    denominator is carried as ``base ** exp`` so that repeated
                    differentiation does not square denominators; ``num``
                    is the numerator and ``denominator`` forms the power.

Everything is immutable and exact.  Equality of quotients is decided by
cross-multiplication, valid because the sphere relation is irreducible over
the rationals (the quotient ring is an integral domain for every m >= 2).

Only ``certify`` and ``growth`` run this module: ``verify-identities`` and
``gen-harmonic`` stay in the ring of ``polynomials``, so they never compile it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .polynomials import RationalLike, SpherePolynomial, _as_fraction


def require_on_sphere(point: Sequence[RationalLike]) -> tuple[list[int], int]:
    """Check sum X_i^2 = D^2 exactly, in integers; returns (X, D) with point = X / D."""
    pt = [_as_fraction(v) for v in point]
    den = math.lcm(*(v.denominator for v in pt))
    xs = [v.numerator * (den // v.denominator) for v in pt]
    if sum(x * x for x in xs) != den * den:
        raise ValueError(f"point {tuple(str(v) for v in pt)} is not on the unit sphere")
    return xs, den


class SphereFunction:
    """Quotient of two sphere polynomials.

    The value is ``num / base**exp``.  Carrying the denominator as an explicit
    power keeps iterated derivations cheap: a derivation raises ``exp`` by one
    instead of squaring a materialized denominator.  Quotients are *not*
    reduced to lowest terms; only rational content is cancelled (the base is
    kept primitive with positive leading coefficient).  Equality is decided by
    cross-multiplication.
    """

    __slots__ = ("num", "base", "exp")

    def __init__(self, numerator: SpherePolynomial, denominator: SpherePolynomial):
        if not all(isinstance(x, SpherePolynomial) for x in (numerator, denominator)):
            raise TypeError("numerator and denominator must be SpherePolynomial values")
        if numerator.m != denominator.m:
            raise ValueError(f"ambient dimension mismatch: {numerator.m} vs {denominator.m}")
        num, base, exp = _normalize(numerator, denominator, 1)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exp", exp)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("SphereFunction is immutable")

    @classmethod
    def _make(
        cls, num: SpherePolynomial, base: SpherePolynomial, exp: int, canonical: bool = False
    ) -> "SphereFunction":
        # canonical: base comes from a SphereFunction (or is one with exp 0), so
        # only a zero numerator can change the normal form.
        if not canonical:
            num, base, exp = _normalize(num, base, exp)
        elif num.is_zero():
            base, exp = SpherePolynomial.one(num.m), 0
        self = object.__new__(cls)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exp", exp)
        return self

    @classmethod
    def from_polynomial(cls, p: SpherePolynomial) -> "SphereFunction":
        return cls._make(p, SpherePolynomial.one(p.m), 0, canonical=True)

    @classmethod
    def constant(cls, m: int, value: RationalLike) -> "SphereFunction":
        return cls.from_polynomial(SpherePolynomial.constant(m, value))

    @classmethod
    def zero(cls, m: int) -> "SphereFunction":
        return cls.constant(m, 0)

    @property
    def m(self) -> int:
        return self.num.m

    @property
    def denominator(self) -> SpherePolynomial:
        return self.base**self.exp

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _check_dim(self, other: "SphereFunction") -> None:
        if self.m != other.m:
            raise ValueError(f"ambient dimension mismatch: {self.m} vs {other.m}")

    def _over(self, base: SpherePolynomial, exp: int) -> SpherePolynomial:
        """num over base ** exp >= self.exp, base self's unless self.exp is 0; never num * 1."""
        return self.num if exp == self.exp else self.num * base ** (exp - self.exp)

    def __add__(self, other: "SphereFunction") -> "SphereFunction":
        if not isinstance(other, SphereFunction):
            return NotImplemented
        self._check_dim(other)
        if other.exp == 0 < self.exp:
            return other + self
        # One base: a function with exp 0 has base 1 and takes the other's.
        if self.exp == 0 or self.base == other.base:
            base = other.base if self.exp == 0 else self.base
            e = max(self.exp, other.exp)
            return SphereFunction._make(self._over(base, e) + other._over(base, e), base, e, True)
        lhs_den = self.base**self.exp
        rhs_den = other.base**other.exp
        return SphereFunction._make(self.num * rhs_den + other.num * lhs_den, lhs_den * rhs_den, 1)

    def __sub__(self, other: "SphereFunction") -> "SphereFunction":
        if not isinstance(other, SphereFunction):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "SphereFunction":
        return SphereFunction._make(-self.num, self.base, self.exp, canonical=True)

    def __mul__(self, other) -> "SphereFunction":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, SphereFunction):
            return NotImplemented
        self._check_dim(other)
        if self.exp == 0 or other.exp == 0 or self.base == other.base:
            base = other.base if self.exp == 0 else self.base
            return SphereFunction._make(self.num * other.num, base, self.exp + other.exp, True)
        return SphereFunction._make(
            self.num * other.num, self.base**self.exp * other.base**other.exp, 1
        )

    def __rmul__(self, other) -> "SphereFunction":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, value: RationalLike) -> "SphereFunction":
        return SphereFunction._make(self.num.scale(value), self.base, self.exp, canonical=True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SphereFunction):
            return NotImplemented
        self._check_dim(other)
        if self.base == other.base:
            lo, hi = (self, other) if self.exp <= other.exp else (other, self)
            return lo._over(lo.base, hi.exp) == hi.num
        return self.num * other.denominator == other.num * self.denominator

    __hash__ = None  # equality is semantic (cross-multiplication), so no hashing

    def evaluate(self, point: Sequence[RationalLike]) -> Fraction:
        """Exact value at a rational sphere point (``_value_at``); rejects denominator zeros."""
        xs, den = require_on_sphere(point)
        b, b_den = (v**self.exp for v in self.base.poly._value_at(xs, den))
        if b == 0:
            pt = tuple(str(_as_fraction(v)) for v in point)
            raise ZeroDivisionError(f"denominator vanishes at {pt}")
        a, a_den = self.num.poly._value_at(xs, den)
        return Fraction(a * b_den, a_den * b)

    def __str__(self) -> str:
        if self.exp == 0:
            return str(self.num)
        return f"({self.num}) / ({self.base})^{self.exp}"

    def __repr__(self) -> str:
        return f"SphereFunction(m={self.m}, {self})"


def _normalize(
    num: SpherePolynomial, base: SpherePolynomial, exp: int
) -> tuple[SpherePolynomial, SpherePolynomial, int]:
    """Canonical (num, base, exp): zero and constant denominators collapse to
    exp 0; otherwise the base is primitive with positive leading coefficient."""
    if exp < 0:
        raise ValueError("denominator exponent must be nonnegative")
    m = num.m
    if base.is_zero():
        raise ZeroDivisionError("denominator is zero in the quotient ring")
    if num.is_zero():
        return SpherePolynomial.zero(m), SpherePolynomial.one(m), 0
    if exp == 0:
        return num, SpherePolynomial.one(m), 0
    if base.is_constant():
        return num.scale(1 / base.constant_value() ** exp), SpherePolynomial.one(m), 0
    content = base.content()
    if base.leading_coefficient() < 0:
        content = -content
    if content != 1:
        base = base.scale(1 / content)
        num = num.scale(1 / content**exp)
    return num, base, exp


# ----------------------------------------------------------------------
# exact sample points
# ----------------------------------------------------------------------


# Distinct (u, v) that sample_plane_points can draw: 981 ** 2, where
# 981 = 3 + 2 * sum(phi(q) for q in 2..40) counts the p/q in [-1, 1] with q <= 40.
PLANE_SAMPLE_LIMIT = 962_361
# Checked before any point is drawn: the draws for distinct points slow down
# as the count nears PLANE_SAMPLE_LIMIT (a coupon collector's tail).
MAX_SAMPLE_COUNT = 1 << 16


def sample_plane_points(count: int, seed: int) -> list[tuple[Fraction, Fraction]]:
    """Deterministic rational plane points with |u|, |v| <= 1, used for sphere sampling.

    Coordinates have small denominators so downstream exact evaluation stays
    cheap.  Distinctness is enforced so sample sets never repeat a point; the
    count is at most MAX_SAMPLE_COUNT, far below PLANE_SAMPLE_LIMIT.
    """
    import random

    if not 1 <= count <= MAX_SAMPLE_COUNT:
        bound = ">= 1" if count < 1 else f"<= {MAX_SAMPLE_COUNT}"
        raise ValueError(
            f"sample count must be {bound}: need 1 to {MAX_SAMPLE_COUNT} "
            f"distinct plane points, asked for {count}"
        )
    rng = random.Random(seed)
    # Keyed by integers (a Fraction hashes slowly); the first draw of each point wins.
    points: dict[tuple[int, ...], tuple[Fraction, Fraction]] = {}
    while len(points) < count:
        den = rng.randint(2, 40)
        u = Fraction(rng.randint(-den, den), den)
        den2 = rng.randint(2, 40)
        v = Fraction(rng.randint(-den2, den2), den2)
        points.setdefault((u.numerator, u.denominator, v.numerator, v.denominator), (u, v))
    return list(points.values())


def sample_cap_points(count: int, seed: int) -> list[tuple[Fraction, Fraction, Fraction]]:
    """Deterministic exact sphere points inside the cap around the south pole:
    (2u, 2v, u^2 + v^2 - 1) / (u^2 + v^2 + 1) at each plane point, in integers.

    Plane parameters are bounded by 1 in each coordinate, so every point stays
    within geodesic distance 2*atan(sqrt(2)) < 2 of the south pole and well
    away from the excluded north pole.
    """
    points = []
    for u, v in sample_plane_points(count, seed):
        (a, p), (b, q) = u.as_integer_ratio(), v.as_integer_ratio()
        s, t, w = (a * q) ** 2 + (b * p) ** 2, (p * q) ** 2, 2 * p * q  # u^2 + v^2 = s / t
        d = s + t
        points.append((Fraction(w * a * q, d), Fraction(w * b * p, d), Fraction(s - t, d)))
    return points

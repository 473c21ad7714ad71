"""Exact arithmetic in the coordinate ring of the unit sphere.

Two layers, both exact over the rationals:

  Polynomial        sparse multivariate polynomial in ``m`` ambient variables,
                    int numerators over one int denominator (as FLINT's fmpq_poly).
  SpherePolynomial  residue class modulo the sphere relation
                    x_1^2 + ... + x_m^2 - 1, kept in a unique normal form in
                    which the last variable never appears with exponent >= 2.

The quotient field over this ring and the exact sample points are in
``quotients``.  Everything is immutable and exact.  Exact values are summed in
integers: a point is cleared to X / D once, and each polynomial is summed by
Horner's rule over its runs, built once.

Term order is part of the output (float sums run in it): each operation keeps
the order of the sum it forms, where a monomial whose running sum cancels is
dropped and comes back at the end if a later term revives it.

Monomials are keyed by packed ints (Monagan & Pearce 2009): the degree in the
top slot, then e_1..e_m, SLOT bits each, so int order is graded-lex order and
multiplying monomials adds keys.  A degree past DEGREE_LIMIT = 2^SLOT - 1 would
carry into a neighbouring slot, so the constructor and every product raise
ValueError there.  Exponent tuples appear only in the constructor, ``terms``
and ``str``.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

Exponents = tuple[int, ...]
RationalLike = Fraction | int

def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


SLOT = 8
DEGREE_LIMIT = (1 << SLOT) - 1


def _pack(exps: Exponents) -> int:
    key = degree = sum(exps)
    if degree > DEGREE_LIMIT:
        raise ValueError(f"degree {degree} exceeds the packed-key limit {DEGREE_LIMIT}")
    for e in exps:
        key = key << SLOT | e
    return key


def _unpack(key: int, m: int) -> Exponents:
    return tuple(key >> SLOT * s & DEGREE_LIMIT for s in range(m - 1, -1, -1))


def variable_key(m: int, index: int) -> int:
    """The packed key of x_index (1-based index); adding it multiplies by x_index."""
    return 1 << SLOT * m | 1 << SLOT * (m - index)


def _square_and_multiply(base, exponent: int, one: Callable[[int], object]):
    """base ** exponent by binary powering; a product by one(base.m) is skipped."""
    if not isinstance(exponent, int) or exponent < 0:
        raise ValueError("exponent must be a nonnegative integer")
    result, n = None, exponent
    while n:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if n:
            base = base * base
    return one(base.m) if result is None else result


class Polynomial:
    """Sparse exact-rational polynomial in ``m`` ambient variables.

    ``numerators`` maps packed monomial keys to nonzero ints over the
    positive int ``denominator``, and gcd(all numerators, denominator) == 1,
    so the form is unique; zero is the empty dict over 1.  ``terms`` (the
    read-only {exponent tuple: Fraction} view) and the Horner runs are
    built on first use.  Immutable.
    """

    __slots__ = ("m", "numerators", "denominator", "_terms", "_horner")

    def __init__(self, m: int, terms: Mapping[Exponents, RationalLike] | None = None):
        if m < 1:
            raise ValueError(f"need at least one variable, got m={m}")
        clean: dict[int, Fraction] = {}
        for exps, coeff in (terms or {}).items():
            if not all(isinstance(e, int) and not isinstance(e, bool) for e in exps):
                raise TypeError(f"exponents must be ints, got {exps!r}")
            exps = tuple(exps)
            if len(exps) != m:
                raise ValueError(f"exponent tuple {exps} has length {len(exps)}, expected {m}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = _as_fraction(coeff)
            if c != 0:
                clean[_pack(exps)] = c
        # Over the lcm of lowest-terms denominators the gcd is already 1.
        den = math.lcm(*(c.denominator for c in clean.values()))
        object.__setattr__(self, "m", m)
        nums = {e: c.numerator * (den // c.denominator) for e, c in clean.items()}
        object.__setattr__(self, "numerators", nums)
        object.__setattr__(self, "denominator", den)

    @classmethod
    def _make(cls, m: int, numerators: dict[int, int], denominator: int = 1) -> "Polynomial":
        # Trusted constructor: already canonical (no zeros, packed keys, gcd 1).
        self = object.__new__(cls)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "numerators", numerators)
        object.__setattr__(self, "denominator", denominator)
        return self

    @classmethod
    def from_numerators(cls, m: int, numerators: dict[int, int], denominator: int):
        """Nonzero int ``numerators`` over a positive int ``denominator``, their
        gcd divided out; the dict's order is the term order."""
        if denominator != 1:
            g = math.gcd(denominator, *numerators.values())
            if g != 1:
                numerators = {e: n // g for e, n in numerators.items()}
                denominator //= g
        return cls._make(m, numerators, denominator)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Polynomial is immutable")

    @property
    def terms(self) -> Mapping[Exponents, Fraction]:
        try:
            return self._terms
        except AttributeError:
            den, nums = self.denominator, self.numerators
            view = MappingProxyType({_unpack(e, self.m): Fraction(n, den) for e, n in nums.items()})
            object.__setattr__(self, "_terms", view)
            return view

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    @functools.cache
    def zero(cls, m: int) -> "Polynomial":
        return cls._make(m, {})

    @classmethod
    @functools.cache
    def one(cls, m: int) -> "Polynomial":
        return cls._make(m, {0: 1})

    @classmethod
    def constant(cls, m: int, value: RationalLike) -> "Polynomial":
        c = _as_fraction(value)
        if c == 0:
            return cls.zero(m)
        return cls._make(m, {0: c.numerator}, c.denominator)

    @classmethod
    def variable(cls, m: int, index: int) -> "Polynomial":
        """The polynomial x_index, with 1-based index as in x1..xm."""
        if not 1 <= index <= m:
            raise IndexError(f"variable index {index} out of range 1..{m}")
        return cls._make(m, {variable_key(m, index): 1})

    @classmethod
    def radius_squared(cls, m: int) -> "Polynomial":
        """x_1^2 + ... + x_m^2."""
        return cls._make(m, {2 * variable_key(m, i): 1 for i in range(1, m + 1)})

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.numerators

    def is_constant(self) -> bool:
        return not any(self.numerators)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(self.numerators.get(0, 0), self.denominator)

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree -1 by convention."""
        return max(self.numerators) >> SLOT * self.m if self.numerators else -1

    def content(self) -> Fraction:
        """Positive rational c with self = c * (primitive integer polynomial)."""
        if not self.numerators:
            return Fraction(1)
        return Fraction(math.gcd(*self.numerators.values()), self.denominator)

    def leading_coefficient(self) -> Fraction:
        """Coefficient of the graded-lex leading term (0 for the zero polynomial)."""
        if not self.numerators:
            return Fraction(0)
        return Fraction(self.numerators[max(self.numerators)], self.denominator)

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------
    def _check_dim(self, other: "Polynomial") -> None:
        if self.m != other.m:
            raise ValueError(f"ambient dimension mismatch: {self.m} vs {other.m}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_dim(other)
        da, db = self.denominator, other.denominator
        den = da * db // math.gcd(da, db)
        fa, fb = den // da, den // db
        out = dict(self.numerators) if fa == 1 else {e: n * fa for e, n in self.numerators.items()}
        for key, n in other.numerators.items():
            s = out.get(key, 0) + n * fb
            if s:
                out[key] = s
            else:
                del out[key]
        return Polynomial.from_numerators(self.m, out, den)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial._make(
            self.m, {e: -n for e, n in self.numerators.items()}, self.denominator
        )

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_dim(other)
        if self.degree() + other.degree() > DEGREE_LIMIT:
            raise ValueError(f"product degree exceeds the packed-key limit {DEGREE_LIMIT}")
        out = _multiply_into({}, self.numerators.items(), other.numerators.items())
        return Polynomial.from_numerators(self.m, out, self.denominator * other.denominator)

    def __rmul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, value: RationalLike) -> "Polynomial":
        # An int has numerator and denominator too, so it needs no Fraction.
        c = value if type(value) is int else _as_fraction(value)
        if c == 0:
            return Polynomial.zero(self.m)
        a = c.numerator
        return Polynomial.from_numerators(
            self.m, {e: n * a for e, n in self.numerators.items()}, self.denominator * c.denominator
        )

    def square(self) -> "Polynomial":
        """self * self, adding each cross term 2 c_a c_b once; the term order
        differs from that of ``self * self``, which no caller depends on."""
        if 2 * self.degree() > DEGREE_LIMIT:
            raise ValueError(f"square degree exceeds the packed-key limit {DEGREE_LIMIT}")
        items = list(self.numerators.items())
        twice = [(e, 2 * c) for e, c in items]
        out = {e + e: c * c for e, c in items}
        for i, item in enumerate(items):
            _multiply_into(out, (item,), twice[i + 1 :])
        return Polynomial.from_numerators(self.m, out, self.denominator**2)

    def __pow__(self, exponent: int) -> "Polynomial":
        return _square_and_multiply(self, exponent, Polynomial.one)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.m, self.denominator) == (other.m, other.denominator) and (
            self.numerators == other.numerators
        )

    def __hash__(self) -> int:
        return hash((self.m, self.denominator, frozenset(self.numerators.items())))

    # ------------------------------------------------------------------
    # calculus and evaluation
    # ------------------------------------------------------------------
    def partial(self, index: int) -> "Polynomial":
        """Formal partial derivative with respect to x_index (1-based)."""
        if not 1 <= index <= self.m:
            raise IndexError(f"variable index {index} out of range 1..{self.m}")
        shift, step = SLOT * (self.m - index), variable_key(self.m, index)
        # Lowering exponent i is injective on the terms it keeps: no sums.
        out = {
            key - step: n * e
            for key, n in self.numerators.items()
            if (e := key >> shift & DEGREE_LIMIT)
        }
        return Polynomial.from_numerators(self.m, out, self.denominator)

    def _horner_runs(self) -> tuple[int, int, list]:
        """(n, v, runs) for Horner's rule on sum_e N_e X^e D^(n-|e|), n = max(degree, 0),
        in coordinate v (0-based): x_(m-1), as normal forms have e_m <= 1 (x_1 if m = 1).
        The terms that agree off v form a run: (its other nonzero (i, e_i), and per term
        in descending e_v (the step down to it, N_e, n - |e|), then a last step to 0)."""
        if not hasattr(self, "_horner"):
            m, n, v, runs = self.m, max(self.degree(), 0), max(self.m - 2, 0), {}
            for key, c in self.numerators.items():
                e = _unpack(key, m)
                runs.setdefault(e[:v] + (0,) + e[v + 1 :], []).append((e[v], c, n - sum(e)))
            for rest, terms in runs.items():
                terms.sort(reverse=True)
                steps = zip(terms[:1] + terms, terms + [(0, 0, 0)])
                runs[rest] = ([(i, x) for i, x in enumerate(rest) if x],
                              [(up - e, c, r) for (up, _, _), (e, c, r) in steps])
            object.__setattr__(self, "_horner", (n, v, list(runs.values())))
        return self._horner

    def _value_at(self, xs: Sequence[int], den: int) -> tuple[int, int]:
        """The value at X / D as (sum_e N_e X^e D^(n-|e|), L D^n), D = den, by
        ``_horner_runs``: each run by Horner's rule, times its other powers."""
        if len(xs) != self.m:
            raise ValueError(f"point has length {len(xs)}, expected {self.m}")
        n, v, runs = self._horner_runs()
        xp, dpow, total = _powers(xs[v], n), _powers(den, n), 0
        for factors, steps in runs:
            a = 0
            for step, c, r in steps:
                a = a * xp[step] + c * dpow[r]
            for i, e in factors:
                a *= xs[i] ** e
            total += a
        return total, self.denominator * dpow[n]

    def evaluate(self, point: Sequence[RationalLike]) -> Fraction:
        """Exact value at a rational point: with N_e / L the coefficients, the point
        X / D over one common denominator and n the degree, it is
        sum_e N_e X^e D^(n-|e|) / (L D^n), summed in integers by ``_value_at``."""
        pt = [_as_fraction(v) for v in point]
        den = math.lcm(*(v.denominator for v in pt))
        xs = [v.numerator * (den // v.denominator) for v in pt]
        return Fraction(*self._value_at(xs, den))

    # ------------------------------------------------------------------
    # canonical text form
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        """Terms in graded-lex descending order, which is descending key order."""
        parts = []
        for key in sorted(self.numerators, reverse=True):
            c = Fraction(self.numerators[key], self.denominator)
            exps = enumerate(_unpack(key, self.m), start=1)
            factors = [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in exps if e]
            parts.append(f"{c} * " + " ".join(factors) if factors else str(c))
        return " + ".join(parts) or "0"

    def __repr__(self) -> str:
        return f"Polynomial(m={self.m}, {self})"


def laplace_euclid(p: Polynomial) -> Polynomial:
    """Sum of second partials d_1^2 p, d_2^2 p, ... of a raw polynomial, in one int dict."""
    out: dict[int, int] = {}
    for i in range(1, p.m + 1):
        shift, step = SLOT * (p.m - i), 2 * (1 << SLOT * p.m | 1 << SLOT * (p.m - i))
        for mono, n in p.numerators.items():
            if (e := mono >> shift & DEGREE_LIMIT) > 1:
                key = mono - step
                s = out.get(key, 0) + n * e * (e - 1)
                if s:
                    out[key] = s
                else:
                    del out[key]
    return Polynomial.from_numerators(p.m, out, p.denominator)


def euler_operator(p: Polynomial) -> Polynomial:
    """Radial grading operator: sum_i x_i * d/dx_i.  Multiplies degree-d terms by d."""
    out = {key: n * (key >> SLOT * p.m) for key, n in p.numerators.items() if key}
    return Polynomial.from_numerators(p.m, out, p.denominator)


# ----------------------------------------------------------------------
# the quotient ring
# ----------------------------------------------------------------------


class SpherePolynomial:
    """Residue class of a polynomial modulo x_1^2 + ... + x_m^2 - 1.

    The stored representative is the unique normal form with exponent of the
    last variable <= 1 in every term, so equality is plain dict equality.
    """

    __slots__ = ("poly",)

    def __init__(self, poly: Polynomial):
        object.__setattr__(self, "poly", _reduce_terms(poly))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("SpherePolynomial is immutable")

    @classmethod
    def _trusted(cls, poly: Polynomial) -> "SpherePolynomial":
        # Caller guarantees poly is already in normal form.
        self = object.__new__(cls)
        object.__setattr__(self, "poly", poly)
        return self

    @classmethod
    @functools.cache
    def zero(cls, m: int) -> "SpherePolynomial":
        return cls._trusted(Polynomial.zero(_sphere_dim(m)))

    @classmethod
    @functools.cache
    def one(cls, m: int) -> "SpherePolynomial":
        return cls._trusted(Polynomial.one(_sphere_dim(m)))

    @classmethod
    def constant(cls, m: int, value: RationalLike) -> "SpherePolynomial":
        return cls._trusted(Polynomial.constant(_sphere_dim(m), value))

    @classmethod
    def variable(cls, m: int, index: int) -> "SpherePolynomial":
        return cls._trusted(Polynomial.variable(_sphere_dim(m), index))

    @property
    def m(self) -> int:
        return self.poly.m

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def is_constant(self) -> bool:
        return self.poly.is_constant()

    def constant_value(self) -> Fraction:
        return self.poly.constant_value()

    def degree(self) -> int:
        return self.poly.degree()

    def content(self) -> Fraction:
        return self.poly.content()

    def leading_coefficient(self) -> Fraction:
        return self.poly.leading_coefficient()

    def __add__(self, other: "SpherePolynomial") -> "SpherePolynomial":
        if not isinstance(other, SpherePolynomial):
            return NotImplemented
        # Normal forms are closed under addition.
        return SpherePolynomial._trusted(self.poly + other.poly)

    def __sub__(self, other: "SpherePolynomial") -> "SpherePolynomial":
        if not isinstance(other, SpherePolynomial):
            return NotImplemented
        return SpherePolynomial._trusted(self.poly - other.poly)

    def __neg__(self) -> "SpherePolynomial":
        return SpherePolynomial._trusted(-self.poly)

    def __mul__(self, other) -> "SpherePolynomial":
        if isinstance(other, (int, Fraction)):
            return SpherePolynomial._trusted(self.poly.scale(other))
        if not isinstance(other, SpherePolynomial):
            return NotImplemented
        return SpherePolynomial(self.poly * other.poly)

    def __rmul__(self, other) -> "SpherePolynomial":
        if isinstance(other, (int, Fraction)):
            return SpherePolynomial._trusted(self.poly.scale(other))
        return NotImplemented

    def scale(self, value: RationalLike) -> "SpherePolynomial":
        return SpherePolynomial._trusted(self.poly.scale(value))

    def __pow__(self, exponent: int) -> "SpherePolynomial":
        return _square_and_multiply(self, exponent, SpherePolynomial.one)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpherePolynomial):
            return NotImplemented
        return self.poly == other.poly

    def __hash__(self) -> int:
        return hash(self.poly)

    def __str__(self) -> str:
        return str(self.poly)

    def __repr__(self) -> str:
        return f"SpherePolynomial(m={self.m}, {self})"


def _reduce_terms(p: Polynomial) -> Polynomial:
    """Normal form: each x_m^(2q+r) becomes x_m^r (1 - x_1^2 - ... - x_(m-1)^2)^q.

    Summed in integers over p's denominator into one dict, in the result's
    term order: first the expansions of the terms with q >= 1, in p's order,
    then the terms with x_m-exponent <= 1."""
    m = _sphere_dim(p.m)
    # Bits 1.. of the last slot are set exactly when x_m has exponent >= 2.
    if not any(key & DEGREE_LIMIT - 1 for key in p.numerators):
        return p
    out: dict[int, int] = {}
    for key, c in p.numerators.items():
        if q := (key & DEGREE_LIMIT) >> 1:
            stem = key - 2 * q * variable_key(m, m)
            _multiply_into(out, [(stem, c)], _complement_power(m, q).numerators.items())
    kept = [(key, c) for key, c in p.numerators.items() if key & DEGREE_LIMIT <= 1]
    _multiply_into(out, kept, ((0, 1),))
    return Polynomial.from_numerators(m, out, p.denominator)


def _sphere_dim(m: int) -> int:
    if m < 2:
        raise ValueError("the sphere relation needs at least two variables")
    return m


def _multiply_into(out: dict, left, right) -> dict:
    """Adds every product of a (key, int) pair of left and one of right into
    out, in order; a sum that cancels drops its monomial."""
    get = out.get
    for e1, c1 in left:
        for e2, c2 in right:
            key = e1 + e2
            s = get(key, 0) + c1 * c2
            if s:
                out[key] = s
            else:
                del out[key]
    return out


@functools.cache
def _complement_power(m: int, q: int) -> Polynomial:
    """(1 - x_1^2 - ... - x_(m-1)^2)^q for q >= 1, the image of x_m^(2q)."""
    if q == 1:
        return Polynomial.one(m) - (Polynomial.radius_squared(m) - Polynomial.variable(m, m) ** 2)
    return _complement_power(m, q - 1) * _complement_power(m, 1)


def _powers(x: int, n: int) -> list[int]:
    """[x^0, x^1, ..., x^n]."""
    return list(accumulate(repeat(x, n), mul, initial=1))


# Default sample count and seed of certify's exact sign checks.
DEFAULT_SAMPLE_COUNT = 200
DEFAULT_SEED = 20260809

# The quotient field and the sample points live in ``quotients``, which only
# certify and growth run; their old names here resolve there on first use.
_MOVED = ("PLANE_SAMPLE_LIMIT", "SphereFunction", "require_on_sphere", "sample_cap_points",
          "sample_plane_points")


def __getattr__(name: str):
    if name not in _MOVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import quotients

    return getattr(quotients, name)

"""Exact arithmetic in the coordinate ring of the unit sphere.

Three layers, all exact over the rationals:

  Polynomial        sparse multivariate polynomial in ``m`` ambient variables,
                    int numerators over one int denominator (as FLINT's fmpq_poly).
  SpherePolynomial  residue class modulo the sphere relation
                    x_1^2 + ... + x_m^2 - 1, kept in a unique normal form in
                    which the last variable never appears with exponent >= 2.
  SphereFunction    quotient of two sphere polynomials.  Internally the
                    denominator is carried as ``base ** exp`` so that repeated
                    differentiation does not square denominators; the public
                    ``numerator``/``denominator`` view is unchanged.

Everything is immutable and exact.  Equality of quotients is decided by
cross-multiplication, valid because the sphere relation is irreducible over
the rationals (the quotient ring is an integral domain for every m >= 2).
Exact values are summed in integers: a point is cleared to X / D once, and
each polynomial reads its evaluation plan, built once, off one power table.

Term order is part of the output (float sums run in it): each operation keeps
the order of the sum it forms, where a monomial whose running sum cancels is
dropped and comes back at the end if a later term revives it.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from itertools import accumulate, repeat
from operator import add, mul
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

Exponents = tuple[int, ...]
RationalLike = Fraction | int

_TERM_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def term_order_key(exponents: Exponents) -> tuple[int, Exponents]:
    """Graded-lexicographic sort key (total degree first, then exponents)."""
    return (sum(exponents), exponents)


def _square_and_multiply(base, exponent: int, one: Callable[[int], object]):
    """base ** exponent by binary powering, starting from one(base.m)."""
    if not isinstance(exponent, int) or exponent < 0:
        raise ValueError("exponent must be a nonnegative integer")
    result = one(base.m)
    n = exponent
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


class Polynomial:
    """Sparse exact-rational polynomial in ``m`` ambient variables.

    ``numerators`` maps exponent tuples of length ``m`` to nonzero ints over
    the positive int ``denominator``, and gcd(all numerators, denominator) ==
    1, so the form is unique; zero is the empty dict over 1.  ``terms`` (the
    read-only {exponents: Fraction} view) and the evaluation plan are built on
    first use.  Immutable.
    """

    __slots__ = ("m", "numerators", "denominator", "_terms", "_plan")

    def __init__(self, m: int, terms: Mapping[Exponents, RationalLike] | None = None):
        if m < 1:
            raise ValueError(f"need at least one variable, got m={m}")
        clean: dict[Exponents, Fraction] = {}
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
                clean[exps] = c
        # Over the lcm of lowest-terms denominators the gcd is already 1.
        den = math.lcm(*(c.denominator for c in clean.values()))
        object.__setattr__(self, "m", m)
        nums = {e: c.numerator * (den // c.denominator) for e, c in clean.items()}
        object.__setattr__(self, "numerators", nums)
        object.__setattr__(self, "denominator", den)

    @classmethod
    def _make(cls, m: int, numerators: dict[Exponents, int], denominator: int = 1) -> "Polynomial":
        # Trusted constructor: already canonical (no zeros, right length, gcd 1).
        self = object.__new__(cls)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "numerators", numerators)
        object.__setattr__(self, "denominator", denominator)
        return self

    @classmethod
    def from_numerators(cls, m: int, numerators: dict[Exponents, int], denominator: int):
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
            view = MappingProxyType({e: Fraction(n, den) for e, n in nums.items()})
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
        return cls._make(m, {(0,) * m: 1})

    @classmethod
    def constant(cls, m: int, value: RationalLike) -> "Polynomial":
        c = _as_fraction(value)
        if c == 0:
            return cls.zero(m)
        return cls._make(m, {(0,) * m: c.numerator}, c.denominator)

    @classmethod
    def variable(cls, m: int, index: int) -> "Polynomial":
        """The polynomial x_index, with 1-based index as in x1..xm."""
        if not 1 <= index <= m:
            raise IndexError(f"variable index {index} out of range 1..{m}")
        exps = [0] * m
        exps[index - 1] = 1
        return cls._make(m, {tuple(exps): 1})

    @classmethod
    def radius_squared(cls, m: int) -> "Polynomial":
        """x_1^2 + ... + x_m^2."""
        terms = {}
        for i in range(m):
            exps = [0] * m
            exps[i] = 2
            terms[tuple(exps)] = 1
        return cls._make(m, terms)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.numerators

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.numerators)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.coefficient((0,) * self.m)

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree -1 by convention."""
        if not self.numerators:
            return -1
        return max(sum(exps) for exps in self.numerators)

    def coefficient(self, exponents: Sequence[int]) -> Fraction:
        return Fraction(self.numerators.get(tuple(exponents), 0), self.denominator)

    def is_homogeneous(self) -> bool:
        degrees = {sum(exps) for exps in self.numerators}
        return len(degrees) <= 1

    def content(self) -> Fraction:
        """Positive rational c with self = c * (primitive integer polynomial)."""
        if not self.numerators:
            return Fraction(1)
        return Fraction(math.gcd(*self.numerators.values()), self.denominator)

    def leading_coefficient(self) -> Fraction:
        """Coefficient of the graded-lex leading term (0 for the zero polynomial)."""
        if not self.numerators:
            return Fraction(0)
        return self.coefficient(max(self.numerators, key=term_order_key))

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
        for exps, n in other.numerators.items():
            s = out.get(exps, 0) + n * fb
            if s:
                out[exps] = s
            else:
                del out[exps]
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
        out = _multiply_into({}, self.numerators.items(), other.numerators.items())
        return Polynomial.from_numerators(self.m, out, self.denominator * other.denominator)

    def __rmul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, value: RationalLike) -> "Polynomial":
        c = _as_fraction(value)
        if c == 0:
            return Polynomial.zero(self.m)
        a = c.numerator
        return Polynomial.from_numerators(
            self.m, {e: n * a for e, n in self.numerators.items()}, self.denominator * c.denominator
        )

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
        i = index - 1
        # Lowering exponent i is injective on the terms it keeps: no sums.
        out = {
            exps[:i] + (exps[i] - 1,) + exps[index:]: n * exps[i]
            for exps, n in self.numerators.items()
            if exps[i]
        }
        return Polynomial.from_numerators(self.m, out, self.denominator)

    def _evaluation_plan(self) -> tuple[int, list]:
        """(n, [(N_e, n - |e|, the nonzero (i, e_i)) per term]), n = max(degree, 0)."""
        if not hasattr(self, "_plan"):
            n = max(self.degree(), 0)
            terms = [(c, n - sum(e), [(i, x) for i, x in enumerate(e) if x])
                     for e, c in self.numerators.items()]
            object.__setattr__(self, "_plan", (n, terms))
        return self._plan

    def _value_over(self, powers: list[list[int]]) -> tuple[int, int]:
        """The value at X / D as (sum_e N_e X^e D^(n-|e|), L D^n), off a ``_powers`` table."""
        n, terms = self._evaluation_plan()
        total, dpow = 0, powers[-1]
        for c, rest, factors in terms:
            c *= dpow[rest]
            for i, e in factors:
                c *= powers[i][e]
            total += c
        return total, self.denominator * dpow[n]

    def evaluate(self, point: Sequence[RationalLike]) -> Fraction:
        """Exact value at a rational point, summed in integers: with N_e / L
        the coefficients, the point X / D over one common denominator and n
        the degree, it is sum_e N_e X^e D^(n-|e|) / (L D^n)."""
        if len(point) != self.m:
            raise ValueError(f"point has length {len(point)}, expected {self.m}")
        pt = [_as_fraction(v) for v in point]
        den = math.lcm(*(v.denominator for v in pt))
        xs = [v.numerator * (den // v.denominator) for v in pt]
        return Fraction(*self._value_over(_powers(xs, den, self._evaluation_plan()[0])))

    def evaluate_float(self, point: Sequence[float]) -> float:
        """The float value at a point: each coefficient becomes a float (int
        true division rounds as ``float`` of the Fraction does), a term's
        nonzero powers multiply into it, and the terms add in order onto 0.0."""
        if len(point) != self.m:
            raise ValueError(f"point has length {len(point)}, expected {self.m}")
        den = self.denominator
        total = 0.0
        for c, _, factors in self._evaluation_plan()[1]:
            term = c / den
            for i, e in factors:
                term *= point[i] ** e
            total += term
        return total

    def substitute_linear(self, matrix: Sequence[Sequence[RationalLike]]) -> "Polynomial":
        """Substitute x_i -> sum_j matrix[i][j] * x_j (an exact linear change of variables)."""
        if len(matrix) != self.m or any(len(row) != self.m for row in matrix):
            raise ValueError(f"substitution matrix must be {self.m}x{self.m}")
        images = []
        for row in matrix:
            terms: dict[Exponents, Fraction] = {}
            for j, entry in enumerate(row):
                c = _as_fraction(entry)
                if c != 0:
                    exps = [0] * self.m
                    exps[j] = 1
                    terms[tuple(exps)] = c
            images.append(Polynomial(self.m, terms))
        result = Polynomial.zero(self.m)
        # Cache powers of each image since exponents repeat across terms.
        power_cache: dict[tuple[int, int], Polynomial] = {}

        def image_power(i: int, e: int) -> Polynomial:
            key = (i, e)
            if key not in power_cache:
                power_cache[key] = images[i] ** e
            return power_cache[key]

        for exps, c in self.terms.items():
            term = Polynomial.constant(self.m, c)
            for i, e in enumerate(exps):
                if e:
                    term = term * image_power(i, e)
            result = result + term
        return result

    # ------------------------------------------------------------------
    # canonical text form
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=term_order_key, reverse=True):
            c = self.terms[exps]
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e > 1:
                    factors.append(f"x{i + 1}^{e}")
            if factors:
                parts.append(f"{c} * " + " ".join(factors))
            else:
                parts.append(str(c))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial(m={self.m}, {self})"

    @classmethod
    def parse(cls, text: str, m: int) -> "Polynomial":
        """Inverse of ``str``: parse ``c * x1^a1 x2^a2`` fragments joined by ``+``."""
        text = text.strip()
        if text == "0":
            return cls.zero(m)
        terms: dict[Exponents, Fraction] = {}
        for fragment in text.split(" + "):
            pieces = fragment.split(" * ")
            if len(pieces) == 1:
                coeff_text, factor_text = pieces[0], ""
            elif len(pieces) == 2:
                coeff_text, factor_text = pieces
            else:
                raise ValueError(f"malformed term {fragment!r}")
            coeff = Fraction(coeff_text.strip())
            exps = [0] * m
            if factor_text:
                for factor in factor_text.split():
                    match = _TERM_RE.match(factor)
                    if not match:
                        raise ValueError(f"malformed variable factor {factor!r}")
                    index = int(match.group(1))
                    if not 1 <= index <= m:
                        raise ValueError(f"variable x{index} out of range for m={m}")
                    exps[index - 1] += int(match.group(2) or 1)
            key = tuple(exps)
            terms[key] = terms.get(key, Fraction(0)) + coeff
        return cls(m, terms)


def laplace_euclid(p: Polynomial) -> Polynomial:
    """Sum of second partials d_1^2 p, d_2^2 p, ... of a raw polynomial, in one int dict."""
    out: dict[Exponents, int] = {}
    for i in range(p.m):
        for exps, n in p.numerators.items():
            if (e := exps[i]) > 1:
                key = exps[:i] + (e - 2,) + exps[i + 1 :]
                s = out.get(key, 0) + n * e * (e - 1)
                if s:
                    out[key] = s
                else:
                    del out[key]
    return Polynomial.from_numerators(p.m, out, p.denominator)


def euler_operator(p: Polynomial) -> Polynomial:
    """Radial grading operator: sum_i x_i * d/dx_i.  Multiplies degree-d terms by d."""
    out = {exps: n * sum(exps) for exps, n in p.numerators.items() if any(exps)}
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

    def evaluate(self, point: Sequence[RationalLike]) -> Fraction:
        """Exact value at a rational point of the sphere."""
        return SphereFunction.from_polynomial(self).evaluate(point)

    def evaluate_float(self, point: Sequence[float]) -> float:
        return self.poly.evaluate_float(point)

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
    if all(exps[-1] <= 1 for exps in p.numerators):
        return p
    out: dict[Exponents, int] = {}
    for exps, c in p.numerators.items():
        q, r = divmod(exps[-1], 2)
        if q:
            _multiply_into(out, [(exps[:-1] + (r,), c)], _complement_power(m, q).numerators.items())
    kept = [(exps, c) for exps, c in p.numerators.items() if exps[-1] <= 1]
    _multiply_into(out, kept, Polynomial.one(m).numerators.items())
    return Polynomial.from_numerators(m, out, p.denominator)


def _sphere_dim(m: int) -> int:
    if m < 2:
        raise ValueError("the sphere relation needs at least two variables")
    return m


def _multiply_into(out: dict, left, right) -> dict:
    """Adds every product of a (exponents, int) pair of left and one of right
    into out, in order; a sum that cancels drops its monomial."""
    get = out.get
    for e1, c1 in left:
        for e2, c2 in right:
            exps = tuple(map(add, e1, e2))
            s = get(exps, 0) + c1 * c2
            if s:
                out[exps] = s
            else:
                del out[exps]
    return out


@functools.cache
def _complement_power(m: int, q: int) -> Polynomial:
    """(1 - x_1^2 - ... - x_(m-1)^2)^q for q >= 1, the image of x_m^(2q)."""
    if q == 1:
        return Polynomial.one(m) - (Polynomial.radius_squared(m) - Polynomial.variable(m, m) ** 2)
    return _complement_power(m, q - 1) * _complement_power(m, 1)


def _powers(xs: list[int], den: int, n: int) -> list[list[int]]:
    """Row i lists xs[i] ** e for e = 0..n; the last row lists den ** e."""
    return [list(accumulate(repeat(x, n), mul, initial=1)) for x in (*xs, den)]


def require_on_sphere(point: Sequence[RationalLike]) -> tuple[list[int], int]:
    """Check sum X_i^2 = D^2 exactly, in integers; returns (X, D) with point = X / D."""
    pt = [_as_fraction(v) for v in point]
    den = math.lcm(*(v.denominator for v in pt))
    xs = [v.numerator * (den // v.denominator) for v in pt]
    if sum(x * x for x in xs) != den * den:
        raise ValueError(f"point {tuple(str(v) for v in pt)} is not on the unit sphere")
    return xs, den


# ----------------------------------------------------------------------
# the fraction field
# ----------------------------------------------------------------------


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
        if not isinstance(numerator, SpherePolynomial) or not isinstance(
            denominator, SpherePolynomial
        ):
            raise TypeError("numerator and denominator must be SpherePolynomial values")
        if numerator.m != denominator.m:
            raise ValueError(
                f"ambient dimension mismatch: {numerator.m} vs {denominator.m}"
            )
        if denominator.is_zero():
            raise ZeroDivisionError("denominator is zero in the quotient ring")
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
    def numerator(self) -> SpherePolynomial:
        return self.num

    @property
    def denominator(self) -> SpherePolynomial:
        return self.base**self.exp

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.exp == 0

    def _check_dim(self, other: "SphereFunction") -> None:
        if self.m != other.m:
            raise ValueError(f"ambient dimension mismatch: {self.m} vs {other.m}")

    def __add__(self, other: "SphereFunction") -> "SphereFunction":
        if not isinstance(other, SphereFunction):
            return NotImplemented
        self._check_dim(other)
        if self.exp == 0:
            if other.exp == 0:
                return SphereFunction._make(
                    self.num + other.num, SpherePolynomial.one(self.m), 0, canonical=True
                )
            return SphereFunction._make(
                self.num * other.base**other.exp + other.num, other.base, other.exp, canonical=True
            )
        if other.exp == 0:
            return other + self
        if self.base == other.base:
            e = max(self.exp, other.exp)
            num = self.num * self.base ** (e - self.exp) + other.num * self.base ** (
                e - other.exp
            )
            return SphereFunction._make(num, self.base, e, canonical=True)
        lhs_den = self.base**self.exp
        rhs_den = other.base**other.exp
        return SphereFunction._make(
            self.num * rhs_den + other.num * lhs_den, lhs_den * rhs_den, 1
        )

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
        if self.exp == 0:
            return SphereFunction._make(self.num * other.num, other.base, other.exp, canonical=True)
        if other.exp == 0:
            return SphereFunction._make(self.num * other.num, self.base, self.exp, canonical=True)
        if self.base == other.base:
            return SphereFunction._make(
                self.num * other.num, self.base, self.exp + other.exp, canonical=True
            )
        return SphereFunction._make(
            self.num * other.num, self.base**self.exp * other.base**other.exp, 1
        )

    def __rmul__(self, other) -> "SphereFunction":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, value: RationalLike) -> "SphereFunction":
        return SphereFunction._make(self.num.scale(value), self.base, self.exp, canonical=True)

    def __truediv__(self, other: "SphereFunction") -> "SphereFunction":
        if not isinstance(other, SphereFunction):
            return NotImplemented
        self._check_dim(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero function")
        num = self.num * other.base**other.exp
        den = other.num * self.base**self.exp
        return SphereFunction._make(num, den, 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SphereFunction):
            return NotImplemented
        self._check_dim(other)
        if self.base == other.base:
            lo, hi = (self, other) if self.exp <= other.exp else (other, self)
            return lo.num * lo.base ** (hi.exp - lo.exp) == hi.num
        return self.num * other.denominator == other.num * self.denominator

    __hash__ = None  # equality is semantic (cross-multiplication), so no hashing

    def evaluate(self, point: Sequence[RationalLike]) -> Fraction:
        """Exact value at a rational sphere point (one power table); rejects denominator zeros."""
        xs, den = require_on_sphere(point)
        if len(xs) != self.m:
            raise ValueError(f"point has length {len(xs)}, expected {self.m}")
        num, base = self.num.poly, self.base.poly
        powers = _powers(xs, den, max(num._evaluation_plan()[0], base._evaluation_plan()[0]))
        b, b_den = (v**self.exp for v in base._value_over(powers))
        if b == 0:
            pt = tuple(str(_as_fraction(v)) for v in point)
            raise ZeroDivisionError(f"denominator vanishes at {pt}")
        a, a_den = num._value_over(powers)
        return Fraction(a * b_den, a_den * b)

    def evaluate_float(self, point: Sequence[float]) -> float:
        den_val = self.base.poly.evaluate_float(point) ** self.exp
        return self.num.poly.evaluate_float(point) / den_val

    def substitute_linear(self, matrix: Sequence[Sequence[RationalLike]]) -> "SphereFunction":
        """Exact linear change of variables applied to numerator and denominator."""
        num = SpherePolynomial(self.num.poly.substitute_linear(matrix))
        base = SpherePolynomial(self.base.poly.substitute_linear(matrix))
        return SphereFunction._make(num, base, self.exp)

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


# Distinct (u, v) that sample_plane_points can draw: 981 ** 2, where
# 981 = 3 + 2 * sum(phi(q) for q in 2..40) counts the p/q in [-1, 1] with q <= 40.
PLANE_SAMPLE_LIMIT = 962_361
# Default sample count and seed of certify's exact sign checks.
DEFAULT_SAMPLE_COUNT = 200
DEFAULT_SEED = 20260809


def sample_plane_points(count: int, seed: int) -> list[tuple[Fraction, Fraction]]:
    """Deterministic rational plane points with |u|, |v| <= 1, used for sphere sampling.

    Coordinates have small denominators so downstream exact evaluation stays
    cheap.  Distinctness is enforced so sample sets never repeat a point,
    which caps the count at PLANE_SAMPLE_LIMIT.
    """
    import random

    if not 1 <= count <= PLANE_SAMPLE_LIMIT:
        raise ValueError(f"need 1 to {PLANE_SAMPLE_LIMIT} distinct plane points, asked for {count}")
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

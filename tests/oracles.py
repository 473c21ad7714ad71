"""Independent oracles.

The sympy-based ones re-derive the engine's results along a completely
separate path (sympy expression trees, reduction modulo the sphere ideal) so
that the two implementations check each other.  The plain loops at the end
are the engine's earlier code paths, which its faster ones must match
exactly.  Only used by the tests.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, product

import sympy as sp

from sphere_sos import linalg
from sphere_sos.lie import BilinearForm, LieAlgebraData, ReductiveDecomposition
from sphere_sos.polynomials import (
    Polynomial,
    SphereFunction,
    SpherePolynomial,
    euler_operator,
    laplace_euclid,
    sample_plane_points,
)
from sphere_sos.realization import projected_casimir, realize
from sphere_sos.sphere_ops import (
    apply_rotation_field,
    generate_harmonic_basis,
    laplace_sphere,
    rotation_fields,
)


def symbols(m: int):
    return sp.symbols(" ".join(f"x{i}" for i in range(1, m + 1)))


def to_sympy_poly(p: Polynomial):
    syms = symbols(p.m)
    expr = sp.Integer(0)
    for exps, c in p.terms.items():
        term = sp.Rational(c.numerator, c.denominator)
        for s, e in zip(syms, exps):
            if e:
                term *= s**e
        expr += term
    return expr


def to_sympy_function(f: SphereFunction):
    num = to_sympy_poly(f.num.poly)
    den = to_sympy_poly(f.base.poly) ** f.exp
    return num / den


def rotation_apply(i: int, j: int, expr, m: int):
    syms = symbols(m)
    return syms[i - 1] * sp.diff(expr, syms[j - 1]) - syms[j - 1] * sp.diff(
        expr, syms[i - 1]
    )


def laplace_sphere_expr(expr, m: int):
    total = sp.Integer(0)
    for i, j in combinations(range(1, m + 1), 2):
        total += rotation_apply(i, j, rotation_apply(i, j, expr, m), m)
    return total


def vanishes_mod_sphere(expr, m: int) -> bool:
    """True iff the expression is zero on the sphere (numerator in the ideal)."""
    syms = symbols(m)
    num, _den = sp.fraction(sp.together(sp.simplify(expr)))
    relation = sum(s**2 for s in syms) - 1
    # A single generator is a Groebner basis for the principal ideal.
    _q, r = sp.reduced(sp.expand(num), [relation], gens=list(syms))
    return sp.expand(r) == 0


def functions_equal_mod_sphere(f: SphereFunction, expr, m: int) -> bool:
    return vanishes_mod_sphere(to_sympy_function(f) - expr, m)


def from_sympy_poly(expr, m: int) -> Polynomial:
    syms = symbols(m)
    poly = sp.Poly(sp.expand(expr), *syms)
    terms = {}
    for exps, coeff in poly.terms():
        q = sp.Rational(coeff)
        terms[tuple(int(e) for e in exps)] = Fraction(int(q.p), int(q.q))
    return Polynomial(m, terms)


# ----------------------------------------------------------------------
# the plain loops that faster engine paths replaced, kept as exact oracles
# ----------------------------------------------------------------------


def certificate_words(m: int, k: int) -> list[tuple]:
    """All ordered length-k words over the m(m-1)/2 rotation fields.

    Full enumeration, no symmetry reduction; deterministic lexicographic order.
    """
    return list(product(rotation_fields(m), repeat=k))


def sos_certificate(h, k: int) -> list[SphereFunction]:
    """Certificate terms X_w h for every length-k word w (first field applied
    first), one per word: the 3^k terms the span route never lists.

    Requires k >= 1; the k = 0 statement is just h^2 >= 0.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    # Words agreeing on the first k-1 letters differ only in the final application.
    cache: dict[tuple, SphereFunction] = {(): h.value}

    def term_for(word: tuple) -> SphereFunction:
        if word not in cache:
            cache[word] = apply_rotation_field(word[-1], term_for(word[:-1]))
        return cache[word]

    return [term_for(word) for word in certificate_words(h.m, k)]


def euclid_word_rhs(p: Polynomial, k: int) -> Polynomial:
    """2^k times the sum of (d_w p)^2 over all m^k length-k words w in the
    coordinate partials, one square per word; each term is taken from its
    prefix's."""
    terms = [p]
    for _ in range(k):
        terms = [t.partial(i) for t in terms for i in range(1, p.m + 1)]
    total = Polynomial.zero(p.m)
    for t in terms:
        total = total + t * t
    return total.scale(Fraction(2) ** k)


def standard_test_suite(
    m: int,
    max_harmonic_degree: int = 4,
    random_count: int = 20,
    seed: int = 710,
) -> list[SphereFunction]:
    """Deterministic exact test functions: harmonic restrictions plus seeded
    random rational functions with pole-free denominators."""
    suite: list[SphereFunction] = []
    for d in range(max_harmonic_degree + 1):
        for p in generate_harmonic_basis(m, d):
            suite.append(SphereFunction.from_polynomial(SpherePolynomial(p)))
    rng = random.Random(seed)
    base = SpherePolynomial(
        Polynomial.constant(m, 3) - Polynomial.variable(m, m)
    )
    for _ in range(random_count):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exps = [0] * m
            for _ in range(rng.randint(0, 3)):
                exps[rng.randrange(m)] += 1
            terms[tuple(exps)] = Fraction(rng.randint(-5, 5))
        num = SpherePolynomial(Polynomial(m, terms))
        exp = rng.randint(0, 2)
        suite.append(SphereFunction._make(num, base, exp))
    return suite


def evaluate_fraction_loop(p: Polynomial, point) -> Fraction:
    """Exact value as a Fraction sum over every monomial."""
    pt = [Fraction(v) for v in point]
    total = Fraction(0)
    for exps, c in p.terms.items():
        term = c
        for v, e in zip(pt, exps):
            if e:
                term *= v**e
        total += term
    return total


def product_power(v: float, e: int) -> float:
    """v^e as the product 1.0 * v * v * ... * v, the package's float power
    (1.0 * v == v, and e = 0 gives 1.0)."""
    out = 1.0
    for _ in range(e):
        out *= v
    return out


def evaluate_float_loop(p: Polynomial, point, power=product_power) -> float:
    """Float value, converting every coefficient on every call.  ``power``
    takes each power; ``power=pow`` is the earlier libm ``v ** e`` loop."""
    total = 0.0
    for exps, c in p.terms.items():
        term = float(c)
        for v, e in zip(point, exps):
            if e:
                term *= power(v, e)
        total += term
    return total


def function_evaluate_float_loop(f: SphereFunction, point, power=product_power) -> float:
    den_val = power(evaluate_float_loop(f.base.poly, point, power), f.exp)
    return evaluate_float_loop(f.num.poly, point, power) / den_val


def circle_nodes(center, r: float, order: int):
    """The trapezoid nodes of the circle, each point rebuilt with cos and sin."""
    from sphere_sos.growth import _orthonormal_frame

    u, v = _orthonormal_frame(center)
    for k in range(order):
        phi = 2.0 * math.pi * k / order
        cr, sr = math.cos(r), math.sin(r)
        cp, sp = math.cos(phi), math.sin(phi)
        yield tuple(cr * center[i] + sr * (cp * u[i] + sp * v[i]) for i in range(3))


def spherical_mean_loop(
    h: SphereFunction, center, r: float, order: int, power=product_power
) -> float:
    """Trapezoid circle mean of h^2: h's float value squared at each node."""
    total = 0.0
    for point in circle_nodes(center, r, order):
        value = function_evaluate_float_loop(h, point, power)
        total += value * value
    return total / order


def expanded_square_mean_loop(h: SphereFunction, center, r: float, order: int) -> float:
    """Trapezoid circle mean of h^2 with the expanded normal form of h * h
    evaluated at each node, as the growth means were once taken."""
    f = h * h
    total = 0.0
    for point in circle_nodes(center, r, order):
        total += function_evaluate_float_loop(f, point)
    return total / order


def harmonic_space_dimension(m: int, d: int) -> int:
    """Dimension of degree-d harmonic polynomials in m variables: the degree-d
    monomials minus the degree-(d - 2) ones, onto which the Laplacian maps."""
    if d < 0:
        return 0
    if d < 2:
        return math.comb(m + d - 1, d)
    return math.comb(m + d - 1, d) - math.comb(m + d - 3, d - 2)


def harmonic_basis_by_nullspace(m: int, d: int) -> list[Polynomial]:
    """Kernel of the Laplacian's coefficient matrix from degree d to d - 2."""
    from sphere_sos import linalg
    from sphere_sos.sphere_ops import monomials_of_degree

    source = monomials_of_degree(m, d)
    if d < 2:
        return [Polynomial(m, {exps: 1}) for exps in source]
    target = monomials_of_degree(m, d - 2)
    target_index = {exps: k for k, exps in enumerate(target)}
    matrix = [[Fraction(0)] * len(source) for _ in range(len(target))]
    for col, exps in enumerate(source):
        for i in range(m):
            e = exps[i]
            if e >= 2:
                lowered = list(exps)
                lowered[i] = e - 2
                matrix[target_index[tuple(lowered)]][col] += e * (e - 1)
    kernel = linalg.nullspace(matrix, n_cols=len(source))
    return [
        Polynomial(m, {exps: c for exps, c in zip(source, vec) if c != 0})
        for vec in kernel
    ]


# ----------------------------------------------------------------------
# the Fraction kernel that the integer-numerator Polynomial replaced
# ----------------------------------------------------------------------


class FractionPolynomial:
    """``terms`` maps exponent tuples to nonzero Fractions, summed in
    Fractions; each running sum that cancels pops its monomial, so a later
    nonzero sum re-inserts it at the end.  The integer kernel must give the
    same coefficients in the same order."""

    def __init__(self, m: int, terms=None):
        self.m = m
        self.terms = {tuple(e): Fraction(c) for e, c in (terms or {}).items() if c != 0}

    @classmethod
    def _make(cls, m: int, terms: dict) -> "FractionPolynomial":
        self = cls(m)
        self.terms = terms
        return self

    @classmethod
    def one(cls, m: int) -> "FractionPolynomial":
        return cls._make(m, {(0,) * m: Fraction(1)})

    @classmethod
    def variable(cls, m: int, index: int) -> "FractionPolynomial":
        exps = [0] * m
        exps[index - 1] = 1
        return cls._make(m, {tuple(exps): Fraction(1)})

    @classmethod
    def radius_squared(cls, m: int) -> "FractionPolynomial":
        terms = {}
        for i in range(m):
            exps = [0] * m
            exps[i] = 2
            terms[tuple(exps)] = Fraction(1)
        return cls._make(m, terms)

    def content(self) -> Fraction:
        if not self.terms:
            return Fraction(1)
        num_gcd = 0
        den_lcm = 1
        for c in self.terms.values():
            num_gcd = math.gcd(num_gcd, abs(c.numerator))
            den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
        return Fraction(num_gcd, den_lcm)

    def leading_coefficient(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        return self.terms[max(self.terms, key=lambda e: (sum(e), e))]

    def __add__(self, other: "FractionPolynomial") -> "FractionPolynomial":
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps, Fraction(0)) + c
            if s == 0:
                out.pop(exps, None)
            else:
                out[exps] = s
        return FractionPolynomial._make(self.m, out)

    def __sub__(self, other: "FractionPolynomial") -> "FractionPolynomial":
        return self + (-other)

    def __neg__(self) -> "FractionPolynomial":
        return FractionPolynomial._make(self.m, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "FractionPolynomial") -> "FractionPolynomial":
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(exps, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(exps, None)
                else:
                    out[exps] = s
        return FractionPolynomial._make(self.m, out)

    def scale(self, value) -> "FractionPolynomial":
        c = Fraction(value)
        if c == 0:
            return FractionPolynomial._make(self.m, {})
        return FractionPolynomial._make(self.m, {e: k * c for e, k in self.terms.items()})

    def __pow__(self, exponent: int) -> "FractionPolynomial":
        result = FractionPolynomial.one(self.m)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def partial(self, index: int) -> "FractionPolynomial":
        i = index - 1
        out = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            new = list(exps)
            new[i] = e - 1
            key = tuple(new)
            s = out.get(key, Fraction(0)) + c * e
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
        return FractionPolynomial._make(self.m, out)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            c = self.terms[exps]
            factors = [
                f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(exps) if e
            ]
            parts.append(f"{c} * " + " ".join(factors) if factors else str(c))
        return " + ".join(parts)


def reduce_terms_loop(p: FractionPolynomial) -> FractionPolynomial:
    """Sphere normal form as a Polynomial sum per reduced term, then the
    terms that pass through."""
    m = p.m
    if all(exps[-1] <= 1 for exps in p.terms):
        return p
    complement = FractionPolynomial.one(m) - (
        FractionPolynomial.radius_squared(m) - FractionPolynomial.variable(m, m) ** 2
    )
    comp_powers = {0: FractionPolynomial.one(m)}

    def comp_power(q: int) -> FractionPolynomial:
        if q not in comp_powers:
            comp_powers[q] = comp_power(q - 1) * complement
        return comp_powers[q]

    out = FractionPolynomial._make(m, {})
    passthrough = {}
    for exps, c in p.terms.items():
        e_last = exps[-1]
        if e_last <= 1:
            s = passthrough.get(exps, Fraction(0)) + c
            if s == 0:
                passthrough.pop(exps, None)
            else:
                passthrough[exps] = s
            continue
        q, r = divmod(e_last, 2)
        stem = list(exps)
        stem[-1] = r
        mono = FractionPolynomial._make(m, {tuple(stem): c})
        out = out + mono * comp_power(q)
    return out + FractionPolynomial._make(m, passthrough)


def apply_raw_loop(i: int, j: int, p: FractionPolynomial) -> FractionPolynomial:
    """x_i d_j p - x_j d_i p as two products and a difference."""
    xi = FractionPolynomial.variable(p.m, i)
    xj = FractionPolynomial.variable(p.m, j)
    return xi * p.partial(j) - xj * p.partial(i)


# ----------------------------------------------------------------------
# the ad-invariance scan before it skipped the triples with x > y
# ----------------------------------------------------------------------


def ad_invariance_by_all_triples(algebra: LieAlgebraData, form: BilinearForm):
    """First ordered triple (z, x, y) violating B([Z,X],Y) + B(X,[Z,Y]) = 0,
    all dim^3 of them scanned, or None."""
    s, b = algebra.structure, form.matrix
    for z, x, y in product(range(algebra.dim), repeat=3):
        if sum(c * b[k][y] for k, c in s[z][x]) + sum(c * b[x][k] for k, c in s[z][y]) != 0:
            return (z, x, y)
    return None


def jacobi_by_all_triples(algebra: LieAlgebraData) -> bool:
    """The Jacobi identity on all dim^3 ordered triples, each cyclic sum
    [X_i, [X_j, X_k]] + [X_j, [X_k, X_i]] + [X_k, [X_i, X_j]] in full."""
    bracket = algebra.bracket
    e = [algebra.basis_vector(i) for i in range(algebra.dim)]
    for i, j, k in product(range(algebra.dim), repeat=3):
        total = [0] * algebra.dim
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            total = [t + x for t, x in zip(total, bracket(e[a], bracket(e[b], e[c])))]
        if any(total):
            return False
    return True


# ----------------------------------------------------------------------
# the projection route that B-orthogonality tests replaced in lie
# ----------------------------------------------------------------------


def in_span(vectors, target) -> bool:
    """target lies in the span of vectors iff stacking it on them adds no rank."""
    n = len(target)
    return len(linalg.column_basis([*vectors, target], n)[0]) == len(
        linalg.column_basis(vectors, n)[0]
    )


def project_complement(dec: ReductiveDecomposition, u) -> tuple[Fraction, ...]:
    """B-orthogonal projection of u onto the complement: the coefficients
    solve the Gram system of the complement basis, here by its inverse."""
    basis = dec.complement_basis
    out = [Fraction(0)] * dec.algebra.dim
    if not basis:
        return tuple(out)
    inverse = linalg.invert([[dec.form(a, b) for b in basis] for a in basis])
    rhs = [dec.form(a, u) for a in basis]
    for row, vec in zip(inverse, basis):
        c = sum((g * r for g, r in zip(row, rhs)), Fraction(0))
        for i, v in enumerate(vec):
            out[i] += c * v
    return tuple(out)


def decomposition_by_projection(
    algebra: LieAlgebraData, subalgebra_basis, form: BilinearForm
) -> ReductiveDecomposition:
    """The span-membership decomposition: rank for independence, then
    closure and stability as membership in the spans of k and m."""
    if form.dim != algebra.dim:
        raise ValueError("form and algebra dimensions differ")
    if not form.is_positive_definite():
        raise ValueError("decomposition needs a positive definite form")
    k_basis = [tuple(Fraction(x) for x in v) for v in subalgebra_basis]
    if len(linalg.column_basis(k_basis, algebra.dim)[0]) != len(k_basis):
        raise ValueError("subalgebra basis vectors are linearly dependent")
    for a, b in product(k_basis, repeat=2):
        if not in_span(k_basis, algebra.bracket(a, b)):
            raise ValueError("given span is not closed under the bracket")
    if k_basis:
        constraint = [
            [form(algebra.basis_vector(col), k) for col in range(algebra.dim)]
            for k in k_basis
        ]
        m_basis = [tuple(v) for v in linalg.nullspace(constraint, n_cols=algebra.dim)]
    else:
        m_basis = [algebra.basis_vector(i) for i in range(algebra.dim)]
    if len(k_basis) + len(m_basis) != algebra.dim:
        raise AssertionError("complement dimension mismatch")
    for k, mvec in product(k_basis, m_basis):
        if form(k, mvec) != 0:
            raise AssertionError("complement is not B-orthogonal")
        if not in_span(m_basis, algebra.bracket(k, mvec)):
            raise ValueError("complement is not stable under the subalgebra")
    return ReductiveDecomposition(
        algebra=algebra,
        form=form,
        subalgebra_basis=tuple(k_basis),
        complement_basis=tuple(m_basis),
    )


def natural_reductivity_by_projection(dec: ReductiveDecomposition):
    """First complement-basis triple (z, x, y) with
    B([Z,X]_m, Y) + B(X, [Z,Y]_m) != 0, projecting every bracket; or None."""
    basis, alg, form = dec.complement_basis, dec.algebra, dec.form
    for (z, ez), (x, ex), (y, ey) in product(enumerate(basis), repeat=3):
        pzx = project_complement(dec, alg.bracket(ez, ex))
        pzy = project_complement(dec, alg.bracket(ez, ey))
        if form(pzx, ey) + form(ex, pzy) != 0:
            return (z, x, y)
    return None


# ----------------------------------------------------------------------
# the 2-jets, the proof set of the realization identities
# ----------------------------------------------------------------------


def jet_functions(m: int) -> list[SphereFunction]:
    """The 2-jets x_i and x_i x_j (i <= j) as quotients: m + m(m+1)/2 functions.

    Agreement on these proves an operator identity of sums of compositions of
    two derivations on the whole quotient field (``realization`` docstring).
    """
    xs = [SpherePolynomial.variable(m, i) for i in range(1, m + 1)]
    products = [xs[i] * xs[j] for i in range(m) for j in range(i, m)]
    return [SphereFunction.from_polynomial(p) for p in xs + products]


# ----------------------------------------------------------------------
# the field-by-field commutation route that per-image defects replaced
# ----------------------------------------------------------------------


def commutation_by_fields(casimir, images, complement_coords, full_coords, functions=None):
    """Commutation verdicts by realizing each coordinate vector as a field and
    comparing field(Omega f) with Omega(field f) on every function (the
    2-jets unless ``functions`` is given): one pass over the complement, one
    over full_coords."""
    operator = projected_casimir(casimir, images)
    if functions is None:
        functions = jet_functions(images[0].m)
    applied = [(f, operator(f)) for f in functions]

    def all_commute(coord_list) -> bool:
        for coords in coord_list:
            field = realize(images, coords)
            if any(field(lf) != operator(field(f)) for f, lf in applied):
                return False
        return True

    return {"complement": all_commute(complement_coords), "full_algebra": all_commute(full_coords)}


# ----------------------------------------------------------------------
# the realized field before it started from its first term
# ----------------------------------------------------------------------


def realized_field_by_zero_sum(field, f):
    """RealizedField.__call__ as it was: a zero plus each weighted image."""
    out = (SphereFunction if isinstance(f, SphereFunction) else SpherePolynomial).zero(field.m)
    for rot, c in field.weights:
        out = out + apply_rotation_field(rot, f).scale(c)
    return out


# ----------------------------------------------------------------------
# the spherical Laplacian as its definition, before the Euclidean identity
# ----------------------------------------------------------------------


def laplace_sphere_by_fields(f):
    """Sum over i < j of X_ij applied twice, accumulated in pair order."""
    result = None
    for field in rotation_fields(f.m):
        term = apply_rotation_field(field, apply_rotation_field(field, f))
        result = term if result is None else result + term
    return result


# ----------------------------------------------------------------------
# the Fraction sample stage before it ran in integers
# ----------------------------------------------------------------------


def sphere_point_from_plane(u, v) -> tuple[Fraction, Fraction, Fraction]:
    """Exact sphere point (2u, 2v, u^2+v^2-1) / (u^2+v^2+1) from a rational
    plane point, in Fraction arithmetic.  The image omits only the north pole
    (0, 0, 1); the plane origin maps to the south pole."""
    uf, vf = Fraction(u), Fraction(v)
    s = uf * uf + vf * vf
    d = s + 1
    return (2 * uf / d, 2 * vf / d, (s - 1) / d)


def cap_points_by_fractions(count: int, seed: int) -> list[tuple[Fraction, Fraction, Fraction]]:
    """sample_cap_points as it was: each plane point mapped in Fractions."""
    return [sphere_point_from_plane(u, v) for u, v in sample_plane_points(count, seed)]


def function_evaluate_fraction_loop(f: SphereFunction, point) -> Fraction:
    """SphereFunction.evaluate as it was: the on-sphere check as a Fraction
    sum, then num / base^exp from two Fraction loops."""
    pt = [Fraction(v) for v in point]
    if sum(v * v for v in pt) != 1:
        raise ValueError(f"point {tuple(str(v) for v in pt)} is not on the unit sphere")
    if len(pt) != f.m:
        raise ValueError(f"point has length {len(pt)}, expected {f.m}")
    den_val = evaluate_fraction_loop(f.base.poly, pt) ** f.exp
    if den_val == 0:
        raise ZeroDivisionError(f"denominator vanishes at {tuple(str(v) for v in pt)}")
    return evaluate_fraction_loop(f.num.poly, pt) / den_val


# ----------------------------------------------------------------------
# the span route's squares before its Gram form stayed in integers
# ----------------------------------------------------------------------


def gram_squares_by_fractions(gram, den, basis):
    """(d, u) as the span route built them: ``linalg.ldl`` on the Gram
    matrix as Fractions over den, every pivot a weight, and
    u_i = sum_r L_ri v_r over the basis v, added in row order."""
    lower, pivots = linalg.ldl([[Fraction(x, den) for x in row] for row in gram])
    u = []
    for i, v in enumerate(basis):
        for r in range(i + 1, len(basis)):
            if lower[r][i]:
                v = v + basis[r].scale(lower[r][i])
        u.append(v)
    return pivots, u


# ----------------------------------------------------------------------
# reference checks and helpers that only the tests use
# ----------------------------------------------------------------------


def so_basis_matrix(m: int, i: int, j: int) -> list[list[Fraction]]:
    """Antisymmetric matrix unit with +1 in row i column j (1-based), -1 transposed."""
    rows = [[Fraction(0)] * m for _ in range(m)]
    rows[i - 1][j - 1] = Fraction(1)
    rows[j - 1][i - 1] = Fraction(-1)
    return rows


def realization_antihomomorphism_defect(algebra: LieAlgebraData, images, u, v, f):
    """realize([u, v]) f + [realize(u), realize(v)] f; zero when the
    antihomomorphism law holds on f.  Both sides are derivations, so zero on
    every x_i proves the law."""
    ru, rv = realize(images, u), realize(images, v)
    return realize(images, algebra.bracket(u, v))(f) + ru(rv(f)) - rv(ru(f))


def check_sum_of_squares_identity(p: Polynomial) -> bool:
    """True iff sum_{i<j} X_ij^2 p equals r^2 * laplace_euclid(p) - euler(euler(p))
    - (m-2) * euler(p) exactly, on the raw polynomial."""
    m = p.m
    lhs = Polynomial.zero(m)
    for field in rotation_fields(m):
        lhs = lhs + field.apply_raw(field.apply_raw(p))
    ep = euler_operator(p)
    rhs = Polynomial.radius_squared(m) * laplace_euclid(p) - euler_operator(ep) - ep.scale(m - 2)
    return lhs == rhs


def is_homogeneous(p: Polynomial) -> bool:
    return len({sum(exps) for exps in p.terms}) <= 1


def check_spherical_eigenvalue(p: Polynomial) -> bool:
    """True iff the sphere restriction of the degree-l harmonic p satisfies
    laplace_sphere = -l(l + m - 2) exactly; ValueError unless p is
    homogeneous and harmonic."""
    if not is_homogeneous(p):
        raise ValueError("eigenvalue oracle needs a homogeneous polynomial")
    if not laplace_euclid(p).is_zero():
        raise ValueError("eigenvalue oracle needs a Euclidean-harmonic polynomial")
    if p.is_zero():
        return True
    ell = p.degree()
    restricted = SpherePolynomial(p)
    return laplace_sphere(restricted) == restricted.scale(-ell * (ell + p.m - 2))


def substitute_linear(f, matrix):
    """The exact change of variables x_i -> sum_j matrix[i][j] x_j, applied to
    a Polynomial, or to a SphereFunction's numerator and base."""
    if isinstance(f, SphereFunction):
        num = SpherePolynomial(substitute_linear(f.num.poly, matrix))
        base = SpherePolynomial(substitute_linear(f.base.poly, matrix))
        return SphereFunction._make(num, base, f.exp)
    m = f.m
    images = []
    for row in matrix:
        terms = {tuple(int(k == j) for k in range(m)): Fraction(c) for j, c in enumerate(row)}
        images.append(Polynomial(m, terms))
    result = Polynomial.zero(m)
    for exps, c in f.terms.items():
        term = Polynomial.constant(m, c)
        for image, e in zip(images, exps):
            if e:
                term = term * image**e
        result = result + term
    return result


# ----------------------------------------------------------------------
# closed forms on S^2 for the stereographic family
# ----------------------------------------------------------------------


def stored_form(f: SphereFunction) -> tuple:
    """Every stored piece of f, term order included: the numerator's and the
    base's items and denominators, and the exponent."""
    pieces = tuple((list(p.poly.numerators.items()), p.poly.denominator) for p in (f.num, f.base))
    return pieces + (f.exp,)


def complex_power_parts(k: int) -> tuple[Polynomial, Polynomial]:
    """Real and imaginary parts of (x1 + i*x2)^k as raw polynomials in 3 vars,
    by the recursion the stereographic family was first built with."""
    re, im = Polynomial.one(3), Polynomial.zero(3)
    x1, x2 = Polynomial.variable(3, 1), Polynomial.variable(3, 2)
    for _ in range(k):
        re, im = re * x1 - im * x2, re * x2 + im * x1
    return re, im


def stereo_reference(k: int, part: str) -> SphereFunction:
    """Re or Im of w^k as the normal form of (Re or Im (x1 + i*x2)^k) / (1 - x3)^k."""
    re, im = complex_power_parts(k)
    one_minus_x3 = SpherePolynomial.one(3) - SpherePolynomial.variable(3, 3)
    return SphereFunction._make(SpherePolynomial(re if part == "re" else im), one_minus_x3, k)


def stereo_power(h: SphereFunction) -> int:
    """K with h = Re w^K or Im w^K, w = (x1 + i x2)/(1 - x3), found by
    comparing h with both parts, built here from the binomial expansion, for
    each K up to h's denominator exponent.  Any other function, such as a
    sum of two powers, is refused with ValueError."""
    one_minus_x3 = SpherePolynomial.one(3) - SpherePolynomial.variable(3, 3)
    for K in range(h.exp + 1):
        # i^j is (-1)^(j // 2) times 1 for even j and i for odd j.
        parts: tuple[dict, dict] = ({}, {})
        for j in range(K + 1):
            parts[j % 2][K - j, j, 0] = math.comb(K, j) * (-1) ** (j // 2)
        for terms in parts:
            if h == SphereFunction._make(SpherePolynomial(Polynomial(3, terms)), one_minus_x3, K):
                return K
    raise ValueError("h is not Re or Im of a power of w, so the closed form does not apply")


def stereo_square_weights(K: int, k: int) -> dict[int, int]:
    """The integer weights c_n with Delta^k(h^2) = 1/2 sum_n c_n t^n for
    h = Re or Im w^K and k >= 1, where t = |w|^2 = (1 + x3)/(1 - x3).

    h^2 = |w^K|^2 / 2 + Re(w^(2K)) / 2 and the second part is harmonic.  In
    the chart Delta = (1 + |w|^2)^2 d dbar, so Delta t^n = n^2 (1 + t)^2
    t^(n-1): from c^(0) = e_K, c_n^(j+1) = (n+1)^2 c_(n+1) + 2 n^2 c_n +
    (n-1)^2 c_(n-1).  Every c_n is >= 0, and t^n = (Re w^n)^2 + (Im w^n)^2.
    """
    if k < 1:
        raise ValueError(f"the closed form needs k >= 1, got {k}")
    weights = {K: 1}
    for _ in range(k):
        step: dict[int, int] = {}
        for n, c in weights.items():
            for target, factor in ((n - 1, n * n), (n, 2 * n * n), (n + 1, n * n)):
                if factor:
                    step[target] = step.get(target, 0) + factor * c
        weights = {n: c for n, c in step.items() if c}
    return weights


def radial_sum(weights: dict[int, int]) -> SphereFunction:
    """1/2 sum_n c_n t^n, each t^n written over (1 - x3)^N, N the top n."""
    one, x3 = Polynomial.one(3), Polynomial.variable(3, 3)
    top = max(weights, default=0)
    num = Polynomial.zero(3)
    for n, c in weights.items():
        num = num + ((one + x3) ** n * (one - x3) ** (top - n)).scale(Fraction(c, 2))
    return SphereFunction._make(SpherePolynomial(num), SpherePolynomial(one - x3), top)


def stereo_closed_form(h: SphereFunction, k: int) -> SphereFunction:
    """Delta^k(h^2) for h = Re or Im w^K and k >= 1, in closed form."""
    return radial_sum(stereo_square_weights(stereo_power(h), k))


def planar_coefficients(chart) -> dict[int, tuple[Fraction, Fraction]]:
    """b_n = (Re b_n, Im b_n) with h = Re sum_n b_n w^n for chart terms
    (n, part, c) of c Re w^n or c Im w^n: Im(c w^n) = Re(-i c w^n)."""
    b: dict[int, tuple[Fraction, Fraction]] = {}
    for n, part, c in chart:
        re, im = b.get(n, (Fraction(0), Fraction(0)))
        b[n] = (re + Fraction(c), im) if part == "re" else (re, im - Fraction(c))
    return b


def z_power_parts(p: int, q: int) -> tuple[Polynomial, Polynomial]:
    """Re and Im of (x1 + i x2)^p (x1 - i x2)^q, from the two binomial
    expansions: the term x1^(p-j) (i x2)^j x1^(q-l) (-i x2)^l has the
    factor i^(j+l) (-1)^l."""
    parts: tuple[dict, dict] = ({}, {})
    for j in range(p + 1):
        for l in range(q + 1):
            s = j + l
            key = (p + q - s, s, 0)
            target = parts[s % 2]
            c = math.comb(p, j) * math.comb(q, l) * (-1) ** l * (-1) ** (s // 2)
            target[key] = target.get(key, 0) + c
    return Polynomial(3, parts[0]), Polynomial(3, parts[1])


def planar_form(chart, k: int) -> dict[tuple[int, int], tuple[Fraction, Fraction]]:
    """C^(k) as {(p, q): (Re C_pq, Im C_pq)} for h = Re sum_n b_n w^n
    (``planar_coefficients``): C^(0) = b b* and
    C^(j+1)_pq = (p+1)(q+1) C_(p+1,q+1) + 2pq C_pq + (p-1)(q-1) C_(p-1,q-1),
    which ``stereo_square_weights`` is for a single power (C diagonal)."""
    b = planar_coefficients(chart)
    form = {(p, q): (bp[0] * bq[0] + bp[1] * bq[1], bp[1] * bq[0] - bp[0] * bq[1])
            for p, bp in b.items() for q, bq in b.items()}
    for _ in range(k):
        top = max((max(key) for key in form), default=0) + 1
        step = {}
        for p in range(top + 1):
            for q in range(top + 1):
                terms = [((p + 1) * (q + 1), (p + 1, q + 1)), (2 * p * q, (p, q)),
                         ((p - 1) * (q - 1), (p - 1, q - 1))]
                re = sum(c * form.get(key, (0, 0))[0] for c, key in terms)
                im = sum(c * form.get(key, (0, 0))[1] for c, key in terms)
                if re or im:
                    step[p, q] = (re, im)
        form = step
    return form


def hermitian_sum(form) -> SphereFunction:
    """Re sum_pq C_pq w^p wbar^q, with
    w^p wbar^q = (x1 + i x2)^p (x1 - i x2)^q / (1 - x3)^(p + q)."""
    one, x3 = Polynomial.one(3), Polynomial.variable(3, 3)
    top = max((p + q for p, q in form), default=0)
    num = Polynomial.zero(3)
    for (p, q), (re, im) in form.items():
        z_re, z_im = z_power_parts(p, q)
        # Re((re + i im) z^p zbar^q), lifted to the top power of 1 - x3.
        term = z_re.scale(Fraction(re)) - z_im.scale(Fraction(im))
        num = num + term * (one - x3) ** (top - p - q)
    return SphereFunction._make(SpherePolynomial(num), SpherePolynomial(one - x3), top)


def planar_closed_form(chart, k: int) -> SphereFunction:
    """Delta^k(h^2) for h = Re f given by its chart and k >= 1, in closed
    form: h^2 = Re(f^2) / 2 + |f|^2 / 2 with Re(f^2) harmonic, so it is
    1/2 Re sum_pq C^(k)_pq w^p wbar^q (``planar_form``; C is Hermitian, so
    the sum is real)."""
    if k < 1:
        raise ValueError(f"the closed form needs k >= 1, got {k}")
    return hermitian_sum(planar_form(chart, k)).scale(Fraction(1, 2))

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
from sphere_sos.realization import jet_functions, projected_casimir, realize
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


def term_order_key(exponents: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Graded-lexicographic sort key (total degree first, then exponents)."""
    return (sum(exponents), exponents)


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


def evaluate_float_loop(p: Polynomial, point) -> float:
    """Float value, converting every coefficient on every call."""
    total = 0.0
    for exps, c in p.terms.items():
        term = float(c)
        for v, e in zip(point, exps):
            if e:
                term *= v**e
        total += term
    return total


def function_evaluate_float_loop(f: SphereFunction, point) -> float:
    den_val = evaluate_float_loop(f.base.poly, point) ** f.exp
    return evaluate_float_loop(f.num.poly, point) / den_val


def spherical_mean_loop(f: SphereFunction, center, r: float, order: int) -> float:
    """Trapezoid circle mean, rebuilding each node point with cos and sin."""
    from sphere_sos.growth import _orthonormal_frame

    u, v = _orthonormal_frame(center)
    total = 0.0
    for k in range(order):
        phi = 2.0 * math.pi * k / order
        cr, sr = math.cos(r), math.sin(r)
        cp, sp = math.cos(phi), math.sin(phi)
        point = tuple(cr * center[i] + sr * (cp * u[i] + sp * v[i]) for i in range(3))
        total += function_evaluate_float_loop(f, point)
    return total / order


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

    def float_evaluator(self):
        terms = [
            (float(c), [(i, e) for i, e in enumerate(exps) if e])
            for exps, c in self.terms.items()
        ]

        def evaluate(point) -> float:
            total = 0.0
            for term, factors in terms:
                for i, e in factors:
                    term *= point[i] ** e
                total += term
            return total

        return evaluate

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
    return linalg.rank([*vectors, target]) == linalg.rank(vectors)


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
    if linalg.rank(k_basis) != len(k_basis):
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

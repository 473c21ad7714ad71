"""Independent oracles.

The sympy-based ones re-derive the engine's results along a completely
separate path (sympy expression trees, reduction modulo the sphere ideal) so
that the two implementations check each other.  The plain loops at the end
are the engine's earlier code paths, which its faster ones must match
exactly.  Only used by the tests.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import sympy as sp

from sphere_sos.polynomials import Polynomial, SphereFunction


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

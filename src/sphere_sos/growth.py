"""Floating-point spherical-mean analysis on S^2.

The only non-exact module, and the package's only float evaluator: the
L^2-growth function M(r), the mean of h^2 over the geodesic circle of radius
r, is computed by the periodic trapezoid rule (spectrally accurate for smooth
integrands), and two property-level verdicts are derived from it: M is
nondecreasing in the radius when h^2 is subharmonic, and M''(0) equals half
the spherical Laplacian of h^2 at the center.  The exact symbolic engine
supplies that reference value, exact at the float center and rounded to float
once, so the two routes stay independent.

The integrand is h itself, each node value squared: the expanded normal form
of h * h would take twice the float powers per node, and its terms cancel
near the zeros of h.  h is compiled once into a straight-line circle kernel
(``_circle_kernel``), and the tangent offsets cos(phi) u + sin(phi) v of the
nodes are computed once per (center, order) (``_tangent_table``), so a report's
circles share them.  A float power x^e is the left-to-right product
x * x * ... * x, which the kernel takes once per node and shares among the
terms, so no node calls libm's ``pow``; such a product overflows to inf where
``x ** e`` would raise OverflowError, which no circle inside h's disk comes
near.  A mean equals, bit for bit, a node-by-node loop that sums h's float
terms in term order and squares the value at each node.  M(0) is the same
kernel on one node at radius 0.

Near the excluded pole h varies on the scale of the distance to it, so the
M''(0) fit shrinks its radius step with that distance (``analyze_growth``).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .harmonics import HarmonicFunction
from .polynomials import _unpack
from .quotients import SphereFunction
from .sphere_ops import laplace_sphere

MONOTONICITY_TOL = 1e-10
SECOND_DERIVATIVE_REL_TOL = 1e-6
# Absolute fallback for profiles whose second derivative vanishes at the
# center: the O(h^6) truncation of the three-point fit stays below this.
SECOND_DERIVATIVE_ABS_TOL = 1e-8
# The radius step s of that fit, at most SECOND_DERIVATIVE_STEP, and in
# ``analyze_growth`` at most the center's distance to h's pole over
# SECOND_DERIVATIVE_POLE_STEPS: h varies on the scale of that distance.
SECOND_DERIVATIVE_STEP = 0.04
SECOND_DERIVATIVE_POLE_STEPS = 25
# The node and radius counts are bounded before any table or radius list is
# built: a count that would not fit in memory is a usage error, not a verdict.
MIN_QUADRATURE_ORDER = 8
MAX_QUADRATURE_ORDER = 1 << 14
MAX_GRID = 1 << 10


class GrowthReport(NamedTuple):
    center: tuple[float, float, float]
    radii: list[float]
    means: list[float]
    monotone: bool
    first_violation: int | None
    second_derivative_fd: float
    second_derivative_exact: float
    second_derivative_ok: bool

    @property
    def passed(self) -> bool:
        return self.monotone and self.second_derivative_ok


def _orthonormal_frame(center: Sequence[float]) -> tuple[list[float], list[float]]:
    """Two unit vectors spanning the tangent plane at the center."""
    c = list(center)
    # Pick the coordinate axis least aligned with the center.
    axis = min(range(3), key=lambda i: abs(c[i]))
    e = [0.0, 0.0, 0.0]
    e[axis] = 1.0
    dot = sum(e[i] * c[i] for i in range(3))
    u = [e[i] - dot * c[i] for i in range(3)]
    norm = math.sqrt(sum(x * x for x in u))
    u = [x / norm for x in u]
    v = [
        c[1] * u[2] - c[2] * u[1],
        c[2] * u[0] - c[0] * u[2],
        c[0] * u[1] - c[1] * u[0],
    ]
    return u, v


def spherical_mean(
    h: SphereFunction, center: Sequence[float], r: float, order: int
) -> float:
    """Mean of h^2 over the geodesic circle of radius r about the center.

    Periodic trapezoid rule with ``order`` nodes; the center must be a unit
    vector, and the integrand must stay away from the denominator's zero set,
    which callers guarantee by keeping the circle inside the working cap.
    """
    if h.m != 3:
        raise ValueError("spherical means are implemented on S^2 (ambient dim 3)")
    _check_order(order)
    if not 0 <= r < math.pi:
        raise ValueError(f"radius must lie in [0, pi), got {r}")
    center = _finite_point(center)
    cr, sr = math.cos(r), math.sin(r)
    a0, a1, a2 = (cr * c for c in center)
    return _circle_kernel(h)(a0, a1, a2, sr, _tangent_table(center, order)) / order


def _check_order(order: int) -> None:
    if order < MIN_QUADRATURE_ORDER:
        raise ValueError(f"quadrature order must be >= {MIN_QUADRATURE_ORDER}")
    if order > MAX_QUADRATURE_ORDER:
        raise ValueError(f"quadrature order must be <= {MAX_QUADRATURE_ORDER}, got {order}")


def _finite_point(center) -> tuple[float, float, float]:
    """The center as 3 floats; ValueError unless it is 3 finite real numbers
    whose squares sum to 1 within 1e-12."""
    try:
        ok = len(center) == 3 and all(
            isinstance(c, (int, float)) and math.isfinite(c) for c in center
        )
    except (TypeError, OverflowError):  # no len(), or an int too large for a float
        ok = False
    if not ok:
        raise ValueError(f"center must be 3 finite floats, got {center!r}")
    point = tuple(map(float, center))
    if abs(sum(c * c for c in point) - 1.0) > 1e-12:
        raise ValueError(f"center must lie on the unit sphere, got {center!r}")
    return point


@functools.lru_cache(maxsize=1)
def _tangent_table(
    center: tuple[float, float, float], order: int
) -> tuple[tuple[float, float, float], ...]:
    """cos(phi) u + sin(phi) v at the trapezoid angles phi = 2 pi k / order,
    for the tangent frame (u, v) at the center.  A report reads one table, so
    only the last one is kept.  (0.0 and -0.0 share a key; the sign of a zero
    coordinate reaches no mean, as every term adds onto 0.0.)"""
    (u0, u1, u2), (v0, v1, v2) = _orthonormal_frame(center)
    table = []
    for k in range(order):
        phi = 2.0 * math.pi * k / order
        cp, sp = math.cos(phi), math.sin(phi)
        table.append((cp * u0 + sp * v0, cp * u1 + sp * v1, cp * u2 + sp * v2))
    return tuple(table)


_kernel_cache: tuple = (None, None)


def _circle_kernel(h: SphereFunction):
    """h compiled into ``kernel(a0, a1, a2, sr, table)``: the sum over the
    table's rows w of v * v, v = h(a + sr w).  Squaring h's value takes half
    the float powers of the expanded normal form of h * h, whose alternating
    coefficients also cancel near the zeros of h.  v is h's float value:
    each coefficient is the float literal ``repr(c / den)`` (int true
    division rounds as ``float`` of the Fraction), a term's nonzero powers
    multiply into it, the terms add in term order, v is the numerator's sum
    over the base's power, and a zero float denominator raises
    ZeroDivisionError.  Only the sign of a zero v depends on how the sum
    starts, and v * v is never -0.0.  Powers are left-to-right products
    (``_power_steps``), each taken once per node and shared by the terms, so
    no node calls libm's ``pow``; where ``**`` would raise OverflowError a
    product gives inf, which no circle inside h's disk reaches.  The last
    kernel is kept, keyed by identity."""
    global _kernel_cache
    cached, kernel = _kernel_cache
    if cached is h:
        return kernel
    namespace: dict = {}
    exec(compile(_kernel_source(h), "<circle kernel>", "exec"), namespace)
    kernel = namespace["kernel"]
    _kernel_cache = (h, kernel)
    return kernel


def _kernel_source(h: SphereFunction) -> str:
    """The Python source of ``_circle_kernel(h)``.  Each node computes the
    coordinates v reads and each power x{i}_e a term names, then the base b
    and b_e for e = h.exp, and v from those names."""
    polys = (h.num.poly, h.base.poly) if h.exp else (h.num.poly,)
    exponents: list[set[int]] = [set(), set(), set()]
    for p in polys:
        for _, factors in _float_terms(p):
            for i, e in factors:
                exponents[i].add(e)
    steps = []
    for i, needed in enumerate(exponents):
        if needed:
            steps.append(f"x{i} = a{i} + sr * w{i}")
            steps += _power_steps(f"x{i}", needed)
    num = _float_sum(h.num.poly)
    if h.exp:
        steps += [f"b = {_float_sum(h.base.poly)}", *_power_steps("b", {h.exp})]
        steps.append(f"v = {num} / {_power('b', h.exp)}")
    else:
        steps.append(f"v = {num}")
    return "".join([
        "def kernel(a0, a1, a2, sr, table):\n",
        "    total = 0.0\n",
        "    for w0, w1, w2 in table:\n",
        *(f"        {step}\n" for step in steps),
        "        total += v * v\n",
        "    return total\n",
    ])


def _power(x: str, e: int) -> str:
    """The name of x^e in a kernel: x itself, or x_e."""
    return x if e == 1 else f"{x}_{e}"


def _power_steps(x: str, needed: set[int]) -> list[str]:
    """Assignments of x_e for each e in needed, as left-to-right products:
    each continues the one below it, so with needed = {3, 5},
    x_3 = x * x * x and x_5 = x_3 * x * x."""
    steps, below = [], 1
    for e in sorted(needed - {1}):
        steps.append(f"{_power(x, e)} = {_power(x, below)}" + f" * {x}" * (e - below))
        below = e
    return steps


def _float_terms(p) -> list:
    """[(N_e, the nonzero (i, e_i))] per term of p, in term order."""
    return [(c, [(i, x) for i, x in enumerate(_unpack(e, p.m)) if x])
            for e, c in p.numerators.items()]


def _float_sum(p) -> str:
    """p's float value at (x0, x1, x2) as one expression, (t1 + t2 + ...) or
    an empty sum's 0.0.  A coefficient 1.0 is left out of its term, as
    1.0 * y == y for every float y, and a coefficient -1.0 becomes a
    negation, as -1.0 * y == -y."""
    den = p.denominator
    terms = []
    for c, factors in _float_terms(p):
        coefficient = c / den
        powers = "*".join(_power(f"x{i}", e) for i, e in factors)
        if not powers:
            terms.append(f"({coefficient!r})")
        elif coefficient == 1.0:
            terms.append(powers)
        elif coefficient == -1.0:
            terms.append(f"-{powers}")
        else:
            terms.append(f"({coefficient!r})*{powers}")
    return f"({' + '.join(terms) or '0.0'})"


def check_mean_monotonicity(means: Sequence[float]):
    """Nondecreasing within MONOTONICITY_TOL; returns (verdict, first violation or None)."""
    for i in range(len(means) - 1):
        if means[i + 1] < means[i] - MONOTONICITY_TOL:
            return False, i
    return True, None


def second_derivative_at_zero_fd(
    h: SphereFunction, center: Sequence[float], order: int, *,
    step: float = SECOND_DERIVATIVE_STEP,
) -> float:
    """Finite-difference second derivative of the mean profile of h^2 at r = 0.

    The profile is even in r, so fit M(r) = M(0) + (A/2) r^2 + B r^4 + C r^6
    through radii s, 2 s, 3 s (s = ``step``) and return A.  With
    y_j = M(j s) - M(0), Lagrange's weights at r^2 = 0 give
    A/2 = (3/2 y_1 - 3/20 y_2 + 1/90 y_3) / s^2, that is
    A = (135 y_1 - 13.5 y_2 + y_3) / (45 s^2); the error is O(s^6) times
    the scale on which h varies, so near a pole of h the step must shrink
    with the distance to it (``analyze_growth`` scales it).  M(0) is
    h(center)^2: the circle kernel on one node at radius 0.
    """
    means = [spherical_mean(h, center, j * step, order) for j in (1.0, 2.0, 3.0)]
    m0 = _circle_kernel(h)(*center, 0.0, ((0.0, 0.0, 0.0),))
    y1, y2, y3 = (mean - m0 for mean in means)
    return (135.0 * y1 - 13.5 * y2 + y3) / (45.0 * step * step)


def check_second_derivative_at_zero(
    h: SphereFunction, center: Sequence[float], order: int = 256, *,
    step: float = SECOND_DERIVATIVE_STEP,
) -> tuple[bool, float, float]:
    """Compare the finite-difference M''(0), fitted with radius step ``step``,
    with half the exact Laplacian of h^2 at the center, within the module's
    tolerances.  The reference is exact at the float center, each coordinate
    read as its exact Fraction, and rounded to float once; a zero base raises
    ZeroDivisionError.

    Returns (verdict, finite-difference value, reference value).
    """
    fd = second_derivative_at_zero_fd(h, center, order, step=step)
    lap = laplace_sphere(h * h)
    at = [Fraction(c) for c in center]
    exact = float(lap.num.poly.evaluate(at) / lap.base.poly.evaluate(at) ** lap.exp / 2)
    if exact == 0.0:
        return abs(fd) <= SECOND_DERIVATIVE_ABS_TOL, fd, exact
    tol = SECOND_DERIVATIVE_REL_TOL * abs(exact) + SECOND_DERIVATIVE_ABS_TOL
    return abs(fd - exact) <= tol, fd, exact


def analyze_growth(
    h: HarmonicFunction, center: Sequence[float], r_max: float, grid: int, order: int
) -> GrowthReport:
    """Full growth report of h: the mean profile of h^2, its monotonicity,
    and the M''(0) cross-check.

    Every circle must lie in h's disk ``h.domain``, the cap of geodesic radius
    rho about -pole, where the denominator is bounded away from zero:
    acos(-center . pole) + r_max <= rho.  The M''(0) fit takes the step
    min(SECOND_DERIVATIVE_STEP, d / SECOND_DERIVATIVE_POLE_STEPS), d the
    center's distance to the pole; every center at least 1 rad from the
    pole keeps SECOND_DERIVATIVE_STEP."""
    center = _finite_point(center)
    if not 2 <= grid <= MAX_GRID:
        bound = "at least 2" if grid < 2 else f"at most {MAX_GRID}"
        raise ValueError(f"need {bound} grid radii, got {grid}")
    if not 0 < r_max < math.pi:
        raise ValueError(f"r_max must be finite and lie in (0, pi), got {r_max}")
    along_pole = sum(c * float(p) for c, p in zip(center, h.domain.pole))
    offset = math.acos(max(-1.0, min(1.0, -along_pole)))
    if offset + r_max > h.domain.radius:
        raise ValueError("circles of radius r_max about this center leave the working cap")
    _check_order(order)
    radii = [r_max * (i + 1) / grid for i in range(grid)]
    means = [spherical_mean(h.value, center, r, order) for r in radii]
    monotone, violation = check_mean_monotonicity(means)
    step = min(SECOND_DERIVATIVE_STEP, (math.pi - offset) / SECOND_DERIVATIVE_POLE_STEPS)
    ok, fd, exact = check_second_derivative_at_zero(h.value, center, order, step=step)
    return GrowthReport(
        center=center,
        radii=radii,
        means=means,
        monotone=monotone,
        first_violation=violation,
        second_derivative_fd=fd,
        second_derivative_exact=exact,
        second_derivative_ok=ok,
    )

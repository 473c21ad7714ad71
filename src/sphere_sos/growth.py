"""Floating-point spherical-mean analysis on S^2.

The only non-exact module: circle means of a squared function are computed by
the periodic trapezoid rule (spectrally accurate for smooth integrands), and
two property-level verdicts are derived from them: the mean is nondecreasing
in the radius for subharmonic integrands, and its second derivative at radius
zero equals half the spherical Laplacian at the center.  The exact symbolic
engine supplies that reference value, so the two routes stay independent.

Each mean compiles its integrand once (``SphereFunction.float_evaluator``)
and reads its nodes off one (cos phi, sin phi) table per order; it runs the
float operations of a node-by-node ``evaluate_float`` loop, bit for bit.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Sequence

from .polynomials import SphereFunction
from .sphere_ops import laplace_sphere

MONOTONICITY_TOL = 1e-10
SECOND_DERIVATIVE_REL_TOL = 1e-6
# Absolute fallback for profiles whose second derivative vanishes at the
# center: the O(h^6) truncation of the three-point fit stays below this.
SECOND_DERIVATIVE_ABS_TOL = 1e-8
MIN_QUADRATURE_ORDER = 8


class GrowthReport(NamedTuple):
    family: str
    center: tuple[float, float, float]
    radii: list[float]
    means: list[float]
    quadrature_order: int
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
    f: SphereFunction, center: Sequence[float], r: float, order: int
) -> float:
    """Mean of f over the geodesic circle of radius r about the center.

    Periodic trapezoid rule with ``order`` nodes; the integrand must stay away
    from the denominator's zero set, which callers guarantee by keeping the
    circle inside the working cap.
    """
    if f.m != 3:
        raise ValueError("spherical means are implemented on S^2 (ambient dim 3)")
    if order < MIN_QUADRATURE_ORDER:
        raise ValueError(f"quadrature order must be >= {MIN_QUADRATURE_ORDER}")
    if not 0 <= r < math.pi:
        raise ValueError(f"radius must lie in [0, pi), got {r}")
    (u0, u1, u2), (v0, v1, v2) = _orthonormal_frame(center)
    cr, sr = math.cos(r), math.sin(r)
    a0, a1, a2 = (cr * center[i] for i in range(3))
    evaluate = f.float_evaluator()
    total = 0.0
    for cp, sp in _circle_nodes(order):
        total += evaluate((
            a0 + sr * (cp * u0 + sp * v0),
            a1 + sr * (cp * u1 + sp * v1),
            a2 + sr * (cp * u2 + sp * v2),
        ))
    return total / order


@functools.lru_cache(maxsize=4)
def _circle_nodes(order: int) -> tuple[tuple[float, float], ...]:
    """(cos phi, sin phi) at the trapezoid angles phi = 2 pi k / order."""
    phis = (2.0 * math.pi * k / order for k in range(order))
    return tuple((math.cos(phi), math.sin(phi)) for phi in phis)


def check_mean_monotonicity(means: Sequence[float], tol: float = MONOTONICITY_TOL):
    """Nondecreasing within tol; returns (verdict, index of first violation or None)."""
    for i in range(len(means) - 1):
        if means[i + 1] < means[i] - tol:
            return False, i
    return True, None


def second_derivative_at_zero_fd(
    f: SphereFunction, center: Sequence[float], order: int, h: float = 0.04
) -> float:
    """Finite-difference second derivative of the mean profile at r = 0.

    The profile is even in r, so fit M(r) = M(0) + (A/2) r^2 + B r^4 + C r^6
    through radii h, 2h, 3h and return A; the truncation error is O(h^6).
    """
    m0 = f.evaluate_float(tuple(float(c) for c in center))
    radii = [h, 2.0 * h, 3.0 * h]
    values = [spherical_mean(f, center, r, order) for r in radii]
    # Solve the 3x3 Vandermonde-in-r^2 system for the r^2 coefficient.
    rows = [[r**2, r**4, r**6] for r in radii]
    rhs = [v - m0 for v in values]
    det = _det3(rows)
    replaced = [[rhs[i], rows[i][1], rows[i][2]] for i in range(3)]
    half_a = _det3(replaced) / det
    return 2.0 * half_a


def _det3(a):
    return (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )


def check_second_derivative_at_zero(
    f: SphereFunction,
    center: Sequence[float],
    order: int = 256,
    rel_tol: float = SECOND_DERIVATIVE_REL_TOL,
    abs_tol: float = SECOND_DERIVATIVE_ABS_TOL,
) -> tuple[bool, float, float]:
    """Compare the finite-difference M''(0) with half the exact Laplacian value.

    Returns (verdict, finite-difference value, exact reference value).
    """
    fd = second_derivative_at_zero_fd(f, center, order)
    exact_fn = laplace_sphere(f)
    exact = 0.5 * exact_fn.evaluate_float(tuple(float(c) for c in center))
    if exact == 0.0:
        return abs(fd) <= abs_tol, fd, exact
    return abs(fd - exact) <= rel_tol * abs(exact) + abs_tol, fd, exact


def analyze_growth(
    f: SphereFunction,
    family: str,
    center: Sequence[float],
    r_max: float,
    grid: int,
    order: int,
) -> GrowthReport:
    """Full growth report: mean profile, monotonicity, and M''(0) cross-check."""
    if grid < 2:
        raise ValueError(f"need at least 2 grid radii, got {grid}")
    if not 0 < r_max < math.pi:
        raise ValueError(f"r_max must lie in (0, pi), got {r_max}")
    radii = [r_max * (i + 1) / grid for i in range(grid)]
    means = [spherical_mean(f, center, r, order) for r in radii]
    monotone, violation = check_mean_monotonicity(means)
    ok, fd, exact = check_second_derivative_at_zero(f, center, order)
    return GrowthReport(
        family=family,
        center=tuple(float(c) for c in center),
        radii=radii,
        means=means,
        quadrature_order=order,
        monotone=monotone,
        first_violation=violation,
        second_derivative_fd=fd,
        second_derivative_exact=exact,
        second_derivative_ok=ok,
    )

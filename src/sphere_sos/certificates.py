"""Sum-of-squares certificates for powers of the Laplacian on h^2.

For a harmonic h the k-th spherical Laplacian power of h^2 equals
2^k times the sum of (X_w h)^2 over all length-k words w in the rotation
fields; every word term is again harmonic because the fields commute with the
Laplacian.  The same scheme with coordinate partials certifies the Euclidean
statement for harmonic polynomials.  Equality is verified exactly
(cross-multiplication in the quotient field) and nonnegativity is then
re-checked by exact rational sign tests at deterministic sample points.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable, Sequence

from .harmonics import HarmonicFunction
from .polynomials import (
    Polynomial,
    SphereFunction,
    laplace_euclid,
    sample_cap_points,
)
from .sphere_ops import apply_rotation_field, laplace_sphere, rotation_fields

DEFAULT_SAMPLE_COUNT = 200
DEFAULT_SEED = 20260809


@dataclass(frozen=True)
class SamplePoint:
    point: tuple[Fraction, ...]
    value: Fraction

    @property
    def nonnegative(self) -> bool:
        return self.value >= 0


@dataclass
class CertificateReport:
    """Outcome of verifying one (h, k) pair."""

    family: str
    k: int
    term_count: int
    expected_term_count: int
    equality_verified: bool
    terms_harmonic: bool
    samples: list[SamplePoint] = field(default_factory=list)
    seed: int = DEFAULT_SEED
    wall_time: float = 0.0

    @property
    def all_samples_nonnegative(self) -> bool:
        return all(s.nonnegative for s in self.samples)

    @property
    def passed(self) -> bool:
        return (
            self.equality_verified
            and self.terms_harmonic
            and self.term_count == self.expected_term_count
            and self.all_samples_nonnegative
        )


def delta_power(f: SphereFunction, k: int) -> SphereFunction:
    """k-fold spherical Laplacian, exact."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    for _ in range(k):
        f = laplace_sphere(f)
    return f


def certificate_words(m: int, k: int) -> list[tuple]:
    """All ordered length-k words over the m(m-1)/2 rotation fields.

    Full enumeration, no symmetry reduction; deterministic lexicographic order.
    """
    return list(product(rotation_fields(m), repeat=k))


def sos_certificate(h: HarmonicFunction, k: int) -> list[SphereFunction]:
    """Certificate terms X_w h for every length-k word w (first field applied first).

    Requires k >= 1; the k = 0 statement is just h^2 >= 0.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    terms = []
    # Reuse shared prefixes: terms for words agreeing on the first k-1 letters
    # differ only in the final application.
    cache: dict[tuple, SphereFunction] = {(): h.value}

    def term_for(word: tuple) -> SphereFunction:
        if word not in cache:
            cache[word] = apply_rotation_field(word[-1], term_for(word[:-1]))
        return cache[word]

    for word in certificate_words(h.m, k):
        terms.append(term_for(word))
    return terms


def _weighted_sum(squares: Sequence[SphereFunction], k: int) -> SphereFunction:
    """2^k times the sum of the squared terms, accumulated in word order."""
    if not squares:
        raise ValueError("certificate needs at least one term")
    total = None
    for sq in squares:
        total = sq if total is None else total + sq
    return total.scale(Fraction(2) ** k)


def _square_and_harmonicity(term: SphereFunction) -> tuple[SphereFunction, bool]:
    return term * term, laplace_sphere(term).is_zero()


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_ordered(fn: Callable, items: Sequence, workers: int) -> list:
    """Map preserving input order; uses a process pool when more than one
    worker is asked for.  The pool never outgrows the items or the usable
    CPUs, since the fork start method launches every worker up front."""
    workers = min(workers, len(items), _usable_cpus())
    if workers <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=max(1, len(items) // (4 * workers))))


def verify_certificate(
    h: HarmonicFunction,
    k: int,
    sample_count: int = DEFAULT_SAMPLE_COUNT,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> CertificateReport:
    """Exact equality of delta_power(h^2, k) with its certificate, plus signs.

    k = 0 degenerates to the single empty word with term h itself.  An
    equality failure or a negative sample is recorded in the report, never
    dropped.  Per-term squaring and harmonicity checks may run on ``workers``
    processes; the reduction is always in canonical word order, so reports do
    not depend on the worker count.
    """
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    start = time.perf_counter()
    expected = (h.m * (h.m - 1) // 2) ** k
    square = h.value * h.value
    lhs = delta_power(square, k)
    terms = [h.value] if k == 0 else sos_certificate(h, k)
    per_term = _map_ordered(_square_and_harmonicity, terms, workers)
    rhs = square if k == 0 else _weighted_sum([sq for sq, _ in per_term], k)
    equality = lhs == rhs
    terms_harmonic = all(flag for _, flag in per_term)
    samples = [
        SamplePoint(point=pt, value=lhs.evaluate(pt))
        for pt in sample_cap_points(sample_count, seed)
    ]
    return CertificateReport(
        family=h.provenance,
        k=k,
        term_count=len(terms),
        expected_term_count=expected,
        equality_verified=equality,
        terms_harmonic=terms_harmonic,
        samples=samples,
        seed=seed,
        wall_time=time.perf_counter() - start,
    )


# ----------------------------------------------------------------------
# Euclidean baseline
# ----------------------------------------------------------------------


@dataclass
class EuclideanCertificateReport:
    k: int
    term_count: int
    equality_verified: bool
    samples: list[SamplePoint] = field(default_factory=list)

    @property
    def all_samples_nonnegative(self) -> bool:
        return all(s.nonnegative for s in self.samples)

    @property
    def passed(self) -> bool:
        return self.equality_verified and self.all_samples_nonnegative


def euclid_delta_power(p: Polynomial, k: int) -> Polynomial:
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    for _ in range(k):
        p = laplace_euclid(p)
    return p


def euclid_certificate(p: Polynomial, k: int, grid: int = 5) -> EuclideanCertificateReport:
    """Certificate for the Euclidean power statement on a harmonic polynomial.

    Checks laplace_euclid^k (p^2) == 2^k * sum over length-k words in the
    coordinate partials of (d_w p)^2, exactly, then sign-tests the left side
    on a rational grid in [-1, 1]^m.
    """
    if not laplace_euclid(p).is_zero():
        raise ValueError("euclid_certificate needs a Euclidean-harmonic polynomial")
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    m = p.m
    lhs = euclid_delta_power(p * p, k)
    if k == 0:
        terms = [p]
    else:
        terms = []
        for word in product(range(1, m + 1), repeat=k):
            q = p
            for index in word:
                q = q.partial(index)
            terms.append(q)
    rhs = Polynomial.zero(m)
    for t in terms:
        rhs = rhs + t * t
    rhs = rhs.scale(Fraction(2) ** k)
    samples = []
    steps = [Fraction(2 * i, grid - 1) - 1 for i in range(grid)] if grid > 1 else [Fraction(0)]
    for pt in product(steps, repeat=m):
        samples.append(SamplePoint(point=tuple(pt), value=lhs.evaluate(pt)))
    return EuclideanCertificateReport(
        k=k,
        term_count=len(terms),
        equality_verified=lhs == rhs,
        samples=samples,
    )

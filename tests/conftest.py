import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from sphere_sos.polynomials import Polynomial, SphereFunction, SpherePolynomial


def random_polynomial(
    rng: random.Random,
    m: int,
    max_degree: int = 3,
    max_terms: int = 4,
    coeff_bound: int = 6,
) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * m
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(m)] += 1
        c = rng.randint(-coeff_bound, coeff_bound)
        if c:
            terms[tuple(exps)] = Fraction(c)
    return Polynomial(m, terms)


def random_sphere_function(rng: random.Random, m: int = 3) -> SphereFunction:
    """Random quotient with a denominator that cannot vanish on the sphere."""
    num = SpherePolynomial(random_polynomial(rng, m))
    base = SpherePolynomial(Polynomial.constant(m, 3) - Polynomial.variable(m, m))
    return SphereFunction._make(num, base, rng.randint(0, 2))


@pytest.fixture
def rng():
    return random.Random(12345)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace ProcessPoolExecutor by a serial stand-in; the list it returns
    collects the max_workers of every pool asked for.  No process starts."""
    import concurrent.futures

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return sizes

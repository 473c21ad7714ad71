"""Exact sum-of-squares certificates for spherical Laplacian powers.

The package verifies, in exact rational arithmetic, that every iterated
spherical Laplacian of the square of a harmonic function is itself a weighted
sum of squares of harmonic functions (hence nonnegative), and provides the
Lie-algebra machinery that explains why: the Laplacian of the sphere, and of
any normal homogeneous compact space, is the realization of a Casimir element
as a sum of squares of flow-generating vector fields.
"""

from .polynomials import (
    Polynomial,
    SphereFunction,
    SpherePolynomial,
    euler_operator,
    laplace_euclid,
)
from .sphere_ops import (
    RotationField,
    apply_rotation_field,
    check_spherical_eigenvalue,
    check_sum_of_squares_identity,
    generate_harmonic_basis,
    laplace_sphere,
    rotation_fields,
)
from .harmonics import (
    CapDomain,
    HarmonicFunction,
    HarmonicityError,
    euclidean_harmonic,
    planar_combination,
    stereographic_harmonic,
)
from .certificates import (
    CertificateReport,
    delta_power,
    euclid_certificate,
    sos_certificate,
    verify_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "CapDomain",
    "CertificateReport",
    "HarmonicFunction",
    "HarmonicityError",
    "Polynomial",
    "RotationField",
    "SphereFunction",
    "SpherePolynomial",
    "apply_rotation_field",
    "check_spherical_eigenvalue",
    "check_sum_of_squares_identity",
    "delta_power",
    "euclid_certificate",
    "euclidean_harmonic",
    "euler_operator",
    "generate_harmonic_basis",
    "laplace_euclid",
    "laplace_sphere",
    "planar_combination",
    "rotation_fields",
    "sos_certificate",
    "stereographic_harmonic",
    "verify_certificate",
]

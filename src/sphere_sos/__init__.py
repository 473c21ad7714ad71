"""Exact sum-of-squares certificates for spherical Laplacian powers.

The package verifies, in exact rational arithmetic, that every iterated
spherical Laplacian of the square of a harmonic function is itself a weighted
sum of squares of harmonic functions (hence nonnegative), and provides the
Lie-algebra machinery that explains why: the Laplacian of the sphere, and of
any normal homogeneous compact space, is the realization of a Casimir element
as a sum of squares of flow-generating vector fields.

Importing the package registers every submodule in ``sys.modules`` without
running it: a submodule's source is compiled and executed on its first
attribute access, so a command pays only for the layers it uses.  The public
names below resolve through their submodule on first use.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def _lazy(name: str):
    """Register ``sphere_sos.<name>`` as a module that loads on first use."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


linalg, polynomials, sphere_ops, harmonics, certificates, growth, lie, realization = map(
    _lazy,
    ("linalg", "polynomials", "sphere_ops", "harmonics", "certificates", "growth", "lie",
     "realization"),
)

# Public name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        (polynomials, "Polynomial SphereFunction SpherePolynomial euler_operator laplace_euclid"),
        (sphere_ops, "RotationField apply_rotation_field generate_harmonic_basis laplace_sphere "
                     "rotation_fields"),
        (harmonics, "CapDomain HarmonicFunction HarmonicityError custom_harmonic "
                    "euclidean_harmonic planar_combination stereographic_harmonic"),
        (certificates, "CertificateReport delta_power euclid_certificate verify_certificate"),
    )
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_EXPORTS[name], name)

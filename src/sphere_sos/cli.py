"""Batch command-line front end.

Subcommands emit deterministic JSON (and CSV for growth curves): identical
configurations produce byte-identical reports, so the outputs can be used as
golden files in CI.  Exit codes: 0 all verdicts pass, 1 a mathematical
verdict was falsified, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import __version__
from .certificates import (
    DEFAULT_SAMPLE_COUNT,
    DEFAULT_SEED,
    CertificateReport,
    verify_certificate,
)
from .growth import analyze_growth
from .harmonics import HarmonicFunction, stereographic_harmonic
from .lie import (
    ad_invariance_witness,
    casimir_element,
    killing_form,
    natural_reductivity_witness,
    orthogonal_decomposition,
    perturbed_form,
    so_algebra,
    so_subalgebra_fixing_last_axis,
    su2_algebra,
    su2_round_form,
    trace_form,
)
from .polynomials import Polynomial, SphereFunction, SpherePolynomial
from .realization import (
    su2_fields,
    sum_of_field_squares,
    verify_commutation_theorem,
    verify_group_case_identity,
    verify_lap_eq_casimir,
)
from .sphere_ops import generate_harmonic_basis

EXIT_PASS = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2

SCHEMA_VERSION = 1

WORKERS_ENV_VAR = "SPHERE_SOS_WORKERS"

IDENTITY_CASES = (
    "so3",
    "so4",
    "so5",
    "so3-over-so2",
    "so4-over-so3",
    "so5-over-so4",
    "su2-group",
)

NON_SUBHARMONIC_CONTROL = "control:equator-band"


class UsageError(ValueError):
    """Raised for invalid configurations; mapped to exit code 2."""


# ----------------------------------------------------------------------
# family descriptors
# ----------------------------------------------------------------------


def resolve_harmonic(descriptor: str) -> HarmonicFunction:
    """Parse ``stereo:k=K:re|im``, the certified harmonic pullbacks."""
    parts = descriptor.split(":")
    if len(parts) == 3 and parts[0] == "stereo" and parts[1].startswith("k="):
        try:
            k = int(parts[1][2:])
        except ValueError:
            raise UsageError(f"bad family descriptor {descriptor!r}") from None
        if k < 0 or parts[2] not in ("re", "im"):
            raise UsageError(f"bad family descriptor {descriptor!r}")
        return stereographic_harmonic(k, parts[2])
    raise UsageError(f"unknown harmonic family {descriptor!r}")


def resolve_family(descriptor: str) -> tuple[SphereFunction, str]:
    """Map a family descriptor to (function, canonical descriptor): a harmonic
    family, or the non-subharmonic control, a named negative case for the
    growth checker."""
    if descriptor == NON_SUBHARMONIC_CONTROL:
        x3 = SpherePolynomial.variable(3, 3)
        return SphereFunction.from_polynomial(SpherePolynomial.one(3) - x3 * x3), descriptor
    h = resolve_harmonic(descriptor)
    return h.value, h.provenance


# ----------------------------------------------------------------------
# report plumbing
# ----------------------------------------------------------------------


def _dump_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _dump_csv(radii, means, path: str | None) -> None:
    lines = ["r,mean"]
    lines += [f"{r!r},{m!r}" for r, m in zip(radii, means)]
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _certificate_payload(report: CertificateReport, config: dict, timings: bool) -> dict:
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "certify",
        "config": config,
        "family": report.family,
        "k": report.k,
        "term_count": report.term_count,
        "expected_term_count": report.expected_term_count,
        "equality_verified": report.equality_verified,
        "terms_harmonic": report.terms_harmonic,
        "all_samples_nonnegative": report.all_samples_nonnegative,
        "seed": report.seed,
        "samples": [
            {
                "point": [str(c) for c in s.point],
                "value": str(s.value),
                "nonnegative": s.nonnegative,
            }
            for s in report.samples
        ],
        "passed": report.passed,
    }
    if timings:
        payload["wall_time_seconds"] = report.wall_time
    return payload


def _resolve_workers(flag_value: int) -> int:
    env = os.environ.get(WORKERS_ENV_VAR)
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise UsageError(f"{WORKERS_ENV_VAR} must be an integer, got {env!r}") from None
    else:
        value = flag_value
    if value < 1:
        raise UsageError(f"worker count must be >= 1, got {value}")
    return value


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_certify(args) -> int:
    workers = _resolve_workers(args.workers)
    config = {
        "family": args.family,
        "power": args.power,
        "samples": args.samples,
        "seed": args.seed,
        "workers": workers,
    }
    if args.power < 0:
        raise UsageError(f"power must be >= 0, got {args.power}")
    if args.samples < 1:
        raise UsageError(f"sample count must be >= 1, got {args.samples}")
    h = resolve_harmonic(args.family)
    report = verify_certificate(
        h,
        args.power,
        sample_count=args.samples,
        seed=args.seed,
        workers=workers,
    )
    _dump_json(_certificate_payload(report, config, args.timings), args.output)
    return EXIT_PASS if report.passed else EXIT_FALSIFIED


def _format_witness(labels, witness):
    if witness is None:
        return None
    return [labels[t] for t in witness]


def _identity_suite(case: str, form_kind: str) -> list[dict]:
    """Verdict list for one named case; each entry has name/passed/witness."""
    results: list[dict] = []

    def record(name: str, passed: bool, witness=None, detail=None):
        entry = {"name": name, "passed": bool(passed)}
        if witness is not None:
            entry["witness"] = witness
        if detail is not None:
            entry["detail"] = detail
        results.append(entry)

    if case == "su2-group":
        m, algebra, invariant = 4, su2_algebra(), su2_round_form()
    else:
        m = int(case[2])
        algebra, invariant = so_algebra(m), trace_form(m)
    if form_kind == "trace":
        form = invariant
    elif form_kind == "killing":
        # The Killing form of a compact simple algebra is negative definite;
        # its negative is a positive Ad-invariant form, a scalar multiple of
        # the invariant one.
        form = killing_form(algebra).scale(-1)
    elif form_kind == "perturbed":
        form = perturbed_form(invariant)
    else:
        raise UsageError(f"unknown form {form_kind!r}")

    record("jacobi", algebra.check_jacobi())
    record("antisymmetry", algebra.check_antisymmetry())
    witness = ad_invariance_witness(algebra, form)
    record(
        "ad_invariance",
        witness is None,
        witness=_format_witness(algebra.labels, witness),
    )
    record("positive_definite", form.is_positive_definite())

    if case == "su2-group":
        record("group_sum_of_squares_equals_laplacian", verify_group_case_identity())
        vi, vj, vk = su2_fields()
        x1 = SphereFunction.from_polynomial(SpherePolynomial.variable(4, 1))
        x1x3 = SphereFunction.from_polynomial(
            SpherePolynomial.variable(4, 1) * SpherePolynomial.variable(4, 3)
        )
        record(
            "spot_eigenvalue_degree_1",
            sum_of_field_squares((vi, vj, vk), x1) == x1.scale(-3),
        )
        record(
            "spot_eigenvalue_degree_2",
            sum_of_field_squares((vi, vj, vk), x1x3) == x1x3.scale(-8),
        )
        if form_kind == "trace":
            casimir = casimir_element(algebra, form)
            record(
                "laplacian_equals_projected_casimir",
                verify_lap_eq_casimir(casimir, m, algebra="su2"),
            )
        return results

    casimir = None
    if witness is None:
        casimir = casimir_element(algebra, form)
        # A scaled invariant form rescales the projected Casimir inversely.
        scale = Fraction(1)
        if form_kind == "killing":
            scale = Fraction(1, 2 * (m - 2))
        record(
            "laplacian_equals_projected_casimir",
            verify_lap_eq_casimir(casimir, m, scale=scale),
            detail=None if scale == 1 else f"operator scale {scale}",
        )

    if case.endswith(f"over-so{m - 1}"):
        sub = so_subalgebra_fixing_last_axis(m)
        if form.is_positive_definite():
            dec = orthogonal_decomposition(algebra, sub, form)
            record("reductive_decomposition", True, detail=f"dim m = {len(dec.complement_basis)}")
            nr_witness = natural_reductivity_witness(dec)
            record(
                "natural_reductivity",
                nr_witness is None,
                witness=list(nr_witness) if nr_witness is not None else None,
            )
            if casimir is not None:
                verdicts = verify_commutation_theorem(
                    casimir,
                    m,
                    complement_coords=dec.complement_basis,
                    full_coords=[algebra.basis_vector(i) for i in range(algebra.dim)],
                )
                record("casimir_commutes_with_complement_fields", verdicts["complement"])
                record("casimir_commutes_with_all_fields", verdicts["full_algebra"])
        else:
            record("reductive_decomposition", False, detail="form not positive definite")
    return results


def _case_from_algebra_flags(algebra: str, subalgebra: str | None) -> str:
    """Translate --algebra/--subalgebra selectors into a named case."""
    if algebra == "su2":
        if subalgebra:
            raise UsageError("su2 ships only as the group case (no subalgebra)")
        return "su2-group"
    if algebra.startswith("so:"):
        try:
            m = int(algebra[3:])
        except ValueError:
            raise UsageError(f"bad algebra selector {algebra!r}") from None
        if subalgebra is None:
            case = f"so{m}"
        elif subalgebra == f"so:{m - 1}":
            case = f"so{m}-over-so{m - 1}"
        else:
            raise UsageError(
                f"subalgebra {subalgebra!r} not shipped for so:{m} "
                f"(expected so:{m - 1})"
            )
        if case in IDENTITY_CASES:
            return case
        raise UsageError(f"algebra so:{m} is outside the shipped range 3..5")
    raise UsageError(f"unknown algebra selector {algebra!r}")


def cmd_verify_identities(args) -> int:
    case = args.case
    if case is None:
        if args.algebra is None:
            raise UsageError("give either --case or --algebra")
        case = _case_from_algebra_flags(args.algebra, args.subalgebra)
    elif args.algebra is not None:
        raise UsageError("--case and --algebra are mutually exclusive")
    if case not in IDENTITY_CASES:
        raise UsageError(f"unknown case {case!r} (choose from {', '.join(IDENTITY_CASES)})")
    if args.form not in ("trace", "killing", "perturbed"):
        raise UsageError(f"unknown form {args.form!r}")
    results = _identity_suite(case, args.form)
    all_passed = all(r["passed"] for r in results)
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "verify-identities",
        "config": {"case": case, "form": args.form},
        "identities": results,
        "all_passed": all_passed,
    }
    _dump_json(payload, args.output)
    return EXIT_PASS if all_passed else EXIT_FALSIFIED


def _resolve_center(text: str) -> tuple[float, float, float]:
    if text == "south":
        return (0.0, 0.0, -1.0)
    try:
        coords = tuple(float(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"bad center {text!r}") from None
    if len(coords) != 3:
        raise UsageError("center needs three comma-separated coordinates")
    if not all(math.isfinite(c) for c in coords):
        raise UsageError(f"center coordinates must be finite, got {text!r}")
    if abs(sum(c * c for c in coords) - 1.0) > 1e-12:
        raise UsageError("center must lie on the unit sphere")
    return coords


WORKING_CAP_RADIUS = 3.0  # default cap about the south pole; keeps 1 - x3 bounded below


def cmd_growth(args) -> int:
    value, descriptor = resolve_family(args.family)
    center = _resolve_center(args.center)
    if args.grid < 2:
        raise UsageError(f"grid must have at least 2 radii, got {args.grid}")
    if args.quad < 8:
        raise UsageError(f"quadrature order must be >= 8, got {args.quad}")
    if not (math.isfinite(args.rmax) and args.rmax > 0):
        raise UsageError(f"rmax must be positive and finite, got {args.rmax}")
    center_offset = math.acos(max(-1.0, min(1.0, -center[2])))
    if center_offset + args.rmax > WORKING_CAP_RADIUS:
        raise UsageError(
            "geodesic circles of radius rmax about this center leave the working cap"
        )
    squared = value * value
    try:
        report = analyze_growth(
            squared, descriptor, center, args.rmax, args.grid, args.quad
        )
    except ZeroDivisionError:
        raise UsageError("geodesic circle leaves the function's domain") from None
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "growth",
        "config": {
            "family": descriptor,
            "center": args.center,
            "rmax": args.rmax,
            "grid": args.grid,
            "quad": args.quad,
        },
        "center": list(report.center),
        "radii": report.radii,
        "means": report.means,
        "monotone": report.monotone,
        "first_violation_index": report.first_violation,
        "second_derivative_fd": report.second_derivative_fd,
        "second_derivative_exact": report.second_derivative_exact,
        "second_derivative_ok": report.second_derivative_ok,
        "passed": report.passed,
    }
    _dump_json(payload, args.output)
    _dump_csv(report.radii, report.means, args.csv)
    return EXIT_PASS if report.passed else EXIT_FALSIFIED


def cmd_gen_harmonic(args) -> int:
    if args.ambient_dim < 2:
        raise UsageError(f"ambient dimension must be >= 2, got {args.ambient_dim}")
    if args.degree < 0:
        raise UsageError(f"degree must be >= 0, got {args.degree}")
    basis = generate_harmonic_basis(args.ambient_dim, args.degree)
    lines = [str(p) for p in basis]
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w") as fh:
            fh.write(text)
    return EXIT_PASS


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphere-sos",
        description="Exact sum-of-squares certificates for spherical Laplacian powers",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="verify the certificate for one family member")
    p.add_argument("--family", required=True, help="e.g. stereo:k=2:re")
    p.add_argument("--power", type=int, required=True, help="Laplacian power k")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLE_COUNT)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--timings", action="store_true", help="include wall-clock times")
    p.add_argument("--output", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("verify-identities", help="run a named identity suite")
    p.add_argument("--case", default=None, help=", ".join(IDENTITY_CASES))
    p.add_argument("--algebra", default=None, help="so:M (3..5) or su2; alternative to --case")
    p.add_argument("--subalgebra", default=None, help="so:K with K = M-1")
    p.add_argument("--form", default="trace", help="trace | killing | perturbed")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_verify_identities)

    p = sub.add_parser("growth", help="spherical-mean growth analysis")
    p.add_argument("--family", required=True)
    p.add_argument("--center", default="south", help='"south" or x,y,z on the sphere')
    p.add_argument("--rmax", type=float, default=1.2)
    p.add_argument("--grid", type=int, default=40)
    p.add_argument("--quad", type=int, default=256)
    p.add_argument("--csv", default=None, help="write the (r, mean) curve here")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("gen-harmonic", help="print an exact harmonic basis")
    p.add_argument("--ambient-dim", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_gen_harmonic)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        # I/O faults are configuration problems, never mathematical verdicts.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

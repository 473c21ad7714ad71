"""Batch command-line front end.

Subcommands emit deterministic JSON (and CSV for growth curves): identical
configurations produce byte-identical reports, so the outputs can be used as
golden files in CI.  Exit codes: 0 all verdicts pass, 1 a mathematical
verdict was falsified, 2 usage or validation error, 3 an engine fault (an
internal exact check failed, which is a bug and never a verdict).

Each input bound is checked once, by the library function that reads the
input; the commands parse text and map the library's errors to exit codes.
Only ``--workers``, which no library function reads, is bounded here.

``verify-identities`` is driven by one table, ``IDENTITY_CASES``: each case
names its sphere, its realization and whether it splits off so(m-1), and one
pass over the verdicts serves every case; ``--case`` is the only selector.
Under a form other than the invariant one, the expected Laplacian scale is
read off the two forms.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import (__version__, certificates, growth, harmonics, lie, linalg, quotients, realization,
               sphere_ops)
from .polynomials import DEFAULT_SAMPLE_COUNT, DEFAULT_SEED, SpherePolynomial

EXIT_PASS = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2
EXIT_ENGINE_FAULT = 3

SCHEMA_VERSION = 1

# The one table of identity cases: name -> (m, realization on S^{m-1},
# whether the case splits off the subalgebra so(m-1)).  "so" realizes so(m)
# by rotation fields; "su2" realizes su(2) by the quaternionic fields on S^3.
IDENTITY_CASES = {
    "so3": (3, "so", False),
    "so4": (4, "so", False),
    "so5": (5, "so", False),
    "so3-over-so2": (3, "so", True),
    "so4-over-so3": (4, "so", True),
    "so5-over-so4": (5, "so", True),
    "su2-group": (4, "su2", False),
}

IDENTITY_FORMS = ("trace", "killing", "perturbed")

# Each command's negative control, a family its checker must reject:
# x3 is not harmonic (certify), 1 - x3^2 is not subharmonic (growth).
NON_HARMONIC_CONTROL = "control:x3"
NON_SUBHARMONIC_CONTROL = "control:equator-band"


class UsageError(ValueError):
    """Raised for invalid configurations; mapped to exit code 2."""


# ----------------------------------------------------------------------
# family descriptors
# ----------------------------------------------------------------------


def resolve_family(descriptor: str, control: str) -> harmonics.HarmonicFunction:
    """Parse ``stereo:k=K:re|im``, the certified harmonic pullbacks, or the
    calling command's negative control ``control``, which is wrapped on the
    default cap without the harmonicity proof."""
    if descriptor == control:
        x3 = SpherePolynomial.variable(3, 3)
        value = x3 if control == NON_HARMONIC_CONTROL else SpherePolynomial.one(3) - x3 * x3
        return harmonics.HarmonicFunction(
            value=quotients.SphereFunction.from_polynomial(value),
            domain=harmonics.CapDomain(),
            provenance=descriptor,
        )
    parts = descriptor.split(":")
    if len(parts) == 3 and parts[0] == "stereo" and parts[1].startswith("k="):
        # K in canonical ASCII decimal, so the descriptor echoed in a report
        # is the one the family reports as its provenance.
        k = parts[1][2:]
        if not re.fullmatch("0|[1-9][0-9]*", k) or parts[2] not in ("re", "im"):
            raise UsageError(f"bad family descriptor {descriptor!r}")
        try:
            return harmonics.stereographic_harmonic(int(k), parts[2])
        except harmonics.HarmonicityError as exc:
            # A built-in family that fails its own check is an engine bug.
            raise linalg.EngineFault(str(exc)) from exc
    raise UsageError(f"unknown harmonic family {descriptor!r}")


# ----------------------------------------------------------------------
# report plumbing
# ----------------------------------------------------------------------


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _dump_json(payload: dict, path: str | None) -> None:
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", path)


def _dump_csv(radii, means, path: str | None) -> None:
    lines = ["r,mean"] + [f"{r!r},{m!r}" for r, m in zip(radii, means)]
    _write("\n".join(lines) + "\n", path)


def _certificate_payload(
    report: certificates.CertificateReport, config: dict, timings: bool
) -> dict:
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
        payload["span_dimension"] = report.span_dimension
        payload["square_count"] = report.square_count
    return payload


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_certify(args) -> int:
    config = {
        "family": args.family,
        "power": args.power,
        "samples": args.samples,
        "seed": args.seed,
        "workers": args.workers,
    }
    if args.workers < 1:
        raise UsageError(f"worker count must be >= 1, got {args.workers}")
    h = resolve_family(args.family, NON_HARMONIC_CONTROL)
    report = certificates.verify_certificate(
        h,
        args.power,
        sample_count=args.samples,
        seed=args.seed,
    )
    _dump_json(_certificate_payload(report, config, args.timings), args.output)
    return EXIT_PASS if report.passed else EXIT_FALSIFIED


def _identity_case(case: str):
    """(realization kind, algebra, invariant form, basis images on S^{m-1},
    subalgebra basis or None) of a named case; the projected Casimir of the
    invariant form is exactly the round Laplacian of S^{m-1}."""
    m, kind, splits = IDENTITY_CASES[case]
    if kind == "su2":
        algebra, invariant = lie.su2_algebra(), lie.su2_round_form()
        images = realization.su2_realization()
    else:
        algebra, invariant = lie.so_algebra(m), lie.trace_form(m)
        images = realization.so_realization(m)
    subalgebra = lie.so_subalgebra_fixing_last_axis(m) if splits else None
    return kind, algebra, invariant, images, subalgebra


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

    kind, algebra, invariant, images, subalgebra = _identity_case(case)
    if form_kind == "trace":
        form = invariant
    elif form_kind == "killing":
        # The Killing form of a compact simple algebra is negative definite;
        # its negative is a positive Ad-invariant form, a scalar multiple of
        # the invariant one.
        form = lie.killing_form(algebra).scale(-1)
    else:
        form = lie.perturbed_form(invariant)

    record("jacobi", algebra.check_jacobi())
    record("antisymmetry", algebra.check_antisymmetry())
    witness = lie.ad_invariance_witness(algebra, form)
    record(
        "ad_invariance",
        witness is None,
        witness=None if witness is None else [algebra.labels[t] for t in witness],
    )
    positive = form.is_positive_definite()
    record("positive_definite", positive)

    if kind == "su2":
        record("group_sum_of_squares_equals_laplacian", realization.verify_group_case_identity())
        squares = realization.ProjectedCasimir.of_squares(realization.su2_fields())
        x1, x3 = SpherePolynomial.variable(4, 1), SpherePolynomial.variable(4, 3)
        for d, p in ((1, x1), (2, x1 * x3)):
            # A degree-d harmonic on S^3 has Laplacian eigenvalue -d(d + 2).
            record(f"spot_eigenvalue_degree_{d}", squares(p) == p.scale(-d * (d + 2)))

    casimir = None
    if witness is None:
        casimir = lie.casimir_element(algebra, form)
        # form = c * invariant rescales the projected Casimir by 1/c.  A wrong
        # c cannot pass: the comparison below is exact.
        scale = Fraction(invariant.matrix[0][0], form.matrix[0][0])
        record(
            "laplacian_equals_projected_casimir",
            realization.verify_lap_eq_casimir(casimir, images, scale=scale),
            detail=None if scale == 1 else f"operator scale {scale}",
        )

    if subalgebra is not None:
        if positive:
            dec = lie.orthogonal_decomposition(algebra, subalgebra, form)
            record("reductive_decomposition", True, detail=f"dim m = {len(dec.complement_basis)}")
            nr_witness = lie.natural_reductivity_witness(dec)
            record(
                "natural_reductivity",
                nr_witness is None,
                witness=list(nr_witness) if nr_witness is not None else None,
            )
            if casimir is not None:
                verdicts = realization.verify_commutation_theorem(
                    casimir, images, dec.complement_basis
                )
                record("casimir_commutes_with_complement_fields", verdicts["complement"])
                record("casimir_commutes_with_all_fields", verdicts["full_algebra"])
        else:
            record("reductive_decomposition", False, detail="form not positive definite")
    return results


def cmd_verify_identities(args) -> int:
    if args.case not in IDENTITY_CASES:
        raise UsageError(f"unknown case {args.case!r} (choose from {', '.join(IDENTITY_CASES)})")
    if args.form not in IDENTITY_FORMS:
        raise UsageError(f"unknown form {args.form!r}")
    results = _identity_suite(args.case, args.form)
    all_passed = all(r["passed"] for r in results)
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "verify-identities",
        "config": {"case": args.case, "form": args.form},
        "identities": results,
        "all_passed": all_passed,
    }
    _dump_json(payload, args.output)
    return EXIT_PASS if all_passed else EXIT_FALSIFIED


def _parse_center(text: str) -> tuple[float, ...]:
    """The center named "south", or the floats of x,y,z; growth checks it."""
    if text == "south":
        return (0.0, 0.0, -1.0)
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"bad center {text!r}") from None


def cmd_growth(args) -> int:
    h = resolve_family(args.family, NON_SUBHARMONIC_CONTROL)
    center = _parse_center(args.center)
    report = growth.analyze_growth(h, center, args.rmax, args.grid, args.quad)
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "growth",
        "config": {
            "family": h.provenance,
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
    basis = sphere_ops.generate_harmonic_basis(args.ambient_dim, args.degree)
    lines = [str(p) for p in basis]
    _write("\n".join(lines) + ("\n" if lines else ""), args.output)
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
    p.add_argument(
        "--family", required=True, help=f"e.g. stereo:k=2:re, or {NON_HARMONIC_CONTROL}"
    )
    p.add_argument("--power", type=int, required=True, help="Laplacian power k")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLE_COUNT)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--workers", type=int, default=1, help="checked and echoed; runs in one process")
    p.add_argument("--timings", action="store_true", help="include wall-clock times")
    p.add_argument("--output", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("verify-identities", help="run a named identity suite")
    p.add_argument("--case", required=True, help=", ".join(IDENTITY_CASES))
    p.add_argument("--form", default="trace", help=" | ".join(IDENTITY_FORMS))
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
    except (ValueError, OSError) as exc:
        # Rejected inputs (a degree past the kernel's limit too) are never verdicts.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except linalg.EngineFault as exc:
        print(f"error: engine fault: {exc}", file=sys.stderr)
        return EXIT_ENGINE_FAULT


if __name__ == "__main__":
    sys.exit(main())

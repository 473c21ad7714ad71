"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Exact criteria use zero tolerance (rational equality or rational sign tests);
the numeric growth criterion uses its stated floating-point tolerances.
Runtime bounds are asserted where stated.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from sphere_sos.certificates import (
    delta_power,
    verify_certificate,
)
from sphere_sos.cli import main as cli_main
from sphere_sos.growth import analyze_growth
from sphere_sos.harmonics import stereographic_harmonic
from sphere_sos.lie import (
    ad_invariance_witness,
    casimir_element,
    natural_reductivity_witness,
    orthogonal_decomposition,
    perturbed_form,
    so_algebra,
    so_subalgebra_fixing_last_axis,
    su2_algebra,
    su2_round_form,
    trace_form,
)
from sphere_sos.polynomials import (
    Polynomial,
    SphereFunction,
    SpherePolynomial,
    sample_cap_points,
)
from sphere_sos.realization import (
    ProjectedCasimir,
    projected_casimir,
    so_realization,
    su2_fields,
    verify_commutation_theorem,
    verify_group_case_identity,
    verify_lap_eq_casimir,
)
from sphere_sos.sphere_ops import generate_harmonic_basis, laplace_sphere

from conftest import random_polynomial
from oracles import (
    check_spherical_eigenvalue,
    check_sum_of_squares_identity,
    commutation_by_fields,
    standard_test_suite,
)

FAMILY = [
    (k, part)
    for k in range(5)
    for part in ("re", "im")
    if not (k == 0 and part == "im")  # Im(w^0) = 0; keep one constant member
]


def report(criterion: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion:2d}] {status}: {detail}")
    assert passed, f"criterion {criterion} failed: {detail}"


def test_criterion_01_raw_operator_identity():
    start = time.perf_counter()
    checked = 0
    for m in (3, 4, 5):
        rng = random.Random(1000 + m)
        for _ in range(100):
            p = random_polynomial(rng, m, max_degree=5, max_terms=5)
            assert check_sum_of_squares_identity(p), (m, str(p))
            checked += 1
    elapsed = time.perf_counter() - start
    report(
        1,
        checked == 300 and elapsed < 10.0,
        f"sum of rotation-field squares identity on {checked} random polynomials "
        f"(m in 3..5, degree <= 5) in {elapsed:.2f}s (< 10s)",
    )


def test_criterion_02_eigenvalue_oracle():
    start = time.perf_counter()
    checked = 0
    for m in (3, 4):
        for d in range(5):
            for p in generate_harmonic_basis(m, d):
                assert check_spherical_eigenvalue(p), (m, d, str(p))
                checked += 1
    elapsed = time.perf_counter() - start
    report(
        2,
        elapsed < 30.0,
        f"spherical eigenvalue -l(l+m-2) exact on {checked} harmonic basis "
        f"elements (m in 3..4, degree <= 4) in {elapsed:.2f}s (< 30s)",
    )


def test_criterion_03_family_harmonicity():
    start = time.perf_counter()
    checked = 0
    for k in range(7):
        for part in ("re", "im"):
            h = stereographic_harmonic(k, part)
            assert laplace_sphere(h.value).is_zero(), (k, part)
            checked += 1
    elapsed = time.perf_counter() - start
    report(
        3,
        elapsed < 10.0,
        f"exact harmonicity of {checked} stereographic members (k <= 6, re/im) "
        f"in {elapsed:.2f}s (< 10s)",
    )


@pytest.fixture(scope="module")
def certificate_runs():
    """Shared by criteria 4 and 5: exact verification for the family grid."""
    runs = {}
    start = time.perf_counter()
    for k_family, part in FAMILY:
        h = stereographic_harmonic(k_family, part)
        for power in (1, 2, 3):
            runs[(k_family, part, power)] = verify_certificate(
                h, power, sample_count=200
            )
    elapsed = time.perf_counter() - start
    return runs, elapsed


def test_criterion_04_certificate_equality(certificate_runs):
    runs, elapsed = certificate_runs
    ok = True
    for (k_family, part, power), rep in runs.items():
        ok &= rep.equality_verified
        ok &= rep.terms_harmonic
        ok &= rep.term_count == rep.expected_term_count == 3**power
    report(
        4,
        ok and elapsed < 300.0,
        f"certificate equality delta^k(h^2) = 2^k sum (X_w h)^2 and exact term "
        f"harmonicity for {len(runs)} (family, power) pairs in {elapsed:.2f}s (< 5min)",
    )


def test_criterion_05_sampled_nonnegativity(certificate_runs):
    runs, _ = certificate_runs
    ok = True
    total = 0
    for rep in runs.values():
        assert len(rep.samples) == 200
        for s in rep.samples:
            ok &= isinstance(s.value, Fraction) and s.value >= 0
            total += 1
    report(
        5,
        ok,
        f"{total} exact rational sign tests (200 deterministic cap points per "
        f"pair), zero tolerance, all nonnegative",
    )


def test_criterion_06_euclidean_baseline():
    x1, x2 = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
    p = x1**2 - x2**2
    sq = p * p
    specific = (
        delta_power(sq, 1) == 8 * (x1**2 + x2**2)
        and delta_power(sq, 2) == Polynomial.constant(2, 32)
        and delta_power(sq, 3).is_zero()
    )
    general = True
    from sphere_sos.certificates import euclid_certificate

    for m in (2, 3):
        for d in range(4):
            for q in generate_harmonic_basis(m, d):
                for k in (1, 2, 3):
                    rep = euclid_certificate(q, k, grid=3)
                    general &= rep.equality_verified and rep.all_samples_nonnegative
    report(
        6,
        specific and general,
        "Euclidean baseline: frozen powers of (x1^2-x2^2)^2 and certificate "
        "equality for all harmonic p (m <= 3, degree <= 3, k <= 3)",
    )


def test_criterion_07_lie_suite():
    ok = True
    details = []
    for m in (3, 4, 5):
        alg = so_algebra(m)
        form = trace_form(m)
        ok &= alg.check_jacobi()
        ok &= ad_invariance_witness(alg, form) is None
        ok &= form.is_positive_definite()
        dec = orthogonal_decomposition(alg, so_subalgebra_fixing_last_axis(m), form)
        ok &= natural_reductivity_witness(dec) is None
        details.append(f"so({m})/so({m - 1})")
    su2 = su2_algebra()
    ok &= su2.check_jacobi()
    ok &= ad_invariance_witness(su2, su2_round_form()) is None
    ok &= su2_round_form().is_positive_definite()
    witness = ad_invariance_witness(so_algebra(3), perturbed_form(trace_form(3)))
    ok &= witness is not None
    report(
        7,
        ok,
        f"Jacobi + ad-invariance + natural reductivity + positive definiteness "
        f"for {', '.join(details)}, su(2); perturbed-form control fails with "
        f"witness triple {witness}",
    )


def test_criterion_08_casimir_theorems():
    ok = True
    for m in (3, 4, 5):
        alg = so_algebra(m)
        form = trace_form(m)
        cas = casimir_element(alg, form)
        ok &= verify_lap_eq_casimir(cas, so_realization(m))
        # The 2-jet proof, cross-checked on a sampled suite.
        operator = projected_casimir(cas, so_realization(m))
        suite = standard_test_suite(m, max_harmonic_degree=4, random_count=20)
        ok &= all(operator(f) == laplace_sphere(f) for f in suite)
    # basis independence on so(3)
    alg = so_algebra(3)
    form = trace_form(3)
    other_basis = [(1, 1, 0), (0, 1, 1), (2, 0, 3)]
    op_a = projected_casimir(casimir_element(alg, form), so_realization(3))
    op_b = projected_casimir(casimir_element(alg, form, basis=other_basis), so_realization(3))
    suite3 = standard_test_suite(3, max_harmonic_degree=4, random_count=20)
    ok &= all(op_a(f) == op_b(f) for f in suite3)
    # commutation for complement fields and the full algebra, against the
    # untabulated field-by-field route on a sampled suite
    for m in (3, 4, 5):
        alg = so_algebra(m)
        form = trace_form(m)
        dec = orthogonal_decomposition(alg, so_subalgebra_fixing_last_axis(m), form)
        cas = casimir_element(alg, form)
        verdicts = verify_commutation_theorem(
            cas, so_realization(m), complement_coords=dec.complement_basis
        )
        ok &= verdicts == {"complement": True, "full_algebra": True}
        sampled = commutation_by_fields(
            cas,
            so_realization(m),
            dec.complement_basis,
            [alg.basis_vector(i) for i in range(alg.dim)],
            standard_test_suite(m, max_harmonic_degree=3, random_count=8),
        )
        ok &= sampled == verdicts
    report(
        8,
        ok,
        "projected Casimir equals spherical Laplacian exactly on the 2-jets and "
        "a sampled suite (m in 3..5, default form), basis independence, and "
        "exact commutation with complement and full-algebra fields on both (m in 3..5)",
    )


def test_criterion_09_group_case():
    ok = verify_group_case_identity()
    squares = ProjectedCasimir.of_squares(su2_fields())
    suite = standard_test_suite(4, max_harmonic_degree=4, random_count=20)
    ok &= all(squares(f) == laplace_sphere(f) for f in suite)
    x1 = SphereFunction.from_polynomial(SpherePolynomial.variable(4, 1))
    x1x3 = SphereFunction.from_polynomial(
        SpherePolynomial.variable(4, 1) * SpherePolynomial.variable(4, 3)
    )
    ok &= squares(x1) == x1.scale(-3)
    ok &= squares(x1x3) == x1x3.scale(-8)
    report(
        9,
        ok,
        "three quaternionic field squares equal the six rotation squares on the "
        "2-jets and the S^3 suite; spot eigenvalues -3 (degree 1) and -8 (degree 2)",
    )


def test_criterion_10_growth_checks():
    start = time.perf_counter()
    south = (0.0, 0.0, -1.0)
    ok = True
    for k_family, part in FAMILY:
        h = stereographic_harmonic(k_family, part)
        rep = analyze_growth(
            h.value * h.value, h.provenance, south, 1.2, 40, 256
        )
        ok &= rep.monotone
        ok &= rep.second_derivative_ok
    # negative control: mean of (1 - x3^2)^2 about an equatorial center decreases
    x3 = SpherePolynomial.variable(3, 3)
    control = SphereFunction.from_polynomial(SpherePolynomial.one(3) - x3 * x3)
    control_rep = analyze_growth(
        control * control, "control", (1.0, 0.0, 0.0), 1.2, 40, 256
    )
    ok &= not control_rep.monotone
    elapsed = time.perf_counter() - start
    report(
        10,
        ok and elapsed < 30.0,
        f"means nondecreasing (tol 1e-10, 40-point grid to r=1.2) and M''(0) = "
        f"(1/2) Laplacian(h^2)(center) within 1e-6 relative for {len(FAMILY)} "
        f"members; non-subharmonic control flagged; {elapsed:.2f}s (< 30s)",
    )


def test_criterion_11_cli_determinism(tmp_path, capsys):
    pairs = []
    for name in ("first", "second"):
        cert = tmp_path / f"cert_{name}.json"
        ident = tmp_path / f"ident_{name}.json"
        growth_json = tmp_path / f"growth_{name}.json"
        growth_csv = tmp_path / f"growth_{name}.csv"
        assert (
            cli_main(
                [
                    "certify", "--family", "stereo:k=2:re", "--power", "2",
                    "--samples", "40", "--output", str(cert),
                ]
            )
            == 0
        )
        assert (
            cli_main(
                ["verify-identities", "--case", "so4-over-so3", "--output", str(ident)]
            )
            == 0
        )
        assert (
            cli_main(
                [
                    "growth", "--family", "stereo:k=1:re", "--grid", "20",
                    "--quad", "128", "--output", str(growth_json),
                    "--csv", str(growth_csv),
                ]
            )
            == 0
        )
        pairs.append(
            (
                cert.read_bytes(),
                ident.read_bytes(),
                growth_json.read_bytes(),
                growth_csv.read_bytes(),
            )
        )
    capsys.readouterr()  # swallow stdout from the CLI calls
    report(
        11,
        pairs[0] == pairs[1],
        "repeated CLI runs (certify, verify-identities, growth) produce "
        "byte-identical JSON and CSV reports",
    )

import argparse
import json
import math
import os

import pytest

from sphere_sos import growth, harmonics, lie, linalg, realization
from sphere_sos.cli import (
    IDENTITY_CASES,
    IDENTITY_FORMS,
    NON_HARMONIC_CONTROL,
    NON_SUBHARMONIC_CONTROL,
    UsageError,
    build_parser,
    main,
    resolve_family,
)
from sphere_sos.harmonics import CapDomain, stereographic_harmonic
from sphere_sos.polynomials import SphereFunction, SpherePolynomial
from sphere_sos.sphere_ops import laplace_sphere


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCertify:
    def test_pass_case(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, _, _ = run(
            capsys,
            "certify", "--family", "stereo:k=2:re", "--power", "2",
            "--samples", "10", "--output", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1
        assert payload["equality_verified"] is True
        assert payload["term_count"] == 9
        assert payload["passed"] is True
        assert len(payload["samples"]) == 10
        assert all(s["nonnegative"] for s in payload["samples"])

    def test_trivial_family_high_power(self, capsys):
        code, out, _ = run(
            capsys, "certify", "--family", "stereo:k=0:re", "--power", "5",
            "--samples", "5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["equality_verified"] is True

    def test_unknown_family_is_usage_error(self, capsys):
        code, _, err = run(capsys, "certify", "--family", "nosuch", "--power", "1")
        assert code == 2
        assert "unknown" in err

    def test_malformed_family_index_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "certify", "--family", "stereo:k=x:re", "--power", "1")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["certify", "--family", "stereo:k=256:re", "--power", "1"],
        # h * h has degree 2 * 200, past the limit of 255.
        ["certify", "--family", "stereo:k=200:im", "--power", "0", "--samples", "1"],
        ["gen-harmonic", "--ambient-dim", "3", "--degree", "256"],
    ])
    def test_degrees_past_the_packed_key_limit_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "exceeds the packed-key limit 255" in err

    def test_reports_are_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(
                capsys,
                "certify", "--family", "stereo:k=3:im", "--power", "2",
                "--samples", "25", "--output", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_timings_flag_breaks_nothing(self, capsys):
        code, out, _ = run(
            capsys, "certify", "--family", "stereo:k=1:re", "--power", "1",
            "--samples", "5", "--timings",
        )
        assert code == 0
        assert "wall_time_seconds" in json.loads(out)

    def test_timings_report_the_span_and_the_default_report_does_not(self, capsys):
        argv = ["certify", "--family", "stereo:k=3:re", "--power", "5", "--samples", "2"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        default = json.loads(out)
        code, out, _ = run(capsys, *argv, "--timings")
        assert code == 0
        timed = json.loads(out)
        extra = {"wall_time_seconds", "span_dimension", "square_count"}
        assert timed.keys() - default.keys() == extra
        assert not extra & default.keys()
        assert timed["span_dimension"] == timed["square_count"] == 17
        assert timed["term_count"] == 243

    @pytest.mark.parametrize("power", [1, 2])
    def test_non_harmonic_control_is_falsified(self, capsys, power):
        code, out, _ = run(
            capsys, "certify", "--family", "control:x3", "--power", str(power),
            "--samples", "3",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["family"] == "control:x3"
        assert payload["equality_verified"] is False
        assert payload["terms_harmonic"] is False
        assert payload["passed"] is False
        assert payload["term_count"] == payload["expected_term_count"] == 3**power

    @pytest.mark.parametrize("power, negatives", [(1, 44), (2, 156)])
    def test_non_harmonic_control_has_negative_samples(self, capsys, power, negatives):
        # Default sample count and seed: each printed point and value is the
        # Fraction oracle's, and the sign check reports the negative ones.
        from oracles import cap_points_by_fractions, function_evaluate_fraction_loop
        from sphere_sos.certificates import DEFAULT_SAMPLE_COUNT, DEFAULT_SEED, delta_power
        from sphere_sos.polynomials import SphereFunction, SpherePolynomial

        code, out, _ = run(capsys, "certify", "--family", "control:x3", "--power", str(power))
        assert code == 1
        payload = json.loads(out)
        assert payload["all_samples_nonnegative"] is False
        assert payload["seed"] == payload["config"]["seed"] == DEFAULT_SEED
        x3 = SphereFunction.from_polynomial(SpherePolynomial.variable(3, 3))
        lhs = delta_power(x3 * x3, power)
        points = cap_points_by_fractions(DEFAULT_SAMPLE_COUNT, DEFAULT_SEED)
        values = [function_evaluate_fraction_loop(lhs, pt) for pt in points]
        assert payload["samples"] == [
            {"point": [str(x) for x in pt], "value": str(v), "nonnegative": v >= 0}
            for pt, v in zip(points, values)
        ]
        assert sum(not s["nonnegative"] for s in payload["samples"]) == negatives

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_sample_counts_below_one_are_usage_errors(self, capsys, samples):
        code, out, err = run(
            capsys, "certify", "--family", "stereo:k=1:re", "--power", "1", "--samples", samples,
        )
        assert code == 2
        assert out == ""
        assert "sample count must be >= 1" in err

    @pytest.mark.parametrize("family", ["control:equator-band", "control:x1", "control:"])
    def test_other_controls_are_usage_errors(self, capsys, family):
        code, out, err = run(capsys, "certify", "--family", family, "--power", "1")
        assert code == 2
        assert out == ""
        assert "unknown harmonic family" in err

    def test_certify_control_is_not_a_growth_family(self, capsys):
        code, _, err = run(capsys, "growth", "--family", "control:x3", "--csv", os.devnull)
        assert code == 2
        assert "unknown harmonic family" in err

    def test_workers_flag_keeps_the_report(self, capsys, tmp_path):
        base = tmp_path / "base.json"
        code, _, _ = run(
            capsys,
            "certify", "--family", "stereo:k=2:im", "--power", "2",
            "--samples", "6", "--output", str(base),
        )
        assert code == 0
        multi = tmp_path / "multi.json"
        code, _, _ = run(
            capsys,
            "certify", "--family", "stereo:k=2:im", "--power", "2",
            "--samples", "6", "--workers", "2", "--output", str(multi),
        )
        assert code == 0
        a = json.loads(base.read_text())
        b = json.loads(multi.read_text())
        assert b["config"]["workers"] == 2
        a.pop("config")
        b.pop("config")
        assert a == b

    def test_huge_worker_count_is_echoed_not_forked(self, capsys):
        code, out, _ = run(
            capsys,
            "certify", "--family", "stereo:k=1:re", "--power", "2",
            "--samples", "3", "--workers", "100000",
        )
        assert code == 0
        assert json.loads(out)["config"]["workers"] == 100000

    def test_zero_workers_is_usage_error(self, capsys):
        code, out, err = run(
            capsys,
            "certify", "--family", "stereo:k=1:re", "--power", "1", "--workers", "0",
        )
        assert code == 2
        assert out == ""
        assert "worker count" in err

    def test_more_samples_than_plane_points_is_usage_error(self, capsys):
        code, out, err = run(
            capsys,
            "certify", "--family", "stereo:k=1:re", "--power", "1", "--samples", "962362",
        )
        assert code == 2
        assert out == ""
        assert "sample count must be <= 962361" in err

    def test_io_fault_is_usage_error_not_verdict(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "report.json"
        code, _, err = run(
            capsys,
            "certify", "--family", "stereo:k=1:re", "--power", "1",
            "--samples", "4", "--output", str(target),
        )
        assert code == 2
        assert "error:" in err


# K must be canonical ASCII decimal; int() alone would accept each of these
# and echo a descriptor that differs from the family's own.
NON_CANONICAL_K = ["+1", " 1", "1 ", "1_0", "01", "00", "-0", "\u0661", "", "1.0"]
FAMILY_COMMANDS = {
    "certify": ["--power", "1", "--samples", "2"],
    "growth": ["--grid", "2", "--quad", "8", "--csv", os.devnull],
}


@pytest.mark.parametrize("k", NON_CANONICAL_K)
@pytest.mark.parametrize("command", sorted(FAMILY_COMMANDS))
def test_non_canonical_family_index_is_usage_error(capsys, command, k):
    family = f"stereo:k={k}:re"
    code, out, err = run(capsys, command, "--family", family, *FAMILY_COMMANDS[command])
    assert code == 2
    assert out == ""
    assert "bad family descriptor" in err


@pytest.mark.parametrize("command", sorted(FAMILY_COMMANDS))
def test_canonical_family_index_is_echoed_unchanged(capsys, command):
    code, out, _ = run(capsys, command, "--family", "stereo:k=10:re", *FAMILY_COMMANDS[command])
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["family"] == "stereo:k=10:re"


INVARIANT = ["jacobi", "antisymmetry", "ad_invariance", "positive_definite"]
NOT_INVARIANT_SO = ["jacobi", "antisymmetry", "!ad_invariance E13 E12 E23", "positive_definite"]
LAPLACIAN = "laplacian_equals_projected_casimir"
COMMUTES = ["casimir_commutes_with_complement_fields", "casimir_commutes_with_all_fields"]
GROUP = [
    "group_sum_of_squares_equals_laplacian",
    "spot_eigenvalue_degree_1",
    "spot_eigenvalue_degree_2",
]

# Every case x form report, one line per verdict in report order:
# "!" marks a failed verdict, then the name, the witness and ": detail".
IDENTITY_REPORTS = {
    ("so3", "trace"): INVARIANT + [LAPLACIAN],
    ("so3", "killing"): INVARIANT + [f"{LAPLACIAN}: operator scale 1/2"],
    ("so3", "perturbed"): NOT_INVARIANT_SO,
    ("so4", "trace"): INVARIANT + [LAPLACIAN],
    ("so4", "killing"): INVARIANT + [f"{LAPLACIAN}: operator scale 1/4"],
    ("so4", "perturbed"): NOT_INVARIANT_SO,
    ("so5", "trace"): INVARIANT + [LAPLACIAN],
    ("so5", "killing"): INVARIANT + [f"{LAPLACIAN}: operator scale 1/6"],
    ("so5", "perturbed"): NOT_INVARIANT_SO,
    ("so3-over-so2", "trace"): INVARIANT
    + [LAPLACIAN, "reductive_decomposition: dim m = 2", "natural_reductivity"]
    + COMMUTES,
    ("so3-over-so2", "killing"): INVARIANT
    + [
        f"{LAPLACIAN}: operator scale 1/2",
        "reductive_decomposition: dim m = 2",
        "natural_reductivity",
    ]
    + COMMUTES,
    ("so3-over-so2", "perturbed"): NOT_INVARIANT_SO
    + ["reductive_decomposition: dim m = 2", "natural_reductivity"],
    ("so4-over-so3", "trace"): INVARIANT
    + [LAPLACIAN, "reductive_decomposition: dim m = 3", "natural_reductivity"]
    + COMMUTES,
    ("so4-over-so3", "killing"): INVARIANT
    + [
        f"{LAPLACIAN}: operator scale 1/4",
        "reductive_decomposition: dim m = 3",
        "natural_reductivity",
    ]
    + COMMUTES,
    ("so4-over-so3", "perturbed"): NOT_INVARIANT_SO
    + ["reductive_decomposition: dim m = 3", "natural_reductivity"],
    ("so5-over-so4", "trace"): INVARIANT
    + [LAPLACIAN, "reductive_decomposition: dim m = 4", "natural_reductivity"]
    + COMMUTES,
    ("so5-over-so4", "killing"): INVARIANT
    + [
        f"{LAPLACIAN}: operator scale 1/6",
        "reductive_decomposition: dim m = 4",
        "natural_reductivity",
    ]
    + COMMUTES,
    ("so5-over-so4", "perturbed"): NOT_INVARIANT_SO
    + ["reductive_decomposition: dim m = 4", "natural_reductivity"],
    ("su2-group", "trace"): INVARIANT + GROUP + [LAPLACIAN],
    ("su2-group", "killing"): INVARIANT + GROUP + [f"{LAPLACIAN}: operator scale 1/8"],
    ("su2-group", "perturbed"): [
        "jacobi",
        "antisymmetry",
        "!ad_invariance e2 e1 e3",
        "positive_definite",
    ]
    + GROUP,
}


def verdict_line(entry):
    line = ("" if entry["passed"] else "!") + entry["name"]
    if "witness" in entry:
        line += " " + " ".join(str(w) for w in entry["witness"])
    if "detail" in entry:
        line += ": " + entry["detail"]
    return line


class TestEngineFault:
    """An engine fault exits 3 with one line and no traceback: it is neither a
    refuted verdict (1) nor a rejected input (2)."""

    @staticmethod
    def not_positive(rows):
        raise ValueError("matrix is not positive definite")

    @staticmethod
    def assert_fault(capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: engine fault: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize(
        "site", ["column_basis", "zero_denominator", "back_substitute", "gram_squares"]
    )
    def test_each_fault_exits_3(self, capsys, monkeypatch, site):
        if site == "column_basis":
            # No answer passes the exact check, on the pivot rows or on every row.
            monkeypatch.setattr(linalg, "_spans", lambda m, pivots, coords, den: False)
        elif site == "zero_denominator":
            # Zero coordinates over 0 satisfy every row; the check refuses den <= 0.
            real = linalg._coordinates

            def over_zero(m):
                pivots, coords, _ = real(m)
                return pivots, [[0] * len(x) for x in coords], 0

            monkeypatch.setattr(linalg, "_coordinates", over_zero)
        elif site == "back_substitute":
            # An echelon form whose back-substitution leaves a remainder.
            bad = ([[2, 1, 0], [0, 3, 1]], [0, 1])
            monkeypatch.setattr(linalg, "fraction_free_echelon", lambda rows: bad)
        else:
            monkeypatch.setattr(linalg, "ldl", self.not_positive)
        # A stereographic family is certified on its chart, which runs ldl
        # but no column basis; the control x3 has no chart, so its span does.
        family = "stereo:k=2:re" if site == "gram_squares" else NON_HARMONIC_CONTROL
        self.assert_fault(capsys, "certify", "--family", family, "--power", "2", "--samples", "5")
        if site == "gram_squares":
            self.assert_fault(capsys, "certify", "--family", NON_HARMONIC_CONTROL, "--power", "2")

    def test_a_wrong_inverse_fails_the_gram_check(self, capsys, monkeypatch):
        real = linalg.invert
        monkeypatch.setattr(
            linalg, "invert", lambda rows: [[2 * x for x in row] for row in real(rows)]
        )
        err = self.assert_fault(capsys, "verify-identities", "--case", "so3")
        assert "Gram consistency" in err

    def test_a_complement_off_the_kernel_fails_the_orthogonality_check(
        self, capsys, monkeypatch
    ):
        # so(2) is abelian, so the closure check passes with the shifted
        # complement, and the orthogonality check is the one that fails.
        real = linalg.nullspace
        so2 = lie.so_subalgebra_fixing_last_axis(3)[0]

        def shifted(rows, n_cols=None):
            return [[a + b for a, b in zip(v, so2)] for v in real(rows, n_cols)]

        monkeypatch.setattr(linalg, "nullspace", shifted)
        err = self.assert_fault(capsys, "verify-identities", "--case", "so3-over-so2")
        assert "not B-orthogonal" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("certify", "--family", "stereo:k=1:re", "--power", "1"),
            ("growth", "--family", "stereo:k=1:re", "--grid", "4", "--quad", "16"),
        ],
    )
    def test_a_built_in_family_failing_its_check_is_a_fault(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(harmonics, "laplace_sphere", lambda f: f)
        err = self.assert_fault(capsys, *argv)
        assert "stereo:k=1:re: spherical Laplacian" in err

    @pytest.mark.parametrize("operator", ["apply_rotation_field", "laplace_sphere"])
    def test_an_image_leaving_w_is_a_fault(self, capsys, monkeypatch, operator):
        # A cube of a basis monomial has degree up to 6, outside W.  The cached
        # matrices on W are cleared so that they are built under the patch.
        monkeypatch.setattr(realization, operator, lambda *args: args[-1] ** 3)
        realization._w_matrix.cache_clear()
        try:
            err = self.assert_fault(capsys, "verify-identities", "--case", "so3")
        finally:
            realization._w_matrix.cache_clear()
        assert "leaves W" in err

    def test_an_ldl_failure_in_the_identities_is_a_verdict(self, capsys, monkeypatch):
        monkeypatch.setattr(linalg, "ldl", self.not_positive)
        code, out, _ = run(capsys, "verify-identities", "--case", "so3")
        verdicts = {r["name"]: r["passed"] for r in json.loads(out)["identities"]}
        assert code == 1 and verdicts["positive_definite"] is False


class TestVerifyIdentities:
    @pytest.mark.parametrize("case, form", sorted(IDENTITY_REPORTS))
    def test_every_case_and_form_report(self, capsys, case, form):
        code, out, _ = run(capsys, "verify-identities", "--case", case, "--form", form)
        payload = json.loads(out)
        expected = IDENTITY_REPORTS[case, form]
        assert [verdict_line(r) for r in payload["identities"]] == expected
        all_passed = not any(line.startswith("!") for line in expected)
        assert payload["all_passed"] is all_passed
        assert code == (0 if all_passed else 1)
        assert payload["config"] == {"case": case, "form": form}

    def test_every_case_and_form_is_pinned(self):
        assert set(IDENTITY_REPORTS) == {
            (case, form) for case in IDENTITY_CASES for form in IDENTITY_FORMS
        }

    def test_unknown_case(self, capsys):
        code, _, err = run(capsys, "verify-identities", "--case", "so9")
        assert code == 2
        assert "unknown case" in err

    def test_case_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify-identities"])
        assert exc.value.code == 2
        assert "--case" in capsys.readouterr().err

    def test_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run(
                capsys,
                "verify-identities", "--case", "so4-over-so3",
                "--output", str(path),
            )
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "tamper",
        [lambda vs: vs[:2], lambda vs: (realization.realize(vs[:1], (2,)), *vs[1:])],
        ids=["two-of-three-squares", "one-field-doubled"],
    )
    def test_spot_eigenvalues_reject_a_wrong_sum_of_squares(self, capsys, monkeypatch, tamper):
        # The spot checks apply the su2 squares to the sphere polynomials x1
        # and x1 x3: a wrong sum of squares must fail both.
        of_squares = realization.ProjectedCasimir.of_squares
        monkeypatch.setattr(
            realization.ProjectedCasimir, "of_squares",
            classmethod(lambda cls, fields: of_squares(tamper(tuple(fields)))),
        )
        code, out, _ = run(capsys, "verify-identities", "--case", "su2-group")
        verdicts = {r["name"]: r["passed"] for r in json.loads(out)["identities"]}
        assert code == 1
        assert verdicts["spot_eigenvalue_degree_1"] is False
        assert verdicts["spot_eigenvalue_degree_2"] is False

    @pytest.mark.parametrize("value", [SpherePolynomial.variable(4, 1).poly, 3, "x1"])
    def test_a_realized_field_rejects_a_value_off_the_sphere(self, value):
        with pytest.raises(TypeError, match="cannot differentiate"):
            realization.su2_fields()[0](value)


class TestGrowth:
    def test_family_run(self, capsys, tmp_path):
        out = tmp_path / "growth.json"
        csv = tmp_path / "curve.csv"
        code, _, _ = run(
            capsys,
            "growth", "--family", "stereo:k=1:re", "--center", "south",
            "--rmax", "1.2", "--grid", "40", "--quad", "256",
            "--output", str(out), "--csv", str(csv),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["monotone"] is True
        assert payload["second_derivative_ok"] is True
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "r,mean"
        assert len(lines) == 41

    def test_constant_family_flat_curve(self, capsys, tmp_path):
        csv = tmp_path / "flat.csv"
        code, out, _ = run(
            capsys,
            "growth", "--family", "stereo:k=0:re", "--grid", "10",
            "--quad", "64", "--csv", str(csv),
        )
        assert code == 0
        values = {line.split(",")[1] for line in csv.read_text().strip().splitlines()[1:]}
        assert values == {"1.0"}

    def test_negative_control_flagged(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "growth", "--family", "control:equator-band", "--center", "1,0,0",
            "--rmax", "1.2", "--grid", "40", "--quad", "128",
            "--output", str(tmp_path / "c.json"), "--csv", str(tmp_path / "c.csv"),
        )
        assert code == 1

    def test_circle_leaving_cap_rejected(self, capsys):
        code, _, err = run(
            capsys,
            "growth", "--family", "stereo:k=1:re", "--center", "0,0,1",
            "--rmax", "0.5",
        )
        assert code == 2
        assert "cap" in err

    def test_off_sphere_center_rejected(self, capsys):
        code, _, _ = run(
            capsys, "growth", "--family", "stereo:k=1:re", "--center", "1,1,1"
        )
        assert code == 2

    def test_non_finite_center_rejected(self, capsys):
        code, out, err = run(
            capsys, "growth", "--family", "stereo:k=1:re", "--center", "nan,nan,nan"
        )
        assert code == 2
        assert out == ""
        assert "finite" in err and "Traceback" not in err

    def test_non_finite_rmax_rejected(self, capsys):
        code, out, err = run(
            capsys, "growth", "--family", "stereo:k=1:re", "--rmax", "nan"
        )
        assert code == 2
        assert out == ""
        assert "finite" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "center, message",
        [
            ("1,0", "center must be 3 finite floats"),
            ("1,0,0,0", "center must be 3 finite floats"),
            ("inf,0,0", "center must be 3 finite floats"),
            ("1e400,0,0", "center must be 3 finite floats"),
            ("1,1,1", "center must lie on the unit sphere"),
            ("0,0,-1.000001", "center must lie on the unit sphere"),
            ("x,0,0", "bad center"),
        ],
    )
    def test_bad_centers_are_usage_errors(self, capsys, center, message):
        code, out, err = run(capsys, "growth", "--family", "stereo:k=1:re", f"--center={center}")
        assert code == 2
        assert out == ""
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "z, accepted",
        [
            ("-1.0000000000001", True),
            ("-0.9999999999999", True),
            ("-1.000000000001", False),
            ("-0.999999999999", False),
        ],
    )
    def test_center_tolerance_is_the_growth_check(self, capsys, z, accepted):
        # The squares sum to 1 within 2e-13 or miss it by 2e-12; the command
        # accepts exactly the centers that growth's own check accepts.
        try:
            growth._finite_point((0.0, 0.0, float(z)))
            by_growth = True
        except ValueError:
            by_growth = False
        code, _, err = run(
            capsys, "growth", "--family", "stereo:k=1:re", f"--center=0,0,{z}",
            "--grid", "2", "--quad", "8", "--csv", os.devnull,
        )
        assert by_growth is accepted
        assert (code == 0) is accepted
        assert accepted or "center must lie on the unit sphere" in err

    @pytest.mark.parametrize("overshoot, code", [(-1e-9, 0), (1e-9, 2)])
    def test_working_cap_is_the_family_domain(self, capsys, overshoot, code):
        # A center 2 radians from the south pole: circles may reach out to the
        # radius of the family's cap and no further.
        center = f"--center={math.sin(2.0)!r},0.0,{-math.cos(2.0)!r}"
        rmax = CapDomain().radius - 2.0 + overshoot
        got, _, err = run(
            capsys, "growth", "--family", "stereo:k=1:re", center, "--rmax", repr(rmax),
            "--grid", "2", "--quad", "8", "--csv", os.devnull,
        )
        assert got == code
        assert code == 0 or "leave the working cap" in err

    def test_determinism(self, capsys, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.json"
            csv = tmp_path / f"{name}.csv"
            run(
                capsys,
                "growth", "--family", "stereo:k=2:re", "--grid", "12",
                "--quad", "64", "--output", str(out), "--csv", str(csv),
            )
            outs.append((out.read_bytes(), csv.read_bytes()))
        assert outs[0] == outs[1]


class TestGenHarmonic:
    def test_dimension_and_determinism(self, capsys):
        code, out1, _ = run(capsys, "gen-harmonic", "--ambient-dim", "3", "--degree", "2")
        assert code == 0
        assert len(out1.strip().splitlines()) == 5
        code, out2, _ = run(capsys, "gen-harmonic", "--ambient-dim", "3", "--degree", "2")
        assert out1 == out2

    def test_m4_degree2(self, capsys):
        code, out, _ = run(capsys, "gen-harmonic", "--ambient-dim", "4", "--degree", "2")
        assert code == 0
        assert len(out.strip().splitlines()) == 9

    def test_output_round_trips(self, capsys):
        from sphere_sos.polynomials import Polynomial, laplace_euclid

        code, out, _ = run(capsys, "gen-harmonic", "--ambient-dim", "3", "--degree", "3")
        assert code == 0
        for line in out.strip().splitlines():
            p = Polynomial.parse(line, 3)
            assert laplace_euclid(p).is_zero()


# Bounds that only the library checks: each still exits 2 with one error line.
@pytest.mark.parametrize(
    "argv",
    [
        "certify --family stereo:k=1:re --power -1",
        "growth --family stereo:k=1:re --grid 1",
        "growth --family stereo:k=1:re --quad 4",
        "growth --family stereo:k=1:re --rmax 0",
        "growth --family stereo:k=1:re --rmax inf",
        "gen-harmonic --ambient-dim 1 --degree 2",
        "gen-harmonic --ambient-dim 3 --degree -1",
    ],
    ids=["power", "grid", "quad", "rmax-zero", "rmax-inf", "ambient-dim", "degree"],
)
def test_library_bounds_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


class TestResolveFamily:
    CONTROLS = (NON_HARMONIC_CONTROL, NON_SUBHARMONIC_CONTROL)

    @pytest.mark.parametrize("control", CONTROLS)
    def test_harmonic_family_is_the_certified_one(self, control):
        assert resolve_family("stereo:k=3:im", control) == stereographic_harmonic(3, "im")

    @pytest.mark.parametrize("control", CONTROLS)
    def test_own_control_is_wrapped_without_the_proof(self, control):
        x3 = SpherePolynomial.variable(3, 3)
        expected = x3 if control == NON_HARMONIC_CONTROL else SpherePolynomial.one(3) - x3 * x3
        h = resolve_family(control, control)
        assert h.value == SphereFunction.from_polynomial(expected)
        assert h.domain == CapDomain()
        assert h.provenance == control
        # Not harmonic, so no harmonicity proof could have wrapped it.
        assert not laplace_sphere(h.value).is_zero()

    @pytest.mark.parametrize("control", CONTROLS)
    def test_the_other_control_is_unknown(self, control):
        (other,) = set(self.CONTROLS) - {control}
        with pytest.raises(UsageError, match="unknown harmonic family"):
            resolve_family(other, control)


# Each subcommand's options and which of them are required.  Each input has
# one name, so a second selector cannot come back unnoticed; certify keeps
# --workers, which the benchmark's golden reports echo.
PARSER_SHAPE = {
    "certify": (
        {"--family", "--power", "--samples", "--seed", "--workers", "--timings", "--output"},
        {"--family", "--power"},
    ),
    "verify-identities": ({"--case", "--form", "--output"}, {"--case"}),
    "growth": (
        {"--family", "--center", "--rmax", "--grid", "--quad", "--csv", "--output"},
        {"--family"},
    ),
    "gen-harmonic": ({"--ambient-dim", "--degree", "--output"}, {"--ambient-dim", "--degree"}),
}


def test_parser_shape_is_pinned():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert {opt for a in parser._actions for opt in a.option_strings} == {
        "-h", "--help", "--version",
    }
    assert set(sub.choices) == set(PARSER_SHAPE)
    for name, command in sub.choices.items():
        actions = [a for a in command._actions if not isinstance(a, argparse._HelpAction)]
        assert all(a.option_strings for a in actions), f"{name} takes a positional"
        options = {opt for a in actions for opt in a.option_strings}
        required = {opt for a in actions if a.required for opt in a.option_strings}
        assert (options, required) == PARSER_SHAPE[name], name

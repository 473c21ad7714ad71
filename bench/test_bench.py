"""Tests of the benchmark itself: the correctness gate, the op lists, the
tracer, and the agreement of BENCHMARK.json with bench/spec.json.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import math
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import calibration  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

GOLDEN = json.loads(run.GOLDEN.read_text())


def _op(workload, key):
    return next(op for op in ops.workload_ops(workload, ops.DEFAULT_SEED) if op.key == key)


@pytest.fixture(scope="module")
def runner():
    return run.Runner(GOLDEN, deadline=float("inf"))


@pytest.fixture(scope="module")
def perturbed(runner):
    """The so3 perturbed-form negative control, run for real."""
    op = _op("identities", "verify-identities --case so3 --form perturbed")
    sample, stdout = runner.run(op)
    return op, sample, stdout


@pytest.fixture(scope="module")
def certify_control(runner):
    op = _op("certify", ops.CONTROL_KEY)
    sample, stdout = runner.run(op)
    return op, sample, stdout


def test_gate_accepts_the_seed_outputs(perturbed, certify_control):
    for op, sample, stdout in (perturbed, certify_control):
        assert sample.error is None
        assert sample.exit_code == op.expect_exit == 1
        assert ops.check_output(op, sample.exit_code, stdout, GOLDEN[op.key]) is None


def test_gate_counts_a_wrong_exit_code(perturbed):
    op, _, stdout = perturbed
    assert "exit code" in ops.check_output(op, 0, stdout, GOLDEN[op.key])


def test_gate_counts_a_changed_report_byte(perturbed):
    op, sample, stdout = perturbed
    changed = stdout.replace(b'"schema": 1', b'"schema": 2')
    assert changed != stdout and len(changed) == len(stdout)
    assert ops.check_output(op, sample.exit_code, changed, None) is None
    assert ops.check_output(op, sample.exit_code, changed, GOLDEN[op.key]) is not None


def test_gate_counts_a_negative_control_that_passes(perturbed, certify_control):
    op, sample, stdout = certify_control
    report = json.loads(stdout)
    assert report["equality_verified"] is False and report["terms_harmonic"] is False
    for field in ("equality_verified", "terms_harmonic"):
        forged = dict(report, **{field: True})
        text = (json.dumps(forged, indent=2, sort_keys=True) + "\n").encode()
        assert ops.check_output(op, sample.exit_code, text, None) is not None
    forged = dict(report, equality_verified=True, terms_harmonic=True, passed=True)
    text = (json.dumps(forged, indent=2, sort_keys=True) + "\n").encode()
    assert ops.check_output(op, 0, text, None) is not None

    op, sample, stdout = perturbed
    text = stdout.replace(b'"all_passed": false', b'"all_passed": true')
    assert ops.check_output(op, sample.exit_code, text, None) is not None


def test_growth_gate_tolerates_libm_rounding_only():
    key = next(k for k in GOLDEN if k.startswith("growth --family stereo:k=1"))
    op = _op("growth-basis", key)
    report = dict(GOLDEN[key]["report"])
    csv = "r,mean\n" + "".join(f"{r!r},{m!r}\n" for r, m in zip(report["radii"], report["means"]))

    def output(rep):
        return (json.dumps(rep, indent=2, sort_keys=True) + "\n" + csv).encode()

    close = dict(report, means=[m * (1 + 1e-14) for m in report["means"]])
    assert ops._growth_matches(close, GOLDEN[key]["report"]) is None
    far = dict(report, means=[m * (1 + 1e-9) for m in report["means"]])
    assert ops._growth_matches(far, GOLDEN[key]["report"]) is not None
    assert ops.check_output(op, 0, output(report), GOLDEN[key]) is None
    flipped = dict(report, monotone=False)
    assert ops.check_output(op, 0, output(flipped), GOLDEN[key]) is not None


def test_op_lists_depend_on_the_seed_only_through_generated_inputs():
    for workload in ops.WORKLOADS:
        assert ops.workload_ops(workload, 7) == ops.workload_ops(workload, 7)
    assert ops.workload_ops("identities", 1) == ops.workload_ops("identities", 2)
    assert ops.workload_ops("certify", 1) != ops.workload_ops("certify", 2)
    assert ops.workload_ops("growth-basis", 1) != ops.workload_ops("growth-basis", 2)
    for seed in range(50):
        for op in ops.workload_ops("growth-basis", seed):
            center = next((a for a in op.argv if a.startswith("--center=")), None)
            if center is not None:
                c = [float(x) for x in center.split("=", 1)[1].split(",")]
                assert abs(sum(x * x for x in c) - 1.0) <= 1e-12
                assert math.acos(-c[2]) <= ops.MAX_CENTER_TILT + 1e-12


def test_every_default_seed_op_has_a_golden_record():
    keys = {op.key for w in ops.WORKLOADS for op in ops.workload_ops(w, ops.DEFAULT_SEED)}
    assert keys == set(GOLDEN)


def test_self_time_excludes_child_spans(tmp_path):
    tracer = spans.Tracer()

    def inner(n):
        return sum(range(n))

    inner = tracer.span("toy.inner", inner)

    def outer():
        return inner(200000) + inner(100000)

    outer = tracer.span("toy.outer", outer)
    outer()
    outer()
    tracer.dump(str(tmp_path / "toy.spans"))
    m = spans.analyze(str(tmp_path / "toy.spans"))
    assert m["toy.outer.calls"] == 2 and m["toy.inner.calls"] == 4
    assert m["toy.inner.self_s"] == pytest.approx(m["toy.inner.total_s"])
    assert m["toy.outer.self_s"] == pytest.approx(m["toy.outer.total_s"] - m["toy.inner.total_s"])
    assert 0 <= m["toy.outer.self_s"] < m["toy.outer.total_s"]


def test_traced_op_wraps_every_layer_and_keeps_the_report(runner, tmp_path):
    op = _op("identities", "verify-identities --case so3")
    path = tmp_path / "so3.spans"
    sample, _ = runner.run(op, path)
    assert sample.error is None
    meta, _ = spans.load(str(path))
    assert meta["missing"] == []
    m = spans.analyze(str(path))
    assert m["realization.test_functions"] > 0
    assert m["polynomials.one.calls"] > 0
    assert m["lie.so_algebra.calls"] == 1


def test_probe_counts_units_while_the_process_works():
    probe = calibration.Probe()
    probe.start(0.002)
    try:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            sum(range(1000))
    finally:
        probe.stop()
    assert probe.units > 0 and probe.seconds > 0
    assert calibration.factor(probe.units, probe.seconds) == pytest.approx(
        calibration.REF_UNIT_S * probe.units / probe.seconds)


def test_reported_times_are_scaled_measured_times(runner):
    sample, _ = runner.run(_op("identities", "verify-identities --case so3"))
    assert sample.error is None and sample.probe_units > 0
    assert 0 < sample.measured_setup_s < sample.measured_op_s
    ratio = sample.op_s / sample.measured_op_s
    assert 0.2 < ratio < 5


def test_benchmark_json_matches_the_spec():
    benchmark = json.loads(run.BENCHMARK.read_text())
    spec = json.loads(run.SPEC.read_text())
    assert [w["name"] for w in benchmark["workloads"]] == list(ops.WORKLOADS)
    assert [w["name"] for w in spec["workloads"]] == list(ops.WORKLOADS)
    assert [m["name"] for m in benchmark["end_to_end"]] == list(spec["end_to_end"])
    layer = [name for group in spec["per_layer"] for name in group["metrics"]]
    assert [m["name"] for m in benchmark["per_layer"]] == layer
    assert spec["default_seed"] == ops.DEFAULT_SEED

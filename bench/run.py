"""sphere-sos benchmark: time to exact verdicts, end to end and per layer.

    python3 bench/run.py --workload certify|identities|growth-basis|all
                         [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --record-golden

Run from the repository root.  Each workload is a fixed list of real
sphere-sos operations, run as a closed loop with one client: one op at a
time, each op in a fresh Python process.  A run repeats the whole op list in
passes for about --seconds seconds (at least two passes) and checks every
verdict.  An op's time runs from its process spawn to its report printed,
and is estimated per run as the median over the passes.  Times are reported
in reference seconds: measured seconds times the calibration factor of the
run (see calibration.py), because the host's CPU speed drifts for minutes at
a time.  The measured seconds are kept in the results file.

With --trace 1 the run makes one untraced pass and two traced passes, and
prints per-layer metrics from the traced ones.  The last line of stdout is
one JSON object with keys correct, attempted, failed and metrics; a results
file with the environment stamp and every sample goes to bench/results/.
Exit code 0 when every op passed its gate, 1 when one did not, 2 when the
program could not be run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import ops as opsmod
import spans
import calibration

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
RESULTS = BENCH / "results"
GOLDEN = BENCH / "golden.json"
SPEC = BENCH / "spec.json"
BENCHMARK = ROOT / "BENCHMARK.json"

MIN_PASSES = 2
TRACED_PASSES = 2
DEADLINE_S = 165.0  # a run must end within 180 s, whatever the program does


@dataclass
class Sample:
    """One op process.  Times exclude the calibration loop's own time; op_s
    and setup_s are in reference seconds, the measured_* ones in seconds."""

    op_s: float
    setup_s: float
    peak_rss_mb: float
    exit_code: int
    digest: str
    error: str | None
    measured_op_s: float = 0.0
    measured_setup_s: float = 0.0
    probe_units: int = 0
    probe_s: float = 0.0


class Runner:
    def __init__(self, golden: dict, deadline: float):
        self.golden = golden
        self.deadline = deadline
        self.tmp = RESULTS / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.env = {k: v for k, v in os.environ.items() if k != "SPHERE_SOS_WORKERS"}

    def run(self, op: opsmod.Op, spans_path: Path | None = None) -> tuple[Sample, bytes]:
        record = self.tmp / f"record-{os.getpid()}.json"
        record.unlink(missing_ok=True)
        spec = {"kind": op.kind, "argv": list(op.argv), "power": opsmod.CONTROL_POWER}
        cmd = [sys.executable, str(CHILD), str(SRC), json.dumps(spec), str(record)]
        if spans_path is not None:
            cmd.append(str(spans_path))
        timeout = None if math.isinf(self.deadline) else max(1.0, self.deadline - time.perf_counter())
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, start_new_session=True)
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            # The op may have started pool workers: end its whole process group.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return Sample(0.0, 0.0, 0.0, -1, "", "timed out"), b""
        if _stop_group(proc.pid):
            # An op must stop what it starts; a process left running would
            # load the ops measured after it.
            return Sample(0.0, 0.0, 0.0, proc.returncode, "", "op left processes running"), stdout
        try:
            rec = json.loads(record.read_text())
        except (OSError, ValueError):
            return Sample(0.0, 0.0, 0.0, proc.returncode, "", "op process left no record"), stdout
        error = opsmod.check_output(op, proc.returncode, stdout, self.golden.get(op.key))
        (units_i, probe_i), (units, probe) = rec["probe_at_import"], rec["probe"]
        setup_s = rec["t_imported"] - t_spawn - probe_i
        command_s = rec["t_done"] - rec["t_imported"] - (probe - probe_i)
        import_factor = calibration.factor(units_i, probe_i)
        command_factor = (calibration.factor(units - units_i, probe - probe_i)
                          if units > units_i else import_factor)
        return Sample(
            op_s=setup_s * import_factor + command_s * command_factor,
            setup_s=setup_s * import_factor,
            peak_rss_mb=rec["peak_rss_kb"] / 1024.0,
            exit_code=proc.returncode,
            digest=opsmod.digest(stdout),
            error=error,
            measured_op_s=setup_s + command_s,
            measured_setup_s=setup_s,
            probe_units=units,
            probe_s=probe,
        ), stdout


def _stop_group(pgid: int) -> bool:
    """Kill what is left of an op's process group; True if anything was."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return False
    return True


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sphere_sos").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


def _spread(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"values": values, "median": med}
    if len(values) >= 2 and med > 0:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["range_ratio"] = (max(values) - min(values)) / med
        out["iqr_ratio"] = (q3 - q1) / med
    return out


def _passes_wanted(seconds: float, first_pass_s: float) -> int:
    return max(MIN_PASSES, round(seconds / max(first_pass_s, 1e-9)))


def run_workload(workload: str, seed: int, seconds: float, trace: bool, runner: Runner) -> dict:
    op_list = opsmod.workload_ops(workload, seed)
    samples: list[list[Sample]] = [[] for _ in op_list]
    traced_samples: list[list[Sample]] = [[] for _ in op_list]
    layer_passes: list[dict] = []
    pass_walls: list[float] = []
    spans_dir = RESULTS / "spans" / workload
    if trace:
        spans_dir.mkdir(parents=True, exist_ok=True)
        for old in spans_dir.glob("*.spans"):
            old.unlink()

    def one_pass(index: int, traced: bool) -> None:
        per_op = []
        wall = 0.0
        for i, op in enumerate(op_list):
            path = spans_dir / f"pass{index}-op{i}.spans" if traced else None
            sample, _ = runner.run(op, path)
            wall += sample.op_s
            (traced_samples if traced else samples)[i].append(sample)
            if traced and sample.error is None:
                per_op.append(spans.analyze(str(path)))
        if traced:
            layer_passes.append({"wall_s": wall, "metrics": spans.combine(per_op)})
        else:
            pass_walls.append(wall)

    started = time.perf_counter()
    one_pass(0, traced=False)
    if trace:
        for index in range(1, TRACED_PASSES + 1):
            one_pass(index, traced=True)
    else:
        wanted = _passes_wanted(seconds, time.perf_counter() - started)
        while len(pass_walls) < wanted:
            elapsed = time.perf_counter() - started
            if runner.deadline - time.perf_counter() < elapsed / len(pass_walls):
                break
            one_pass(len(pass_walls), traced=False)

    failures = []
    attempted = failed = 0
    for i, op in enumerate(op_list):
        every = samples[i] + traced_samples[i]
        for sample in every:
            attempted += 1
            error = sample.error
            if error is None and sample.digest != every[0].digest:
                error = "report differs from the first pass"
            if error is not None:
                failed += 1
                failures.append({"op": op.key, "error": error})

    def estimates(op_field: str, setup_field: str) -> tuple[dict, list[float]]:
        op_times = [statistics.median(getattr(s, op_field) for s in op_samples)
                    for op_samples in samples]
        setups = [getattr(s, setup_field) for op_samples in samples for s in op_samples]
        out = {
            "wall_s": sum(op_times),
            "op_p50_s": statistics.median(op_times),
            "op_max_s": max(op_times),
            "setup_s": statistics.median(setups),
        }
        for command, name in (("growth", "growth_s"), ("gen-harmonic", "gen_harmonic_s")):
            if command in commands:
                out[name] = sum(t for t, c in zip(op_times, commands) if c == command)
        return out, op_times

    commands = [op.command for op in op_list]
    scaled, op_times = estimates("op_s", "setup_s")
    measured, _ = estimates("measured_op_s", "measured_setup_s")
    end_to_end = {name: scaled[name] for name in ("wall_s", "op_p50_s", "op_max_s", "setup_s")}
    end_to_end["peak_rss_mb"] = max(s.peak_rss_mb for op_samples in samples for s in op_samples)
    extra = {"op_fail_ratio": failed / attempted}
    extra.update((name, scaled[name]) for name in ("growth_s", "gen_harmonic_s") if name in scaled)
    every = [s for group in samples + traced_samples for s in group if s.probe_units]
    units = sum(s.probe_units for s in every)
    probe_s = sum(s.probe_s for s in every)
    factor = calibration.factor(units, probe_s) if units else 1.0

    result = {
        "workload": workload,
        "model": "closed loop, one client, one op at a time, each op a fresh Python process",
        "environment": environment(seed),
        "seconds": seconds,
        "trace": trace,
        "passes": len(pass_walls),
        "pass_wall_s": _spread(pass_walls),
        "calibration": {"units": units, "seconds": probe_s,
                        "ref_unit_s": calibration.REF_UNIT_S, "factor": factor},
        "ops": [
            {
                "op": op.key,
                "expect_exit": op.expect_exit,
                "op_s": [s.op_s for s in samples[i]],
                "measured_op_s": [s.measured_op_s for s in samples[i]],
                "setup_s": [s.setup_s for s in samples[i]],
                "peak_rss_mb": [s.peak_rss_mb for s in samples[i]],
                "median_s": op_times[i],
            }
            for i, op in enumerate(op_list)
        ],
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "measured_s": measured,
        "end_to_end": end_to_end,
        "extra": extra,
    }
    if trace:
        result["per_layer"] = per_layer(layer_passes, pass_walls[0], factor, result)
    return result


def per_layer(layer_passes: list[dict], untraced_wall: float, factor: float, result: dict) -> dict:
    """Per-layer metrics of the traced passes: times take the faster pass and
    are scaled like the end-to-end times; exact counts must agree between the
    passes."""
    first, second = (p["metrics"] for p in layer_passes[:2])
    differ = [key for key in sorted(set(first) | set(second))
              if not key.endswith("_s") and first.get(key, 0) != second.get(key, 0)]
    # The count comparison is one more check of the run.
    result["attempted"] += 1
    if differ:
        result["failed"] += 1
        result["failures"].append({"op": "trace", "error": f"counts differ between traced passes: {differ}"})
    out = {}
    for key in sorted(set(first) | set(second)):
        if key.endswith("_s"):
            out[key] = min(first.get(key, 0.0), second.get(key, 0.0)) * factor
        else:
            out[key] = first.get(key, 0)
    traced_wall = min(p["wall_s"] for p in layer_passes)
    out["trace.overhead_ratio"] = traced_wall / untraced_wall if untraced_wall else 0.0
    return out


def final_line(results: list[dict], trace: bool, benchmark: dict) -> dict:
    """The result line: every end-to-end metric, or with --trace 1
    every per-layer metric, by name with its unit."""
    section = "per_layer" if trace else "end_to_end"
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "."
        for metric in benchmark[section]:
            value = result[section].get(metric["name"], 0)
            metrics[prefix + metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def print_table(result: dict, units: dict[str, str]) -> None:
    print(f"== {result['workload']} (seed {result['environment']['seed']}, "
          f"{result['passes']} passes, {result['attempted']} ops, {result['failed']} failed)")
    rows = {**result["end_to_end"], **result["extra"], **result.get("per_layer", {})}
    for name, value in rows.items():
        if name in units:
            print(f"  {name:38s} {value:16.6f} {units[name]}")
    for failure in result["failures"]:
        print(f"  FAIL {failure['op']}: {failure['error']}")


def record_golden(runner: Runner) -> int:
    golden = {}
    for workload in opsmod.WORKLOADS:
        for op in opsmod.workload_ops(workload, opsmod.DEFAULT_SEED):
            sample, stdout = runner.run(op)
            if sample.error is not None:
                print(f"{op.key}: {sample.error}", file=sys.stderr)
                return 1
            golden[op.key] = opsmod.golden_record(op, stdout)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} golden records to {GOLDEN}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=opsmod.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=opsmod.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="record the golden reports at the default seed")
    args = parser.parse_args(argv)
    workloads = opsmod.WORKLOADS if args.workload == "all" else (args.workload,)
    # Only a single-workload run is bound to the 180-second limit.
    single = len(workloads) == 1 and not args.record_golden
    deadline = time.perf_counter() + DEADLINE_S if single else float("inf")

    if not (SRC / "sphere_sos" / "__init__.py").is_file():
        print(f"error: no sphere_sos package under {SRC}", file=sys.stderr)
        return 2
    warm = subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                           "import sphere_sos.cli", str(SRC)], cwd=ROOT, capture_output=True)
    if warm.returncode != 0:
        print("error: sphere_sos does not import:\n" + warm.stderr.decode(), file=sys.stderr)
        return 2

    if args.record_golden:
        return record_golden(Runner({}, deadline))
    benchmark = json.loads(BENCHMARK.read_text())
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]
             + json.loads(SPEC.read_text())["extra"]}
    runner = Runner(json.loads(GOLDEN.read_text()), deadline)
    results = []
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace), runner)
        results.append(result)
        name = f"BENCH_{workload}_seed{args.seed}{'_trace' if args.trace else ''}.json"
        (RESULTS / name).write_text(json.dumps(result, indent=1) + "\n")
        print_table(result, units)
    summary = final_line(results, bool(args.trace), benchmark)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

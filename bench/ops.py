"""Workload op lists and the correctness gate.

An op is one user-visible command: a ``sphere-sos`` CLI invocation, or the
library-level certificate negative control.  The workload seed picks only the
generated inputs (the re/im part of each family, the certify ``--seed`` and
the growth centers); everything else about a workload is fixed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from math import comb

DEFAULT_SEED = 0
WORKLOADS = ("certify", "identities", "growth-basis")

IDENTITY_CASES = (
    "so3",
    "so4",
    "so5",
    "so3-over-so2",
    "so4-over-so3",
    "so5-over-so4",
    "su2-group",
)

# The certify negative control: verify_certificate on the non-harmonic x3,
# wrapped as a HarmonicFunction without the construction-time proof.
CONTROL_POWER = 2
CONTROL_KEY = f"lib:certify-nonharmonic-x3 --power {CONTROL_POWER}"

GROWTH_ARGS = ["--quad", "1024", "--grid", "60"]
MAX_CENTER_TILT = 0.2  # radians from the south pole

# Growth floats depend on the platform libm, so growth goldens are compared
# to within these relative tolerances.  The finite-difference M''(0) divides
# mean differences by h^2 = 0.0016 and so carries more rounding.
MEAN_REL_TOL = 1e-12
SECOND_DERIVATIVE_REL_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    """One command of a workload and the verdict it must produce."""

    kind: str  # "cli" or "control"
    argv: tuple[str, ...]
    expect_exit: int

    @property
    def key(self) -> str:
        return CONTROL_KEY if self.kind == "control" else " ".join(self.argv)

    @property
    def command(self) -> str:
        return "certify-control" if self.kind == "control" else self.argv[0]


def _family(rng: random.Random, k: int) -> str:
    return f"stereo:k={k}:{rng.choice(('re', 'im'))}"


def _center(rng: random.Random) -> str:
    tilt = rng.uniform(0.0, MAX_CENTER_TILT)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    c = (math.sin(tilt) * math.cos(phi), math.sin(tilt) * math.sin(phi), -math.cos(tilt))
    norm = math.sqrt(sum(x * x for x in c))
    c = tuple(x / norm for x in c)
    return ",".join(repr(x) for x in c)


def workload_ops(workload: str, seed: int) -> list[Op]:
    """The op list of a workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "certify":
        ops = []
        for k in (1, 3):
            for power in (1, 2, 3, 4):
                argv = ["certify", "--family", _family(rng, k), "--power", str(power),
                        "--seed", str(rng.randrange(2**31))]
                ops.append(Op("cli", tuple(argv), 0))
        deep = ["certify", "--family", _family(rng, 3), "--power", "5",
                "--seed", str(rng.randrange(2**31))]
        for workers in ("1", "2"):
            ops.append(Op("cli", tuple(deep + ["--workers", workers]), 0))
        ops.append(Op("control", (), 1))
        return ops
    if workload == "identities":
        ops = [Op("cli", ("verify-identities", "--case", c), 0) for c in IDENTITY_CASES]
        ops.append(Op("cli", ("verify-identities", "--case", "so4", "--form", "killing"), 0))
        ops.append(Op("cli", ("verify-identities", "--case", "so3", "--form", "perturbed"), 1))
        return ops
    if workload == "growth-basis":
        ops = [
            # One argv word: argparse would take a leading "-0.1,..." for an option.
            Op("cli", ("growth", "--family", _family(rng, k), f"--center={_center(rng)}", *GROWTH_ARGS), 0)
            for k in (1, 3, 5)
        ]
        ops.append(Op("cli", ("growth", "--family", "control:equator-band", "--center", "1,0,0",
                              *GROWTH_ARGS), 1))
        ops += [Op("cli", ("gen-harmonic", "--ambient-dim", str(m), "--degree", str(d)), 0)
                for m, d in ((5, 5), (4, 8))]
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# correctness gate
# ----------------------------------------------------------------------


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def split_growth_output(text: str) -> tuple[dict, list[tuple[float, float]]]:
    """The growth command prints its JSON report and then the CSV curve."""
    report, end = json.JSONDecoder().raw_decode(text)
    lines = text[end:].strip().splitlines()
    if not lines or lines[0] != "r,mean":
        raise ValueError("growth output lacks its CSV curve")
    curve = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
    return report, curve


def golden_record(op: Op, stdout: bytes) -> dict:
    """What a golden file keeps of one op's output."""
    if op.command == "growth":
        report, _ = split_growth_output(stdout.decode())
        return {"report": report}
    return {"sha256": digest(stdout), "bytes": len(stdout)}


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


_GROWTH_FLOATS = {
    "means": MEAN_REL_TOL,
    "second_derivative_fd": SECOND_DERIVATIVE_REL_TOL,
    "second_derivative_exact": SECOND_DERIVATIVE_REL_TOL,
}


def _growth_matches(report: dict, golden: dict) -> str | None:
    if report.keys() != golden.keys():
        return "growth report keys differ from golden"
    for key, value in report.items():
        tol = _GROWTH_FLOATS.get(key)
        if tol is None:
            if value != golden[key]:
                return f"growth field {key!r} differs from golden"
        elif key == "means":
            if len(value) != len(golden[key]) or not all(
                _rel_close(a, b, tol) for a, b in zip(value, golden[key])
            ):
                return "growth means differ from golden"
        elif not _rel_close(value, golden[key], tol):
            return f"growth field {key!r} differs from golden"
    return None


def _verdict_error(op: Op, text: str) -> str | None:
    """Check the verdict an op's report states, independent of any golden."""
    passing = op.expect_exit == 0
    if op.command in ("certify", "certify-control"):
        report = json.loads(text)
        power = int(op.argv[op.argv.index("--power") + 1]) if op.argv else CONTROL_POWER
        if report["passed"] is not passing:
            return f"certify passed={report['passed']}"
        if not report["term_count"] == report["expected_term_count"] == 3**power:
            return "certify term count is not 3^k"
        if op.kind == "control" and (
            report["equality_verified"] or report["terms_harmonic"]
        ):
            return "negative control reported a verified equality or harmonic terms"
        return None
    if op.command == "verify-identities":
        report = json.loads(text)
        if report["all_passed"] is not passing:
            return f"verify-identities all_passed={report['all_passed']}"
        return None
    if op.command == "growth":
        report, curve = split_growth_output(text)
        if report["passed"] is not passing:
            return f"growth passed={report['passed']}"
        if curve != list(zip(report["radii"], report["means"])):
            return "growth CSV curve differs from its JSON report"
        return None
    if op.command == "gen-harmonic":
        m = int(op.argv[op.argv.index("--ambient-dim") + 1])
        d = int(op.argv[op.argv.index("--degree") + 1])
        expected = comb(m + d - 1, d) - (comb(m + d - 3, d - 2) if d >= 2 else 0)
        if len(text.splitlines()) != expected:
            return "gen-harmonic basis size differs from the harmonic dimension"
        return None
    return f"unknown command {op.command!r}"


def check_output(op: Op, exit_code: int, stdout: bytes, golden: dict | None) -> str | None:
    """None when the op's exit code, verdict and report are as expected,
    else the reason it failed."""
    if exit_code != op.expect_exit:
        return f"exit code {exit_code}, expected {op.expect_exit}"
    try:
        error = _verdict_error(op, stdout.decode())
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        return f"unreadable report: {exc!r}"
    if error is not None or golden is None:
        return error
    if op.command == "growth":
        return _growth_matches(split_growth_output(stdout.decode())[0], golden["report"])
    if digest(stdout) != golden["sha256"]:
        return "report bytes differ from golden"
    return None

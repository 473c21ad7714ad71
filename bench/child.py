"""Run one benchmark op in this fresh process, as a user would run it.

Usage: child.py SRC_DIR OP_JSON RECORD_PATH [SPANS_PATH]

The op's report goes to stdout and its exit code is this process's exit
code.  RECORD_PATH receives the timestamps the parent needs: the clock is
CLOCK_MONOTONIC, shared by parent and child, so interpreter start-up counts
from the parent's spawn time.  The calibration probe runs from the first
line on, and its unit count and time go to the record too.  With SPANS_PATH
the sphere_sos layers are traced and the spans written there.
"""

import time
import sys

from calibration import IMPORT_INTERVAL_S, INTERVAL_S, Probe

probe = Probe()
probe.start(IMPORT_INTERVAL_S)
sys.path.insert(0, sys.argv[1])
import sphere_sos.cli as cli  # noqa: E402

t_imported = time.perf_counter()
probe_at_import = (probe.units, probe.seconds)
probe.start(INTERVAL_S)


def certify_control(power: int) -> int:
    """verify_certificate on the non-harmonic x3 on S^2, skipping the
    construction-time harmonicity proof; the verdict must be False."""
    import json

    from sphere_sos.certificates import verify_certificate
    from sphere_sos.harmonics import CapDomain, HarmonicFunction
    from sphere_sos.polynomials import SphereFunction, SpherePolynomial

    h = HarmonicFunction(
        value=SphereFunction.from_polynomial(SpherePolynomial.variable(3, 3)),
        domain=CapDomain(),
        provenance="control:x3",
    )
    report = verify_certificate(h, power)
    payload = {
        "family": report.family,
        "k": report.k,
        "term_count": report.term_count,
        "expected_term_count": report.expected_term_count,
        "equality_verified": report.equality_verified,
        "terms_harmonic": report.terms_harmonic,
        "all_samples_nonnegative": report.all_samples_nonnegative,
        "passed": report.passed,
    }
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0 if report.passed else 1


def main() -> int:
    import json

    op = json.loads(sys.argv[2])
    tracer = None
    if len(sys.argv) > 4:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    t_start = time.perf_counter()
    if op["kind"] == "control":
        code = certify_control(op["power"])
    else:
        code = cli.main(op["argv"])
    sys.stdout.flush()
    t_done = time.perf_counter()
    probe.stop()
    if tracer is not None:
        tracer.dump(sys.argv[4])

    import resource

    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    with open(sys.argv[3], "w") as fh:
        json.dump({"t_imported": t_imported, "t_start": t_start, "t_done": t_done,
                   "probe_at_import": probe_at_import, "probe": (probe.units, probe.seconds),
                   "peak_rss_kb": peak_kb}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

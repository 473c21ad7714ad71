"""Outside-in tracing of the sphere_sos layers.

The tracer wraps each layer's functions and methods from outside: it
replaces the module attribute, every other sphere_sos module's imported
binding of the same function, and class attributes.  A span records a name,
a start, an end and the index of its parent span.  Spans live in compact
arrays in memory and are written to one file when the op process ends; the
benchmark reads those files back to compute per-layer metrics.

A layer's self time is its spans' duration minus the part covered by child
spans; its total time counts each outermost span of that name once.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter

# (span name, module, attribute).  Span names are the metric prefixes.
SPANS = (
    ("polynomials.mul", "polynomials", "Polynomial.__mul__"),
    ("polynomials.add", "polynomials", "Polynomial.__add__"),
    ("polynomials.reduce", "polynomials", "SpherePolynomial.__init__"),
    ("polynomials.eval", "polynomials", "Polynomial.evaluate"),
    ("polynomials.eval_float", "polynomials", "Polynomial.evaluate_float"),
    ("polynomials.field_add", "polynomials", "SphereFunction.__add__"),
    ("polynomials.field_mul", "polynomials", "SphereFunction.__mul__"),
    ("polynomials.field_eq", "polynomials", "SphereFunction.__eq__"),
    ("polynomials.field_eval", "polynomials", "SphereFunction.evaluate"),
    ("polynomials.sample_points", "polynomials", "sample_cap_points"),
    ("sphere_ops.apply", "sphere_ops", "apply_rotation_field"),
    ("sphere_ops.laplace", "sphere_ops", "laplace_sphere"),
    ("harmonics.construct", "harmonics", "stereographic_harmonic"),
    ("certificates.verify", "certificates", "verify_certificate"),
    ("certificates.delta_power", "certificates", "delta_power"),
    ("certificates.sos_certificate", "certificates", "sos_certificate"),
    ("certificates.map_ordered", "certificates", "_map_ordered"),
    ("certificates.weighted_sum", "certificates", "_weighted_sum"),
    ("realization.field_apply", "realization", "RealizedField.__call__"),
    ("realization.casimir_apply", "realization", "ProjectedCasimir.__call__"),
    ("realization.test_suite", "realization", "standard_test_suite"),
    ("realization.lap_eq_casimir", "realization", "verify_lap_eq_casimir"),
    ("realization.commutation", "realization", "verify_commutation_theorem"),
    ("realization.group_case", "realization", "verify_group_case_identity"),
    ("lie.so_algebra", "lie", "so_algebra"),
    ("lie.killing", "lie", "killing_form"),
    ("lie.invariance", "lie", "ad_invariance_witness"),
    ("lie.casimir", "lie", "casimir_element"),
    ("lie.decomposition", "lie", "orthogonal_decomposition"),
    ("linalg.nullspace", "linalg", "nullspace"),
    ("linalg.invert", "linalg", "invert"),
    ("linalg.echelon", "linalg", "fraction_free_echelon"),
    ("growth.mean", "growth", "spherical_mean"),
    ("growth.second_derivative", "growth", "check_second_derivative_at_zero"),
    ("cli.report", "cli", "_dump_json"),
    ("cli.report", "cli", "_dump_csv"),
    ("cli.growth", "cli", "cmd_growth"),
    ("cli.gen_harmonic", "cli", "cmd_gen_harmonic"),
)

# Too cheap and too frequent (262k calls in so5-over-so4) to time: counted only.
COUNTED = (("polynomials.one.calls", "polynomials", "SpherePolynomial.one"),)

# Direct children of a verify_certificate span, by certificate stage.  The
# h*h product feeding delta_power belongs to the left-hand side.
STAGES = {
    "certificates.delta_power": "lhs",
    "polynomials.field_mul": "lhs",
    "certificates.sos_certificate": "terms",
    "certificates.map_ordered": "square_harmonic",
    "certificates.weighted_sum": "sum",
    "polynomials.field_eq": "equality",
    "polynomials.sample_points": "samples",
    "polynomials.field_eval": "samples",
}


# Size gauges of the certificate left-hand side; a pass keeps their maximum.
GAUGES = ("certificates.lhs.monomials", "certificates.lhs.coeff_bits", "certificates.lhs.den_exp")


def _spherical_mean_order(args, kwargs) -> int:
    return kwargs["order"] if "order" in kwargs else args[3]


class Tracer:
    """Span store plus the exact counters and size gauges of one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.kind = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._lhs_values: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, after=None):
        """Wrap fn so each call records a span; after(result, args, kwargs)
        runs once the span has ended."""
        nid = self._name_id(name)
        kind, parent, start, end = self.kind, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(kind)
            kind.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def counted(self, name: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after(self, name: str):
        counters = self.counters
        if name == "certificates.delta_power":
            return lambda result, args, kwargs: self._lhs_values.append(result)
        if name == "certificates.sos_certificate":
            def words(result, args, kwargs):
                counters["certificates.words"] += len(result)
            return words
        if name == "realization.test_suite":
            def suite(result, args, kwargs):
                counters["realization.test_functions"] += len(result)
            return suite
        if name == "growth.mean":
            def nodes(result, args, kwargs):
                counters["growth.nodes"] += _spherical_mean_order(args, kwargs)
            return nodes
        return None

    def install(self, package: str = "sphere_sos") -> None:
        """Wrap every traced function of the imported package in place."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for name, module, attr in SPANS:
            self._patch(modules, package, module, attr,
                        lambda fn, name=name: self.span(name, fn, self._after(name)))
        for name, module, attr in COUNTED:
            self._patch(modules, package, module, attr,
                        lambda fn, name=name: self.counted(name, fn))

    def _patch(self, modules, package, module, attr, make) -> None:
        owner = sys.modules.get(f"{package}.{module}")
        owner_name, _, member = attr.rpartition(".")
        if owner is not None and owner_name:
            owner = getattr(owner, owner_name, None)
        raw = None if owner is None else vars(owner).get(member)
        if raw is None:
            # A later refactor may remove a traced function; its metrics read 0.
            self.missing.append(f"{module}.{attr}")
            return
        if isinstance(raw, classmethod):
            setattr(owner, member, classmethod(make(raw.__func__)))
            return
        wrapped = make(raw)
        if owner_name:
            setattr(owner, member, wrapped)
            return
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is raw:
                    setattr(mod, key, wrapped)

    def gauges(self) -> dict[str, int]:
        out = {}
        for value in self._lhs_values:
            coeffs = list(value.num.poly.terms.values()) + list(value.base.poly.terms.values())
            sizes = {
                "certificates.lhs.monomials": len(value.num.poly.terms),
                "certificates.lhs.coeff_bits": max(
                    max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs
                ),
                "certificates.lhs.den_exp": value.exp,
            }
            for key, size in sizes.items():
                out[key] = max(out.get(key, 0), size)
        return out

    def dump(self, path: str) -> None:
        """One JSON header line, then the four span arrays."""
        meta = {
            "names": self.names,
            "count": len(self.kind),
            "counters": dict(self.counters),
            "gauges": self.gauges(),
            "missing": self.missing,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(meta).encode() + b"\n")
            for arr in (self.kind, self.parent, self.start, self.end):
                arr.tofile(fh)


def load(path: str):
    with open(path, "rb") as fh:
        meta = json.loads(fh.readline())
        arrays = []
        for code in ("H", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, meta["count"])
            arrays.append(arr)
    return meta, arrays


def analyze(path: str) -> dict[str, float]:
    """Per-layer metrics of one traced op process."""
    meta, (kind, parent, start, end) = load(path)
    names = meta["names"]
    n = meta["count"]
    dur = [end[i] - start[i] for i in range(n)]
    covered = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            covered[p] += dur[i]
    calls: Counter = Counter()
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    stages: Counter = Counter()
    verify = names.index("certificates.verify") if "certificates.verify" in names else -1
    for i in range(n):
        k, p = kind[i], parent[i]
        calls[k] += 1
        self_s[k] += dur[i] - covered[i]
        if p < 0 or kind[p] != k:
            total_s[k] += dur[i]
        if p >= 0 and kind[p] == verify:
            stage = STAGES.get(names[k])
            if stage is not None:
                stages[stage] += dur[i]
    out: dict[str, float] = {}
    for k, name in enumerate(names):
        out[f"{name}.calls"] = calls[k]
        out[f"{name}.self_s"] = self_s[k]
        out[f"{name}.total_s"] = total_s[k]
    for stage in set(STAGES.values()):
        out[f"certificates.{stage}.total_s"] = stages[stage]
    out.update(meta["counters"])
    out.update(meta["gauges"])
    return out


def combine(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Sum per-op metrics over a pass; size gauges take the maximum."""
    out: dict[str, float] = {}
    for metrics in per_op:
        for key, value in metrics.items():
            if key in GAUGES:
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out

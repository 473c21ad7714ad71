"""The package compiles a submodule only when a command first uses it.

Each check runs in a fresh interpreter, since an earlier import in the test
process would hide what a cold start loads.  A registered submodule that has
not run yet is a lazy module; once run, its type is plain ``ModuleType``.
No command imports ``dataclasses`` or ``inspect``: the records are
NamedTuples, and those two modules cost a cold start milliseconds.  The last
test keeps src/ free of names that nothing in the package uses or exports.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

SUBMODULES = (
    "certificates", "growth", "harmonics", "lie", "linalg", "polynomials", "realization",
    "sphere_ops",
)
UNUSED_STDLIB = ("dataclasses", "inspect")

PROBE = """
import contextlib, io, json, sys, types
import sphere_sos.cli as cli
subs, stdlib = json.loads(sys.argv[1])
def executed():
    return sorted(n for n in subs if type(sys.modules[f"sphere_sos.{n}"]) is types.ModuleType)
def loaded():
    return sorted(n for n in stdlib if n in sys.modules)
out = {"registered": sorted(n for n in subs if f"sphere_sos.{n}" in sys.modules),
       "after_import": executed(), "stdlib_after_import": loaded()}
if len(sys.argv) > 2:
    with contextlib.redirect_stdout(io.StringIO()):
        out["code"] = cli.main(sys.argv[2:])
    out["after_command"] = executed()
    out["stdlib_after_command"] = loaded()
print(json.dumps(out))
"""


def run_probe(*argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps([SUBMODULES, UNUSED_STDLIB]), *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def test_import_registers_every_submodule_and_runs_only_polynomials():
    out = run_probe()
    assert out["registered"] == sorted(SUBMODULES)
    assert out["after_import"] == ["polynomials"]
    assert out["stdlib_after_import"] == []


@pytest.mark.parametrize(
    "argv, executed",
    [
        ("certify --family stereo:k=1:re --power 1 --samples 3",
         {"certificates", "harmonics", "linalg", "polynomials", "sphere_ops"}),
        ("verify-identities --case so3",
         {"lie", "linalg", "polynomials", "realization", "sphere_ops"}),
        ("growth --family stereo:k=1:re --grid 4 --quad 16",
         {"growth", "harmonics", "polynomials", "sphere_ops"}),
        ("gen-harmonic --ambient-dim 3 --degree 2", {"polynomials", "sphere_ops"}),
    ],
)
def test_each_command_runs_only_its_layers(argv, executed):
    out = run_probe(*argv.split())
    assert out["code"] == 0
    assert set(out["after_command"]) == executed
    assert out["stdlib_after_command"] == []


PUBLIC = [
    "CapDomain", "CertificateReport", "HarmonicFunction", "HarmonicityError", "Polynomial",
    "RotationField", "SphereFunction", "SpherePolynomial", "apply_rotation_field",
    "custom_harmonic", "delta_power", "euclid_certificate", "euclidean_harmonic",
    "euler_operator", "generate_harmonic_basis", "laplace_euclid", "laplace_sphere",
    "planar_combination", "rotation_fields", "stereographic_harmonic", "verify_certificate",
]


def test_public_names_resolve_through_their_modules():
    code = f"""
import importlib, sphere_sos
assert sphere_sos.__all__ == {PUBLIC!r}
star = {{}}
exec("from sphere_sos import *", star)
for name in sphere_sos.__all__:
    module = sphere_sos._EXPORTS[name]
    assert getattr(sphere_sos, name) is vars(module)[name], name
    assert star[name] is getattr(sphere_sos, name), name
    assert module is importlib.import_module(module.__name__)
try:
    sphere_sos.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("unknown attribute resolved")
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


# Kept without a caller in src/: the README documents it as library API.
KEPT = {"linalg.rank"}


def test_every_module_level_name_has_a_use():
    """Each top-level function and class of src/sphere_sos is referenced in
    src/ outside its own body, or exported in ``sphere_sos.__all__``; a name
    that only the tests use belongs in tests/oracles.py."""
    import sphere_sos

    paths = sorted(SRC.glob("sphere_sos/*.py"))
    trees = {path.stem: ast.parse(path.read_text()) for path in paths}
    refs = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((module, node.id, node))
            elif isinstance(node, ast.Attribute):
                refs.append((module, node.attr, node))
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__") or name in sphere_sos.__all__:
                continue
            own = {id(n) for n in ast.walk(node)}
            if not any(r == name and (m != module or id(n) not in own) for m, r, n in refs):
                unused.append(f"{module}.{name}")
    assert sorted(set(unused) - KEPT) == []

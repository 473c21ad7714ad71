"""The package compiles a submodule only when a command first uses it.

Each check runs in a fresh interpreter, since an earlier import in the test
process would hide what a cold start loads.  A registered submodule that has
not run yet is a lazy module; once run, its type is plain ``ModuleType``.
``verify-identities`` and ``gen-harmonic`` stay in the sphere ring, so they
never run ``quotients``; ``polynomials`` forwards the names moved there, and
refers to ``quotients`` nowhere else.
No command imports ``dataclasses`` or ``inspect``: the records are
NamedTuples, and those two modules cost a cold start milliseconds.  The last
tests keep src/ free of names that nothing in the package uses or exports,
and keep the polynomial kernel's private names inside `polynomials`.
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
    "certificates", "growth", "harmonics", "lie", "linalg", "polynomials", "quotients",
    "realization", "sphere_ops",
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
         {"certificates", "harmonics", "linalg", "polynomials", "quotients", "sphere_ops"}),
        ("verify-identities --case so3",
         {"lie", "linalg", "polynomials", "realization", "sphere_ops"}),
        ("growth --family stereo:k=1:re --grid 4 --quad 16",
         {"growth", "harmonics", "polynomials", "quotients", "sphere_ops"}),
        ("gen-harmonic --ambient-dim 3 --degree 2", {"polynomials", "sphere_ops"}),
    ],
)
def test_each_command_runs_only_its_layers(argv, executed):
    out = run_probe(*argv.split())
    assert out["code"] == 0
    assert set(out["after_command"]) == executed
    assert out["stdlib_after_command"] == []


RING_ONLY = """
import contextlib, io, json, sys, types
import sphere_sos.cli as cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps({"codes": codes,
                  "quotients": type(sys.modules["sphere_sos.quotients"]) is types.ModuleType}))
"""


def test_identities_and_gen_harmonic_never_run_the_quotient_field():
    """Every identity case under every form, and gen-harmonic, in one cold
    interpreter: the sphere ring serves them all, so quotients never runs."""
    from sphere_sos.cli import IDENTITY_CASES, IDENTITY_FORMS

    commands = [["verify-identities", "--case", case, "--form", form]
                for case in IDENTITY_CASES for form in IDENTITY_FORMS]
    commands.append(["gen-harmonic", "--ambient-dim", "4", "--degree", "3"])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", RING_ONLY, json.dumps(commands)],
                          env=env, capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout)
    assert len(out["codes"]) == len(IDENTITY_CASES) * len(IDENTITY_FORMS) + 1
    assert set(out["codes"]) <= {0, 1}  # perturbed forms are refuted, never rejected
    assert out["quotients"] is False


MOVED = ("PLANE_SAMPLE_LIMIT", "SphereFunction", "require_on_sphere", "sample_cap_points",
         "sample_plane_points")


def test_polynomials_forwards_the_moved_names_to_quotients():
    from sphere_sos import polynomials, quotients

    for name in MOVED:
        assert name not in vars(polynomials), name
        assert getattr(polynomials, name) is vars(quotients)[name], name
    from sphere_sos.polynomials import SphereFunction

    assert SphereFunction is quotients.SphereFunction
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        polynomials.no_such_name
    with pytest.raises(AttributeError):
        polynomials._normalize


def _docstrings(tree) -> set[int]:
    nodes = [tree, *(n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.ClassDef)))]
    return {id(n.body[0].value) for n in nodes if ast.get_docstring(n) is not None}


def test_polynomials_reaches_quotients_only_through_its_forward():
    """The ring layer never uses the quotient field: in ``polynomials`` the
    one reference to ``quotients``, an import, a name or a string, is in the
    module ``__getattr__`` that forwards the moved names."""
    tree = ast.parse((SRC / "sphere_sos" / "polynomials.py").read_text())
    (forward,) = [n for n in tree.body if getattr(n, "name", None) == "__getattr__"]
    inside, docs = {id(n) for n in ast.walk(forward)}, _docstrings(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            text = " ".join([getattr(node, "module", None) or ""] + [a.name for a in node.names])
        elif isinstance(node, ast.Name):
            text = node.id
        elif isinstance(node, ast.Attribute):
            text = node.attr
        elif isinstance(node, ast.Constant) and id(node) not in docs:
            text = str(node.value)
        else:
            continue
        if "quotients" in text:
            found.append((node.lineno, id(node) in inside))
    assert found and all(inside for _, inside in found), found


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


# Names kept without a caller in src/ because the README documents them as
# library API: none.
KEPT: set[str] = set()


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


def _kernel_private_name(node) -> str | None:
    """The name a node uses of the kernel's private product loop
    ``_multiply_into`` or trusted constructor ``Polynomial._make``, if any."""
    if isinstance(node, ast.alias) and node.name == "_multiply_into":
        return node.name
    if isinstance(node, ast.Name) and node.id == "_multiply_into":
        return node.id
    if isinstance(node, ast.Attribute):
        if node.attr == "_multiply_into":
            return node.attr
        if node.attr == "_make" and ast.unparse(node.value).split(".")[-1] == "Polynomial":
            return "Polynomial._make"
    return None


def test_kernel_private_names_stay_in_polynomials():
    """Other modules build polynomials through the kernel's public methods
    (``Polynomial.square``, ``Polynomial.from_numerators``)."""
    found = []
    for path in sorted(SRC.glob("sphere_sos/*.py")):
        if path.stem == "polynomials":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if name := _kernel_private_name(node):
                found.append(f"{path.stem}:{getattr(node, 'lineno', '?')}: {name}")
    assert found == []

"""The package's import graph.

Every root the package finds comes from its own bracketed solver
(``potential._bracketed_roots``): no module imports ``scipy.optimize``.
``import semiclassic`` loads numpy and the package alone; scipy's submodules
and mpmath run their code on first use (``semiclassic._lazy``), and so do
``configparser`` and ``semiclassic.verify`` under ``semiclassic.cli``.  Every name
the package exports has a user besides its own tests.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "semiclassic"


def imported_names(path):
    """Every module, and every name taken from a module, that a file imports."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)
        elif (isinstance(node, ast.Call) and node.args
              and getattr(node.func, "id", getattr(node.func, "attr", None)) == "lazy"
              and isinstance(node.args[0], ast.Constant)):
            yield node.args[0].value


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_scipy_optimize(path):
    assert not [
        name for name in imported_names(path)
        if name == "scipy.optimize" or name.startswith("scipy.optimize.")
    ]


def test_guard_sees_every_spelling(tmp_path):
    for line in ("import scipy.optimize", "from scipy import optimize",
                 "from scipy.optimize import brentq", "import scipy.optimize._zeros as z",
                 'optimize = lazy("scipy.optimize")'):
        module = tmp_path / "m.py"
        module.write_text(f"def f():\n    {line}\n")
        assert any(n.startswith("scipy.optimize") for n in imported_names(module)), line


MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    """A name left in ``__all__`` after its definition is deleted fails here."""
    module = importlib.import_module(f"semiclassic.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_every_public_name_of_the_package_resolves():
    """Each name the package re-exports is the object its module defines."""
    import semiclassic

    init = ast.parse((PACKAGE / "__init__.py").read_text())
    names = [
        (node.module, alias.name)
        for node in init.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert names
    for module, name in names:
        source = importlib.import_module(f"semiclassic.{module}")
        assert getattr(semiclassic, name) is getattr(source, name), name


#: Exported though only tests call them: the checked wrappers of V, V' and
#: V'' (ROADMAP's "Settled" list keeps them with their reasons).
UNCALLED_EXPORTS = {"evaluate", "derivative", "second_derivative"}


def referenced_names(path):
    """Every name a file reads, imports, takes as an attribute or spells as a
    string (``getattr`` spans), outside the strings of an ``__all__``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    tree.body = [
        node for node in tree.body
        if "__all__" not in {getattr(target, "id", None) for target in getattr(node, "targets", ())}
    ]
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_export_has_a_user_besides_its_tests():
    """Each name the package exports is used by its modules, a demo or the
    benchmark: a public helper that only its own tests call fails here."""
    root = PACKAGE.parent.parent
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exports = {
        alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    users = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    users += [*(root / "demos").glob("*.py"), *(root / "bench").glob("*.py")]
    used = set().union(*map(set, map(referenced_names, users)))
    assert sorted(exports - used - UNCALLED_EXPORTS) == []


def test_every_error_class_is_made_and_has_its_own_code():
    """Each error class has a code of its own and is constructed somewhere in
    the package (raised, or returned by a helper that builds it): a class
    whose last raiser is deleted fails here."""
    from semiclassic import errors

    classes = [
        c for c in vars(errors).values()
        if isinstance(c, type) and issubclass(c, errors.SemiclassicError)
    ]
    codes = [c.code for c in classes]
    assert len(set(codes)) == len(codes), codes
    called = {
        node.func.id
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    subclasses = [c.__name__ for c in classes if c is not errors.SemiclassicError]
    assert [name for name in subclasses if name not in called] == []


def _fresh(code):
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    src = str(PACKAGE.parent)
    result = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n{code}"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_import_loads_no_heavy_dependency():
    """A lazy module not yet touched is a ``LazyLoader`` placeholder, not a
    plain module; scipy's optimizer and special functions are not there at all."""
    out = _fresh(
        "import types\n"
        "import semiclassic, semiclassic.cli\n"
        "for name in ('mpmath', 'scipy.integrate', 'scipy.interpolate', 'scipy.linalg',\n"
        "             'configparser', 'semiclassic.verify'):\n"
        "    module = sys.modules.get(name)\n"
        "    print(name, module is None or type(module) is not types.ModuleType)\n"
        "for name in ('scipy.optimize', 'scipy.special'):\n"
        "    print(name, name not in sys.modules)\n"
    )
    assert [line for line in out.splitlines() if not line.endswith(" True")] == []


@pytest.mark.parametrize("code, expected", [
    ("semiclassic.TabulatedPotential([0, 1, 2, 3], [0, 1, 1, 0])(0.5)", "0.625"),
    ("round(semiclassic.airy_laplace_contour(0.5), 6)", "0.231694"),
    ("semiclassic.airy(10.0).ai", "1.1047532552898686e-10"),
    ("round(semiclassic.solve_scattering_exact(semiclassic.ScatteringProblem("
     "semiclassic.EckartBarrier(1.0, 1.0), 0.5, (-14.0, 14.0),"
     " semiclassic.PhysicalContext(mass=4.0))).transmission, 6)", "0.007208"),
], ids=["interpolate", "integrate", "mpmath", "linalg"])
def test_first_use_of_each_dependency_works(code, expected):
    assert _fresh(f"import semiclassic\nprint({code})").strip() == expected

"""Every root the package finds comes from its own bracketed solver
(``potential._bracketed_roots``): no module imports ``scipy.optimize``."""

import ast
import importlib
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


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_scipy_optimize(path):
    assert not [
        name for name in imported_names(path)
        if name == "scipy.optimize" or name.startswith("scipy.optimize.")
    ]


def test_guard_sees_every_spelling(tmp_path):
    for line in ("import scipy.optimize", "from scipy import optimize",
                 "from scipy.optimize import brentq", "import scipy.optimize._zeros as z"):
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

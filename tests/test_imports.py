"""Every root the package finds comes from its own bracketed solver
(``potential._bracketed_roots``): no module imports ``scipy.optimize``."""

import ast
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

"""No module of the package imports or reads another module's private names.

A leading underscore marks a name as internal to its module; a name another
module needs is public. Dunder names such as ``__version__`` are public.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "aqss"


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def private_names(source):
    """Private names that `source` imports from, or reads off, a package module."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("aqss")):
            found += [alias.name for alias in node.names if _private(alias.name)]
            if node.module in (None, "aqss"):  # `from . import linalg` binds a module
                modules.update(alias.asname or alias.name for alias in node.names)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_no_module_uses_another_modules_private_names():
    sample = "from .random import _a, b\nfrom . import linalg\nlinalg._c(linalg.d, x._e)\n"
    assert private_names(sample) == ["_a", "linalg._c"]
    offenders = {path.name: private_names(path.read_text()) for path in PACKAGE.glob("*.py")}
    assert "cli.py" in offenders
    assert not any(offenders.values()), offenders

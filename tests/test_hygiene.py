"""Source hygiene: no library or test module imports a name it never uses,
and no library module reaches into another one's private names."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "kuznetsov_lab"
LIBRARY = sorted(
    path for path in (ROOT / "src" / PACKAGE).glob("*.py") if path.name != "__init__.py"
)
MODULES = sorted(
    LIBRARY + [path for path in (ROOT / "tests").glob("*.py") if path.name != "__init__.py"]
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never loaded as a name.

    Attribute access counts through its base name (``np`` in ``np.exp``);
    ``from __future__`` imports bind nothing and are skipped.
    """
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scanner_sees_unused_and_used_names():
    source = (
        "from __future__ import annotations\n"
        "import math\nimport numpy as np\nimport os.path\n"
        "from x import a, b as c\n"
        "np.exp(a)\nos.path.join()\n"
    )
    assert unused_imports(source) == ["c", "math"]


def private_imports(source: str) -> list[str]:
    """``_``-prefixed names a module imports from its own package.

    Relative imports and absolute ``kuznetsov_lab`` imports count; a
    third-party name bound under a private alias (``loggamma as _loggamma``)
    is the importer's own and does not.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != PACKAGE:
            continue
        found += [a.name for a in node.names if a.name.startswith("_")]
    return sorted(found)


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_private_names_across_modules(path):
    assert private_imports(path.read_text()) == []


def test_private_scanner_sees_package_names_only():
    source = (
        "from scipy.special import loggamma as _loggamma\n"
        "from .testfunctions import TestFunctionParams, _as_params\n"
        "from kuznetsov_lab.mellin import _RESIDUE_RADIUS\n"
        "from . import _private_module\n"
    )
    assert private_imports(source) == ["_RESIDUE_RADIUS", "_as_params", "_private_module"]

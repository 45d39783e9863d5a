"""Source hygiene: no library or test module imports a name it never uses."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    path
    for path in [*(ROOT / "src" / "kuznetsov_lab").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if path.name != "__init__.py"
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

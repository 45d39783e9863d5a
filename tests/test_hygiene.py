"""Source hygiene: no library or test module imports a name it never uses,
no library module reaches into another one's private names or uses numpy's
unchecked ``as_strided``, every library name the bench scripts read or the
README names exists, every public library name has a reader, and the CLI
catches in `main` alone."""

import ast
import importlib
import re
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


def as_strided_uses(source: str) -> list[int]:
    """Lines that import or reach numpy's unchecked ``as_strided``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        names = [a.name for a in node.names] if isinstance(node, (ast.Import, ast.ImportFrom)) else []
        if any(name.split(".")[-1] == "as_strided" for name in names) or (
            isinstance(node, ast.Attribute) and node.attr == "as_strided"
        ):
            found.append(node.lineno)
    return found


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_as_strided(path):
    # a view with hand-made strides reads any memory it is told to;
    # sliding_window_view checks its shape against the array it views
    assert as_strided_uses(path.read_text()) == []


def test_as_strided_scanner_sees_imports_and_attributes():
    source = (
        "import numpy as np\n"
        "from numpy.lib.stride_tricks import as_strided, sliding_window_view\n"
        "np.lib.stride_tricks.as_strided(x, (2,), (8,))\n"
        "sliding_window_view(x, 2)\n"
    )
    assert as_strided_uses(source) == [2, 3]


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


# the bench scripts read the library from outside it: these are the tracer's
# tables of library names and the tracer queries that take one
TRACER_TABLES = {"LABELS", "COUNTERS", "LOGGAMMA_BINDINGS", "special_cases"}
TRACER_QUERIES = {"count", "total"}


def bench_reads(source: str) -> set[tuple[str, str]]:
    """(module, attribute) pairs of the library that a bench script reads.

    Counted: attribute reads on a name bound by ``from kuznetsov_lab import
    m [as x]``, also inside string constants holding code for a child
    interpreter; the ``"module.name"`` keys and ``(module, name)`` entries of
    the tracer's tables; and ``"module.name[:label]"`` literals passed to
    ``tracer.count`` and ``tracer.total``.
    """
    tree = ast.parse(source)
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == PACKAGE:
            modules.update({a.asname or a.name: a.name for a in node.names})
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                reads.add((modules[node.value.id], node.attr))
        elif isinstance(node, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id in TRACER_TABLES for t in node.targets):
                table = node.value
                for key in table.keys if isinstance(table, ast.Dict) else table.elts:
                    value = ast.literal_eval(key)
                    reads.add(tuple(value.split(".", 1)) if isinstance(value, str) else value)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func, args = node.func, node.args
            if (
                func.attr in TRACER_QUERIES
                and isinstance(func.value, ast.Name)
                and func.value.id == "tracer"
                and args
                and isinstance(args[0], ast.Constant)
            ):
                reads.add(tuple(args[0].value.split(":")[0].split(".", 1)))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if f"from {PACKAGE} import" in node.value:
                reads |= bench_reads(node.value)
    return reads


def test_bench_reads_existing_library_names():
    # a refactor that drops one of these does not fail the benchmark: it
    # only zeroes a per-layer metric
    reads = set().union(*(bench_reads(p.read_text()) for p in (ROOT / "bench").glob("*.py")))
    missing = sorted(
        f"{module}.{attr}"
        for module, attr in reads
        if not hasattr(importlib.import_module(f"{PACKAGE}.{module}"), attr)
    )
    assert len(reads) > 20
    assert missing == []


def test_bench_scanner_sees_every_kind_of_read():
    source = (
        "from kuznetsov_lab import mellin, testfunctions as tf\n"
        "CHILD = 'from kuznetsov_lab import trace\\ntrace.kloosterman_sweep(3)'\n"
        "LABELS = {'mellin.mellin_recursive': None}\n"
        "LOGGAMMA_BINDINGS = (('special', '_loggamma'),)\n"
        "def install(self):\n"
        "    special_cases = {'quadrature.line_nodes': None}\n"
        "tf.itr_log(mellin.gl3_normalization())\n"
        "tracer.count('quadrature.vertical_line_integral')\n"
        "tracer.total('testfunctions.itr_log:T32')\n"
        "tracer.self_s.get('special.loggamma')\n"
        "other.attr\n"
    )
    assert bench_reads(source) == {
        ("mellin", "gl3_normalization"),
        ("mellin", "mellin_recursive"),
        ("quadrature", "line_nodes"),
        ("quadrature", "vertical_line_integral"),
        ("special", "_loggamma"),
        ("testfunctions", "itr_log"),
        ("trace", "kloosterman_sweep"),
    }


def readme_names(text: str) -> set[tuple[str, str]]:
    """(module, attribute) pairs of the library named as ``module.attr``,
    optionally package-qualified, inside the code spans of a Markdown text.
    Spans on other packages (``numpy.random``) are not the library's."""
    modules = {path.stem for path in LIBRARY}
    return {
        (module, attr)
        for span in re.findall(r"`([^`\n]+)`", text)
        for module, attr in re.findall(rf"(?<![\w.])(?:{PACKAGE}\.)?(\w+)\.([A-Za-z_]\w*)", span)
        if module in modules
    }


def test_readme_names_existing_library_names():
    # ROADMAP.md is history and names what a change removed; README.md
    # describes the library as it is
    names = readme_names((ROOT / "README.md").read_text())
    missing = sorted(
        f"{module}.{attr}"
        for module, attr in names
        if not hasattr(importlib.import_module(f"{PACKAGE}.{module}"), attr)
    )
    assert len(names) > 10
    assert missing == []


def test_readme_scanner_sees_library_spans_only():
    text = (
        "`trace.TailReport` and `trace.iwbounds_exponent(rho, comp)`, and\n"
        "`kuznetsov_lab.mellin.mellin_closed`; not `numpy.random.default_rng`,\n"
        "`python -m pytest`, testfunctions.itr_log outside a span, or `trace`\n"
    )
    assert readme_names(text) == {
        ("trace", "TailReport"),
        ("trace", "iwbounds_exponent"),
        ("mellin", "mellin_closed"),
    }


def defined_names(statement: ast.stmt) -> set[str]:
    """Names a top-level statement binds by ``def``, ``class`` or assignment."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return {t.id for t in targets if isinstance(t, ast.Name)}
    return set()


def public_names(source: str) -> set[str]:
    """Top-level names a module defines, less those with a leading ``_``."""
    names = set().union(*map(defined_names, ast.parse(source).body))
    return {name for name in names if not name.startswith("_")}


def library_reads(module: str, source: str) -> set[tuple[str, str]]:
    """(module, name) pairs of the package that the library module
    ``module`` reads: names it imports by ``from .m import name``,
    attributes it reads on a module bound by ``from . import m [as x]``,
    and its own top-level names loaded outside the statement that defines
    them (a function calling itself does not read itself)."""
    tree = ast.parse(source)
    modules, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                modules.update({a.asname or a.name: a.name for a in node.names})
            else:
                reads.update((node.module, a.name) for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                reads.add((modules[node.value.id], node.attr))
    public = public_names(source)
    for statement in tree.body:
        others = public - defined_names(statement)
        reads.update(
            (module, node.id)
            for node in ast.walk(statement)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in others
        )
    return reads


# public names no library module, README span or bench script reads, each
# kept for the work that will read it; the scan fails once one gains a
# reader, so it leaves this list when that work lands
UNREAD_KEPT = {
    "trace.KloostermanQuery": "item K: the GL(n) Kloosterman sums it queries",
    "trace.hecke_divisor_sum": "items Q and E': the Eisenstein weight tau_it(m) at its all-unit case",
    "special.bound_B_sharp": "item D: the report that sets it against bound_B",
    "combinatorics.even_odd_closed_form": "acceptance criterion 04",
    "special.verify_gamma_decompositions": "acceptance criterion 06",
}


def test_every_public_name_is_read():
    reads = readme_names((ROOT / "README.md").read_text())
    for path in LIBRARY:
        reads |= library_reads(path.stem, path.read_text())
    for path in (ROOT / "bench").glob("*.py"):
        reads |= bench_reads(path.read_text())
    unread = {
        f"{path.stem}.{name}"
        for path in LIBRARY
        for name in public_names(path.read_text())
        if (path.stem, name) not in reads
    }
    assert unread == set(UNREAD_KEPT)


def test_public_name_scanner_sees_every_kind_of_read():
    source = (
        "from . import mellin, trace as tr\n"
        "from .special import log_gamma\n"
        "LIMIT: int = 3\n"
        "TABLE = {}\n"
        "def _private(): pass\n"
        "def helper(n): return helper(n - 1) + LIMIT\n"
        "class Report:\n"
        "    def total(self): return Report(self.run)\n"
        "def run(): return tr.cuspidal_sum(mellin.mellin_closed, log_gamma, _private)\n"
    )
    assert public_names(source) == {"LIMIT", "TABLE", "helper", "Report", "run"}
    assert library_reads("suite", source) == {
        ("mellin", "mellin_closed"),
        ("special", "log_gamma"),
        ("suite", "LIMIT"),
        ("trace", "cuspidal_sum"),
    }


def integer_comparisons(source: str) -> list[str]:
    """Enclosing function of each comparison with an ``int(...)`` call as
    an operand, the hand-written form of the integer rule."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Compare) and any(
                isinstance(op, ast.Call) and isinstance(op.func, ast.Name) and op.func.id == "int"
                for op in (child.left, *child.comparators)
            ):
                found.append(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_integer_rule_stated_once():
    found = {
        path.stem: integer_comparisons(path.read_text())
        for path in LIBRARY
        if integer_comparisons(path.read_text())
    }
    assert found == {"combinatorics": ["require_integer"]}


def test_integer_scanner_sees_each_idiom():
    source = (
        "def f(x):\n"
        "    if x != int(x) or int(x) != x:\n"
        "        pass\n"
        "    return [v == int(v) for v in x]\n"
        "y = 1 < int('2')\n"
        "z = int(3) + 1 == 4\n"
    )
    assert integer_comparisons(source) == ["f", "f", "f", "<module>"]


def except_clauses(source: str) -> dict[str, list[str]]:
    """The exception types each function catches, by function name, as
    written in its ``except`` clauses (``<bare>`` for a bare ``except:``)."""
    found = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ExceptHandler):
                caught = ast.unparse(child.type) if child.type is not None else "<bare>"
                found.setdefault(owner, []).append(caught)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_cli_exit_rule_stated_once():
    # main alone catches, and catches every Exception: any fault exits 2
    source = (ROOT / "src" / PACKAGE / "cli.py").read_text()
    assert except_clauses(source) == {"main": ["Exception"]}


def test_except_scanner_sees_each_clause():
    source = (
        "def f(x):\n"
        "    try:\n"
        "        pass\n"
        "    except (ValueError, OSError):\n"
        "        def g():\n"
        "            try:\n"
        "                pass\n"
        "            except:\n"
        "                pass\n"
        "try:\n"
        "    pass\n"
        "except Exception as exc:\n"
        "    pass\n"
    )
    assert except_clauses(source) == {"f": ["(ValueError, OSError)"], "g": ["<bare>"], "<module>": ["Exception"]}

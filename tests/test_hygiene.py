"""Every name a module or test file imports is used in it, every name a
module exports is defined (no linter is installed) and read by the package
or the benchmark, and so is every public method and property of a package
class, importing the package loads none of its modules, importing the CLI
loads neither ``dataclasses`` nor ``inspect``, the CLI, the set-up and the
stepping path load no ``fractions`` and no ``__future__``, every record is
a ``model._Value`` (no ``NamedTuple``), no record's constructor only
forwards its parameters to ``_set``, and only ``model._Value._set``
bypasses its ``__setattr__``, every source file parses as Python 3.10,
every catalog formula reads only names it is given, and the package runs
on the standard library alone.  The test-side oracles keep the same import
rules."""

import ast
import importlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import ssp_seir
from ssp_seir.model import (
    FORMULA_NAMESPACE,
    INCIDENCE_KEYS,
    RECRUITMENT_KEYS,
    incidence_from_key,
    recruitment_from_key,
)

MODULES = sorted(Path(ssp_seir.__file__).parent.glob("*.py"))
# the oracles that only the tests call, held to the package's import rules
ORACLES = [Path(__file__).with_name(name) for name in ("butcher.py", "oracles.py")]


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize(
    "path", MODULES + sorted(Path(__file__).parent.glob("*.py")), ids=lambda path: path.name,
)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "name",
    [f"ssp_seir.{path.stem}" for path in MODULES if path.name != "__init__.py"]
    + [path.stem for path in ORACLES],
)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert [export for export in module.__all__ if not hasattr(module, export)] == []


def _read_names(tree: ast.AST, strings: bool = False):
    """The names a tree reads, once per read: loaded names, attributes and,
    with ``strings``, string constants (the benchmark's tracer names the
    functions it wraps)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _reads(tree: ast.AST, strings: bool = False) -> set:
    return set(_read_names(tree, strings))


def _bench_trees() -> list:
    root = Path(ssp_seir.__file__).resolve().parents[2]
    return [ast.parse(path.read_text()) for path in sorted((root / "perfbench").glob("*.py"))]


def _bound_names(node: ast.stmt) -> set:
    """The names a top-level statement defines; none for imports and code
    that runs, such as a ``__main__`` block."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def test_every_export_is_read_outside_its_definition():
    # src/ holds only what a command or the benchmark runs; an oracle that
    # only the tests call lives under tests/.  A definition's reads count
    # only while it is read itself, so a chain of definitions that only the
    # tests reach fails as a whole.
    statements, exports = [], {}
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            bound = _bound_names(node)
            if bound == {"__all__"}:
                exports[path.stem] = ast.literal_eval(node.value)
            else:
                statements.append((bound, _reads(node)))
    bench = set().union(*(_reads(tree, strings=True) for tree in _bench_trees()))
    assert bench
    defined = set().union(*(bound for bound, _ in statements))
    unread = set()
    while True:
        read = set(bench)
        for bound, names in statements:
            if not bound or not bound <= unread:
                read |= names - bound
        if defined - read == unread:
            break
        unread = defined - read
    assert [
        f"{stem}.{name}" for stem, names in exports.items() for name in names if name not in read
    ] == []


def test_every_public_method_is_read_outside_its_definition():
    # a method or property that only the tests read belongs under tests/
    reads, methods = Counter(), []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        reads.update(_read_names(tree))
        methods += [
            (f"{path.stem}.{cls.name}.{node.name}", node)
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        ]
    for tree in _bench_trees():
        reads.update(_read_names(tree, strings=True))
    assert len(methods) > 10
    assert [
        label for label, node in methods
        if reads[node.name] <= Counter(_read_names(node))[node.name]
    ] == []


def _forwarding_constructors(source: str) -> list[str]:
    """The classes whose ``__init__`` only hands its parameters, in order
    and with no default, to ``self._set``: the constructor ``_Value``
    already is."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if not (isinstance(node, ast.FunctionDef) and node.name == "__init__"):
                continue
            args = node.args
            params = [arg.arg for arg in args.posonlyargs + args.args]
            call = node.body[-1].value if isinstance(node.body[-1], ast.Expr) else None
            if (
                len(node.body) == 1 + (ast.get_docstring(node) is not None)
                and isinstance(call, ast.Call) and ast.unparse(call.func) == "self._set"
                and [ast.unparse(arg) for arg in call.args] == params[1:]
                and not (args.defaults or args.vararg or args.kwonlyargs or args.kwarg)
            ):
                found.append(cls.name)
    return found


_FORWARDER = """\
class Row(_Value):
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float) -> None:
        self._set(a, b)
"""


@pytest.mark.parametrize("path", MODULES + ORACLES, ids=lambda path: path.name)
def test_no_record_constructor_only_forwards_to_set(path):
    # a record without a rule for its values is built by _Value's own
    # constructor, so its fields are written once, in __slots__
    assert _forwarding_constructors(_FORWARDER) == ["Row"]
    assert _forwarding_constructors(_FORWARDER.replace("b: float)", "b: float = 0.0)")) == []
    assert _forwarding_constructors(path.read_text()) == []


def _setattr_sites(source: str) -> list[str]:
    """The functions, as ``Class.function``, that call ``object.__setattr__``."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + [child.name])
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "__setattr__"
                    and isinstance(child.value, ast.Name) and child.value.id == "object"):
                sites.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), [])
    return sites


def test_one_immutable_value_idiom():
    # every validated immutable type sets its fields through model._Value._set
    sites = {path.stem: _setattr_sites(path.read_text()) for path in MODULES}
    assert {stem: set(found) for stem, found in sites.items() if found} == {
        "model": {"_Value._set"},
    }
    naming = [path.stem for path in MODULES if "_immutable" in path.read_text()]
    assert naming == ["model"]


@pytest.mark.parametrize("path", MODULES + ORACLES, ids=lambda path: path.name)
def test_no_named_tuple_and_no_future_import(path):
    # a NamedTuple class costs 0.1-0.4 ms to build at import, and the first
    # ``from __future__`` import about 0.3 ms; records derive from _Value
    source = path.read_text()
    assert "NamedTuple" not in source
    futures = [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "__future__"
    ]
    assert futures == []


def _child_env() -> dict:
    """The environment of a child interpreter that imports this checkout."""
    src = str(Path(ssp_seir.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_importing_the_package_loads_none_of_its_modules():
    # a caller pays only for the modules it names
    code = "import sys, ssp_seir; print(sorted(m for m in sys.modules if m.startswith('ssp_seir.')))"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=_child_env(),
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "[]"


def _newly_loaded(code: str, names: set) -> list:
    """Which of ``names`` a child interpreter loads while it runs ``code``."""
    code = (
        "import sys; before = set(sys.modules)\n"
        f"{code}\n"
        f"print(sorted(set({sorted(names)!r}) & (set(sys.modules) - before)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=_child_env(),
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return ast.literal_eval(done.stdout.strip())


# the benchmark's whole set-up: the config loaded and the four forms built
_SET_UP = """\
from ssp_seir.config import load_config
from ssp_seir.shu_osher import BUILTIN_METHOD_KEYS, builtin_method
config = load_config(None)
methods = [builtin_method(key) for key in BUILTIN_METHOD_KEYS]"""


_NOT_AT_START_UP = {"fractions", "decimal", "dataclasses", "inspect", "__future__"}


@pytest.mark.parametrize("code", ["import ssp_seir.cli", _SET_UP], ids=["cli", "benchmark-set-up"])
def test_importing_loads_neither_dataclasses_nor_inspect(code):
    # together they cost about 10 ms of every command's start-up, and the
    # exact rationals of ``fractions`` (with ``decimal``), which only the
    # convergence slope fit imports, about 3 ms more; ``__future__`` about
    # 0.3 ms
    assert _newly_loaded(code, _NOT_AT_START_UP) == []


@pytest.mark.parametrize("module", ["stepping", "checks", "step_bounds", "reference"])
def test_the_stepping_path_loads_no_exact_rationals(module):
    # the builtin forms are float literals; only ``experiments._fit_slope``
    # and the exact Butcher oracle, which lives under tests/, use ``fractions``
    assert _newly_loaded(f"import ssp_seir.{module}", {"fractions", "decimal"}) == []


def test_every_source_file_parses_as_python_3_10():
    # best effort for the CI's 3.10 leg, which no interpreter here can run:
    # ``feature_version`` rejects newer syntax only, not newer library calls
    root = Path(ssp_seir.__file__).resolve().parents[2]
    paths = sorted((root / "src").rglob("*.py")) + sorted((root / "tests").rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


CATALOG = [incidence_from_key(key) for key in INCIDENCE_KEYS]
CATALOG += [recruitment_from_key(key) for key in RECRUITMENT_KEYS]


@pytest.mark.parametrize("entry", CATALOG, ids=lambda entry: entry.key)
def test_every_catalog_formula_reads_only_its_argument_and_parameters(entry):
    # a stray name would surface only as a NameError at the first step of a run
    assert set(FORMULA_NAMESPACE) == {"exp", "sin", "cos", "atan", "abs", "pi"}
    tree = ast.parse(entry.formula, mode="eval")
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert names - FORMULA_NAMESPACE.keys() - {"x"} == entry.params.keys()


def _imported_modules(source: str) -> list[str]:
    """Top-level module names of the absolute imports (relative ones are the
    package's own)."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", MODULES + ORACLES, ids=lambda path: path.name)
def test_imports_only_the_standard_library(path):
    foreign = [
        name for name in _imported_modules(path.read_text())
        if name != "ssp_seir" and name not in sys.stdlib_module_names
    ]
    assert foreign == []


# every subcommand, run in one child process in which ``import numpy`` fails
_WITHOUT_NUMPY = """\
import sys
sys.modules["numpy"] = None
from ssp_seir.cli import main
config, out = sys.argv[1:]
for argv in (
    ["default-config"],
    ["--config", config, "bounds-table"],
    ["simulate", "--method", "ssprk33", "--tau", "0.5", "--tf", "20", "--stages", "--strict"],
    ["convergence", "--tf", "10"],
    ["counterexample"],
    ["check", "--configs", "2"],
):
    code = main(["--out", out, *argv])
    if code != 0:
        sys.exit(f"{argv[-1]} exited {code}")
assert sys.modules["numpy"] is None
"""


def test_every_command_runs_without_numpy(tmp_path):
    from ssp_seir.config import DEFAULT_CONFIG_TEXT

    config = tmp_path / "short.cfg"
    config.write_text(
        DEFAULT_CONFIG_TEXT.replace("tf=1000.0", "tf=50.0").replace("bisect_tol=1e-4", "bisect_tol=1e-2")
    )
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, str(config), str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=_child_env(),
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    for name in ("bounds_table.csv", "trajectory.csv", "convergence_slopes.csv",
                 "counterexample.csv"):
        assert (tmp_path / name).stat().st_size > 0

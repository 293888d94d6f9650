"""Source-level rules every module of the package keeps.

No handler may swallow every error: a bare ``except`` or ``except
Exception`` hides the faults the exactness contracts are there to catch.
And no module imports ``scipy.spatial``: the diameter is exact by the
line-extreme rule and needs no convex hull.  ``scipy.ndimage`` is imported
only by the distance kernel's fallback in ``grid.py``, which loads its
compiled extension by itself, so no process pays for the package around it.
No module imports ``scipy.sparse`` (``csgraph`` included): the max-flow is
the numpy preflow, and the Dinic branch and solver fallback that imported
it are deleted.

The command line states each choice set once: every ``--shape`` name and
every ``--kind`` value is one string literal in ``cli.py``.  Subcommand
names (``flatnorm``) and the keys of written JSON (``regions``) are other
vocabularies and not counted.

The coverage verdict has one kernel: ``montecarlo.py`` calls the distance
transform at one site, inside ``_covered_counts``, so neither the witness
step nor the sample-count ladder forks a second verdict.

A hypothesis violation derives its margin from the one relation token of
its inequality text, so no raise site passes a ``margin=`` of its own, and
every literal inequality text names exactly one relation.

Every module under ``src/`` and ``tests/`` parses as the oldest Python that
``pyproject.toml`` admits, so syntax only a later Python accepts fails here
and not on the first interpreter at that floor.  A parse cannot see what
3.11 added inside strings and libraries, so two more rules hold for
``src/``: no ``re`` pattern literal uses an atomic group or a possessive
quantifier, and no module names a module, function or class that 3.11
added.

Each artifact format is stated once: the ``covergeo/v1`` schema tag is one
literal, one function compares a netpbm magic (``_netpbm_header``), one
opens a file to write bytes (``_write_raster``), one holds the ``<svg``
envelope (``render._document``), and ``cli.py`` writes JSON only through
``partition.table_json``, never with an indented ``json.dumps`` of its own.
"""

import argparse
import ast
import pathlib
import re

import pytest

import covergeo
from covergeo import cli, errors

SOURCES = sorted(pathlib.Path(covergeo.__file__).parent.glob("*.py"))
ROOT = pathlib.Path(__file__).resolve().parent.parent
PYTHON_FLOOR = (3, 10)


def _catches_everything(handler: ast.ExceptHandler) -> bool:
    caught = handler.type
    if caught is None:
        return True
    names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
    return any(isinstance(n, ast.Name) and n.id in ("Exception", "BaseException") for n in names)


def _imports_scipy(node: ast.AST, package: str) -> bool:
    """Whether ``node`` imports ``scipy.<package>`` or one of its modules."""
    full = f"scipy.{package}"
    parent, _, leaf = full.rpartition(".")
    if isinstance(node, ast.Import):
        return any(a.name == full or a.name.startswith(full + ".") for a in node.names)
    if isinstance(node, ast.ImportFrom) and node.module:
        if node.module == full or node.module.startswith(full + "."):
            return True
        return node.module == parent and any(a.name == leaf for a in node.names)
    return False


def _by_function(tree: ast.AST, matches) -> list[tuple[int, str | None]]:
    """(line, enclosing function or None) of every node that ``matches`` accepts."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if matches(child):
                found.append((child.lineno, function))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else function)

    visit(tree, None)
    return found


def _imports_by_function(tree: ast.AST, package: str) -> list[tuple[int, str | None]]:
    """(line, enclosing function or None) of every import of ``scipy.<package>``."""
    return _by_function(tree, lambda node: _imports_scipy(node, package))


def _parse(path: pathlib.Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"grid.py", "partition.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_catch_all_handler_and_no_scipy_spatial(path):
    tree = _parse(path)
    offenders = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.ExceptHandler) and _catches_everything(node))
        or _imports_scipy(node, "spatial")
    ]
    assert offenders == [], f"{path.name}: lines {offenders}"


def _imports_outside(path: pathlib.Path, package: str, home: str, *functions: str) -> list[int]:
    """Lines of ``path`` that import ``scipy.<package>`` anywhere but in the
    named ``functions`` of the module named ``home``."""
    allowed = set(functions) if path.name == home else set()
    imports = _imports_by_function(_parse(path), package)
    return [line for line, function in imports if function not in allowed]


def _importing_functions(home: str, package: str) -> list[str | None]:
    home_py = next(p for p in SOURCES if p.name == home)
    return [function for _, function in _imports_by_function(_parse(home_py), package)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_scipy_ndimage_only_in_the_kernel_fallback(path):
    offenders = _imports_outside(path, "ndimage", "grid.py", "_public_feature_transform")
    assert offenders == [], f"{path.name}: lines {offenders}"


def test_the_fallback_imports_scipy_ndimage():
    assert _importing_functions("grid.py", "ndimage") == ["_public_feature_transform"]


# The max-flow is the numpy preflow alone: the Dinic branch (the CSR
# packing, the ``_flow`` loader and its check) and the solver fallback are
# deleted, so no function may import ``scipy.sparse`` or its ``csgraph``.
DINIC_BRANCH = ()
SOLVER_FALLBACK = ()

# How the deleted branch loaded scipy.sparse, one site a line.
DINIC_SITES = """\
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow as solve
solve = _load_extension("sparse.csgraph", "_flow").maximum_flow
import scipy.sparse.csgraph._flow
from scipy import sparse
"""


def _loads_scipy_sparse(node: ast.AST) -> bool:
    """Whether ``node`` imports ``scipy.sparse``, or loads one of its
    extensions by itself through ``_load_extension``."""
    return _imports_scipy(node, "sparse") or (
        isinstance(node, ast.Call) and _callee(node) == "_load_extension"
        and any(isinstance(a, ast.Constant) and str(a.value).startswith("sparse") for a in node.args))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_scipy_csgraph_only_in_the_solver_fallback(path):
    offenders = _imports_outside(path, "sparse.csgraph", "flatnorm.py", *SOLVER_FALLBACK)
    assert offenders == [], f"{path.name}: lines {offenders}"


def test_the_fallback_imports_scipy_csgraph():
    # the rule sees the fallback's import in each spelling, and not the
    # rest of scipy.sparse
    tree = ast.parse(DINIC_SITES)
    lines = [line for line, _ in _imports_by_function(tree, "sparse.csgraph")]
    assert lines == [2, 4]
    assert _importing_functions("flatnorm.py", "sparse.csgraph") == list(SOLVER_FALLBACK)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_scipy_sparse_only_in_the_dinic_branch(path):
    tree = _parse(path)
    allowed = set(DINIC_BRANCH) if path.name == "flatnorm.py" else set()
    offenders = [line for line, function in _by_function(tree, _loads_scipy_sparse) if function not in allowed]
    assert offenders == [], f"{path.name}: lines {offenders}"


def test_the_dinic_branch_imports_scipy_sparse():
    # the rule flags every way the deleted branch loaded scipy.sparse
    tree = ast.parse(DINIC_SITES)
    assert [line for line, _ in _by_function(tree, _loads_scipy_sparse)] == [1, 2, 3, 4, 5]
    flatnorm_py = next(p for p in SOURCES if p.name == "flatnorm.py")
    assert [f for _, f in _by_function(_parse(flatnorm_py), _loads_scipy_sparse)] == list(DINIC_BRANCH)


VIOLATION_KINDS = {
    name
    for name, kind in vars(errors).items()
    if isinstance(kind, type) and issubclass(kind, errors.HypothesisViolation)
}


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _calls(path: pathlib.Path) -> list[ast.Call]:
    return [node for node in ast.walk(_parse(path)) if isinstance(node, ast.Call)]


def _inequality_texts(path: pathlib.Path) -> list[tuple[int, str]]:
    """(line, text) of every literal inequality text: the ``inequality=``
    keyword of any call and the inequality argument of a ``check`` call."""
    found = []
    for call in _calls(path):
        texts = [k.value for k in call.keywords if k.arg == "inequality"]
        if _callee(call) == "check" and len(call.args) > 1:
            texts.append(call.args[1])
        found += [(t.lineno, t.value) for t in texts if isinstance(t, ast.Constant)]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_violation_passes_a_margin(path):
    offenders = [
        call.lineno
        for call in _calls(path)
        if _callee(call) in VIOLATION_KINDS and any(k.arg == "margin" for k in call.keywords)
    ]
    assert offenders == [], f"{path.name}: lines {offenders}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_inequality_texts_have_one_relation_token(path):
    offenders = [
        (line, text)
        for line, text in _inequality_texts(path)
        if len(re.findall(r"<=|>=|<|>", text)) != 1
    ]
    assert offenders == [], f"{path.name}: {offenders}"


def test_every_gate_names_its_inequality():
    # eleven gates call ``check``; the empty-erosion error is built directly
    assert sum(len(_inequality_texts(path)) for path in SOURCES) == 12


def _choices(command: str, dest: str) -> list[str]:
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    (option,) = [a for a in commands.choices[command]._actions if a.dest == dest]
    return list(option.choices)


def _cli_literals() -> list[str]:
    """String literals of ``cli.py``, less the subcommand names given to
    ``add_parser`` and the dict keys inside ``_dump_json`` calls."""
    tree = _parse(next(p for p in SOURCES if p.name == "cli.py"))
    skipped = set()
    for call in ast.walk(tree):
        if isinstance(call, ast.Call) and _callee(call) == "add_parser" and call.args:
            skipped.add(id(call.args[0]))
        elif isinstance(call, ast.Call) and _callee(call) == "_dump_json":
            for node in ast.walk(call):
                if isinstance(node, ast.Dict):
                    skipped.update(id(key) for key in node.keys)
    return [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and id(node) not in skipped
    ]


@pytest.mark.parametrize("command,dest", [("shape", "shape"), ("bound", "kind")])
def test_cli_states_each_choice_once(command, dest):
    choices = _choices(command, dest)
    assert len(choices) >= 4
    literals = _cli_literals()
    assert {name: literals.count(name) for name in choices} == dict.fromkeys(choices, 1)


def test_one_verdict_kernel():
    montecarlo_py = next(p for p in SOURCES if p.name == "montecarlo.py")
    sites = _by_function(
        _parse(montecarlo_py),
        lambda node: isinstance(node, ast.Call) and _callee(node) == "_edt_sq",
    )
    assert [function for _, function in sites] == ["_covered_counts"]


def test_python_floor_is_the_declared_one():
    declared = re.search(r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    assert tuple(map(int, declared.groups())) == PYTHON_FLOOR


@pytest.mark.parametrize(
    "path",
    sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")),
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_parses_at_the_python_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=PYTHON_FLOOR)


def _pattern_literals(path: pathlib.Path) -> list[tuple[int, str]]:
    """(line, text) of every literal pattern given to a function of ``re``."""
    found = []
    for call in _calls(path):
        func = call.func
        if not (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id == "re"):
            continue
        given = call.args[:1] + [k.value for k in call.keywords if k.arg == "pattern"]
        for node in given:
            if isinstance(node, ast.Constant) and isinstance(node.value, (str, bytes)):
                text = node.value
                found.append((node.lineno, text.decode("latin-1") if isinstance(text, bytes) else text))
    return found


def _atomic_or_possessive(pattern: str) -> bool:
    """Whether ``pattern`` has an atomic group ``(?>...)`` or a possessive
    quantifier (``*+``, ``++``, ``?+``, ``}+``), which only 3.11 accepts."""
    plain = re.sub(r"\\.", "x", pattern, flags=re.S)  # an escaped character is a literal
    plain = re.sub(r"\[\^?\]?[^\]]*\]", "x", plain)  # and so is a character class
    return re.search(r"\(\?>|[*+?}]\+", plain) is not None


def test_the_311_pattern_rule_tells_them_apart():
    for pattern in ["(?>ab)c", "a*+", "a++b", "a?+", "a{2}+", "x(?>y|z)"]:
        assert _atomic_or_possessive(pattern), pattern
    for pattern in [r"<=|>=|<|>", r"\++", r"[*+]+", "a+?", "a*?b", r"(?:ab)+", r"[?]+", r"\(?>"]:
        assert not _atomic_or_possessive(pattern), pattern


def test_no_311_only_pattern_syntax():
    literals = {path.name: _pattern_literals(path) for path in SOURCES}
    # the rule sees the one pattern src/ has, so it is not vacuous
    assert [text for found in literals.values() for _, text in found] == [r"<=|>=|<|>"]
    offenders = [(name, line, text) for name, found in literals.items()
                 for line, text in found if _atomic_or_possessive(text)]
    assert offenders == []


# what 3.11 added: (module, name), None for a whole module, builtins for a
# bare name
PY311_NAMES = {
    ("tomllib", None),
    ("datetime", "UTC"),
    ("enum", "StrEnum"),
    ("typing", "Self"),
    ("builtins", "ExceptionGroup"),
    ("builtins", "BaseExceptionGroup"),
    ("asyncio", "TaskGroup"),
    ("hashlib", "file_digest"),
    ("operator", "call"),
}


def _py311_names(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, dotted name) of every use in ``tree`` of a name in ``PY311_NAMES``."""
    modules = {}  # local name -> the module an import binds it to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((a.asname or a.name, a.name) for a in node.names)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            used = [(a.name, None) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            used = [(node.module, None)] + [(node.module, a.name) for a in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            used = [(modules.get(node.value.id, node.value.id), node.attr)]
        elif isinstance(node, ast.Name):
            used = [("builtins", node.id)]
        else:
            continue
        found += [(node.lineno, ".".join(filter(None, u))) for u in used if u in PY311_NAMES]
    return found


def test_the_311_name_rule_sees_every_spelling():
    code = (
        "import tomllib\n"
        "import datetime as dt\n"
        "from enum import StrEnum\n"
        "import hashlib, operator\n"
        "def f(x):\n"
        "    raise ExceptionGroup('m', [x])\n"
        "print(dt.UTC, hashlib.file_digest, operator.call, hashlib.sha256)\n"
    )
    assert sorted(name for _, name in _py311_names(ast.parse(code))) == [
        "builtins.ExceptionGroup", "datetime.UTC", "enum.StrEnum",
        "hashlib.file_digest", "operator.call", "tomllib",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_311_only_names(path):
    assert _py311_names(_parse(path)) == []


NETPBM_MAGICS = {"P1", "P4", "P5", b"P1", b"P4", b"P5"}


def _holds(node: ast.AST, text: str) -> bool:
    """Whether ``node`` is a str or bytes literal that holds ``text``."""
    value = node.value if isinstance(node, ast.Constant) else None
    if isinstance(value, bytes):
        value = value.decode("latin-1")
    return isinstance(value, str) and text in value


def _compares_a_magic(node: ast.AST) -> bool:
    """Whether ``node`` is a comparison with a netpbm magic literal on
    either side, alone or in a tuple, list or set."""
    if not isinstance(node, ast.Compare):
        return False
    sides = [node.left, *node.comparators]
    sides += [e for s in sides if isinstance(s, (ast.Tuple, ast.List, ast.Set)) for e in s.elts]
    return any(isinstance(s, ast.Constant) and s.value in NETPBM_MAGICS for s in sides)


def _indented_dumps(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and _callee(node) == "dumps"
            and any(k.arg == "indent" for k in node.keywords))


def _binary_writes(node: ast.AST) -> bool:
    """Whether ``node`` is an ``open`` call with a literal mode that writes bytes."""
    if not (isinstance(node, ast.Call) and _callee(node) == "open"):
        return False
    modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
    return any(isinstance(m, ast.Constant) and "b" in m.value and "w" in m.value for m in modes)


def _sites(matches) -> list[tuple[str, str | None]]:
    """(module, enclosing function) of every node under ``src/`` that ``matches`` accepts."""
    return [(path.name, function) for path in SOURCES
            for _, function in _by_function(_parse(path), matches)]


def test_the_format_rules_see_every_spelling():
    code = (
        "import json\n"
        "S = 'covergeo/v1'\n"
        "def f(d):\n"
        "    text = f'schema=covergeo/v1\\n{d}'\n"
        "    if d[:2] == b'P4' or d[:2] in (b'P1', b'P5') or 'P5' != d:\n"
        "        open(d, 'wb').write(b'P4 ' + d)\n"
        "    return json.dumps(d, indent=2), {b'P4': 1}[d], f'P5\\n{d}', open(d, mode='rb')\n"
        "def g(d):\n"
        "    with open(d, 'w') as fh:\n"
        "        fh.write(json.dumps(d, sort_keys=True))\n"
    )
    tree = ast.parse(code)
    assert _by_function(tree, lambda node: _holds(node, "covergeo/v1")) == [(2, None), (4, "f")]
    # P4 is a literal on three lines, but only line 5 compares a magic
    assert [line for line, _ in _by_function(tree, lambda node: _holds(node, "P4"))] == [5, 6, 7]
    assert [line for line, _ in _by_function(tree, _compares_a_magic)] == [5, 5, 5]
    assert _by_function(tree, _binary_writes) == [(6, "f")]
    assert _by_function(tree, _indented_dumps) == [(7, "f")]


def test_one_schema_literal():
    assert _sites(lambda node: _holds(node, "covergeo/v1")) == [("grid.py", None)]


def test_one_netpbm_header_reader():
    assert set(_sites(_compares_a_magic)) == {("grid.py", "_netpbm_header")}


def test_one_raster_writer():
    assert _sites(_binary_writes) == [("grid.py", "_write_raster")]


def test_one_svg_envelope():
    assert _sites(lambda node: _holds(node, "<svg")) == [("render.py", "_document")]


def test_cli_writes_json_only_through_table_json():
    cli_py = next(p for p in SOURCES if p.name == "cli.py")
    tree = _parse(cli_py)
    assert _by_function(tree, _indented_dumps) == []
    calls = _by_function(tree, lambda node: isinstance(node, ast.Call) and _callee(node) == "table_json")
    assert [function for _, function in calls] == ["_dump_json"]

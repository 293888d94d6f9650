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

A partition's regions are one table of columns from the build to the
certificate text: a dict literal with an ``"id"`` key (one region's row)
is built in ``partition.py`` only in ``region_table``, the JSON-ready
regions document, and no module defines a per-region ``RegionRecord``
class.  The certificate is spelled from its table.

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

Only ``cli.run``, the process entry, writes to ``sys.modules`` (it blocks
OpenSSL's ``_hashlib``), so no library module and nothing that importing
``covergeo.cli`` or calling ``cli.main`` runs changes what a caller imports.
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


ROW_SITES = {"region_table"}


def _row_dict(node: ast.AST) -> bool:
    """Whether ``node`` is a dict literal with an ``"id"`` key."""
    return isinstance(node, ast.Dict) and any(
        isinstance(key, ast.Constant) and key.value == "id" for key in node.keys)


def test_region_rows_only_at_the_json_boundary():
    partition_py = next(p for p in SOURCES if p.name == "partition.py")
    assert {function for _, function in _by_function(_parse(partition_py), _row_dict)} == ROW_SITES
    records = [(path.name, node.lineno) for path in SOURCES for node in ast.walk(_parse(path))
               if isinstance(node, ast.ClassDef) and node.name == "RegionRecord"]
    assert records == []


def test_the_row_rule_flags_a_row_built_in_certify_good():
    code = (
        "def certify_good(p):\n"
        "    rows = [{'id': r.id, 'measure': r.measure} for r in p.regions]\n"
        "    return {'kind': 'good-partition', **{'regions': rows}}\n"
    )
    assert _by_function(ast.parse(code), _row_dict) == [(2, "certify_good")]


def test_the_row_rule_flags_a_row_built_in_certificate_json():
    code = (
        "def certificate_json(cert):\n"
        "    rows = [{'diam_cap': cap, 'id': i} for i in cert.region_rows.id.tolist()]\n"
        "    return table_json({'regions': rows})\n"
    )
    assert _by_function(ast.parse(code), _row_dict) == [(2, "certificate_json")]


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


SYS_MODULES_METHODS = {"pop", "popitem", "setdefault", "update", "clear", "__setitem__", "__delitem__"}


def _is_sys_modules(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "modules"
            and isinstance(node.value, ast.Name) and node.value.id == "sys")


def _writes_sys_modules(node: ast.AST) -> bool:
    """Whether ``node`` stores into, deletes from, rebinds or calls a
    mutating method of ``sys.modules``."""
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
        return _is_sys_modules(node.value)
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
        return _is_sys_modules(node)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in SYS_MODULES_METHODS and _is_sys_modules(node.func.value))


def test_the_sys_modules_rule_sees_every_spelling():
    code = (
        "import sys\n"
        "def f(m):\n"
        "    sys.modules['_hashlib'] = None\n"
        "    del sys.modules[m]\n"
        "    sys.modules.pop(m, None), sys.modules.setdefault(m, None)\n"
        "    sys.modules.update({m: None})\n"
        "    sys.modules = {}\n"
        "    return sys.modules.get(m), m in sys.modules, sys.modules[m]\n"
    )
    assert [line for line, _ in _by_function(ast.parse(code), _writes_sys_modules)] == [3, 4, 5, 5, 6, 7]


def test_the_sys_modules_rule_flags_a_write_in_montecarlo():
    montecarlo_py = next(p for p in SOURCES if p.name == "montecarlo.py")
    tree = _parse(montecarlo_py)
    assert _by_function(tree, _writes_sys_modules) == []
    rng = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_rng")
    rng.body.insert(0, ast.parse("sys.modules['_hashlib'] = None").body[0])
    assert [function for _, function in _by_function(tree, _writes_sys_modules)] == ["_rng"]


def test_only_cli_run_writes_sys_modules():
    assert _sites(_writes_sys_modules) == [("cli.py", "run")]


# Defaulted parameters that no call in ``src/`` sets, each with why it stays.
KNOBS_WITHOUT_CALLER = {
    "cli.main(argv)": "in-process callers pass the arguments; the console entry reads sys.argv",
    "grid.distance_transform(from_complement)":
        "the only public route to the complement's distances: a GridSet of the complement touches the rim",
    "montecarlo.sample_uniform(trial)": "the key that reproduces one Monte Carlo trial's draw",
    "shapes.disk_minus_box(hole_h)": "a non-square hole, as in the disk_minus_box(100, 30, 20) measurement",
    "shapes.disk_minus_cross(h)": "the cell size of a library-only shape",
    "shapes.ball3(h)": "the cell size of a library-only shape",
}


def _functions(tree: ast.AST):
    """(enclosing class or None, function) of every function in ``tree``."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((owner, child))
                visit(child, None)
            else:
                visit(child, child.name if isinstance(child, ast.ClassDef) else None)

    visit(tree, None)
    return found


def _defaulted(function: ast.FunctionDef) -> list[tuple[int | None, str]]:
    """(position, or None when keyword-only; name) of every defaulted parameter."""
    args = function.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    found = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
    return found + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def _passes(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether ``call`` may set the parameter at ``position`` called ``name``."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return True
    return any(k.arg == name for k in call.keywords) or (position is not None and len(call.args) > position)


def _unset_knobs(modules: dict[str, ast.AST]) -> list[str]:
    """``module.function(parameter)`` of every defaulted parameter that no
    call in ``modules`` passes.  A call is matched by the name it calls, and
    ``Class(...)`` calls ``Class.__init__``; a method's call does not pass
    ``self`` or ``cls``."""
    calls = [node for tree in modules.values() for node in ast.walk(tree) if isinstance(node, ast.Call)]
    unset = []
    for module, tree in modules.items():
        for owner, function in _functions(tree):
            name = owner if owner and function.name == "__init__" else function.name
            static = any(getattr(d, "id", None) == "staticmethod" for d in function.decorator_list)
            shift = 1 if owner and not static else 0
            for position, param in _defaulted(function):
                at = None if position is None else position - shift
                if not any(_callee(c) == name and _passes(c, at, param) for c in calls):
                    unset.append(f"{module}.{function.name}({param})")
    return unset


def test_no_knob_without_a_caller():
    modules = {path.stem: _parse(path) for path in SOURCES}
    assert sorted(_unset_knobs(modules)) == sorted(KNOBS_WITHOUT_CALLER)


def test_the_knob_rule_sees_every_spelling():
    shape = "def disk(radius, h=1.0, pad_cells=2):\n    return radius\n"
    assert _unset_knobs({"shapes": ast.parse(shape)}) == ["shapes.disk(h)", "shapes.disk(pad_cells)"]
    for caller, unset in [
        ("disk(1.0, 0.5)", ["shapes.disk(pad_cells)"]),
        ("disk(1.0, pad_cells=3)", ["shapes.disk(h)"]),
        ("disk(*sizes)", []),
        ("disk(1.0, **sizes)", []),
        ("other(1.0, 0.5, 3)", ["shapes.disk(h)", "shapes.disk(pad_cells)"]),
    ]:
        assert _unset_knobs({"shapes": ast.parse(shape), "cli": ast.parse(caller)}) == unset, caller
    grid = "class Grid:\n    def __init__(self, mask, h=1.0, *, origin=None):\n        pass\n"
    assert _unset_knobs({"grid": ast.parse(grid + "Grid(m, 2.0)")}) == ["grid.__init__(origin)"]
    assert _unset_knobs({"grid": ast.parse(grid + "Grid(m, origin=o)")}) == ["grid.__init__(h)"]

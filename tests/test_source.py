"""Source-level rules every module of the package keeps.

No handler may swallow every error: a bare ``except`` or ``except
Exception`` hides the faults the exactness contracts are there to catch.
And no module imports ``scipy.spatial``: the diameter is exact by the
line-extreme rule and needs no convex hull.
"""

import ast
import pathlib

import pytest

import covergeo

SOURCES = sorted(pathlib.Path(covergeo.__file__).parent.glob("*.py"))


def _catches_everything(handler: ast.ExceptHandler) -> bool:
    caught = handler.type
    if caught is None:
        return True
    names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
    return any(isinstance(n, ast.Name) and n.id in ("Exception", "BaseException") for n in names)


def _imports_scipy_spatial(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.startswith("scipy.spatial") for a in node.names)
    if isinstance(node, ast.ImportFrom) and node.module:
        if node.module.startswith("scipy.spatial"):
            return True
        return node.module == "scipy" and any(a.name == "spatial" for a in node.names)
    return False


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"grid.py", "partition.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_catch_all_handler_and_no_scipy_spatial(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    offenders = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.ExceptHandler) and _catches_everything(node))
        or _imports_scipy_spatial(node)
    ]
    assert offenders == [], f"{path.name}: lines {offenders}"

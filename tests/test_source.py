"""Source-level rules every module of the package keeps.

No handler may swallow every error: a bare ``except`` or ``except
Exception`` hides the faults the exactness contracts are there to catch.
And no module imports ``scipy.spatial``: the diameter is exact by the
line-extreme rule and needs no convex hull.  ``scipy.ndimage`` is imported
only by the distance kernel's fallback in ``grid.py``: the kernel loads the
compiled extension by itself, so no process pays for the package.
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


def _imports_scipy(node: ast.AST, package: str) -> bool:
    """Whether ``node`` imports ``scipy.<package>`` or one of its modules."""
    full = f"scipy.{package}"
    if isinstance(node, ast.Import):
        return any(a.name == full or a.name.startswith(full + ".") for a in node.names)
    if isinstance(node, ast.ImportFrom) and node.module:
        if node.module == full or node.module.startswith(full + "."):
            return True
        return node.module == "scipy" and any(a.name == package for a in node.names)
    return False


def _imports_by_function(tree: ast.AST, package: str) -> list[tuple[int, str | None]]:
    """(line, enclosing function or None) of every import of ``scipy.<package>``."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if _imports_scipy(child, package):
                found.append((child.lineno, function))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else function)

    visit(tree, None)
    return found


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_scipy_ndimage_only_in_the_kernel_fallback(path):
    allowed = {"_public_feature_transform"} if path.name == "grid.py" else set()
    imports = _imports_by_function(_parse(path), "ndimage")
    offenders = [line for line, function in imports if function not in allowed]
    assert offenders == [], f"{path.name}: lines {offenders}"


def test_the_fallback_imports_scipy_ndimage():
    grid_py = next(p for p in SOURCES if p.name == "grid.py")
    imports = _imports_by_function(_parse(grid_py), "ndimage")
    assert [function for _, function in imports] == ["_public_feature_transform"]

"""Source hygiene: no unused imports in the package, no import inside a
function, and no module reaches into another through private names."""

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parents[1] / "src" / "qorder"


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _bound_names(node):
    for alias in node.names:
        yield alias.asname or alias.name.split(".")[0]


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for name in _bound_names(node):
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:  # names re-exported through __all__ count as used
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    problems = [
        f"{path.name}:{line} {name}"
        for path in sorted(PKG.glob("*.py"))
        if path.name != "__init__.py"  # its imports are the package's public names
        for line, name in _unused_imports(_tree(path))
    ]
    assert problems == []


def test_no_function_level_imports():
    problems = [
        f"{path.name}:{node.lineno} in {fn.name}"
        for path in sorted(PKG.glob("*.py"))
        for fn in ast.walk(_tree(path))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert problems == []


def _private_imports(path):
    """Underscore names imported from another qorder module."""
    return [
        f"{path.name}: {node.module}.{alias.name}"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("qorder"))
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_cli_imports_no_private_names():
    assert _private_imports(PKG / "cli.py") == []


def test_no_module_imports_private_names():
    assert [p for path in sorted(PKG.glob("*.py")) for p in _private_imports(path)] == []

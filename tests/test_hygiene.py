"""Source hygiene: no unused imports in the package, no import inside a
function, no module reaches into another through private names (imported or
read through the module object), no private module-level function or class
is left unreferenced, every public name a module lists in ``__all__`` exists,
and every public function or class it lists there is read by the package or
is a documented entry point; the limit extrapolation and the segmentation
read no model attribute; the CLI and aging read no grid profile array;
importing the CLI loads no scipy."""

import ast
import importlib
import os
import subprocess
import sys
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


def _module_names(tree):
    """Names a module binds to other qorder modules: ``from . import oracle``,
    ``from . import aging as aging_mod``, ``import qorder.oracle``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            (node.level and not node.module) or node.module == "qorder"
        ):
            names |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            names |= {alias.asname or alias.name.split(".")[0] for alias in node.names
                      if alias.name.split(".")[0] == "qorder"}
    return names


def _private_reads(path):
    """Underscore names read through another qorder module's object, as ``oracle._x``."""
    tree = _tree(path)
    modules = _module_names(tree)
    problems = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            continue
        base = node.value
        while isinstance(base, ast.Attribute):  # qorder.oracle._x
            base = base.value
        if isinstance(base, ast.Name) and base.id in modules:
            problems.append((node.lineno, f"{path.name}:{node.lineno} {ast.unparse(node)}"))
    return [text for _, text in sorted(problems)]


def test_cli_imports_no_private_names():
    assert _private_imports(PKG / "cli.py") == []


def test_no_module_imports_private_names():
    assert [p for path in sorted(PKG.glob("*.py")) for p in _private_imports(path)] == []


def test_no_module_reads_private_names_of_another():
    assert [p for path in sorted(PKG.glob("*.py")) for p in _private_reads(path)] == []


def test_a_private_read_through_a_module_object_is_caught(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text("from . import oracle\nimport qorder.shape\nfrom .oracle import quadrature\n"
                   "a = oracle._panel_nodes(x)\nb = qorder.shape._FLAT_REL\n"
                   "c = oracle.__name__\nd = quadrature._x\ne = self._cache\n")
    assert _private_reads(src) == ["probe.py:4 oracle._panel_nodes", "probe.py:5 qorder.shape._FLAT_REL"]


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _unreferenced(paths, wanted):
    """Functions and classes defined at module level, for which ``wanted(name,
    module tree)`` holds, that no other top-level statement of the given
    modules names, as a name or an attribute."""
    defs, refs = [], []
    for path in paths:
        tree = _tree(path)
        for node in tree.body:
            if isinstance(node, _DEFS) and wanted(node.name, tree):
                defs.append((path.name, node))
            refs.append((node, {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                         | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}))
    return [f"{name}:{d.lineno} {d.name}" for name, d in defs
            if not any(d.name in names for node, names in refs if node is not d)]


def _unreferenced_private_defs(paths):
    """Underscore functions and classes that nothing else in the modules names."""
    return _unreferenced(paths, lambda name, tree: name.startswith("_")
                         and not name.startswith("__"))


def _listed_in_all(tree):
    return {elt.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for elt in node.value.elts}


def _unreferenced_public_defs(paths):
    """Functions and classes a module lists in ``__all__`` that nothing else in
    the modules names."""
    return _unreferenced(paths, lambda name, tree: name in _listed_in_all(tree))


def test_every_private_def_is_referenced():
    assert _unreferenced_private_defs(sorted(PKG.glob("*.py"))) == []


def test_an_unreferenced_private_def_is_caught(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text("def _used():\n    pass\n\n\ndef _self_only():\n    return _self_only()\n\n\n"
                   "class _Row:\n    pass\n\n\nRULES = {'a': _Row}\nx = mod._used\n")
    assert _unreferenced_private_defs([src]) == ["probe.py:5 _self_only"]


# public names no package code names, each with the reason it stays; the _RULES lookup
# runs at call time so that a wrapper patched onto the module attribute is the one called
ENTRY_POINTS = {
    "deltas.py delta_qmit": "orders._RULES names it by string, for getattr(deltas, ...)",
    "deltas.py delta_dmrl": "orders._RULES names it by string, for getattr(deltas, ...)",
}


def test_every_public_def_is_referenced_or_an_entry_point():
    # __init__ only re-exports: its imports are not uses
    paths = [path for path in sorted(PKG.glob("*.py")) if path.name != "__init__.py"]
    found = [entry.split(":")[0] + " " + entry.split()[-1]
             for entry in _unreferenced_public_defs(paths)]
    assert sorted(found) == sorted(ENTRY_POINTS)


def test_an_unreferenced_public_def_is_caught(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text("__all__ = ['used', 'orphan', 'Row', 'self_only']\n\n\n"
                   "def used():\n    pass\n\n\ndef orphan():\n    pass\n\n\n"
                   "def self_only():\n    return self_only()\n\n\n"
                   "def unlisted():\n    pass\n\n\n"
                   "class Row:\n    pass\n\n\nRULES = {'a': Row}\nx = mod.used\n")
    assert _unreferenced_public_defs([src]) == ["probe.py:8 orphan", "probe.py:12 self_only"]


def test_every_name_in_all_is_bound():
    missing = []
    for path in sorted(PKG.glob("*.py")):
        name = "qorder" if path.stem == "__init__" else f"qorder.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{name}.{attr}" for attr in getattr(module, "__all__", ())
                    if not hasattr(module, attr)]
    assert missing == []


# what a model exposes on the probability scale and at its ends
MODEL_ATTRS = {"quantile", "quantile_density", "tail_term", "tail_qdensity", "tail_quantile"}


# the arrays of a grid profile, whose curves are read through oracle.curve
PROFILE_ATTRS = {"q", "qd", "lower", "upper"}


def _attribute_reads(path, attrs):
    """The attributes ``attrs`` read in a module, as ``X.quantile_density``, in source order."""
    nodes = sorted((node for node in ast.walk(_tree(path))
                    if isinstance(node, ast.Attribute) and node.attr in attrs),
                   key=lambda node: (node.lineno, node.col_offset))
    return [f"{path.name}:{node.lineno} {ast.unparse(node)}" for node in nodes]


def _model_reads(path):
    """Model attributes read in a module."""
    return _attribute_reads(path, MODEL_ATTRS)


def test_limits_and_shape_know_nothing_about_models():
    # the closed-form tails that read models live in deltas.py; limits.py only
    # extrapolates and shape.py only segments
    assert _model_reads(PKG / "limits.py") + _model_reads(PKG / "shape.py") == []


def test_a_model_read_is_caught(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text("a = X.quantile(p)\nb = Y.tail_term(0)\nc = fn(p)\nd = X.mean\n")
    assert _model_reads(src) == ["probe.py:1 X.quantile", "probe.py:2 Y.tail_term"]


def test_cli_and_aging_read_no_profile_array():
    # every curve they write or segment is a row of the one table in oracle.py
    assert [read for name in ("cli.py", "aging.py")
            for read in _attribute_reads(PKG / name, PROFILE_ATTRS)] == []


def test_a_profile_read_is_caught(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text("a = px.qd / px.q\nb = prof.upper\nc = curve('mrl', prof)\nd = prof.grid\n"
                   "e = X.lower_weighted_integral(p)\nf = ctx.X.profile(n).lower\n")
    assert _attribute_reads(src, PROFILE_ATTRS) == [
        "probe.py:1 px.qd", "probe.py:1 px.q", "probe.py:2 prof.upper",
        "probe.py:6 ctx.X.profile(n).lower"]


def test_cli_import_loads_no_scipy():
    # the quadrature is numpy only; importing scipy.integrate would triple start-up
    code = "import sys, qorder.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(PKG.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"

"""The traced benchmark wraps vhckit functions by name; every name it lists
must still resolve, or the traced run breaks before it measures anything,
and must still be called from the package, or the run's coverage check
fails."""

import ast
import importlib
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS_PY = ROOT / "perfbench" / "layers.py"
SRC = ROOT / "src" / "vhckit"

# called from outside the package only: the interpreter calls __call__, the
# console script calls cli.main
CALL_EXEMPT = {"manifold.ConnectionCoeffs.__call__", "cli.main"}


def test_every_wrapped_name_resolves():
    # run_path executes the file without importing it as a package module,
    # so nothing is written under perfbench/
    layers = runpy.run_path(str(LAYERS_PY))
    missing = []
    for mod, attr in layers["functions"]():
        owner = importlib.import_module("vhckit." + mod)
        if "." in attr:
            # the tracer patches the method in its class's own __dict__
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            if cls is None or not callable(vars(cls).get(meth)):
                missing.append(f"{mod}.{attr}")
        elif not callable(getattr(owner, attr, None)):
            missing.append(f"{mod}.{attr}")
    assert not missing, f"perfbench wraps names that no longer exist: {missing}"
    for name in layers["ONLY_ON"]:
        mod, attr = name.split(".", 1)
        assert attr in layers["LAYERS"][mod][0], name


def _call_sites():
    """(module, enclosing function path, callee) for every call in the
    package. The callee is "module.name" for a name imported from (or
    defined in) a package module, or a module attribute; ".name" for a
    method of some object."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        tree = ast.parse(path.read_text())
        origin, modules = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module:
                        origin[local] = f"{node.module}.{alias.name}"
                    else:
                        modules[local] = alias.name

        def visit(node, scope):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                scope = scope + (node.name,)
            if isinstance(node, ast.Call):
                f = node.func
                if isinstance(f, ast.Name):
                    sites.append((mod, scope,
                                  origin.get(f.id, f"{mod}.{f.id}")))
                elif isinstance(f, ast.Attribute):
                    owner = getattr(f.value, "id", None)
                    sites.append((mod, scope, f"{modules[owner]}.{f.attr}"
                                  if owner in modules else f".{f.attr}"))
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(tree, ())
    return sites


def test_every_wrapped_function_is_called_in_the_package():
    # a static twin of the traced run's coverage check, which needs a full
    # traced run to notice a wrapped function that no longer fires
    layers = runpy.run_path(str(LAYERS_PY))
    sites = _call_sites()
    missing = []
    for mod, attr in layers["functions"]():
        if f"{mod}.{attr}" in CALL_EXEMPT:
            continue
        own = tuple(attr.split("."))
        if own[-1] == "__init__":       # Class.__init__ runs as Class(...)
            wanted = f"{mod}.{own[0]}"
        elif len(own) == 2:             # a method runs as obj.method(...)
            wanted = f".{own[1]}"
        else:
            wanted = f"{mod}.{attr}"
        if not any(callee == wanted and (where, scope[:len(own)]) != (mod, own)
                   for where, scope, callee in sites):
            missing.append(f"{mod}.{attr}")
    assert not missing, f"wrapped functions with no call site: {missing}"

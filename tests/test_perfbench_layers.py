"""The traced benchmark wraps vhckit functions by name; every name it lists
must still resolve, or the traced run breaks before it measures anything."""

import importlib
import runpy
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


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

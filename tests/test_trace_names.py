"""The functions perfbench/tracing.py counts by name still exist.

The tracer wraps module functions and reads their counts back under keys
such as "losses.loss_value".  A refactor that renames or inlines one of those
functions leaves its per-layer metric silently at zero, so every such key
must name a function defined in wassrisk.<layer>, for each layer the tracer
lists in LAYERS.  The file is parsed, not imported.  Two kinds of string are
not function names: the keys of dict literals (metric names such as
"solvers.outer_evals_per_op") and "distributions.construct", the key of the
wrapped prior constructors.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import re

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py")
NAME = re.compile(r"^([a-z_]+)\.([A-Za-z_][A-Za-z0-9_]*)$")
NOT_FUNCTIONS = {"distributions.construct"}


def traced_names() -> set[str]:
    with open(TRACING) as handle:
        tree = ast.parse(handle.read())
    layers = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYERS"]
    )
    dict_keys = {id(key) for node in ast.walk(tree) if isinstance(node, ast.Dict) for key in node.keys}
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and NAME.match(node.value)
        and node.value.split(".")[0] in layers
        and id(node) not in dict_keys
        and node.value not in NOT_FUNCTIONS
    }


def test_traced_names_are_package_functions():
    names = traced_names()
    assert "losses.loss_value" in names
    missing = []
    for name in sorted(names):
        layer, attr = NAME.match(name).groups()
        module = importlib.import_module(f"wassrisk.{layer}")
        fn = getattr(module, attr, None)
        if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
            missing.append(name)
    assert not missing, f"perfbench/tracing.py counts functions that do not exist: {missing}"

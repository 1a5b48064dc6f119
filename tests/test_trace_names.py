"""The functions perfbench/tracing.py counts by name still exist.

The tracer wraps module functions and reads their counts back under keys
such as "losses.loss_value".  A refactor that renames or inlines one of those
functions leaves its per-layer metric silently at zero, so every such key
must name a function defined in wassrisk.<layer>, for each layer the tracer
lists in LAYERS.  The file is parsed, not imported.  Two kinds of string are
not function names: the keys of dict literals (metric names such as
"solvers.outer_evals_per_op") and "distributions.construct", the key of the
wrapped prior constructors.

The tracer also gives every objective a public solver evaluates a role,
looked up in its TOP_LEVEL_ROLE by the solver's name (increasing_root's
evaluations are always "root"), so each public function of wassrisk.solvers
must have an entry there.
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


def _tracing_tree() -> ast.Module:
    with open(TRACING) as handle:
        return ast.parse(handle.read())


def _constant(tree: ast.Module, name: str):
    """The literal value assigned to a module-level name of tracing.py."""
    return next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == [name]
    )


def traced_names() -> set[str]:
    tree = _tracing_tree()
    layers = _constant(tree, "LAYERS")
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


def test_every_public_solver_has_a_role():
    roles = _constant(_tracing_tree(), "TOP_LEVEL_ROLE")
    solvers = importlib.import_module("wassrisk.solvers")
    public = {
        name
        for name, fn in vars(solvers).items()
        if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == solvers.__name__
    }
    assert "golden_section_min" in public
    missing = sorted(public - {"increasing_root"} - set(roles))
    assert not missing, f"perfbench/tracing.py TOP_LEVEL_ROLE lacks public solvers: {missing}"

"""Every function name the benchmark's tracer keys on still exists in bonnet.

bench/tracer.py measures each layer by the dotted names of the functions it
wraps ("surface_embed.integrate_frame", "q_family.SingularityGuard.check").
A name that no longer resolves is never called, so its metrics read 0 and no
run fails.  The names are read from the tracer's source by AST, without
importing it: every string in a set literal, and every key of ATTRS_BEFORE
and ATTRS_AFTER.
"""
import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def traced_names() -> list:
    """The dotted names bench/tracer.py keys its metrics and span attributes on."""
    tree = ast.parse(TRACER.read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Set):
            names.update(elt.value for elt in node.elts
                         if isinstance(elt, ast.Constant) and isinstance(elt.value, str))
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
              and any(isinstance(t, ast.Name) and t.id in ("ATTRS_BEFORE", "ATTRS_AFTER")
                      for t in node.targets)):
            names.update(key.value for key in node.value.keys)
    return sorted(names)


def resolve(dotted: str):
    """bonnet.<module> and then each attribute in turn; AttributeError if one is gone."""
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"bonnet.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_the_tracer_names_are_read():
    # names from a module-level set, a set inside summarize and ATTRS_AFTER
    names = traced_names()
    assert {"q_family.eval_q", "cli.PipelineData.__init__",
            "surface_embed.export_obj"} <= set(names), names


@pytest.mark.parametrize("dotted", traced_names())
def test_every_traced_name_resolves(dotted):
    assert callable(resolve(dotted))

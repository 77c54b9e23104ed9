"""The census: every function and class of the library is referenced in it."""

import ast
import importlib.util
from pathlib import Path

import blobalg

SRC = Path(blobalg.__file__).parent
TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"


def unreferenced(paths):
    """`file:line name` of each `def` or `class` in `paths` whose name no
    `Name`, `Attribute` or import alias there references, dunders aside."""
    defined, used = [], set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((node.name, "%s:%d" % (path.name, node.lineno)))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update((node.name, node.asname))
    return ["%s %s" % (where, name) for name, where in defined
            if name not in used and not (name.startswith("__") and name.endswith("__"))]


def pinned_methods():
    """The method names the benchmark's tracer wraps by name, which it
    needs to find in the library whether or not the library calls them."""
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {name for names in tracer.CLASS_METHODS.values() for name in names}


def test_every_definition_is_referenced():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 5
    pinned = pinned_methods()
    assert [line for line in unreferenced(files) if line.split()[1] not in pinned] == []


def test_an_uncalled_helper_is_flagged(tmp_path):
    extra = tmp_path / "extra.py"
    extra.write_text("def _helper():\n    return 1\n")
    files = sorted(SRC.glob("*.py"))
    assert unreferenced(files + [extra]) == unreferenced(files) + ["extra.py:1 _helper"]

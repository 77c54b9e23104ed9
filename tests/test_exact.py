"""The library holds no floating point: every identity is checked exactly."""

import ast
from pathlib import Path

import blobalg

SRC = Path(blobalg.__file__).parent


def test_no_float_or_complex_in_the_library():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 5
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = "%s:%d" % (path.name, getattr(node, "lineno", 0))
            if isinstance(node, ast.Import):
                assert all(a.name.split(".")[0] != "cmath" for a in node.names), where
            elif isinstance(node, ast.ImportFrom):
                assert (node.module or "").split(".")[0] != "cmath", where
            elif isinstance(node, ast.Name):
                assert node.id not in ("float", "complex"), where
            elif isinstance(node, ast.Constant):
                assert not isinstance(node.value, (float, complex)), where

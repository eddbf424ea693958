"""The package builds a PointSet or a CodeSet only where a file's checks have run, or from values it made itself.

PointSet keeps no checks of its own, and CodeSet keeps one: it refuses a code
with nonzero padding bits past m, since ``code_keys`` compares whole words and
so needs equal codes to be equal rows.  Every other check is the readers':
``read_point_set`` checks each row of a points file, and ``read_code_set`` each
field of a code-set file, before either builds one, and ``cli._cmd_embed``
packs the codes of a map it drew itself.  A new call elsewhere in
``src/onebit`` would build one from values nothing has checked, so this test
names every call's enclosing function.
"""

import ast
from pathlib import Path

import onebit

PACKAGE = Path(onebit.__file__).resolve().parent

#: Record class -> the functions of the package allowed to call it.
ALLOWED = {"PointSet": {"read_point_set"}, "CodeSet": {"read_code_set", "_cmd_embed"}}


def _calls(node, function):
    """(called name, innermost enclosing function name or None) for every Call under node."""
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        if isinstance(child, ast.Call):
            func = child.func
            yield (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)), function
        yield from _calls(child, inner)


def test_point_and_code_sets_are_built_only_behind_their_file_checks():
    sites = {name: set() for name in ALLOWED}
    for path in sorted(PACKAGE.glob("*.py")):
        for name, function in _calls(ast.parse(path.read_text(encoding="utf-8")), None):
            if name in sites:
                sites[name].add(function)
    assert sites == ALLOWED

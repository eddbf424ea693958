"""Every public name of the package is used by the package itself.

A public module-level function or class, or a public method, that no code in
``src/onebit`` refers to is reachable only from tests: a second path that
never ships.  References are ``ast.Name`` and ``ast.Attribute`` nodes outside
the name's own definition; matching is by bare name, so it errs towards
counting a name as used.
"""

import ast
from pathlib import Path

import onebit

PACKAGE = Path(onebit.__file__).resolve().parent


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield item


def _referenced_name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def test_every_public_name_is_referenced_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    references = [node for tree in trees.values() for node in ast.walk(tree) if _referenced_name(node)]
    unused = []
    for module, tree in trees.items():
        for definition in _public_definitions(tree):
            own = {id(node) for node in ast.walk(definition)}
            if not any(_referenced_name(node) == definition.name and id(node) not in own for node in references):
                unused.append(f"{module}:{definition.lineno} {definition.name}")
    assert not unused, "public names no package code refers to:\n" + "\n".join(unused)

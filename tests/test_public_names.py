"""Every public name of the package is used by the package itself, and every record field is read by it.

A public module-level function or class, or a public method, that no code in
``src/onebit`` refers to is reachable only from tests: a second path that
never ships.  References are ``ast.Name`` and ``ast.Attribute`` nodes outside
the name's own definition; matching is by bare name, so it errs towards
counting a name as used.

Likewise a field of a dataclass or ``NamedTuple`` that no package code reads,
as an ``ast.Attribute`` load outside its class's ``__post_init__`` validation,
is a value the package computes and stores only for tests to look at.  A read
in one of the class's own methods counts: ``ExactProbability.value`` is read
only through ``float_value`` and ``fraction_string``.  Matching is again by
bare name.

And a default of a public function's parameter that no package call
overrides, by keyword or by position, is a knob only tests could turn: a
constant.  ``cli.main(argv)`` is exempt, as the entry point that tests and
the benchmark call with their own arguments.  Calls are matched by bare name;
one that passes ``*args`` or ``**kwargs`` counts as overriding every default.

And no module reads another package module's private (``_``-prefixed, not
dunder) name, whether by ``from .x import _y`` or as an attribute of a name
bound to a package module (``from . import bounds as bnd``, then ``bnd._y``):
what one module needs of another is part of that module's public surface.
"""

import ast
from pathlib import Path

import onebit

PACKAGE = Path(onebit.__file__).resolve().parent


def _package_trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


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


def _record_fields(tree):
    """(class, field name, class's __post_init__ or None) for each field of a module-level dataclass or NamedTuple."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        kinds = {_referenced_name(d.func if isinstance(d, ast.Call) else d) for d in node.decorator_list}
        kinds |= {_referenced_name(b) for b in node.bases}
        if kinds & {"dataclass", "NamedTuple"}:
            init = next((item for item in node.body if isinstance(item, ast.FunctionDef) and item.name == "__post_init__"), None)
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node, item.target.id, init


def test_every_public_name_is_referenced_in_the_package():
    trees = _package_trees()
    references = [node for tree in trees.values() for node in ast.walk(tree) if _referenced_name(node)]
    unused = []
    for module, tree in trees.items():
        for definition in _public_definitions(tree):
            own = {id(node) for node in ast.walk(definition)}
            if not any(_referenced_name(node) == definition.name and id(node) not in own for node in references):
                unused.append(f"{module}:{definition.lineno} {definition.name}")
    assert not unused, "public names no package code refers to:\n" + "\n".join(unused)


def test_every_record_field_is_read_in_the_package():
    trees = _package_trees()
    reads = [
        node for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    ]
    unread = []
    for module, tree in trees.items():
        for record, field, init in _record_fields(tree):
            validation = {id(node) for node in ast.walk(init)} if init else set()
            if not any(node.attr == field and id(node) not in validation for node in reads):
                unread.append(f"{module}:{record.lineno} {record.name}.{field}")
    assert not unread, "record fields no package code reads:\n" + "\n".join(unread)


def _defaulted_parameters(definition):
    """(index among the positional parameters or None, name) of each parameter of a function that has a default."""
    args = definition.args
    positional = args.posonlyargs + args.args
    for index in range(len(positional) - len(args.defaults), len(positional)):
        yield index, positional[index].arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _overrides(call, index, name, offset):
    if any(isinstance(a, ast.Starred) for a in call.args) or any(kw.arg is None for kw in call.keywords):
        return True
    return any(kw.arg == name for kw in call.keywords) or (index is not None and len(call.args) > index - offset)


def test_every_parameter_default_is_overridden_in_the_package():
    trees = _package_trees()
    calls = [node for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Call)]
    unset = []
    for module, tree in trees.items():
        methods = {id(item) for node in tree.body if isinstance(node, ast.ClassDef) for item in node.body}
        for definition in _public_definitions(tree):
            if not isinstance(definition, ast.FunctionDef) or (module, definition.name) == ("cli.py", "main"):
                continue
            offset = 1 if id(definition) in methods else 0  # a method's self is not passed
            mine = [call for call in calls if _referenced_name(call.func) == definition.name]
            for index, name in _defaulted_parameters(definition):
                if not any(_overrides(call, index, name, offset) for call in mine):
                    unset.append(f"{module}:{definition.lineno} {definition.name}({name})")
    assert not unset, "parameter defaults no package call overrides:\n" + "\n".join(unset)


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _from_package(node):
    """Whether an ImportFrom imports from the package: relative, or absolute under onebit."""
    return node.level > 0 or (node.module or "").split(".")[0] == "onebit"


def test_no_module_reads_another_modules_private_names():
    reaches = []
    for module, tree in _package_trees().items():
        imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
        # Local names bound to package modules: from . import x [as y], from onebit import x, import onebit.x as y.
        modules = {alias.asname or alias.name for node in imports if isinstance(node, ast.ImportFrom)
                   and _from_package(node) and node.module in (None, "onebit") for alias in node.names}
        modules |= {alias.asname for node in imports if isinstance(node, ast.Import)
                    for alias in node.names if alias.name.startswith("onebit.") and alias.asname}
        for node in imports:
            if isinstance(node, ast.ImportFrom) and _from_package(node):
                reaches += [f"{module}:{node.lineno} from {'.' * node.level}{node.module or ''} import {alias.name}"
                            for alias in node.names if _is_private(alias.name)]
        reaches += [
            f"{module}:{node.lineno} {node.value.id}.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules and _is_private(node.attr)
        ]
    assert not reaches, "private names read across package modules:\n" + "\n".join(reaches)

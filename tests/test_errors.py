"""Guard: the package raises four exception classes, one per CLI exit code.

``ConfigError`` exits 1, ``DataError`` 2 and ``NumericalError`` 3; a bare
``ReserveRlError`` exits 1.  A refusal is told apart by its message, so a
subclass would add a name for a caller to catch that no exit code tells
apart.  The checks read the source with :mod:`ast`, so a class that is
never imported or a ``raise`` on a branch no test reaches is still seen.
"""

import ast
import builtins
import pathlib

import reserve_rl

FAMILIES = {"ReserveRlError", "ConfigError", "DataError", "NumericalError"}
SOURCES = {path.name: ast.parse(path.read_text(), str(path))
           for path in sorted(pathlib.Path(reserve_rl.__file__).parent.glob("*.py"))}


def _name(node):
    """``X`` of ``X`` or ``module.X``; None for any other expression."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_builtin_exception(name):
    builtin = getattr(builtins, name, None)
    return isinstance(builtin, type) and issubclass(builtin, BaseException)


def _nodes(kind):
    for filename, tree in SOURCES.items():
        for node in ast.walk(tree):
            if isinstance(node, kind):
                yield filename, node


def test_errors_module_defines_exactly_the_four_classes():
    classes = {node.name: [_name(base) for base in node.bases]
               for filename, node in _nodes(ast.ClassDef) if filename == "errors.py"}
    assert classes == {
        "ReserveRlError": ["Exception"],
        "ConfigError": ["ReserveRlError"],
        "DataError": ["ReserveRlError"],
        "NumericalError": ["ReserveRlError"],
    }


def test_no_other_module_defines_an_exception():
    bases = {f"{filename}:{node.lineno} {node.name}": {_name(base) or "" for base in node.bases}
             for filename, node in _nodes(ast.ClassDef) if filename != "errors.py"}
    defined = [where for where, names in bases.items()
               if any(name in FAMILIES or _is_builtin_exception(name)
                      or name.endswith(("Error", "Exception")) for name in names)]
    assert defined == []


def test_every_raise_names_a_family_or_a_builtin():
    imported = {alias.name for _, node in _nodes(ast.ImportFrom)
                if node.module == "errors" for alias in node.names}
    assert imported <= FAMILIES
    raised = set()
    for filename, node in _nodes(ast.Raise):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        name = _name(exc)
        # a lower-case name or a subscript re-raises an exception made elsewhere
        if name and name[0].isupper():
            raised.add(name)
            assert name in FAMILIES or _is_builtin_exception(name), \
                f"{filename}:{node.lineno} raises {name}"
    assert FAMILIES <= raised

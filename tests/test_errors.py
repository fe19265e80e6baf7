"""The failure vocabulary: every raise in the package names a toolkit class,
and every toolkit class has a handling of its own."""

import ast
from pathlib import Path

import qcoproc
from qcoproc import cli, errors

SOURCES = sorted(Path(qcoproc.__file__).parent.glob("*.py"))

ERROR_CLASSES = {name for name, value in vars(errors).items()
                 if isinstance(value, type) and issubclass(value, Exception)
                 and value.__module__ == errors.__name__}


def _nodes(node_type):
    """(file name, line, node) of every ``node_type`` node in the package."""
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, node_type):
                yield path.name, node.lineno, node


def _name(node) -> str | None:
    """``X`` of a raised ``X`` or ``X(...)``, or of an except clause's ``X``."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.id if isinstance(node, ast.Name) else None


def test_every_raise_names_a_toolkit_class():
    strays = [f"{file}:{line}: {ast.unparse(node.exc)}"
              for file, line, node in _nodes(ast.Raise)
              if node.exc is not None and _name(node.exc) not in ERROR_CLASSES]
    assert not strays, "raises outside qcoproc.errors:\n" + "\n".join(strays)


def test_every_toolkit_class_has_its_own_handling():
    caught = set()
    for _, _, handler in _nodes(ast.ExceptHandler):
        kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        caught.update(_name(kind) for kind in kinds if kind is not None)
    handled = {"QcoprocError"} | {cls.__name__ for cls, _ in cli.EXIT_CODES} | caught
    assert ERROR_CLASSES <= handled, f"classes with no handling: {sorted(ERROR_CLASSES - handled)}"

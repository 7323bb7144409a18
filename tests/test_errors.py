"""Every exception class of chebpint.errors is used by another module of the
package, so a class whose last raise site is deleted goes with it."""

import ast
import inspect
import pathlib

import pytest

import chebpint
from chebpint import errors

PACKAGE = pathlib.Path(chebpint.__file__).parent

ERROR_CLASSES = sorted(
    name for name, obj in vars(errors).items()
    if inspect.isclass(obj) and issubclass(obj, BaseException)
    and obj.__module__ == errors.__name__
)


def _names_used(path):
    """Identifiers a module reads or imports; comments and strings aside."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


USED = set().union(*(
    _names_used(path) for path in PACKAGE.glob("*.py")
    if path.name not in ("__init__.py", "errors.py")
))


def test_errors_defines_exception_classes():
    assert "ChebPintError" in ERROR_CLASSES


@pytest.mark.parametrize("name", ERROR_CLASSES)
def test_every_error_class_is_used_by_another_module(name):
    assert name in USED, f"chebpint.errors.{name} is used by no other module"

"""Every name a module of the package lists in __all__ resolves, so a star
import cannot fail on an entry left behind by a deletion."""

import importlib
import pkgutil

import pytest

import chebpint

MODULES = [chebpint] + [
    importlib.import_module(f"chebpint.{info.name}")
    for info in pkgutil.iter_modules(chebpint.__path__)
]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")],
    ids=lambda m: m.__name__,
)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names {missing}"

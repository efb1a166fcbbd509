import importlib
import pkgutil

import pytest

import simpvex

MODULES = ["simpvex"] + sorted(f"simpvex.{m.name}" for m in pkgutil.iter_modules(simpvex.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_exists_and_star_import_works(name):
    module = importlib.import_module(name)
    public = getattr(module, "__all__", [])
    assert [n for n in public if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(public) <= set(namespace)

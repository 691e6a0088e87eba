import importlib

import pytest

MODULES = ["mesh", "physics", "solver", "random_data", "stats", "experiments"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"nsuq.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"nsuq.{name}.__all__ lists undefined names {missing}"
    namespace = {}
    exec(f"from nsuq.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)

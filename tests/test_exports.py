import importlib
import pkgutil

import pytest

import bvlsc

MODULES = sorted(m.name for m in pkgutil.iter_modules(bvlsc.__path__) if not m.ispkg)


def test_every_module_is_listed():
    assert {"meshing", "minimize", "boundary", "verdict"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    # benchmarks/tracing.py wraps every name in each module's __all__; a stale
    # export would break it at install time
    mod = importlib.import_module(f"bvlsc.{name}")
    assert isinstance(mod.__all__, list)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []

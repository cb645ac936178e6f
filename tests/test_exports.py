import importlib
import pkgutil

import pytest

import schattenmc


def _modules_with_exports():
    names = sorted(info.name for info in pkgutil.iter_modules(schattenmc.__path__))
    modules = [schattenmc] + [importlib.import_module(f"schattenmc.{name}") for name in names]
    return [mod for mod in modules if hasattr(mod, "__all__")]


@pytest.mark.parametrize("module", _modules_with_exports(), ids=lambda mod: mod.__name__)
def test_export_list_resolves_without_duplicates(module):
    exported = module.__all__
    assert len(set(exported)) == len(exported), f"{module.__name__}.__all__ repeats a name"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names undefined {missing}"

import importlib
import types

import pytest

import khinsphere

MODULES = ["cli", "constants", "errors", "oscillatory", "phase", "quad", "sample", "specfun",
           "verify"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"khinsphere.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_namespace_resolves():
    # each name the package re-exports is the object its defining module
    # exposes under that name, and is listed in that module's __all__
    public = {name: obj for name, obj in vars(khinsphere).items()
              if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert "F" in public and "VerificationReport" in public
    for name, obj in public.items():
        module = importlib.import_module(obj.__module__)
        assert getattr(module, name) is obj, name
        assert name in getattr(module, "__all__", [name]), name
    assert "QuadratureConfig" not in public

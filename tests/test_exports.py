"""Every name the package and its submodules export resolves."""

import importlib
import pkgutil

import pytest

import hoselm

MODULES = ["hoselm"] + [f"hoselm.{m.name}" for m in pkgutil.iter_modules(hoselm.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def test_submodules_are_found():
    assert {"hoselm.extractor", "hoselm.kernels", "hoselm.pipeline"} <= set(MODULES)

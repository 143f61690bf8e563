"""Every exported name resolves, so an export of a deleted name fails."""

import importlib
import pkgutil

import pytest

import hominv

MODULES = ["hominv"] + [f"hominv.{m.name}" for m in pkgutil.iter_modules(hominv.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []


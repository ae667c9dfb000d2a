"""Public names: every ``__all__`` entry of the package and its modules exists."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import vanhove

MODULES = ["vanhove"] + [
    f"vanhove.{info.name}" for info in pkgutil.iter_modules(vanhove.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    # a stale entry would make ``from <module> import *`` raise
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []

"""Every name a ``repro`` module lists in ``__all__`` resolves.

A stale entry breaks only ``from repro.x import *``, which nothing else in
the suite exercises, so deleting a public name must delete its export too.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)


@pytest.mark.parametrize("name", ["repro", *MODULES])
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", ())
    assert [export for export in exports if not hasattr(module, export)] == []

"""The export lists name only what their modules define."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["wph", "wph.singularity"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_package_exports_are_unique():
    import wph

    assert len(wph.__all__) == len(set(wph.__all__))

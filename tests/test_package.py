"""The package's public surface: each layer's names, re-exported once."""

from __future__ import annotations

import cbkit
from cbkit import oracle, ordinal, realize, space


def test_package_reexports_each_layer():
    layers = [*ordinal.__all__, *space.__all__, *realize.__all__, *oracle.__all__]
    assert cbkit.__all__ == [*layers, "__version__"]
    assert len(set(cbkit.__all__)) == len(cbkit.__all__)
    for layer in (ordinal, space, realize, oracle):
        for name in layer.__all__:
            assert getattr(cbkit, name) is getattr(layer, name)

"""The package namespace: each layer's public names, re-exported once."""

import volentropy
from volentropy import core, entropy, markov, reductions, rome, spectral

LAYERS = (core, markov, reductions, spectral, rome, entropy)


def test_package_names_are_the_layer_objects_each_listed_once():
    assert len(volentropy.__all__) == len(set(volentropy.__all__))
    owner = {name: layer for layer in LAYERS for name in layer.__all__}
    assert set(volentropy.__all__) == set(owner) | {"__version__"}
    for name, layer in owner.items():
        assert getattr(volentropy, name) is getattr(layer, name), name
    assert isinstance(volentropy.__version__, str)

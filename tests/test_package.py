"""The package's public names."""

import ringspectra


def test_star_import_exports_every_public_name_once():
    space: dict = {}
    exec("from ringspectra import *", space)
    names = ringspectra.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert space[name] is getattr(ringspectra, name)

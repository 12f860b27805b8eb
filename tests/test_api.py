"""The package's public names."""

import saabcodec


def test_every_exported_name_resolves():
    # an export left behind when its code is deleted fails here, not at import *
    missing = [name for name in saabcodec.__all__ if not hasattr(saabcodec, name)]
    assert not missing

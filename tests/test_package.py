"""The package's public names."""

import msprobit


def test_every_exported_name_resolves():
    missing = [name for name in msprobit.__all__ if not hasattr(msprobit, name)]
    assert not missing, missing
    namespace = {}
    exec("from msprobit import *", namespace)
    assert set(msprobit.__all__) <= set(namespace)

"""The package's public surface."""

import polylandau


def test_every_exported_name_resolves():
    # a name dropped from the modules but left in __all__ breaks `from polylandau import *`
    missing = []
    for name in polylandau.__all__:
        try:
            getattr(polylandau, name)
        except AttributeError:
            missing.append(name)
    assert missing == []

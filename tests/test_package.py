'''The package's public surface.'''

import finspec


def test_every_export_is_listed_once_and_resolves():
    # a deletion that leaves a stale name here breaks `from finspec import *`
    names = finspec.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(finspec, name), name

"""The package's export list stays in step with the names its
__init__ binds."""

import types

import ipdkit


def test_all_is_sorted_unique_and_complete():
    assert ipdkit.__all__ == sorted(set(ipdkit.__all__))
    missing = [name for name in ipdkit.__all__ if not hasattr(ipdkit, name)]
    assert missing == []
    public = {
        name
        for name, value in vars(ipdkit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(ipdkit.__all__)) == []

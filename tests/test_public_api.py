"""The package namespace exports exactly its ``__all__``."""

import types

import tripowmin


def test_public_names_are_exactly_all():
    public = {
        name for name in dir(tripowmin)
        if not name.startswith("_")
        and not isinstance(getattr(tripowmin, name), types.ModuleType)
    }
    assert public == set(tripowmin.__all__) - {"__version__"}
    assert len(tripowmin.__all__) == 31

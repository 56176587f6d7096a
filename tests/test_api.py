"""The package's public names: `__all__` is derived from the names that
`oni_kit/__init__.py` imports, and the star import binds exactly those."""

from types import ModuleType

import oni_kit


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from oni_kit import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(oni_kit.__all__)
    assert oni_kit.__all__ == sorted(oni_kit.__all__)
    assert len(oni_kit.__all__) == 73
    for name, value in namespace.items():
        assert not name.startswith("_") and not isinstance(value, ModuleType), name

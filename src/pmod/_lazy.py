"""PEP 562 hooks that load a package's public names on first use.

They are built here rather than in the package's ``__init__``: a function
defined there holds the package namespace as its globals while that
namespace holds the function, and the cycle keeps a dropped package, with
every submodule it loaded, alive until a full garbage collection.
"""

import importlib
import sys


def hooks(package: str, homes: dict, submodules: tuple):
    """``__getattr__`` and ``__dir__`` for `package`: a name in `homes` is that
    submodule's attribute, a name in `submodules` the submodule itself."""

    def __getattr__(name):
        home = homes.get(name, name)
        if home not in submodules:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{home}")
        return module if home == name else getattr(module, name)

    def __dir__():
        return sorted({*vars(sys.modules[package]), *homes, *submodules})

    return __getattr__, __dir__

"""The module ``__getattr__`` of a package that resolves names on first use.

``repro.serve``, ``repro.obs``, ``repro.bench`` and ``repro.ompi`` keep
what a plain simulation never needs out of its imports (PEP 562): each
name in a package's ``_LAZY`` loads its submodule when first read and is
then bound in the package, as an eager import would have bound it.
"""

import importlib
import sys
from typing import Any, Callable, Dict


def lazy_getattr(package: str, names: Dict[str, str]) -> Callable[[str], Any]:
    """``__getattr__`` for ``package``: ``names`` maps each lazy name to
    the submodule that defines it; a submodule maps to itself."""

    def __getattr__(name: str) -> Any:
        if name not in names:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{names[name]}")
        value = module if names[name] == name else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__

"""Package exports that are imported on first use (PEP 562).

A package ``__init__`` that re-exports names from its submodules imports
every one of them, and all they import, as soon as any part of the
package is imported.  :func:`lazy_exports` builds a module-level
``__getattr__`` and ``__dir__`` instead: each public name's module is
imported the first time the name is read, and the value is then stored
in the package's namespace, so later reads are plain attribute lookups.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(package: str, exports: Dict[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``.

    ``exports`` maps each submodule to the public names it defines.
    """
    homes = {name: module for module, names in exports.items()
             for name in names}

    def __getattr__(name: str) -> object:
        home = homes.get(name)
        if home is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(home), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(homes))

    return __getattr__, __dir__

"""Gaussian bosonic numerics: states, certified truncations, capacity bounds.

Each module states its public names once, in its ``__all__``; the package
re-exports them all.  The Fock build and the trace distance load on first
use of a name the package does not hold yet (PEP 562), so ``import
bosonic`` and the CLI commands that need neither do not pay for them.
"""

from .states import *  # noqa: F403
from .spectral import *  # noqa: F403
from .tail import *  # noqa: F403
from .capacity import *  # noqa: F403

__version__ = "0.1.0"

#: the re-exported modules; the last two load on first use
_MODULES = ("states", "spectral", "tail", "capacity", "fock", "tracedist")


def _load_lazy() -> None:
    """Import the lazy modules, re-export their names and state ``__all__``:
    every re-exported name and the modules themselves, sorted."""
    import importlib

    public = set(_MODULES)
    for module_name in _MODULES:
        module = importlib.import_module(f"{__name__}.{module_name}")
        globals().update({key: getattr(module, key) for key in module.__all__})
        public.update(module.__all__)
    globals()["__all__"] = sorted(public)


def __getattr__(name: str):
    if name.startswith("__") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load_lazy()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    _load_lazy()
    return sorted(globals())

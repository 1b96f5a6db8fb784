"""Gaussian bosonic numerics: states, certified truncations, capacity bounds.

Each module states its public names once, in its ``__all__``; the package
re-exports them all.
"""

from .states import *  # noqa: F403
from .spectral import *  # noqa: F403
from .tail import *  # noqa: F403
from .fock import *  # noqa: F403
from .tracedist import *  # noqa: F403
from .capacity import *  # noqa: F403

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

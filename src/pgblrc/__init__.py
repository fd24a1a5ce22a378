"""Balanced locally repairable codes from partial geometries.

The package builds binary codes whose parity checks are the lines of a
partial geometry, measures their local-repair behavior exactly, and
tabulates the rate bounds that govern which (repair degree,
alternativity) pairs are worth deploying.

Typical use:

    >>> import pgblrc
    >>> code = pgblrc.build_code(pgblrc.grid(2))
    >>> profile = pgblrc.repair_profile(code, mode="exhaustive")
    >>> (profile.r, profile.a, profile.delta, profile.balanced)
    (2, 2, 2, True)

The public names are those listed in the ``__all__`` of the modules
``algebra``, ``bounds``, ``code``, ``errors``, ``geometry`` and
``repair``; the package's ``__all__`` is their sorted union.
"""

from . import algebra, bounds, code, errors, geometry, repair
from .algebra import *  # noqa: F401,F403
from .bounds import *  # noqa: F401,F403
from .code import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .geometry import *  # noqa: F401,F403
from .repair import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted({name for module in (algebra, bounds, code, errors, geometry, repair)
                  for name in module.__all__})

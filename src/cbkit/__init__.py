"""Cantor-Bendixson calculus on compact countable spaces.

Four layers: exact ordinal arithmetic in Cantor normal form, the
characteristic calculus on homeomorphism classes, constructive
realization of any class as a cluster tree of rationals, and
independent oracles (pruning, geometry, rank audits) that check the
realizations against the calculus.  Each layer's ``__all__`` is
re-exported here.
"""

from . import oracle, ordinal, realize, space
from .ordinal import *  # noqa: F403
from .space import *  # noqa: F403
from .realize import *  # noqa: F403
from .oracle import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*ordinal.__all__, *space.__all__, *realize.__all__, *oracle.__all__, "__version__"]

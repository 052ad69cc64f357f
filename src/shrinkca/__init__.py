"""Linearize shrinking-generator keystreams with 90/150 cellular automata.

The package simulates the nonlinear generator, synthesizes the pair of
hybrid linear automata that share its keystream algebra, and verifies
bit-exactly that one automaton cell replays the keystream.  Each layer
declares its public names in its own ``__all__``; the package exports
their union.
"""

from . import analysis, automata, generators, gf2field, gf2poly, linearizer
from .analysis import *  # noqa: F403
from .automata import *  # noqa: F403
from .generators import *  # noqa: F403
from .gf2field import *  # noqa: F403
from .gf2poly import *  # noqa: F403
from .linearizer import *  # noqa: F403

__version__ = "0.1.0"

_LAYERS = (gf2poly, gf2field, generators, automata, linearizer, analysis)
__all__ = [name for layer in _LAYERS for name in layer.__all__]

"""Common knowledge in partition models when message counts may be huge.

The package layers four pieces: exact two-tier arithmetic (finite vs huge
naturals), sorites equivalences over threshold ladders, Aumann partition
models with link operators and a reachability metric, and the electronic-
mail game with its closed-form cells, probabilities and cutoff equilibrium.
"""

from .emailgame import *
from .epistemic import *
from .hypernat import *
from .reports import *
from .sorites import *

__version__ = "0.1.0"

__all__ = [
    *hypernat.__all__,
    *sorites.__all__,
    *epistemic.__all__,
    *emailgame.__all__,
    *reports.__all__,
]

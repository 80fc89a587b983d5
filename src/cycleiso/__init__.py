"""Exact computation in the inverse monoids of partial isometries of a cycle.

The cycle graph on n vertices carries the geodesic metric
min(|x-y|, n-|x-y|).  Its partial isometries, under composition of
partial maps, form an inverse monoid; the order-preserving, monotone,
and orientation-preserving elements form submonoids with closed-form
cardinalities, Green's structure, and known minimum generating sets.
This package enumerates them, decides membership, factorizes elements
over the standard generators, and certifies the generating-set sizes,
cross-checking everything against brute force.

Every module declares its public names once, in its ``__all__``, so each
wildcard import below binds exactly that list and hides nothing, and the
package's ``__all__`` is their union.
"""

import sys

from .errors import *
from .partial_perm import *
from .geometry import *
from .dihedral import *
from .engine import *
from .formulas import *
from .generators import *
from .factorize import *
from .rank_cert import *
from .verify import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in ("errors", "partial_perm", "geometry", "dihedral", "engine",
                   "formulas", "generators", "factorize", "rank_cert", "verify")
    for name in sys.modules[f"{__name__}.{module}"].__all__
] + ["__version__"]

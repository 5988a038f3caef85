"""Exact high-order derivatives of arctan, cross-checked four ways, with
exact binomial and terminating-hypergeometric identity sweeps.

Everything is computed over arbitrary-precision rationals; there is no
floating point anywhere in the core.  The package re-exports the public
names (``__all__``) of each module below.
"""

from . import arctan, combinatorics, composition, identities, polynomial, reports
from .arctan import *
from .combinatorics import *
from .composition import *
from .identities import *
from .polynomial import *
from .reports import *

__version__ = "0.1.0"

__all__ = [
    *arctan.__all__,
    *combinatorics.__all__,
    *composition.__all__,
    *identities.__all__,
    *polynomial.__all__,
    *reports.__all__,
]

"""Exact invariants of plane curve singularities: Milnor and M numbers,
Tristram-Levine signature functions of torus knots with exact rational
integrals, obstruction checks for deformation scenarios, and a pruned search
over non-obstructed fiber configurations."""

from . import deformation, enumeration, signature, singularities
from .deformation import *
from .enumeration import *
from .signature import *
from .singularities import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *singularities.__all__,
    *signature.__all__,
    *deformation.__all__,
    *enumeration.__all__,
]

"""Exact self-affine iterated function systems on curves and surfaces.

The package builds explicit affine systems whose attractors live on the
moment curve (t, t², …, tⁿ) and on the paraboloid x₁²+⋯+x_{n−1}² = x_n,
verifies the defining identities exactly over the rationals, samples
attractors numerically, classifies curve germs up to affine conjugacy
against the moment curve, and walks the polynomial-pullback obstruction
that keeps non-trivial self-affine sets off compact algebraic surfaces.
"""

from types import ModuleType as _ModuleType

from .affine import *
from .attractor import *
from .classifier import *
from .cloud import *
from .exactlinalg import *
from .moment import *
from .paraboloid import *
from .polynomials import *
from .pullback import *
from .rationals import *
from .series import *

__version__ = "0.1.0"

# Each module's __all__, star-imported above, and the version; the submodules are not among them.
__all__ = ["__version__"] + sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)

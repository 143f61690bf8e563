"""Inversion of positively homogeneous maps.

A map ``f : R^n -> R^n`` is positively homogeneous of order ``kappa > 0``
when ``f(tau * xi) = tau**kappa * f(xi)`` for all ``tau > 0`` and nonzero
``xi``.  When such a map is continuously differentiable away from the origin
with nonvanishing Jacobian determinant and ``n >= 3``, it is a bijection of
``R^n`` whose inverse is again homogeneous, of order ``1/kappa``.  This
package verifies those hypotheses numerically, computes the inverse by
homotopy continuation, and measures preimage counts and mapping degrees so
that failures of the hypotheses (including the classical planar
counterexample, where ``n = 2``) are visible rather than silent.

Each public module lists its names in its own ``__all__``; this package
re-exports them all, and its ``__all__`` is theirs plus ``__version__``.
``hominv.cli`` (the ``hominv`` executable) is not imported here.
"""

from . import catalog, degree, errors, hypotheses, inverter, mapcore, polyparser
from .catalog import *
from .degree import *
from .errors import *
from .hypotheses import *
from .inverter import *
from .mapcore import *
from .polyparser import *

__version__ = "0.1.0"

__all__ = ["__version__", *mapcore.__all__, *polyparser.__all__, *hypotheses.__all__,
           *inverter.__all__, *degree.__all__, *catalog.__all__, *errors.__all__]

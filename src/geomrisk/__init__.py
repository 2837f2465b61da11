"""Multivariate geometric expectiles and geometric value-at-risk.

Loss kernels, M-estimators with a shared convex solver, margin and
copula simulation, a closed-form bivariate-uniform oracle, and the
experiment harness used to check the mathematical properties of the
measures on simulated data.

The package exports exactly the public names of its library modules:
each module's ``__all__`` is the one list of them.
"""

from . import copulas, distributions, estimators, experiments, losses, models, uniform_exact
from .copulas import *
from .distributions import *
from .estimators import *
from .experiments import *
from .losses import *
from .models import *
from .uniform_exact import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *losses.__all__,
    *estimators.__all__,
    *distributions.__all__,
    *copulas.__all__,
    *models.__all__,
    *uniform_exact.__all__,
    *experiments.__all__,
]

"""qest: numerical toolkit for quantum parameter estimation.

Information geometry of parametric state families (SLD Fisher matrix, its
skew companion, beta-spectrum, curvature), attainable Cramer-Rao-type bounds,
optimal projective-measurement construction, a stochastic measurement-search
oracle, and Monte-Carlo simulation layers.
"""

from . import (bounds, geometry, measurements, models, operators, oracle,
               simulate)
from .operators import *  # noqa: F401,F403
from .models import *  # noqa: F401,F403
from .geometry import *  # noqa: F401,F403
from .bounds import *  # noqa: F401,F403
from .measurements import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403

__version__ = "1.0.0"

__all__ = [name for module in (operators, models, geometry, bounds,
                               measurements, oracle, simulate)
           for name in module.__all__]

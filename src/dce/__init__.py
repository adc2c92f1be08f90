"""Discrete choice experiment toolkit.

Designs stated-choice experiments (balanced, near-orthogonal fractional
factorials with blocking), simulates synthetic respondents, estimates
multinomial and panel mixed logit models (the latter by maximum simulated
likelihood with Halton draws), and derives willingness-to-pay, elasticity,
and fit reports from the estimates.
"""

__version__ = "0.1.0"

from . import (dataset, design, errors, fixtures, mmnl, mnl, numerics, postest,
               results, schema, simulate)
from .dataset import *  # noqa: F401,F403
from .design import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .fixtures import *  # noqa: F401,F403
from .mmnl import *  # noqa: F401,F403
from .mnl import *  # noqa: F401,F403
from .numerics import *  # noqa: F401,F403
from .postest import *  # noqa: F401,F403
from .results import *  # noqa: F401,F403
from .schema import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403

# each module's public names, once each: numerics and mmnl both export MixingSpec
__all__ = list(dict.fromkeys(
    name for module in (schema, errors, numerics, design, dataset, mnl, mmnl, results,
                        postest, simulate, fixtures)
    for name in module.__all__))

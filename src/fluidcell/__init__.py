"""Fluid-antenna cellular downlink: outage analytics and simulation.

The package pairs a closed-form outage pipeline (estimation error,
port correlation, joint selection statistics, spatial averaging) with
an independent Monte Carlo engine, so every analytic quantity can be
cross-checked numerically. Its namespace is the union of the library
modules' ``__all__`` lists; the command line lives in ``fluidcell.cli``
and is not imported here.
"""

from . import channel, field, geometry, mc, numerics, outage
from .channel import *
from .field import *
from .geometry import *
from .mc import *
from .numerics import *
from .outage import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (channel, field, geometry, mc, numerics, outage)
    for name in module.__all__
]

"""spikemap: deterministic simulation and analysis of discrete-time
leaky integrate-and-fire networks.

The package exposes the one-step threshold map and its invariant bounds,
the raster (firing-pattern) coding of trajectories with exact
reconstruction, the pattern-transition graph, periodic-orbit detection with
distances to the firing threshold, a finite-ball expansion-rate estimator,
and random-ensemble parameter sweeps.
"""

__version__ = "0.1.0"

from . import coding, ensemble, model, orbits
from .model import *  # noqa: F401,F403
from .coding import *  # noqa: F401,F403
from .orbits import *  # noqa: F401,F403
from .ensemble import *  # noqa: F401,F403

__all__ = ["__version__", *model.__all__, *coding.__all__, *orbits.__all__, *ensemble.__all__]

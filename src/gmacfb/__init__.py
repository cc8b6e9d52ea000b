"""Distortion bounds and simulation for correlated Gaussian sources on a
two-user Gaussian multiple-access channel with causal feedback.

Each public name is declared once: `bounds`, `model`, `rate_distortion`
and `sweep` each list theirs in `__all__`, re-exported here unchanged. The
simulator's three names load `gmacfb.simulate`, and numpy, on first
access, so importing the package does not import numpy.
"""

from . import bounds, model, rate_distortion, sweep
from .bounds import *
from .model import *
from .rate_distortion import *
from .sweep import *

# Listed here, since reading simulate.__all__ would import numpy. Resolved on
# first access (PEP 562), never cached: always simulate's objects.
_SIMULATE_NAMES = ("SimConfig", "SimReport", "simulate_uncoded")

__all__ = sorted([*bounds.__all__, *model.__all__, *rate_distortion.__all__, *sweep.__all__, *_SIMULATE_NAMES])


def __getattr__(name: str):
    if name in _SIMULATE_NAMES:
        from . import simulate

        return getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SIMULATE_NAMES})

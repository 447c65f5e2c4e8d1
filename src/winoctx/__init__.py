"""Contextuality analysis for ambiguous-language judgment experiments."""

__version__ = "0.1.0"

from .scenario import MeasurementScenario, cyclic_structure, maximal_contexts
from .empirical import Distribution, EmpiricalModel
from .cbd import CyclicSystem, chsh_violation, cnt1, s_odd

__all__ = [
    "MeasurementScenario",
    "maximal_contexts",
    "cyclic_structure",
    "Distribution",
    "EmpiricalModel",
    "CyclicSystem",
    "s_odd",
    "cnt1",
    "chsh_violation",
    "contextual_fraction",
    "is_noncontextual",
]


def __getattr__(name):
    # the LP measures load sheaf, and with it numpy, on first use only
    if name in ("contextual_fraction", "is_noncontextual"):
        from . import sheaf

        return getattr(sheaf, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Contextuality analysis for ambiguous-language judgment experiments."""

__version__ = "0.1.0"

from .scenario import MeasurementScenario, cyclic_structure, maximal_contexts
from .empirical import Distribution, EmpiricalModel
from .cbd import CyclicSystem, chsh_violation, cnt1, s_odd
from .sheaf import contextual_fraction, is_noncontextual

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

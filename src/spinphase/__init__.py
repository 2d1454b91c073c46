"""Finite-dimensional SU(2) representations, their unitary phase operator,
deformed ladder algebras, and the single phase-operator equation of motion
that underlies all of their Heisenberg dynamics."""

from . import deform, dynamics, operators, oscillator, phase, report, su2
from .operators import *  # noqa: F401,F403
from .report import *  # noqa: F401,F403
from .su2 import *  # noqa: F401,F403
from .phase import *  # noqa: F401,F403
from .deform import *  # noqa: F401,F403
from .oscillator import *  # noqa: F401,F403
from .dynamics import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted(
    set().union(*(m.__all__ for m in (operators, report, su2, phase, deform, oscillator, dynamics)))
)

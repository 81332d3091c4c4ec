"""Budget-constrained reserve selection on synthetic landscapes with species dynamics.

The package exports the public names of ``dynamics``, ``experiment``,
``landscape`` and ``solver``, as each module's ``__all__`` declares them.
"""

from . import dynamics, experiment, landscape, solver
from .dynamics import *  # noqa: F403
from .experiment import *  # noqa: F403
from .landscape import *  # noqa: F403
from .solver import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*dynamics.__all__, *experiment.__all__, *landscape.__all__, *solver.__all__]

"""Recovery of bandlimited signals and momentum-limited quantum states
from data with a gap below the time-frequency uncertainty limit.

A signal bandlimited to a band of width W that loses an interval of width
T < 1/W is not lost: the erasure operator (1 - P_T P_W) is invertible and
the gap is filled by a geometric series, a direct solve, or summed
spectral copies of comb samples.  The same algebra recovers a
momentum-limited quantum state whose coordinate dependence was erased by
a projective measurement, with free-evolution tomography supplying the
density matrix in between.

The library works on finite uniform grids with exact FFT-based
projections; every continuum inequality is enforced with a documented
discretization slack.
"""

from .core import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .projections import *  # noqa: F401,F403
from .recovery import *  # noqa: F401,F403
from .sampling import *  # noqa: F401,F403
from .quantum import *  # noqa: F401,F403
from . import core, errors, projections, quantum, recovery, sampling

__version__ = "0.1.0"

#: each module's own export list, in dependency order; no name is in two
__all__ = [
    "__version__",
    *core.__all__,
    *errors.__all__,
    *projections.__all__,
    *recovery.__all__,
    *sampling.__all__,
    *quantum.__all__,
]

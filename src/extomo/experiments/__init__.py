"""Named, reproducible experiments, each named once, in its module's __all__.

Each returns an ExperimentReport with its own checks, except three that
return tuples, a shape the benchmark's workloads still read:
``t_delta_log_law`` (fit, report), ``necessity_band_example`` (report,
fit) and ``bt_bounds_sweep`` (two GrowthFits, checked by ``sweep
bt-bounds``).  Building blocks stay private to their modules.
"""

from .identities import *  # noqa: F401,F403
from .growth import *  # noqa: F401,F403
from .weighted import *  # noqa: F401,F403
from .reductions import *  # noqa: F401,F403
from .tubes import *  # noqa: F401,F403
from .extremal import *  # noqa: F401,F403

from . import identities, growth, weighted, reductions, tubes, extremal

__all__ = [*identities.__all__, *growth.__all__, *weighted.__all__,
           *reductions.__all__, *tubes.__all__, *extremal.__all__]

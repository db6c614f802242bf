"""Named, reproducible experiments.

Each returns an ExperimentReport with its own checks, except
``t_delta_log_law`` (fit, report), ``necessity_band_example`` (report,
fit), ``bt_bounds_sweep`` (two GrowthFits, checked by ``sweep
bt-bounds``) and ``extremize`` (density, report); the other names are
building blocks.
"""

from .identities import (verify_xray_identity, verify_radon_identity,
                         verify_mollified_radon, sharp_constant_S2)
from .growth import (t_delta_log_law, radon_growth_sweep,
                     radon_outside_range_probe, knapp_radon_lower_bounds,
                     xray_multiscale_lower_bound, bt_bounds_sweep,
                     necessity_band_example)
from .weighted import (gamma_R_weight, isometry_constancy, verify_wstein,
                       verify_wmiztak)
from .reductions import (lemma_X_reduction_check, verify_reduce_lemma,
                         reduce_lemma_family, power_weight_ratio)
from .tubes import (tube_direction_angles, cap_wavepacket_extension,
                    randomized_tube_experiment)
from .extremal import build_functional, extremize

__all__ = [
    "verify_xray_identity",
    "verify_radon_identity",
    "verify_mollified_radon",
    "sharp_constant_S2",
    "t_delta_log_law",
    "radon_growth_sweep",
    "radon_outside_range_probe",
    "knapp_radon_lower_bounds",
    "xray_multiscale_lower_bound",
    "bt_bounds_sweep",
    "necessity_band_example",
    "gamma_R_weight",
    "isometry_constancy",
    "verify_wstein",
    "verify_wmiztak",
    "lemma_X_reduction_check",
    "verify_reduce_lemma",
    "reduce_lemma_family",
    "power_weight_ratio",
    "tube_direction_angles",
    "cap_wavepacket_extension",
    "randomized_tube_experiment",
    "build_functional",
    "extremize",
]

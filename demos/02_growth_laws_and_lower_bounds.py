"""Growth laws: logarithmic upper bounds and the examples that saturate them.

Truncating the tomographic identities to a ball of radius R (or softening
the equator singularity at scale delta) turns the exact identities into
inequalities whose constants grow logarithmically.  This demo measures
those laws as least-squares fits, then shows the cap ("Knapp") densities
whose extensions concentrate on dual tubes and break any better exponent.

Run:  python3 demos/02_growth_laws_and_lower_bounds.py
"""

import numpy as np

from extomo.experiments import (radon_growth_sweep, radon_outside_range_probe,
                                t_delta_log_law)
from extomo.sphere import Density, make_circle_grid

print(__doc__)

# --- the equator-singular integral ----------------------------------------
print("T_delta(1) on the circle against log(1/delta):")
fit, rep = t_delta_log_law()
for d, v in zip(rep.raw_data["delta"], rep.raw_data["value"]):
    print(f"  delta = {d:7.0e}:  {v:9.4f}")
print(f"  fitted slope {fit.slope:.4f} (the kernel opens four log-length"
      f" windows), r^2 = {fit.r_squared:.6f}")

# --- log growth of the truncated hyperplane norm --------------------------
print("\nball-truncated sup-over-offsets line norm for g = 1 (n = 2):")
R_list = (16, 32, 64, 128, 256, 512, 1024)
grid = make_circle_grid(256)
one = Density(grid, np.ones(grid.node_count))
rep = radon_growth_sweep(one, 2.0, R_list)
for R, v in zip(R_list, rep.raw_data["ordinate"]):
    print(f"  R = {R:5d}:  norm {v:8.4f}   norm/log R {v / np.log(R):.4f}")
print(f"  log-fit r^2 = {rep.metrics['r_squared']:.4f}, max/min of norm/log R"
      f" = {rep.metrics['band_ratio']:.4f}: the norm tracks log R")

# --- the out-of-range probe -----------------------------------------------
print("\noutside the admissible exponent range the growth is a power, not a")
print("log: a cap of width R^(-1/2) concentrates on a dual tube, and the")
print("line integral along the tube direction grows like R^(1/2):")
probe = radon_outside_range_probe()
for logR, logv in zip(probe.raw_data["abscissa"], probe.raw_data["ordinate"]):
    print(f"  R = {np.exp(logR):6.0f}:  value {np.exp(logv):9.3f}")
print(f"  fitted log-log slope {probe.metrics['slope']:.3f} (positive power"
      " growth)")

"""Wavepackets on tubes, weighted bounds, and extremizer search.

Three shorter stories.  First, modulated cap densities whose extensions
concentrate on unit tubes, with a Khintchine average tying their square
function to a Kakeya-type overlap quantity.  Second, weighted L^2 bounds
where the weight enters only through line-transform data, including the
exponent probe that is expected to grow.  Third, projected gradient
ascent over densities showing the constant density extremizes the
sup-over-lines functional.

Run:  python3 demos/03_tubes_weights_extremizers.py
"""

import numpy as np

from extomo.experiments import (extremize, randomized_tube_experiment,
                                verify_wmiztak)

print(__doc__)

# --- randomized wavepacket tubes ------------------------------------------
print("wavepacket tube family at R = 64 (seeded):")
rep = randomized_tube_experiment(R=64, n_trials=400, seed=0)
print(f"  tubes               : {rep.params['n_tubes']}")
print(f"  core concentration  : c_min = {rep.metrics['c_min']:.3f}"
      " (prediction ~ 1.0 = twice the cap scale)")
print(f"  Khintchine ratio    : {rep.metrics['khintchine_ratio']:.5f}"
      f"  ({rep.metrics['khintchine_dev_in_se']:.2f} standard errors"
      " from the exact mean)")
print(f"  overlap / dual scale: {rep.metrics['kakeya_ratio']:.2f}")

# --- weighted bounds and the falsification probe --------------------------
print("\nweighted bounds with line-transform data of the weight (n = 2):")
rep = verify_wmiztak()
print(f"  radial-weight constants over random densities: max C ="
      f" {rep.metrics['C_mt_max']:.2f}")
print(f"  log-weighted constant across the R sweep: max {rep.metrics['C2_max']:.2f},"
      f" spread {rep.metrics['C2_stability']:.2f}x")
print(f"  q = 3 probe: fitted growth slope {rep.metrics['probe_slope']:.3f}"
      " -- the probe exponent is not admissible and the constant grows")

# --- extremizer search -----------------------------------------------------
print("\nprojected gradient ascent of the sup-over-lines quotient on S^2:")
rep = extremize("xray_sup_ratio(2,inf)", steps=20, seed=0)
print(f"  objective: {rep.metrics['objective_init']:.4f} ->"
      f" {rep.metrics['objective_final']:.4f}"
      f"  (constant density gives 4 pi^2 = {4 * np.pi ** 2:.4f})")
density = np.asarray(rep.raw_data["density_values"])
spread = density.max() / density.min()
print(f"  final density max/min = {spread:.3f}")
print("  the ascent plateaus near 4 pi^2; the few-percent overshoot is the"
      " discrete sup over a finite direction sample and shrinks under"
      " refinement")

"""A first tour: the extension operator and its tomographic identities.

The central object is the map g -> gdsigma-hat carrying a density g on
the sphere to the Fourier transform of the measure g dsigma.  Two exact
identities tie tomographic data of |gdsigma-hat|^2 back to the sphere:
the line transform equals an integral of squared slice-measure
extensions, and (for hemisphere-supported g) the hyperplane transform
equals an equator-singular integral of |g|^2, independent of the offset.

Run:  python3 demos/01_extension_and_identities.py
"""

import numpy as np

from extomo.extension import extend, sigma_hat_closed_form
from extomo.experiments import (sharp_constant_S2, verify_radon_identity,
                                verify_xray_identity)
from extomo.sphere import bump_cap_density, make_sphere_grid, preset_density

print(__doc__)

# --- the closed form for the full sphere measure --------------------------
grid = make_sphere_grid(48, 96)
one = preset_density(grid, "constant", None)

print("quadrature vs closed form 4 pi |sin r| / r for the sphere measure:")
for r in (0.5, 2.0, 8.0, 32.0):
    x = np.array([0.0, 0.0, r])
    val = abs(extend(one, x))
    print(f"  r = {r:5.1f}:  quadrature {val:.8f}   closed {sigma_hat_closed_form(3, r):.8f}")

# --- the line-transform identity ------------------------------------------
print("\nline transform of |gdsigma-hat|^2 vs the slice formula (cap density):")
cap = bump_cap_density(make_sphere_grid(96, 192), np.array([0.0, 0.0, 1.0]), 0.7)
omega = np.array([0.3, -0.5, 0.8]) / np.sqrt(0.98)
rep = verify_xray_identity(cap, omega)
print(f"  line side   {rep.metrics['lhs']:.6f}")
print(f"  slice side  {rep.metrics['rhs']:.6f}")
print(f"  relative error {rep.metrics['rel_err']:.2e}")

# --- the hyperplane-transform identity ------------------------------------
print("\nhyperplane transform for a hemisphere-supported density: the value")
print("is independent of the offset t and matches the singular integral:")
cap_om = bump_cap_density(make_sphere_grid(96, 192), omega, 0.7)
rep = verify_radon_identity(cap_om, omega, t_list=(0.5, 1.0, 2.0))
print(f"  sphere side (2 pi)^2 T_0(|g|^2) = {rep.metrics['rhs']:.6f}")
for t, lhs in zip(rep.raw_data["t"], rep.raw_data["lhs"]):
    print(f"  hyperplane at t = {t:.1f}:  {lhs:.6f}")
print(f"  spread across t: {rep.metrics['t_spread']:.2e}")

# --- the sharp constant ----------------------------------------------------
print("\nthe best constant for lines through the origin, two ways:")
rep = sharp_constant_S2()
print(f"  direct line quadrature : {rep.metrics['ratio_direct']:.6f}")
print(f"  slice formula          : {rep.metrics['ratio_slice']:.6f}")
print(f"  4 pi^2                 = {4 * np.pi ** 2:.6f}")
print(f"  (a literature value of 2 pi^2 = {2 * np.pi ** 2:.6f} disagrees with"
      " both paths and is flagged in the report notes)")

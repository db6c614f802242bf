"""Numerical workbench for the Fourier extension operator on the sphere.

Core objects: quadrature grids and densities on S^(n-1) (``sphere``), the
extension operator (``extension``), X-ray/Radon/line machinery and the
uniform-grid ``SampledField`` (``tomography``), great-circle slice
operators (``spherical``), and reproducible experiments with persisted
reports (``experiments``, ``reports``).
"""

__version__ = "0.1.0"

from .errors import (InvalidArgumentError, NonFiniteObjectiveError,
                     PreconditionError)
from .sphere import (Density, SphereGrid, bump_cap_density,
                     knapp_cap_density, make_circle_grid, make_sphere_grid)
from .extension import extend, sigma_hat_closed_form
from .tomography import SampledField
from .reports import ExperimentReport, GrowthFit, experiment_rng, fit_log_growth

__all__ = [
    "__version__",
    "InvalidArgumentError",
    "NonFiniteObjectiveError",
    "PreconditionError",
    "Density",
    "SphereGrid",
    "bump_cap_density",
    "knapp_cap_density",
    "make_circle_grid",
    "make_sphere_grid",
    "SampledField",
    "extend",
    "sigma_hat_closed_form",
    "ExperimentReport",
    "GrowthFit",
    "experiment_rng",
    "fit_log_growth",
]

"""Density-to-potential inversion via cusp analysis, with companions.

Library layout:

    density    analytic Slater/Gaussian mixture densities and derivatives
    lebedev    angular quadrature grids
    spherical  spherical averages and one-sided radial derivatives
    topology   critical-point search and classification
    inversion  cusp-based Coulomb frame reconstruction and verification
    radial     radial moments, charges and attractions from one incomplete-gamma kernel
    audit      one-electron cross-energy audits and v(r) from psi
    scaling    radial local-scaling maps between spherical densities
    cli        batch command-line front end (also `python -m rho2v`)
"""

__version__ = "0.1.0"

from .density import (  # noqa: F401
    DensityModel,
    NuclearFrame,
    PrimitiveKind,
    RadialPrimitive,
    evaluate,
    gradient,
    hessian,
    hydrogenic_model,
    model_from_frame,
    normalize,
    total_integral,
)
from .audit import (  # noqa: F401
    OneElectronSystem,
    audit_pair,
    potential_from_wavefunction,
)
from .inversion import (  # noqa: F401
    incompatibility_check,
    reconstruct_potential,
    verify_cusp_conditions,
)
from .scaling import RadialDensity, solve_scaling_map, transform_wavefunction  # noqa: F401
from .spherical import radial_derivative_at_center, spherical_average  # noqa: F401
from .topology import CriticalKind, CriticalPoint, classify, find_critical_points  # noqa: F401

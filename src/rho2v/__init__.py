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

`import rho2v` loads no submodule.  The package re-exports the library's main
names (the table _EXPORTS) lazily, through a module __getattr__ (PEP 562):
`rho2v.<name>` imports the name's home module on first use, so a process pays
only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# re-exported name -> its home module
_EXPORTS = {
    **dict.fromkeys(
        (
            "DensityModel",
            "NuclearFrame",
            "PrimitiveKind",
            "RadialPrimitive",
            "evaluate",
            "gradient",
            "hessian",
            "hydrogenic_model",
            "model_from_frame",
            "normalize",
            "total_integral",
        ),
        "density",
    ),
    **dict.fromkeys(("OneElectronSystem", "audit_pair", "potential_from_wavefunction"), "audit"),
    **dict.fromkeys(("incompatibility_check", "reconstruct_potential", "verify_cusp_conditions"), "inversion"),
    **dict.fromkeys(("RadialDensity", "solve_scaling_map", "transform_wavefunction"), "scaling"),
    **dict.fromkeys(("radial_derivative_at_center", "spherical_average"), "spherical"),
    **dict.fromkeys(("CriticalKind", "CriticalPoint", "classify", "find_critical_points"), "topology"),
}


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted([*globals(), *_EXPORTS])

"""Exception types raised across the package.

Every error that callers are expected to branch on gets its own class;
generic misuse (bad argument types, malformed values) raises ValueError.
The command line maps each class to an exit code (rho2v.cli.EXIT_CODES).
"""

from __future__ import annotations


class Rho2vError(Exception):
    """Base class for all package-specific errors."""


class AtCuspSingularity(Rho2vError):
    """Gradient/Hessian requested at a point where the density is not smooth."""


class ZeroDensity(Rho2vError):
    """Normalization requested for a model with vanishing total integral."""


class UnsupportedOrder(Rho2vError):
    """Requested angular grid size is not in the supported Lebedev set."""


class EmptyResult(Rho2vError):
    """Critical-point search converged from no seed (flat or zero model)."""


class NoCuspsFound(Rho2vError):
    """Density has no cusp maxima; Coulomb-frame reconstruction impossible.

    Carries the smooth critical points that *were* found so callers can
    report what the density looks like instead.
    """

    def __init__(self, message: str, critical_points=None):
        super().__init__(message)
        self.critical_points = list(critical_points) if critical_points else []


class NodeEncountered(Rho2vError):
    """Wavefunction is non-positive at a sample point of the inversion grid."""


class MassMismatch(Rho2vError):
    """Source and target radial densities carry different electron counts."""


class NonMonotoneCumulative(Rho2vError):
    """A radial map that cannot be placed: the target cumulative charge is flat
    over a bracket (density hole), the source charge matched at a radius
    underflows to 0, or the solved map misses the charge-residual target."""


class SpecError(Rho2vError):
    """A density spec file failed validation; message names the field."""


class OptionError(Rho2vError):
    """A command-line option value lies outside the range the command accepts."""


class OutOfScope(Rho2vError):
    """A valid spec that the command does not handle (e.g. multi-center audit)."""

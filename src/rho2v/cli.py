"""Batch command-line front end.

Commands:

    invert       reconstruct the Coulomb frame/potential from a density spec
    verify-cusp  check the cusp relation against the spec's declared frame
    audit        cross-energy audit of two single-center one-electron specs
    lst          solve the radial local-scaling map between two specs
    grid-export  sample the density on a regular grid as a Gaussian cube file

Flags, per command (every one of them is read):

    invert       --output --seeds --lebedev-order --json-indent --snap-charges
    verify-cusp  --output --tol --lebedev-order --json-indent
    audit        --output --tol --json-indent
    lst          --output --json-indent --grid-min --grid-max --grid-points --table
    grid-export  --output --origin --step --counts

Exit codes: 0 success, 1 input error (bad spec, out-of-range flag value, or
usage error), 2 no cusps / cusp check failed (a claimed nucleus where the
density has no cusp, read by a converged ladder, or is at most 1e-30, or
whose slopes disagree), 3 out of scope (multi-center
where single-center is required, or an audit spec whose terms are not the
hydrogenic density of its frame), 4 electron-count mismatch, or an lst map
that cannot be placed (a target density hole, a source charge that
underflows to 0 at a grid radius, or a map that misses the q_residual
target at a grid radius).  Errors are reported as one
"rho2v <command>: <message>" line on stderr (usage errors: argparse's usage
text and its "error:" line).
All reports are deterministic JSON: same inputs and flags, same bytes.  Each
records the tolerances its command used, with the values it passed.

Each command imports only the library modules it runs.  This module loads
numpy, errors, density (with radial), lebedev (its orders are the
--lebedev-order choices) and specio; the command functions, the parser branch
of each command and each tolerance section import the rest where they use it.
So grid-export adds cube (the cube writer), lst adds scaling, invert and
verify-cusp add inversion, topology and spherical, and audit adds those and
audit.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .density import CENTER_EPS, DensityModel, PrimitiveKind, evaluate_grid
from .errors import (
    MassMismatch,
    NoCuspsFound,
    NonMonotoneCumulative,
    OptionError,
    OutOfScope,
    Rho2vError,
    SpecError,
)
from .lebedev import SUPPORTED_ORDERS
from .specio import load_spec, make_report, render_report, spec_offset

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CUSPS = 2
EXIT_SCOPE = 3
EXIT_MASS = 4

# exception -> exit code; the first class the error is an instance of wins
EXIT_CODES = {
    MassMismatch: EXIT_MASS,
    NonMonotoneCumulative: EXIT_MASS,
    OutOfScope: EXIT_SCOPE,
    Rho2vError: EXIT_INPUT,
    OSError: EXIT_INPUT,
}


# every tolerance section, in the order --tolerances names them
TOLERANCE_SECTIONS = (
    "radial_derivative",
    "topology",
    "cusp_verification",
    "audit",
    "local_scaling",
    "supported_lebedev_orders",
)


def _tolerances(*sections, lebedev_order=None, seeds=None, cusp_tol=None, audit_tol=None) -> dict:
    """The named tolerance sections (all when none is named) with the values in
    force; a value left None is the library default.  Each section imports the
    module whose constants it reads, so a command loads only what it runs."""
    full = {}
    for name in sections or TOLERANCE_SECTIONS:
        if name == "radial_derivative":
            from .spherical import DEFAULT_LEVELS, DEFAULT_ORDER, DEFAULT_R0, DEFAULT_SHRINK, DEFAULT_TOL

            full[name] = {
                "r0": DEFAULT_R0,
                "shrink": DEFAULT_SHRINK,
                "max_levels": DEFAULT_LEVELS,
                "tol": DEFAULT_TOL,
                "lebedev_order": DEFAULT_ORDER if lebedev_order is None else lebedev_order,
            }
        elif name == "topology":
            from .topology import DEDUPE_RADIUS, DEFAULT_SEEDS, GRAD_TOL, TAU_CUSP

            full[name] = {
                "seeds_per_axis": DEFAULT_SEEDS if seeds is None else seeds,
                "gradient_tol": GRAD_TOL,
                "tau_cusp": TAU_CUSP,
                "dedupe_radius": DEDUPE_RADIUS,
            }
        elif name == "cusp_verification":
            from .inversion import CUSP_TOL
            from .spherical import TAU_CUSP

            full[name] = {"tol": CUSP_TOL if cusp_tol is None else cusp_tol, "tau_cusp": TAU_CUSP}
        elif name == "audit":
            from .audit import AUDIT_TOL
            from .inversion import DENSITY_TOL, IDENTICAL_CHARGE_TOL, IDENTICAL_POSITION_TOL, MATCH_GATE

            full[name] = {
                "tol": AUDIT_TOL if audit_tol is None else audit_tol,
                "cross_check_density_tol": DENSITY_TOL,
                "cross_check_match_gate": MATCH_GATE,
                "cross_check_position_tol": IDENTICAL_POSITION_TOL,
                "cross_check_charge_tol": IDENTICAL_CHARGE_TOL,
            }
        elif name == "local_scaling":
            from .scaling import MASS_TOL, Q_RESIDUAL_TARGET

            full[name] = {"mass_tol": MASS_TOL, "q_residual": Q_RESIDUAL_TARGET}
        elif name == "supported_lebedev_orders":
            full[name] = list(SUPPORTED_ORDERS)
    return full


def _write_output(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _emit(args, inputs, tolerances: dict, result: dict):
    """Write the report of args.command on inputs to --output (stdout by default)."""
    doc = make_report(args.command, inputs, tolerances, result)
    _write_output(render_report(doc, args.json_indent), args.output)


def _skip_reason(p) -> str:
    """Why invert reads no charge at the critical point p, which is not a cusp."""
    from .spherical import TAU_CUSP

    if p.log_derivative < -TAU_CUSP:  # a cusp reading whose ladder did not converge
        return (
            f"cusp reading did not converge: log-derivative {p.log_derivative:.6g}, uncertainty "
            f"estimate {p.log_derivative_uncertainty_estimate:.3g} after {p.ladder_levels_used} levels"
        )
    return (
        f"smooth critical point (rank {p.rank}, signature {p.signature}): "
        "vanishing one-sided slope, not a nuclear cusp"
    )


def cmd_invert(args) -> int:
    from .inversion import reconstruct_potential
    from .topology import MIN_SEEDS

    if args.seeds < MIN_SEEDS:
        raise OptionError(f"--seeds must be >= {MIN_SEEDS}")
    model, _ = load_spec(args.spec)
    tolerances = _tolerances(
        "radial_derivative", "topology", lebedev_order=args.lebedev_order, seeds=args.seeds
    )
    try:
        report = reconstruct_potential(
            model, seeds_per_axis=args.seeds, snap_charges=args.snap_charges, order=args.lebedev_order
        )
    except NoCuspsFound as err:
        result = {
            "status": "no_cusps_found",
            "message": str(err),
            "smooth_critical_points": err.critical_points,
        }
        _emit(args, [args.spec], tolerances, result)
        return EXIT_NO_CUSPS

    result = {
        "status": "ok",
        "estimated_centers": [
            {
                "position": pos,
                "charge": charge,
                "charge_uncertainty_estimate": 0.5 * p.log_derivative_uncertainty_estimate,
                "ladder_converged": p.ladder_converged,
                "ladder_levels_used": p.ladder_levels_used,
                "log_derivative": p.log_derivative,
                "density_value": p.density_value,
            }
            for pos, charge, p in zip(report.positions, report.charges, report.cusp_points)
        ],
        "potential_form": "-sum_a Z_a / |x - R_a|",
        "skipped_points": [{"position": p.position, "reason": _skip_reason(p)} for p in report.skipped_points],
    }
    if report.snapped_charges is not None:
        result["snapped_charges"] = report.snapped_charges
        result["snap_distances"] = report.snap_distances
    if model.frame is not None:
        result["match"] = {
            "centers": report.matches,
            "spurious_estimated_indices": report.spurious_indices,
            "missed_true_indices": report.missed_true_indices,
        }
    _emit(args, [args.spec], tolerances, result)
    return EXIT_OK


def cmd_verify_cusp(args) -> int:
    from .inversion import verify_cusp_conditions

    if not 0.0 <= args.tol < math.inf:
        raise OptionError("--tol must be finite and >= 0")
    model, _ = load_spec(args.spec)
    if model.frame is None:
        raise SpecError("frame: required by verify-cusp but missing from the spec")
    checks = verify_cusp_conditions(model, model.frame, tol=args.tol, order=args.lebedev_order)
    tolerances = _tolerances(
        "radial_derivative", "cusp_verification", lebedev_order=args.lebedev_order, cusp_tol=args.tol
    )
    all_passed = all(c.passed for c in checks)
    _emit(args, [args.spec], tolerances, {"all_passed": all_passed, "checks": checks})
    return EXIT_OK if all_passed else EXIT_NO_CUSPS


# relative tolerance on the exponent and coefficient of an audited spec's
# hydrogenic term
HYDROGENIC_RTOL = 1e-12


def _single_center_system(model: DensityModel, offset: float, label: str):
    """The audit.OneElectronSystem of the spec's one-center frame; the spec's
    terms must be exactly that system's density, Z^3/pi exp(-2 Z r) at the center."""
    from .audit import OneElectronSystem

    if model.frame is None or len(model.frame) != 1:
        raise OutOfScope(f"{label}: audit requires a spec with a single-center frame")
    if model.electron_count != 1:
        raise OutOfScope(f"{label}: audit requires electron_count == 1")
    z, center = float(model.frame.charges[0]), model.frame.positions[0]
    prim = model.terms[0][1] if len(model.terms) == 1 else None
    if not (
        prim is not None
        and prim.kind is PrimitiveKind.SLATER_S
        and prim.power == 0
        and np.linalg.norm(model.terms[0][0] - center) <= CENTER_EPS
        and math.isclose(prim.exponent, z, rel_tol=HYDROGENIC_RTOL)
        and math.isclose(prim.coefficient, z**3 / math.pi, rel_tol=HYDROGENIC_RTOL)
    ):
        raise OutOfScope(
            f"{label}: audit requires the hydrogenic density of the frame, "
            "one slater_s term of power 0 at its center with exponent Z and coefficient Z^3/pi"
        )
    return OneElectronSystem(charge=z, center=tuple(center), offset=offset)


def cmd_audit(args) -> int:
    from .audit import CUSP_CHECK_SEEDS, audit_pair

    if not 0.0 <= args.tol < math.inf:
        raise OptionError("--tol must be finite and >= 0")
    model1, raw1 = load_spec(args.spec1)
    model2, raw2 = load_spec(args.spec2)
    sys1 = _single_center_system(model1, spec_offset(raw1), args.spec1)
    sys2 = _single_center_system(model2, spec_offset(raw2), args.spec2)
    report = audit_pair(sys1, sys2, tol=args.tol)
    # the case-IV cross-check runs the cusp search at its own seed count
    tolerances = _tolerances(
        "audit", "radial_derivative", "topology", audit_tol=args.tol, seeds=CUSP_CHECK_SEEDS
    )
    result = {
        "case": report.case,
        "E1": report.e1,
        "E2": report.e2,
        "cross12": report.cross12,
        "cross21": report.cross21,
        "diff_integral_rho2": report.diff_integral_rho2,
        "diff_integral_rho1": report.diff_integral_rho1,
        "strict1": report.strict1,
        "strict2": report.strict2,
        "wavefunctions_equal": report.wavefunctions_equal,
        "densities_equal": report.densities_equal,
        "potentials_equal_mod_const": report.potentials_equal_mod_const,
        "identity_residual_1": report.identity_residual_1,
        "identity_residual_2": report.identity_residual_2,
        "notes": list(report.notes),
    }
    if report.cusp_verdict is not None:
        result["cusp_cross_check"] = {
            "densities_equal": report.cusp_verdict.densities_equal,
            "case": report.cusp_verdict.case,
            "message": report.cusp_verdict.message,
        }
    _emit(args, [args.spec1, args.spec2], tolerances, result)
    return EXIT_OK


def cmd_lst(args) -> int:
    from .scaling import Q_RESIDUAL_TARGET, RadialDensity, default_grid, solve_scaling_map

    if not args.grid_min > 0.0:
        raise OptionError("--grid-min must be > 0")
    if not args.grid_min < args.grid_max < math.inf:
        raise OptionError("--grid-max must be finite and greater than --grid-min")
    # the Jacobian residual differentiates f with a 3-point stencil
    if args.grid_points < 3:
        raise OptionError("--grid-points must be >= 3")
    model_s, _ = load_spec(args.spec_source)
    model_t, _ = load_spec(args.spec_target)
    for label, model in ((args.spec_source, model_s), (args.spec_target, model_t)):
        if len(model.centers) != 1:
            raise OutOfScope(f"{label}: all terms must share one center (spherical case only)")
    grid = default_grid(args.grid_min, args.grid_max, args.grid_points)
    mapping = solve_scaling_map(
        RadialDensity.from_model(model_s), RadialDensity.from_model(model_t), grid
    )
    # a NaN residual misses the target as well
    missed = np.flatnonzero(~(mapping.q_residuals <= Q_RESIDUAL_TARGET))
    if missed.size:
        i = missed[0]
        raise NonMonotoneCumulative(
            f"q_residual {mapping.q_residuals[i]:.3g} at r = {grid[i]:g} misses the target {Q_RESIDUAL_TARGET:g}"
        )
    tolerances = _tolerances("local_scaling")
    result = {
        "electron_count": mapping.source.electron_count,
        "jacobian_residual": mapping.jacobian_residual,
        "table": {"r": mapping.grid, "f": mapping.f, "f_prime": mapping.f_prime, "q_residual": mapping.q_residuals},
    }
    _emit(args, [args.spec_source, args.spec_target], tolerances, result)
    if args.table:
        lines = [f"{r:.12e} {f:.12e}" for r, f in zip(mapping.grid.tolist(), mapping.f.tolist())]
        Path(args.table).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_grid_export(args) -> int:
    from .cube import _cube_text

    counts = args.counts
    if any(c < 2 for c in counts):
        raise OptionError("--counts must be >= 2 per axis")
    points = math.prod(counts)
    too_large = f"--counts asks for {points} grid points, more than memory can hold"
    if points > sys.maxsize // 8:  # numpy refuses such a float array by its size alone
        raise OptionError(too_large)
    for flag, values in (("--origin", args.origin), ("--step", args.step)):
        if not all(map(math.isfinite, values)):
            raise OptionError(f"{flag} must be finite")
    model, _ = load_spec(args.spec)
    origin = np.asarray(args.origin, dtype=float)
    step = np.asarray(args.step, dtype=float)

    lines = [
        "rho2v density export",
        f"source: {Path(args.spec).name}",
    ]
    natoms = 0 if model.frame is None else len(model.frame)
    lines.append(f"{natoms:5d} {origin[0]:12.6f} {origin[1]:12.6f} {origin[2]:12.6f}")
    for n, v in zip(counts, np.diag(step)):
        lines.append(f"{n:5d} {v[0]:12.6f} {v[1]:12.6f} {v[2]:12.6f}")
    if model.frame is not None:
        for pos, z in zip(model.frame.positions, model.frame.charges):
            lines.append(
                f"{int(round(z)):5d} {z:12.6f} {pos[0]:12.6f} {pos[1]:12.6f} {pos[2]:12.6f}"
            )

    try:
        text = _cube_text("\n".join(lines) + "\n", evaluate_grid(model, origin, step, counts))  # z fastest
    except MemoryError:
        raise OptionError(too_large) from None
    _write_output(text, args.output)
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_INPUT; argparse's own 2 means "no cusps" here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        # a subcommand reports what it does not take instead of handing it up
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _report_flags(p):
    p.add_argument("--output", default=None, help="report path (default: stdout)")
    p.add_argument("--json-indent", type=int, default=2)


# the commands that build_parser takes by name
COMMANDS = ("invert", "verify-cusp", "audit", "lst", "grid-export")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of command alone, "rho2v <command>", reading what its subparser
    reads; or, for None, the rho2v parser with every command's subparser."""
    if command is not None:
        parser = _ArgumentParser(prog=f"rho2v {command}")
        parser.set_defaults(command=command, tolerances=False)
        new = lambda name, help: parser  # noqa: E731 - the command's own parser takes its arguments
    else:
        description = "Invert densities to Coulomb potentials and audit uniqueness machinery."
        parser = _ArgumentParser(prog="rho2v", description=description)
        parser.add_argument("--version", action="version", version=f"rho2v {__version__}")
        parser.add_argument("--tolerances", action="store_true", help="print the default tolerance set as JSON and exit")
        new = parser.add_subparsers(dest="command").add_parser

    if command in (None, "invert"):
        from .spherical import DEFAULT_ORDER
        from .topology import DEFAULT_SEEDS

        p = new("invert", help="reconstruct the Coulomb frame from a density")
        p.add_argument("spec")
        _report_flags(p)
        p.add_argument("--lebedev-order", type=int, default=DEFAULT_ORDER, choices=SUPPORTED_ORDERS)
        p.add_argument("--seeds", type=int, default=DEFAULT_SEEDS, help="seed grid points per axis")
        p.add_argument("--snap-charges", action="store_true", help="also round charges to integers")
        p.set_defaults(func=cmd_invert)

    if command in (None, "verify-cusp"):
        from .inversion import CUSP_TOL
        from .spherical import DEFAULT_ORDER

        p = new("verify-cusp", help="check cusp relations against the declared frame")
        p.add_argument("spec")
        _report_flags(p)
        p.add_argument("--lebedev-order", type=int, default=DEFAULT_ORDER, choices=SUPPORTED_ORDERS)
        p.add_argument("--tol", type=float, default=CUSP_TOL)
        p.set_defaults(func=cmd_verify_cusp)

    if command in (None, "audit"):
        from .audit import AUDIT_TOL

        p = new("audit", help="cross-energy audit of two one-electron systems")
        p.add_argument("spec1")
        p.add_argument("spec2")
        _report_flags(p)
        p.add_argument("--tol", type=float, default=AUDIT_TOL)
        p.set_defaults(func=cmd_audit)

    if command in (None, "lst"):
        from .scaling import GRID_MAX, GRID_MIN, GRID_POINTS

        p = new("lst", help="solve the radial local-scaling map between two densities")
        p.add_argument("spec_source")
        p.add_argument("spec_target")
        _report_flags(p)
        p.add_argument("--grid-min", type=float, default=GRID_MIN)
        p.add_argument("--grid-max", type=float, default=GRID_MAX)
        p.add_argument("--grid-points", type=int, default=GRID_POINTS)
        p.add_argument("--table", default=None, help="also write a plain two-column r/f table")
        p.set_defaults(func=cmd_lst)

    if command in (None, "grid-export"):
        p = new("grid-export", help="sample the density as a Gaussian cube file")
        p.add_argument("spec")
        p.add_argument("--output", default=None, help="cube file path (default: stdout)")
        p.add_argument("--origin", type=float, nargs=3, default=(0.0, 0.0, 0.0))
        p.add_argument("--step", type=float, nargs=3, default=(1.0, 1.0, 1.0))
        p.add_argument("--counts", type=int, nargs=3, required=True)
        p.set_defaults(func=cmd_grid_export)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a command name first: its parser alone reads the rest, so build only that one
    command = argv[0] if argv and argv[0] in COMMANDS else None
    parser = build_parser(command)
    args = parser.parse_args(argv[1:] if command else argv)
    if args.tolerances:
        sys.stdout.write(json.dumps(_tolerances(), indent=2, sort_keys=True) + "\n")
        return EXIT_OK
    if args.command is None:
        parser.print_help()
        return EXIT_INPUT
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as err:
        print(f"rho2v {args.command}: {err}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(err, cls))


if __name__ == "__main__":
    sys.exit(main())

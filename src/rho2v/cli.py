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
usage error), 2 no cusps / cusp check failed, 3 out of scope (multi-center
where single-center is required), 4 electron-count mismatch, or a target
density hole in lst.  Errors are reported as one "rho2v <command>: <message>"
line on stderr (usage errors: argparse's usage text and its "error:" line).
All reports are deterministic JSON: same inputs and flags, same bytes.  Each
records the tolerances its command used, with the values it passed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .density import DensityModel, evaluate_many
from .errors import (
    MassMismatch,
    NoCuspsFound,
    NonMonotoneCumulative,
    OptionError,
    OutOfScope,
    Rho2vError,
    SpecError,
)
from .audit import AUDIT_TOL, CUSP_CHECK_SEEDS, OneElectronSystem, audit_pair
from .inversion import CUSP_TOL, reconstruct_potential, verify_cusp_conditions
from .lebedev import SUPPORTED_ORDERS
from .radial import DEFAULT_NODES
from .scaling import MASS_TOL, Q_RESIDUAL_TARGET, RadialDensity, default_grid, solve_scaling_map
from .specio import load_spec, make_report, render_report, spec_offset
from .spherical import DEFAULT_LEVELS, DEFAULT_ORDER, DEFAULT_R0, DEFAULT_SHRINK, DEFAULT_TOL
from .topology import DEDUPE_RADIUS, DEFAULT_SEEDS, GRAD_TOL, MIN_SEEDS, TAU_CUSP

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


def _tolerances(
    *sections,
    lebedev_order=DEFAULT_ORDER,
    seeds=DEFAULT_SEEDS,
    cusp_tol=CUSP_TOL,
    audit_tol=AUDIT_TOL,
) -> dict:
    """The named tolerance sections (all when none is named) with the values in force."""
    full = {
        "radial_derivative": {
            "r0": DEFAULT_R0,
            "shrink": DEFAULT_SHRINK,
            "max_levels": DEFAULT_LEVELS,
            "tol": DEFAULT_TOL,
            "lebedev_order": lebedev_order,
        },
        "topology": {
            "seeds_per_axis": seeds,
            "gradient_tol": GRAD_TOL,
            "tau_cusp": TAU_CUSP,
            "dedupe_radius": DEDUPE_RADIUS,
        },
        "cusp_verification": {"tol": cusp_tol},
        "audit": {"tol": audit_tol, "quadrature_nodes": DEFAULT_NODES},
        "local_scaling": {"mass_tol": MASS_TOL, "q_residual": Q_RESIDUAL_TARGET},
        "supported_lebedev_orders": list(SUPPORTED_ORDERS),
    }
    return {name: full[name] for name in sections or full}


DEFAULT_TOLERANCES = _tolerances()


def _write_output(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _point_dict(p):
    return {
        "position": p.position,
        "kind": p.kind.value,
        "rank": p.rank,
        "signature": p.signature,
        "density_value": p.density_value,
        "gradient_norm": p.gradient_norm,
        "gradient_norm_floor": p.gradient_norm_floor,
        "log_derivative": p.log_derivative,
    }


def cmd_invert(args) -> int:
    if args.seeds < MIN_SEEDS:
        raise OptionError(f"--seeds must be >= {MIN_SEEDS}")
    model, _ = load_spec(args.spec)
    derivative_options = {"order": args.lebedev_order}
    tolerances = _tolerances(
        "radial_derivative", "topology", lebedev_order=args.lebedev_order, seeds=args.seeds
    )
    try:
        report = reconstruct_potential(
            model,
            seeds_per_axis=args.seeds,
            snap_charges=args.snap_charges,
            derivative_options=derivative_options,
        )
    except NoCuspsFound as err:
        result = {
            "status": "no_cusps_found",
            "message": str(err),
            "smooth_critical_points": [_point_dict(p) for p in err.critical_points],
        }
        doc = make_report("invert", [args.spec], tolerances, result)
        _write_output(render_report(doc, args.json_indent), args.output)
        return EXIT_NO_CUSPS

    result = {
        "status": "ok",
        "estimated_centers": [
            {
                "position": pos,
                "charge": charge,
                "log_derivative": p.log_derivative,
                "density_value": p.density_value,
            }
            for pos, charge, p in zip(report.positions, report.charges, report.cusp_points)
        ],
        "potential_form": "-sum_a Z_a / |x - R_a|",
        "skipped_points": [
            {"position": s.point.position, "reason": s.reason} for s in report.skipped_points
        ],
    }
    if report.snapped_charges is not None:
        result["snapped_charges"] = report.snapped_charges
        result["snap_distances"] = report.snap_distances
    if report.has_ground_truth:
        result["match"] = {
            "centers": [
                {
                    "estimated_index": m.estimated_index,
                    "true_index": m.true_index,
                    "position_error": m.position_error,
                    "charge_error": m.charge_error,
                }
                for m in report.matches
            ],
            "spurious_estimated_indices": list(report.spurious_indices),
            "missed_true_indices": list(report.missed_true_indices),
        }
    doc = make_report("invert", [args.spec], tolerances, result)
    _write_output(render_report(doc, args.json_indent), args.output)
    return EXIT_OK


def cmd_verify_cusp(args) -> int:
    model, _ = load_spec(args.spec)
    if model.frame is None:
        raise SpecError("frame: required by verify-cusp but missing from the spec")
    verification = verify_cusp_conditions(
        model, model.frame, tol=args.tol, derivative_options={"order": args.lebedev_order}
    )
    tolerances = _tolerances(
        "radial_derivative", "cusp_verification", lebedev_order=args.lebedev_order, cusp_tol=args.tol
    )
    result = {
        "all_passed": verification.all_passed,
        "checks": [
            {
                "center": c.center,
                "charge": c.charge,
                "lhs_slope": c.lhs,
                "rhs_slope": c.rhs,
                "residual": c.residual,
                "passed": c.passed,
            }
            for c in verification.checks
        ],
    }
    doc = make_report("verify-cusp", [args.spec], tolerances, result)
    _write_output(render_report(doc, args.json_indent), args.output)
    return EXIT_OK if verification.all_passed else EXIT_NO_CUSPS


def _single_center_system(model: DensityModel, offset: float, label: str) -> OneElectronSystem:
    if model.frame is None or len(model.frame) != 1:
        raise OutOfScope(f"{label}: audit requires a spec with a single-center frame")
    if model.electron_count != 1:
        raise OutOfScope(f"{label}: audit requires electron_count == 1")
    return OneElectronSystem(
        charge=float(model.frame.charges[0]),
        center=tuple(model.frame.positions[0]),
        offset=offset,
    )


def cmd_audit(args) -> int:
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
    doc = make_report("audit", [args.spec1, args.spec2], tolerances, result)
    _write_output(render_report(doc, args.json_indent), args.output)
    return EXIT_OK


def cmd_lst(args) -> int:
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
    tolerances = _tolerances("local_scaling")
    result = {
        "electron_count": mapping.source.electron_count,
        "jacobian_residual": mapping.jacobian_residual,
        "table": [
            {"r": r, "f": f, "f_prime": fp, "q_residual": q}
            for r, f, fp, q in zip(mapping.grid, mapping.f, mapping.f_prime, mapping.q_residuals)
        ],
    }
    doc = make_report("lst", [args.spec_source, args.spec_target], tolerances, result)
    _write_output(render_report(doc, args.json_indent), args.output)
    if args.table:
        lines = [f"{r:.12e} {f:.12e}" for r, f in zip(mapping.grid, mapping.f)]
        Path(args.table).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_grid_export(args) -> int:
    counts = args.counts
    if any(c < 2 for c in counts):
        raise OptionError("--counts must be >= 2 per axis")
    model, _ = load_spec(args.spec)
    origin = np.asarray(args.origin, dtype=float)
    steps = np.diag(args.step)

    nx, ny, nz = counts
    lines = [
        "rho2v density export",
        f"source: {Path(args.spec).name}",
    ]
    natoms = 0 if model.frame is None else len(model.frame)
    lines.append(f"{natoms:5d} {origin[0]:12.6f} {origin[1]:12.6f} {origin[2]:12.6f}")
    for i, n in enumerate(counts):
        v = steps[i]
        lines.append(f"{n:5d} {v[0]:12.6f} {v[1]:12.6f} {v[2]:12.6f}")
    if model.frame is not None:
        for pos, z in zip(model.frame.positions, model.frame.charges):
            lines.append(
                f"{int(round(z)):5d} {z:12.6f} {pos[0]:12.6f} {pos[1]:12.6f} {pos[2]:12.6f}"
            )

    ix, iy, iz = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")
    idx = np.stack([ix.ravel(), iy.ravel(), iz.ravel()], axis=1)  # z fastest
    points = origin[None, :] + idx @ steps
    values = evaluate_many(model, points)
    for start in range(0, len(values), 6):
        chunk = values[start : start + 6]
        lines.append("".join(f"{v:13.5E}" for v in chunk))
    _write_output("\n".join(lines) + "\n", args.output)
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


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="rho2v",
        description="Invert densities to Coulomb potentials and audit uniqueness machinery.",
    )
    parser.add_argument("--version", action="version", version=f"rho2v {__version__}")
    parser.add_argument(
        "--tolerances",
        action="store_true",
        help="print the default tolerance set as JSON and exit",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("invert", help="reconstruct the Coulomb frame from a density")
    p.add_argument("spec")
    _report_flags(p)
    p.add_argument("--lebedev-order", type=int, default=DEFAULT_ORDER, choices=SUPPORTED_ORDERS)
    p.add_argument("--seeds", type=int, default=DEFAULT_SEEDS, help="seed grid points per axis")
    p.add_argument("--snap-charges", action="store_true", help="also round charges to integers")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("verify-cusp", help="check cusp relations against the declared frame")
    p.add_argument("spec")
    _report_flags(p)
    p.add_argument("--lebedev-order", type=int, default=DEFAULT_ORDER, choices=SUPPORTED_ORDERS)
    p.add_argument("--tol", type=float, default=CUSP_TOL)
    p.set_defaults(func=cmd_verify_cusp)

    p = sub.add_parser("audit", help="cross-energy audit of two one-electron systems")
    p.add_argument("spec1")
    p.add_argument("spec2")
    _report_flags(p)
    p.add_argument("--tol", type=float, default=AUDIT_TOL)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("lst", help="solve the radial local-scaling map between two densities")
    p.add_argument("spec_source")
    p.add_argument("spec_target")
    _report_flags(p)
    p.add_argument("--grid-min", type=float, default=1e-3)
    p.add_argument("--grid-max", type=float, default=20.0)
    p.add_argument("--grid-points", type=int, default=256)
    p.add_argument("--table", default=None, help="also write a plain two-column r/f table")
    p.set_defaults(func=cmd_lst)

    p = sub.add_parser("grid-export", help="sample the density as a Gaussian cube file")
    p.add_argument("spec")
    p.add_argument("--output", default=None, help="cube file path (default: stdout)")
    p.add_argument("--origin", type=float, nargs=3, default=[0.0, 0.0, 0.0])
    p.add_argument("--step", type=float, nargs=3, default=[1.0, 1.0, 1.0])
    p.add_argument("--counts", type=int, nargs=3, required=True)
    p.set_defaults(func=cmd_grid_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.tolerances:
        sys.stdout.write(json.dumps(DEFAULT_TOLERANCES, indent=2, sort_keys=True) + "\n")
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

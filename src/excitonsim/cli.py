"""Batch driver: reproduces the package's quantitative results as CSV/JSON.

Commands:
    dimer       concurrence of the evolved two-site model vs phase, full
                state and number-sector projections
    cmax-scan   peak projected concurrence over amplitudes and level counts
    fn-table    small-amplitude leading coefficients vs reference constants
    transport   truncation-robustness experiment from a JSON network config

Exit codes: 0 success, 2 configuration error, 3 numerical-tolerance failure.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .entanglement import _leveled_concurrence, leading_coefficient, max_concurrence
from .hilbert import ConvergenceError
from .states import DEFAULT_TAIL_TOL, MAX_LEVELS, TruncationError, coherent_tail, min_coherent_dim
from .transport import ConfigError, NetworkSpec, amplitudes_and_grid, truncation_robustness

FN_TOLERANCE = 5e-4
# most phases one dimer table evaluates: the closed form holds a few
# (phases x 2 * levels) arrays, 4.8 MB each at this bound and 30 levels
MAX_GT_STEPS = 10 ** 4


def fn_reference(n_levels: int) -> float:
    """Closed-form leading coefficient F_N = 2 sqrt((1 - 2^(1-N)) / N!)."""
    return 2.0 * math.sqrt((1.0 - 2.0 ** (1 - n_levels)) / math.factorial(n_levels))


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _write_table(path, columns, rows, meta, fmt):
    meta = {"tool": "excitonsim", "version": __version__, **meta}
    if fmt == "json":
        payload = {**meta, "columns": list(columns), "rows": [list(r) for r in rows]}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"# {key} = {value}" for key, value in meta.items()]
        lines.append(",".join(columns))
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    _write(path, text)


def _write(path, text):
    """Write ``text`` to the file ``path``, or to stdout when it is None."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def cmd_dimer(args) -> int:
    alpha = args.alpha
    gts = np.linspace(0.0, 2.0 * np.pi, args.gt_steps)
    # a tail beyond MAX_LEVELS above 1e-12 raises TruncationError, so the
    # search ends by MAX_LEVELS; the default is the minimal cutoff + 2 levels
    cutoff = args.dim or MAX_LEVELS
    if (tail := coherent_tail(alpha, cutoff)) > DEFAULT_TAIL_TOL:
        raise TruncationError(f"tail mass {tail:.3e} beyond cutoff {cutoff} exceeds "
                              f"tolerance {DEFAULT_TAIL_TOL:.3e}", tail)
    dim = args.dim or min(min_coherent_dim(alpha) + 2, MAX_LEVELS)
    # the evolved input is the leveled state with N = dim.  Its projection
    # |00> + a (cos gt |10> + i sin gt |01>) has no |11> component, so it and
    # the decohered mixture have concurrence 2 |c10 c01| / projected weight:
    # |sin 2gt| on one excitation, a^2 |sin 2gt| / (1 + a^2) with the vacuum
    pair, asq = np.abs(np.sin(2.0 * gts)), alpha ** 2
    c_p01 = asq * pair / (1.0 + asq)
    rows = zip(gts.tolist(), _leveled_concurrence(alpha, dim, gts).tolist(),
               pair.tolist(), c_p01.tolist(), c_p01.tolist())
    _write_table(
        args.out,
        ["gt", "concurrence_full", "concurrence_p1", "concurrence_p01",
         "concurrence_decohered"],
        rows,
        {"command": "dimer", "alpha": alpha, "gt_steps": args.gt_steps,
         "cutoff_dim": dim},
        args.format,
    )
    return 0


def cmd_cmax_scan(args) -> int:
    rows = [(alpha, n, max_concurrence(alpha, n))
            for alpha in args.alpha for n in range(2, args.n_max + 1)]
    _write_table(
        args.out,
        ["alpha", "n_levels", "max_concurrence"],
        rows,
        {"command": "cmax-scan", "alpha_list": list(args.alpha),
         "n_max": args.n_max},
        args.format,
    )
    return 0


def cmd_fn_table(args) -> int:
    rows = []
    for n in range(2, args.n_max + 1):
        estimate, reference = leading_coefficient(n), fn_reference(n)
        delta = abs(estimate - reference)
        rows.append((n, estimate, reference, delta, int(not delta <= FN_TOLERANCE)))
    max_delta = max(row[3] for row in rows)
    _write_table(
        args.out,
        ["n_levels", "estimate", "reference", "abs_delta", "precision_flag"],
        rows,
        {"command": "fn-table", "n_max": args.n_max,
         "max_abs_delta": max_delta, "tolerance": FN_TOLERANCE},
        args.format,
    )
    if any(row[4] for row in rows):
        print(f"fn-table: tolerance failure (max |delta| = {max_delta:.3e})",
              file=sys.stderr)
        return 3
    return 0


def cmd_transport(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config parse error at line {exc.lineno}, column {exc.colno}: "
              f"{exc.msg}", file=sys.stderr)
        return 2
    try:
        spec = NetworkSpec.from_dict(config)
        alphas, t_grid = amplitudes_and_grid(config, spec)
        reports = truncation_robustness(spec, alphas, t_grid)
    except ConfigError as exc:
        print(f"bad network config: {exc}", file=sys.stderr)
        return 2

    resolved = {
        "alphas": alphas,
        "t_final": float(config["t_final"]) if "t_final" in config else None,
        "time_points": len(t_grid),
        "network": {**vars(spec),
                    "couplings": [[c.real for c in row] for row in spec.couplings]},
    }

    payload = {
        "tool": "excitonsim",
        "version": __version__,
        "command": "transport",
        "config": config,
        "resolved": resolved,
        "fixed_step": bool(args.fixed_step),
        "reports": [r.to_dict() for r in reports],
    }
    if len(alphas) > 1:
        # an amplitude whose square is subnormal, below about 1.5e-154, gets
        # 0.0, as 0 does: dividing by that square can overflow to inf
        scale = [
            r.relative_difference / (r.alpha ** 2)
            if r.alpha ** 2 >= np.finfo(float).tiny else 0.0
            for r in reports
        ]
        payload["alpha_sq_scaling_coefficients"] = scale
    if args.format == "csv":
        columns = ["alpha", "efficiency_full", "efficiency_restricted",
                   "efficiency_cap1", "normalized_efficiency_full",
                   "relative_difference", "residual_bound", "peak_population",
                   "peak_time", "max_concurrence_p1", "max_concurrence_p01",
                   "unitary_full_concurrence_max", "converged"]
        rows = [
            (r.alpha, r.efficiency_full, r.efficiency_restricted,
             r.efficiency_cap1, r.normalized_efficiency_full,
             r.relative_difference, r.residual_bound, r.peak_population,
             r.peak_time, max(r.concurrence_p1), max(r.concurrence_p01),
             r.unitary_full_concurrence_max, int(r.converged))
            for r in reports
        ]
        _write_table(args.out, columns, rows,
                     {"command": "transport", "config": json.dumps(config),
                      "resolved": json.dumps(resolved),
                      "fixed_step": bool(args.fixed_step)},
                     "csv")
    else:
        _write(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="excitonsim",
        description="excitation transport and apparent entanglement sweeps",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_dimer = sub.add_parser("dimer", help="two-site concurrence vs phase")
    p_dimer.add_argument("--alpha", type=_positive_float, default=0.3)
    p_dimer.add_argument("--gt-steps", type=_int_in(1, MAX_GT_STEPS), default=97)
    p_dimer.add_argument("--dim", type=_int_in(2, MAX_LEVELS), default=None,
                         help="per-mode cutoff (default: minimal + 2)")
    _output_args(p_dimer)

    p_scan = sub.add_parser("cmax-scan", help="peak concurrence vs level count")
    p_scan.add_argument("--alpha", type=_positive_float, nargs="+",
                        default=[0.1, 0.3, 0.5, 0.8])
    p_scan.add_argument("--n-max", type=_int_in(2, MAX_LEVELS), default=7)
    _output_args(p_scan)

    p_fn = sub.add_parser("fn-table", help="leading coefficients vs references")
    p_fn.add_argument("--n-max", type=_int_in(2, MAX_LEVELS), default=7)
    _output_args(p_fn)

    p_tr = sub.add_parser("transport", help="truncation robustness experiment")
    p_tr.add_argument("--config", required=True)
    p_tr.add_argument("--fixed-step", action="store_true",
                      help="accepted for compatibility; propagation is always "
                           "the exact, deterministic one")
    _output_args(p_tr)
    return parser


def _positive_float(text: str) -> float:
    """argparse type: a finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _int_in(low: int, high: float = math.inf):
    """argparse type: an integer from ``low`` to ``high``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(
                f"expected an integer in [{low}, {high}], got {text!r}")
        return value
    return parse


def _output_args(parser):
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "dimer": cmd_dimer,
        "cmax-scan": cmd_cmax_scan,
        "fn-table": cmd_fn_table,
        "transport": cmd_transport,
    }
    try:
        return handlers[args.command](args)
    except (TruncationError, ConvergenceError) as exc:
        print(f"numerical tolerance failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: calibrate (optimize a landscape and save it), evaluate
(score a stored landscape over a dense grid, emit CSV + summary JSON),
interpolate (query one pulse), sweep (cost-versus-accuracy tables over
several granularities).

Exit codes: 0 success, 2 bad arguments, 3 domain error (point or
configuration outside the gate family's domain), 4 I/O or file-format
error. The thread count for calibration's initial round comes from
--workers or the PULSECAL_THREADS environment variable; evaluation and
interpolation run on the calling thread.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from .calibrate import CalibConfig, calibrate
from .errors import DomainError, FormatError
from .evaluate import evaluate_grid, interpolate, sweep
from .families import FAMILIES
from .io import load_landscape, save_landscape
from .linalg import gate_infidelity
from .optimize import OptConfig
from .pulses import evolve


def _fraction(text: str) -> Fraction:
    try:
        g = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid granularity {text!r}: {exc}") from None
    if g <= 0:
        raise ValueError(f"granularity must be positive, got {text!r}")
    return g


def _point(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"point must have 3 comma-separated components, got {text!r}")
    return tuple(float(Fraction(p)) for p in parts)


def _probe_writable(path: str) -> None:
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        raise OSError(f"output path {path!r} is not writable: {exc}") from exc


def _add_calib_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p.add_argument("--lambda", dest="lam", type=float, default=1e-2,
                   help="Tikhonov regularization weight (default 1e-2)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--segments", type=int, default=20,
                   help="piecewise-constant segments per pulse (default 20)")
    p.add_argument("--max-iter", type=int, default=50,
                   help="optimizer iteration cap per problem (default 50)")
    p.add_argument("--workers", type=int, default=None,
                   help="threads for the initial round (default: PULSECAL_THREADS or cpu)")


def _calib_config(args, granularity: Fraction, rounds: int) -> CalibConfig:
    return CalibConfig(
        family=args.family,
        granularity=granularity,
        rounds=rounds,
        lam=args.lam,
        opt=OptConfig(max_iter=args.max_iter),
        seed=args.seed,
        n_segments=args.segments,
        n_workers=args.workers,
    )


def _print_log(landscape) -> None:
    print("round  iterations  cumulative  mean_infid    max_infid     mean_penalty")
    for rec in landscape.log:
        print(
            f"{rec.round_index:5d}  {rec.iterations:10d}  {rec.cumulative_iterations:10d}"
            f"  {rec.mean_infidelity:.6e}  {rec.max_infidelity:.6e}  {rec.mean_penalty:.6e}"
        )


def cmd_calibrate(args) -> int:
    _probe_writable(args.out)
    cfg = _calib_config(args, _fraction(args.granularity), args.rounds)
    landscape = calibrate(cfg)
    _print_log(landscape)
    save_landscape(landscape, args.out)
    print(f"saved {len(landscape.references)} references to {args.out}")
    return 0


def _summary_dict(summary) -> dict:
    return {
        "mean_infidelity": summary.mean_infidelity,
        "std_infidelity": summary.std_infidelity,
        "max_infidelity": summary.max_infidelity,
        "count": summary.count,
        "cumulative_iterations": summary.cumulative_iterations,
    }


def cmd_evaluate(args) -> int:
    landscape = load_landscape(args.landscape)
    records, summary = evaluate_grid(landscape, _fraction(args.granularity))
    if args.csv:
        with open(args.csv, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["tx", "ty", "tz", "infidelity", "simplex"])
            for r in records:
                writer.writerow([repr(float(c)) for c in r.point]
                                + [repr(r.infidelity), r.simplex])
    payload = json.dumps(_summary_dict(summary), indent=2)
    if args.summary:
        with open(args.summary, "w") as f:
            f.write(payload + "\n")
    print(payload)
    return 0


def cmd_interpolate(args) -> int:
    landscape = load_landscape(args.landscape)
    p = _point(args.point)
    # Validate family membership first so an out-of-domain point is
    # reported with the violated constraint, not as a mesh-hull miss.
    target = landscape.family.unitary(p)
    alpha = interpolate(landscape, p)
    u = evolve(landscape.family.model, landscape.ansatz, alpha)
    payload = json.dumps(
        {
            "family": landscape.family.name,
            "point": list(p),
            "ansatz": {
                "n_controls": landscape.ansatz.n_controls,
                "n_segments": landscape.ansatz.n_segments,
                "duration": landscape.ansatz.duration,
                "alpha_max": landscape.ansatz.alpha_max,
            },
            "alpha": [float(a) for a in alpha],
            "alpha_hex": [float(a).hex() for a in alpha],
            "infidelity": gate_infidelity(u, target, landscape.family.dim),
        },
        indent=2,
    )
    if args.out:
        with open(args.out, "w") as f:
            f.write(payload + "\n")
    print(payload)
    return 0


def cmd_sweep(args) -> int:
    _probe_writable(args.csv)
    grans = [_fraction(g) for g in args.granularities.split(",")]
    cfg = _calib_config(args, grans[0], 0)
    rows = sweep(args.family, grans, args.max_rounds, cfg, _fraction(args.test_granularity))
    with open(args.csv, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["granularity", "round", "cumulative_iterations",
                         "mean_infidelity", "std_infidelity", "max_infidelity", "count"])
        for g, rnd, s in rows:
            writer.writerow([str(g), rnd, s.cumulative_iterations,
                             repr(s.mean_infidelity), repr(s.std_infidelity),
                             repr(s.max_infidelity), s.count])
    for g, rnd, s in rows:
        print(f"g={g} round={rnd} iters={s.cumulative_iterations} "
              f"mean={s.mean_infidelity:.3e} max={s.max_infidelity:.3e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pulsecal",
        description="Calibrate, evaluate and query interpolated control-pulse landscapes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="optimize a reference landscape and save it")
    _add_calib_flags(p)
    p.add_argument("--granularity", required=True, help="reference spacing, e.g. 1/4")
    p.add_argument("--rounds", type=int, default=0, help="re-optimization rounds")
    p.add_argument("--out", required=True, help="landscape JSON output path")
    p.set_defaults(fn=cmd_calibrate)

    p = sub.add_parser("evaluate", help="score a landscape on a dense test grid")
    p.add_argument("--landscape", required=True)
    p.add_argument("--granularity", required=True, help="test grid spacing, e.g. 1/24")
    p.add_argument("--csv", default=None, help="per-point CSV output path")
    p.add_argument("--summary", default=None, help="summary JSON output path")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("interpolate", help="query the pulse for one parameter point")
    p.add_argument("--landscape", required=True)
    p.add_argument("--point", required=True, help="tx,ty,tz")
    p.add_argument("--out", default=None, help="pulse JSON output path")
    p.set_defaults(fn=cmd_interpolate)

    p = sub.add_parser("sweep", help="computation-vs-accuracy sweep over granularities")
    _add_calib_flags(p)
    p.add_argument("--granularities", required=True, help="comma list, e.g. 1/2,1/3,1/4")
    p.add_argument("--max-rounds", type=int, default=0)
    p.add_argument("--test-granularity", required=True)
    p.add_argument("--csv", required=True)
    p.set_defaults(fn=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except (FormatError, OSError) as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

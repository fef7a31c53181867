"""Command-line front end.

Subcommands: calibrate (optimize a landscape and save it), evaluate
(score a stored landscape over a dense grid, emit CSV + summary JSON),
interpolate (query one pulse), sweep (cost-versus-accuracy tables over
several granularities).

Exit codes: 0 success, 2 bad arguments, 3 domain error (point or
configuration outside the gate family's domain), 4 I/O or file-format
error. Every subcommand runs on the calling thread. Spacings are passed
on as the strings given, to ``families.divisions``, the one reader of a
spacing; ``calibrate`` prints each round's log line as that round ends.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict
from fractions import Fraction

from .calibrate import CalibConfig, calibration_rounds
from .errors import DomainError, FormatError
from .evaluate import evaluate_grid, interpolate, sweep
from .families import FAMILIES, divisions
from .io import load_landscape, save_landscape
from .linalg import gate_infidelity
from .optimize import OptConfig
from .pulses import evolve


def _point(text: str, n: int) -> tuple:
    parts = text.split(",")
    if len(parts) != n:
        raise ValueError(f"point must have {n} comma-separated components, got {text!r}")
    try:
        return tuple(float(Fraction(p)) for p in parts)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"invalid point {text!r}: {exc}") from None


def _probe_writable(path: str) -> None:
    """Fail before a long run if ``path`` cannot be written; leave no file behind."""
    try:
        try:
            open(path, "x").close()
        except FileExistsError:
            open(path, "a").close()
        else:
            os.remove(path)
    except OSError as exc:
        raise OSError(f"output path {path!r} is not writable: {exc}") from exc


def _add_calib_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p.add_argument("--lambda", dest="lam", type=float, default=CalibConfig.lam,
                   help="Tikhonov regularization weight (default %(default)s)")
    p.add_argument("--seed", type=int, default=CalibConfig.seed)
    p.add_argument("--segments", type=int, default=CalibConfig.n_segments,
                   help="piecewise-constant segments per pulse (default %(default)s)")
    p.add_argument("--max-iter", type=int, default=OptConfig.max_iter,
                   help="optimizer iteration cap per problem (default %(default)s)")


def _calib_config(args, granularity: str) -> CalibConfig:
    return CalibConfig(family=args.family, granularity=granularity, rounds=args.rounds,
                       lam=args.lam, opt=OptConfig(max_iter=args.max_iter), seed=args.seed,
                       n_segments=args.segments)


def cmd_calibrate(args) -> int:
    cfg = _calib_config(args, args.granularity)
    _probe_writable(args.out)
    print("round  iterations  cumulative  mean_infid    max_infid     mean_penalty")
    for landscape in calibration_rounds(cfg):
        rec = landscape.log[-1]
        print(f"{rec.round:5d}  {rec.iterations:10d}  {rec.cumulative_iterations:10d}"
              f"  {rec.mean_infidelity:.6e}  {rec.max_infidelity:.6e}  {rec.mean_penalty:.6e}",
              flush=True)
    save_landscape(landscape, args.out)
    print(f"saved {len(landscape.references)} references to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    landscape = load_landscape(args.landscape)
    divisions(args.granularity)
    for path in filter(None, (args.csv, args.summary)):
        _probe_writable(path)
    records, summary = evaluate_grid(landscape, args.granularity)
    if args.csv:
        with open(args.csv, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow([*landscape.family.param_names, "infidelity", "simplex"])
            for r in records:
                writer.writerow([repr(float(c)) for c in r.point]
                                + [repr(r.infidelity), r.simplex])
    payload = json.dumps(asdict(summary), indent=2)
    if args.summary:
        with open(args.summary, "w") as f:
            f.write(payload + "\n")
    print(payload)
    return 0


def cmd_interpolate(args) -> int:
    landscape = load_landscape(args.landscape)
    p = _point(args.point, landscape.family.n_params)
    # Validate family membership first so an out-of-domain point is
    # reported with the violated constraint, not as a mesh-hull miss.
    target = landscape.family.unitary(p)
    alpha = interpolate(landscape, p)
    u = evolve(landscape.family.model, landscape.ansatz, alpha)
    payload = json.dumps(
        {
            "family": landscape.family.name,
            "point": list(p),
            "ansatz": asdict(landscape.ansatz),
            "alpha": [float(a) for a in alpha],
            "alpha_hex": [float(a).hex() for a in alpha],
            "infidelity": gate_infidelity(u, target),
        },
        indent=2,
    )
    if args.out:
        with open(args.out, "w") as f:
            f.write(payload + "\n")
    print(payload)
    return 0


def cmd_sweep(args) -> int:
    cfgs = [_calib_config(args, g) for g in args.granularities.split(",")]
    divisions(args.test_granularity)
    _probe_writable(args.csv)
    rows = [(cfg.granularity, rnd, s) for cfg in cfgs
            for rnd, s in enumerate(sweep(cfg, args.test_granularity))]
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
    p.add_argument("--rounds", type=int, default=CalibConfig.rounds, help="re-optimization rounds")
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
    p.add_argument("--point", required=True,
                   help="the gate's parameters, comma-separated, one per family parameter")
    p.add_argument("--out", default=None, help="pulse JSON output path")
    p.set_defaults(fn=cmd_interpolate)

    p = sub.add_parser("sweep", help="computation-vs-accuracy sweep over granularities")
    _add_calib_flags(p)
    p.add_argument("--granularities", required=True, help="comma list, e.g. 1/2,1/3,1/4")
    p.add_argument("--max-rounds", dest="rounds", type=int, default=CalibConfig.rounds)
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

#!/usr/bin/env python3
"""Two-qubit Weyl-chamber landscape experiment.

Calibrates a granularity-1/4 chamber landscape (14 references) and
tracks interpolation quality on a dense chamber grid after every
re-optimization round, including the midpoint of the two reference
points (1/2, 0, 0) and (1/2, 1/4, 1/4) as a spot check.
"""

import argparse
from fractions import Fraction

import numpy as np

from pulsecal import (
    CalibConfig,
    OptConfig,
    evaluate_grid,
    gate_infidelity,
    initial_round,
    interpolate,
    reoptimization_round,
    save_landscape,
)
from pulsecal.pulses import evolve

MIDPOINT = (0.5, 0.125, 0.125)


def midpoint_infidelity(landscape):
    alpha = interpolate(landscape, MIDPOINT)
    u = evolve(landscape.family.model, landscape.ansatz, alpha)
    return gate_infidelity(u, landscape.family.unitary(MIDPOINT), landscape.family.dim)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--granularity", default="1/4")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--eval-granularity", default="1/24")
    ap.add_argument("--lambda", dest="lam", type=float, default=1e-2)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--max-iter", type=int, default=50)
    ap.add_argument("--out", default=None, help="save final landscape JSON here")
    args = ap.parse_args()

    cfg = CalibConfig(
        family="weyl-chamber",
        granularity=Fraction(args.granularity),
        rounds=0,
        lam=args.lam,
        opt=OptConfig(max_iter=args.max_iter),
        seed=args.seed,
    )
    eval_g = Fraction(args.eval_granularity)

    landscape = initial_round(cfg)
    _, s = evaluate_grid(landscape, eval_g)
    print(f"round  0: iters={landscape.cumulative_iterations:6d} "
          f"mean={s.mean_infidelity:.3e} max={s.max_infidelity:.3e} "
          f"mid={midpoint_infidelity(landscape):.3e}")
    round0_mean = s.mean_infidelity

    for rnd in range(1, args.rounds + 1):
        reoptimization_round(landscape, cfg)
        _, s = evaluate_grid(landscape, eval_g)
        print(f"round {rnd:2d}: iters={landscape.cumulative_iterations:6d} "
              f"mean={s.mean_infidelity:.3e} max={s.max_infidelity:.3e} "
              f"mid={midpoint_infidelity(landscape):.3e}")

    improvement = round0_mean / s.mean_infidelity if s.mean_infidelity > 0 else np.inf
    print(f"mean improved {improvement:.0f}x over round 0")
    if args.out:
        save_landscape(landscape, args.out)
        print(f"saved landscape to {args.out}")


if __name__ == "__main__":
    main()

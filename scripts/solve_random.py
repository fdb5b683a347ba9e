"""Solve random instances and compare against the exact optimum.

Generates Erdos-Renyi instances with uniform random weights, runs the
multi-start pursuit solver, and reports the gap to the brute-force
optimum per instance (exact comparison limited to n <= 32).

Usage:
    python scripts/solve_random.py [--count 10] [--n 24] [--starts 8]
"""

import argparse

import numpy as np

from graphnorm import erdos_renyi
from graphnorm.oracle import brute_force_mwis
from graphnorm.solver import RunConfig, solve_instance


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--count", type=int, default=10)
    ap.add_argument("--n", type=int, default=24)
    ap.add_argument("--p", type=float, default=0.3)
    ap.add_argument("--starts", type=int, default=8)
    ap.add_argument("--iterations", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    config = RunConfig(starts=args.starts, iterations=args.iterations, seed=args.seed)
    gaps = []
    hits = 0
    for k in range(args.count):
        g = erdos_renyi(args.n, args.p, [args.seed, k])
        opt = brute_force_mwis(g)
        result, _ = solve_instance(g, f"er-{k}", config, reference_objective=opt.weight)
        gap = result.gap_percent
        gaps.append(gap)
        hits += int(gap < 1e-9)
        print(
            f"er-{k}: n={g.n} m={g.num_edges} best={result.best_objective:.6g} "
            f"optimum={opt.weight:.6g} gap={gap:.2f}%"
        )
    print(
        f"\noptimum found on {hits}/{args.count} instances, "
        f"mean gap {np.mean(gaps):.2f}%, worst {np.max(gaps):.2f}%"
    )


if __name__ == "__main__":
    main()

"""Closed forms across the decay range: the AR(1) coefficient K, the
innovation scale sigma, the limiting total weight W, and the stationary
boundary variance, plus a quadrature confirmation that the symmetric state
is a fixed point of the expected update."""

import math

import numpy as np

from exdyn import (
    boundary_params,
    fixed_point,
    limit_total_weight,
    mean_map,
    variance_of_Y,
)


def main():
    print(f"{'decay':>8} {'K':>8} {'sigma':>9} {'W':>10} {'stat var':>10}")
    for lam in (0.005, 0.01, 0.05, 0.1, 0.5, math.log(2.0), 2.0):
        K, sigma = boundary_params(lam)
        print(f"{lam:>8.4f} {K:>8.5f} {sigma:>9.6f}"
              f" {limit_total_weight(lam):>10.2f}"
              f" {variance_of_Y(lam, math.inf):>10.3e}")
    print()
    print("K falls from 1 toward 3/4 as forgetting speeds up; the weight")
    print("pool W = 1/(1 - e^-decay) shrinks with it")
    print()

    for lam in (0.01, 0.1, 1.0):
        z = fixed_point(lam)
        drift = np.max(np.abs(mean_map(z, lam) - z))
        print(f"decay {lam}: expected update moves the symmetric state by"
              f" {drift:.2e}")


if __name__ == "__main__":
    main()

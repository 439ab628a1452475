"""One long run of the two-category unit-interval system, compared against
its small-noise description: the cell boundary b = (x1 + x2)/2 behaves like
an AR(1) process with lag-1 coefficient K and innovation scale sigma.
"""

import numpy as np

from exdyn import (
    Domain,
    ModelConfig,
    boundary_params,
    limit_total_weight,
    run_trajectory,
)

DECAY = 0.05
N_STEPS = 200_000
BURN = 20_000


def main():
    half_w = limit_total_weight(DECAY) / 2.0
    config = ModelConfig(
        k=2, decay_rate=DECAY,
        domain=Domain(np.array([0.0]), np.array([1.0])),
        init_means=np.array([[0.25], [0.75]]),
        init_weights=np.array([half_w, half_w]),
        seed=20,
    )
    rec = run_trajectory(config, N_STEPS)
    b = rec.boundaries[BURN:]
    dev = b - b.mean()

    K, sigma = boundary_params(DECAY)
    var_pred = sigma**2 / (1.0 - K**2)

    print(f"decay rate {DECAY}, {N_STEPS} steps, first {BURN} discarded")
    print(f"boundary mean   {b.mean():+.5f}  (fixed point 0.5)")
    print(f"boundary var    {dev.var():.3e}  linear model {var_pred:.3e}")
    print()
    print("autocorrelation against K^r:")
    for r in (1, 2, 5, 10, 20):
        acf = np.mean(dev[:-r] * dev[r:]) / np.mean(dev * dev)
        print(f"  lag {r:>2}: measured {acf:+.4f}   K^{r} = {K**r:+.4f}")
    print()
    print("the measured variance runs a few percent above the linear model;")
    print("variance_vs_horizon.py traces how that gap grows with the decay rate")


if __name__ == "__main__":
    main()

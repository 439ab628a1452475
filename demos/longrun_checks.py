"""The three long-run health checks, at demo scale.

With forgetting on, both categories keep winning, the cells keep their
bulk, and the means never settle.  The same movement check rerun with the
forgetting turned off is expected to fail, and does: that run converges.
"""

import numpy as np

from exdyn import (
    Domain,
    ModelConfig,
    theorem_suite,
)


def main():
    config = ModelConfig(
        k=2, decay_rate=0.05,
        domain=Domain(np.array([0.0]), np.array([1.0])),
        init_means=np.array([[0.25], [0.75]]),
        init_weights=np.array([1.0, 1.0]),
        seed=51,
    )
    results = theorem_suite(config, n_steps=100_000, window=5_000,
                            check_stride=1000)
    for rep, expected in results:
        verdict = "pass" if rep.passed else "fail"
        agree = "as expected" if rep.passed == expected else "UNEXPECTED"
        print(f"{rep.name:<16} {verdict}  ({agree})")
        for key in sorted(rep.stats):
            print(f"    {key:<22} {rep.stats[key]:.6g}")
    print()
    print("the final row is the zero-decay negative control")


if __name__ == "__main__":
    main()

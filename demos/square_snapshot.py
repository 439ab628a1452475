"""Four categories on a square, seeded from Gaussian scatter.

Runs the canned 2-D configuration and prints what its snapshot contains:
how many exemplars are still above the weight cutoff, where each category
mean sits, and how much boundary the classification grid traced.  With
forgetting, the survivors are only the recent past.
"""

import numpy as np

from exdyn import figure1_snapshot, parse_config


def main():
    spec = parse_config("preset = fig1\n")
    snap = figure1_snapshot(spec.model, spec.n_steps,
                            prune_threshold=spec.prune_threshold,
                            scatter_points=spec.scatter_points,
                            grid_resolution=spec.grid_resolution)

    print(f"after {snap.step} steps, cutoff {snap.prune_threshold}:")
    print(f"  {snap.positions.shape[0]} exemplars survive out of"
          f" {400 + snap.step} ever seen")
    for j in range(spec.model.k):
        mine = snap.categories == j
        x, y = snap.means[j]
        print(f"  category {j + 1}: {mine.sum():>3} exemplars, "
              f"mean ({x:6.2f}, {y:6.2f}), weight {snap.category_weights[j]:.2f}")

    segs = snap.boundary_segments
    length = np.hypot(segs[:, 1, 0] - segs[:, 0, 0],
                      segs[:, 1, 1] - segs[:, 0, 1]).sum()
    print(f"  cell boundary: {segs.shape[0]} grid segments,"
          f" total length {length:.1f}")
    print()
    print("rerun this script and every number repeats; the preset pins the seed")


if __name__ == "__main__":
    main()

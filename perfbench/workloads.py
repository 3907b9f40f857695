"""Workload definitions: dataset recipes and the `evaluate` settings of each.

Every dataset is generated here from the run's seed and handed to the program
only as a CSV file with the label in the last column.
"""

from dataclasses import dataclass

import numpy as np

FOUR_BLOB_CENTERS = ((0.0, 0.0), (12.0, 0.0), (0.0, 12.0), (12.0, 12.0))
FOUR_BLOB_SIGMAS = (0.4, 0.55, 0.7, 0.85)


def four_blobs(rng, n):
    """Four far-separated Gaussian blobs in d=2 with unequal spreads."""
    per = n // 4
    points = [np.asarray(c) + s * rng.standard_normal((per, 2))
              for c, s in zip(FOUR_BLOB_CENTERS, FOUR_BLOB_SIGMAS)]
    return np.concatenate(points), np.repeat(np.arange(4), per)


def blobs_d4(rng, n):
    """Five unit-variance Gaussian blobs in d=4, centred at the origin and at
    10 * e_i, so every pair of centres is at least 10 standard deviations apart."""
    per = n // 5
    centers = np.vstack([np.zeros(4), 10.0 * np.eye(4)])
    points = [c + rng.standard_normal((per, 4)) for c in centers]
    return np.concatenate(points), np.repeat(np.arange(5), per)


def two_rings(rng, n):
    """Two concentric noisy rings (radii 1 and 3.5, radial noise 0.25),
    7/16 of the points on the inner ring; non-convex clusters."""
    inner = n * 7 // 16
    points = []
    for radius, m in ((1.0, inner), (3.5, n - inner)):
        theta = rng.uniform(0.0, 2.0 * np.pi, m)
        rad = radius + 0.25 * rng.standard_normal(m)
        points.append(np.c_[rad * np.cos(theta), rad * np.sin(theta)])
    return np.concatenate(points), np.repeat([0, 1], [inner, n - inner])


@dataclass(frozen=True)
class Workload:
    recipe: object
    n: int
    k_min: int
    k_max: int
    datasets: int  # datasets per run, each generated from (seed, index)
    variants: bool = False
    svg: bool = False

    def generate(self, seed, index):
        """(points, labels) of dataset `index` of a run with this seed."""
        return self.recipe(np.random.default_rng((seed, index)), self.n)


WORKLOADS = {
    "sweep400": Workload(four_blobs, n=400, k_min=2, k_max=6, datasets=10),
    "blobs800d4": Workload(blobs_d4, n=800, k_min=2, k_max=6, datasets=8),
    "rings800_variants": Workload(two_rings, n=800, k_min=2, k_max=2, datasets=3,
                                  variants=True, svg=True),
}


def write_csv(path, points, labels):
    """Headerless CSV, shortest round-trip floats, integer label last."""
    with open(path, "w", encoding="utf-8") as fh:
        for row, label in zip(points.tolist(), labels.tolist()):
            fh.write(",".join(repr(v) for v in row) + f",{label}\n")

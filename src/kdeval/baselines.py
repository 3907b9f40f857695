"""Classical internal validity indices (Calinski-Harabasz, Silhouette,
Davies-Bouldin) and the external Adjusted Rand Index.

Each internal index carries its direction: CH and SC are higher-is-better,
DB is smaller-is-better.  Degenerate inputs (zero within-dispersion,
coincident centroids) raise UndefinedScoreError so the harness can rank the
candidate last instead of aborting a run.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .density import KERNEL_BLOCK

HIGHER_BETTER = "higher_better"
SMALLER_BETTER = "smaller_better"

DIRECTIONS = {
    "ch": HIGHER_BETTER,
    "sc": HIGHER_BETTER,
    "db": SMALLER_BETTER,
    "new": SMALLER_BETTER,
}


class UndefinedScoreError(ValueError):
    """The index is undefined for this partition (degenerate denominator)."""


@dataclass(frozen=True)
class IndexScore:
    name: str
    value: float
    direction: str


def _check_inputs(data, partition):
    X = data.points
    labels = partition.labels
    if labels.shape[0] != X.shape[0]:
        raise ValueError("partition length does not match dataset size")
    return X, labels, partition.K


def _clusters(X, partition):
    """Each cluster's member rows and centroid, in cluster order."""
    members = (X[idx] for idx in partition.members)
    return ((rows, rows.mean(axis=0)) for rows in members)


def calinski_harabasz(data, partition):
    """Between/within dispersion ratio scaled by (n - K)/(K - 1)."""
    X, _, K = _check_inputs(data, partition)
    n = X.shape[0]
    if K < 2 or K > n - 1:
        raise UndefinedScoreError(f"CH needs 2 <= K <= n-1, got K={K}, n={n}")
    global_center = X.mean(axis=0)
    tr_w = 0.0
    tr_b = 0.0
    for members, center in _clusters(X, partition):
        tr_w += float(((members - center) ** 2).sum())
        tr_b += members.shape[0] * float(((center - global_center) ** 2).sum())
    if tr_w == 0.0:
        raise UndefinedScoreError("CH undefined: zero within-cluster dispersion")
    value = (tr_b / tr_w) * ((n - K) / (K - 1))
    return IndexScore("ch", value, HIGHER_BETTER)


def silhouette(data, partition, sums=None):
    """Mean per-sample silhouette (b - a) / max(a, b).

    a is the mean distance to the sample's own cluster (excluding itself), b
    the smallest mean distance to another cluster.  Samples in singleton
    clusters contribute 0, as do samples with a = b = 0.  A cluster of m
    members gets its distance sums from column blocks X[a:b] of at least 2
    and at most max(2, KERNEL_BLOCK // m) + 1 columns, each summed over axis
    0 row after row, as the whole (m, n) block would be (numpy sums a
    1-column block pairwise).  sums, a dict owned by the caller and used for
    one dataset only, keeps each cluster's distance sums by member-index
    bytes, so a cluster that another partition already has costs no
    distance block.
    """
    X, labels, K = _check_inputs(data, partition)
    n = X.shape[0]
    if K < 2 or K > n - 1:
        raise UndefinedScoreError(f"silhouette needs 2 <= K <= n-1, got K={K}, n={n}")
    sizes = np.bincount(labels, minlength=K)
    sums = {} if sums is None else sums
    columns = []
    for idx in partition.members:
        key = idx.tobytes()
        if key not in sums:
            members, step = X[idx], max(2, KERNEL_BLOCK // len(idx))
            edges = [*range(0, n - 1, step), n]  # a start at n - 1 would leave 1 column
            blocks = [cdist(members, X[a:b]).sum(axis=0) for a, b in zip(edges, edges[1:])]
            sums[key] = np.concatenate(blocks)
        columns.append(sums[key])
    cluster_sums = np.column_stack(columns)
    rows = np.arange(n)
    own_size = sizes[labels]
    a = cluster_sums[rows, labels] / np.maximum(own_size - 1, 1)
    other = cluster_sums / sizes
    other[rows, labels] = np.inf
    b = other.min(axis=1)
    denom = np.maximum(a, b)
    defined = (own_size > 1) & (denom > 0)
    s_values = np.zeros(n)
    s_values[defined] = (b - a)[defined] / denom[defined]
    return IndexScore("sc", float(s_values.mean()), HIGHER_BETTER)


def davies_bouldin(data, partition):
    """Mean over clusters of the worst (sigma_i + sigma_j) / d(c_i, c_j)."""
    X, _, K = _check_inputs(data, partition)
    if K < 2:
        raise UndefinedScoreError(f"DB needs K >= 2, got K={K}")
    members, centers = zip(*_clusters(X, partition))
    sigma = np.array([np.linalg.norm(m - c, axis=1).mean() for m, c in zip(members, centers)])
    d = cdist(centers, centers)
    if np.any(d[~np.eye(K, dtype=bool)] == 0.0):
        raise UndefinedScoreError("DB undefined: coincident centroids")
    # a diagonal ratio of 0 is no larger than any other, so a row's max is its worst pair
    np.fill_diagonal(d, np.inf)
    worst = ((sigma[:, None] + sigma[None, :]) / d).max(axis=1)
    # summed in cluster order, as one running total would
    return IndexScore("db", float(sum(worst.tolist()) / K), SMALLER_BETTER)


def adjusted_rand_index(p, q):
    """Contingency-table ARI between two partitions of the same points.

    Symmetric, relabel-invariant, and 1.0 exactly when the groupings agree.
    """
    a = np.asarray(p.labels if hasattr(p, "labels") else p)
    b = np.asarray(q.labels if hasattr(q, "labels") else q)
    if a.shape != b.shape:
        raise ValueError(f"partition lengths differ: {a.shape} vs {b.shape}")
    n = a.shape[0]
    # group ids 0..k-1 per side, so negative or float labels index the table safely
    a_groups, a = np.unique(a, return_inverse=True)
    b_groups, b = np.unique(b, return_inverse=True)
    table = np.zeros((len(a_groups), len(b_groups)), dtype=np.int64)
    np.add.at(table, (a, b), 1)

    def pairs(x):
        return x * (x - 1) // 2

    sum_ij = int(pairs(table).sum())
    sum_a = int(pairs(table.sum(axis=1)).sum())
    sum_b = int(pairs(table.sum(axis=0)).sum())
    total = int(pairs(np.int64(n)))
    if total == 0:
        return 1.0
    expected = sum_a * sum_b / total
    max_index = (sum_a + sum_b) / 2.0
    if max_index == expected:
        # both partitions trivial (all singletons or a single cluster): identical groupings
        return 1.0
    return float((sum_ij - expected) / (max_index - expected))

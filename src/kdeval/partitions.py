"""Candidate partition generation and canonicalization.

Generators: Lloyd k-means with k-means++ seeding, full-covariance Gaussian
mixture EM, and agglomerative clustering cut at k for the four standard
linkages.  All partitions are canonicalized (cluster ids renumbered by first
occurrence) so equality up to relabeling is a plain array comparison.
"""

import csv
import functools
import os
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.spatial.distance import cdist

from .density import KERNEL_BLOCK, _check_choice, _check_count, _logsumexp

KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 300
EM_MAX_ITER = 200
EM_TOL = 1e-3  # stop once the mean log-likelihood per sample gains less (scikit-learn's tol)
EM_REG = 1e-6
EM_MAX_RESTARTS = 5
GMM_INITS = 4  # one k-means init plus random-mean inits, best log-likelihood kept

LINKAGES = ("ward", "complete", "average", "single")
GENERATORS = ("kmeans", "gmm", "agg-ward", "agg-complete", "agg-average", "agg-single")


@dataclass(frozen=True, eq=False)
class Partition:
    """Cluster assignment: labels in 0..K-1, each cluster non-empty (a
    ValueError otherwise); canonical, that is in first-occurrence order, when
    made by canonicalize."""

    labels: np.ndarray
    K: int
    source: str = ""

    def __post_init__(self):
        raw = np.asarray(self.labels)
        with np.errstate(invalid="ignore"):  # nan and inf fail the comparison below
            labels = raw.astype(np.int64, copy=False) if raw.dtype.kind in "biuf" else None
        if labels is None or raw.ndim != 1 or not np.array_equal(labels, raw):
            raise ValueError(f"labels must be a 1-D array of integers, got {raw.dtype} {raw.shape}")
        if not np.array_equal(np.unique(labels), np.arange(self.K)):
            raise ValueError(f"labels must take each value 0..{self.K - 1} (K={self.K}), no other")
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)

    @property
    def n(self):
        return self.labels.shape[0]

    @functools.cached_property
    def members(self):
        """Ascending member indices of each cluster 0..K-1, one read-only array
        each, computed on first read: the one place labels become member sets."""
        members = tuple(np.flatnonzero(self.labels == q) for q in range(self.K))
        for idx in members:
            idx.flags.writeable = False
        return members

    def key(self):
        """Bytes key for equality-up-to-relabeling (labels are canonical)."""
        return self.labels.tobytes()

    def same_grouping(self, other):
        return self.key() == other.key()


def canonicalize(labels, source=""):
    """Renumber raw labels by first occurrence and wrap them in a Partition."""
    raw = np.asarray(labels).ravel()
    if raw.shape[0] == 0:
        raise ValueError("cannot canonicalize an empty label sequence")
    values = raw.tolist()
    codes = {value: code for code, value in enumerate(dict.fromkeys(values))}
    out = np.fromiter(map(codes.__getitem__, values), dtype=np.int64, count=len(values))
    return Partition(labels=out, K=len(codes), source=source)


def _derive_seed(*parts):
    """Stable sub-seed from integer components."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def _kpp_init(X, k, rng):
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    closest = ((X - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total > 0:
            idx = rng.choice(n, p=closest / total)
        else:
            idx = rng.integers(n)
        centers[j] = X[idx]
        closest = np.minimum(closest, ((X - centers[j]) ** 2).sum(axis=1))
    return centers


def _lloyd(X, centers):
    """Lloyd's algorithm on the (R, k, d) centres of R restarts at once, in
    place; returns the (R, n) labels and the R WCSS values.  Each iteration
    makes one cdist against the centres of the restarts whose labels still
    change.  Per-dimension bincount sums add in the order of the per-cluster
    means, except at d=1, where numpy sums a cluster's column pairwise."""
    (n, d), (R, k) = X.shape, centers.shape[:2]
    labels = np.zeros((R, n), dtype=np.intp)
    moving = np.arange(R)
    for it in range(KMEANS_MAX_ITER):
        A = len(moving)
        sq = cdist(X, centers[moving].reshape(A * k, d), "sqeuclidean").reshape(n, A, k)
        new = np.ascontiguousarray(sq.argmin(axis=2).T)
        flat = (new + k * np.arange(A)[:, None]).ravel()
        counts = np.bincount(flat, minlength=A * k).reshape(A, k)
        for a in np.flatnonzero((counts == 0).any(axis=1)):
            # reseed each empty cluster at the point farthest from its center
            r = moving[a]
            order = np.argsort(-sq[np.arange(n), a, new[a]])
            for rank, e in enumerate(np.flatnonzero(counts[a] == 0)):
                centers[r, e] = X[order[rank]]
            new[a] = cdist(X, centers[r], "sqeuclidean").argmin(axis=1)
            counts[a] = np.bincount(new[a], minlength=k)
        go = np.ones(A, dtype=bool) if it == 0 else (labels[moving] != new).any(axis=1)
        moving, new, counts = moving[go], new[go], counts[go]
        if not len(moving):
            break
        labels[moving] = new
        if d == 1:
            for a, r in enumerate(moving):
                for j in np.flatnonzero(counts[a] > 0):
                    centers[r, j] = X[new[a] == j].mean(axis=0)
            continue
        B = len(moving)
        flat = (new + k * np.arange(B)[:, None]).ravel()
        sums = np.stack([np.bincount(flat, np.tile(X[:, c], B), B * k) for c in range(d)], axis=-1)
        means = sums.reshape(B, k, d) / np.maximum(counts, 1)[..., None]
        centers[moving] = np.where((counts > 0)[..., None], means, centers[moving])
    sq = cdist(X, centers.reshape(R * k, d), "sqeuclidean").reshape(n, R, k)
    return labels, [float(sq[np.arange(n), r, labels[r]].sum()) for r in range(R)]


def kmeans(data, k, seed):
    """Lloyd's algorithm, k-means++ seeding, best of KMEANS_RESTARTS by WCSS
    (the first strict minimum).  Every restart's init is drawn first, then the
    restarts run in stacked Lloyd loops (_lloyd) of as many restarts as keep
    the (n, restarts * k) distances within KERNEL_BLOCK elements (at least one).

    Degenerate data (fewer distinct points than k) yields fewer non-empty
    clusters after repair; canonicalization then reports the actual K.  A
    ValueError is raised when no restart's WCSS is finite (coordinates so
    large that it overflows).
    """
    X = data.points
    _check_count("k", k, 1, X.shape[0])
    rng = np.random.default_rng(seed)
    centers = np.stack([_kpp_init(X, k, rng) for _ in range(KMEANS_RESTARTS)])
    stack = max(1, KERNEL_BLOCK // (X.shape[0] * k))
    best_labels, best_wcss = None, np.inf
    for r0 in range(0, KMEANS_RESTARTS, stack):
        labels, wcss = _lloyd(X, centers[r0 : r0 + stack])
        for r, value in enumerate(wcss):
            if value < best_wcss:
                best_labels, best_wcss = labels[r], value
    if best_labels is None:
        raise ValueError(f"no k-means restart has a finite WCSS (got {value})")
    return canonicalize(best_labels, source=f"kmeans-k{k}")


def _log_gaussians(X, means, chols):
    """Component-wise multivariate normal log-densities from Cholesky factors,
    as an (n, k) array.  The factors are inverted once (the precision factors
    L^-1, as scikit-learn's precisions_cholesky_ transposed) and the
    Mahalanobis terms |L^-1 (x - mu)|^2 come from one batched matmul on the
    (k, d, n) differences, so no loop runs along the short d axis."""
    d = X.shape[1]
    y = np.matmul(np.linalg.inv(chols), X.T[None] - means[:, :, None])
    maha = np.einsum("kdn,kdn->kn", y, y)
    logdet = 2.0 * np.log(np.diagonal(chols, axis1=1, axis2=2)).sum(axis=1)
    return np.ascontiguousarray((-0.5 * (maha + logdet[:, None] + d * np.log(2.0 * np.pi))).T)


def _em_init(data, k, seed, init, reg):
    """Starting means, covariances and weights: from the clusters of the
    Partition init (a cluster id it lacks gets one random point), or, with
    init None, random data points as means and the data covariance."""
    X = data.points
    n, d = X.shape
    rng = np.random.default_rng(_derive_seed(seed, 1))
    means = np.empty((k, d))
    covs = np.empty((k, d, d))
    weights = np.full(k, 1.0 / k)
    if init is not None:
        clusters = init.members
        for j in range(k):
            members = X[clusters[j]] if j < init.K else X[rng.integers(n)].reshape(1, -1)
            means[j] = members.mean(axis=0)
            diff = members - means[j]
            covs[j] = diff.T @ diff / members.shape[0] + reg
            weights[j] = max(members.shape[0] / n, 1.0 / n)
        weights /= weights.sum()
    else:
        idx = rng.choice(n, size=k, replace=False)
        means[:] = X[idx]
        centered = X - X.mean(axis=0)
        covs[:] = centered.T @ centered / n + reg
    return means, covs, weights


def _em_once(data, k, seed, init):
    X = data.points
    reg = EM_REG * np.eye(X.shape[1])
    means, covs, weights = _em_init(data, k, seed, init, reg)
    prev_ll = -np.inf
    for _ in range(EM_MAX_ITER):
        chols = np.linalg.cholesky(covs)
        log_prob = _log_gaussians(X, means, chols) + np.log(weights)
        norm = _logsumexp(log_prob)
        ll = float(norm.sum())
        resp = np.exp(log_prob - norm[:, None])
        if (ll - prev_ll) / X.shape[0] < EM_TOL:
            break
        prev_ll = ll
        nk = resp.sum(axis=0)
        live = np.flatnonzero(nk >= 1e-12)  # dead components keep their parameters
        R = np.ascontiguousarray(resp.T[live])
        nl = nk[live, None]
        means[live] = R @ X / nl
        diffs = X - means[live, None]
        scatter = np.matmul((R[:, :, None] * diffs).transpose(0, 2, 1), diffs)
        covs[live] = scatter / nl[:, :, None] + reg
        weights = np.maximum(nk, 1e-12)
        weights /= weights.sum()
    return resp.argmax(axis=1), ll


def gmm_em(data, k, seed, init=None):
    """Full-covariance EM with hard assignment by maximum responsibility.

    Runs GMM_INITS (4) initializations (k-means first, then random means) and
    keeps the solution with the best final log-likelihood.  The k-means init
    starts from the clusters of init, a k-means Partition of the same data at
    this k (build_candidates passes its kmeans candidate); with init None it
    runs kmeans itself.  A run stops once the mean log-likelihood per sample
    gains less than EM_TOL (1e-3) in an iteration, or after EM_MAX_ITER (200).
    Covariances are regularized by EM_REG * I; a singular covariance despite
    regularization triggers a reseeded retry, up to EM_MAX_RESTARTS extra
    attempts, and a retry of the k-means init runs its own kmeans.
    """
    _check_count("k", k, 1, data.points.shape[0])
    results = []
    last_error = None
    attempt = 0
    done = 0
    while done < GMM_INITS and attempt < GMM_INITS + EM_MAX_RESTARTS:
        run_seed = _derive_seed(seed, attempt)
        try:
            start = None
            if done == 0:
                start = init if attempt == 0 and init is not None else kmeans(data, k, run_seed)
            labels, ll = _em_once(data, k, run_seed, init=start)
            results.append((ll, done, labels))
            done += 1
        except np.linalg.LinAlgError as exc:
            last_error = exc
        attempt += 1
    if not results:
        raise RuntimeError(f"EM failed after {attempt} attempts: {last_error}")
    results.sort(key=lambda t: (-t[0], t[1]))
    return canonicalize(results[0][2], source=f"gmm-k{k}")


def _cut_tree(tree, n, k, source):
    """Partition of n points cut from a linkage tree at k clusters; k == n
    gives singletons and needs no tree."""
    labels = np.arange(n) if k == n else fcluster(tree, t=k, criterion="maxclust")
    return canonicalize(labels, source=source)


def agglomerative(data, k, linkage_method):
    """Bottom-up merging (Lance-Williams distances) cut at k clusters."""
    n = data.points.shape[0]
    _check_count("k", k, 1, n)
    _check_choice("linkage", linkage_method, LINKAGES)
    tree = linkage(data.points, method=linkage_method) if k < n else None
    return _cut_tree(tree, n, k, f"agg-{linkage_method}-k{k}")


def build_candidates(data, k_range, seed, generators=GENERATORS):
    """Run every generator for every k, canonicalize, deduplicate, and append
    the reference partition when the dataset carries one.

    Duplicate groupings keep the first candidate; its source tag accumulates
    the tags of the duplicates it absorbed.  A generator failure at one k is
    recorded as a warning and skipped.  Order is (k, generator order) with
    the reference last, and the result is deterministic given the seed.
    """
    ks = tuple(k_range)
    if not ks:
        raise ValueError("k_range is empty")
    for k in ks:
        _check_count("k", k, 1, data.n)
    ks = sorted(set(ks))
    trees = {}
    for method in LINKAGES:
        if f"agg-{method}" not in generators:
            continue
        try:
            trees[method] = linkage(data.points, method=method)
        except Exception as exc:  # pragma: no cover - scipy failures are exotic
            warnings.warn(f"linkage {method} failed: {exc}")
    kept = {}  # key -> candidate; assigning to a present key keeps its position

    def add(part):
        if part.key() in kept:
            first = kept[part.key()]
            part = Partition(first.labels, first.K, first.source + "+" + part.source)
        kept[part.key()] = part

    for k in ks:
        km = None  # the kmeans candidate at this k also starts GMM's k-means init
        for gi, gen in enumerate(GENERATORS):
            if gen not in generators:
                continue
            cell_seed = _derive_seed(seed, k, gi)
            try:
                if gen == "kmeans":
                    part = km = kmeans(data, k, cell_seed)
                elif gen == "gmm":
                    part = gmm_em(data, k, cell_seed, init=km)
                else:
                    method = gen.split("-", 1)[1]
                    if method not in trees:
                        continue
                    part = _cut_tree(trees[method], data.n, k, f"{gen}-k{k}")
            except Exception as exc:
                warnings.warn(f"generator {gen} failed for k={k}: {exc}")
                continue
            add(part)
    if data.reference_labels is not None:
        add(canonicalize(data.reference_labels, source="reference"))
    return list(kept.values())


def save_partitions(directory, partitions):
    """Write each partition as one label per line plus a manifest.csv with
    (file, source, k) rows."""
    os.makedirs(directory, exist_ok=True)
    rows = [("file", "source", "k")]
    for i, part in enumerate(partitions):
        fname = f"partition_{i:03d}.txt"
        with open(os.path.join(directory, fname), "w", encoding="utf-8") as fh:
            fh.write("".join(f"{label}\n" for label in part.labels.tolist()))
        rows.append((fname, part.source, part.K))
    with open(os.path.join(directory, "manifest.csv"), "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def load_partitions(directory):
    """Read a partition directory written by save_partitions (or, without
    manifest.csv, its *.txt one-label-per-line files in sorted order, each
    file's stem as its source)."""
    manifest = os.path.join(directory, "manifest.csv")
    if os.path.exists(manifest):
        with open(manifest, "r", encoding="utf-8", newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
        files = [(fname, source) for fname, source, _k in rows[1:]]
    else:
        names = sorted(os.listdir(directory))
        files = [(name, name.rsplit(".", 1)[0]) for name in names if name.endswith(".txt")]
    out = [
        canonicalize(np.loadtxt(os.path.join(directory, fname), dtype=np.int64, ndmin=1), source)
        for fname, source in files
    ]
    if not out:
        raise ValueError(f"no partitions found in {directory}")
    return out

"""Independent reference implementations used as test oracles.

Everything here is written straight from the defining formulas in plain
Python loops, deliberately sharing no code with the package.
"""

import math

import numpy as np


def _sq(a, b):
    return sum((x - y) ** 2 for x, y in zip(a, b))


# --- KDE ---------------------------------------------------------------


def kde_density_naive(points, h, x):
    """Direct naive sum (1/(m (2pi)^{d/2} h^d)) * sum_i exp(-|x-x_i|^2/2h^2)."""
    m = len(points)
    d = len(x)
    total = sum(math.exp(-_sq(p, x) / (2.0 * h * h)) for p in points)
    return total / (m * (2.0 * math.pi) ** (d / 2.0) * h**d)


def kde_log_density_naive(points, h, x):
    """Log of the same sum, max-shifted so far queries stay finite."""
    m = len(points)
    d = len(x)
    exponents = [-_sq(p, x) / (2.0 * h * h) for p in points]
    shift = max(exponents)
    total = sum(math.exp(e - shift) for e in exponents)
    return (
        shift
        + math.log(total)
        - math.log(m)
        - d * math.log(h)
        - (d / 2.0) * math.log(2.0 * math.pi)
    )


# --- ARI ----------------------------------------------------------------


def ari_pair_counting(a, b):
    """ARI from exhaustive pair agreement counts."""
    n = len(a)
    together_both = together_a = together_b = apart_both = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_a = a[i] == a[j]
            same_b = b[i] == b[j]
            if same_a and same_b:
                together_both += 1
            elif same_a:
                together_a += 1
            elif same_b:
                together_b += 1
            else:
                apart_both += 1
    numerator = 2.0 * (together_both * apart_both - together_a * together_b)
    denominator = (together_both + together_a) * (together_a + apart_both) + (
        together_both + together_b
    ) * (together_b + apart_both)
    if denominator == 0:
        return 1.0
    return numerator / denominator


def set_partitions(n):
    """All partitions of n items as canonical label tuples (restricted
    growth strings)."""

    def rec(i, labels, used):
        if i == n:
            yield tuple(labels)
            return
        for c in range(used + 1):
            labels.append(c)
            yield from rec(i + 1, labels, used + (1 if c == used else 0))
            labels.pop()

    yield from rec(0, [], 0)


# --- classical indices ---------------------------------------------------


def ch_direct(X, labels):
    n = len(X)
    d = len(X[0])
    ks = sorted(set(labels))
    k = len(ks)
    global_center = [sum(row[j] for row in X) / n for j in range(d)]
    tr_w = 0.0
    tr_b = 0.0
    for q in ks:
        members = [X[i] for i in range(n) if labels[i] == q]
        center = [sum(row[j] for row in members) / len(members) for j in range(d)]
        tr_w += sum(_sq(row, center) for row in members)
        tr_b += len(members) * _sq(center, global_center)
    return (tr_b / tr_w) * ((n - k) / (k - 1))


def silhouette_direct(X, labels):
    n = len(X)
    ks = sorted(set(labels))
    dist = [[math.sqrt(_sq(X[i], X[j])) for j in range(n)] for i in range(n)]
    total = 0.0
    for i in range(n):
        own = labels[i]
        own_others = [j for j in range(n) if labels[j] == own and j != i]
        if not own_others:
            continue  # singleton contributes 0
        a = sum(dist[i][j] for j in own_others) / len(own_others)
        b = math.inf
        for q in ks:
            if q == own:
                continue
            members = [j for j in range(n) if labels[j] == q]
            b = min(b, sum(dist[i][j] for j in members) / len(members))
        denom = max(a, b)
        total += (b - a) / denom if denom > 0 else 0.0
    return total / n


def db_direct(X, labels):
    ks = sorted(set(labels))
    d = len(X[0])
    centroids = {}
    sigmas = {}
    for q in ks:
        members = [X[i] for i in range(len(X)) if labels[i] == q]
        c = [sum(row[j] for row in members) / len(members) for j in range(d)]
        centroids[q] = c
        sigmas[q] = sum(math.sqrt(_sq(row, c)) for row in members) / len(members)
    total = 0.0
    for qi in ks:
        worst = 0.0
        for qj in ks:
            if qj == qi:
                continue
            gap = math.sqrt(_sq(centroids[qi], centroids[qj]))
            worst = max(worst, (sigmas[qi] + sigmas[qj]) / gap)
        total += worst
    return total / len(ks)


# --- agglomerative (from-definition average linkage) ---------------------


def average_linkage_labels(X, k):
    """Bottom-up average-linkage clustering computed directly from the
    definition (mean pairwise distance between clusters), cut at k."""
    clusters = [[i] for i in range(len(X))]
    while len(clusters) > k:
        best = None
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                total = 0.0
                for i in clusters[a]:
                    for j in clusters[b]:
                        total += math.sqrt(_sq(X[i], X[j]))
                d = total / (len(clusters[a]) * len(clusters[b]))
                if best is None or d < best[0]:
                    best = (d, a, b)
        _, a, b = best
        clusters[a] = clusters[a] + clusters[b]
        del clusters[b]
    labels = [0] * len(X)
    for idx, members in enumerate(clusters):
        for i in members:
            labels[i] = idx
    return labels


# --- the density-based index family --------------------------------------


def _pstdev(values):
    mu = sum(values) / len(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / len(values))


def kdi_reference(
    points,
    labels,
    bandwidths,
    delta=0.5,
    alpha1=1.0,
    alpha2=1.0,
    beta1=1.0,
    beta2=1.0,
    rho=0.5,
    min_cluster_size=3,
    pair_local=True,
    boundary_members_only=False,
    mc_samples=None,
    mc_seed=0,
    v3_center="mean",
    v3_metric="abs",
    v3_normalize=False,
):
    """Evaluate every index quantity straight from the definitions.

    points: list of coordinate tuples; labels: cluster id per point;
    bandwidths: bandwidth per cluster id (the density estimators are taken as
    given).  Returns a dict of all quantities.
    """
    n = len(points)
    K = max(labels) + 1
    members = {q: [i for i in range(n) if labels[i] == q] for q in range(K)}
    cluster_pts = {q: [points[i] for i in members[q]] for q in range(K)}

    g = {
        q: [kde_log_density_naive(cluster_pts[q], bandwidths[q], points[i]) for i in members[q]]
        for q in range(K)
    }
    like = {q: [max(math.exp(v), 1e-300) for v in g[q]] for q in range(K)}
    spread = {q: _pstdev(g[q]) for q in range(K)}
    territory = {}
    for q in range(K):
        lo, hi = min(g[q]), max(g[q])
        if spread[q] == 0.0:
            territory[q] = (lo - beta1, hi + beta2)
        else:
            territory[q] = (lo - alpha1 * spread[q], hi + alpha2 * spread[q])

    logd = [
        [kde_log_density_naive(cluster_pts[q], bandwidths[q], points[i]) for q in range(K)]
        for i in range(n)
    ]
    in_t = [
        [territory[q][0] <= logd[i][q] <= territory[q][1] for q in range(K)] for i in range(n)
    ]
    ambiguous = [sum(row) >= 2 for row in in_t]
    i_a = sum(ambiguous) / n

    s_q = {}
    for q in range(K):
        if len(members[q]) < min_cluster_size:
            s_q[q] = 0.0
        else:
            s_q[q] = sum(like[q]) / max(like[q])
    i_s = 1.0 - sum(s_q.values()) / n
    index = delta * i_a + (1.0 - delta) * i_s

    boundary_total = 0
    for q in range(K):
        lo = min(g[q])
        hi = lo + rho * spread[q]
        for i in range(n):
            if boundary_members_only and labels[i] != q:
                continue
            if lo <= logd[i][q] <= hi:
                boundary_total += 1
    i_b = boundary_total / (K * n)

    pair_values = []
    for qi in range(K):
        for qj in range(qi + 1, K):
            both = [i for i in range(n) if in_t[i][qi] and in_t[i][qj]]
            if pair_local:
                pool = set(members[qi]) | set(members[qj])
                value = len([i for i in both if i in pool]) / len(pool)
            else:
                value = len(both) / n
            pair_values.append(value)
    if pair_values:
        positives = [v for v in pair_values if v > 0]
        ia_v1 = len(positives) / len(pair_values)
        ia_v2 = sum(positives) / len(positives) if positives else 0.0
    else:
        ia_v1 = 0.0
        ia_v2 = 0.0

    ia_v3 = None
    if mc_samples is not None and K >= 2:
        lo = [min(p[j] for p in points) for j in range(len(points[0]))]
        hi = [max(p[j] for p in points) for j in range(len(points[0]))]
        pad = [0.1 * (b - a) if b > a else 0.1 for a, b in zip(lo, hi)]
        rng = np.random.default_rng(mc_seed)
        samples = rng.uniform(
            np.array(lo) - np.array(pad), np.array(hi) + np.array(pad),
            size=(mc_samples, len(points[0])),
        )
        any_count = 0
        both_count = 0
        for s in samples:
            hits = 0
            for q in range(K):
                v = kde_log_density_naive(cluster_pts[q], bandwidths[q], tuple(s))
                if territory[q][0] <= v <= territory[q][1]:
                    hits += 1
            any_count += hits >= 1
            both_count += hits >= 2
        ia_v3 = both_count / any_count if any_count else 0.0
    elif mc_samples is not None:
        ia_v3 = 0.0

    s_v1 = {}
    for q in range(K):
        if len(members[q]) < min_cluster_size:
            s_v1[q] = 0.0
            continue
        lo, hi = min(like[q]), max(like[q])
        if hi == lo:
            s_v1[q] = float(len(members[q]))
        else:
            s_v1[q] = sum((v - lo) / (hi - lo) for v in like[q])
    is_v1 = 1.0 - sum(s_v1.values()) / n

    global_max = max(max(like[q]) for q in range(K))
    s_v2 = {
        q: (sum(like[q]) / global_max if len(members[q]) >= min_cluster_size else 0.0)
        for q in range(K)
    }
    is_v2 = 1.0 - sum(s_v2.values()) / n

    total = 0.0
    for q in range(K):
        values = g[q]
        if v3_center == "mean":
            center = sum(values) / len(values)
        else:
            ordered = sorted(values)
            mid = len(ordered) // 2
            center = (
                ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0
            )
        dists = [abs(v - center) if v3_metric == "abs" else (v - center) ** 2 for v in values]
        if v3_normalize:
            lo, hi = min(dists), max(dists)
            dists = [(v - lo) / (hi - lo) for v in dists] if hi > lo else [0.0] * len(dists)
        total += sum(dists)
    is_v3 = total / n

    return {
        "i_a": i_a,
        "i_s": i_s,
        "i": index,
        "i_b": i_b,
        "ia_v1": ia_v1,
        "ia_v2": ia_v2,
        "ia_v3": ia_v3,
        "is_v1": is_v1,
        "is_v2": is_v2,
        "is_v3": is_v3,
        "ambiguous": ambiguous,
        "s_q": s_q,
        "territory": territory,
    }


# --- k-means ------------------------------------------------------------


def kmeans_sequential(X, k, seed, restarts=10, max_iter=300, init=None):
    """k-means restarts run one after another, each with its own Lloyd loop
    and per-cluster means.  Returns (labels, wcss) of the first strict WCSS
    minimum, every restart's (labels, wcss), and the number of empty-cluster
    reseeds.  init(X, k, rng) draws a restart's k-means++ centres (the
    package's _kpp_init, so that both draw from one rng stream)."""
    from scipy.spatial.distance import cdist

    n = X.shape[0]
    rng = np.random.default_rng(seed)
    best_labels, best_wcss, runs, reseeds = None, np.inf, [], 0
    for _ in range(restarts):
        centers = init(X, k, rng).copy()
        labels = None
        for _ in range(max_iter):
            sq = cdist(X, centers, "sqeuclidean")
            new_labels = sq.argmin(axis=1)
            counts = np.bincount(new_labels, minlength=k)
            empties = np.flatnonzero(counts == 0)
            if empties.size:
                reseeds += 1
                own = sq[np.arange(n), new_labels]
                order = np.argsort(-own)
                for rank, e in enumerate(empties):
                    centers[e] = X[order[rank]]
                sq = cdist(X, centers, "sqeuclidean")
                new_labels = sq.argmin(axis=1)
                counts = np.bincount(new_labels, minlength=k)
            if labels is not None and np.array_equal(labels, new_labels):
                break
            labels = new_labels
            for j in np.flatnonzero(counts > 0):
                centers[j] = X[labels == j].mean(axis=0)
        wcss = float(cdist(X, centers, "sqeuclidean")[np.arange(n), labels].sum())
        runs.append((labels, wcss))
        if wcss < best_wcss:
            best_labels, best_wcss = labels, wcss
    return best_labels, best_wcss, runs, reseeds

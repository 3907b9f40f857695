"""Correctness checks on the files `evaluate` writes.

Every quantity is recomputed from its definition with numpy alone; nothing
here imports kdeval.  The constants are the defaults the benchmark runs with.
"""

import csv
import math
from pathlib import Path

import numpy as np

DELTA = 0.5
ALPHA1 = ALPHA2 = 1.0
BETA1 = BETA2 = 1.0
RHO = 0.5
MIN_CLUSTER_SIZE = 3
LIKELIHOOD_FLOOR = 1e-300
FOLDS = 5
GRID_SIZE = 20
GRID_SPAN = (0.01, 10.0)
MEDIAN_SUBSAMPLE = 500

HIGHER_BETTER = ("ch", "sc")
UNIT_INTERVAL = ("new", "new_ia", "new_is", "new_ib",
                 "ia_v1", "ia_v2", "ia_v3", "is_v1", "is_v2", "is_v3")
REL_TOL = 1e-9
SAMPLED_CANDIDATES = 3
SAMPLED_CLUSTERS = 3


class CheckFailed(Exception):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def close(a, b, rel=REL_TOL):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _value(text):
    return float(text) if text != "" else None


def _is_reference(row):
    return "reference" in row["source"].split("+")


def read_output(out_dir):
    """(rows, labels) of one `evaluate` output directory; rows are dicts of
    report.csv, labels the candidate label arrays in manifest order."""
    out = Path(out_dir)
    with open(out / "report.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    with open(out / "candidates" / "manifest.csv", newline="", encoding="utf-8") as fh:
        manifest = list(csv.DictReader(fh))
    require(len(manifest) == len(rows), "manifest and report.csv disagree on the candidate count")
    labels = []
    for entry, row in zip(manifest, rows):
        require(entry["source"] == row["source"] and entry["k"] == row["k"],
                f"manifest entry {entry['file']} does not match report row {row['candidate']}")
        text = (out / "candidates" / entry["file"]).read_text(encoding="utf-8")
        labels.append(np.array([int(v) for v in text.split()], dtype=np.int64))
    return rows, labels


def champion_ari(out_dir):
    """Reported ARI of the candidate ranked first by `new`."""
    with open(Path(out_dir) / "report.csv", newline="", encoding="utf-8") as fh:
        return next(float(row["ari"]) for row in csv.DictReader(fh) if row["rank_new"] == "1")


def deterministic_files(out_dir):
    """Bytes of the files that must be identical between runs."""
    out = Path(out_dir)
    names = ["report.csv", "summary.txt"] + sorted(p.name for p in out.glob("*.svg"))
    return {name: (out / name).read_bytes() for name in names}


# ----------------------------------------------------------------- baselines

def ari(a, b):
    """Adjusted Rand index from the contingency table (1.0 when both
    partitions are trivial and the index is 0/0)."""
    _, ia = np.unique(a, return_inverse=True)
    _, ib = np.unique(b, return_inverse=True)
    table = np.zeros((ia.max() + 1, ib.max() + 1), dtype=np.int64)
    np.add.at(table, (ia, ib), 1)
    comb = lambda x: int((x * (x - 1) // 2).sum())
    total = comb(np.array([len(a)]))
    sum_ij, sum_a, sum_b = comb(table), comb(table.sum(1)), comb(table.sum(0))
    if total == 0:
        return 1.0
    expected = sum_a * sum_b / total
    top = (sum_a + sum_b) / 2.0
    if top == expected:
        return 1.0
    return (sum_ij - expected) / (top - expected)


def calinski_harabasz(X, labels, K):
    n = len(X)
    if K < 2 or K > n - 1:
        return None
    mean = X.mean(0)
    within = between = 0.0
    for q in range(K):
        members = X[labels == q]
        c = members.mean(0)
        within += ((members - c) ** 2).sum()
        between += len(members) * ((c - mean) ** 2).sum()
    if within == 0.0:
        return None
    return between / within * (n - K) / (K - 1)


def silhouette(X, labels, K):
    n = len(X)
    if K < 2 or K > n - 1:
        return None
    dist = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(-1))
    sizes = np.bincount(labels, minlength=K)
    sums = np.stack([dist[:, labels == q].sum(1) for q in range(K)], axis=1)
    total = 0.0
    for i in range(n):
        q = labels[i]
        if sizes[q] == 1:
            continue
        a = sums[i, q] / (sizes[q] - 1)
        b = min(sums[i, r] / sizes[r] for r in range(K) if r != q)
        if max(a, b) > 0:
            total += (b - a) / max(a, b)
    return total / n


def davies_bouldin(X, labels, K):
    if K < 2:
        return None
    members = [X[labels == q] for q in range(K)]
    centers = np.array([m.mean(0) for m in members])
    scatter = [np.sqrt(((m - c) ** 2).sum(1)).mean() for m, c in zip(members, centers)]
    worst = []
    for i in range(K):
        ratios = []
        for j in range(K):
            if j != i:
                gap = math.sqrt(((centers[i] - centers[j]) ** 2).sum())
                if gap == 0.0:
                    return None
                ratios.append((scatter[i] + scatter[j]) / gap)
        worst.append(max(ratios))
    return sum(worst) / K


# ---------------------------------------------------------------- KDE index

def sq_dist(a, b):
    return ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)


def log_kde(sq, m, d, h):
    """Gaussian KDE log-density from squared distances to the m training points."""
    e = -sq / (2.0 * h * h)
    top = e.max(1)
    lse = top + np.log(np.exp(e - top[:, None]).sum(1))
    return lse - math.log(m) - d * math.log(h) - 0.5 * d * math.log(2.0 * math.pi)


def _bracket(values, lo, hi):
    """(surely inside, possibly inside) flags for the closed interval [lo, hi];
    points within rounding distance of an end are only possibly inside, unless
    they are the end itself (the member whose log-likelihood defines it)."""
    tol_lo = REL_TOL * max(1.0, abs(lo))
    tol_hi = REL_TOL * max(1.0, abs(hi))
    sure = ((values >= lo + tol_lo) | (values == lo)) & ((values <= hi - tol_hi) | (values == hi))
    maybe = (values >= lo - tol_lo) & (values <= hi + tol_hi)
    return sure, maybe


def check_kdi(X, labels, K, bandwidths, row):
    """new_ia, new_is, new_ib and new from a from-definition KDE with the
    reported per-cluster bandwidths."""
    n, d = X.shape
    require(len(bandwidths) == K, f"candidate {row['candidate']}: {len(bandwidths)} bandwidths for K={K}")
    hits_sure = np.zeros(n, dtype=np.int64)
    hits_maybe = np.zeros(n, dtype=np.int64)
    band_sure = band_maybe = 0
    s_values = []
    for q in range(K):
        members = X[labels == q]
        column = log_kde(sq_dist(X, members), len(members), d, bandwidths[q])
        g = column[labels == q]
        spread = float(g.std())
        if spread == 0.0:
            territory = (g.min() - BETA1, g.max() + BETA2)
        else:
            territory = (g.min() - ALPHA1 * spread, g.max() + ALPHA2 * spread)
        sure, maybe = _bracket(column, *territory)
        hits_sure += sure
        hits_maybe += maybe
        sure, maybe = _bracket(column, g.min(), g.min() + RHO * spread)
        band_sure += int(sure.sum())
        band_maybe += int(maybe.sum())
        like = np.maximum(np.exp(g), LIKELIHOOD_FLOOR)
        s_values.append(like.sum() / like.max() if len(g) >= MIN_CLUSTER_SIZE else 0.0)
    tag = f"candidate {row['candidate']} ({row['source']})"
    ia, i_s, ib = float(row["new_ia"]), float(row["new_is"]), float(row["new_ib"])
    lo, hi = int((hits_sure >= 2).sum()), int((hits_maybe >= 2).sum())
    require(lo - 0.5 <= ia * n <= hi + 0.5, f"{tag}: new_ia={ia!r}, definition gives {lo}..{hi} of {n} points")
    require(band_sure - 0.5 <= ib * K * n <= band_maybe + 0.5,
            f"{tag}: new_ib={ib!r}, definition gives {band_sure}..{band_maybe} of {K}*{n}")
    expected_is = 1.0 - math.fsum(s_values) / n
    require(close(i_s, expected_is), f"{tag}: new_is={i_s!r}, definition gives {expected_is!r}")
    expected = DELTA * lo / n + (1.0 - DELTA) * expected_is
    if lo == hi:
        require(close(float(row["new"]), expected), f"{tag}: new={row['new']}, definition gives {expected!r}")


def check_bandwidth(points, h, seed, tag):
    """The reported bandwidth maximises the held-out CV objective over the
    scale-relative grid (ties to the larger h), or is the Scott fallback
    where CV does not apply."""
    m, d = points.shape
    grid = None
    if m >= FOLDS:
        sub = points
        if m > MEDIAN_SUBSAMPLE:
            sub = points[np.random.default_rng(seed).choice(m, MEDIAN_SUBSAMPLE, replace=False)]
        dist = np.sqrt(sq_dist(sub, sub))[np.triu_indices(len(sub), 1)]
        scale = float(np.median(dist))
        if scale > 0.0:
            grid = np.geomspace(GRID_SPAN[0] * scale, GRID_SPAN[1] * scale, GRID_SIZE)
    if grid is None:
        sigma = float(np.mean(np.std(points, axis=0)))
        expected = 1.0 if sigma == 0.0 else sigma * m ** (-1.0 / (d + 4))
        require(close(h, expected, 1e-12), f"{tag}: fallback bandwidth {h!r}, Scott rule gives {expected!r}")
        return
    folds = np.array_split(np.random.default_rng(seed).permutation(m), FOLDS)
    scores = np.zeros(GRID_SIZE)
    for held in folds:
        train = np.ones(m, dtype=bool)
        train[held] = False
        sq = sq_dist(points[held], points[train])
        for i, width in enumerate(grid):
            scores[i] += log_kde(sq, int(train.sum()), d, width).sum()
    scores /= FOLDS
    on_grid = np.flatnonzero(np.abs(grid - h) <= 1e-12 * h)
    require(on_grid.size == 1, f"{tag}: bandwidth {h!r} is not on its CV grid")
    best = scores.max()
    optimal = np.flatnonzero(scores >= best - REL_TOL * max(1.0, abs(best)))
    require(on_grid[0] == optimal.max(),
            f"{tag}: bandwidth {h!r} (grid {on_grid[0]}) is not the largest CV optimum (grid {optimal.max()})")


# ------------------------------------------------------------------- report

def check_ranks(rows):
    n = len(rows)
    for column in [c for c in rows[0] if c.startswith("rank_")]:
        index = column[len("rank_"):]
        keyed = []
        for pos, row in enumerate(rows):
            value = _value(row[index])
            if value is not None and math.isfinite(value):
                keyed.append((0, -value if index in HIGHER_BETTER else value, int(row["k"]), row["source"], pos))
            else:
                keyed.append((1, 0.0, int(row["k"]), row["source"], pos))
        expected = [t[-1] for t in sorted(keyed)]
        ranks = [int(row[column]) for row in rows]
        require(sorted(ranks) == list(range(1, n + 1)), f"{column} is not a permutation of 1..{n}")
        actual = sorted(range(n), key=lambda pos: ranks[pos])
        require(actual == expected, f"{column} disagrees with the scores and the direction of {index}")


def check_dataset(out_dir, points, reference, seed):
    """Check one evaluation's output against the definitions."""
    rows, labels = read_output(out_dir)
    n = len(points)
    keys = set()
    for row, lab in zip(rows, labels):
        tag = f"candidate {row['candidate']} ({row['source']})"
        K = int(row["k"])
        require(lab.shape == (n,), f"{tag}: {lab.shape[0]} labels for {n} points")
        _, first = np.unique(lab, return_index=True)
        require(np.array_equal(lab[np.sort(first)], np.arange(K)),
                f"{tag}: labels are not canonical 0..{K - 1} in first-occurrence order")
        keys.add(lab.tobytes())
        expected = ari(lab, reference)
        require(abs(_value(row["ari"]) - expected) <= 1e-12, f"{tag}: ari={row['ari']}, recomputed {expected!r}")
        if _is_reference(row):
            require(expected == 1.0 and float(row["ari"]) == 1.0, f"{tag}: reference candidate has ARI {row['ari']}")
        for column in UNIT_INTERVAL:
            value = _value(row.get(column, ""))
            require(value is None or 0.0 <= value <= 1.0, f"{tag}: {column}={value!r} outside [0, 1]")
        mixed = DELTA * float(row["new_ia"]) + (1.0 - DELTA) * float(row["new_is"])
        require(abs(float(row["new"]) - mixed) <= 1e-12, f"{tag}: new={row['new']} != delta*I_a + (1-delta)*I_s")
    require(len(keys) == len(rows), "two candidates have the same grouping")
    reference_pos = [pos for pos, row in enumerate(rows) if _is_reference(row)]
    require(len(reference_pos) == 1, "no reference candidate")
    check_ranks(rows)

    champion = next(pos for pos, row in enumerate(rows) if row["rank_new"] == "1")
    rng = np.random.default_rng((seed, 1))
    sample = set(rng.choice(len(rows), min(SAMPLED_CANDIDATES, len(rows)), replace=False).tolist())
    sample |= {champion, reference_pos[0]}
    clusters = []
    for pos in sorted(sample):
        row, lab, K = rows[pos], labels[pos], int(rows[pos]["k"])
        tag = f"candidate {row['candidate']} ({row['source']})"
        for name, fn in (("ch", calinski_harabasz), ("sc", silhouette), ("db", davies_bouldin)):
            expected, reported = fn(points, lab, K), _value(row[name])
            expected = None if expected is None else float(expected)
            require((expected is None) == (reported is None) and (expected is None or close(reported, expected)),
                    f"{tag}: {name}={reported!r}, formula gives {expected!r}")
        bandwidths = [float(v) for v in row["bandwidths"].split(";")]
        check_kdi(points, lab, K, bandwidths, row)
        clusters += [(pos, q, bandwidths[q]) for q in range(K)]
    for i in rng.choice(len(clusters), min(SAMPLED_CLUSTERS, len(clusters)), replace=False):
        pos, q, h = clusters[i]
        check_bandwidth(points[labels[pos] == q], h, seed, f"candidate {pos} cluster {q}")

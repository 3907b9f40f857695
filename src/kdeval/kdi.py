"""Density-based clustering index: ambiguous, similarity, and boundary
sub-indices plus their published variants.

Each cluster gets its own Gaussian KDE.  The member log-likelihoods define a
closed territory interval; points claimed by two or more territories are
ambiguous.  The similarity side scores how evenly likely a cluster's own
members are.  The main index mixes the two: I = delta*I_a + (1-delta)*I_s,
smaller is better, always in [0, 1].

Cross-cluster reductions use math.fsum so scores are bit-identical under any
relabeling of the clusters.
"""

import math
from dataclasses import dataclass

import numpy as np

from .density import (
    BandwidthSearchSpec,
    _check_count,
    _log_density_above,
    choose_bandwidth,
    fit_kde,
    log_density_many,
)

LIKELIHOOD_FLOOR = 1e-300

S_V3_CENTERS = ("mean", "median")
S_V3_METRICS = ("abs", "squared")


@dataclass(frozen=True)
class KdiParams:
    """Hyper-parameters of the index family.

    delta mixes the two sub-indices; alpha1/alpha2 stretch the territory below
    and above the member log-likelihood range (beta1/beta2 replace them when
    the member spread is zero); rho sets the boundary band width.  The v3
    similarity knobs select its center/metric and whether its per-cluster
    distances are min-max scaled (required for a [0,1] value).
    """

    delta: float = 0.5
    alpha1: float = 1.0
    alpha2: float = 1.0
    beta1: float = 1.0
    beta2: float = 1.0
    rho: float = 0.5
    min_cluster_size: int = 3
    ambiguous_variant: str = "main"
    similarity_variant: str = "main"
    mc_samples: int = 20000
    seed: int = 0
    pair_local: bool = True
    boundary_members_only: bool = False
    s_v3_center: str = "mean"
    s_v3_metric: str = "abs"
    s_v3_normalize: bool = True

    def __post_init__(self):
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must be in [0, 1], got {self.delta}")
        for name in ("alpha1", "alpha2", "beta1", "beta2", "rho"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.ambiguous_variant not in AMBIGUOUS:
            raise ValueError(f"ambiguous_variant must be one of {tuple(AMBIGUOUS)}")
        if self.similarity_variant not in SIMILARITY:
            raise ValueError(f"similarity_variant must be one of {tuple(SIMILARITY)}")
        for name, least in (("mc_samples", 1), ("min_cluster_size", 0), ("seed", 0)):
            _check_count(name, getattr(self, name), least)
        for name, allowed in (("s_v3_center", S_V3_CENTERS), ("s_v3_metric", S_V3_METRICS)):
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {value!r}")


@dataclass(frozen=True)
class ClusterDensityProfile:
    """Fitted per-cluster profile: KDE model, member log-likelihoods G_q,
    clamped likelihoods L_q, their spread, the territory interval, and the
    log-likelihood of every dataset point under the cluster's KDE (G_q is
    its member slice)."""

    member_indices: np.ndarray
    model: object
    g: np.ndarray
    likelihoods: np.ndarray
    delta_g: float
    territory: tuple
    log_column: np.ndarray

    @property
    def n_members(self):
        return self.g.shape[0]


@dataclass(frozen=True)
class KdiScore:
    """Scores for one partition; I_a and I_s are the selected variants.  Main
    per-point flags and S_q: ambiguous_index(...)[1], similarity_index(...)[1]."""

    I: float
    I_a: float
    I_s: float
    I_b: float


def _territory(g, spread, p):
    """Closed territory interval of the member log-likelihoods g under p's
    alpha/beta; the beta constants replace alpha*spread when the spread is 0."""
    lo, hi = float(g.min()), float(g.max())
    if spread == 0.0:
        return (lo - p.beta1, hi + p.beta2)
    return (lo - p.alpha1 * spread, hi + p.alpha2 * spread)


def fit_profiles(data, partition, params, bw_spec=None, cache=None):
    """Fit one density profile per cluster.

    Bandwidths come from choose_bandwidth under bw_spec (None: the auto grid
    with the default folds and params.seed).  Deterministic given the spec's
    seed, and independent of cluster numbering: every cluster uses the same
    seed on its own member set.  Each cluster's KDE is evaluated once, over
    the whole dataset.

    cache, a dict owned by the caller and used for one dataset only, maps
    (member index bytes, spec) to the fitted (model, column); a cluster that
    another partition of the same dataset already has is not fitted again.
    The territories are always rebuilt from params.
    """
    X = data.points
    labels = partition.labels
    if labels.shape[0] != X.shape[0]:
        raise ValueError("partition length does not match dataset size")
    spec = BandwidthSearchSpec(seed=params.seed) if bw_spec is None else bw_spec
    cache = {} if cache is None else cache
    profiles = []
    for q in range(partition.K):
        idx = np.flatnonzero(labels == q)
        key = (idx.tobytes(), spec)
        if key not in cache:
            pts = X[idx]
            model = fit_kde(pts, choose_bandwidth(pts, spec))
            column = log_density_many(model, X)
            # shared by every partition with this cluster: fail loudly on a write
            model.training_points.flags.writeable = False
            column.flags.writeable = False
            cache[key] = (model, column)
        model, column = cache[key]
        g = column[idx]
        like = np.maximum(np.exp(g), LIKELIHOOD_FLOOR)
        spread = float(np.std(g))
        profiles.append(
            ClusterDensityProfile(
                member_indices=idx,
                model=model,
                g=g,
                likelihoods=like,
                delta_g=spread,
                territory=_territory(g, spread, params),
                log_column=column,
            )
        )
    return profiles


def cross_log_density(data, profiles):
    """(n, K) matrix of every point's log-likelihood under every cluster,
    stacked from the profiles' stored columns."""
    return np.column_stack([p.log_column for p in profiles])


def territory_membership(log_matrix, intervals):
    """(n, K) bool matrix: column j's log-likelihoods inside the closed
    interval intervals[j].  The one place points are assigned to territories."""
    lo, hi = np.asarray(intervals, dtype=np.float64).reshape(-1, 2).T
    return (log_matrix >= lo) & (log_matrix <= hi)


def _member_mask(profiles, n):
    """(n, K) bool matrix: point i is a member of cluster j."""
    mask = np.zeros((n, len(profiles)), dtype=bool)
    for j, profile in enumerate(profiles):
        mask[profile.member_indices, j] = True
    return mask


def ambiguous_index(data, profiles, log_matrix=None):
    """Fraction of dataset points lying in at least two territories.

    Returns (I_a, per-point flags).  With a single cluster I_a is 0.
    log_matrix is ignored: every sub-index reads cross_log_density.
    """
    if not profiles:
        raise ValueError("need at least one profile")
    log_matrix = cross_log_density(data, profiles)
    flags = territory_membership(log_matrix, [p.territory for p in profiles]).sum(axis=1) >= 2
    return int(flags.sum()) / flags.shape[0], flags


def _similarity(profiles, n_total, min_cluster_size, s_of):
    """(1 - sum_q S_q / n, S) with S_q = s_of(profile); clusters with fewer
    than min_cluster_size members contribute 0.  Likelihoods are floored at
    LIKELIHOOD_FLOOR, so every maximum s_of divides by is positive.  With
    all-equal likelihoods rounding can lift sum_q S_q a few ulps above n; the
    index is then 0, not a tiny negative number."""
    s_values = [float(s_of(p)) if p.n_members >= min_cluster_size else 0.0 for p in profiles]
    return max(0.0, 1.0 - math.fsum(s_values) / n_total), np.array(s_values)


def similarity_index(profiles, n_total, min_cluster_size=3):
    """Main similarity index: I_s = 1 - sum_q S_q / n, where S_q is the sum of
    a cluster's member likelihoods normalized by the cluster maximum, and
    clusters with fewer than min_cluster_size members contribute 0."""
    return _similarity(
        profiles, n_total, min_cluster_size, lambda p: p.likelihoods.sum() / p.likelihoods.max()
    )


def boundary_index(data, profiles, rho, log_matrix=None, members_only=False):
    """Boundary index: for each cluster, count points whose log-likelihood
    under that cluster falls in [min(G_q), min(G_q) + rho*spread], then
    average over clusters and dataset size.

    By default the count runs over the whole dataset; members_only restricts
    it to the cluster's own points.  log_matrix is ignored (see ambiguous_index).
    """
    if rho < 0:
        raise ValueError("rho must be >= 0")
    log_matrix = cross_log_density(data, profiles)
    n, k = log_matrix.shape
    bands = [(float(p.g.min()), float(p.g.min()) + rho * p.delta_g) for p in profiles]
    inside = territory_membership(log_matrix, bands)
    if members_only:
        inside &= _member_mask(profiles, n)
    return int(inside.sum()) / (k * n)


def pairwise_ambiguous(data, profiles, log_matrix=None, pair_local=True):
    """Symmetric matrix of pairwise ambiguous fractions A_ij.

    A_ij is the fraction of points lying in both territories; with pair_local
    (the default) the fraction is over the members of clusters i and j, else
    over the whole dataset.  log_matrix is ignored (see ambiguous_index).
    """
    log_matrix = cross_log_density(data, profiles)
    in_t = territory_membership(log_matrix, [p.territory for p in profiles]).astype(np.int64)
    n, k = log_matrix.shape
    if pair_local:
        # clusters are disjoint, so the members of i or j that lie in both
        # territories are own[i, j] + own[j, i], over |i| + |j| points
        members = _member_mask(profiles, n)
        own = in_t.T @ (in_t * members)
        counts = own + own.T
        sizes = members.sum(axis=0)
        denom = sizes[:, None] + sizes[None, :]
    else:
        counts = in_t.T @ in_t
        denom = n
    out = counts / denom
    np.fill_diagonal(out, 0.0)
    return out


def _pair_fractions(data, profiles, pair_local):
    """The pairwise ambiguous fractions A_ij for i < j; empty below two clusters."""
    k = len(profiles)
    if k < 2:
        return np.empty(0)
    return pairwise_ambiguous(data, profiles, pair_local=pair_local)[np.triu_indices(k, 1)]


def ambiguous_v1(data, profiles, log_matrix=None, pair_local=True):
    """Proportion of cluster pairs whose pairwise ambiguous fraction is positive."""
    upper = _pair_fractions(data, profiles, pair_local)
    return int((upper > 0).sum()) / upper.size if upper.size else 0.0


def ambiguous_v2(data, profiles, log_matrix=None, pair_local=True):
    """Mean of the positive pairwise ambiguous fractions; 0 when none are."""
    upper = _pair_fractions(data, profiles, pair_local)
    positives = upper[upper > 0].tolist()
    return math.fsum(positives) / len(positives) if positives else 0.0


def ambiguous_v3(data, profiles, mc_samples, seed):
    """Monte-Carlo territory-area variant: the disputed fraction of the area
    covered by at least one territory, sampled uniformly over the bounding
    box of the data padded by a tenth of its width per side (0.1 on a flat
    axis).  Samples that cannot reach a territory are skipped (see
    density._log_density_above)."""
    if len(profiles) < 2:
        return 0.0
    lo, hi = data.points.min(axis=0), data.points.max(axis=0)
    pad = np.where(hi > lo, 0.1 * (hi - lo), 0.1)
    rng = np.random.default_rng(seed)
    samples = rng.uniform(lo - pad, hi + pad, size=(int(mc_samples), data.points.shape[1]))
    values = np.column_stack(
        [_log_density_above(p.model, samples, p.territory[0]) for p in profiles]
    )
    hits = territory_membership(values, [p.territory for p in profiles]).sum(axis=1)
    in_any = int((hits >= 1).sum())
    if in_any == 0:
        return 0.0
    return int((hits >= 2).sum()) / in_any


def similarity_v1(profiles, n_total, min_cluster_size=3):
    """Min-max variant: member likelihoods are min-max scaled per cluster
    before summing.  A cluster with all-equal likelihoods scores 1 per member
    (maximally self-similar); small clusters contribute 0."""

    def minmax_sum(profile):
        like = profile.likelihoods
        lo = float(like.min())
        hi = float(like.max())
        if hi == lo:
            return profile.n_members
        return ((like - lo) / (hi - lo)).sum()

    return _similarity(profiles, n_total, min_cluster_size, minmax_sum)[0]


def similarity_v2(profiles, n_total, min_cluster_size=3):
    """Global-max variant: likelihood sums are normalized by the maximum
    likelihood over all clusters instead of the per-cluster maximum."""
    global_max = max(float(p.likelihoods.max()) for p in profiles)
    return _similarity(
        profiles, n_total, min_cluster_size, lambda p: p.likelihoods.sum() / global_max
    )[0]


def similarity_v3(profiles, n_total, center="mean", metric="abs", normalize=False):
    """Dispersion variant: mean distance of member log-likelihoods to their
    center (mean or median), absolute or squared.

    With normalize the distances are min-max scaled per cluster, which bounds
    the result to [0, 1]; the raw value is otherwise unbounded.  Clusters are
    weighted by size (the result is the grand mean over points).
    """
    if center not in S_V3_CENTERS:
        raise ValueError(f"center must be one of {S_V3_CENTERS}, got {center!r}")
    if metric not in S_V3_METRICS:
        raise ValueError(f"metric must be one of {S_V3_METRICS}, got {metric!r}")
    contributions = []
    for profile in profiles:
        g = profile.g
        mid = float(np.mean(g)) if center == "mean" else float(np.median(g))
        dists = np.abs(g - mid) if metric == "abs" else (g - mid) ** 2
        if normalize:
            lo = float(dists.min())
            hi = float(dists.max())
            dists = (dists - lo) / (hi - lo) if hi > lo else np.zeros_like(dists)
        contributions.append(float(dists.sum()))
    return math.fsum(contributions) / n_total


# Variant name -> fn(data, profiles, params).  Entries call the public
# functions through module globals, so wrapping one of them (to trace it, say)
# also wraps its entry.
AMBIGUOUS = {
    "main": lambda data, prof, p: ambiguous_index(data, prof)[0],
    "v1": lambda data, prof, p: ambiguous_v1(data, prof, pair_local=p.pair_local),
    "v2": lambda data, prof, p: ambiguous_v2(data, prof, pair_local=p.pair_local),
    "v3": lambda data, prof, p: ambiguous_v3(data, prof, p.mc_samples, p.seed),
}
SIMILARITY = {
    "main": lambda data, prof, p: similarity_index(prof, data.n, p.min_cluster_size)[0],
    "v1": lambda data, prof, p: similarity_v1(prof, data.n, p.min_cluster_size),
    "v2": lambda data, prof, p: similarity_v2(prof, data.n, p.min_cluster_size),
    "v3": lambda data, prof, p: similarity_v3(
        prof, data.n, center=p.s_v3_center, metric=p.s_v3_metric, normalize=p.s_v3_normalize
    ),
}


def kdi_index(data, partition, params, bw_spec=None, profiles=None, log_matrix=None):
    """Full index for one partition: fit profiles, evaluate the selected
    ambiguous and similarity variants, mix with delta, and attach the boundary
    index.  Deterministic given params.seed and bw_spec (see fit_profiles).

    profiles may be passed in when already fitted (they must then match params
    and the partition).  log_matrix is accepted for compatibility; every value
    is read from the profiles' stored columns.
    """
    if profiles is None:
        profiles = fit_profiles(data, partition, params, bw_spec=bw_spec)

    i_a = AMBIGUOUS[params.ambiguous_variant](data, profiles, params)
    i_s = SIMILARITY[params.similarity_variant](data, profiles, params)
    i_b = boundary_index(data, profiles, params.rho, members_only=params.boundary_members_only)
    return KdiScore(
        I=params.delta * i_a + (1.0 - params.delta) * i_s,
        I_a=i_a,
        I_s=i_s,
        I_b=i_b,
    )

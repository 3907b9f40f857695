"""Per-cluster Gaussian kernel density estimation.

Densities are evaluated in log space via the package's log-sum-exp
(_logsumexp, which EM also uses), so queries far from the training points
still get a finite log-density.  Every KDE value comes from the one kernel,
_log_kde.  Bandwidths come from a cross-validated grid search that skips the
grid values a nearest-neighbour bound rules out (_cv_survivors), with a
Scott-style fallback for clusters too small to cross-validate.  Monte-Carlo
territory tests (_territory_sides) bound the kernel over blocks of samples
and run it exactly only at a territory's edge.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist, pdist

LOG_2PI = float(np.log(2.0 * np.pi))

# Default search-space knobs (see auto_search_spec).
GRID_SIZE = 20
GRID_SPAN = (0.01, 10.0)
DEFAULT_FOLDS = 5
MEDIAN_SUBSAMPLE = 500

# Elements per kernel temporary: _lse_blocks splits rows into blocks and bandwidths
# into chunks so that no (bandwidths, rows, width) temporary exceeds it (unless
# width alone does); each value depends on its own row and bandwidth alone.
KERNEL_BLOCK = 65536

# Held-out log-density given to a point whose kernel value is non-finite, so
# that the CV objective stays finite.  It fires when 2h^2 underflows to 0
# (coordinates near 1e-170), when it overflows, and when every squared distance
# over 2h^2 overflows.
UNDERFLOW_PENALTY = -1e10

# Nearest neighbours per point (its own fold's included) from which _cv_bounds
# bounds the point's held-out log-density.
CV_NEIGHBOURS = 16

# Clamp on shifted exponents before exp, which is slow where its result underflows.
# Each clamped term adds at most e^-700 (about 1e-304) to a sum whose largest
# term is 1.
EXP_CLAMP = -700.0

# Widest rows whose max _logsumexp takes with one np.maximum per column, where
# that beats a.max: 7x faster at widths 4-6 and 1.3-3.5x at 16, but about even
# at 20-24 and 1.3-1.6x slower at 30-32 (on 400 rows).
NARROW_WIDTH = 16

# Smallest cluster on which _cv_scores runs the _cv_survivors bound; on smaller
# ones it costs more than the grid values it rules out (break-even 80-90 points).
CV_BOUND_MIN = 90

# Most samples per block of _sample_blocks (the leaf size of its k-d tree).
SAMPLE_BLOCK = 256

# _territory_sides sums the kernel over the training points within
# sqrt(2h^2 * _TRUNCATE_NATS) of a block's box (or within the reach radius, if
# wider); each point left out has a term below e^-12, where a term is 1 at distance 0.
_TRUNCATE_NATS = 12.0


@dataclass(frozen=True)
class DensityModel:
    """Gaussian KDE: training points of shape (m, d) and a bandwidth h > 0."""

    training_points: np.ndarray
    bandwidth: float

    @property
    def d(self):
        return self.training_points.shape[1]


def _check_count(name, value, least, most=math.inf):
    """Raise ValueError unless value is an integer (numpy's included, bool not)
    in least..most."""
    if not (np.issubdtype(type(value), np.integer) and least <= value <= most):
        bounds = f">= {least}" if most == math.inf else f"in {least}..{most}"
        raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")


def _check_flag(name, value):
    """Raise ValueError unless value is a bool (numpy's included)."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")


def _check_choice(name, value, allowed):
    """Raise ValueError unless value is one of the tuple allowed."""
    if value not in allowed:
        raise ValueError(f"{name} must be one of {allowed}, got {value!r}")


@dataclass(frozen=True)
class BandwidthSearchSpec:
    """Candidate bandwidths (None: each cluster's auto_search_spec grid), CV
    fold count and fold-shuffle seed."""

    grid: tuple = None
    folds: int = DEFAULT_FOLDS
    seed: int = 0

    def __post_init__(self):
        _check_count("folds", self.folds, 2)
        _check_count("seed", self.seed, 0)
        if self.grid is None:
            return
        grid = tuple(float(h) for h in self.grid)
        if not grid:
            raise ValueError("bandwidth grid must be non-empty")
        if not all(0.0 < h < math.inf for h in grid):  # also rejects nan
            raise ValueError("bandwidth candidates must be positive and finite")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("bandwidth grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)


def _as_points(points):
    """Points as a float64 (m, d) array; a 1-D input is m points in one dimension."""
    pts = np.asarray(points, dtype=np.float64)
    return pts.reshape(-1, 1) if pts.ndim == 1 else pts


def fit_kde(points, h):
    """Build a Gaussian KDE model from the points with bandwidth h."""
    pts = _as_points(points)
    if pts.shape[0] < 1 or not np.all(np.isfinite(pts)):
        raise ValueError("cannot fit a KDE on an empty or non-finite point set")
    h = float(h)
    if not np.isfinite(h) or h <= 0:
        raise ValueError(f"bandwidth must be positive and finite, got {h}")
    return DensityModel(training_points=pts, bandwidth=h)


def _logsumexp(a, overwrite_a=False):
    """logsumexp(a, axis=-1); overwrite_a reuses a's buffer.  Each row is
    shifted by its max where that is finite, and the shifted exponents are
    clamped at EXP_CLAMP before exp.  A row whose max is -inf, +inf or nan
    gives that max.  Rows at most NARROW_WIDTH wide take their max column by
    column, which is exact in any order."""
    with np.errstate(all="ignore"):
        if a.shape[-1] <= NARROW_WIDTH:
            a_max = a[..., :1].copy()
            for j in range(1, a.shape[-1]):
                np.maximum(a_max, a[..., j : j + 1], out=a_max)
        else:
            a_max = a.max(axis=-1, keepdims=True)
        e = np.subtract(a, np.where(np.isfinite(a_max), a_max, 0.0), out=a if overwrite_a else None)
        np.exp(np.maximum(e, EXP_CLAMP, out=e), out=e)
        return np.log(e.sum(axis=-1)) + a_max[..., 0]


def _lse_blocks(block, rows, width, hs):
    """(len(hs), rows) logsumexp_j(-sq_j / 2h^2) for each bandwidth in hs, in
    KERNEL_BLOCK-bounded blocks; block(r0, r1) gives the (r1 - r0, width)
    squared distances sq of rows r0 to r1 (r1 may pass rows)."""
    hs = np.asarray(hs, dtype=np.float64)[:, None, None]
    out = np.empty((hs.shape[0], rows))
    step = max(1, KERNEL_BLOCK // width)
    for r in range(0, rows, step):
        sq = block(r, r + step)
        chunk = max(1, KERNEL_BLOCK // sq.size)
        for c in range(0, hs.shape[0], chunk):
            h = hs[c : c + chunk]
            with np.errstate(all="ignore"):
                a = np.divide(sq, -2.0 * h * h)
            out[c : c + chunk, r : r + step] = _logsumexp(a, overwrite_a=True)
    return out


def _log_kde(queries, points, hs):
    """The one kernel: (len(hs), rows) log densities at each (rows, d) query row
    of the Gaussian KDE on the (m, d) training points, for each bandwidth in hs.

    log f(x) = logsumexp_i(-|x - x_i|^2 / 2h^2) - log m - d*log h - (d/2)*log 2pi
    """
    m, d = points.shape
    hs = np.asarray(hs, dtype=np.float64)
    norm = np.log(m) + d * np.log(hs[:, None]) + 0.5 * d * LOG_2PI
    lse = _lse_blocks(
        lambda r0, r1: cdist(queries[r0:r1], points, "sqeuclidean"), len(queries), m, hs
    )
    return lse - norm


def log_density_many(model, queries):
    """Log KDE density at each query row (see _log_kde)."""
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim == 1:
        q = q.reshape(-1, 1) if model.d == 1 else q.reshape(1, -1)
    if q.shape[1] != model.d:
        raise ValueError(f"query dimension {q.shape[1]} != model dimension {model.d}")
    return _log_kde(q, model.training_points, (model.bandwidth,))[0]


class SampleBlocks(NamedTuple):
    """Query points in block order: block b is rows edges[b]:edges[b + 1] of
    points, inside the box [low[b], high[b]]."""

    points: np.ndarray
    edges: np.ndarray
    low: np.ndarray
    high: np.ndarray


def _sample_blocks(samples):
    """The (n, d) samples as SampleBlocks: the leaves, in order, of a k-d tree
    with at most SAMPLE_BLOCK samples per leaf, each with its tight box."""
    tree = cKDTree(samples, leafsize=SAMPLE_BLOCK)
    edges, stack = [0], [tree.tree]
    while stack:
        node = stack.pop()
        if node.greater is None:
            edges.append(node.end_idx)
        else:
            stack += [node.greater, node.lesser]
    points = samples[tree.indices]
    starts = np.array(edges[:-1])
    return SampleBlocks(points, np.array(edges), np.minimum.reduceat(points, starts),
                        np.maximum.reduceat(points, starts))


def _box_sq(blocks, points):
    """(blocks, m) squared distances from each block's box to each (m, d) point."""
    sq = np.zeros((len(blocks.low), len(points)))
    for k in range(points.shape[1]):
        gap = np.maximum(blocks.low[:, k, None] - points[:, k], points[:, k] - blocks.high[:, k, None])
        sq += np.maximum(gap, 0.0) ** 2
    return sq


def _territory_sides(model, blocks, lo, hi):
    """Bool column over blocks.points: lo <= log f(x) <= hi, exactly as
    territory_membership reads it from log_density_many's values.

    A log-sum-exp of m terms is at most its largest term plus the log m that
    the norm subtracts, so log f(x) <= top - dmin(x)^2 / 2h^2, with top = -d*log
    h - (d/2)*log 2pi and dmin(x) the distance to the nearest training point.
    A block whose box lies beyond reach^2 = 2h^2 (top - lo + 1 + 1e-9 (|lo| +
    |top|)) of every point is outside.  In the other blocks, the points within
    R^2 = max(2h^2 _TRUNCATE_NATS, reach^2) of the box are included, and the
    kernel's clamped log-sum-exp over them gives lb; ub adds each excluded
    point as if it lay at the least excluded box distance, which no row is
    nearer.  A row is inside when lb >= lo + s and ub <= hi - s, and outside
    when ub < lo - s or lb > hi + s, with s = 1e-6 + 1e-9 (|lb| + |ub| + |norm|).

    Why the slack suffices: the clamp at EXP_CLAMP raises a sum by at most m
    e^-700 of its largest term, in lb and in the exact kernel alike.  Both
    compute each term as -sq / 2h^2 with the same division, shift it by the
    row max and take log(sum) + max - norm, so each is within a few ulps of
    |max| + |norm| plus m ulps of the sum; |max| is at most |value| + |norm| +
    log m, and ub's excluded term, log(count) - box^2 / 2h^2, is within a few
    ulps of itself.  Their gap is thus below 1e-9 (|lb| + |ub| + |norm|) plus
    1e-6 nat for m below 1e9.  The reach radius carries a whole nat, and a box
    distance is within a few ulps of every row's distance below it.  Rows
    left undecided, non-finite bounds included, and every row when 2h^2 is
    not a normal float, go through _log_kde in one call and are compared
    exactly.
    """
    pts, h = model.training_points, model.bandwidth
    m, d = pts.shape
    queries, edges = blocks.points, blocks.edges
    c = 2.0 * h * h
    norm = math.log(m) + d * math.log(h) + 0.5 * d * LOG_2PI
    lse = np.full(len(queries), np.nan)
    far = np.full(len(edges) - 1, np.nan)  # log(excluded count) - least excluded box^2 / 2h^2
    outside = np.zeros(len(queries), dtype=bool)
    if np.finfo(np.float64).tiny <= c < math.inf:
        top = math.log(m) - norm
        reach2 = c * (top - lo + 1.0 + 1e-9 * (abs(lo) + abs(top)))
        box = _box_sq(blocks, pts)
        near = box.min(axis=1)
        outside = np.repeat(near > reach2, np.diff(edges))
        kept = box <= max(c * _TRUNCATE_NATS, reach2)
        with np.errstate(all="ignore"):
            far = np.log(m - kept.sum(axis=1)) - np.where(kept, np.inf, box).min(axis=1) / c
        for b in np.flatnonzero(near <= reach2):
            rows, near_pts = queries[edges[b] : edges[b + 1]], pts[kept[b]]
            lse[edges[b] : edges[b + 1]] = _lse_blocks(
                lambda r0, r1: cdist(rows[r0:r1], near_pts, "sqeuclidean"),
                len(rows), len(near_pts), (h,))[0]
    with np.errstate(all="ignore"):
        lb = lse - norm
        ub = np.logaddexp(lse, np.repeat(far, np.diff(edges))) - norm
        s = 1e-6 + 1e-9 * (np.abs(lb) + np.abs(ub) + abs(norm))
        bounded = np.isfinite(lb) & np.isfinite(ub)
        inside = bounded & (lb >= lo + s) & (ub <= hi - s)
        outside |= bounded & ((ub < lo - s) | (lb > hi + s))
    exact = np.flatnonzero(~(inside | outside))
    value = _log_kde(queries[exact], pts, (h,))[0]
    inside[exact] = (value >= lo) & (value <= hi)
    return inside


def log_density(model, x):
    """Log KDE density at a single query point."""
    x = np.asarray(x, dtype=np.float64).ravel()
    return float(log_density_many(model, x.reshape(1, -1))[0])


def _neighbour_lists(points):
    """Each point's min(CV_NEIGHBOURS, n) nearest points among the (n, d)
    points, itself included: (squared distances, indices), each (n, k), from
    one cKDTree query."""
    dist, near = cKDTree(points).query(points, k=min(CV_NEIGHBOURS, len(points)))
    return dist * dist, near


def _cv_bounds(pts, folds, grid, neighbours=None):
    """(lower, upper) bounds on the CV score over the folds (index arrays) of
    each grid value (a (g, 1) array); -inf and inf where they are not computed.

    neighbours is (lists, idx): a dataset's _neighbour_lists and the indices
    of the points in it; None lists the points as their own dataset.  Listed
    points outside the cluster and those in the point's own fold are set to +inf.
    The kernel's log-sum-exp over the rest, the listed training points, bounds
    each held-out log-sum-exp below.  Every training point lies within the
    diagonal D of the cluster's bounding box, so each held-out log-density is
    also at least one kernel's at distance D, the floor -D^2/2h^2 - d*log h -
    (d/2)*log 2pi; the larger bound is kept, so a point with no listed
    training point still has a finite one.  Every unlisted training point is
    a dataset point that the list passed over, so it lies at least the last
    listed distance d_K away; adding each of them at d_K bounds the
    log-sum-exp above.  Summed, lb and ub bound each value's score (each
    point's value at least UNDERFLOW_PENALTY).  Only values whose 2h^2 is a
    normal float are bounded, and only if no point's last listed squared
    distance exceeds 1e300, so that the kernel's stay finite.
    """
    m, d = pts.shape
    lower = np.full(len(grid), -np.inf)
    upper = np.full(len(grid), np.inf)
    lists, idx = (_neighbour_lists(pts), np.arange(m)) if neighbours is None else neighbours
    sq, near = lists[0][idx], lists[1][idx]
    if not sq[:, -1].max() <= 1e300:  # also catches inf
        return lower, upper
    # fold of each dataset point; non-members and a missing neighbour (listed as n) read -1
    fold = np.full(len(lists[0]) + 1, -1)
    for f, held in enumerate(folds):
        fold[idx[held]] = f
    own = fold[idx]
    listed_fold = fold[near]
    counted = (listed_fold >= 0) & (listed_fold != own[:, None])
    train = m - np.bincount(own)[own]
    rest = train - np.count_nonzero(counted, axis=1)
    listed = np.where(counted, sq, np.inf)
    lb = _lse_blocks(lambda r0, r1: listed[r0:r1], m, sq.shape[1], grid[:, 0])
    with np.errstate(all="ignore"):
        c = 2.0 * grid * grid
        ub = np.logaddexp(lb, np.log(rest) - sq[:, -1] / c)
        norm = np.log(train) + d * np.log(grid) + 0.5 * d * LOG_2PI
        span = np.ptp(np.ascontiguousarray(pts.T), axis=1)  # 6x faster than along axis 0
        floor = -(span @ span) / c - d * np.log(grid) - 0.5 * d * LOG_2PI
        lb = np.maximum(lb - norm, floor).sum(axis=1)
        ub = np.maximum(ub - norm, UNDERFLOW_PENALTY).sum(axis=1)
    usable = np.isfinite(c[:, 0]) & (c[:, 0] >= np.finfo(np.float64).tiny)
    lower[usable] = lb[usable] / len(folds)
    upper[usable] = ub[usable] / len(folds)
    return lower, upper


def _cv_survivors(pts, folds, grid, neighbours=None):
    """Mask of the grid values whose CV score _cv_bounds cannot rule out:
    a value is ruled out when ub < best - 1 - 1e-6 * (|ub| + |best|), best the
    highest lb.

    Why the slack suffices: the clamp at EXP_CLAMP raises each lower sum by
    at most CV_NEIGHBOURS * e^-700 of its largest term (1.6e-303 nat), the
    +inf entries of non-members and own-fold points among them.  Rounding
    moves each computed value and each bound term by a few ulps of its shift
    d^2/2h^2 (the floor's D^2/2h^2 is one; every computed d^2 is below D^2
    within a few ulps), norm and count logs.  The shifts all have one sign,
    so their sum is within |ub| + |best| plus the norms, and those are below
    2e4 per point because only values whose 2h^2 is a normal float are
    bounded.  The gap is thus below 1e-6 * (|ub| + |best|) plus 1e-9 nat per
    point, within the slack below 1e9 points, so a ruled-out value scores
    strictly below the best: it is never the argmax.  The value with the best
    lb (its ub is at least its lb) always survives.
    """
    lower, upper = _cv_bounds(pts, folds, grid, neighbours)
    best = lower.max()
    return ~(upper < best - 1.0 - 1e-6 * (np.abs(upper) + abs(best)))


def _cv_scores(pts, spec, neighbours=None):
    """CV score of each value of spec.grid: the mean over folds of the summed
    held-out log-densities, or -inf for a value that _cv_survivors rules out
    (from CV_BOUND_MIN points on).  Folds are a seeded shuffle of the points;
    one kernel call per fold covers the surviving values.  Each bandwidth row
    of _log_kde depends on its own h alone, so their scores keep their bits."""
    folds = np.array_split(np.random.default_rng(spec.seed).permutation(pts.shape[0]), spec.folds)
    grid = np.asarray(spec.grid)[:, None]
    keep = np.ones(len(grid), dtype=bool)
    if pts.shape[0] >= CV_BOUND_MIN:
        keep = _cv_survivors(pts, folds, grid, neighbours)
    sums = np.full((len(grid), spec.folds), -np.inf)
    for f, held in enumerate(folds):
        ll = _log_kde(pts[held], np.delete(pts, held, axis=0), grid[keep, 0])
        sums[keep, f] = np.where(np.isfinite(ll), ll, UNDERFLOW_PENALTY).sum(axis=1)
    return sums.mean(axis=1)


def select_bandwidth(points, spec, neighbours=None):
    """Pick the bandwidth in spec.grid maximizing held-out log-likelihood (see
    _cv_scores).  Ties (and near-ties are not special-cased) resolve toward
    the larger bandwidth.  neighbours reaches _cv_bounds.  A one-value grid
    is returned as it is.

    Raises ValueError when spec has no grid (choose_bandwidth resolves the
    auto grid) or when there are fewer points than folds; callers fall back
    to fallback_bandwidth in that case.
    """
    if spec.grid is None:
        raise ValueError("spec has no grid; choose_bandwidth resolves the auto grid")
    if len(spec.grid) == 1:
        return spec.grid[0]
    pts = _as_points(points)
    m = pts.shape[0]
    if m < spec.folds:
        raise ValueError(f"need at least {spec.folds} points for {spec.folds}-fold CV, got {m}")
    scores = _cv_scores(pts, spec, neighbours)
    return spec.grid[np.flatnonzero(scores == scores.max())[-1]]


def fallback_bandwidth(points):
    """Scott-style rule h = sigma_hat * m^(-1/(d+4)) for clusters where CV is
    undefined; coincident or single points get h = 1.0."""
    pts = _as_points(points)
    m, d = pts.shape
    if m < 1:
        raise ValueError("need at least one point")
    sigma = float(np.mean(np.std(pts, axis=0)))
    if sigma == 0.0:
        return 1.0
    return sigma * m ** (-1.0 / (d + 4))


def cluster_scale(points, seed=0):
    """Median pairwise distance, computed on a seeded subsample of at most
    MEDIAN_SUBSAMPLE points.  Zero when all points coincide."""
    pts = _as_points(points)
    m = pts.shape[0]
    if m < 2:
        return 0.0
    if m > MEDIAN_SUBSAMPLE:
        rng = np.random.default_rng(seed)
        pts = pts[rng.choice(m, MEDIAN_SUBSAMPLE, replace=False)]
    return float(np.median(pdist(pts)))


def auto_search_spec(points, folds=DEFAULT_FOLDS, seed=0):
    """Default scale-relative search spec: GRID_SIZE log-spaced candidates
    spanning GRID_SPAN times the cluster's median pairwise distance.

    Returns None when the scale is degenerate (all points coincident) or so
    large that the grid overflows; choose_bandwidth then uses fallback_bandwidth.
    """
    pts = _as_points(points)
    s = cluster_scale(pts, seed=seed)
    if not 0.0 < GRID_SPAN[1] * s < math.inf:
        return None
    grid = np.geomspace(GRID_SPAN[0] * s, GRID_SPAN[1] * s, GRID_SIZE)
    return BandwidthSearchSpec(grid=tuple(grid), folds=folds, seed=seed)


def choose_bandwidth(points, spec=None, neighbours=None):
    """Bandwidth for one cluster: CV grid search when feasible, otherwise the
    fallback rule.  A spec without a grid (None: the default spec) searches
    the cluster's scale-relative grid; a one-value grid pins every cluster.
    The one place that picks the route."""
    pts = _as_points(points)
    spec = BandwidthSearchSpec() if spec is None else spec
    if spec.grid is None:
        spec = auto_search_spec(pts, folds=spec.folds, seed=spec.seed)
    if spec is None or (pts.shape[0] < spec.folds and len(spec.grid) > 1):
        return fallback_bandwidth(pts)
    return select_bandwidth(pts, spec, neighbours)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid
from scipy.spatial.distance import cdist
from scipy.special import logsumexp

from kdeval import density
from kdeval.density import (
    GRID_SIZE,
    KERNEL_BLOCK,
    UNDERFLOW_PENALTY,
    BandwidthSearchSpec,
    _cv_scores,
    auto_search_spec,
    choose_bandwidth,
    fallback_bandwidth,
    fit_kde,
    log_density,
    log_density_many,
    select_bandwidth,
)

from _oracles import kde_density_naive, kde_log_density_naive

SQRT_2PI = math.sqrt(2 * math.pi)


def test_single_kernel_at_center():
    model = fit_kde([[0.0]], h=1.0)
    assert math.exp(log_density(model, [0.0])) == pytest.approx(1 / SQRT_2PI, rel=1e-12)


def test_two_kernels_symmetric_midpoint():
    model = fit_kde([[-1.0], [1.0]], h=1.0)
    expected = math.exp(-0.5) / SQRT_2PI
    assert math.exp(log_density(model, [0.0])) == pytest.approx(expected, rel=1e-12)


def test_matches_naive_oracle_2d():
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((50, 2))
    model = fit_kde(pts, h=0.7)
    queries = rng.standard_normal((10, 2))
    for q in queries:
        direct = kde_density_naive([tuple(p) for p in pts], 0.7, tuple(q))
        assert math.exp(log_density(model, q)) == pytest.approx(direct, rel=1e-9)


def test_log_density_trivial_value():
    model = fit_kde([[0.0]], h=1.0)
    assert log_density(model, [0.0]) == pytest.approx(math.log(1 / SQRT_2PI), abs=1e-12)


def test_far_query_stays_finite():
    model = fit_kde([[0.0]], h=1.0)
    value = log_density(model, [100.0])
    assert value == pytest.approx(math.log(1 / SQRT_2PI) - 5000.0, abs=1e-9)


def test_exp_log_density_equals_density():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((30, 3))
    model = fit_kde(pts, h=0.9)
    for q in rng.standard_normal((8, 3)):
        direct = kde_density_naive([tuple(p) for p in pts], 0.9, tuple(q))
        if direct > 1e-300:
            assert math.exp(log_density(model, q)) == pytest.approx(direct, rel=1e-12)


def test_dimension_mismatch():
    model = fit_kde([[0.0, 0.0]], h=1.0)
    with pytest.raises(ValueError):
        log_density(model, [0.0, 0.0, 0.0])


def test_fit_kde_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_kde(np.empty((0, 2)), h=1.0)
    with pytest.raises(ValueError):
        fit_kde([[0.0]], h=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            fit_kde([[bad], [1.0]], 1.0)


def test_normalization_1d():
    rng = np.random.default_rng(6)
    pts = rng.standard_normal(40)
    h = 0.4
    model = fit_kde(pts, h)
    xs = np.linspace(pts.min() - 10 * h, pts.max() + 10 * h, 4001)
    density = np.exp(log_density_many(model, xs.reshape(-1, 1)))
    assert trapezoid(density, xs) == pytest.approx(1.0, abs=1e-3)


def test_translation_equivariance():
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((25, 2))
    shift = np.array([13.5, -2.25])
    q = rng.standard_normal(2)
    a = log_density(fit_kde(pts, 0.8), q)
    b = log_density(fit_kde(pts + shift, 0.8), q + shift)
    assert a == pytest.approx(b, abs=1e-12)


def test_far_field_monotone_decay():
    rng = np.random.default_rng(8)
    pts = rng.standard_normal((30, 2))
    model = fit_kde(pts, h=0.5)
    direction = np.array([1.0, 0.3])
    direction /= np.linalg.norm(direction)
    start = pts @ direction
    ts = start.max() + 0.5 + np.linspace(0, 20, 40)
    values = log_density_many(model, np.outer(ts, direction))
    assert np.all(np.diff(values) < 0)


def test_select_bandwidth_rejects_extremes():
    grid = (0.01, 0.1, 0.3, 1.0, 10.0)
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        pts = rng.standard_normal(200)
        spec = BandwidthSearchSpec(grid=grid, folds=5, seed=seed)
        h = select_bandwidth(pts, spec)
        assert h in (0.1, 0.3, 1.0)


def test_select_bandwidth_single_grid_value():
    spec = BandwidthSearchSpec(grid=(0.37,), folds=5, seed=0)
    assert select_bandwidth(np.arange(3.0), spec) == 0.37


def test_select_bandwidth_identical_points_golden():
    # Held-out log-likelihood is strictly decreasing in h when all points
    # coincide, so the smallest grid value wins; pinned as a regression value.
    pts = np.zeros((10, 2))
    spec = BandwidthSearchSpec(grid=(0.5, 1.0, 2.0), folds=5, seed=3)
    assert select_bandwidth(pts, spec) == 0.5


def test_select_bandwidth_needs_enough_points():
    spec = BandwidthSearchSpec(grid=(0.5, 1.0), folds=5, seed=0)
    with pytest.raises(ValueError):
        select_bandwidth(np.arange(3.0), spec)


def test_select_bandwidth_rejects_spec_without_grid():
    with pytest.raises(ValueError, match="choose_bandwidth resolves the auto grid"):
        select_bandwidth(np.arange(10.0), BandwidthSearchSpec())


def test_choose_bandwidth_one_value_grid_pins_small_cluster():
    spec = BandwidthSearchSpec(grid=(0.37,), folds=5, seed=0)
    assert choose_bandwidth(np.arange(3.0), spec) == 0.37
    assert choose_bandwidth([[2.0, 1.0]], spec) == 0.37
    two_values = BandwidthSearchSpec(grid=(0.37, 0.5), folds=5, seed=0)
    assert choose_bandwidth(np.arange(3.0), two_values) == fallback_bandwidth(np.arange(3.0))


def _cv_scores_by_definition(pts, spec):
    """Mean over folds of the summed held-out log-densities, one fit_kde per (h, fold)."""
    m = pts.shape[0]
    folds = np.array_split(np.random.default_rng(spec.seed).permutation(m), spec.folds)
    scores = []
    for h in spec.grid:
        fold_scores = []
        for held in folds:
            mask = np.ones(m, dtype=bool)
            mask[held] = False
            ll = log_density_many(fit_kde(pts[mask], h), pts[held])
            fold_scores.append(np.where(np.isfinite(ll), ll, UNDERFLOW_PENALTY).sum())
        scores.append(float(np.mean(fold_scores)))
    return np.array(scores)


def test_cv_scores_match_per_fold_fit_kde_loop():
    rng = np.random.default_rng(12)
    cases = []
    for folds in range(2, 11):
        d = int(rng.integers(1, 5))
        m = folds if folds % 3 == 0 else int(rng.integers(folds, 90))
        pts = rng.standard_normal((m, d)) * 10.0 ** rng.uniform(-3, 3)
        cases.append((pts, auto_search_spec(pts, folds=folds, seed=folds)))
    cases.append((rng.standard_normal((25, 1)), BandwidthSearchSpec((0.1, 0.4, 2.0), 4, 1)))
    coincident = np.vstack([np.zeros((12, 2)), rng.standard_normal((3, 2))])
    cases.append((coincident, BandwidthSearchSpec((0.05, 0.5, 1.0, 3.0), 5, 2)))
    cases.append((np.zeros((10, 2)), BandwidthSearchSpec((0.5, 1.0, 2.0), 5, 3)))
    # 5-fold blocks of held x training distances: 80 x 320 is one row block
    # whose grid splits into several chunks; 8 x 32 fits the whole grid in one
    # chunk; 140 x 560 and 200 x 800 exceed KERNEL_BLOCK, so their rows split,
    # and within one call the full row blocks take one bandwidth per chunk and
    # the short last block several
    assert 1 < KERNEL_BLOCK // (80 * 320) < GRID_SIZE
    assert KERNEL_BLOCK // (8 * 32) >= GRID_SIZE
    for held, train in ((140, 560), (200, 800)):
        rows = KERNEL_BLOCK // train
        assert held * train > KERNEL_BLOCK and KERNEL_BLOCK // (rows * train) == 1
        assert 1 < KERNEL_BLOCK // (held % rows * train) < GRID_SIZE
    for m, d in ((400, 2), (700, 1), (40, 3), (1000, 2)):
        pts = rng.standard_normal((m, d))
        cases.append((pts, auto_search_spec(pts, folds=5, seed=m)))
    for pts, spec in cases:
        _assert_cv_contract(pts, spec)


def _assert_cv_contract(pts, spec):
    """_cv_scores evaluates a subset of the grid: those entries keep the bits of
    the definition, the others (-inf) score strictly below its maximum, and
    select_bandwidth picks the definition's argmax (ties to the larger h)."""
    got = _cv_scores(pts, spec)
    full = _cv_scores_by_definition(pts, spec)
    assert np.array_equal(_cv_scores_exhaustive(pts, spec), full)
    kept = got > -np.inf
    assert kept.any()
    assert np.array_equal(got[kept], full[kept])
    assert np.all(full[~kept] < full.max())
    assert select_bandwidth(pts, spec) == spec.grid[np.flatnonzero(full == full.max())[-1]]


def _cv_scores_exhaustive(pts, spec):
    """Every grid value's CV score, with one kernel call per fold over the whole
    grid: the definition's bits (see _assert_cv_contract), fast enough for
    hundreds of clusters."""
    folds = np.array_split(np.random.default_rng(spec.seed).permutation(pts.shape[0]), spec.folds)
    sums = np.empty((len(spec.grid), spec.folds))
    for f, held in enumerate(folds):
        ll = density._log_kde(pts[held], np.delete(pts, held, axis=0), spec.grid)
        sums[:, f] = np.where(np.isfinite(ll), ll, UNDERFLOW_PENALTY).sum(axis=1)
    return sums.mean(axis=1)


def test_select_bandwidth_matches_exhaustive_argmax():
    # Seeded clusters of every shape the bound has to survive: tiny clusters
    # (m at or below CV_NEIGHBOURS lists every point), coincident halves, a
    # third of the points at the origin, coordinates rounded so that distances
    # tie, scales from 1e-3 to 1e3, and 1e-170 (2h^2 underflows to 0) and
    # 1e150 / 1e155 (squared distances near or past overflow).
    rng = np.random.default_rng(31)
    shapes = ("normal", "halves", "origin", "rounded")
    extreme = (1e-170, 1e150, 1e155)
    ruled_out = 0
    for case in range(600):
        d = int(rng.integers(1, 6))
        folds = int(rng.integers(2, 11))
        hi = density.CV_NEIGHBOURS + 1 if case % 4 == 0 else 301
        m = int(rng.integers(folds, max(folds + 1, hi)))
        pts = rng.standard_normal((m, d))
        shape = shapes[int(rng.integers(len(shapes)))]
        if shape == "halves":
            pts[m // 2 :] = pts[: m - m // 2]
        elif shape == "origin":
            pts[: m // 3] = 0.0
        elif shape == "rounded":
            pts = np.round(pts, 1)
        scale = extreme[case % 3] if case % 10 == 9 else 10.0 ** rng.uniform(-3, 3)
        pts *= scale
        with np.errstate(over="ignore", invalid="ignore"):
            spec = auto_search_spec(pts, folds=folds, seed=case)
        if spec is None or not np.all(np.isfinite(spec.grid)):
            grid = scale * np.geomspace(0.01, 10.0, GRID_SIZE)
            spec = BandwidthSearchSpec(tuple(grid), folds, case)
        with np.errstate(over="ignore"):  # 2h^2 overflows at 1e155
            scores = _cv_scores(pts, spec)
            full = _cv_scores_exhaustive(pts, spec)
            chosen = select_bandwidth(pts, spec)
            c = 2.0 * np.asarray(spec.grid) ** 2
        kept = scores > -np.inf
        assert np.array_equal(scores[kept], full[kept]), case
        assert np.all(full[~kept] < full.max()), case
        assert chosen == spec.grid[np.flatnonzero(full == full.max())[-1]], case
        assert np.all(kept[~(np.isfinite(c) & (c >= np.finfo(np.float64).tiny))]), case
        if scale == 1e-170:
            assert kept.all(), case
        ruled_out += int((~kept).sum())
    assert ruled_out > 0


def test_cv_bound_on_dataset_neighbour_lists_matches_exhaustive_argmax(monkeypatch):
    # Clusters embedded in larger datasets, bounded from one neighbour query
    # over the whole dataset: a blob next to an overlapping blob, clusters
    # interleaved with the other points (most listed neighbours lie outside
    # the cluster), and rounded coordinates with every point twinned (tied
    # distances across the cluster's edge), at scales from 1e-3 to 1e3 and at
    # 1e-170, 1e150 and 1e155.  The bound runs on every cluster, and its lower
    # and upper bounds bracket every exhaustive score within rounding.
    monkeypatch.setattr(density, "CV_BOUND_MIN", 0)
    rng = np.random.default_rng(47)
    layouts = ("blob", "interleaved", "ties")
    extreme = (1e-170, 1e150, 1e155)
    ruled_out = dict.fromkeys(layouts, 0)
    for case in range(240):
        layout = layouts[case % 3]
        d = int(rng.integers(1, 5))
        folds = int(rng.integers(2, 8))
        n = int(rng.integers(60, 400))
        X = rng.standard_normal((n, d))
        if layout == "blob":
            X[n // 2 :] += 3.0
            idx = np.arange(n // 2)
        elif layout == "interleaved":
            idx = np.flatnonzero(rng.random(n) < rng.uniform(0.3, 0.9))
        else:
            X = np.round(X, 1)
            X[n // 2 :] = X[: n - n // 2]
            idx = np.flatnonzero(rng.random(n) < 0.5)
        if len(idx) < folds:
            continue
        scale = extreme[case // 3 % 3] if case % 10 == 9 else 10.0 ** rng.uniform(-3, 3)
        X *= scale
        pts = X[idx]
        with np.errstate(over="ignore", invalid="ignore"):
            spec = auto_search_spec(pts, folds=folds, seed=case)
            lists = density._neighbour_lists(X)
        if spec is None or not np.all(np.isfinite(spec.grid)):
            grid = scale * np.geomspace(0.01, 10.0, GRID_SIZE)
            spec = BandwidthSearchSpec(tuple(grid), folds, case)
        rows = (lists, idx)
        with np.errstate(over="ignore"):  # 2h^2 overflows at 1e155
            scores = _cv_scores(pts, spec, rows)
            full = _cv_scores_exhaustive(pts, spec)
            chosen = select_bandwidth(pts, spec, rows)
            split = np.array_split(np.random.default_rng(case).permutation(len(idx)), folds)
            lower, upper = density._cv_bounds(pts, split, np.asarray(spec.grid)[:, None], rows)
        tol = 1e-6 * (np.abs(full) + 1.0) + 1e-9 * len(idx)
        assert np.all(lower <= full + tol) and np.all(full <= upper + tol), case
        kept = scores > -np.inf
        assert np.array_equal(scores[kept].view(np.uint64), full[kept].view(np.uint64)), case
        assert np.all(full[~kept] < full.max()), case
        assert chosen == spec.grid[np.flatnonzero(full == full.max())[-1]], case
        ruled_out[layout] += int((~kept).sum())
    assert min(ruled_out.values()) > 0, ruled_out


def test_cv_bound_floor_rules_out_values_when_a_member_lists_no_training_point():
    # 20 non-members within 1e-3 of member 0 fill its 16 listed neighbours, so
    # the listed points bound nothing below for it; the bounding-box floor does
    rng = np.random.default_rng(0)
    members = rng.standard_normal((300, 2))
    X = np.vstack([members, members[0] + rng.uniform(-5e-4, 5e-4, (20, 2))])
    idx = np.arange(300)
    lists = density._neighbour_lists(X)
    rows = (lists, idx)
    assert not np.isin(lists[1][0, 1:], idx).any()
    spec = auto_search_spec(members)
    folds = np.array_split(np.random.default_rng(spec.seed).permutation(300), spec.folds)
    keep = density._cv_survivors(members, folds, np.asarray(spec.grid)[:, None], rows)
    assert keep.sum() == 9
    scores = _cv_scores(members, spec, rows)
    full = _cv_scores_exhaustive(members, spec)
    assert np.array_equal(scores[keep], full[keep])
    assert np.all(full[~keep] < full.max())
    chosen = select_bandwidth(members, spec, rows)
    assert chosen == spec.grid[np.flatnonzero(full == full.max())[-1]]


def test_cv_bounds_on_whole_dataset_lists_match_own_lists():
    # a cluster that is its whole dataset, handed the dataset's lists and every
    # index, gets the bounds of a cluster listed on its own, bit for bit
    rng = np.random.default_rng(5)
    for case in range(12):
        n, d = int(rng.integers(20, 300)), int(rng.integers(1, 5))
        X = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3)
        for folds in (2, 3, 5, 7):
            split = np.array_split(rng.permutation(n), folds)
            grid = np.asarray(auto_search_spec(X).grid)[:, None]
            own = density._cv_bounds(X, split, grid)
            listed = density._cv_bounds(X, split, grid, (density._neighbour_lists(X), np.arange(n)))
            assert np.isfinite(own[0]).any(), (case, folds)
            for a, b in zip(own, listed):
                assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), (case, folds)


def test_cv_evaluates_fewer_than_half_the_grid(monkeypatch):
    calls = []
    log_kde = density._log_kde

    def recording(queries, points, hs):
        calls.append(len(hs))
        return log_kde(queries, points, hs)

    monkeypatch.setattr(density, "_log_kde", recording)
    pts = np.random.default_rng(15).standard_normal((400, 4))
    spec = auto_search_spec(pts)
    assert len(spec.grid) == 20
    # 2 folds: the likeliest case of a point whose listed neighbours all share its fold
    for folds in (spec.folds, 2):
        calls.clear()
        density.select_bandwidth(pts, BandwidthSearchSpec(spec.grid, folds, spec.seed))
        assert len(calls) == folds and max(calls) < len(spec.grid) / 2


def test_cv_scores_penalize_underflowing_bandwidths():
    # Near 1e-170, 2h^2 underflows to 0, so every held-out kernel value is
    # non-finite and takes UNDERFLOW_PENALTY; no grid value is ruled out.
    pts = 1e-170 * np.random.default_rng(16).standard_normal((40, 2))
    spec = BandwidthSearchSpec(tuple(1e-170 * np.geomspace(0.01, 10.0, GRID_SIZE)), 5, 4)
    assert np.all(2.0 * np.asarray(spec.grid) ** 2 == 0.0)
    scores = _cv_scores(pts, spec)
    assert np.array_equal(scores, _cv_scores_by_definition(pts, spec))
    assert np.all(scores == UNDERFLOW_PENALTY * 40 / 5)


def test_select_bandwidth_one_distance_block_per_fold(monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(density, name, wrapper)

    for name in ("cdist", "fit_kde", "log_density_many"):
        counting(name, getattr(density, name))
    pts = np.random.default_rng(13).standard_normal((60, 2))
    spec = auto_search_spec(pts)
    density.select_bandwidth(pts, spec)
    assert len(spec.grid) == 20
    assert calls == ["cdist"] * spec.folds


def test_select_bandwidth_deterministic():
    rng = np.random.default_rng(9)
    pts = rng.standard_normal(60)
    spec = BandwidthSearchSpec(grid=(0.05, 0.2, 0.5, 1.5), folds=4, seed=21)
    assert select_bandwidth(pts, spec) == select_bandwidth(pts, spec)


def test_fallback_single_point():
    assert fallback_bandwidth([[3.0, 4.0]]) == 1.0


def test_fallback_coincident_points():
    assert fallback_bandwidth([[2.0], [2.0]]) == 1.0


def test_fallback_scott_rule():
    rng = np.random.default_rng(10)
    pts = rng.standard_normal((100, 2))
    sigma = float(np.mean(np.std(pts, axis=0)))
    expected = sigma * 100 ** (-1.0 / 6.0)
    assert fallback_bandwidth(pts) == pytest.approx(expected, rel=1e-12)
    assert fallback_bandwidth(pts) == pytest.approx(0.464, abs=0.08)


def test_spec_validation():
    with pytest.raises(ValueError):
        BandwidthSearchSpec(grid=(), folds=5)
    with pytest.raises(ValueError):
        BandwidthSearchSpec(grid=(1.0, 0.5), folds=5)
    with pytest.raises(ValueError):
        BandwidthSearchSpec(grid=(0.5, 1.0), folds=1)
    for folds, seed in ((3.0, 0), (True, 0), (None, 0), (5, 1.5), (5, -1), (5, True)):
        with pytest.raises(ValueError, match="an integer"):
            BandwidthSearchSpec(folds=folds, seed=seed)
    spec = BandwidthSearchSpec(folds=np.int64(3), seed=np.uint32(7))
    assert (spec.folds, spec.seed) == (3, 7)
    for grid in ((math.nan, 1.0), (0.5, math.nan), (math.nan,), (1.0, math.inf), (math.inf,)):
        with pytest.raises(ValueError, match="finite"):
            BandwidthSearchSpec(grid=grid, folds=5)


def test_auto_spec_degenerate_scale():
    assert auto_search_spec(np.zeros((10, 2))) is None
    assert choose_bandwidth(np.zeros((10, 2))) == 1.0
    # distances overflow near 1e155: no grid, and the fallback's inf is refused loudly
    pts = 1e155 * np.random.default_rng(3).standard_normal((30, 2))
    assert auto_search_spec(pts) is None
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite, got inf"):
        fit_kde(pts, choose_bandwidth(pts))


def test_log_density_many_row_blocks_are_bit_exact():
    rng = np.random.default_rng(8)
    model = fit_kde(rng.standard_normal((45, 3)), 0.6)
    n = 2 * (KERNEL_BLOCK // 45) + 3  # two full row blocks and a short one
    queries = 2.0 * rng.standard_normal((n, 3))
    whole = log_density_many(model, queries)
    rows = np.concatenate([log_density_many(model, q[None, :]) for q in queries])
    assert whole.shape == (n,)
    assert np.array_equal(whole, rows)


def test_kernel_temporaries_stay_within_kernel_block(monkeypatch):
    sizes = []
    lse = density._logsumexp

    def recording(a, overwrite_a=False):
        sizes.append(np.size(a))
        return lse(a, overwrite_a=overwrite_a)

    monkeypatch.setattr(density, "_logsumexp", recording)
    rng = np.random.default_rng(14)
    model = fit_kde(rng.standard_normal((450, 2)), 0.3)
    assert log_density_many(model, rng.standard_normal((20000, 2))).shape == (20000,)
    assert len(sizes) > 1 and max(sizes) <= KERNEL_BLOCK
    sizes.clear()
    pts = rng.standard_normal((700, 2))
    spec = auto_search_spec(pts)
    _cv_scores(pts, spec)  # the bound pass and the exact pass
    assert len(sizes) > 1 and max(sizes) <= KERNEL_BLOCK
    sizes.clear()
    density._cv_survivors(pts, np.array_split(np.arange(700), 5), np.asarray(spec.grid)[:, None])
    assert len(sizes) > 1 and max(sizes) <= KERNEL_BLOCK
    sizes.clear()
    grid = np.geomspace(0.01, 10.0, KERNEL_BLOCK // density.CV_NEIGHBOURS + 5)
    density._cv_survivors(pts[:20], np.array_split(np.arange(20), 5), grid[:, None])
    assert len(sizes) > 20 and max(sizes) <= KERNEL_BLOCK  # one row's grid splits
    blocks = []

    def recording_cdist(*args, **kwargs):
        out = cdist(*args, **kwargs)
        blocks.append(out.size)
        return out

    monkeypatch.setattr(density, "cdist", recording_cdist)
    queries = density._sample_blocks(rng.standard_normal((20000, 2)))
    # every row decided inside from its bounds, every point in every block's sum
    assert density._territory_sides(model, queries, -1e3, np.inf).all()
    assert sum(blocks) == 20000 * 450
    assert len(blocks) > 1 and max(blocks) <= KERNEL_BLOCK
    blocks.clear()
    model = fit_kde(rng.standard_normal((450, 8)), 1.0)
    for rows in (250, 20000):  # 250: one block holds every sample
        queries = density._sample_blocks(rng.standard_normal((rows, 8)))
        assert (len(queries.edges) == 2) == (rows == 250)
        exact = log_density_many(model, queries.points)
        lo, hi = np.quantile(exact, (0.3, 0.7))
        blocks.clear()
        sides = density._territory_sides(model, queries, lo, hi)
        np.testing.assert_array_equal(sides, (exact >= lo) & (exact <= hi))
        assert sum(blocks) > KERNEL_BLOCK >= max(blocks)


@pytest.mark.parametrize("scale", [1e-170, 1e-3, 1.0, 1e3, 1e150])
def test_territory_sides_match_exact_kernel_with_ends_on_sample_values(scale, monkeypatch):
    recomputed = []
    log_kde = density._log_kde

    def recording(queries, points, hs):
        recomputed.extend(row.tobytes() for row in queries)
        return log_kde(queries, points, hs)

    monkeypatch.setattr(density, "_log_kde", recording)
    rng = np.random.default_rng(31)
    cases = []
    for d in (1, 2, 4):
        pts = scale * rng.standard_normal((int(rng.integers(1, 300)), d))
        pts[len(pts) // 2 :] = pts[: len(pts) - len(pts) // 2]  # coincident training points
        queries = 4.0 * scale * rng.uniform(-1.0, 1.0, (3000, d))
        queries[: len(pts)] = pts  # queries on training points
        for h in (0.05, 0.3, 2.0):
            cases.append((fit_kde(pts, scale * h), density._sample_blocks(queries)))
    for model, blocks in cases:
        exact = log_density_many(model, blocks.points)
        ranked = np.sort(exact[~np.isnan(exact)])
        if not ranked.size:  # near 1e-170 sq and 2h^2 underflow to 0: every value is nan
            ranked = np.array([-np.inf])
        n = len(ranked)
        for lo, hi in ((ranked[n // 10], ranked[9 * n // 10]), (ranked[n // 2], ranked[n // 2]),
                       (ranked[0], ranked[-1])):  # ends exactly on sample values
            recomputed.clear()
            sides = density._territory_sides(model, blocks, lo, hi)
            np.testing.assert_array_equal(sides, (exact >= lo) & (exact <= hi))
            # a row whose value is an end is never decided from its bounds
            on_end = blocks.points[(exact == lo) | (exact == hi)]
            assert recomputed and {row.tobytes() for row in on_end} <= set(recomputed)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6), m=st.integers(1, 600),
       rows=st.integers(1, 1500), coincident=st.floats(0.0, 0.9),
       h=st.sampled_from((0.02, 0.1, 0.5, 2.0, 10.0)), ends=st.tuples(st.floats(0, 1), st.floats(0, 1)))
def test_territory_sides_equal_the_full_kernel(seed, d, m, rows, coincident, h, ends):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((m, d))
    dup = int(coincident * m)
    pts[m - dup :] = pts[rng.integers(0, m - dup, dup)]  # coincident training points
    queries = rng.uniform(-4.0, 4.0, (rows, d))
    queries[: min(rows, m)] = pts[: min(rows, m)]  # queries on training points
    model = fit_kde(pts, h)
    blocks = density._sample_blocks(queries)
    exact = log_density_many(model, blocks.points)
    ranked = np.sort(exact)
    lo, hi = sorted(ranked[int(end * (rows - 1))] for end in ends)  # ends on sample values
    sides = density._territory_sides(model, blocks, lo, hi)
    np.testing.assert_array_equal(sides, (exact >= lo) & (exact <= hi))


def _assert_within_rounding_of_scipy(got, expected):
    """|got - expected| <= 8 eps (1 + |expected|), non-finite entries equal."""
    finite = np.isfinite(expected)
    assert np.array_equal(got[~finite], expected[~finite], equal_nan=True)
    tol = 8 * np.finfo(np.float64).eps * (1.0 + np.abs(expected[finite]))
    assert np.all(np.abs(got[finite] - expected[finite]) <= tol)


def test_kernel_logsumexp_matches_scipy_within_rounding():
    assert not hasattr(density, "logsumexp") and not hasattr(density, "_logsumexp_last")
    rng = np.random.default_rng(19)
    cases = [(1, 1, 1, 1.0, None), (1, 7, 1, 1.0, None), (3, 1, 40, 1.0, None)]
    for d in range(1, 6):
        for scale in (1e-4, 1e-2, 1.0, 1e2, 1e4):
            cases.append((d, int(rng.integers(1, 300)), int(rng.integers(1, 60)), scale, None))
    for _ in range(100):
        d, m, rows = (int(v) for v in rng.integers(1, (6, 300, 60)))
        cases.append((d, m, rows, 10.0 ** rng.uniform(-4, 4), None))
    cases += [(2, 50, 30, 1.0, 1e-170), (3, 80, 20, 1e2, 1e-300), (1, 1, 5, 1e-4, 1e-300)]
    for d, m, rows, scale, tiny in cases:
        pts = scale * rng.standard_normal((m, d))
        queries = 1.5 * scale * rng.standard_normal((rows, d))
        if rng.random() < 0.5:
            pts[m // 2 :] = pts[: m - m // 2]  # coincident training points tie in the max
            queries[: min(rows, m) : 2] = pts[: min(rows, m) : 2]  # queries on training points
        sq = cdist(queries, pts, "sqeuclidean")
        hs = scale * np.geomspace(0.01, 10.0, int(rng.integers(1, 21)))
        if tiny is not None:
            hs[0] = tiny  # 2h^2 underflows: scipy's non-finite fallback rows
        c = 2.0 * hs[:, None] ** 2
        with np.errstate(all="ignore"):
            expected = logsumexp(-sq / c[:, :, None], axis=2)
            got = density._logsumexp(np.divide(sq, -c[:, :, None]), overwrite_a=True)
        assert got.shape == (len(hs), rows)
        _assert_within_rounding_of_scipy(got, expected)


def test_logsumexp_matches_scipy_on_em_shaped_arrays():
    from kdeval import partitions

    assert not hasattr(partitions, "_logsumexp_rows")
    rng = np.random.default_rng(23)
    for n, k in [(1, 1), (50, 1), (7, 2), (400, 4), (300, 30), (900, 12)]:
        for _ in range(5):
            a = rng.normal(-20.0, 15.0, (n, k))
            if k > 1:
                a[::3, 1] = a[::3, 0]  # tied maxima on some rows
                a[::5] = a[::5, :1]  # rows where every entry ties
            a[rng.random((n, k)) < 0.2] = np.log(1e-12)  # floored EM weights
            a[rng.random((n, k)) < 0.1] = -np.inf
            a[-1] = -np.inf  # a row with no finite entry
            before = a.copy()
            got = density._logsumexp(a)
            assert np.array_equal(a, before)
            assert got.shape == (n,)
            _assert_within_rounding_of_scipy(got, logsumexp(a, axis=1))


def test_oracle_equivalence_batch():
    rng = np.random.default_rng(11)
    for _ in range(10):
        m = int(rng.integers(2, 200))
        d = int(rng.integers(1, 4))
        pts = rng.uniform(-3, 3, size=(m, d))
        h = float(rng.uniform(0.2, 2.0))
        model = fit_kde(pts, h)
        q = rng.uniform(-4, 4, size=d)
        expected = kde_log_density_naive([tuple(p) for p in pts], h, tuple(q))
        assert log_density(model, q) == pytest.approx(expected, abs=1e-9)


def _logsumexp_row_max(a):
    """_logsumexp with every row max taken by a.max(axis=-1)."""
    with np.errstate(all="ignore"):
        a_max = a.max(axis=-1, keepdims=True)
        e = np.subtract(a, np.where(np.isfinite(a_max), a_max, 0.0))
        np.exp(np.maximum(e, density.EXP_CLAMP, out=e), out=e)
        return np.log(e.sum(axis=-1)) + a_max[..., 0]


def test_narrow_logsumexp_rows_keep_the_row_max_bits():
    assert 1 < density.NARROW_WIDTH < 40
    rng = np.random.default_rng(41)
    specials = (np.nan, np.inf, -np.inf, 0.0, -0.0)
    for width in range(1, 41):
        for lead in ((37,), (3, 29)):
            a = rng.normal(-20.0, 15.0, lead + (width,))
            rows = a.reshape(-1, width)
            rows[::4, rng.integers(width)] = rows[::4, 0]  # ties
            for r in range(0, len(rows), 3):  # nan, +-inf and signed zeros
                cols = rng.random(width) < 0.4
                rows[r, cols] = rng.choice(specials, cols.sum())
            rows[1] = -np.inf  # no finite entry
            rows[2, -1] = np.nan
            rows[5] = np.inf
            before = a.copy()
            expected = _logsumexp_row_max(a)
            got = density._logsumexp(a)
            assert np.array_equal(a, before, equal_nan=True)
            assert got.shape == lead
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), width
            in_place = density._logsumexp(a, overwrite_a=True)
            assert np.array_equal(in_place.view(np.uint64), expected.view(np.uint64)), width


def test_cv_bound_runs_only_from_cv_bound_min_points(monkeypatch):
    calls = []
    survivors = density._cv_survivors

    def spy(pts, folds, grid, neighbours=None):
        calls.append(len(pts))
        return survivors(pts, folds, grid, neighbours)

    monkeypatch.setattr(density, "_cv_survivors", spy)
    gate = density.CV_BOUND_MIN
    rng = np.random.default_rng(43)
    ruled_out = 0
    for d in (1, 2, 4):
        for m in (gate - 1, gate):
            pts = rng.standard_normal((m, d))
            spec = auto_search_spec(pts, seed=m)
            chosen, called = {}, {}
            for forced in (0, 10**9, gate):  # always, never, and the module's gate
                monkeypatch.setattr(density, "CV_BOUND_MIN", forced)
                calls.clear()
                chosen[forced] = select_bandwidth(pts, spec)
                called[forced] = calls[:]
                if forced == 0:
                    ruled_out += int(np.isneginf(_cv_scores(pts, spec)).sum())
            assert chosen[0] == chosen[10**9] == chosen[gate], (d, m)
            assert called[0] == [m] and called[10**9] == []
            assert called[gate] == ([m] if m >= gate else [])
    assert ruled_out > 0  # the bound, when it runs, rules values out

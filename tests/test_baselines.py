import itertools

import numpy as np
import pytest

from kdeval import baselines
from kdeval.baselines import (
    UndefinedScoreError,
    adjusted_rand_index,
    calinski_harabasz,
    davies_bouldin,
    silhouette,
)
from kdeval.data_io import Dataset
from kdeval.partitions import canonicalize

from _fixtures import random_dataset
from _oracles import ari_pair_counting, ch_direct, db_direct, set_partitions, silhouette_direct

PAIR_DATA = Dataset([[0.0], [1.0], [10.0], [11.0]], id="pairs")
PAIR_PART = canonicalize([0, 0, 1, 1])


def test_ch_hand_value():
    # clusters {0,1} and {10,11}: tr(W)=1, tr(B)=100, (n-k)/(k-1)=2 -> 200
    assert calinski_harabasz(PAIR_DATA, PAIR_PART).value == pytest.approx(200.0, abs=1e-9)


def test_ch_zero_within_dispersion_error():
    data = Dataset([[0.0], [0.0], [5.0], [5.0]], id="dups")
    with pytest.raises(UndefinedScoreError):
        calinski_harabasz(data, canonicalize([0, 0, 1, 1]))


def test_ch_matches_direct_formula():
    rng = np.random.default_rng(1)
    for _ in range(50):
        ds, labels = random_dataset(rng)
        part = canonicalize(labels)
        if part.K < 2 or part.K > ds.n - 1:
            continue
        try:
            value = calinski_harabasz(ds, part).value
        except UndefinedScoreError:
            continue
        expected = ch_direct([tuple(p) for p in ds.points], list(part.labels))
        assert value == pytest.approx(expected, rel=1e-9)


def test_silhouette_hand_value():
    # per-sample values 19/21, 17/19, 17/19, 19/21 -> mean 359/399
    score = silhouette(PAIR_DATA, PAIR_PART)
    assert score.value == pytest.approx(359.0 / 399.0, abs=1e-9)
    assert score.value == pytest.approx((9.5 / 10.5 + 8.5 / 9.5) / 2.0, abs=1e-12)


def test_silhouette_reference_on_tight_blobs():
    rng = np.random.default_rng(2)
    pts = np.concatenate([rng.normal(0, 0.1, (30, 2)), rng.normal(8, 0.1, (30, 2))])
    ds = Dataset(pts, id="tight")
    part = canonicalize([0] * 30 + [1] * 30)
    assert silhouette(ds, part).value > 0.9


def test_silhouette_split_blob_is_worse():
    rng = np.random.default_rng(3)
    pts = np.concatenate([rng.normal(0, 0.5, (40, 2)), rng.normal(10, 0.5, (40, 2))])
    ds = Dataset(pts, id="split")
    good = silhouette(ds, canonicalize([0] * 40 + [1] * 40)).value
    arbitrary = [0] * 20 + [1] * 20 + [2] * 40  # one blob cut in half arbitrarily
    assert silhouette(ds, canonicalize(arbitrary)).value < good


def test_silhouette_singleton_contributes_zero():
    data = Dataset([[0.0], [0.1], [9.0]], id="s")
    part = canonicalize([0, 0, 1])
    direct = silhouette_direct([(0.0,), (0.1,), (9.0,)], [0, 0, 1])
    assert silhouette(data, part).value == pytest.approx(direct, abs=1e-12)


def test_silhouette_matches_direct_formula():
    rng = np.random.default_rng(4)
    cases = [random_dataset(rng) for _ in range(50)]
    # a singleton cluster; a cluster of coincident points (a = 0); two
    # coincident clusters at the same spot (a = b = 0)
    cases.append((Dataset([[0.0, 0.0], [0.5, 0.2], [3.0, 1.0], [3.2, 1.1], [9.0, 9.0]]),
                  [0, 0, 1, 1, 2]))
    cases.append((Dataset([[1.0, 1.0]] * 3 + [[4.0, 5.0], [4.5, 5.0]]), [0, 0, 0, 1, 1]))
    cases.append((Dataset([[1.0, 1.0]] * 5 + [[4.0, 5.0], [4.5, 5.0]]), [0, 0, 0, 1, 1, 2, 2]))
    for ds, labels in cases:
        part = canonicalize(labels)
        if part.K < 2 or part.K > ds.n - 1:
            continue
        value = silhouette(ds, part).value
        expected = silhouette_direct([tuple(p) for p in ds.points], list(part.labels))
        assert value == pytest.approx(expected, abs=1e-9)
        assert -1.0 <= value <= 1.0


def test_silhouette_reads_one_cluster_block_at_a_time(monkeypatch):
    block_rows = []
    cdist = baselines.cdist

    def recording(xa, xb, *args, **kwargs):
        block_rows.append(np.shape(xa)[0])
        return cdist(xa, xb, *args, **kwargs)

    monkeypatch.setattr(baselines, "cdist", recording)
    rng = np.random.default_rng(8)
    ds = Dataset(rng.standard_normal((120, 3)), id="blocks")
    for k in (2, 5, 17):
        block_rows.clear()
        part = canonicalize(rng.integers(0, k, ds.n))
        silhouette(ds, part)
        assert sorted(block_rows) == sorted(np.bincount(part.labels).tolist())
        assert ds.n not in block_rows


def test_silhouette_sums_one_block_per_distinct_cluster(monkeypatch):
    block_rows = []
    cdist = baselines.cdist

    def recording(xa, xb, *args, **kwargs):
        block_rows.append(np.shape(xa)[0])
        return cdist(xa, xb, *args, **kwargs)

    rng = np.random.default_rng(9)
    ds = Dataset(rng.standard_normal((90, 2)), id="store")
    base = rng.integers(0, 4, ds.n)
    # partitions that share clusters: merges of the base grouping, and the base again
    merged = (base, np.minimum(base, 2), np.minimum(base, 1), np.where(base == 3, 0, base), base)
    parts = [canonicalize(labels) for labels in merged]
    alone = [silhouette(ds, part).value for part in parts]
    monkeypatch.setattr(baselines, "cdist", recording)
    sums = {}
    stored = [silhouette(ds, part, sums=sums).value for part in parts]
    assert stored == alone
    distinct = {np.flatnonzero(p.labels == q).tobytes() for p in parts for q in range(p.K)}
    assert len(block_rows) == len(sums) == len(distinct) < sum(p.K for p in parts)


def test_db_hand_value():
    assert davies_bouldin(PAIR_DATA, PAIR_PART).value == pytest.approx(0.1, abs=1e-12)


def test_db_singletons_are_best():
    data = Dataset([[0.0], [5.0], [9.0]], id="s")
    assert davies_bouldin(data, canonicalize([0, 1, 2])).value == 0.0


def test_db_coincident_centroids_error():
    data = Dataset([[0.0, 0.0], [2.0, 2.0], [1.0, 1.0], [1.0, 1.0]], id="c")
    with pytest.raises(UndefinedScoreError):
        davies_bouldin(data, canonicalize([0, 0, 1, 1]))


def test_db_matches_direct_formula():
    rng = np.random.default_rng(5)
    for _ in range(50):
        ds, labels = random_dataset(rng)
        part = canonicalize(labels)
        if part.K < 2:
            continue
        try:
            value = davies_bouldin(ds, part).value
        except UndefinedScoreError:
            continue
        expected = db_direct([tuple(p) for p in ds.points], list(part.labels))
        assert value == pytest.approx(expected, rel=1e-9)


def test_translation_and_scale_invariance():
    rng = np.random.default_rng(6)
    ds, labels = random_dataset(rng, n=30, d=2, k=3)
    part = canonicalize(labels)
    moved = Dataset(ds.points * 3.7 + np.array([100.0, -40.0]), id="m")
    for fn in (calinski_harabasz, silhouette, davies_bouldin):
        assert fn(ds, part).value == pytest.approx(fn(moved, part).value, rel=1e-9)


def test_ari_identical():
    p = canonicalize([0, 1, 1, 2, 0])
    assert adjusted_rand_index(p, p) == 1.0


def test_ari_crossed_pairs_matches_oracle():
    a = [0, 0, 1, 1]
    b = [0, 1, 0, 1]
    expected = ari_pair_counting(a, b)
    assert adjusted_rand_index(canonicalize(a), canonicalize(b)) == pytest.approx(
        expected, abs=1e-12
    )


def test_ari_length_mismatch():
    with pytest.raises(ValueError):
        adjusted_rand_index(canonicalize([0, 1]), canonicalize([0, 1, 2]))


def test_ari_exhaustive_small_n():
    for n in (2, 3, 4):
        parts = list(set_partitions(n))
        for a, b in itertools.product(parts, repeat=2):
            got = adjusted_rand_index(canonicalize(a), canonicalize(b))
            assert got == pytest.approx(ari_pair_counting(a, b), abs=1e-12)


def test_ari_relabel_invariance_and_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        a = rng.integers(0, 4, n)
        b = rng.integers(0, 4, n)
        perm = rng.permutation(5)
        relabeled = perm[a]
        base = adjusted_rand_index(canonicalize(a), canonicalize(b))
        assert adjusted_rand_index(canonicalize(relabeled), canonicalize(b)) == pytest.approx(
            base, abs=1e-12
        )
        assert adjusted_rand_index(canonicalize(b), canonicalize(a)) == pytest.approx(
            base, abs=1e-12
        )
    # raw labels: negative ids are groups, not wrapped indices; floats are not truncated
    assert adjusted_rand_index([0, 0, 1, 1], [-1, -1, 0, 0]) == 1.0
    assert adjusted_rand_index([0, 0, 1, 1, 2, 2], [-1, -1, 0, 0, 1, 1]) == 1.0
    assert adjusted_rand_index([5, 5, -3, -3], [0, 0, 1, 1]) == 1.0
    assert adjusted_rand_index([0.2, 0.2, 0.7, 0.7], [1, 1, 0, 0]) == 1.0
    a = [0, 0, 1, 1, 2, 2, 2, 0]
    b = [1, 0, 1, 2, 2, 0, 0, 1]
    base = adjusted_rand_index(a, b)
    assert adjusted_rand_index([-7 + 2.5 * v for v in a], [-v for v in b]) == pytest.approx(
        base, abs=1e-12
    )


def _record_cdist(monkeypatch):
    """Record the (rows, columns) shape of every cdist call in baselines."""
    shapes = []
    cdist = baselines.cdist

    def recording(xa, xb, *args, **kwargs):
        shapes.append((np.shape(xa)[0], np.shape(xb)[0]))
        return cdist(xa, xb, *args, **kwargs)

    monkeypatch.setattr(baselines, "cdist", recording)
    return shapes


def test_silhouette_blocks_stay_within_the_kernel_block(monkeypatch):
    rng = np.random.default_rng(11)
    pts = np.concatenate([rng.normal(0, 1, (640, 3)), rng.normal(6, 1, (160, 3))])
    ds = Dataset(pts, id="big-cluster")
    part = canonicalize([0] * 640 + [1] * 160)
    shapes = _record_cdist(monkeypatch)
    sums = {}
    silhouette(ds, part, sums=sums)
    for idx in part.members:
        m = len(idx)
        widths = [w for rows, w in shapes if rows == m]
        assert sum(widths) == ds.n
        assert all(2 <= w <= max(2, baselines.KERNEL_BLOCK // m) + 1 for w in widths)
        # the blocked sums keep the bits of the whole (m, n) block's axis-0 sum
        whole = baselines.cdist(pts[idx], pts).sum(axis=0)
        assert np.array_equal(sums[idx.tobytes()], whole)
    assert len([w for rows, w in shapes if rows == 640]) > 1  # the large cluster is split


@pytest.mark.parametrize(
    "block, n, widths",
    [
        (20, 9, [4, 5]),  # a 1-column tail joins the block before it
        (20, 11, [4, 4, 3]),
        (4, 9, [2, 2, 2, 3]),  # never fewer than 2 columns
    ],
)
def test_silhouette_blocks_never_leave_one_column(monkeypatch, block, n, widths):
    monkeypatch.setattr(baselines, "KERNEL_BLOCK", block)
    rng = np.random.default_rng(n)
    pts = rng.normal(0, 1e3, (n, 2))
    labels = [0] * 5 + [1] * (n - 5)
    part = canonicalize(labels)
    shapes = _record_cdist(monkeypatch)
    sums = {}
    silhouette(Dataset(pts, id="tail"), part, sums=sums)
    assert [w for rows, w in shapes if rows == 5] == widths
    idx = part.members[0]
    assert np.array_equal(sums[idx.tobytes()], baselines.cdist(pts[idx], pts).sum(axis=0))

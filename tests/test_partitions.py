import numpy as np
import pytest

from kdeval.baselines import adjusted_rand_index
from kdeval.data_io import Dataset, make_blobs
from kdeval.partitions import (
    EM_MAX_ITER,
    GENERATORS,
    Partition,
    _log_gaussians,
    agglomerative,
    build_candidates,
    canonicalize,
    gmm_em,
    kmeans,
    load_partitions,
    save_partitions,
)

from _fixtures import anisotropic_pair, four_blobs, two_chains
from _oracles import average_linkage_labels, kmeans_sequential


def _reference(ds):
    return canonicalize(ds.reference_labels, source="reference")


def test_kmeans_recovers_far_blobs():
    ds = make_blobs(4, 30, [(0, 0), (20, 0), (0, 20), (20, 20)], sigma=0.5, seed=1)
    part = kmeans(ds, 4, seed=3)
    assert adjusted_rand_index(part, _reference(ds)) == 1.0


def test_kmeans_k_equals_n():
    ds = make_blobs(1, 6, [(0, 0)], sigma=2.0, seed=2)
    part = kmeans(ds, 6, seed=3)
    assert part.K == 6
    # singletons: zero within-cluster scatter
    centers = np.array([ds.points[part.labels == j].mean(axis=0) for j in range(6)])
    wcss = sum(((ds.points[i] - centers[part.labels[i]]) ** 2).sum() for i in range(6))
    assert wcss == 0.0


def test_kmeans_duplicate_points_golden():
    # one distinct point duplicated; repair cannot fill a second cluster
    ds = Dataset(np.ones((5, 2)), id="dups")
    part = kmeans(ds, 2, seed=0)
    assert part.K == 1
    np.testing.assert_array_equal(part.labels, np.zeros(5, dtype=np.int64))


def _kmeans_cases():
    """(points, k) covering d=1, 2 and 4, k=1, k=n, and duplicate points."""
    rng = np.random.default_rng(21)
    cases = []
    for d in (1, 2, 4):
        for n, k in ((1, 1), (7, 7), (40, 1), (40, 40), (60, 3), (150, 9), (300, 6)):
            cases.append((rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-2, 2), k))
        for n, k in ((30, 8), (45, 12), (60, 20)):  # few distinct points: empty clusters
            cases.append((np.round(rng.standard_normal((n, d)), 0), k))
    # the corners of a square: two groupings tie in WCSS, the first restart's wins
    cases.append((np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), 2))
    return cases


def _far_init(X, k, rng):
    """Random data points as centres, the last one far from every point, so
    that its cluster starts empty and is reseeded."""
    centers = X[rng.integers(X.shape[0], size=k)]
    centers[-1] = X.max(axis=0) + 100.0
    return centers


@pytest.mark.parametrize("init,block", [("kpp", None), ("far", None), ("kpp", 1000)],
                         ids=["kpp", "far", "kpp-small-stacks"])
def test_kmeans_matches_sequential_restarts(monkeypatch, init, block):
    import kdeval.partitions as pmod

    if init == "far":
        monkeypatch.setattr(pmod, "_kpp_init", _far_init)
    if block is not None:  # restarts split into stacks of 1 to 5, some with a remainder
        monkeypatch.setattr(pmod, "KERNEL_BLOCK", block)
    widest = []  # cdist rows times centres, against the bound
    cdist = pmod.cdist

    def cdist_spy(XA, XB, *args):
        widest.append(len(XA) * len(XB) / max(pmod.KERNEL_BLOCK, len(XA) * k))
        return cdist(XA, XB, *args)

    monkeypatch.setattr(pmod, "cdist", cdist_spy)
    reseeds = []  # _lloyd sorts distances only to reseed an empty cluster
    argsort = np.argsort

    def spy(*args, **kwargs):
        reseeds.append(1)
        return argsort(*args, **kwargs)

    oracle_reseeds = tied = 0
    for case, (X, k) in enumerate(_kmeans_cases()):
        labels, wcss, runs, hits = kmeans_sequential(
            X, k, case, restarts=pmod.KMEANS_RESTARTS, max_iter=pmod.KMEANS_MAX_ITER,
            init=pmod._kpp_init)
        oracle_reseeds += hits
        reseeds.clear()
        widest.clear()
        monkeypatch.setattr(pmod.np, "argsort", spy)
        part = kmeans(Dataset(X, id="x"), k, case)
        monkeypatch.setattr(pmod.np, "argsort", argsort)
        assert bool(reseeds) == (hits > 0), case
        expected = canonicalize(labels, source=f"kmeans-k{k}")
        assert part.same_grouping(expected) and part.source == expected.source, case
        assert max(widest) <= 1.0, case
        rng = np.random.default_rng(case)
        inits = np.stack([pmod._kpp_init(X, k, rng) for _ in range(pmod.KMEANS_RESTARTS)])
        stacked, values = pmod._lloyd(X, inits)
        assert min(values) == wcss, case
        for r, (run_labels, run_wcss) in enumerate(runs):  # every restart, not just the best
            assert np.array_equal(stacked[r], run_labels) and values[r] == run_wcss, (case, r)
        tied += len({tuple(canonicalize(lab).labels) for lab, v in runs if v == wcss}) > 1
    assert oracle_reseeds > 0 and tied > 0


def test_kmeans_rejects_bad_k():
    ds = make_blobs(1, 4, [(0, 0)], sigma=1.0, seed=0)
    with pytest.raises(ValueError):
        kmeans(ds, 5, seed=0)


def test_kmeans_overflowing_wcss_is_a_generator_failure():
    ds = Dataset(np.array([[1e300], [-1e300], [0.9e300], [-0.8e300], [1e300]]), id="huge")
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite WCSS"):
        kmeans(ds, 1, seed=0)
    with np.errstate(all="ignore"), pytest.warns(UserWarning) as caught:
        parts = build_candidates(ds, range(1, 6), 3)
    assert all(p.n == ds.n for p in parts)
    messages = [str(w.message) for w in caught]
    assert any(m.startswith("generator kmeans failed for k=1") and "WCSS" in m for m in messages)


def test_kmeans_deterministic():
    ds = make_blobs(3, 40, [(0, 0), (4, 0), (0, 4)], sigma=0.8, seed=4)
    a = kmeans(ds, 5, seed=9)
    b = kmeans(ds, 5, seed=9)
    assert np.array_equal(a.labels, b.labels)


def test_gmm_recovers_spherical_blobs():
    ds = make_blobs(2, 40, [(0, 0), (15, 15)], sigma=0.7, seed=5)
    part = gmm_em(ds, 2, seed=1)
    assert adjusted_rand_index(part, _reference(ds)) == 1.0


def test_gmm_k1():
    ds = make_blobs(2, 10, [(0, 0), (5, 5)], sigma=0.5, seed=6)
    part = gmm_em(ds, 1, seed=1)
    assert part.K == 1


def test_gmm_beats_kmeans_on_anisotropic_pair():
    ds = anisotropic_pair()
    ref = _reference(ds)
    assert adjusted_rand_index(gmm_em(ds, 2, seed=2), ref) == 1.0
    assert adjusted_rand_index(kmeans(ds, 2, seed=2), ref) < 1.0


def test_single_linkage_follows_chains():
    ds = two_chains()
    part = agglomerative(ds, 2, "single")
    assert adjusted_rand_index(part, _reference(ds)) == 1.0


def test_agglomerative_k_equals_n():
    ds = make_blobs(1, 5, [(0, 0)], sigma=1.0, seed=7)
    assert agglomerative(ds, 5, "complete").K == 5


def test_average_linkage_matches_hand_trace():
    # 6-point set with a unique merge order; oracle merges straight from the
    # average-linkage definition
    pts = [(0.0, 0.0), (0.0, 1.1), (0.3, 2.4), (10.0, 0.0), (10.0, 1.3), (10.4, 2.9)]
    ds = Dataset(np.array(pts), id="six")
    for k in (2, 3):
        ours = agglomerative(ds, k, "average")
        oracle = canonicalize(average_linkage_labels(pts, k))
        assert ours.same_grouping(oracle)


def test_agglomerative_rejects_unknown_linkage():
    ds = make_blobs(1, 4, [(0, 0)], sigma=1.0, seed=0)
    with pytest.raises(ValueError):
        agglomerative(ds, 2, "median")


def test_canonicalize_renumbering():
    part = canonicalize([2, 2, 0, 1])
    np.testing.assert_array_equal(part.labels, [0, 0, 1, 2])
    assert part.K == 3


def test_canonicalize_equal_groupings():
    a = canonicalize([1, 0, 1, 0])
    b = canonicalize([0, 1, 0, 1])
    assert a.same_grouping(b)
    np.testing.assert_array_equal(a.labels, [0, 1, 0, 1])


def test_canonicalize_random_relabeling_property():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(1, 25))
        labels = rng.integers(0, 6, n)
        perm = rng.permutation(6)
        assert canonicalize(labels).same_grouping(canonicalize(perm[labels]))


def test_partition_rejects_labels_that_do_not_fit_k():
    ds = make_blobs(3, 20, [(0, 0), (6, 0), (0, 6)], 0.8, 1)
    labels = ds.reference_labels
    for bad, K in (
        (labels, 2),  # a label K or above
        (labels, 4),  # an empty cluster
        (labels - 1, 3),  # a negative label
        ([0.5, 1.7, 1.2], 2),  # truncated to [0, 1, 1] before
        ([0.0, np.nan, 1.0], 2),
        ([[0, 1], [1, 0]], 2),
        (["a", "b"], 2),
        ([], 1),
    ):
        with pytest.raises(ValueError, match="labels must"):
            Partition(bad, K)
    part = Partition(labels, 3)
    assert part.labels.dtype == np.int64 and not part.labels.flags.writeable
    # a non-canonical order stays allowed: clusters may be relabelled
    permuted = Partition(np.array([2, 0, 1])[labels], 3)
    assert not np.array_equal(permuted.labels, part.labels)
    assert canonicalize(permuted.labels).same_grouping(part)
    np.testing.assert_array_equal(Partition([0.0, 1.0, 1.0], 2).labels, [0, 1, 1])


def test_build_candidates_dedup_arithmetic():
    ds = make_blobs(3, 20, [(0, 0), (9, 0), (0, 9)], sigma=0.6, seed=9)
    ks = [2, 3]
    candidates = build_candidates(ds, ks, seed=13)
    # recompute what the generators produce and count distinct groupings
    from kdeval.partitions import _derive_seed  # noqa: PLC2701 - test-internal check

    raw = []
    for k in ks:
        for gi, gen in enumerate(GENERATORS):
            cell_seed = _derive_seed(13, k, gi)
            if gen == "kmeans":
                km = kmeans(ds, k, cell_seed)
                raw.append(km)
            elif gen == "gmm":
                raw.append(gmm_em(ds, k, cell_seed, init=km))
            else:
                raw.append(agglomerative(ds, k, gen.split("-", 1)[1]))
    distinct = {p.key() for p in raw}
    ref = _reference(ds)
    expected = len(distinct) + (0 if ref.key() in distinct else 1)
    assert len(candidates) == expected


def test_build_candidates_reference_merges_source_tag():
    ds = make_blobs(2, 15, [(0, 0), (12, 12)], sigma=0.4, seed=10)
    candidates = build_candidates(ds, [2], seed=3)
    tagged = [c for c in candidates if "reference" in c.source]
    assert len(tagged) == 1
    # the trivially easy k=2 cell equals the reference, so the tag is merged
    assert "+reference" in tagged[0].source


def test_build_candidates_deterministic_and_canonical():
    ds = make_blobs(3, 15, [(0, 0), (7, 0), (0, 7)], sigma=0.7, seed=11)
    a = build_candidates(ds, range(2, 5), seed=21)
    b = build_candidates(ds, range(2, 5), seed=21)
    assert [p.source for p in a] == [p.source for p in b]
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.labels, pb.labels)
        # canonical form and full coverage
        seen = []
        for lab in pa.labels:
            if lab not in seen:
                assert lab == len(seen)
                seen.append(lab)
        assert len(seen) == pa.K
    keys = [p.key() for p in a]
    assert len(keys) == len(set(keys))


def test_build_candidates_rejects_bad_range():
    ds = make_blobs(1, 5, [(0, 0)], sigma=1.0, seed=0)
    with pytest.raises(ValueError):
        build_candidates(ds, [], seed=0)
    with pytest.raises(ValueError):
        build_candidates(ds, [6], seed=0)


def test_build_candidates_failing_generator_warns_not_fatal(monkeypatch):
    import kdeval.partitions as pmod

    def boom(data, k, seed, init=None):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(pmod, "gmm_em", boom)
    ds = make_blobs(2, 10, [(0, 0), (8, 8)], sigma=0.5, seed=14)
    with pytest.warns(UserWarning, match=r"gmm failed for k=\d: forced failure"):
        candidates = pmod.build_candidates(ds, [2, 3], seed=5)
    assert candidates  # the other generators still contribute
    assert all("gmm" not in c.source for c in candidates)


def test_partition_serialization_round_trip(tmp_path):
    ds = make_blobs(2, 10, [(0, 0), (6, 6)], sigma=0.5, seed=12)
    parts = build_candidates(ds, [2, 3], seed=7)
    save_partitions(tmp_path / "parts", parts)
    assert (tmp_path / "parts" / "manifest.csv").exists()
    back = load_partitions(tmp_path / "parts")
    assert len(back) == len(parts)
    for orig, loaded in zip(parts, back):
        assert orig.same_grouping(loaded)
        assert loaded.source == orig.source


def test_load_partitions_without_manifest_reads_sorted_txt_files(tmp_path):
    (tmp_path / "b.txt").write_text("5\n5\n7\n")
    (tmp_path / "a.b.txt").write_text("1\n0\n1\n")
    (tmp_path / "c.csv").write_text("0\n1\n2\n")
    (tmp_path / "d.txt.bak").write_text("0\n1\n2\n")
    parts = load_partitions(tmp_path)
    assert [p.source for p in parts] == ["a.b", "b"]
    assert [p.labels.tolist() for p in parts] == [[0, 1, 0], [0, 0, 1]]


def test_log_gaussians_matches_multivariate_normal_logpdf():
    from scipy.stats import multivariate_normal

    rng = np.random.default_rng(14)
    for _ in range(40):
        n, d, k = int(rng.integers(1, 300)), int(rng.integers(1, 6)), int(rng.integers(1, 31))
        X = 3.0 * rng.standard_normal((n, d))
        means = 3.0 * rng.standard_normal((k, d))
        a = rng.standard_normal((k, d, d))
        chols = np.linalg.cholesky(a @ a.transpose(0, 2, 1) + 0.1 * np.eye(d))
        got = _log_gaussians(X, means, chols)
        assert got.shape == (n, k) and got.flags.c_contiguous
        # the (k, d, n) differences give the bits of the (k, n, d) formula
        y = np.matmul(np.linalg.inv(chols), (X[None] - means[:, None]).transpose(0, 2, 1))
        maha = np.einsum("kdn,kdn->kn", y, y)
        logdet = 2.0 * np.log(np.diagonal(chols, axis1=1, axis2=2)).sum(axis=1)
        knd = (-0.5 * (maha + logdet[:, None] + d * np.log(2.0 * np.pi))).T
        assert np.array_equal(got, knd)
        for j in range(k):
            cov = chols[j] @ chols[j].T
            ref = multivariate_normal(means[j], cov).logpdf(X).reshape(n)
            assert np.all(np.abs(got[:, j] - ref) <= 1e-12 * (1.0 + np.abs(ref)))


def test_log_gaussians_uses_no_general_solve(monkeypatch):
    import kdeval.partitions as pmod

    def no_solve(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(pmod.np.linalg, "solve", no_solve)
    chols = np.linalg.cholesky(np.array([[[2.0, 0.3], [0.3, 1.0]], [[1.0, 0.0], [0.0, 4.0]]]))
    assert np.isfinite(_log_gaussians(np.ones((5, 2)), np.zeros((2, 2)), chols)).all()


def test_em_converges_before_the_iteration_cap(monkeypatch):
    import kdeval.partitions as pmod

    calls = []  # one _logsumexp call per EM iteration, one entry per EM run
    logsumexp, em_once = pmod._logsumexp, pmod._em_once

    def counting_em_once(*args, **kwargs):
        calls.append(0)
        return em_once(*args, **kwargs)

    def counting_logsumexp(a):
        calls[-1] += 1
        return logsumexp(a)

    monkeypatch.setattr(pmod, "_em_once", counting_em_once)
    monkeypatch.setattr(pmod, "_logsumexp", counting_logsumexp)
    ds = four_blobs()
    for k in range(2, 9):
        gmm_em(ds, k, seed=pmod._derive_seed(7, k))
    assert len(calls) >= 7 * pmod.GMM_INITS
    assert max(calls) < EM_MAX_ITER


@pytest.mark.parametrize("kind", ["kmeans", "random"])
def test_em_component_far_from_every_point_stays_dead(monkeypatch, kind):
    import kdeval.partitions as pmod

    em_init = pmod._em_init

    def far_init(data, k, seed, init, reg):
        means, covs, weights = em_init(data, k, seed, init, reg)
        means[-1] = 1e6  # no point gets any responsibility from it
        return means, covs, weights

    monkeypatch.setattr(pmod, "_em_init", far_init)
    ds = four_blobs()
    init = kmeans(ds, 4, 3) if kind == "kmeans" else None
    with np.errstate(invalid="raise", divide="raise"):
        labels, ll = pmod._em_once(ds, 4, seed=3, init=init)
    assert np.isfinite(ll)
    assert set(labels.tolist()) <= {0, 1, 2}


def _count_kmeans(monkeypatch):
    import kdeval.partitions as pmod

    calls = []
    real = pmod.kmeans

    def spy(data, k, seed):
        calls.append((k, seed))
        return real(data, k, seed)

    monkeypatch.setattr(pmod, "kmeans", spy)
    return calls


def test_build_candidates_runs_kmeans_once_per_k(monkeypatch):
    import kdeval.partitions as pmod

    calls = _count_kmeans(monkeypatch)
    ds = four_blobs()
    pmod.build_candidates(ds, range(2, 6), seed=4, generators=("kmeans", "gmm"))
    assert sorted(k for k, _ in calls) == [2, 3, 4, 5]
    # without the kmeans generator, gmm_em runs its own k-means init
    calls.clear()
    pmod.build_candidates(ds, [3], seed=4, generators=("gmm",))
    assert [k for k, _ in calls] == [3]


def test_gmm_em_kmeans_init_starts_from_the_given_partition(monkeypatch):
    import kdeval.partitions as pmod

    ds = four_blobs()
    calls = _count_kmeans(monkeypatch)
    starts = []
    em_init = pmod._em_init

    def recording_init(data, k, seed, init, reg):
        out = em_init(data, k, seed, init, reg)
        starts.append((init, out[0].copy()))
        return out

    monkeypatch.setattr(pmod, "_em_init", recording_init)
    # a deliberately poor start: the first 4 points against the rest
    part = canonicalize(np.r_[np.zeros(4, dtype=int), np.ones(ds.n - 4, dtype=int)])
    gmm_em(ds, 3, seed=5, init=part)
    assert calls == []  # no k-means run of its own
    assert starts[0][0] is part
    X = ds.points
    expected = [X[:4].mean(axis=0), X[4:].mean(axis=0)]
    np.testing.assert_array_equal(starts[0][1][:2], expected)
    assert all(init is None for init, _ in starts[1:])


def test_gmm_em_retry_after_cholesky_failure_runs_its_own_kmeans(monkeypatch):
    import kdeval.partitions as pmod

    ds = four_blobs()
    given = kmeans(ds, 4, seed=11)
    calls = _count_kmeans(monkeypatch)
    cholesky = np.linalg.cholesky
    failed = []

    def failing_once(a):
        if not failed:
            failed.append(True)
            raise np.linalg.LinAlgError("forced")
        return cholesky(a)

    monkeypatch.setattr(pmod.np.linalg, "cholesky", failing_once)
    part = gmm_em(ds, 4, seed=6, init=given)
    assert failed and part.K == 4 and part.n == ds.n
    assert calls == [(4, pmod._derive_seed(6, 1))]

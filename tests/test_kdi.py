import dataclasses
import itertools
import math

import numpy as np
import pytest

from kdeval import density, kdi
from kdeval.data_io import Dataset, make_blobs
from kdeval.density import BandwidthSearchSpec, log_density_many
from kdeval.kdi import (
    ClusterDensityProfile,
    KdiParams,
    ambiguous_index,
    ambiguous_v1,
    ambiguous_v2,
    ambiguous_v3,
    boundary_index,
    cross_log_density,
    fit_profiles,
    kdi_index,
    pairwise_ambiguous,
    similarity_index,
    similarity_v1,
    similarity_v2,
    similarity_v3,
    territory_membership,
)
from kdeval.partitions import canonicalize

from _fixtures import four_blobs, random_dataset, two_rings
from _oracles import kdi_reference

SPEC = BandwidthSearchSpec(grid=(0.3, 0.6, 1.2), folds=2, seed=0)


def _profiles(ds, labels, params=None, bw=SPEC):
    params = params or KdiParams(seed=0)
    return fit_profiles(ds, canonicalize(labels), params, bw_spec=bw)


def test_params_validation():
    with pytest.raises(ValueError):
        KdiParams(delta=1.5)
    with pytest.raises(ValueError):
        KdiParams(alpha1=-0.1)
    with pytest.raises(ValueError):
        KdiParams(ambiguous_variant="v9")
    with pytest.raises(ValueError):
        KdiParams(mc_samples=0)
    with pytest.raises(ValueError, match="min_cluster_size"):
        KdiParams(min_cluster_size=-3)
    assert KdiParams(min_cluster_size=0).min_cluster_size == 0
    # counts are integers: a float would be truncated (2.5 samples ran 2) or
    # fail deep inside ambiguous_v3 (nan); bools are not counts either
    for name in ("mc_samples", "min_cluster_size", "seed"):
        for bad in (2.5, float("nan"), float("inf"), 40.0, True, "3", None):
            with pytest.raises(ValueError, match=name):
                KdiParams(**{name: bad})
    with pytest.raises(ValueError, match="seed"):
        KdiParams(seed=-1)
    params = KdiParams(mc_samples=np.int64(5), min_cluster_size=np.int32(0), seed=np.uint8(3))
    assert (params.mc_samples, params.min_cluster_size, params.seed) == (5, 0, 3)


def test_coincident_cluster_uses_beta_interval():
    pts = np.concatenate([np.ones((5, 2)), np.zeros((5, 2)) + 10.0])
    ds = Dataset(pts, id="coincident")
    params = KdiParams(beta1=2.5, beta2=0.75, seed=0)
    profiles = _profiles(ds, [0] * 5 + [1] * 5, params)
    for profile in profiles:
        assert profile.delta_g == 0.0
        g = float(profile.g[0])
        lo, hi = profile.territory
        assert lo == pytest.approx(g - 2.5, abs=1e-12)
        assert hi == pytest.approx(g + 0.75, abs=1e-12)


def test_single_cluster_profile():
    ds = make_blobs(1, 12, [(0, 0)], sigma=1.0, seed=1)
    profiles = _profiles(ds, [0] * 12)
    assert len(profiles) == 1
    assert profiles[0].g.shape == (12,)


def test_profiles_match_definitional_oracle():
    rng = np.random.default_rng(2)
    pts = np.concatenate([rng.normal(0, 1, (12, 2)), rng.normal(6, 1, (14, 2))])
    labels = [0] * 12 + [1] * 14
    ds = Dataset(pts, id="two")
    profiles = _profiles(ds, labels)
    hs = [p.model.bandwidth for p in profiles]
    ref = kdi_reference([tuple(p) for p in pts], labels, hs)
    for q, profile in enumerate(profiles):
        assert profile.territory[0] == pytest.approx(ref["territory"][q][0], abs=1e-10)
        assert profile.territory[1] == pytest.approx(ref["territory"][q][1], abs=1e-10)


def _in_territory(profile, queries):
    """Territory hits of arbitrary query points, the way ambiguous_v3 reads them."""
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    log_column = log_density_many(profile.model, queries)[:, None]
    return territory_membership(log_column, [profile.territory])[:, 0]


def test_territory_contains_min_member():
    ds = make_blobs(1, 20, [(0, 0)], sigma=1.0, seed=3)
    profile = _profiles(ds, [0] * 20)[0]
    weakest = ds.points[np.argmin(profile.g)]
    assert _in_territory(profile, weakest).all()


def test_every_member_inside_own_territory():
    ds = make_blobs(3, 18, [(0, 0), (5, 0), (0, 5)], sigma=0.9, seed=30)
    for profile in _profiles(ds, list(ds.reference_labels)):
        lo, hi = profile.territory
        assert np.all(profile.g >= lo) and np.all(profile.g <= hi)


def test_territory_excludes_far_point():
    ds = make_blobs(2, 15, [(0, 0), (9, 0)], sigma=0.8, seed=4)
    far = np.array([1e6, 1e6])
    for profile in _profiles(ds, [0] * 15 + [1] * 15):
        assert not _in_territory(profile, far).any()


def test_territory_excludes_ring_mode():
    # exact uniform ring: zero member spread, so the beta bounds apply; the
    # ring center is denser than any member and must fall outside
    theta = np.linspace(0, 2 * np.pi, 100, endpoint=False)
    ds = Dataset(np.c_[np.cos(theta), np.sin(theta)], id="ring")
    params = KdiParams(beta1=1.0, beta2=0.1, seed=0)
    profile = fit_profiles(
        ds, canonicalize([0] * 100), params, bw_spec=BandwidthSearchSpec(grid=(1.0,), folds=2)
    )[0]
    assert profile.delta_g == pytest.approx(0.0, abs=1e-9)
    assert not _in_territory(profile, [0.0, 0.0]).any()


def test_ambiguous_single_cluster_is_zero():
    ds = make_blobs(1, 10, [(0, 0)], sigma=1.0, seed=5)
    profiles = _profiles(ds, [0] * 10)
    i_a, flags = ambiguous_index(ds, profiles)
    assert i_a == 0.0
    assert not flags.any()


def test_ambiguous_far_blobs_zero():
    ds = make_blobs(2, 25, [(0, 0), (50, 50)], sigma=0.5, seed=6)
    profiles = _profiles(ds, list(ds.reference_labels))
    i_a, _ = ambiguous_index(ds, profiles)
    assert i_a == 0.0


def test_ambiguous_interleaved_split_near_one():
    ds = make_blobs(1, 60, [(0, 0)], sigma=1.0, seed=7)
    labels = [i % 2 for i in range(60)]
    profiles = _profiles(ds, labels)
    i_a, _ = ambiguous_index(ds, profiles)
    assert i_a > 0.9


def test_similarity_two_point_cluster_scores_zero():
    pts = np.array([[0.0, 0.0], [0.2, 0.0], [5.0, 5.0], [5.2, 5.0], [5.0, 5.4], [5.3, 5.2]])
    ds = Dataset(pts, id="tiny")
    profiles = _profiles(ds, [0, 0, 1, 1, 1, 1])
    _, s_values = similarity_index(profiles, ds.n, min_cluster_size=3)
    assert s_values[0] == 0.0
    assert s_values[1] > 0.0


def test_similarity_symmetric_square_is_maximal():
    # all four member likelihoods exactly equal, so sum/max = n_q
    ds = Dataset([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], id="square")
    profiles = fit_profiles(
        ds, canonicalize([0] * 4), KdiParams(seed=0), BandwidthSearchSpec(grid=(1.0,), folds=2)
    )
    i_s, s_values = similarity_index(profiles, 4, min_cluster_size=3)
    assert s_values[0] == pytest.approx(4.0, abs=1e-12)
    assert i_s == pytest.approx(0.0, abs=1e-12)


def test_similarity_outlier_raises_index():
    # fixed bandwidth so the comparison isolates the appended outlier
    fixed = BandwidthSearchSpec(grid=(0.4,), folds=2, seed=0)
    rng = np.random.default_rng(8)
    blob = rng.normal(0, 1, (100, 2))
    ds_clean = Dataset(blob, id="clean")
    clean, _ = similarity_index(_profiles(ds_clean, [0] * 100, bw=fixed), 100)
    ds_out = Dataset(np.concatenate([blob, [[40.0, 40.0]]]), id="outlier")
    worse, _ = similarity_index(_profiles(ds_out, [0] * 101, bw=fixed), 101)
    assert worse > clean


def test_kdi_delta_endpoints():
    ds = make_blobs(2, 20, [(0, 0), (6, 0)], sigma=0.9, seed=9)
    labels = list(ds.reference_labels)
    part = canonicalize(labels)
    lo = kdi_index(ds, part, KdiParams(delta=0.0, seed=1), bw_spec=SPEC)
    hi = kdi_index(ds, part, KdiParams(delta=1.0, seed=1), bw_spec=SPEC)
    assert lo.I == lo.I_s
    assert hi.I == hi.I_a


def test_kdi_seed_determinism():
    ds = make_blobs(3, 20, [(0, 0), (7, 0), (0, 7)], sigma=0.8, seed=10)
    part = canonicalize(list(ds.reference_labels))
    a = kdi_index(ds, part, KdiParams(seed=5))
    b = kdi_index(ds, part, KdiParams(seed=5))
    assert (a.I, a.I_a, a.I_s, a.I_b) == (b.I, b.I_a, b.I_s, b.I_b)


def _block_permuted(ds, labels, order):
    """Reorder the dataset cluster-block-wise so first-occurrence
    canonicalization assigns new cluster ids (within-cluster point order is
    preserved)."""
    X = ds.points
    labels = np.asarray(labels)
    parts = [X[labels == q] for q in order]
    new_labels = np.concatenate([np.full(len(p), i) for i, p in enumerate(parts)])
    return Dataset(np.concatenate(parts), id=ds.id + "-perm"), new_labels


def test_kdi_relabel_invariance_bit_exact():
    ds = make_blobs(3, 15, [(0, 0), (4, 0), (0, 4)], sigma=0.9, seed=11)
    labels = list(ds.reference_labels)
    params = KdiParams(seed=3)
    base = kdi_index(ds, canonicalize(labels), params, bw_spec=SPEC)
    for order in ([1, 2, 0], [2, 1, 0], [0, 2, 1]):
        ds2, labels2 = _block_permuted(ds, labels, order)
        other = kdi_index(ds2, canonicalize(labels2), params, bw_spec=SPEC)
        assert other.I == base.I
        assert other.I_a == base.I_a
        assert other.I_s == base.I_s
        assert other.I_b == base.I_b


def test_boundary_rho_zero_counts_minimum_members():
    ds = make_blobs(2, 20, [(0, 0), (30, 30)], sigma=0.6, seed=12)
    profiles = _profiles(ds, list(ds.reference_labels))
    value = boundary_index(ds, profiles, rho=0.0)
    assert value == pytest.approx(1.0 / ds.n, abs=1e-15)


def test_boundary_degenerate_band():
    pts = np.concatenate([np.ones((4, 1)), np.linspace(5, 6, 8).reshape(-1, 1)])
    ds = Dataset(pts, id="deg")
    profiles = _profiles(ds, [0] * 4 + [1] * 8)
    assert profiles[0].delta_g == 0.0
    value = boundary_index(ds, profiles, rho=0.5)
    # coincident cluster: band is the single value min(G); all 4 members (and
    # no one else) sit exactly on it
    assert value >= 4 / (2 * ds.n) - 1e-12


def test_boundary_matches_oracle():
    rng = np.random.default_rng(13)
    pts = np.concatenate([rng.normal(0, 1, (15, 2)), rng.normal(5, 1.5, (18, 2))])
    labels = [0] * 15 + [1] * 18
    ds = Dataset(pts, id="b")
    profiles = _profiles(ds, labels)
    hs = [p.model.bandwidth for p in profiles]
    for rho in (0.5, 1.5):
        ref = kdi_reference([tuple(p) for p in pts], labels, hs, rho=rho)
        assert boundary_index(ds, profiles, rho) == pytest.approx(ref["i_b"], abs=1e-12)


def _one_pair_overlap():
    rng = np.random.default_rng(14)
    base = rng.normal(0, 0.8, (20, 2))
    shifted = base + [0.3, 0.0]  # heavy overlap with base
    far = rng.normal(40, 0.8, (20, 2))
    pts = np.concatenate([base, shifted, far])
    return Dataset(pts, id="pairover"), [0] * 20 + [1] * 20 + [2] * 20


def test_v1_single_cluster_zero():
    ds = make_blobs(1, 10, [(0, 0)], sigma=1.0, seed=15)
    assert ambiguous_v1(ds, _profiles(ds, [0] * 10)) == 0.0


def test_v1_disjoint_blobs_zero():
    ds = make_blobs(2, 20, [(0, 0), (60, 0)], sigma=0.5, seed=16)
    assert ambiguous_v1(ds, _profiles(ds, list(ds.reference_labels))) == 0.0


def test_v1_exactly_one_overlapping_pair():
    ds, labels = _one_pair_overlap()
    profiles = _profiles(ds, labels)
    a = pairwise_ambiguous(ds, profiles)
    assert a[0, 1] > 0 and a[0, 2] == 0 and a[1, 2] == 0
    assert ambiguous_v1(ds, profiles) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_v2_all_zero_pairs():
    ds = make_blobs(2, 20, [(0, 0), (60, 0)], sigma=0.5, seed=17)
    assert ambiguous_v2(ds, _profiles(ds, list(ds.reference_labels))) == 0.0


def test_v2_single_positive_pair_is_its_mean():
    ds, labels = _one_pair_overlap()
    profiles = _profiles(ds, labels)
    a = pairwise_ambiguous(ds, profiles)
    assert ambiguous_v2(ds, profiles) == pytest.approx(a[0, 1], abs=1e-15)


def test_v3_single_cluster_zero():
    ds = make_blobs(1, 10, [(0, 0)], sigma=1.0, seed=18)
    assert ambiguous_v3(ds, _profiles(ds, [0] * 10), 500, seed=1) == 0.0


def test_v3_identical_twin_clusters_one():
    rng = np.random.default_rng(19)
    blob = rng.normal(0, 1, (10, 2))
    ds = Dataset(np.concatenate([blob, blob]), id="twins")
    profiles = _profiles(ds, [0] * 10 + [1] * 10)
    assert ambiguous_v3(ds, profiles, 2000, seed=2) == 1.0


def test_v3_disjoint_blobs_zero():
    ds = make_blobs(2, 25, [(0, 0), (80, 0)], sigma=0.5, seed=20)
    profiles = _profiles(ds, list(ds.reference_labels))
    assert ambiguous_v3(ds, profiles, 20000, seed=3) == 0.0


def _v3_samples(ds, mc_samples, seed):
    """ambiguous_v3's Monte-Carlo samples, drawn as its docstring defines them."""
    lo, hi = ds.points.min(axis=0), ds.points.max(axis=0)
    pad = np.where(hi > lo, 0.1 * (hi - lo), 0.1)
    rng = np.random.default_rng(seed)
    return rng.uniform(lo - pad, hi + pad, size=(mc_samples, ds.points.shape[1]))


def _v3_by_definition(ds, profiles, mc_samples, seed):
    """ambiguous_v3 from its definition: every cluster's KDE at every sample."""
    samples = _v3_samples(ds, mc_samples, seed)
    values = np.column_stack([log_density_many(p.model, samples) for p in profiles])
    hits = territory_membership(values, [p.territory for p in profiles]).sum(axis=1)
    in_any = int((hits >= 1).sum())
    return int((hits >= 2).sum()) / in_any if in_any else 0.0


def _with_singleton_and_coincident(ds, labels):
    """ds plus one far singleton and five coincident points, as two more clusters."""
    k = int(np.max(labels)) + 1
    extra = np.array([ds.points.max(axis=0) * 1.05] + [ds.points.min(axis=0)] * 5)
    points = np.concatenate([ds.points, extra])
    return Dataset(points, id="odd"), list(labels) + [k] + [k + 1] * 5


def _v3_case(name):
    """(dataset, labels, params, bw_spec, mc_samples) of one seeded case."""
    rings = two_rings(seed=9, m1=120, m2=160)
    blobs = four_blobs(seed=5, per_cluster=40)
    rng = np.random.default_rng(13)
    if name == "rings":
        return rings, rings.reference_labels, KdiParams(seed=0), None, 20000
    if name == "blobs":
        return blobs, blobs.reference_labels, KdiParams(seed=0), None, 5000
    if name == "d1":
        pts = np.r_[rng.normal(0.0, 1.0, 40), rng.normal(2.5, 0.5, 30), rng.normal(9.0, 2.0, 30)]
        return Dataset(pts, id="d1"), [0] * 40 + [1] * 30 + [2] * 30, KdiParams(seed=0), None, 3000
    if name == "d4":
        ds = make_blobs(3, 30, [(0, 0, 0, 0), (3, 0, 0, 0), (0, 9, 0, 9)], sigma=1.0, seed=14)
        return ds, ds.reference_labels, KdiParams(seed=0), None, 3000
    if name == "singleton+coincident":
        ds, labels = _with_singleton_and_coincident(blobs, blobs.reference_labels)
        return ds, labels, KdiParams(seed=0), None, 4000
    if name == "singleton+coincident, zero margins":
        ds, labels = _with_singleton_and_coincident(rings, rings.reference_labels)
        return ds, labels, KdiParams(alpha1=0.0, beta1=0.0, seed=0), SPEC, 4000
    if name == "alpha1=0":
        return blobs, blobs.reference_labels, KdiParams(alpha1=0.0, seed=0), None, 4000
    if name.startswith("scale"):
        ds = Dataset(rings.points * float(name[5:]), id="scaled")
        return ds, rings.reference_labels, KdiParams(seed=0), None, 2000
    if name.startswith("mc"):
        return rings, rings.reference_labels, KdiParams(seed=0), None, int(name[2:])
    raise KeyError(name)


V3_CASES = ("rings", "blobs", "d1", "d4", "singleton+coincident",
            "singleton+coincident, zero margins", "alpha1=0",
            "scale1e-4", "scale1e4", "mc1", "mc2", "mc20000")


@pytest.mark.parametrize("name", V3_CASES)
def test_v3_matches_every_sample_definition(name):
    ds, labels, params, bw, mc_samples = _v3_case(name)
    profiles = fit_profiles(ds, canonicalize(labels), params, bw_spec=bw)
    for seed in (0, 3):
        assert ambiguous_v3(ds, profiles, mc_samples, seed) == _v3_by_definition(
            ds, profiles, mc_samples, seed
        )
    blocks = density._sample_blocks(_v3_samples(ds, mc_samples, 0))
    for p in profiles:
        lo, hi = p.territory
        full = log_density_many(p.model, blocks.points)
        sides = density._territory_sides(p.model, blocks, lo, hi)
        np.testing.assert_array_equal(sides, (full >= lo) & (full <= hi))


def test_v3_evaluates_fewer_samples_than_drawn(monkeypatch):
    ds = two_rings(seed=9, m1=120, m2=160)
    profiles = fit_profiles(ds, canonicalize(ds.reference_labels), KdiParams(seed=0))
    expected = ambiguous_v3(ds, profiles, 20000, 1)
    pairs = []
    cdist = density.cdist

    def counting(*args, **kwargs):
        out = cdist(*args, **kwargs)
        pairs.append(out.size)
        return out

    monkeypatch.setattr(density, "cdist", counting)
    assert ambiguous_v3(ds, profiles, 20000, 1) == expected
    # only the blocks near a territory meet the kernel, each with the points
    # near its box: 10 % of mc_samples x m here
    assert 0 < sum(pairs) < 0.25 * 20000 * ds.n, sum(pairs)


def test_sv1_all_equal_degenerate_counts_full():
    ds = Dataset([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], id="square")
    profiles = fit_profiles(
        ds, canonicalize([0] * 4), KdiParams(seed=0), BandwidthSearchSpec(grid=(1.0,), folds=2)
    )
    # min-max degenerate: every member counts as 1 -> S_q = n_q -> index 0
    assert similarity_v1(profiles, 4) == pytest.approx(0.0, abs=1e-12)


def test_sv1_small_cluster_zero():
    pts = np.array([[0.0], [0.3], [9.0], [9.1], [9.2], [9.35]])
    ds = Dataset(pts, id="sv1")
    profiles = _profiles(ds, [0, 0, 1, 1, 1, 1])
    hs = [p.model.bandwidth for p in profiles]
    ref = kdi_reference([tuple(p) for p in pts], [0, 0, 1, 1, 1, 1], hs)
    assert similarity_v1(profiles, 6) == pytest.approx(ref["is_v1"], abs=1e-10)


def test_sv2_single_cluster_equals_main():
    ds = make_blobs(1, 15, [(0, 0)], sigma=1.0, seed=21)
    profiles = _profiles(ds, [0] * 15)
    main, _ = similarity_index(profiles, 15)
    assert similarity_v2(profiles, 15) == pytest.approx(main, abs=1e-15)


def test_sv2_penalizes_sparse_cluster_more():
    rng = np.random.default_rng(22)
    dense = rng.normal(0, 0.3, (30, 2))
    sparse = rng.normal(20, 3.0, (30, 2))
    ds = Dataset(np.concatenate([dense, sparse]), id="mix")
    profiles = _profiles(ds, [0] * 30 + [1] * 30)
    main, _ = similarity_index(profiles, 60)
    assert similarity_v2(profiles, 60) > main


def test_sv3_all_equal_zero_dispersion():
    ds = Dataset([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], id="square")
    profiles = fit_profiles(
        ds, canonicalize([0] * 4), KdiParams(seed=0), BandwidthSearchSpec(grid=(1.0,), folds=2)
    )
    assert similarity_v3(profiles, 4) == pytest.approx(0.0, abs=1e-12)


def test_sv3_two_point_hand_value():
    profile = ClusterDensityProfile(
        member_indices=np.array([0, 1]),
        model=None,
        g=np.array([0.0, 2.0]),
        likelihoods=np.exp(np.array([0.0, 2.0])),
        delta_g=1.0,
        territory=(-1.0, 3.0),
        log_column=np.array([0.0, 2.0]),
    )
    # distances to the mean (1.0) are {1, 1}; raw mean distance = 1.0
    assert similarity_v3([profile], 2, center="mean", metric="abs") == pytest.approx(
        1.0, abs=1e-15
    )
    assert similarity_v3([profile], 2, center="median", metric="squared") == pytest.approx(
        1.0, abs=1e-15
    )
    assert similarity_v3([profile], 2, normalize=True) == pytest.approx(0.0, abs=1e-15)


def test_kdi_variant_selection_changes_fields():
    ds, labels = _one_pair_overlap()
    part = canonicalize(labels)
    main = kdi_index(ds, part, KdiParams(seed=1), bw_spec=SPEC)
    v1 = kdi_index(ds, part, KdiParams(seed=1, ambiguous_variant="v1"), bw_spec=SPEC)
    assert v1.I_a == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert v1.I == pytest.approx(0.5 * v1.I_a + 0.5 * v1.I_s, abs=1e-15)
    assert main.I_a != v1.I_a and main.I_s == v1.I_s


def test_kdi_index_bw_spec_reaches_auto_grid(monkeypatch):
    ds = make_blobs(2, 30, [(0.0, 0.0), (8.0, 8.0)], sigma=0.5, seed=6)
    part = canonicalize(ds.reference_labels)
    chosen = []

    def recording(points, spec=None, neighbours=None):
        chosen.append(density.choose_bandwidth(points, spec, neighbours))
        return chosen[-1]

    monkeypatch.setattr(kdi, "choose_bandwidth", recording)
    params = KdiParams(seed=1)
    spec = BandwidthSearchSpec(folds=3, seed=6)
    kdi_index(ds, part, params, bw_spec=spec)
    from_kdi = chosen.copy()
    direct = [p.model.bandwidth for p in fit_profiles(ds, part, params, spec)]
    five = [p.model.bandwidth for p in fit_profiles(ds, part, params, BandwidthSearchSpec(seed=6))]
    assert from_kdi == direct != five


def test_one_value_grid_pins_singleton_cluster():
    ds = make_blobs(2, 10, [(0.0, 0.0), (8.0, 8.0)], sigma=0.5, seed=6)
    labels = ds.reference_labels.copy()
    labels[0] = 2
    profiles = _profiles(ds, labels, bw=BandwidthSearchSpec(grid=(0.37,), folds=5, seed=0))
    assert min(p.n_members for p in profiles) == 1
    assert [p.model.bandwidth for p in profiles] == [0.37] * 3


def test_kdi_index_dispatches_every_variant_pair():
    ds, labels = _one_pair_overlap()
    part = canonicalize(labels)
    base = KdiParams(seed=1, delta=0.3, mc_samples=2000, s_v3_center="median")
    profiles = fit_profiles(ds, part, base, bw_spec=SPEC)
    lm = cross_log_density(ds, profiles)
    ambiguous = {
        "main": ambiguous_index(ds, profiles, lm)[0],
        "v1": ambiguous_v1(ds, profiles, lm, pair_local=True),
        "v2": ambiguous_v2(ds, profiles, lm, pair_local=True),
        "v3": ambiguous_v3(ds, profiles, 2000, 1),
    }
    similarity = {
        "main": similarity_index(profiles, ds.n)[0],
        "v1": similarity_v1(profiles, ds.n),
        "v2": similarity_v2(profiles, ds.n),
        "v3": similarity_v3(profiles, ds.n, center="median", normalize=True),
    }
    assert len(set(ambiguous.values())) > 1 and len(set(similarity.values())) > 1
    for a, s in itertools.product(ambiguous, similarity):
        params = dataclasses.replace(base, ambiguous_variant=a, similarity_variant=s)
        score = kdi_index(ds, part, params, bw_spec=SPEC)
        assert score.I_a == ambiguous[a], (a, s)
        assert score.I_s == similarity[s], (a, s)
        assert score.I == 0.3 * ambiguous[a] + 0.7 * similarity[s]


def test_territory_membership_closed_intervals():
    log_matrix = np.array([[-1.0, 5.0], [0.0, 2.0], [2.0, 1.999]])
    inside = territory_membership(log_matrix, [(-1.0, 0.0), (2.0, 5.0)])
    np.testing.assert_array_equal(inside, [[True, True], [True, True], [False, False]])
    assert territory_membership(np.empty((3, 0)), []).shape == (3, 0)


def test_fit_profiles_makes_one_kernel_call_per_cluster(monkeypatch):
    calls = []

    def counting(model, queries):
        calls.append(model)
        return log_density_many(model, queries)

    monkeypatch.setattr(density, "log_density_many", counting)
    monkeypatch.setattr(kdi, "log_density_many", counting)
    ds, labels = _one_pair_overlap()
    one_value = BandwidthSearchSpec(grid=(0.5,), folds=2, seed=0)
    profiles = _profiles(ds, labels, bw=one_value)
    assert len(calls) == len(profiles) == 3
    cross_log_density(ds, profiles)
    assert len(calls) == 3


def test_cross_log_density_columns_are_kernel_evaluations():
    ds, labels = _one_pair_overlap()
    profiles = _profiles(ds, labels)
    matrix = cross_log_density(ds, profiles)
    assert matrix.shape == (ds.n, len(profiles))
    for j, p in enumerate(profiles):
        np.testing.assert_array_equal(matrix[:, j], log_density_many(p.model, ds.points))
        np.testing.assert_array_equal(p.g, log_density_many(p.model, ds.points[p.member_indices]))


def _pairwise_by_definition(ds, profiles, pair_local):
    k = len(profiles)
    out = np.zeros((k, k))
    for i, j in itertools.combinations(range(k), 2):
        count = denom = 0
        for x in range(ds.n):
            inside = all(
                lo <= profiles[c].log_column[x] <= hi
                for c, (lo, hi) in ((i, profiles[i].territory), (j, profiles[j].territory))
            )
            if pair_local:
                member = x in profiles[i].member_indices or x in profiles[j].member_indices
                count += inside and member
                denom += member
            else:
                count += inside
                denom += 1
        out[i, j] = out[j, i] = count / denom
    return out


def test_pairwise_ambiguous_matches_pair_loop():
    rng = np.random.default_rng(21)
    cases = [random_dataset(rng) for _ in range(12)]
    far = make_blobs(3, 15, [(0, 0), (50, 0), (0, 50)], sigma=0.5, seed=22)
    cases.append((far, far.reference_labels))
    for ds, labels in cases:
        params = KdiParams(alpha1=0.8, alpha2=1.7, seed=0)
        profiles = _profiles(ds, labels, params)
        for pair_local in (True, False):
            got = pairwise_ambiguous(ds, profiles, pair_local=pair_local)
            np.testing.assert_array_equal(got, _pairwise_by_definition(ds, profiles, pair_local))
    # the far blobs' territories claim no shared point
    assert not pairwise_ambiguous(ds, profiles, pair_local=False).any()


def test_similarity_family_matches_definition():
    # cluster 0 is below min_cluster_size; cluster 1 is coincident, so its
    # likelihoods are all equal (v1's hi == lo branch)
    rng = np.random.default_rng(4)
    pts = np.concatenate([[[9.0, 9.0], [9.5, 9.0]], np.full((4, 2), -5.0), rng.normal(0, 1, (15, 2))])
    ds = Dataset(pts, id="mixed")
    profiles = _profiles(ds, [0] * 2 + [1] * 4 + [2] * 15)
    assert len(set(profiles[1].likelihoods.tolist())) == 1
    n, m = ds.n, 3
    global_max = max(float(max(p.likelihoods)) for p in profiles)
    main, v1, v2 = [], [], []
    for p in profiles:
        like = [float(v) for v in p.likelihoods]
        if len(like) < m:
            main.append(0.0)
            v1.append(0.0)
            v2.append(0.0)
            continue
        lo, hi = min(like), max(like)
        main.append(sum(like) / hi)
        v1.append(len(like) if hi == lo else sum((v - lo) / (hi - lo) for v in like))
        v2.append(sum(like) / global_max)
    i_s, s_values = similarity_index(profiles, n, m)
    assert s_values[0] == 0.0 and s_values[1] == 4.0
    np.testing.assert_allclose(s_values, main, rtol=1e-12)
    assert i_s == pytest.approx(1.0 - sum(main) / n, abs=1e-12)
    assert similarity_v1(profiles, n, m) == pytest.approx(1.0 - sum(v1) / n, abs=1e-12)
    assert similarity_v2(profiles, n, m) == pytest.approx(1.0 - sum(v2) / n, abs=1e-12)


def test_profile_cache_shares_read_only_fits():
    ds = make_blobs(3, 12, [(0, 0), (3, 0), (0, 3)], sigma=0.8, seed=2)
    three = canonicalize(ds.reference_labels)
    # clusters 0 and 1 of the reference, cluster 2 merged into 1
    two = canonicalize(np.minimum(ds.reference_labels, 1))
    params = KdiParams(seed=0)
    cache = {}
    first = fit_profiles(ds, three, params, bw_spec=SPEC, cache=cache)
    second = fit_profiles(ds, two, params, bw_spec=SPEC, cache=cache)
    assert len(cache) == 4
    assert second[0].log_column is first[0].log_column
    assert second[0].model is first[0].model
    for cached, fresh in zip(second, fit_profiles(ds, two, params, bw_spec=SPEC)):
        np.testing.assert_array_equal(cached.log_column, fresh.log_column)
        assert cached.territory == fresh.territory
    # the spec is part of the key: another grid on the same members is a new fit
    other = BandwidthSearchSpec(grid=(0.25,), folds=2, seed=0)
    pinned = fit_profiles(ds, two, params, bw_spec=other, cache=cache)
    assert len(cache) == 6 and [p.model.bandwidth for p in pinned] == [0.25, 0.25]
    for p in first + second:
        with pytest.raises(ValueError, match="read-only"):
            p.log_column[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            p.model.training_points[0, 0] = 0.0

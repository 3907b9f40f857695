"""Property tests: the public surface, relabelling invariance of every index
variant, the range of the scores on degenerate inputs, and the orderings of
candidate rankings and label numbering."""

import functools
import itertools
import math
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kdeval
from kdeval.baselines import HIGHER_BETTER, SMALLER_BETTER
from kdeval.config import build_run_config
from kdeval.data_io import Dataset
from kdeval.density import DEFAULT_FOLDS
from kdeval.harness import evaluate_dataset, rank_candidates
from kdeval.kdi import AMBIGUOUS, SIMILARITY, KdiParams, fit_profiles, kdi_index
from kdeval.partitions import Partition, canonicalize

from _fixtures import random_dataset

VARIANT_PAIRS = list(itertools.product(AMBIGUOUS, SIMILARITY))
KDI_COLUMNS = ("new", "new_ia", "new_is", "new_ib", "new3",
               "ia_v1", "ia_v2", "ia_v3", "is_v1", "is_v2", "is_v3")


def test_public_surface_resolves():
    assert len(set(kdeval.__all__)) == len(kdeval.__all__)
    for name in kdeval.__all__:
        assert hasattr(kdeval, name), name
    namespace = {}
    exec("from kdeval import *", namespace)
    assert set(kdeval.__all__) <= set(namespace)


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from kdeval import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(kdeval.__all__)
    assert kdeval.__all__ == sorted(kdeval.__all__)
    for name in kdeval.__all__:
        assert not name.startswith("_"), name
        assert not isinstance(getattr(kdeval, name), types.ModuleType), name


def _scores(data, partition, seed):
    """Every variant pair's KdiScore, from one fit of the partition."""
    base = KdiParams(mc_samples=500, seed=seed)
    profiles = fit_profiles(data, partition, base)
    out = {}
    for a, s in VARIANT_PAIRS:
        params = KdiParams(ambiguous_variant=a, similarity_variant=s, mc_samples=500, seed=seed)
        out[a, s] = kdi_index(data, partition, params, profiles=profiles)
    return out


def _bits(score):
    return tuple(float(v).hex() for v in (score.I, score.I_a, score.I_s, score.I_b))


@settings(max_examples=12, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), k=st.integers(2, 4), draw=st.data())
def test_scores_bit_identical_under_relabelling(seed, k, draw):
    rng = np.random.default_rng(seed)
    ds, labels = random_dataset(rng, k=k)
    part = canonicalize(labels)
    perm = np.array(draw.draw(st.permutations(range(part.K))))
    relabelled = Partition(labels=perm[part.labels], K=part.K, source="relabelled")
    direct = _scores(ds, part, seed)
    for pair, score in _scores(ds, relabelled, seed).items():
        assert _bits(score) == _bits(direct[pair]), pair


@st.composite
def degenerate_inputs(draw):
    """(kind, dataset, partition) for one of four degenerate input shapes."""
    kind = draw(st.sampled_from(("identical", "n_below_folds", "one_dim", "k_above_distinct")))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    k_min = 1
    if kind == "identical":
        n, d = draw(st.integers(2, 12)), draw(st.integers(1, 3))
        points = np.broadcast_to(rng.uniform(-5.0, 5.0, d), (n, d))
    elif kind == "n_below_folds":
        points = rng.standard_normal((draw(st.integers(2, DEFAULT_FOLDS - 1)), 2))
    elif kind == "one_dim":
        n = draw(st.integers(4, 30))
        points = rng.standard_normal((n, 1)) + 6.0 * rng.integers(0, 2, (n, 1))
    else:
        distinct = draw(st.integers(1, 3))
        points = np.repeat(rng.standard_normal((distinct, 2)), draw(st.integers(2, 4)), axis=0)
        k_min = distinct + 1
    n = points.shape[0]
    k = draw(st.integers(min(k_min, n), n))
    labels = list(range(k)) + draw(st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))
    labels = draw(st.permutations(labels))
    return kind, Dataset(points, id=kind), canonicalize(labels)


def _in_unit_interval(value):
    return not math.isnan(value) and 0.0 <= value <= 1.0


# three locations, four points each, one cluster: every member likelihood is
# equal, and their sum over the maximum rounds to a few ulps above 12
REPEATED = Dataset(np.repeat([[0.0, 0.0], [4.0, 4.0], [0.0, 4.0]], 4, axis=0), id="repeated")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=degenerate_inputs())
@example(case=("repeated", REPEATED, canonicalize([0] * 12)))
def test_degenerate_inputs_score_in_unit_interval(case):
    kind, ds, part = case
    for pair, score in _scores(ds, part, seed=3).items():
        for value in (score.I, score.I_a, score.I_s, score.I_b):
            assert _in_unit_interval(value), (kind, pair, score)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(case=degenerate_inputs())
def test_degenerate_inputs_through_every_generator(case):
    # baselines may be undefined (None, with a warning), never nan; the KDI
    # columns always lie in [0, 1]
    kind, ds, _part = case
    config = build_run_config(seed=3, k_min=1, k_max=ds.n, include_variants=True,
                              boundary_mix_weight=0.3)
    report = evaluate_dataset(config, ds)
    for row in report.rows:
        for column, value in row.scores.items():
            if column in KDI_COLUMNS:
                assert _in_unit_interval(value), (kind, row.source, column, value)
            else:
                assert value is None or math.isfinite(value), (kind, row.source, column, value)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(raw=st.lists(st.integers(0, 6), min_size=1, max_size=60))
@example(raw=[0] * 9)  # K = 1
@example(raw=list(range(9)))  # singletons
def test_partition_members_are_each_clusters_ascending_indices(raw):
    part = canonicalize(raw)
    expected = [np.flatnonzero(part.labels == q) for q in range(part.K)]
    got = part.members
    assert len(got) == part.K
    for idx, want in zip(got, expected):
        assert idx.dtype.kind == "i" and np.array_equal(idx, want)
    assert np.array_equal(np.sort(np.concatenate(got)), np.arange(part.n))
    # computed once: a second read gives the same arrays, which refuse writes
    again = part.members
    assert all(a is b for a, b in zip(got, again))
    for idx in again:
        with pytest.raises(ValueError):
            idx[0] = 0


def _ranks_before(a, b, direction):
    """Whether candidate a = (value, K, source, position) ranks before b: a
    defined score first, then the better score in the direction, then the
    smaller K, source and position."""
    (va, ka, sa, pa), (vb, kb, sb, pb) = a, b
    da, db = (v is not None and math.isfinite(v) for v in (va, vb))
    if da != db:
        return da
    if da and va != vb:
        return va > vb if direction == HIGHER_BETTER else va < vb
    return (ka, sa, pa) < (kb, sb, pb)


SCORES = st.one_of(st.none(), st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.5]),
                   st.floats(-2, 2, width=16))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(entries=st.lists(st.tuples(SCORES, st.integers(1, 3), st.sampled_from("abc")),
                        min_size=1, max_size=12),
       direction=st.sampled_from((HIGHER_BETTER, SMALLER_BETTER)))
def test_rank_candidates_follows_its_definition(entries, direction):
    cands = [(*entry, pos) for pos, entry in enumerate(entries)]

    def cmp(i, j):
        return -1 if _ranks_before(cands[i], cands[j], direction) else 1

    expected = sorted(range(len(cands)), key=functools.cmp_to_key(cmp))
    assert rank_candidates(entries, direction) == expected


def _first_occurrence_codes(labels):
    """Each label's code: the number of distinct labels (by identity or
    equality) that first occur before its own first occurrence."""
    firsts, codes = [], []
    for value in labels:
        code = next((c for c, f in enumerate(firsts) if f is value or f == value), len(firsts))
        if code == len(firsts):
            firsts.append(value)
        codes.append(code)
    return codes, len(firsts)


SHARED_NAN = float("nan")
OBJECT_LABELS = st.one_of(
    st.integers(-2, 2), st.sampled_from(["a", "b", "1"]),
    st.tuples(st.integers(0, 1), st.sampled_from("xy")),
    st.just(SHARED_NAN), st.builds(float, st.just("nan")),  # one nan object, and fresh ones
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(labels=st.lists(OBJECT_LABELS, min_size=1, max_size=20))
def test_canonicalize_numbers_object_labels_by_first_occurrence(labels):
    raw = np.empty(len(labels), dtype=object)
    for i, value in enumerate(labels):  # element-wise, so tuples stay single labels
        raw[i] = value
    codes, K = _first_occurrence_codes(labels)
    part = canonicalize(raw)
    assert part.K == K
    assert part.labels.tolist() == codes

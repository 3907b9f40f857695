"""Library argument checks: every count, flag and choice that the library
takes from a caller is checked by one rule per kind, and a wrong value
raises a ValueError that names its field."""

import re

import numpy as np
import pytest

from kdeval.config import RunConfig
from kdeval.data_io import load_dataset, make_blobs
from kdeval.density import BandwidthSearchSpec
from kdeval.kdi import KdiParams, similarity_v3
from kdeval.partitions import agglomerative, build_candidates, gmm_em, kmeans

DS = make_blobs(2, 20, [(0, 0), (5, 0)], 0.5, 1)

COUNT = ((2.0, 2.5, True, "3"), np.int64(2))
FLAG = (("no", 1), np.bool_(True))
CHOICE = (("nope",), None)
# a bare string, then names that are not strings, do not sort together or do not hash
NAMES = (("kmeans", ("ch", 1), (None, "x"), (["ch"],)), None)

# field -> (call with one value, (wrong values, a numpy value it accepts or None))
CASES = {
    "RunConfig.seed": (lambda v: RunConfig(seed=v), COUNT),
    "RunConfig.k_min": (lambda v: RunConfig(seed=1, k_min=v), COUNT),
    "RunConfig.k_max": (lambda v: RunConfig(seed=1, k_max=v), COUNT),
    "KdiParams.mc_samples": (lambda v: KdiParams(mc_samples=v), COUNT),
    "KdiParams.min_cluster_size": (lambda v: KdiParams(min_cluster_size=v), COUNT),
    "KdiParams.seed": (lambda v: KdiParams(seed=v), COUNT),
    "BandwidthSearchSpec.folds": (lambda v: BandwidthSearchSpec(folds=v), COUNT),
    "kmeans.k": (lambda v: kmeans(DS, v, 1), COUNT),
    "gmm_em.k": (lambda v: gmm_em(DS, v, 1), COUNT),
    "agglomerative.k": (lambda v: agglomerative(DS, v, "ward"), COUNT),
    "build_candidates.k": (lambda v: build_candidates(DS, [v], 1, ("kmeans",)), COUNT),
    "make_blobs.k": (lambda v: make_blobs(v, 5, [(0, 0), (5, 0)], 0.5, 1), COUNT),
    "make_blobs.per_cluster": (lambda v: make_blobs(2, v, [(0, 0), (5, 0)], 0.5, 1), COUNT),
    "RunConfig.emit_svg": (lambda v: RunConfig(seed=1, emit_svg=v), FLAG),
    "RunConfig.include_variants": (lambda v: RunConfig(seed=1, include_variants=v), FLAG),
    "KdiParams.pair_local": (lambda v: KdiParams(pair_local=v), FLAG),
    "KdiParams.boundary_members_only": (lambda v: KdiParams(boundary_members_only=v), FLAG),
    "KdiParams.s_v3_normalize": (lambda v: KdiParams(s_v3_normalize=v), FLAG),
    "KdiParams.ambiguous_variant": (lambda v: KdiParams(ambiguous_variant=v), CHOICE),
    "KdiParams.similarity_variant": (lambda v: KdiParams(similarity_variant=v), CHOICE),
    "KdiParams.s_v3_center": (lambda v: KdiParams(s_v3_center=v), CHOICE),
    "KdiParams.s_v3_metric": (lambda v: KdiParams(s_v3_metric=v), CHOICE),
    "similarity_v3.center": (lambda v: similarity_v3([], 1, center=v), CHOICE),
    "similarity_v3.metric": (lambda v: similarity_v3([], 1, metric=v), CHOICE),
    "agglomerative.linkage": (lambda v: agglomerative(DS, DS.n, v), CHOICE),
    "load_dataset.format": (lambda v: load_dataset("points.csv", format=v), CHOICE),
    "RunConfig.indices": (lambda v: RunConfig(seed=1, indices=v), NAMES),
    "RunConfig.generators": (lambda v: RunConfig(seed=1, generators=v), NAMES),
}


@pytest.mark.parametrize("field", CASES)
def test_argument_check(field):
    call, (wrong, accepted) = CASES[field]
    name = field.split(".")[1]
    for value in wrong:
        with pytest.raises(ValueError, match=rf"^({re.escape(name)} must|unknown {name}:) "):
            call(value)
    if accepted is not None:
        call(accepted)

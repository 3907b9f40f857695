"""kdeval: density-based internal clustering evaluation.

A per-cluster Gaussian KDE defines each cluster's log-likelihood territory;
the main index mixes the fraction of points claimed by several territories
(ambiguous index) with a per-cluster likelihood homogeneity score (similarity
index).  Classical baselines (Calinski-Harabasz, Silhouette, Davies-Bouldin),
the adjusted Rand index, candidate partition generators, and a benchmark
harness round out the toolkit.
"""

import types

from .baselines import (
    IndexScore,
    UndefinedScoreError,
    adjusted_rand_index,
    calinski_harabasz,
    davies_bouldin,
    silhouette,
)
from .config import RunConfig, build_run_config
from .data_io import Dataset, load_dataset, make_blobs, save_dataset_csv
from .density import (
    BandwidthSearchSpec,
    DensityModel,
    fallback_bandwidth,
    fit_kde,
    log_density,
    log_density_many,
    select_bandwidth,
)
from .harness import (
    EvaluationReport,
    aggregate_accuracy,
    calibrate,
    evaluate_dataset,
    rank_candidates,
    write_accuracy,
    write_report,
)
from .kdi import (
    ClusterDensityProfile,
    KdiParams,
    KdiScore,
    ambiguous_index,
    ambiguous_v1,
    ambiguous_v2,
    ambiguous_v3,
    boundary_index,
    fit_profiles,
    kdi_index,
    pairwise_ambiguous,
    similarity_index,
    similarity_v1,
    similarity_v2,
    similarity_v3,
)
from .partitions import (
    Partition,
    agglomerative,
    build_candidates,
    canonicalize,
    gmm_em,
    kmeans,
    load_partitions,
    save_partitions,
)
from .svgplot import emit_svg

__version__ = "0.1.0"

# Every name bound above except the private ones and the modules (`types` and
# the submodules), so the imports are the one list of public names.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)

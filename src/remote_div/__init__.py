"""remote-div: a metric-space diversity-maximization toolkit.

Implements constant-factor offline algorithms for the remote-matching and
remote-pseudoforest objectives, composable coreset constructions for both,
exact evaluators and brute-force oracles for verification, and the
threshold-graph / tree-metric machinery the guarantees rest on.
"""

__version__ = "0.1.0"

from .composition import (
    PartitionedDataset,
    PipelineReport,
    brute_force_diversity,
    compose_coresets,
    run_pipeline,
    split_dataset,
)
from .coresets import Coreset, StPair, find_separated_sets, k_outlier_radius, mwm_coreset, pf_coreset
from .costs import (
    SubsetCostReport,
    ThresholdComponents,
    mst_component_sum,
    mst_cost,
    mwm_exact,
    pf_cost,
    threshold_components,
)
from .errors import InternalInvariantError, PreconditionError
from .gmm import GmmResult, VoronoiPartition, gmm, voronoi_partition
from .hst import Hst, build_hst, embed_subset, hst_distance, hst_mwm_odd_count, verify_random_subset_bound
from .matching import MatchingOfflineTrace, mwm_offline
from .metric import (
    ClampedMetric,
    Objective,
    PointSet,
    RunConfig,
    diameter,
    dump_pointset,
    load_pointset,
)
from .nets import NetTree, build_net_tree, dp_antichain, pf_offline, rescale_and_clamp
from .results import DiversitySolution

__all__ = [
    "__version__",
    "PointSet",
    "ClampedMetric",
    "RunConfig",
    "Objective",
    "diameter",
    "load_pointset",
    "dump_pointset",
    "SubsetCostReport",
    "ThresholdComponents",
    "mwm_exact",
    "mst_cost",
    "pf_cost",
    "threshold_components",
    "mst_component_sum",
    "GmmResult",
    "VoronoiPartition",
    "gmm",
    "voronoi_partition",
    "MatchingOfflineTrace",
    "mwm_offline",
    "NetTree",
    "rescale_and_clamp",
    "build_net_tree",
    "dp_antichain",
    "pf_offline",
    "Coreset",
    "StPair",
    "k_outlier_radius",
    "find_separated_sets",
    "pf_coreset",
    "mwm_coreset",
    "PartitionedDataset",
    "PipelineReport",
    "split_dataset",
    "compose_coresets",
    "brute_force_diversity",
    "run_pipeline",
    "Hst",
    "build_hst",
    "embed_subset",
    "hst_distance",
    "hst_mwm_odd_count",
    "verify_random_subset_bound",
    "DiversitySolution",
    "PreconditionError",
    "InternalInvariantError",
]

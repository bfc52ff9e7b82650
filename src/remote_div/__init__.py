"""remote-div: a metric-space diversity-maximization toolkit.

Implements constant-factor offline algorithms for the remote-matching and
remote-pseudoforest objectives, composable coreset constructions for both,
exact evaluators and brute-force oracles for verification, and the
threshold-graph / tree-metric machinery the guarantees rest on.

Every public name below is imported from its module on first access
(PEP 562), so `import remote_div` loads only `errors`, `metric` and `gmm`,
and a caller pays for the layers it uses.
"""
from importlib import import_module

# `gmm` names both a submodule and its function, and importing a submodule
# binds the package attribute to the module; bound here first, the function
# keeps the name.
from .gmm import gmm

__version__ = "0.1.0"

# Public name -> the module that defines it, in `__all__` order.
_EXPORTS = {
    "PointSet": "metric",
    "ClampedMetric": "metric",
    "RunConfig": "metric",
    "Objective": "metric",
    "diameter": "metric",
    "load_pointset": "metric",
    "dump_pointset": "metric",
    "SubsetCostReport": "costs",
    "ThresholdComponents": "costs",
    "mwm_exact": "costs",
    "mst_cost": "costs",
    "pf_cost": "costs",
    "threshold_components": "costs",
    "mst_component_sum": "costs",
    "GmmResult": "gmm",
    "gmm": "gmm",
    "voronoi_partition": "gmm",
    "MatchingOfflineTrace": "matching",
    "mwm_offline": "matching",
    "NetTree": "nets",
    "rescale_and_clamp": "nets",
    "build_net_tree": "nets",
    "dp_antichain": "nets",
    "pf_offline": "nets",
    "Coreset": "coresets",
    "StPair": "coresets",
    "k_outlier_radius": "coresets",
    "find_separated_sets": "coresets",
    "pf_coreset": "coresets",
    "mwm_coreset": "coresets",
    "PipelineReport": "composition",
    "split_dataset": "composition",
    "compose_coresets": "composition",
    "brute_force_diversity": "composition",
    "run_pipeline": "composition",
    "Hst": "hst",
    "build_hst": "hst",
    "embed_subset": "hst",
    "hst_distance": "hst",
    "hst_mwm_odd_count": "hst",
    "verify_random_subset_bound": "hst",
    "DiversitySolution": "results",
    "PreconditionError": "errors",
    "InternalInvariantError": "errors",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

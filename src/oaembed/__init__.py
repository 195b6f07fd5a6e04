"""Outlier-aware embedding of attributed networks.

Joint weighted factorization of a graph's adjacency and node-attribute
matrices with an orthogonal alignment between the two embeddings, per-node
outlier scores that down-weight poorly fitting nodes, plus tooling to plant
ground-truth outliers and score the results.

Each public name, the submodules included, loads on first use (PEP 562):
`import oaembed` imports no submodule, and `oaembed.fit` imports `core` and
what it needs the first time it is read. So a process that runs one part of
the package, such as `oaembed rank-outliers`, pays only for that part. The
first read binds the name here, as an eager import would have bound it, so
later reads cost no more than a plain attribute.
"""

__version__ = "0.1.0"

# defining module -> the public names it holds
_NAMES = {
    "core": ("FactorModel", "FitDiagnostics", "HyperParams", "OutlierScores", "default_dim",
             "fit"),
    "errors": ("ConfigError", "NumericError", "ParseError"),
    "evaluation": ("EvalReport", "clustering_accuracy", "evaluate_all", "f1_scores",
                   "kmeans_pp_full", "recall_at"),
    "network": ("AttributedNetwork", "EmbeddingResult", "load_network", "save_network",
                "save_result"),
    "seeding": ("OUTLIER_KINDS", "PlantedNode", "SeededDataset", "SeedingPlan", "load_truth",
                "save_truth", "seed_outliers", "synth_network"),
    "tables": ("final_outlier_score", "rank_nodes"),
}
# public name -> its defining module; six submodules are public names too
_HOME = {name: module for module, names in _NAMES.items() for name in names}
_HOME.update((m, m) for m in ("core", "errors", "evaluation", "network", "numerics", "seeding"))

__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{home}")
    value = module if name == home else getattr(module, name)
    globals()[name] = value  # later reads are plain module attributes
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

"""Outlier-aware embedding of attributed networks.

Joint weighted factorization of a graph's adjacency and node-attribute
matrices with an orthogonal alignment between the two embeddings, per-node
outlier scores that down-weight poorly fitting nodes, plus tooling to plant
ground-truth outliers and score the results.
"""

__version__ = "0.1.0"

from .core import (FactorModel, FitDiagnostics, HyperParams, OutlierScores,
                   budget_scores, calibrate_weights, default_dim, final_embedding,
                   final_outlier_score, fit, loss_joint, update_alignment,
                   update_attr_basis, update_attr_embed, update_struct_context,
                   update_struct_embed)
from .errors import ConfigError, NumericError, ParseError
from .evaluation import (Classifier, EvalReport, clustering_accuracy, evaluate_all,
                         f1_scores, kmeans_pp_full, predict, rank_nodes,
                         recall_at, train_classifier)
from .network import (AttributedNetwork, EmbeddingResult, load_network, load_result,
                      save_network, save_result)
from .seeding import (OUTLIER_KINDS, PlantedNode, SeededDataset, SeedingPlan,
                      load_truth, save_truth, seed_outliers, synth_network)

__all__ = [name for name in dir() if not name.startswith("_")]

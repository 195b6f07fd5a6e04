"""The package root's public names, which load on first use."""

import importlib

import pytest

import oaembed

# each public name of `oaembed` and the module that defines it
HOMES = {
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
SUBMODULES = ("core", "errors", "evaluation", "network", "numerics", "seeding")
PUBLIC = sorted([*SUBMODULES, *(name for names in HOMES.values() for name in names)])


# the score solver and the five update sweeps: tests and the benchmark reach
# them in oaembed.core, not at the root
CORE_KERNELS = ("budget_scores", "update_alignment", "update_attr_basis", "update_attr_embed",
               "update_struct_context", "update_struct_embed")


def test_all_lists_the_36_public_names():
    assert len(PUBLIC) == 36
    assert sorted(oaembed.__all__) == PUBLIC


@pytest.mark.parametrize("name", CORE_KERNELS)
def test_kernel_resolves_in_core_and_not_at_the_root(name):
    assert callable(getattr(importlib.import_module("oaembed.core"), name))
    assert name not in oaembed.__all__
    with pytest.raises(AttributeError, match=name):
        getattr(oaembed, name)


# no public function returns a Classifier: evaluate_all trains and scores its
# own, and tests and the benchmark reach these two in oaembed.evaluation
@pytest.mark.parametrize("name", ("Classifier", "predict"))
def test_classifier_resolves_in_evaluation_and_not_at_the_root(name):
    assert callable(getattr(importlib.import_module("oaembed.evaluation"), name))
    assert name not in oaembed.__all__
    with pytest.raises(AttributeError, match=name):
        getattr(oaembed, name)


@pytest.mark.parametrize("module,name", [(m, n) for m, names in HOMES.items() for n in names]
                         + [(m, m) for m in SUBMODULES])
def test_each_public_name_is_its_defining_module_s_object(module, name):
    home = importlib.import_module(f"oaembed.{module}")
    assert getattr(oaembed, name) is (home if name == module else getattr(home, name))


def test_dir_lists_every_public_name():
    assert set(PUBLIC) <= set(dir(oaembed))


def test_unknown_attribute_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        oaembed.no_such_name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from oaembed import *", namespace)
    assert set(PUBLIC) <= set(namespace)

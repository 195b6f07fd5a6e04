import argparse
import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oaembed
from helpers import run_cli
from oaembed import cli
from oaembed.core import HyperParams, default_dim
from oaembed.evaluation import rank_nodes
from oaembed.network import load_scores_tsv, save_network
from oaembed.seeding import SeedingPlan, synth_network


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A small labeled network saved in the loader's file formats."""
    root = tmp_path_factory.mktemp("data")
    net = synth_network(60, 3, 0.3, 0.02, 30, 0.9, seed=1)
    paths = save_network(net, str(root))
    return {"net": net, **paths}


@pytest.fixture(scope="module")
def seeded(dataset, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("seeded"))
    code, stdout, _ = run_cli("seed", "--edges", dataset["edges"],
                              "--attrs", dataset["attributes"],
                              "--labels", dataset["labels"],
                              "--out", out, "--fraction", "0.05", "--seed", "3")
    assert code == 0, stdout
    return {"out": out,
            "edges": os.path.join(out, "edges.txt"),
            "attrs": os.path.join(out, "attributes.txt"),
            "labels": os.path.join(out, "labels.txt"),
            "truth": os.path.join(out, "outliers.tsv"),
            "stdout": stdout}


@pytest.fixture(scope="module")
def embedded(seeded, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("embedded"))
    code, stdout, stderr = run_cli("embed", "--edges", seeded["edges"],
                                   "--attrs", seeded["attrs"],
                                   "--labels", seeded["labels"],
                                   "--out", out, "--k", "4", "--iters", "3",
                                   "--init-iters", "60", "--seed", "3")
    assert code == 0, stderr
    return {"out": out,
            "embedding": os.path.join(out, "embedding.tsv"),
            "scores": os.path.join(out, "scores.tsv"),
            "loss": os.path.join(out, "loss.tsv"),
            "stdout": stdout}


def test_version_and_usage():
    code, stdout, _ = run_cli("--version")
    assert code == 0
    assert stdout.startswith("oaembed ")
    code, _, _ = run_cli()
    assert code == 2  # a subcommand is required
    code, stdout, _ = run_cli("--help")
    assert code == 0
    for sub in ("seed", "embed", "rank-outliers", "evaluate"):
        assert sub in stdout


def test_seed_outputs(seeded):
    for key in ("edges", "attrs", "labels", "truth"):
        assert os.path.isfile(seeded[key])
    lines = seeded["stdout"].splitlines()
    assert lines[0] == "nodes\tedges\tclasses\tattributes"
    nodes, _edges, classes, attrs = (int(x) for x in lines[1].split("\t"))
    assert nodes == 63  # ceil(0.05 * 60) = 3 planted
    assert classes == 3 and attrs == 30
    assert lines[2] == "planted\t3"
    with open(seeded["truth"], encoding="utf-8") as fh:
        assert sum(1 for line in fh if line.strip()) == 3


def test_seed_label_name_it_cannot_save_exits_2(dataset, tmp_path):
    labels = Path(dataset["labels"]).read_text(encoding="utf-8").replace(" class1", " %c1")
    (tmp_path / "labels.txt").write_text(labels, encoding="utf-8")
    out = tmp_path / "out"
    code, _, stderr = run_cli("seed", "--edges", dataset["edges"],
                              "--attrs", dataset["attributes"],
                              "--labels", str(tmp_path / "labels.txt"), "--out", str(out))
    assert code == 2 and "'%c1'" in stderr
    assert not out.exists()


def test_seed_rerun_byte_identical(dataset, tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        code, _, _ = run_cli("seed", "--edges", dataset["edges"],
                             "--attrs", dataset["attributes"],
                             "--labels", dataset["labels"],
                             "--out", out, "--seed", "11")
        assert code == 0
        outs.append(out)
    for name in ("edges.txt", "attributes.txt", "labels.txt", "outliers.tsv"):
        with open(os.path.join(outs[0], name), "rb") as fh:
            first = fh.read()
        with open(os.path.join(outs[1], name), "rb") as fh:
            assert fh.read() == first, name


def test_seed_fraction_zero(dataset, tmp_path):
    out = str(tmp_path / "none")
    code, stdout, _ = run_cli("seed", "--edges", dataset["edges"],
                              "--attrs", dataset["attributes"],
                              "--labels", dataset["labels"],
                              "--out", out, "--fraction", "0")
    assert code == 0
    assert "planted\t0" in stdout
    with open(os.path.join(out, "outliers.tsv"), encoding="utf-8") as fh:
        assert fh.read() == ""


def test_embed_outputs(embedded):
    for key in ("embedding", "scores", "loss"):
        assert os.path.isfile(embedded[key])
    lines = embedded["stdout"].splitlines()
    assert lines[0] == "k\t4"
    losses = []
    for i, line in enumerate(lines[1:], 1):
        toks = line.split("\t")
        assert toks[:2] == ["iter", str(i)] and toks[2] == "loss"
        losses.append(float(toks[3]))
    assert len(losses) == 3
    assert all(a >= b - 1e-9 * abs(a) for a, b in zip(losses, losses[1:]))

    names, comps, combined = load_scores_tsv(embedded["scores"])
    assert len(names) == 63
    assert comps.shape == (63, 3)
    for col in range(3):
        assert comps[:, col].sum() == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(combined, comps @ [0.25, 0.5, 0.25], atol=1e-12)


def test_embed_default_k_from_labels(seeded, tmp_path):
    out = str(tmp_path / "defk")
    code, stdout, _ = run_cli("embed", "--edges", seeded["edges"],
                              "--attrs", seeded["attrs"],
                              "--labels", seeded["labels"],
                              "--out", out, "--iters", "1", "--init-iters", "30")
    assert code == 0
    assert stdout.splitlines()[0] == "k\t9"  # 3 classes x 3


def test_embed_default_k_needs_labels(seeded, tmp_path):
    code, _, stderr = run_cli("embed", "--edges", seeded["edges"],
                              "--attrs", seeded["attrs"],
                              "--out", str(tmp_path / "nolab"),
                              "--iters", "1")
    assert code == 2
    assert "label" in stderr


def test_embed_rerun_byte_identical(seeded, tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        code, _, _ = run_cli("embed", "--edges", seeded["edges"],
                             "--attrs", seeded["attrs"],
                             "--labels", seeded["labels"],
                             "--out", out, "--k", "3", "--iters", "2",
                             "--init-iters", "40", "--seed", "5")
        assert code == 0
        outs.append(out)
    for name in ("embedding.tsv", "scores.tsv", "loss.tsv"):
        with open(os.path.join(outs[0], name), "rb") as fh:
            first = fh.read()
        with open(os.path.join(outs[1], name), "rb") as fh:
            assert fh.read() == first, name


def test_embed_threads_option_removed_exits_2(seeded, tmp_path):
    code, _, stderr = run_cli("embed", "--edges", seeded["edges"],
                              "--attrs", seeded["attrs"],
                              "--labels", seeded["labels"],
                              "--out", str(tmp_path / "thr"), "--iters", "1",
                              "--threads", "2")
    assert code == 2
    assert "--threads" in stderr


@pytest.mark.parametrize("flag,value", [("loss-tol", "1e-4"), ("score-floor", "1e-9")])
@pytest.mark.parametrize("via_config", [False, True])
def test_embed_stop_rule_and_floor_options_removed_exit_2(seeded, tmp_path, flag, value,
                                                          via_config):
    # a fit always runs its --iters rounds at the fixed score floor
    if via_config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag}={value}\n")
        given = ["--config", str(cfg)]
    else:
        given = [f"--{flag}", value]
    code, _, stderr = run_cli("embed", "--edges", seeded["edges"], "--attrs", seeded["attrs"],
                              "--labels", seeded["labels"], "--out", str(tmp_path / "x"),
                              "--iters", "1", *given)
    assert code == 2
    assert flag in stderr
    assert not (tmp_path / "x").exists()


def test_missing_input_exits_1(tmp_path):
    code, _, stderr = run_cli("embed", "--edges", "/nonexistent/edges.txt",
                              "--attrs", "/nonexistent/attrs.txt",
                              "--out", str(tmp_path / "x"), "--k", "2")
    assert code == 1
    assert "/nonexistent/edges.txt" in stderr


def test_malformed_input_exits_1(tmp_path):
    edges = tmp_path / "edges.txt"
    edges.write_text("a b c d\n")
    attrs = tmp_path / "attrs.txt"
    attrs.write_text("a 1.0\nb 2.0\n")
    code, _, stderr = run_cli("embed", "--edges", str(edges),
                              "--attrs", str(attrs),
                              "--out", str(tmp_path / "x"), "--k", "1")
    assert code == 1
    assert "edges.txt:1" in stderr


def test_missing_required_option_exits_2(dataset, tmp_path):
    code, _, stderr = run_cli("seed", "--edges", dataset["edges"],
                              "--attrs", dataset["attributes"],
                              "--out", str(tmp_path / "x"))
    assert code == 2
    assert "--labels" in stderr


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numeric_overflow_exits_3(tmp_path):
    attrs = tmp_path / "attrs.txt"
    attrs.write_text("a 1e160 1e160\nb 1e160 2e160\nc 3e160 1e160\n")
    edges = tmp_path / "edges.txt"
    edges.write_text("a b\nb c\n")
    code, _, stderr = run_cli("embed", "--edges", str(edges),
                              "--attrs", str(attrs),
                              "--out", str(tmp_path / "x"), "--k", "1")
    assert code == 3
    assert "error:" in stderr


def test_rank_outliers_outputs(embedded, tmp_path):
    out = str(tmp_path / "rank")
    code, stdout, _ = run_cli("rank-outliers", "--scores", embedded["scores"],
                              "--out", out)
    assert code == 0
    assert stdout == "ranked\t63\n"
    names, comps, combined = load_scores_tsv(embedded["scores"])
    with open(os.path.join(out, "ranked.tsv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "rank\tnode\tscore"
    rows = [line.split("\t") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(1, 64))
    assert sorted(r[1] for r in rows) == sorted(names)
    ranked_scores = [float(r[2]) for r in rows]
    assert all(a >= b for a, b in zip(ranked_scores, ranked_scores[1:]))
    want_order = [names[i] for i in rank_nodes(combined)]
    assert [r[1] for r in rows] == want_order


def test_rank_outliers_custom_weights(embedded, tmp_path):
    out = str(tmp_path / "rankw")
    code, _, _ = run_cli("rank-outliers", "--scores", embedded["scores"],
                         "--out", out, "--weights", "0,1,0")
    assert code == 0
    names, comps, _ = load_scores_tsv(embedded["scores"])
    with open(os.path.join(out, "ranked.tsv"), encoding="utf-8") as fh:
        rows = [line.split("\t") for line in fh.read().splitlines()[1:]]
    want_order = [names[i] for i in rank_nodes(comps[:, 1])]
    assert [r[1] for r in rows] == want_order


def test_weights_reproduce_the_stored_combined_column(seeded, tmp_path, monkeypatch):
    """rank-outliers --weights and evaluate --weights recombine the stored
    components exactly as embed --combine-weights combined them."""
    weights = "0.2,0.3,0.5"  # not powers of two, so a second formula rounds differently
    emb = tmp_path / "emb"
    code, _, stderr = run_cli("embed", "--edges", seeded["edges"], "--attrs", seeded["attrs"],
                              "--out", str(emb), "--k", "4", "--iters", "3",
                              "--init-iters", "60", "--seed", "3", "--combine-weights", weights)
    assert code == 0, stderr
    scores = str(emb / "scores.tsv")
    _, _, stored = load_scores_tsv(scores)

    ranked = []
    for extra in ([], ["--weights", weights]):
        out = tmp_path / f"rank{len(extra)}"
        assert run_cli("rank-outliers", "--scores", scores, "--out", str(out), *extra)[0] == 0
        ranked.append((out / "ranked.tsv").read_bytes())
    assert ranked[1] == ranked[0]

    seen = []
    evaluate_all = cli.evaluate_all

    def recording(net, result, *args, **kwargs):
        seen.append(result.outlier_scores)
        return evaluate_all(net, result, *args, **kwargs)

    monkeypatch.setattr(cli, "evaluate_all", recording)
    code, _, stderr = run_cli("evaluate", "--edges", seeded["edges"], "--attrs", seeded["attrs"],
                              "--labels", seeded["labels"], "--truth", seeded["truth"],
                              "--embedding", str(emb / "embedding.tsv"), "--scores", scores,
                              "--out", str(tmp_path / "eval"), "--splits", "30:30:10",
                              "--reps", "1", "--weights", weights)
    assert code == 0, stderr
    assert seen[0].tobytes() == stored.tobytes()


@pytest.mark.parametrize("weights", ["0.5,0.5", "0.2,0.2,0.2", "-0.5,1.0,0.5",
                                     "a,b,c"])
def test_rank_outliers_bad_weights_exit_2(embedded, tmp_path, weights):
    code, _, _ = run_cli("rank-outliers", "--scores", embedded["scores"],
                         "--out", str(tmp_path / "x"), "--weights", weights)
    assert code == 2


def test_config_file_defaults_and_precedence(dataset, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"edges={dataset['edges']}\n"
                   f"attrs={dataset['attributes']}\n"
                   f"labels={dataset['labels']}\n"
                   "fraction=0.10\n"
                   "# comment lines are skipped\n"
                   f"out={tmp_path / 'cfg_out'}\n")
    code, stdout, _ = run_cli("seed", "--config", str(cfg))
    assert code == 0
    assert "planted\t6" in stdout  # ceil(0.10 * 60)

    code, stdout, _ = run_cli("seed", "--config", str(cfg),
                              "--fraction", "0.05",
                              "--out", str(tmp_path / "cli_out"))
    assert code == 0
    assert "planted\t3" in stdout  # command line beats the config file


def test_config_unknown_key_exits_2(dataset, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no-such-option=1\n")
    code, _, stderr = run_cli("seed", "--config", str(cfg),
                              "--edges", dataset["edges"],
                              "--attrs", dataset["attributes"],
                              "--labels", dataset["labels"],
                              "--out", str(tmp_path / "x"))
    assert code == 2
    assert "no-such-option" in stderr


def test_config_missing_file_exits_1(tmp_path):
    missing = str(tmp_path / "absent.cfg")
    code, _, stderr = run_cli("seed", "--config", missing)
    assert code == 1
    assert missing in stderr


def test_evaluate_outputs(seeded, embedded, tmp_path):
    out = str(tmp_path / "eval")
    code, stdout, _ = run_cli("evaluate", "--edges", seeded["edges"],
                              "--attrs", seeded["attrs"],
                              "--labels", seeded["labels"],
                              "--embedding", embedded["embedding"],
                              "--scores", embedded["scores"],
                              "--truth", seeded["truth"],
                              "--out", out, "--splits", "30:40:10",
                              "--reps", "2", "--seed", "1")
    assert code == 0
    with open(os.path.join(out, "report.tsv"), encoding="utf-8") as fh:
        assert stdout == fh.read()
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert set(doc["recall_at"]) == {"5", "10", "15", "20", "25"}
    assert set(doc["f1"]) == {"30", "40"}
    assert 0.0 <= doc["clustering_accuracy"] <= 1.0
    for v in doc["recall_at"].values():
        assert 0.0 <= v <= 1.0
    assert doc["config"]["reps"] == 2


def test_evaluate_exclude_outliers_flag(seeded, embedded, tmp_path):
    code, _, _ = run_cli("evaluate", "--edges", seeded["edges"],
                         "--attrs", seeded["attrs"],
                         "--labels", seeded["labels"],
                         "--embedding", embedded["embedding"],
                         "--scores", embedded["scores"],
                         "--truth", seeded["truth"],
                         "--out", str(tmp_path / "evalx"),
                         "--splits", "30:30:10", "--reps", "1",
                         "--exclude-outliers")
    assert code == 0


def test_evaluate_exclude_every_node_exits_2(seeded, embedded, tmp_path):
    with open(seeded["labels"], encoding="utf-8") as fh:
        names = [line.split()[0] for line in fh if line.strip()]
    truth = tmp_path / "everyone.tsv"
    truth.write_text("".join(f"{name} combined\n" for name in names))
    out = tmp_path / "x"
    code, _, stderr = run_cli("evaluate", "--edges", seeded["edges"],
                              "--attrs", seeded["attrs"],
                              "--labels", seeded["labels"],
                              "--embedding", embedded["embedding"],
                              "--scores", embedded["scores"],
                              "--truth", str(truth), "--out", str(out),
                              "--splits", "30:30:10", "--reps", "1",
                              "--exclude-outliers")
    assert code == 2
    assert "exclude_outliers" in stderr
    assert not (out / "report.json").exists()


def test_evaluate_misaligned_embedding_exits_2(dataset, seeded, embedded,
                                               tmp_path):
    # embedding built from the unseeded dataset: 60 rows against 63 nodes
    small = str(tmp_path / "small")
    code, _, _ = run_cli("embed", "--edges", dataset["edges"],
                         "--attrs", dataset["attributes"],
                         "--labels", dataset["labels"],
                         "--out", small, "--k", "2", "--iters", "1",
                         "--init-iters", "30")
    assert code == 0
    code, _, stderr = run_cli("evaluate", "--edges", seeded["edges"],
                              "--attrs", seeded["attrs"],
                              "--labels", seeded["labels"],
                              "--embedding", os.path.join(small, "embedding.tsv"),
                              "--scores", os.path.join(small, "scores.tsv"),
                              "--truth", seeded["truth"],
                              "--out", str(tmp_path / "x"))
    assert code == 2
    assert "not match" in stderr


def test_evaluate_bad_splits_exit_2(seeded, embedded, tmp_path):
    code, _, _ = run_cli("evaluate", "--edges", seeded["edges"],
                         "--attrs", seeded["attrs"],
                         "--labels", seeded["labels"],
                         "--embedding", embedded["embedding"],
                         "--scores", embedded["scores"],
                         "--truth", seeded["truth"],
                         "--out", str(tmp_path / "x"),
                         "--splits", "50:10:10")
    assert code == 2


def test_evaluate_zero_reps_exits_2(seeded, embedded, tmp_path):
    out = tmp_path / "x"
    code, _, stderr = run_cli("evaluate", "--edges", seeded["edges"],
                              "--attrs", seeded["attrs"],
                              "--labels", seeded["labels"],
                              "--embedding", embedded["embedding"],
                              "--scores", embedded["scores"],
                              "--truth", seeded["truth"],
                              "--out", str(out), "--reps", "0")
    assert code == 2
    assert "reps" in stderr
    assert not (out / "report.json").exists()


def test_cli_import_leaves_scipy_optimize_unloaded():
    # every CLI process pays for its imports; only clustering needs scipy.optimize
    code = "import sys, oaembed.cli; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(oaembed.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    assert out.stdout.strip() == "False"


def test_evaluate_all_leaves_scipy_optimize_unloaded():
    # the clustering score's matching is solved in numpy, so a full
    # evaluation, clustering included, never pays for the scipy.optimize import
    code = "\n".join([
        "import sys",
        "from oaembed import HyperParams, SeedingPlan, evaluate_all, fit",
        "from oaembed import seed_outliers, synth_network",
        "net = synth_network(60, 3, 0.3, 0.02, 30, 0.9, seed=1)",
        "seeded = seed_outliers(net, SeedingPlan(total_fraction=0.1, seed=1))",
        "result = fit(seeded.network, HyperParams(dim=4, seed=1))[2]",
        "report = evaluate_all(seeded.network, result, seeded.outlier_ids,",
        "                      splits=(20, 50), reps=2)",
        "assert 0.0 < report.clustering_accuracy <= 1.0",
        "print('scipy.optimize' in sys.modules)",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(oaembed.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    assert out.stdout.strip() == "False"


# Every flag of the four subcommands, with a value each accepts.
SURFACE = {
    "seed": {"edges": "e.txt", "attrs": "a.txt", "labels": "l.txt", "out": "o",
             "fraction": "0.1", "band": "0.2", "seed": "3"},
    "embed": {"edges": "e.txt", "attrs": "a.txt", "labels": "l.txt", "out": "o", "k": "4",
              "iters": "2", "attr-weight": "0.5", "dis-weight": "0.5",
              "combine-weights": "0.2,0.3,0.5", "init-iters": "30", "seed": "3"},
    "rank-outliers": {"scores": "s.tsv", "out": "o", "weights": "0,1,0"},
    "evaluate": {"edges": "e.txt", "attrs": "a.txt", "labels": "l.txt", "embedding": "m.tsv",
                 "scores": "s.tsv", "truth": "t.tsv", "out": "o", "splits": "10:30:10",
                 "reps": "2", "weights": "0,1,0", "exclude-outliers": "true", "seed": "3"},
}
REQUIRED = {"seed": ("edges", "attrs", "labels", "out"), "embed": ("edges", "attrs", "out"),
            "rank-outliers": ("scores", "out"),
            "evaluate": ("edges", "attrs", "labels", "embedding", "scores", "truth", "out")}


@pytest.mark.parametrize("sub,flag", [(sub, flag) for sub, flags in SURFACE.items()
                                      for flag in flags])
def test_every_flag_works_on_the_command_line_and_as_a_config_key(sub, flag, tmp_path):
    flags = SURFACE[sub]
    required = [tok for key in REQUIRED[sub] if key != flag for tok in (f"--{key}", flags[key])]
    parser = cli._build_parser()
    given = vars(parser.parse_args([sub, *required, f"--{flag}", flags[flag]]))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag}={flags[flag]}\n")
    from_config = vars(parser.parse_args(cli._with_config([sub, *required,
                                                          "--config", str(cfg)])))
    assert from_config.pop("config") == str(cfg)
    assert from_config == given
    if flag in REQUIRED[sub]:
        with pytest.raises(SystemExit):
            parser.parse_args([sub, *required])
    else:  # the flag sets one value; an option not given is not passed on
        assert len(given) == len(vars(parser.parse_args([sub, *required]))) + 1


@pytest.mark.parametrize("sub,lib", [("embed", HyperParams), ("seed", SeedingPlan)])
def test_library_fields_and_options_are_one_to_one(sub, lib):
    # every field has exactly one option and every option not named by the
    # handler sets a field, so deleting either side alone fails here
    subparsers = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    dests = [a.dest for a in subparsers.choices[sub]._actions if a.dest not in ("help", "config")]
    handler = cli._SUBCOMMANDS[sub][1]
    own = [p.name for p in inspect.signature(handler).parameters.values()
           if p.kind is not p.VAR_KEYWORD]
    assert len(dests) == len(set(dests))
    assert sorted(dests) == sorted(own + [f.name for f in dataclasses.fields(lib)])


@pytest.mark.parametrize("how", ["flag", "config"])
def test_embed_has_no_budget_option(dataset, tmp_path, how):
    # each score vector sums to 1, as in the paper
    cfg = tmp_path / "run.cfg"
    cfg.write_text("budget=1\n")
    given = ["--budget", "1"] if how == "flag" else ["--config", str(cfg)]
    code, _, stderr = run_cli("embed", *given, "--edges", dataset["edges"],
                              "--attrs", dataset["attributes"], "--labels", dataset["labels"],
                              "--out", str(tmp_path / "x"))
    assert code == 2
    assert "budget" in stderr
    assert not (tmp_path / "x").exists()


def test_required_options_alone_run_the_library_defaults(dataset, tmp_path, monkeypatch):
    seen = {}

    def recording(name, real):
        def call(*args, **kwargs):
            seen[name] = (args, kwargs)
            return real(*args, **kwargs)
        return call

    for name in ("seed_outliers", "fit", "evaluate_all"):
        monkeypatch.setattr(cli, name, recording(name, getattr(cli, name)))
    seeded = tmp_path / "seeded"
    assert run_cli("seed", "--edges", dataset["edges"], "--attrs", dataset["attributes"],
                   "--labels", dataset["labels"], "--out", str(seeded))[0] == 0
    (_net, plan), kwargs = seen["seed_outliers"]
    assert plan == SeedingPlan() and kwargs == {}

    inputs = ["--edges", str(seeded / "edges.txt"), "--attrs", str(seeded / "attributes.txt"),
              "--labels", str(seeded / "labels.txt")]
    emb = tmp_path / "emb"
    assert run_cli("embed", *inputs, "--out", str(emb))[0] == 0
    (net, hp), kwargs = seen["fit"]
    assert hp == HyperParams(dim=default_dim(net)) and kwargs == {}

    code, _, stderr = run_cli("evaluate", *inputs, "--embedding", str(emb / "embedding.tsv"),
                              "--scores", str(emb / "scores.tsv"),
                              "--truth", str(seeded / "outliers.tsv"),
                              "--out", str(tmp_path / "eval"))
    assert code == 0, stderr
    args, kwargs = seen["evaluate_all"]
    assert len(args) == 3 and kwargs == {}  # splits, reps, seed and exclude_outliers: its own


def test_config_exclude_outliers_false_yields_to_the_bare_flag(seeded, embedded, tmp_path,
                                                               monkeypatch):
    seen = []
    evaluate_all = cli.evaluate_all

    def recording(*args, **kwargs):
        seen.append(kwargs["exclude_outliers"])
        return evaluate_all(*args, **kwargs)

    monkeypatch.setattr(cli, "evaluate_all", recording)
    cfg = tmp_path / "eval.cfg"
    cfg.write_text("exclude-outliers=false\nsplits=30:30:10\nreps=1\n")
    argv = ["evaluate", "--edges", seeded["edges"], "--attrs", seeded["attrs"],
            "--labels", seeded["labels"], "--embedding", embedded["embedding"],
            "--scores", embedded["scores"], "--truth", seeded["truth"], "--config", str(cfg)]
    for i, extra in enumerate(([], ["--exclude-outliers"], ["--exclude-outliers=no"])):
        code, _, stderr = run_cli(*argv, "--out", str(tmp_path / str(i)), *extra)
        assert code == 0, stderr
    assert seen == [False, True, False]


@pytest.mark.parametrize("line,named", [("fraction=abc", "--fraction"), ("seed=1.5", "--seed"),
                                        ("band=", "--band"), ("frac=0.1", "frac")])
def test_config_bad_value_or_abbreviated_key_exits_2(dataset, tmp_path, line, named):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code, _, stderr = run_cli("seed", "--config", str(cfg), "--edges", dataset["edges"],
                              "--attrs", dataset["attributes"], "--labels", dataset["labels"],
                              "--out", str(tmp_path / "x"))
    assert code == 2
    assert named in stderr
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("column,cell", [(4, "nan"), (1, "inf")])
def test_rank_outliers_non_finite_score_exits_1(embedded, tmp_path, column, cell):
    lines = Path(embedded["scores"]).read_text(encoding="utf-8").splitlines()
    cells = lines[5].split("\t")
    cells[column] = cell
    lines[5] = "\t".join(cells)
    scores = tmp_path / "scores.tsv"
    scores.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "rank"
    code, _, stderr = run_cli("rank-outliers", "--scores", str(scores), "--out", str(out))
    assert code == 1
    assert "non-finite" in stderr and str(scores) in stderr
    assert not (out / "ranked.tsv").exists()


def test_rank_outliers_duplicate_node_row_exits_1(embedded, tmp_path):
    lines = Path(embedded["scores"]).read_text(encoding="utf-8").splitlines()
    node = lines[3].split("\t", 1)[0]
    scores = tmp_path / "scores.tsv"
    scores.write_text("\n".join(lines + [lines[3]]) + "\n", encoding="utf-8")
    out = tmp_path / "rank"
    code, _, stderr = run_cli("rank-outliers", "--scores", str(scores), "--out", str(out))
    assert code == 1
    assert f"duplicate row for node {node!r}" in stderr and str(scores) in stderr
    assert not (out / "ranked.tsv").exists()


def test_ambiguous_abbreviation_is_not_read_as_a_config_file(tmp_path):
    code, _, stderr = run_cli("embed", "--co", "0.2,0.3,0.5", "--edges", "e.txt",
                              "--attrs", "a.txt", "--out", str(tmp_path / "x"))
    assert code == 2
    assert "--combine-weights" in stderr and "--config" in stderr

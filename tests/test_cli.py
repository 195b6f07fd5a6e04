import argparse
import dataclasses
import inspect
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oaembed
from helpers import run_cli
from oaembed import cli
from oaembed.core import HyperParams, default_dim
from oaembed.network import save_network
from oaembed.seeding import SeedingPlan, synth_network
from oaembed.tables import SCORE_COLUMNS, final_outlier_score, load_scores_tsv, rank_nodes


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
                                   "--init-passes", "20", "--seed", "3")
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


@pytest.mark.parametrize("sub,shown", [("seed", "plant (default 0.05)"),
                                       ("embed", "rounds (default 15)"),
                                       ("evaluate", "percentage (default 10)"),
                                       ("rank-outliers", "mix (default 0.25,0.5,0.25)"),
                                       ("evaluate", "mix (default 0.25,0.5,0.25)")])
def test_subcommand_help_shows_the_library_defaults(sub, shown):
    # printing the help looks up the defaults of the subcommand's options
    code, stdout, _ = run_cli(sub, "--help")
    assert code == 0
    assert shown in " ".join(stdout.split())


@pytest.mark.parametrize("sub", list(cli._SUBCOMMANDS))
def test_every_default_the_help_shows_parses_back(sub):
    # a user who types the shown default gets the library default
    subparsers = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    parser = subparsers.choices[sub]
    formatter = parser._get_formatter()
    libs = [getattr(getattr(oaembed, module), name) for module, name in
            (lib.split(".") for lib in cli._SUBCOMMANDS[sub][2])]
    checked = []
    for action in parser._actions:
        text = formatter._get_help_string(action) or ""
        if not text.endswith(")") or " (default " not in text:
            continue
        shown = text.rpartition(" (default ")[2][:-1]
        default = next(p.default for fn in libs
                       if (p := inspect.signature(fn).parameters.get(action.dest)) is not None
                       and p.default not in (None, p.empty))
        assert (action.type or str)(shown) == default, (action.dest, shown)
        checked.append(action.dest)
    assert checked and len(checked) == len(set(checked))


@pytest.mark.parametrize("sub", ["rank-outliers", "evaluate"])
def test_weights_help_reads_the_mix_from_final_outlier_score(monkeypatch, sub):
    # the mix is final_outlier_score's default, not a copy of it in the CLI
    monkeypatch.setattr(final_outlier_score, "__defaults__", ((0.5, 0.25, 0.25),))
    code, stdout, _ = run_cli(sub, "--help")
    assert code == 0
    assert "mix (default 0.5,0.25,0.25)" in " ".join(stdout.split())


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
                              "--out", out, "--iters", "1", "--init-passes", "10")
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
                             "--init-passes", "14", "--seed", "5")
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


@pytest.mark.parametrize("command", ["seed", "embed"])
def test_dim_past_int64_exits_1_without_a_traceback(tmp_path, command):
    # it used to escape from scipy's CSR constructor as an OverflowError
    edges = tmp_path / "edges.txt"
    edges.write_text("a b\n")
    attrs = tmp_path / "attrs.txt"
    attrs.write_text("%dim 99999999999999999999\na 0:1\nb 1:1\n")
    labels = tmp_path / "labels.txt"
    labels.write_text("a x\nb y\n")
    extra = ("--labels", str(labels)) if command == "seed" else ("--k", "1")
    code, _, stderr = run_cli(command, "--edges", str(edges), "--attrs", str(attrs),
                              "--out", str(tmp_path / "x"), *extra)
    assert code == 1
    assert "attrs.txt:1" in stderr and "bad %dim value" in stderr
    assert "Traceback" not in stderr


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


@pytest.mark.parametrize("weights", [None, "0.2,0.3,0.5"])
def test_rank_outliers_writes_the_rank_nodes_ranking_byte_for_byte(embedded, tmp_path, weights):
    # rank-outliers ranks in Python, without numpy; the library reference is
    # load_scores_tsv + final_outlier_score + rank_nodes
    extra = [] if weights is None else ["--weights", weights]
    out = tmp_path / "rank"
    code, _, stderr = run_cli("rank-outliers", "--scores", embedded["scores"], "--out", str(out),
                              *extra)
    assert code == 0, stderr
    names, comps, combined = load_scores_tsv(embedded["scores"])
    if weights is not None:
        combined = final_outlier_score(comps, tuple(map(float, weights.split(","))))
    want = "".join(f"{rank}\t{names[i]}\t{float(combined[i])!r}\n"
                   for rank, i in enumerate(rank_nodes(combined), 1))
    assert (out / "ranked.tsv").read_bytes() == ("rank\tnode\tscore\n" + want).encode()


_TIED_SCORES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                0.25, 1.0, -1.0])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(_TIED_SCORES | st.floats(allow_nan=False, allow_infinity=False), max_size=30))
@example([])
@example([-0.0])
@example([0.0, -0.0, 0.0, -0.0, 5e-324, -5e-324, 5e-324])
def test_rank_outliers_orders_ties_as_rank_nodes_does(combined):
    # two implementations of one rule, a stable Python sort in the CLI and
    # np.lexsort in rank_nodes: descending score, ties (0.0 == -0.0
    # included) by ascending index
    with tempfile.TemporaryDirectory() as tmp:
        scores = os.path.join(tmp, "scores.tsv")
        Path(scores).write_text("".join(
            ["node\t" + "\t".join(SCORE_COLUMNS) + "\n"]
            + [f"n{i}\t0.0\t0.0\t0.0\t{v!r}\n" for i, v in enumerate(combined)]))
        code, _, stderr = run_cli("rank-outliers", "--scores", scores, "--out", tmp)
        assert code == 0, stderr
        rows = [line.split("\t")
                for line in Path(tmp, "ranked.tsv").read_text().splitlines()[1:]]
    order = rank_nodes(np.array(combined, dtype=np.float64)).tolist()
    assert [r[1] for r in rows] == [f"n{i}" for i in order]
    assert [r[2] for r in rows] == [repr(combined[i]) for i in order]


def test_weights_reproduce_the_stored_combined_column(seeded, tmp_path, monkeypatch):
    """embed stores final_outlier_score's default mix, and rank-outliers
    --weights and evaluate --weights mix the stored components by
    final_outlier_score, bit for bit."""
    emb = tmp_path / "emb"
    code, _, stderr = run_cli("embed", "--edges", seeded["edges"], "--attrs", seeded["attrs"],
                              "--labels", seeded["labels"], "--out", str(emb))
    assert code == 0, stderr
    scores = str(emb / "scores.tsv")
    names, comps, stored = load_scores_tsv(scores)
    assert stored.tobytes() == final_outlier_score(comps).tobytes()
    weights = "0.2,0.3,0.5"  # not powers of two, so a second formula rounds differently
    mixed = final_outlier_score(comps, (0.2, 0.3, 0.5))

    out = tmp_path / "rank"
    assert run_cli("rank-outliers", "--scores", scores, "--out", str(out),
                   "--weights", weights)[0] == 0
    rows = [line.split("\t") for line in (out / "ranked.tsv").read_text().splitlines()[1:]]
    order = rank_nodes(mixed).tolist()
    assert [r[1] for r in rows] == [names[i] for i in order]
    assert [r[2] for r in rows] == [repr(mixed.tolist()[i]) for i in order]

    seen = []
    evaluate_all = oaembed.evaluation.evaluate_all

    def recording(net, result, *args, **kwargs):
        seen.append(result.outlier_scores)
        return evaluate_all(net, result, *args, **kwargs)

    monkeypatch.setattr(oaembed.evaluation, "evaluate_all", recording)
    code, _, stderr = run_cli("evaluate", "--edges", seeded["edges"], "--attrs", seeded["attrs"],
                              "--labels", seeded["labels"], "--truth", seeded["truth"],
                              "--embedding", str(emb / "embedding.tsv"), "--scores", scores,
                              "--out", str(tmp_path / "eval"), "--splits", "30:30:10",
                              "--reps", "1", "--weights", weights)
    assert code == 0, stderr
    assert seen[0].tobytes() == mixed.tobytes()


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
                         "--init-passes", "10")
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


_START = {"oaembed", "oaembed.errors", "oaembed.tables"}  # what every CLI process imports
_SEEDED = ["--edges", "{seeded}/edges.txt", "--attrs", "{seeded}/attributes.txt",
           "--labels", "{seeded}/labels.txt"]


_STDLIB_ONLY = ("numpy", "inspect")  # no numpy, so no scipy either, and no inspect


@pytest.mark.parametrize("argv,modules,unloaded", [
    (None, {"oaembed"}, _STDLIB_ONLY),
    (["--help"], _START, _STDLIB_ONLY),
    (["--version"], _START, _STDLIB_ONLY),
    (["rank-outliers", "--scores", "{embedded}/scores.tsv", "--out", "{out}"], _START,
     _STDLIB_ONLY),
    (["seed", "--edges", "{edges}", "--attrs", "{attributes}", "--labels", "{labels}",
      "--out", "{out}"],
     _START | {"oaembed.network", "oaembed.numerics", "oaembed.seeding"}, ("scipy.optimize",)),
    (["embed", *_SEEDED, "--out", "{out}", "--k", "4", "--iters", "3"],
     _START | {"oaembed.network", "oaembed.numerics", "oaembed.core"}, ("scipy.optimize",)),
    (["evaluate", *_SEEDED, "--embedding", "{embedded}/embedding.tsv",
      "--scores", "{embedded}/scores.tsv", "--truth", "{seeded}/outliers.tsv",
      "--out", "{out}", "--splits", "30:30:10", "--reps", "1"],
     _START | {"oaembed.network", "oaembed.numerics", "oaembed.evaluation", "oaembed.seeding"},
     ("scipy.optimize",)),
], ids=["import", "help", "version", "rank-outliers", "seed", "embed", "evaluate"])
def test_cli_process_imports_only_what_its_subcommand_runs(argv, modules, unloaded, dataset,
                                                           seeded, embedded, tmp_path):
    # every CLI process pays for its imports: rank-outliers, --help and
    # --version run on the standard library alone, and only clustering would
    # need scipy.optimize
    paths = {**dataset, "seeded": seeded["out"], "embedded": embedded["out"],
             "out": str(tmp_path / "out")}
    run = ("import oaembed\ncode = 0" if argv is None else "\n".join([
        f"sys.argv = ['oaembed', *{[arg.format(**paths) for arg in argv]!r}]",
        "try:",
        "    runpy.run_module('oaembed.cli', run_name='__main__')",
        "except SystemExit as exc:",
        "    code = exc.code"]))
    code = "\n".join([
        "import json, runpy, sys", run,
        "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'oaembed'),",
        f"                  [m for m in {unloaded!r} if m in sys.modules]]))"])
    env = {**os.environ, "PYTHONPATH": str(Path(oaembed.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    exit_code, loaded, found = json.loads(out.stdout.splitlines()[-1])
    assert exit_code == 0, out.stderr
    assert set(loaded) == modules
    assert not found


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
             "fraction": "0.1", "seed": "3"},
    "embed": {"edges": "e.txt", "attrs": "a.txt", "labels": "l.txt", "out": "o", "k": "4",
              "iters": "2", "attr-weight": "0.5", "dis-weight": "0.5", "init-passes": "10",
              "seed": "3"},
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
def test_embed_refuses_the_old_init_iters_option(dataset, tmp_path, how):
    # init-iters counted updates per factor; an old setting must fail rather
    # than run three times the passes as --init-passes
    cfg = tmp_path / "run.cfg"
    cfg.write_text("init-iters=30\n")
    given = ["--init-iters", "30"] if how == "flag" else ["--config", str(cfg)]
    code, _, stderr = run_cli("embed", *given, "--edges", dataset["edges"],
                              "--attrs", dataset["attributes"], "--labels", dataset["labels"],
                              "--out", str(tmp_path / "x"))
    assert code == 2
    assert "init-iters" in stderr
    assert how == "flag" or "unknown config keys" in stderr
    assert not (tmp_path / "x").exists()


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


@pytest.mark.parametrize("how", ["flag", "config"])
def test_embed_has_no_combine_weights_option(dataset, tmp_path, how):
    # the score mix comes after the fit: rank-outliers and evaluate --weights
    cfg = tmp_path / "run.cfg"
    cfg.write_text("combine-weights=0.2,0.3,0.5\n")
    given = ["--combine-weights", "0.2,0.3,0.5"] if how == "flag" else ["--config", str(cfg)]
    code, _, stderr = run_cli("embed", *given, "--edges", dataset["edges"],
                              "--attrs", dataset["attributes"], "--labels", dataset["labels"],
                              "--out", str(tmp_path / "x"))
    assert code == 2
    assert "combine-weights" in stderr
    assert not (tmp_path / "x").exists()


def test_required_options_alone_run_the_library_defaults(dataset, tmp_path, monkeypatch):
    seen = {}

    def recording(name, real):
        def call(*args, **kwargs):
            seen[name] = (args, kwargs)
            return real(*args, **kwargs)
        return call

    for module, name in ((oaembed.seeding, "seed_outliers"), (oaembed.core, "fit"),
                         (oaembed.evaluation, "evaluate_all")):
        monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
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
    evaluate_all = oaembed.evaluation.evaluate_all

    def recording(*args, **kwargs):
        seen.append(kwargs["exclude_outliers"])
        return evaluate_all(*args, **kwargs)

    monkeypatch.setattr(oaembed.evaluation, "evaluate_all", recording)
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
                                        ("frac=0.1", "frac")])
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
    code, _, stderr = run_cli("evaluate", "--e", "x", "--attrs", "a.txt", "--labels", "l.txt",
                              "--scores", "s.tsv", "--truth", "t.tsv",
                              "--out", str(tmp_path / "x"))
    assert code == 2
    assert all(opt in stderr for opt in ("--edges", "--embedding", "--exclude-outliers"))
    assert not (tmp_path / "x").exists()


_MEMORY_LIMIT = 400 * 2**20  # bytes of address space


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (_MEMORY_LIMIT, _MEMORY_LIMIT))


def test_embed_out_of_memory_exits_4(tmp_path):
    # a 10000-node chain with one attribute per node: K = 10000 needs
    # 763 MiB per factor, over the child's 400 MB address-space limit, while
    # K = 5 fits under the same limit
    n = 10000
    edges, attrs = tmp_path / "edges.txt", tmp_path / "attributes.txt"
    edges.write_text("".join(f"{i} {i + 1}\n" for i in range(n - 1)))
    attrs.write_text(f"%dim {n}\n" + "".join(f"{i} {i}:1\n" for i in range(n)))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(oaembed.__file__).parents[1])}

    def embed(k, out):
        return subprocess.run([sys.executable, "-m", "oaembed.cli", "embed",
                               "--edges", str(edges), "--attrs", str(attrs),
                               "--out", str(tmp_path / out), "--k", str(k), "--iters", "1"],
                              capture_output=True, text=True, env=env, timeout=120,
                              preexec_fn=_limit_memory)

    big = embed(n, "big")
    assert big.returncode == 4, big.stderr
    assert big.stderr.startswith("error: out of memory: Unable to allocate")
    assert big.stderr.endswith(f" (fit of {n} nodes, {n} attributes, K = {n})\n")
    assert "Traceback" not in big.stderr
    small = embed(5, "small")
    assert small.returncode == 0, small.stderr

"""End-to-end acceptance gate.

Each test prints one `[ACCEPTANCE] criterion N <name>: PASS/FAIL` line so the
run can be audited from the console, then asserts the same condition.
"""

import itertools
import math
import os
import time
from dataclasses import replace

import numpy as np
import scipy.sparse as sp

from helpers import (brute_force_clustering_accuracy, fd_check_sweep,
                     grid_min_scores, hypergeom_recall_null, loss_terms, rand_model,
                     rand_network, rand_score_triplet, random_orthogonal, residuals, run_cli)
from oaembed.core import (FactorModel, HyperParams, _score_weights, budget_scores, fit,
                          update_alignment)
from oaembed.evaluation import clustering_accuracy, f1_scores, recall_at
from oaembed.network import AttributedNetwork, save_network
from oaembed.numerics import make_rng
from oaembed.seeding import SeedingPlan, seed_outliers, synth_network
from oaembed.tables import rank_nodes


def report(capsys, number, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n[ACCEPTANCE] criterion {number} {name}: {verdict} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def trace_slack(trace):
    """Largest violation of non-increase with relative slack 1e-9."""
    worst = -np.inf
    for prev, cur in zip(trace, trace[1:]):
        worst = max(worst, cur - prev - 1e-9 * abs(prev))
    return worst


def test_criterion_1_monotone_loss(capsys):
    start = time.monotonic()
    worst = -np.inf
    combos = list(itertools.product((20, 100), (30, 200), (4, 8)))
    for i in range(20):
        n, d, k = combos[i % len(combos)]
        net = rand_network(make_rng(1000 + i), n, d)
        _, _, result, diag = fit(net, HyperParams(dim=k, iters=5, seed=i))
        worst = max(worst, trace_slack([diag.initial_loss, *result.loss_trace]))

    base = synth_network(300, 3, 0.05, 0.005, 120, 0.9, seed=0)
    seeded = seed_outliers(base, SeedingPlan(total_fraction=0.05, seed=0))
    _, _, result, diag = fit(seeded.network, HyperParams(dim=9, iters=5, seed=0))
    worst = max(worst, trace_slack([diag.initial_loss, *result.loss_trace]))

    elapsed = time.monotonic() - start
    ok = worst <= 0.0 and elapsed < 60.0
    report(capsys, 1, "monotone loss", ok,
           f"21 instances, worst slack violation {worst:.3e}, {elapsed:.1f}s")


def test_criterion_2_coordinate_optimality(capsys):
    rng = make_rng(2000)
    net = rand_network(rng, 30, 20)
    model = rand_model(rng, 30, 5, 20)
    scores = rand_score_triplet(rng, 30)
    gap = fd_check_sweep(net, model, scores, 1.3, 0.7, rng, 100)
    ok = gap >= -1e-10
    report(capsys, 2, "coordinate optimality", ok,
           f"100 perturbed coordinates, worst loss change {gap:.3e}")


def test_criterion_3_procrustes_optimality(capsys):
    wins = 0
    recovered = True
    for trial in range(10):
        rng = make_rng(3000 + trial)
        model = rand_model(rng, 20, 4, 6)
        scores = rand_score_triplet(rng, 20)

        def disagreement(w):
            # the third of fit's loss terms, for the model with align w
            return loss_terms(replace(model, align=w), scores)[2]

        best = disagreement(update_alignment(model, _score_weights(scores)))
        beaten = all(best <= disagreement(random_orthogonal(rng, 4)) + 1e-12
                     for _ in range(1000))
        wins += beaten

        g = rng.normal(size=(20, 4))
        r = random_orthogonal(rng, 4)
        aligned = FactorModel(g, np.zeros((4, 20)), g @ r, np.zeros((4, 6)),
                              np.eye(4))
        w = update_alignment(aligned, _score_weights(scores))
        recovered = recovered and np.abs(w - r).max() < 1e-8

    ok = wins == 10 and recovered
    report(capsys, 3, "alignment optimality", ok,
           f"beat 1000 random orthogonals in {wins}/10 trials, "
           f"rotation recovery {'exact to 1e-8' if recovered else 'FAILED'}")


def test_criterion_4_score_update_optimality(capsys):
    rng = make_rng(4000)
    worst_gap = 0.0
    checked = 0
    for n in (1, 2, 3, 4):
        for rep in range(4):
            r = rng.uniform(0.05, 3.0, size=n)
            if n >= 2 and rep == 3:
                r[0] = 0.0
            got = budget_scores(r, 1.0, 1e-8)
            want = grid_min_scores(r)
            worst_gap = max(worst_gap, float(np.abs(got - want).max()))
            checked += 1

    sums_ok = bounds_ok = True
    for i in range(10):
        rng_i = make_rng(4100 + i)
        n = int(rng_i.integers(2, 50))
        d = int(rng_i.integers(2, 20))
        k = int(rng_i.integers(1, min(n, d) + 1))
        net = rand_network(rng_i, n, d)
        model = rand_model(rng_i, n, k, d)
        for r in residuals(model, net.adjacency, net.attributes):
            vec = budget_scores(r, 1.0, 1e-8)
            sums_ok = sums_ok and abs(vec.sum() - 1.0) <= 1e-9
            bounds_ok = bounds_ok and (vec >= 1e-8).all() and (vec <= 1.0).all()

    ok = worst_gap <= 1e-3 and sums_ok and bounds_ok
    report(capsys, 4, "score update optimality", ok,
           f"{checked} grid comparisons, worst coordinate gap {worst_gap:.2e}, "
           f"sums to 1 within 1e-9: {sums_ok}, in [1e-8, 1]: {bounds_ok}")


def test_criterion_5_outlier_detection(capsys):
    start = time.monotonic()
    recalls = []
    for seed in range(5):
        base = synth_network(300, 3, 0.05, 0.005, 120, 0.9, seed=seed)
        seeded = seed_outliers(base, SeedingPlan(total_fraction=0.05, seed=seed))
        _, _, result, _ = fit(seeded.network, HyperParams(dim=9, seed=seed))
        ranked = rank_nodes(result.outlier_scores)
        recalls.append(recall_at(ranked, set(seeded.outlier_ids), 25.0))
    elapsed = time.monotonic() - start

    mean_recall = float(np.mean(recalls))
    n = 315
    top = math.ceil(0.25 * n)
    _null_mean, null_std = hypergeom_recall_null(n, 15, top)
    threshold = 0.25 + 3.0 * null_std / math.sqrt(len(recalls))
    ok = mean_recall >= 0.6 and mean_recall > threshold and elapsed < 120.0
    report(capsys, 5, "outlier detection", ok,
           f"recall@25 per seed {[round(r, 3) for r in recalls]}, "
           f"mean {mean_recall:.3f} vs floor 0.6 and random-ranking "
           f"3-sigma bound {threshold:.3f}, {elapsed:.1f}s")


def webkb_shape_network(seed):
    """919 nodes, exactly 1662 undirected edges, 1703 attributes, 5 classes."""
    net = synth_network(919, 5, 0.0178, 0.0005, 1703, 0.9, seed=seed)
    upper = sp.triu(net.adjacency, k=1).tocoo()
    pairs = {(int(i), int(j)) for i, j in zip(upper.row, upper.col)}
    rng = make_rng(seed + 1)
    while len(pairs) > 1662:
        pairs.remove(sorted(pairs)[int(rng.integers(len(pairs)))])
    while len(pairs) < 1662:
        i, j = (int(x) for x in rng.integers(0, 919, size=2))
        if i != j:
            pairs.add((min(i, j), max(i, j)))
    edges = np.array(sorted(pairs))
    ones = np.ones(len(edges))
    adj = sp.csr_matrix((np.concatenate([ones, ones]),
                         (np.concatenate([edges[:, 0], edges[:, 1]]),
                          np.concatenate([edges[:, 1], edges[:, 0]]))),
                        shape=(919, 919))
    return AttributedNetwork(adjacency=adj, attributes=net.attributes,
                             labels=net.labels, node_names=net.node_names,
                             label_names=net.label_names)


def test_criterion_6_realistic_scale_smoke(capsys, tmp_path):
    data_dir = os.environ.get("OAEMBED_WEBKB_DIR", "")
    if data_dir and all(os.path.isfile(os.path.join(data_dir, f))
                        for f in ("edges.txt", "attributes.txt", "labels.txt")):
        paths = {"edges": os.path.join(data_dir, "edges.txt"),
                 "attributes": os.path.join(data_dir, "attributes.txt"),
                 "labels": os.path.join(data_dir, "labels.txt")}
        source = "user-supplied data"
    else:
        net = webkb_shape_network(seed=23)
        assert net.n_nodes == 919 and net.n_edges == 1662 and net.n_attrs == 1703
        paths = save_network(net, str(tmp_path / "webkb"))
        source = "synthetic stand-in of identical shape"

    start = time.monotonic()
    code, stdout, stderr = run_cli("embed", "--edges", paths["edges"],
                                   "--attrs", paths["attributes"],
                                   "--labels", paths["labels"],
                                   "--out", str(tmp_path / "out"),
                                   "--k", "15", "--iters", "5")
    elapsed = time.monotonic() - start

    losses = [float(line.split("\t")[3]) for line in stdout.splitlines()
              if line.startswith("iter\t")]
    ok = (code == 0 and elapsed < 300.0 and len(losses) == 5
          and trace_slack(losses) <= 0.0)
    report(capsys, 6, "realistic-scale smoke run", ok,
           f"{source}, 919 nodes / 1662 edges / 1703 attributes, K=15, "
           f"exit {code}, 5-value trace non-increasing: "
           f"{trace_slack(losses) <= 0.0 if losses else False}, {elapsed:.1f}s")


def test_criterion_7_evaluation_correctness(capsys):
    rng = make_rng(7000)
    hungarian_exact = True
    for _ in range(100):
        n = int(rng.integers(4, 40))
        pred = rng.integers(0, int(rng.integers(1, 7)), size=n)
        truth = rng.integers(0, int(rng.integers(2, 7)), size=n)
        if clustering_accuracy(pred, truth) != \
                brute_force_clustering_accuracy(pred, truth):
            hungarian_exact = False

    macro, micro = f1_scores([0, 0, 1, 1], [0, 0, 1, 0])
    f1_ok = abs(macro - 0.7333) <= 1e-4 and abs(micro - 0.75) <= 1e-4

    recall_exact = True
    for _ in range(100):
        n = int(rng.integers(5, 60))
        ranked = rng.permutation(n)
        n_truth = int(rng.integers(1, n + 1))
        truth = set(rng.choice(n, size=n_truth, replace=False).tolist())
        level = int(rng.choice([5, 10, 15, 20, 25, 40, 50, 75, 100]))
        top = set(ranked[:(level * n + 99) // 100].tolist())
        want = len(top & truth) / len(truth)
        if recall_at(ranked, truth, level) != want:
            recall_exact = False

    ok = hungarian_exact and f1_ok and recall_exact
    report(capsys, 7, "evaluation correctness", ok,
           f"hungarian == brute force on 100 instances: {hungarian_exact}, "
           f"f1 worked example macro {macro:.4f} micro {micro:.2f}: {f1_ok}, "
           f"recall == set oracle on 100 rankings: {recall_exact}")


def test_criterion_8_seeder_contract(capsys):
    base = synth_network(120, 3, 0.2, 0.01, 60, 0.9, seed=7)
    class_mean = {}
    degrees = np.diff(base.adjacency.indptr)
    for c in range(3):
        class_mean[c] = float(degrees[base.labels == c].mean())

    counts_ok = edges_ok = band_ok = True
    for run in range(50):
        seeded = seed_outliers(base, SeedingPlan(total_fraction=0.05, seed=run))
        kinds = [p.kind for p in seeded.planted]
        total = math.ceil(0.05 * 120)
        counts_ok = counts_ok and len(kinds) == total and all(
            kinds.count(k) == total // 3
            for k in ("structural", "attribute", "combined"))
        for p in seeded.planted:
            neighbor_labels = base.labels[p.neighbors]
            if p.kind == "structural":
                edges_ok = edges_ok and (neighbor_labels != p.label).all()
            else:
                edges_ok = edges_ok and (neighbor_labels == p.struct_class).all()
            m = class_mean[p.label]
            band_ok = band_ok and \
                0.9 * m - 1e-9 <= p.neighbors.size <= 1.1 * m + 1e-9

    ok = counts_ok and edges_ok and band_ok
    report(capsys, 8, "seeder contract", ok,
           f"50 runs of 6 planted nodes each; equal kind split: {counts_ok}, "
           f"edge placement rules: {edges_ok}, degrees in the 10% band: {band_ok}")


def run_pipeline(data, out_dir):
    steps = []
    seeded = os.path.join(out_dir, "seeded")
    steps.append(run_cli("seed", "--edges", data["edges"],
                         "--attrs", data["attributes"],
                         "--labels", data["labels"],
                         "--out", seeded, "--seed", "3")[0])
    emb = os.path.join(out_dir, "emb")
    steps.append(run_cli("embed", "--edges", os.path.join(seeded, "edges.txt"),
                         "--attrs", os.path.join(seeded, "attributes.txt"),
                         "--labels", os.path.join(seeded, "labels.txt"),
                         "--out", emb, "--k", "4", "--iters", "2",
                         "--init-passes", "20", "--seed", "5")[0])
    rank = os.path.join(out_dir, "rank")
    steps.append(run_cli("rank-outliers",
                         "--scores", os.path.join(emb, "scores.tsv"),
                         "--out", rank)[0])
    ev = os.path.join(out_dir, "eval")
    steps.append(run_cli("evaluate",
                         "--edges", os.path.join(seeded, "edges.txt"),
                         "--attrs", os.path.join(seeded, "attributes.txt"),
                         "--labels", os.path.join(seeded, "labels.txt"),
                         "--embedding", os.path.join(emb, "embedding.tsv"),
                         "--scores", os.path.join(emb, "scores.tsv"),
                         "--truth", os.path.join(seeded, "outliers.tsv"),
                         "--out", ev, "--splits", "30:30:10", "--reps", "2",
                         "--seed", "7")[0])
    files = {}
    for sub in ("seeded", "emb", "rank", "eval"):
        for name in sorted(os.listdir(os.path.join(out_dir, sub))):
            with open(os.path.join(out_dir, sub, name), "rb") as fh:
                files[f"{sub}/{name}"] = fh.read()
    return steps, files


def test_criterion_9_pipeline_determinism(capsys, tmp_path):
    base = synth_network(60, 3, 0.3, 0.02, 30, 0.9, seed=2)
    data = save_network(base, str(tmp_path / "data"))
    steps_a, files_a = run_pipeline(data, str(tmp_path / "run_a"))
    steps_b, files_b = run_pipeline(data, str(tmp_path / "run_b"))

    clean = steps_a == [0, 0, 0, 0] and steps_b == [0, 0, 0, 0]
    same_names = sorted(files_a) == sorted(files_b)
    diffs = [k for k in files_a if files_a.get(k) != files_b.get(k)]
    ok = clean and same_names and not diffs
    report(capsys, 9, "pipeline determinism", ok,
           f"all steps exit 0: {clean}, {len(files_a)} output files, "
           f"byte-identical reruns: {not diffs}"
           + (f", differing: {diffs}" if diffs else ""))

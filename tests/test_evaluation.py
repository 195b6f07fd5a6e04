import json
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oaembed.evaluation
from helpers import (brute_force_clustering_accuracy, brute_force_matching,
                     hypergeom_recall_null, reference_f1_by_split, reference_f1_scores,
                     reference_kmeans_pp_full, reference_rank_nodes,
                     reference_train_classifier, train_alone)
from oaembed.evaluation import (RECALL_LEVELS, EvalReport, _classification_split,
                                _train_stack, clustering_accuracy, evaluate_all, f1_scores,
                                kmeans_pp_full, predict, recall_at)
from oaembed.network import AttributedNetwork, EmbeddingResult
from oaembed.numerics import make_rng, named_rng
from oaembed.seeding import synth_network
from oaembed.tables import rank_nodes


# ----------------------------------------------------------------- ranking


def test_rank_nodes_descending_with_tie_break():
    got = rank_nodes(np.array([0.1, 0.5, 0.5, 0.9]))
    assert got.tolist() == [3, 1, 2, 0]


def test_rank_nodes_errors():
    with pytest.raises(ValueError):
        rank_nodes(np.ones((2, 2)))
    for bad in ([1.0, np.nan], [np.nan], [np.inf, 1.0], [1.0, -np.inf], [-np.inf, np.nan]):
        with pytest.raises(ValueError):
            rank_nodes(np.array(bad))


# few distinct values, so exact ties are common; -0.0 ties 0.0, and the
# subnormals sit next to both
_TIE_PRONE = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0,
                              -1.0, 0.5, 1e300, -1e300])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_TIE_PRONE, st.floats(allow_nan=False, allow_infinity=False)),
                max_size=40))
@example([])
@example([0.0])
@example([-0.0, 0.0, -0.0, 0.0])
def test_rank_nodes_matches_lexsort_on_index_and_negated_score(scores):
    got = rank_nodes(np.array(scores, dtype=np.float64))
    assert got.tolist() == reference_rank_nodes(scores).tolist()


def test_recall_worked_example():
    ranked = [1, 2, 9, 4, 5, 0, 3, 6, 7, 8]
    got = recall_at(ranked, {1, 2, 3, 4, 5}, 50.0)
    assert got == pytest.approx(0.8)


def test_recall_cutoff_is_ceiling():
    ranked = list(range(10))
    # 25% of 10 -> ceil(2.5) = 3 entries inspected
    assert recall_at(ranked, {2}, 25.0) == 1.0
    assert recall_at(ranked, {3}, 25.0) == 0.0
    # 20% of 10 -> exactly 2, float noise must not widen it
    assert recall_at(ranked, {2}, 20.0) == 0.0


def test_recall_monotone_in_level():
    rng = make_rng(0)
    ranked = rng.permutation(40)
    truth = set(rng.choice(40, size=6, replace=False).tolist())
    vals = [recall_at(ranked, truth, l) for l in (5, 10, 15, 20, 25, 50, 100)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert vals[-1] == 1.0


def test_recall_errors():
    with pytest.raises(ValueError):
        recall_at([0, 1], set(), 10.0)
    with pytest.raises(ValueError):
        recall_at([0, 1], {0}, 0.0)
    with pytest.raises(ValueError):
        recall_at([0, 1], {0}, 101.0)


@pytest.mark.parametrize("level", [True, np.True_, "25", None, np.nan],
                         ids=["bool", "numpy-bool", "str", "none", "nan"])
def test_recall_refuses_a_level_that_is_not_a_real_number(level):
    # True once read as 1 %: the top ceil(0.04) = 1 entry, recall 1.0 here
    with pytest.raises(ValueError):
        recall_at([0, 1, 2, 3], {0}, level)


def test_recall_reads_an_array_a_list_and_a_generator_alike():
    ranked = make_rng(3).permutation(57)
    truth = {int(i) for i in ranked[::5]}
    for level in (5, 12.5, 25, 100):
        want = recall_at(ranked.tolist(), truth, level)
        assert recall_at(ranked, truth, level) == want
        assert recall_at(iter(ranked.tolist()), truth, level) == want


# -------------------------------------------------------------------- f1


def test_f1_worked_example():
    macro, micro = f1_scores([0, 0, 1, 1], [0, 0, 1, 0])
    assert macro == pytest.approx((0.8 + 2.0 / 3.0) / 2.0, abs=1e-12)
    assert micro == pytest.approx(0.75, abs=1e-12)


def test_f1_perfect_and_relabeled():
    assert f1_scores([2, 5, 2], [2, 5, 2]) == (1.0, 1.0)
    a = f1_scores([0, 0, 1, 1], [0, 0, 1, 0])
    b = f1_scores([7, 7, 3, 3], [7, 7, 3, 7])  # consistent renaming
    assert a == pytest.approx(b)


def test_f1_class_never_predicted():
    macro, micro = f1_scores([0, 1], [1, 1])
    assert macro == pytest.approx(1.0 / 3.0)
    assert micro == pytest.approx(0.5)


_LABELS = st.sampled_from([0, 1, 2, 5, 9])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_LABELS, _LABELS), min_size=1, max_size=60), st.booleans())
@example([(3, 3)], False)          # a single class
@example([(0, 1), (0, 2)], True)   # predicted classes absent from y_true
def test_f1_matches_per_class_comparison_counts(pairs, as_strings):
    y_true, y_pred = (np.array(v) for v in zip(*pairs))
    if as_strings:
        y_true, y_pred = y_true.astype(str), np.char.add("c", y_pred.astype(str))
        y_pred[::2] = y_true[::2]  # a mix of shared and absent class names
    assert f1_scores(y_true, y_pred) == reference_f1_scores(y_true, y_pred)


def test_f1_errors():
    with pytest.raises(ValueError):
        f1_scores([0, 1], [0])
    with pytest.raises(ValueError):
        f1_scores([], [])


# ------------------------------------------------------------- classifier


def separable_data(rng, n_per=20, gap=6.0):
    x = np.vstack([rng.normal(size=(n_per, 2)),
                   rng.normal(size=(n_per, 2)) + gap])
    y = np.array([4] * n_per + [9] * n_per)  # non-contiguous label values
    return x, y


def test_classifier_separable_data():
    rng = make_rng(1)
    x, y = separable_data(rng)
    clf = train_alone(x, y)
    assert np.array_equal(predict(clf, x), y)
    assert clf.classes.tolist() == [4, 9]


def test_classifier_deterministic():
    rng = make_rng(2)
    x, y = separable_data(rng)
    a = train_alone(x, y, steps=50)
    b = train_alone(x, y, steps=50)
    assert np.array_equal(a.weights, b.weights)


def test_classifier_three_classes():
    rng = make_rng(3)
    centers = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
    x = np.vstack([rng.normal(size=(15, 2)) + c for c in centers])
    y = np.repeat([0, 1, 2], 15)
    clf = train_alone(x, y)
    assert (predict(clf, x) == y).mean() == 1.0


def _blobs(rng, sizes, n_features, gap=2.0):
    centers = rng.normal(scale=gap, size=(len(sizes), n_features))
    x = np.vstack([rng.normal(size=(m, n_features)) + c for m, c in zip(sizes, centers)])
    return x, np.repeat(np.arange(len(sizes)), sizes)


def _constant_column(rng):
    x, y = _blobs(rng, [30, 30, 30], 4)
    x[:, 2] = 3.5  # zero spread: the scale guard keeps it finite
    return x, y, 500


def _two_sparse_labels(rng):
    x, y = _blobs(rng, [40, 25], 3)
    return x, np.where(y == 0, -3, 11), 500


def _singleton_class(rng):
    x, y = _blobs(rng, [50, 1, 40], 6)
    return x, y * 10 + 2, 500


CLASSIFIER_CASES = {
    "blobs-5x16": lambda rng: (*_blobs(rng, [80, 85, 75, 80, 81], 16), 500),
    "two-sparse-labels": _two_sparse_labels,
    "constant-column": _constant_column,
    "singleton-class": _singleton_class,
    "zero-steps": lambda rng: (*_blobs(rng, [20, 20, 20], 5), 0),
}


@pytest.mark.parametrize("case", sorted(CLASSIFIER_CASES))
def test_classifier_matches_row_major_reference(case):
    x, y, steps = CLASSIFIER_CASES[case](make_rng(21))
    got = train_alone(x, y, steps=steps)
    ref = reference_train_classifier(x, y, steps=steps)
    assert np.array_equal(got.classes, ref.classes)
    assert got.weights.shape == (x.shape[1] + 1, ref.classes.size)
    assert got.weights.flags.c_contiguous
    # the descent runs in float32 against a float64 reference: a norm-wise
    # bound of a few float32 ulps of the largest weight
    assert np.abs(got.weights - ref.weights).max() <= 2e-6 * np.abs(ref.weights).max()
    probe = np.vstack([x, make_rng(22).normal(scale=3.0, size=(50, x.shape[1]))])
    assert np.array_equal(predict(got, probe), predict(ref, probe))


def test_train_stack_matches_one_set_fits():
    # five equal-size sets; sets 1 and 3 lack label 4, so they train as a
    # stack of their own next to the stack of the three complete sets
    rng = make_rng(23)
    xs, ys = [], []
    for r in range(5):
        sizes = [20, 0, 25] if r in (1, 3) else [15, 12, 18]
        x, y = _blobs(rng, sizes, 4)
        xs.append(x)
        ys.append(np.array([-1, 4, 9])[y])
    stack = oaembed.evaluation._train_stack(np.stack(xs), np.stack(ys), steps=200)
    assert [clf.classes.tolist() for clf in stack] == [
        [-1, 4, 9], [-1, 9], [-1, 4, 9], [-1, 9], [-1, 4, 9]]
    for x, y, got in zip(xs, ys, stack):
        alone = train_alone(x, y, steps=200)
        assert np.array_equal(got.weights, alone.weights)
        assert np.array_equal(got.classes, alone.classes)
        assert np.array_equal(got.feature_mean, alone.feature_mean)
        assert np.array_equal(got.feature_scale, alone.feature_scale)


def test_train_stack_peak_allocation_below_one_and_a_half_stacks():
    # each set standardizes in float64 on its own into the float32
    # feature-major stack, and a stack of every set descends on xs itself:
    # about 1.3 x xs.nbytes here, against 2.1 x for a float64 descent and
    # 3.4 x with a copy of xs and an xs-sized difference before the division
    rng = make_rng(24)
    xs = rng.normal(size=(10, 420, 15))
    ys = np.stack([rng.permutation(np.arange(420) % 5) for _ in range(10)])
    tracemalloc.start()
    try:
        oaembed.evaluation._train_stack(xs, ys, steps=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * xs.nbytes


def test_classifier_input_errors():
    with pytest.raises(ValueError):
        train_alone(np.ones((3, 2)), np.zeros(3, dtype=int))  # one class


# ----------------------------------------------------------------- kmeans


def test_kmeans_separated_line():
    pts = np.array([[0.0], [0.1], [0.2], [10.0], [10.1], [10.2]])
    labels = kmeans_pp_full(pts, 2, seed=0)[0]
    assert labels[0] == labels[1] == labels[2]
    assert labels[3] == labels[4] == labels[5]
    assert labels[0] != labels[3]


def test_kmeans_single_cluster_mean():
    pts = np.array([[1.0, 0.0], [3.0, 2.0], [5.0, 4.0]])
    labels, centers, trace = kmeans_pp_full(pts, 1, seed=0)
    assert labels.tolist() == [0, 0, 0]
    assert np.allclose(centers[0], pts.mean(axis=0))
    assert len(trace) >= 1


def test_kmeans_wcss_non_increasing():
    rng = make_rng(4)
    pts = rng.normal(size=(60, 3))
    _, _, trace = kmeans_pp_full(pts, 4, seed=1)
    assert all(a >= b - 1e-9 for a, b in zip(trace, trace[1:]))


def test_kmeans_deterministic():
    rng = make_rng(5)
    pts = rng.normal(size=(40, 2))
    assert np.array_equal(kmeans_pp_full(pts, 3, seed=7)[0],
                          kmeans_pp_full(pts, 3, seed=7)[0])


def test_kmeans_duplicate_points_survive():
    pts = np.array([[1.0, 1.0]] * 5 + [[4.0, 4.0]])
    labels = kmeans_pp_full(pts, 3, seed=0)[0]
    assert labels.shape == (6,)
    assert ((labels >= 0) & (labels < 3)).all()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kmeans_converges_with_more_clusters_than_distinct_points(seed):
    # the copies' mean lands a rounding error off the point, so an empty
    # cluster re-seeded onto a copy would take them all and the two clusters
    # would swap at every step until the iteration cap
    base = np.random.default_rng(0).normal(size=(21, 33))
    pts = np.vstack([base, np.repeat(base[:1], 20, axis=0)])
    labels, _, trace = kmeans_pp_full(pts, 41, seed)
    assert len(trace) < 100
    assert len(set(labels[21:])) == 1 and labels[0] == labels[21]
    assert len(set(labels)) == 21


def test_kmeans_errors():
    pts = np.ones((3, 2))
    with pytest.raises(ValueError):
        kmeans_pp_full(pts, 4, seed=0)[0]
    with pytest.raises(ValueError):
        kmeans_pp_full(pts, 0, seed=0)[0]
    with pytest.raises(ValueError):
        kmeans_pp_full(np.empty((0, 2)), 1, seed=0)[0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kmeans_refuses_points_that_are_not_finite(bad):
    # a NaN point once gave labels [0 0 0] with no error, an inf one failed
    # inside the k-means++ draw
    with pytest.raises(ValueError, match="finite"):
        kmeans_pp_full(np.array([[0.0], [bad], [1.0]]), 2, seed=0)


@pytest.mark.parametrize("k", [True, 2.0, np.float64(2.0)],
                         ids=["bool", "float", "numpy-float"])
def test_kmeans_refuses_a_k_that_is_not_an_integer(k):
    with pytest.raises(ValueError, match="k must be an integer"):
        kmeans_pp_full(np.arange(6.0).reshape(3, 2), k, seed=0)


def _cloud(rng, n, f, k, spread):
    """n points around k centers; spread 1 makes the blobs overlap."""
    centers = rng.normal(size=(k, f))
    return centers[rng.integers(k, size=n)] + rng.normal(scale=spread, size=(n, f))


def _kmeans_cases():
    for n, f, k in ((200, 2, 3), (500, 15, 5), (300, 33, 7), (64, 8, 4), (50, 3, 1)):
        yield pytest.param(_cloud(make_rng(n), n, f, k, 1.0), k, id=f"blobs-{n}x{f}-k{k}")
    few = _cloud(make_rng(1), 150, 5, 3, 0.5)
    yield pytest.param(few[make_rng(2).integers(30, size=150)], 6, id="few-distinct-points")
    yield pytest.param(_cloud(make_rng(3), 25, 3, 5, 1.0), 25, id="k-equals-n")
    # more clusters than distinct points: duplicate centroids, exact ties
    half = _cloud(make_rng(4), 41, 33, 4, 1.0)
    half[:20] = half[0]
    yield pytest.param(half, 41, id="half-one-point-k-equals-n")
    # a grid of tenths puts points at nearly or exactly equal distances
    tenths = np.round(_cloud(make_rng(5), 300, 3, 8, 1.0), 1)
    yield pytest.param(tenths, 8, id="tenths-grid")
    # |x|^2 dwarfs the distances: the Gram form cannot rank many points
    yield pytest.param(1e7 + _cloud(make_rng(6), 150, 20, 3, 1.0), 3, id="large-offset")
    # one feature: the mean of a cluster's rows sums its column pairwise, not
    # in row order, which shows from 9 points per cluster on
    yield pytest.param(_cloud(make_rng(7), 400, 1, 3, 1.0), 3, id="one-feature-400-k3")


@pytest.mark.parametrize("points, k", list(_kmeans_cases()))
def test_kmeans_matches_direct_distance_table(points, k):
    # the Gram-form assignment must reproduce the direct N x k x F table's
    # labels, centroids and trace bit for bit, ties included
    for seed in range(6):
        labels, centroids, trace = kmeans_pp_full(points, k, seed)
        ref_labels, ref_centroids, ref_trace = reference_kmeans_pp_full(points, k, seed)
        assert np.array_equal(labels, ref_labels)
        assert np.array_equal(centroids, ref_centroids)
        assert trace == ref_trace


def test_kmeans_peak_allocation_below_one_distance_table():
    x = _cloud(make_rng(22), 4000, 15, 5, 1.0)
    table_bytes = x.shape[0] * 5 * x.shape[1] * 8  # one N x k x F float64 array
    tracemalloc.start()
    try:
        kmeans_pp_full(x, 5, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table_bytes


# ---------------------------------------------------------------- matching


def test_clustering_accuracy_examples():
    assert clustering_accuracy([0, 1, 0, 1], [0, 0, 1, 1]) == 0.5
    assert clustering_accuracy([1, 1, 0, 0], [0, 0, 1, 1]) == 1.0
    assert clustering_accuracy([5, 5, 9, 9], [0, 0, 1, 1]) == 1.0


def _labels_from_confusion(conf):
    """(pred, truth) label vectors whose confusion matrix is conf."""
    rows, cols = np.nonzero(conf)
    counts = conf[rows, cols]
    return np.repeat(rows, counts), np.repeat(cols, counts)


# confusion matrices with several optimal matchings
TIED = [
    [[2, 2], [2, 2]],
    [[3, 1, 3], [1, 3, 1], [3, 1, 3]],
    [[1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1]],
    [[5, 0, 5], [0, 5, 0]],
    [[4, 4], [4, 4], [4, 4], [1, 7]],
    [[2, 3, 0, 0], [3, 2, 0, 0], [0, 0, 2, 3], [0, 0, 3, 2]],
]


def test_clustering_accuracy_matches_brute_force():
    rng = make_rng(6)
    # every shape up to 7 clusters x 7 classes, fewer and more clusters than classes
    for kp in range(1, 8):
        for kt in range(2, 8):
            for _ in range(2):
                n = int(rng.integers(4, 40))
                pred = rng.integers(0, kp, size=n)
                truth = rng.integers(0, kt, size=n)
                assert clustering_accuracy(pred, truth) == pytest.approx(
                    brute_force_clustering_accuracy(pred, truth), abs=1e-12)
    for conf in TIED:
        for m in (np.array(conf), np.array(conf).T):
            pred, truth = _labels_from_confusion(m)
            assert clustering_accuracy(pred, truth) == pytest.approx(
                brute_force_clustering_accuracy(pred, truth), abs=1e-12)


def test_max_matching_matches_brute_force_on_degenerate_matrices():
    # all-zero rows or columns cannot come out of label vectors, but the
    # solver must not assign through them wrongly either
    rng = make_rng(24)
    matrices = [np.array(conf) for conf in TIED]
    matrices += [np.zeros((3, 3), dtype=np.int64), np.zeros((1, 4), dtype=np.int64)]
    for _ in range(60):
        m = rng.integers(0, 6, size=(int(rng.integers(1, 8)), int(rng.integers(1, 8))))
        m[rng.random(m.shape[0]) < 0.3] = 0
        m[:, rng.random(m.shape[1]) < 0.3] = 0
        matrices.append(m)
    for m in matrices:
        for w in (m, m.T):
            assert oaembed.evaluation._max_matching(w) == brute_force_matching(w)


def test_clustering_accuracy_errors():
    with pytest.raises(ValueError):
        clustering_accuracy([0, 1], [0])
    with pytest.raises(ValueError):
        clustering_accuracy([], [])


# ------------------------------------------------------------- full battery


def one_hot_result(net, truth_ids):
    """Embedding that encodes the label perfectly; planted nodes score highest."""
    n = net.n_nodes
    emb = np.zeros((n, net.n_classes))
    emb[np.arange(n), net.labels] = 1.0
    scores = np.linspace(0.5, 0.1, n)
    scores[list(truth_ids)] = 1.0
    comp = np.column_stack([scores, scores, scores])
    return EmbeddingResult(embedding=emb, outlier_scores=scores,
                           component_scores=comp, loss_trace=[1.0, 0.5])


def test_evaluate_all_perfect_embedding():
    net = synth_network(120, 3, 0.2, 0.02, 30, 0.9, seed=8)
    truth = [3, 40, 90]
    report = evaluate_all(net, one_hot_result(net, truth), truth,
                          splits=(10, 50), reps=3, seed=1)
    assert set(report.recall_at) == set(RECALL_LEVELS)
    assert all(v == 1.0 for v in report.recall_at.values())
    assert report.clustering_accuracy == 1.0
    for macro, micro in report.f1.values():
        assert micro == 1.0
        assert macro == 1.0
    assert report.config["n_nodes"] == 120
    assert report.config["n_truth"] == 3
    assert report.config["reps"] == 3
    assert report.config["splits"] == [10, 50]
    assert report.config["kmeans_starts"] == 10


def test_evaluate_all_random_scores_near_null():
    rng = make_rng(9)
    net = synth_network(200, 2, 0.1, 0.01, 20, 0.9, seed=10)
    truth = rng.choice(200, size=10, replace=False).tolist()
    emb = rng.normal(size=(200, 4))
    scores = rng.uniform(0.1, 1.0, size=200)
    comp = np.column_stack([scores] * 3)
    result = EmbeddingResult(embedding=emb, outlier_scores=scores,
                             component_scores=comp, loss_trace=[0.0])
    report = evaluate_all(net, result, truth, splits=(30,), reps=2, seed=2)
    mean, std = hypergeom_recall_null(200, 10, int(np.ceil(0.25 * 200)))
    assert abs(report.recall_at[25] - mean) <= 4 * std + 1e-9


def test_evaluate_all_exclude_outliers():
    net = synth_network(90, 3, 0.2, 0.02, 30, 0.9, seed=11)
    truth = [0, 45]
    report = evaluate_all(net, one_hot_result(net, truth), truth,
                          splits=(20,), reps=2, seed=3, exclude_outliers=True)
    assert report.config["exclude_outliers"] is True
    assert report.clustering_accuracy == 1.0


def test_evaluate_all_deterministic():
    net = synth_network(80, 2, 0.2, 0.02, 16, 0.9, seed=12)
    result = one_hot_result(net, [5])
    a = evaluate_all(net, result, [5], splits=(30,), reps=2, seed=4)
    b = evaluate_all(net, result, [5], splits=(30,), reps=2, seed=4)
    assert a == b


def test_evaluate_all_runs_on_the_calling_thread_and_starts_no_thread(monkeypatch):
    net = synth_network(100, 3, 0.2, 0.02, 16, 0.9, seed=15)
    result = one_hot_result(net, [5])
    threads = []
    started = []

    def on_thread(fn):
        def run(*args):
            threads.append(threading.get_ident())
            return fn(*args)
        return run

    for name in ("_descend", "kmeans_pp_full"):
        monkeypatch.setattr(oaembed.evaluation, name,
                            on_thread(getattr(oaembed.evaluation, name)))
    start = threading.Thread.start

    def recording_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    report = evaluate_all(net, result, [5], reps=2, seed=5)
    monkeypatch.undo()
    assert report == evaluate_all(net, result, [5], reps=2, seed=5)
    assert len(threads) >= 5 + 10  # a stack per percentage, 10 k-means starts
    assert set(threads) == {threading.get_ident()}
    assert started == []


def test_evaluate_all_runs_each_task_once_under_frequent_thread_switches(monkeypatch):
    # three concurrent calls with a switch every microsecond: the calls share
    # no state, so a task lost or run twice changes a report or the number
    # of stacks
    net = synth_network(100, 3, 0.2, 0.02, 16, 0.9, seed=16)
    result = one_hot_result(net, [5])
    splits = tuple(range(5, 95, 10))
    stacks = []
    descend = oaembed.evaluation._descend

    def counted(*args):
        stacks.append(args[0].shape)
        return descend(*args)

    monkeypatch.setattr(oaembed.evaluation, "_descend", counted)
    want = evaluate_all(net, result, [5], splits=splits, reps=1, seed=6)
    per_call = sorted(stacks)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=3) as pool:
            calls = [pool.submit(evaluate_all, net, result, [5], splits=splits, reps=1, seed=6)
                     for _ in range(3)]
            got = [call.result(timeout=120) for call in calls]
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 3
    assert sorted(stacks) == sorted(per_call * 4)


# prints the sha256 of the fit outputs, then of the report's JSON
BLAS_CHILD = "\n".join([
    "import hashlib",
    "import numpy as np",
    "from oaembed import HyperParams, SeedingPlan, evaluate_all, fit",
    "from oaembed import seed_outliers, synth_network",
    "net = synth_network(1200, 4, 0.02, 0.002, 400, 0.9, seed=3)",
    "seeded = seed_outliers(net, SeedingPlan())",
    "result = fit(seeded.network, HyperParams(dim=12))[2]",
    "report = evaluate_all(seeded.network, result, seeded.outlier_ids, splits=(10, 50), reps=3)",
    "fit_hash = hashlib.sha256()",
    "for out in (result.embedding, result.component_scores, result.outlier_scores,",
    "            np.asarray(result.loss_trace)):",
    "    fit_hash.update(np.ascontiguousarray(out).tobytes())",
    "print(fit_hash.hexdigest(), hashlib.sha256(report.to_json().encode()).hexdigest())",
])


def test_fit_and_report_bits_do_not_depend_on_the_blas_thread_count():
    # BLAS is the only parallelism in the package, so its thread count must
    # reach no fit output and no report bit
    env = {**os.environ, "PYTHONPATH": str(Path(oaembed.__file__).parents[1])}
    hashes = []
    for threads in ("1", "2"):
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", BLAS_CHILD], capture_output=True,
                             text=True, env=env, timeout=120, check=True)
        hashes.append(out.stdout.split())
    assert len(hashes[0]) == 2
    assert hashes[0] == hashes[1]


def test_evaluate_all_keeps_lowest_wcss_kmeans_start(monkeypatch):
    rng = make_rng(14)
    net = synth_network(90, 3, 0.2, 0.02, 15, 0.9, seed=14)
    result = one_hot_result(net, [7])
    result.embedding = result.embedding + rng.normal(scale=0.6, size=result.embedding.shape)
    real = kmeans_pp_full
    starts = []

    def recording(points, k, seed):
        out = real(points, k, seed)
        starts.append((seed, out))
        return out

    monkeypatch.setattr(oaembed.evaluation, "kmeans_pp_full", recording)
    report = evaluate_all(net, result, [7], splits=(30,), reps=1, seed=5)
    assert [s for s, _ in starts] == [
        int(named_rng(5, f"kmeans-{i}").integers(2 ** 63)) for i in range(10)]
    final = [trace[-1] for _, (_, _, trace) in starts]
    accuracies = {clustering_accuracy(labels, net.labels) for _, (labels, _, _) in starts}
    assert len(accuracies) > 1  # the starts disagree, so the choice matters
    best = starts[int(np.argmin(final))][1][0]
    assert report.clustering_accuracy == clustering_accuracy(best, net.labels)
    starts.clear()
    assert evaluate_all(net, result, [7], splits=(30,), reps=1, seed=5) == report


def test_evaluate_all_kmeans_tie_keeps_earliest_start(monkeypatch):
    net = synth_network(60, 2, 0.2, 0.02, 10, 0.9, seed=15)
    wrong = (net.labels + np.arange(60)) % 2  # half the nodes mislabeled
    final = iter([5.0, 2.0, 3.0, 2.0, 4.0, 2.0, 6.0, 7.0, 8.0, 9.0])
    calls = []

    def fake(points, k, seed):
        calls.append(seed)
        labels = net.labels if len(calls) == 2 else wrong
        return labels, None, [10.0, next(final)]

    monkeypatch.setattr(oaembed.evaluation, "kmeans_pp_full", fake)
    report = evaluate_all(net, one_hot_result(net, [3]), [3], splits=(30,), reps=1)
    assert len(calls) == 10
    assert report.clustering_accuracy == 1.0


@pytest.mark.parametrize("exclude_outliers", [False, True])
def test_evaluate_all_equals_a_serial_composition(exclude_outliers):
    # the report must equal one fit per split and the 10 direct-table
    # k-means starts run one after another
    net = synth_network(150, 3, 0.2, 0.02, 15, 0.9, seed=24)
    truth = [4, 70, 111]
    result = _noisy_result(net, truth, 24, 0.7)
    report = evaluate_all(net, result, truth, splits=(20, 50), reps=3, seed=9,
                          exclude_outliers=exclude_outliers)
    assert report.f1 == reference_f1_by_split(net, result, truth, (20, 50), 3, 9,
                                              exclude_outliers=exclude_outliers)
    keep = np.setdiff1d(np.arange(150), truth) if exclude_outliers else np.arange(150)
    starts = [reference_kmeans_pp_full(result.embedding[keep], 3,
                                       int(named_rng(9, f"kmeans-{i}").integers(2 ** 63)))
              for i in range(10)]
    accuracies = [clustering_accuracy(labels, net.labels[keep]) for labels, _, _ in starts]
    assert len(set(accuracies)) > 1  # the starts disagree, so the choice matters
    best = min(range(10), key=lambda i: starts[i][2][-1])
    assert report.clustering_accuracy == accuracies[best]


def _noisy_result(net, truth, seed, noise):
    result = one_hot_result(net, truth)
    result.embedding = result.embedding + make_rng(seed).normal(
        scale=noise, size=result.embedding.shape)
    return result


# (synth_network args with its seed last, truth, noise, evaluate_all keywords)
F1_CASES = {
    "two-splits": ((150, 3, 0.2, 0.02, 30, 0.9, 16), [2, 77], 0.8,
                   dict(splits=(10, 50), reps=3, seed=6)),
    # 6 training nodes over 4 classes at 10 %: some sets lack a class
    "excluded-outliers-missing-class": ((60, 4, 0.3, 0.03, 16, 0.9, 18), [0, 31], 0.7,
                                        dict(splits=(10, 40), reps=6, seed=8,
                                             exclude_outliers=True)),
    "default-splits": ((200, 4, 0.2, 0.02, 24, 0.9, 25), [5, 60, 130, 190], 0.9,
                       dict(reps=4, seed=10)),
    "six-classes": ((240, 6, 0.15, 0.02, 30, 0.9, 26), [1, 100, 222], 1.0,
                    dict(splits=(20, 30), reps=5, seed=11)),
}


@pytest.mark.parametrize("case", sorted(F1_CASES))
def test_evaluate_all_f1_matches_row_major_classifier(case):
    # the float32 descent scores the F1 of the float64 row-major reference
    synth, truth, noise, kwargs = F1_CASES[case]
    net = synth_network(*synth[:6], seed=synth[6])
    result = _noisy_result(net, truth, synth[6], noise)
    got = evaluate_all(net, result, truth, **kwargs)
    class_counts = []

    def counting(x, y):
        class_counts.append(np.unique(y).size)
        return reference_train_classifier(x, y)

    ref = reference_f1_by_split(net, result, truth, got.config["splits"], kwargs["reps"],
                                kwargs["seed"], exclude_outliers=got.config["exclude_outliers"],
                                trainer=counting)
    assert got.f1 == ref
    assert any(micro < 1.0 for _, micro in got.f1.values())  # not a trivial embedding
    if case == "excluded-outliers-missing-class":
        assert min(class_counts) < net.n_classes == max(class_counts)
    if case == "default-splits":
        assert list(got.f1) == [10, 20, 30, 40, 50]


def test_evaluate_all_classifiers_equal_train_stack_alone_per_percentage(monkeypatch):
    # every classifier evaluate_all trains is byte-equal to `_train_stack` run
    # on its own on that percentage's splits, and each held-out set is scored
    # on what predict gives for that classifier
    net = synth_network(60, 4, 0.3, 0.03, 16, 0.9, seed=18)
    truth = [0, 31]
    result = _noisy_result(net, truth, 18, 0.7)
    splits, reps, seed = (10, 40), 6, 8
    trained, scored = [], []
    monkeypatch.setattr(oaembed.evaluation, "_train_stack",
                        lambda xs, ys: trained.append(_train_stack(xs, ys)) or trained[-1])
    monkeypatch.setattr(oaembed.evaluation, "f1_scores",
                        lambda y_true, y_pred: scored.append(y_pred) or f1_scores(y_true, y_pred))
    report = evaluate_all(net, result, truth, splits=splits, reps=reps, seed=seed,
                          exclude_outliers=True)
    keep = np.setdiff1d(np.arange(net.n_nodes), truth)
    x, y = result.embedding[keep], net.labels[keep]
    assert len(trained) == len(splits) and len(scored) == len(splits) * reps
    class_counts = set()
    for pct, got in zip(splits, trained):
        trains = np.stack([_classification_split(keep.size, pct / 100.0, y,
                                                 named_rng(seed, f"split-{pct}-{rep}"))
                           for rep in range(reps)])
        alone = _train_stack(x[trains], y[trains])
        for rep, (clf, ref) in enumerate(zip(got, alone)):
            class_counts.add(ref.classes.size)
            for field in ("weights", "classes", "feature_mean", "feature_scale"):
                a, b = getattr(clf, field), getattr(ref, field)
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()
            test = np.setdiff1d(np.arange(keep.size), trains[rep])
            assert np.array_equal(scored[splits.index(pct) * reps + rep],
                                  predict(ref, x[test]))
    assert len(class_counts) > 1  # some sets lack a class and train apart
    assert any(micro < 1.0 for _, micro in report.f1.values())


def test_evaluate_all_f1_matches_one_fit_per_split():
    net = synth_network(160, 4, 0.2, 0.02, 24, 0.9, seed=17)
    result = _noisy_result(net, [5, 60, 130], 17, 0.9)
    report = evaluate_all(net, result, [5, 60, 130], splits=(10, 30, 50), reps=4, seed=7)
    assert report.f1 == reference_f1_by_split(net, result, [5, 60, 130], (10, 30, 50), 4, 7)
    assert any(micro < 1.0 for _, micro in report.f1.values())


def test_evaluate_all_f1_keyed_by_percentage_in_any_split_order():
    net = synth_network(160, 4, 0.2, 0.02, 24, 0.9, seed=17)
    result = _noisy_result(net, [5, 60, 130], 17, 0.9)
    ascending = evaluate_all(net, result, [5, 60, 130], splits=(10, 30, 50), reps=3, seed=7)
    assert len(set(ascending.f1.values())) == 3  # a swapped mapping would show
    shuffled = evaluate_all(net, result, [5, 60, 130], splits=(50, 10, 30), reps=3, seed=7)
    assert list(shuffled.f1) == [50, 10, 30]
    assert shuffled.config["splits"] == [50, 10, 30]
    for pct in (10, 30, 50):
        assert shuffled.f1[pct] == ascending.f1[pct]


def test_evaluate_all_f1_matches_one_fit_per_split_without_outliers():
    # 6 training nodes over 4 classes: some splits lack a class and train
    # apart from the rest of their stack
    net = synth_network(60, 4, 0.3, 0.03, 16, 0.9, seed=18)
    truth = [0, 31]
    result = _noisy_result(net, truth, 18, 0.7)
    report = evaluate_all(net, result, truth, splits=(10, 40), reps=6, seed=8,
                          exclude_outliers=True)
    class_counts = []

    def counting(x, y):
        class_counts.append(np.unique(y).size)
        return train_alone(x, y)

    assert report.f1 == reference_f1_by_split(net, result, truth, (10, 40), 6, 8,
                                              exclude_outliers=True, trainer=counting)
    assert min(class_counts) < 4 == max(class_counts)


def test_evaluate_all_rejects_fractional_and_repeated_splits():
    net = synth_network(60, 2, 0.2, 0.02, 10, 0.9, seed=19)
    result = one_hot_result(net, [4])
    for splits in ((12.5, 12), (20, 20), (20, 20.0), (float("nan"),), (True,), ("30",)):
        with pytest.raises(ValueError, match="splits"):
            evaluate_all(net, result, [4], splits=splits, reps=1)
    whole = evaluate_all(net, result, [4], splits=(30.0,), reps=2)
    assert whole == evaluate_all(net, result, [4], splits=(30,), reps=2)
    assert whole.config["splits"] == [30]


def test_evaluate_all_reads_a_generator_of_splits_once():
    net = synth_network(60, 2, 0.2, 0.02, 10, 0.9, seed=19)
    result = one_hot_result(net, [4])
    report = evaluate_all(net, result, [4], splits=(pct for pct in (20, 40)), reps=2)
    assert report == evaluate_all(net, result, [4], splits=(20, 40), reps=2)


def test_evaluate_all_refuses_a_bare_number_of_splits():
    net = synth_network(60, 2, 0.2, 0.02, 10, 0.9, seed=19)
    result = one_hot_result(net, [4])
    for splits in (50, 50.0):
        with pytest.raises(ValueError, match="splits must hold whole train percentages"):
            evaluate_all(net, result, [4], splits=splits, reps=1)


def test_evaluate_all_rejects_an_empty_split_schedule():
    # an empty schedule would return a report with no f1 entries at all
    net = synth_network(63, 3, 0.2, 0.02, 10, 0.9, seed=20)
    result = one_hot_result(net, [4])
    for splits in ((), []):
        with pytest.raises(ValueError, match="splits"):
            evaluate_all(net, result, [4], splits=splits, reps=1)


def test_evaluate_all_refuses_non_integer_truth_ids():
    # these used to run as nodes 2, 1 and 3
    net = synth_network(50, 2, 0.2, 0.02, 10, 0.9, seed=13)
    result = one_hot_result(net, [1])
    for truth in ([2.7], [True], [np.float64(3.9)], [1, 2.0]):
        with pytest.raises(ValueError, match="truth_ids"):
            evaluate_all(net, result, truth, splits=(30,), reps=1)
    ints = evaluate_all(net, result, [1, 3], splits=(30,), reps=1)
    assert evaluate_all(net, result, np.array([1, 3]), splits=(30,), reps=1) == ints
    assert evaluate_all(net, result, iter([3, 1]), splits=(30,), reps=1) == ints


def test_evaluate_all_validation():
    net = synth_network(50, 2, 0.2, 0.02, 10, 0.9, seed=13)
    result = one_hot_result(net, [1])
    with pytest.raises(ValueError):
        evaluate_all(net, result, [])
    with pytest.raises(ValueError):
        evaluate_all(net, result, [50])
    with pytest.raises(ValueError):
        evaluate_all(net, result, [1], splits=(0,))
    for reps in (0, -1, 1.5, 2.0, True):
        with pytest.raises(ValueError, match="reps"):
            evaluate_all(net, result, [1], splits=(30,), reps=reps)
    for seed in (1.7, True):  # 1.7 used to run and report seed 1
        with pytest.raises(ValueError, match="seed"):
            evaluate_all(net, result, [1], splits=(30,), reps=1, seed=seed)
    everyone = list(range(50))
    one_class_left = [i for i in range(50) if net.labels[i] != net.labels[0]]
    for truth in (everyone, one_class_left):
        with pytest.raises(ValueError, match="exclude_outliers"):
            evaluate_all(net, result, truth, splits=(30,), exclude_outliers=True)
    unlabeled = AttributedNetwork(adjacency=net.adjacency,
                                  attributes=net.attributes)
    with pytest.raises(ValueError):
        evaluate_all(unlabeled, result, [1])
    short = EmbeddingResult(embedding=result.embedding[:49],
                            outlier_scores=result.outlier_scores[:49],
                            component_scores=result.component_scores[:49],
                            loss_trace=[0.0])
    with pytest.raises(ValueError):
        evaluate_all(net, short, [1])


# ---------------------------------------------------------------- reports


def sample_report():
    return EvalReport(recall_at={5: 0.2, 10: 0.4},
                      f1={10: (0.5, 0.6), 50: (0.7, 0.8)},
                      clustering_accuracy=0.9,
                      config={"seed": 3, "reps": 2})


def test_report_json_layout():
    doc = json.loads(sample_report().to_json())
    assert doc == {"recall_at": {"5": 0.2, "10": 0.4},
                   "f1": {"10": {"macro": 0.5, "micro": 0.6},
                          "50": {"macro": 0.7, "micro": 0.8}},
                   "clustering_accuracy": 0.9,
                   "config": {"seed": 3, "reps": 2}}


def test_report_tsv_layout():
    lines = sample_report().to_tsv().splitlines()
    assert lines[0] == "metric\tkey\tvalue"
    assert ["recall_at", "5", "0.2"] == lines[1].split("\t")
    assert any(line.startswith("f1_macro\t10\t") for line in lines)
    assert lines[-1].startswith("clustering_accuracy\t-\t")


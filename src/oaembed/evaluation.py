"""Embedding and outlier-ranking metrics: recall at top L percent, node
classification macro/micro F1, and clustering accuracy.

The classifier is a deterministic l2-regularized multinomial logistic
regression trained by full-batch gradient descent on per-dimension
standardized features (a deliberately dependency-free stand-in for heavier
model families; absolute F1 values are not comparable across classifiers).

`evaluate_all` fits the classifier 50 times by default (5 train percentages
x 10 reps). The reps of one percentage have equal size and descend as one
stack: features feature-major (reps x features x nodes) and logits
class-major (reps x classes x nodes), so both products are one batched
matmul and the softmax reduces the short class axis. A set trained alone (a
stack of one) or in a stack gets bit-identical weights. The loop computes
no training loss, as no iterate depends on it, and subtracts the one-hot
target as a dense array, which gives the bits of a scatter onto the
true-class entries (p - 0.0 is p). Each held-out set is scored by `predict`
on its own. Everything runs on the calling thread, one stack at a time.

Each stack takes 200 descent steps, a fixed count measured on a grid of
inputs, train percentages and seeds against a 2000-step reference
(CHANGES.md holds the grid). The descent runs in float32: each set's mean
and scale are float64 (predict reads them), each standardized entry is
formed in float64 and rounded to float32 once, and the weights, logits and
gradient are float32, so both products are sgemm calls and every elementwise
pass moves half the bytes. The weights come back as float64.

Clustering keeps the best of 10 seeded k-means++ starts by final
within-cluster sum of squares, and scores it by an exact maximum-weight
matching of clusters to classes (Kuhn-Munkres on integer counts). A Lloyd
step scores the clusters class-major, |c|^2 - 2 c.x as one k x N product,
and keeps a running first and second minimum over its k rows. A point
whose two nearest centroids lie within both forms' rounding bound of each
other takes the argmin of its direct distances, and the sum of squares is
taken directly on the assigned centroids, so labels, centroids and trace
equal a direct N x k x F difference table's bit for bit, duplicate
centroids and equidistant points included. With two or more features the
centroid sums are one bincount per feature, which adds each cluster's rows
in row order, as the mean of the cluster's rows does; that mean sums a
single feature pairwise, so a one-feature input keeps it.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .network import AttributedNetwork, EmbeddingResult
from .numerics import check_integer, make_rng, named_rng
from .tables import is_real, rank_nodes

RECALL_LEVELS = (5, 10, 15, 20, 25)


def recall_at(ranked, truth, l_percent: float) -> float:
    """Fraction of truth ids found in the top ceil(l% * N) of the ranking.

    l_percent is a real number in (0, 100]; a bool is refused. Of an
    ndarray ranking only the top is read, with one tolist() into Python
    ints, not boxed element by element."""
    if not isinstance(ranked, np.ndarray):
        ranked = list(ranked)
    truth = set(truth)
    if not truth:
        raise ValueError("truth set must be nonempty")
    if not (is_real(l_percent) and 0 < l_percent <= 100):
        raise ValueError(f"l_percent must be in (0, 100], got {l_percent!r}")
    top = ranked[:math.ceil(l_percent / 100.0 * len(ranked) - 1e-9)]
    if isinstance(top, np.ndarray):
        top = top.tolist()
    return len(truth.intersection(top)) / len(truth)


@dataclass
class Classifier:
    """Fitted multinomial logistic regression; weights include a bias row."""

    weights: np.ndarray       # (n_features + 1) x n_classes
    classes: np.ndarray       # original label values, sorted
    feature_mean: np.ndarray
    feature_scale: np.ndarray


def _train_stack(xs: np.ndarray, ys: np.ndarray, steps: int = 200) -> list[Classifier]:
    """Fit the classifier on each of R equal-size training sets (xs R x n x F,
    ys R x n, each of 2 or more classes, as _classification_split draws them)
    by full-batch gradient descent from a zero start, one Classifier per set
    in order. The l2 weight is 1e-3 (bias row exempt), the step size 0.1 and
    the default of 200 steps the measured count the module docstring gives;
    the descent is deterministic and runs in float32 (`_descend`).

    Sets with the same classes descend together as one stack. A set that
    lacks a class trains in a stack of its own class set rather than with
    that class masked out, because OpenBLAS picks its kernel by the number
    of class rows: a masked class leaves the other weights a few ulps away
    from a fit of the set on its own.
    """
    fits = [np.unique(y, return_inverse=True) for y in ys]
    groups = {}
    for r, (classes, _) in enumerate(fits):
        groups.setdefault(tuple(classes.tolist()), []).append(r)
    out = [None] * len(fits)
    for members in groups.values():
        yi = np.stack([fits[r][1] for r in members])
        # one group of every set descends on xs itself, not on a copy of it
        stack = _descend(xs if len(members) == len(fits) else xs[members], yi,
                         fits[members[0]][0], steps)
        for r, clf in zip(members, stack):
            out[r] = clf
    return out


def _descend(xs: np.ndarray, yi: np.ndarray, classes: np.ndarray,
             steps: int) -> list[Classifier]:
    """The gradient-descent loop over a stack of R training sets that all
    hold every one of the C classes; yi (R x n) indexes classes.

    Each set is standardized on its own and stored feature-major as zt
    (R x (F+1) x n, the last feature row is the bias), the weights
    class-major as wt (R x C x (F+1)), so each product is one matmul over
    the stack and the softmax reduces the short class axis. The mean and
    scale are float64; zt, wt and every array of the loop are float32, and
    each Classifier gets its weights as a float64 copy.
    """
    r_sets, n = yi.shape
    n_classes = classes.size
    mean = xs.mean(axis=1)
    scale = xs.std(axis=1)
    scale = np.where(scale < 1e-12, 1.0, scale)
    n_features = xs.shape[2]
    zt = np.empty((r_sets, n_features + 1, n), dtype=np.float32)
    for r in range(r_sets):
        # standardized in float64 one set at a time, rounded to float32 once
        zt[r, :-1] = ((xs[r] - mean[r]) / scale[r]).T
    zt[:, -1] = 1.0
    # the one-hot target, subtracted whole: off the true class p - 0.0 is p
    # bit for bit (p >= 0), and a dense subtract is faster than a scatter
    target = np.zeros((r_sets, n_classes, n), dtype=np.float32)
    target[np.arange(r_sets)[:, None], yi, np.arange(n)] = 1.0

    # the Python-float constants below keep every array float32 (NEP 50)
    wt = np.zeros((r_sets, n_classes, n_features + 1), dtype=np.float32)
    p = np.empty((r_sets, n_classes, n), dtype=np.float32)
    # the softmax's max, then its sum
    per_node = np.empty((r_sets, 1, n), dtype=np.float32)
    grad = np.empty_like(wt)
    # the views and the l2 buffer are taken once, outside the loop
    z_nodes = zt.transpose(0, 2, 1)
    reg, grad_reg = wt[:, :, :-1], grad[:, :, :-1]
    l2 = np.empty_like(reg)
    for _ in range(steps):
        np.matmul(wt, zt, out=p)
        np.maximum.reduce(p, axis=1, keepdims=True, out=per_node)
        p -= per_node
        np.exp(p, out=p)
        np.add.reduce(p, axis=1, keepdims=True, out=per_node)
        p /= per_node
        p -= target
        np.matmul(p, z_nodes, out=grad)
        grad /= n
        np.multiply(reg, 1e-3, out=l2)
        grad_reg += l2
        grad *= 0.1
        wt -= grad
    return [Classifier(weights=np.ascontiguousarray(wt[r].T, dtype=np.float64),
                       classes=classes, feature_mean=mean[r], feature_scale=scale[r])
            for r in range(r_sets)]


def predict(clf: Classifier, x: np.ndarray) -> np.ndarray:
    """Argmax class for each row (ties resolved to the lowest class)."""
    x = np.asarray(x, dtype=np.float64)
    z = np.column_stack([(x - clf.feature_mean) / clf.feature_scale,
                         np.ones(x.shape[0])])
    return clf.classes[np.argmax(z @ clf.weights, axis=1)]


def f1_scores(y_true, y_pred) -> tuple[float, float]:
    """(macro, micro) F1.

    Macro averages per-class F1 over the classes present in y_true, counting
    an undefined (0 true positive, 0 predicted, 0 actual) class as 0. Micro
    pools counts, which for single-label prediction equals plain accuracy.
    """
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise ValueError("y_true and y_pred must be equal-length 1-D vectors")
    if y_true.size == 0:
        raise ValueError("empty label vectors")
    classes, yt = np.unique(y_true, return_inverse=True)
    m = classes.size
    # each prediction's index in classes, m for a class y_true lacks
    pos = np.searchsorted(classes, y_pred)
    hit = pos < m
    hit[hit] = classes[pos[hit]] == y_pred[hit]
    yp = np.where(hit, pos, m)
    tp = np.bincount(yt[yt == yp], minlength=m)
    actual = np.bincount(yt, minlength=m)
    predicted = np.bincount(yp, minlength=m + 1)[:m]
    # 2 tp + fp + fn is predicted + actual, never 0: every class has a true node
    macro = float(np.mean(2.0 * tp / (predicted + actual)))
    micro = float(np.mean(y_true == y_pred))  # pooled F1 = accuracy here
    return macro, micro


def kmeans_pp_full(points: np.ndarray, k: int, seed: int):
    """KMeans++ seeding plus at most 100 Lloyd iterations.

    Returns (labels, centroids, per-iteration within-cluster-sum-of-squares
    trace). Empty clusters are re-seeded to the point farthest from its own
    centroid, unless that point lies within rounding of it; such a cluster
    keeps its centroid. Deterministic per seed. points must be finite and k
    an integer in [1, N] (a bool or float k is refused, not truncated).

    Labels, centroids and trace equal those of a direct N x k x F distance
    table and per-cluster means bit for bit (module docstring).
    """
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("points must be a nonempty N x F array")
    if not np.isfinite(x).all():
        raise ValueError("points must be finite")
    n = x.shape[0]
    check_integer(k, "k")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    rng = make_rng(seed)
    diff = np.empty_like(x)  # one N x F buffer for every squared difference

    def sq_dist(c):
        """Each point's squared distance to c, one row or one row per point:
        (x - c) ** 2 summed along each row, with the difference squared in
        one reused buffer."""
        np.subtract(x, c, out=diff)
        np.multiply(diff, diff, out=diff)
        return diff.sum(axis=1)

    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(n)]
    d2 = sq_dist(centroids[0])
    for t in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)  # all points coincide with a centroid
        centroids[t] = x[idx]
        np.minimum(d2, sq_dist(centroids[t]), out=d2)

    # twice the rounding bound of both distance forms, per point: a point whose
    # two nearest centroids lie closer than this in the Gram form is a near tie
    tie_scale = 4 * (x.shape[1] + 2) * np.finfo(np.float64).eps
    x_norm = np.sqrt(sq_dist(0.0))
    xt = np.ascontiguousarray(x.T)  # one contiguous column per feature
    lower, larger = np.empty(n, dtype=bool), np.empty(n)
    labels = np.full(n, -1)
    trace = []
    for _ in range(100):
        # the argmin over |c|^2 - 2 c.x, which drops each point's constant
        # |x|^2: k x N, not the N x k x F of a direct difference table
        c_sq = (centroids ** 2).sum(axis=1)
        score = centroids @ xt
        score *= -2.0
        score += c_sq[:, None]
        # a running first and second minimum over the k rows; the strict <
        # keeps the earliest cluster on a tie, as argmin does, and the larger
        # of a row and the best so far is a candidate for the second
        new_labels = np.zeros(n, dtype=np.intp)
        best = score[0].copy()
        second = np.full(n, np.inf)
        for c in range(1, k):
            row = score[c]
            np.less(row, best, out=lower)
            np.maximum(best, row, out=larger)
            np.minimum(second, larger, out=second)
            np.minimum(best, row, out=best)
            np.copyto(new_labels, c, where=lower)
        if k > 1:
            # near ties take the argmin of their direct distances, so every
            # label is the one a direct table would give, duplicate centroids
            # and equidistant points included
            near = np.flatnonzero(second - best
                                  <= tie_scale * (x_norm + math.sqrt(c_sq.max())) ** 2)
            if near.size:
                xn = x[near]
                new_labels[near] = np.argmin(np.column_stack(
                    [((xn - c) ** 2).sum(axis=1) for c in centroids]), axis=1)
        # the direct form on the assigned centroids sums the same length-F
        # rows in the same order as a direct table would
        np.take(centroids, new_labels, axis=0, out=diff, mode="clip")
        trace.append(float(sq_dist(diff).sum()))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        sizes = np.bincount(labels, minlength=k)
        filled = sizes > 0
        if x.shape[1] > 1:
            # bincount adds each cluster's rows in row order, as the mean of
            # x[labels == c] along axis 0 does, so the sums are that mean's
            sums = np.stack([np.bincount(labels, weights=col, minlength=k) for col in xt],
                            axis=1)
            centroids[filled] = sums[filled] / sizes[filled, None]
        else:  # that mean sums a single column pairwise, not in row order
            for c in np.flatnonzero(filled):
                centroids[c] = x[labels == c].mean(axis=0)
        empty = np.flatnonzero(~filled)
        if empty.size:
            own = sq_dist(centroids[labels])
            # a point within the assignment's rounding bound of its centroid
            # already sits on it: re-seeding there would only swap clusters
            # at every step (k above the number of distinct points)
            near_own = tie_scale * (x_norm + math.sqrt(c_sq.max())) ** 2
            for c in empty:
                far = int(np.argmax(own))
                if own[far] <= near_own[far]:
                    break
                centroids[c] = x[far]
                own[far] = -1.0
    return labels, centroids, trace


def clustering_accuracy(pred, truth) -> float:
    """Best alignment accuracy between cluster ids and class ids.

    Maximum-weight injective matching of clusters to classes on the confusion
    matrix, which equals the best-permutation agreement when the counts match.
    """
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValueError("pred and truth must be equal-length 1-D vectors")
    if pred.size == 0:
        raise ValueError("empty label vectors")
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(truth, return_inverse=True)
    conf = np.zeros((pi.max() + 1, ti.max() + 1), dtype=np.int64)
    np.add.at(conf, (pi, ti), 1)
    return float(_max_matching(conf)) / pred.size


def _max_matching(w: np.ndarray) -> int:
    """Largest total weight of a matching of rows to columns of the integer
    matrix w, each row and column used at most once.

    Kuhn-Munkres by shortest augmenting paths on the orientation with rows
    <= columns, minimizing -w with row potentials u and column potentials v:
    O(rows^2 x columns), exact on integers. Index 0 of the column arrays is
    a virtual column that holds the row being added.
    """
    if w.shape[0] > w.shape[1]:
        w = w.T
    n, m = w.shape
    cost = np.zeros((n + 1, m + 1), dtype=np.int64)
    cost[1:, 1:] = -w
    u = np.zeros(n + 1, dtype=np.int64)
    v = np.zeros(m + 1, dtype=np.int64)
    row_of = np.zeros(m + 1, dtype=np.int64)  # row matched to each column, 0 if none
    way = np.zeros(m + 1, dtype=np.int64)     # previous column on the path
    for i in range(1, n + 1):
        row_of[0] = i
        j0 = 0
        slack = np.full(m + 1, np.iinfo(np.int64).max // 2)
        used = np.zeros(m + 1, dtype=bool)
        while row_of[j0]:
            used[j0] = True
            i0 = row_of[j0]
            cur = cost[i0] - u[i0] - v
            better = ~used & (cur < slack)
            slack[better] = cur[better]
            way[better] = j0
            free = np.flatnonzero(~used)
            j0 = free[np.argmin(slack[free])]
            delta = slack[j0]
            u[row_of[used]] += delta
            v[used] -= delta
            slack[~used] -= delta
        while j0:  # flip the matching along the path back to column 0
            prev = way[j0]
            row_of[j0] = row_of[prev]
            j0 = prev
    matched = np.flatnonzero(row_of[1:])
    return int(w[row_of[1:][matched] - 1, matched].sum())


@dataclass
class EvalReport:
    """recall_at maps L percent to recall; f1 maps train percent to
    (macro, micro); config records how the numbers were produced."""

    recall_at: dict[int, float]
    f1: dict[int, tuple[float, float]]
    clustering_accuracy: float
    config: dict

    def to_json(self) -> str:
        doc = {
            "recall_at": {str(k): v for k, v in self.recall_at.items()},
            "f1": {str(k): {"macro": m, "micro": mi} for k, (m, mi) in self.f1.items()},
            "clustering_accuracy": self.clustering_accuracy,
            "config": self.config,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def to_tsv(self) -> str:
        lines = ["metric\tkey\tvalue"]
        for k in sorted(self.recall_at):
            lines.append(f"recall_at\t{k}\t{self.recall_at[k]!r}")
        for k in sorted(self.f1):
            lines.append(f"f1_macro\t{k}\t{self.f1[k][0]!r}")
            lines.append(f"f1_micro\t{k}\t{self.f1[k][1]!r}")
        lines.append(f"clustering_accuracy\t-\t{self.clustering_accuracy!r}")
        return "\n".join(lines) + "\n"


def _classification_split(n: int, fraction: float, labels: np.ndarray, rng):
    """Train indices of size round(fraction * n) with at least 2 classes."""
    n_train = min(max(int(round(fraction * n)), 2), n - 1)
    for _ in range(200):
        train = rng.choice(n, size=n_train, replace=False)
        if np.unique(labels[train]).size >= 2:
            return train
    raise ValueError("could not draw a training split with 2 classes in 200 tries")


def evaluate_all(net: AttributedNetwork, result: EmbeddingResult, truth_ids,
                 splits=(10, 20, 30, 40, 50), reps: int = 10, seed: int = 0,
                 exclude_outliers: bool = False) -> EvalReport:
    """The full metric battery for one embedding of one seeded network.

    truth_ids are integer node indices of the planted outliers; a float or
    bool id is refused, not truncated. splits are one or more distinct
    whole train percentages in (0, 100); a bool is refused. Classification
    trains the classifier (`_train_stack`) on `reps` seeded splits per train
    percentage, as one stack per percentage, and averages the F1 over the
    reps. Clustering uses as many clusters as ground-truth classes and runs
    10 seeded k-means++ starts in order, keeping the one with the lowest
    final within-cluster sum of squares (the earliest on a tie). Everything
    runs on the calling thread. With
    exclude_outliers the classification/clustering metrics skip the planted
    nodes (recall always uses the full ranking); a ValueError names
    exclude_outliers when the remaining nodes span fewer than 2 classes.
    """
    truth = set()
    for i in truth_ids:
        check_integer(i, "each of truth_ids")
        truth.add(int(i))
    n = net.n_nodes
    if result.embedding.shape[0] != n:
        raise ValueError("embedding row count does not match the network")
    if not truth:
        raise ValueError("truth set must be nonempty")
    if not all(0 <= i < n for i in truth):
        raise ValueError("truth ids out of range")
    if net.labels is None:
        raise ValueError("evaluation requires a labeled network")
    check_integer(reps, "reps")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    try:
        splits = list(splits)  # read once: a generator is not read twice
    except TypeError:
        raise ValueError(f"splits must hold whole train percentages in "
                         f"(0, 100), got {splits!r}") from None
    for pct in splits:
        if not (is_real(pct) and 0 < pct < 100 and float(pct).is_integer()):
            raise ValueError(f"splits must hold whole train percentages in "
                             f"(0, 100), got {pct}")
    pcts = [int(pct) for pct in splits]
    if not pcts or len(set(pcts)) != len(pcts):
        raise ValueError(f"splits must name distinct train percentages, got {pcts}")

    ranked = rank_nodes(result.outlier_scores)
    recall = {level: recall_at(ranked, truth, level) for level in RECALL_LEVELS}

    keep = np.arange(n)
    if exclude_outliers:
        keep = keep[~np.isin(keep, list(truth))]
        if np.unique(net.labels[keep]).size < 2:
            raise ValueError("exclude_outliers leaves fewer than 2 classes "
                             "to classify and cluster")
    x = result.embedding[keep]
    y = net.labels[keep]

    def classify(pct):
        # draws only from this percentage's named streams, so the other
        # percentages in splits, and their order, change none of its bits
        trains = np.stack([
            _classification_split(keep.size, pct / 100.0, y,
                                  named_rng(seed, f"split-{pct}-{rep}"))
            for rep in range(reps)])
        scores = []
        for train, clf in zip(trains, _train_stack(x[trains], y[trains])):
            # the other nodes in ascending order, as setdiff1d gives them,
            # without its sort
            held_out = np.ones(keep.size, dtype=bool)
            held_out[train] = False
            test = np.flatnonzero(held_out)
            scores.append(f1_scores(y[test], predict(clf, x[test])))
        macros, micros = zip(*scores)
        return float(np.mean(macros)), float(np.mean(micros))

    f1 = {pct: classify(pct) for pct in pcts}
    k = net.n_classes
    starts = [kmeans_pp_full(x, k, int(named_rng(seed, f"kmeans-{i}").integers(2 ** 63)))
              for i in range(10)]
    # lowest final within-cluster sum of squares; min keeps the earliest on a tie
    acc = clustering_accuracy(min(starts, key=lambda start: start[2][-1])[0], y)

    config = {"splits": pcts, "reps": int(reps),
              "seed": int(seed), "exclude_outliers": bool(exclude_outliers),
              "recall_levels": list(RECALL_LEVELS), "n_clusters": int(k),
              "kmeans_starts": 10, "n_nodes": int(n), "n_truth": len(truth)}
    return EvalReport(recall_at=recall, f1=f1, clustering_accuracy=acc, config=config)


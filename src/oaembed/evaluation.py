"""Embedding and outlier-ranking metrics: recall at top L percent, node
classification macro/micro F1, and clustering accuracy.

The classifier is a deterministic l2-regularized multinomial logistic
regression trained by full-batch gradient descent on per-dimension
standardized features (a deliberately dependency-free stand-in for heavier
model families; absolute F1 values are not comparable across classifiers).
Its training loop is class-major (classes x nodes), which keeps the softmax
reductions on numpy's fast axis. Clustering keeps the best of 10 seeded
k-means++ starts by final within-cluster sum of squares.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError
from .network import AttributedNetwork, EmbeddingResult
from .numerics import make_rng, named_rng

RECALL_LEVELS = (5, 10, 15, 20, 25)


def rank_nodes(scores: np.ndarray) -> np.ndarray:
    """Node indices sorted by descending score, ties by ascending index."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1:
        raise ValueError("scores must be a 1-D vector")
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    return np.lexsort((np.arange(s.size), -s))


def recall_at(ranked, truth, l_percent: float) -> float:
    """Fraction of truth ids found in the top ceil(l% * N) of the ranking."""
    ranked = list(ranked)
    truth = set(truth)
    if not truth:
        raise ValueError("truth set must be nonempty")
    if not 0 < l_percent <= 100:
        raise ValueError(f"l_percent must be in (0, 100], got {l_percent}")
    top = ranked[:math.ceil(l_percent / 100.0 * len(ranked) - 1e-9)]
    return len(set(top) & truth) / len(truth)


@dataclass
class Classifier:
    """Fitted multinomial logistic regression; weights include a bias row."""

    weights: np.ndarray       # (n_features + 1) x n_classes
    classes: np.ndarray       # original label values, sorted
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    loss_trace: list[float] = field(default_factory=list)


def train_classifier(x: np.ndarray, y: np.ndarray, steps: int = 500) -> Classifier:
    """Fit by full-batch gradient descent from a zero start.

    The l2 weight is 1e-3 (bias row exempt) and the step size 0.1.
    Deterministic for a given input. Records the regularized training loss
    before every step and after the last one.

    The loop runs class-major (weights C x (F+1), logits C x n), so the
    softmax reduces the short class axis as axis 0: numpy reduces an n x C
    array along its length-C axis 1 an order of magnitude slower.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ValueError("x must be N x F with matching y of length N")
    classes, yi = np.unique(y, return_inverse=True)
    if classes.size < 2:
        raise ValueError("training data must contain at least 2 classes")
    n = x.shape[0]

    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale = np.where(scale < 1e-12, 1.0, scale)
    zt = np.vstack([((x - mean) / scale).T, np.ones(n)])  # (F+1) x n
    cols = np.arange(n)
    target = np.zeros((classes.size, n))
    target[yi, cols] = 1.0

    wt = np.zeros((classes.size, zt.shape[0]))  # last column is the bias
    trace = []
    for step in range(steps + 1):
        logits = wt @ zt
        e = np.exp(logits - logits.max(axis=0))
        p = e / e.sum(axis=0)
        data_loss = -np.log(np.maximum(p[yi, cols], 1e-300)).mean()
        reg = wt[:, :-1]
        trace.append(data_loss + 0.5 * 1e-3 * float((reg * reg).sum()))
        if step == steps:
            break
        grad = (p - target) @ zt.T / n
        grad[:, :-1] += 1e-3 * reg
        wt -= 0.1 * grad
    return Classifier(weights=np.ascontiguousarray(wt.T), classes=classes,
                      feature_mean=mean, feature_scale=scale, loss_trace=trace)


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
    per_class = []
    for c in np.unique(y_true):
        tp = int(np.sum((y_pred == c) & (y_true == c)))
        fp = int(np.sum((y_pred == c) & (y_true != c)))
        fn = int(np.sum((y_pred != c) & (y_true == c)))
        per_class.append(2.0 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0)
    macro = float(np.mean(per_class))
    micro = float(np.mean(y_true == y_pred))  # pooled F1 = accuracy here
    return macro, micro


def kmeans_pp_full(points: np.ndarray, k: int, seed: int):
    """KMeans++ seeding plus at most 100 Lloyd iterations.

    Returns (labels, centroids, per-iteration within-cluster-sum-of-squares
    trace). Empty clusters are re-seeded to the point farthest from its own
    centroid. Deterministic per seed.
    """
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("points must be a nonempty N x F array")
    n = x.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    rng = make_rng(seed)

    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(n)]
    d2 = ((x - centroids[0]) ** 2).sum(axis=1)
    for t in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)  # all points coincide with a centroid
        centroids[t] = x[idx]
        d2 = np.minimum(d2, ((x - centroids[t]) ** 2).sum(axis=1))

    labels = np.full(n, -1)
    trace = []
    for _ in range(100):
        dists = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(dists, axis=1)
        trace.append(float(dists[np.arange(n), new_labels].sum()))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            mask = labels == c
            if mask.any():
                centroids[c] = x[mask].mean(axis=0)
        own = ((x - centroids[labels]) ** 2).sum(axis=1)
        for c in range(k):
            if not (labels == c).any():
                far = int(np.argmax(own))
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
    # imported here: scipy.optimize is a large import that only clustering needs,
    # and every CLI process imports this module
    from scipy.optimize import linear_sum_assignment
    rows, cols = linear_sum_assignment(conf, maximize=True)
    return float(conf[rows, cols].sum()) / pred.size


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

    @staticmethod
    def from_json(text: str) -> "EvalReport":
        doc = json.loads(text)
        return EvalReport(
            recall_at={int(k): v for k, v in doc["recall_at"].items()},
            f1={int(k): (v["macro"], v["micro"]) for k, v in doc["f1"].items()},
            clustering_accuracy=doc["clustering_accuracy"],
            config=doc["config"])

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

    truth_ids are node indices of the planted outliers. Classification trains
    `train_classifier` (class-major gradient descent) on `reps` seeded splits
    per train percentage and averages. Clustering uses as many clusters as
    ground-truth classes and runs 10 seeded k-means++ starts, keeping the one
    with the lowest final within-cluster sum of squares (the earliest on a
    tie). With exclude_outliers the classification/clustering metrics skip
    the planted nodes (recall always uses the full ranking); a ValueError
    names exclude_outliers when the remaining nodes span fewer than 2
    classes.
    """
    truth = set(int(i) for i in truth_ids)
    n = net.n_nodes
    if result.embedding.shape[0] != n:
        raise ValueError("embedding row count does not match the network")
    if not truth:
        raise ValueError("truth set must be nonempty")
    if not all(0 <= i < n for i in truth):
        raise ValueError("truth ids out of range")
    if net.labels is None:
        raise ValueError("evaluation requires a labeled network")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")

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

    f1 = {}
    for pct in splits:
        if not 0 < pct < 100:
            raise ValueError(f"train percentage must be in (0, 100), got {pct}")
        macros, micros = [], []
        for rep in range(reps):
            rng = named_rng(seed, f"split-{pct}-{rep}")
            train = _classification_split(keep.size, pct / 100.0, y, rng)
            test = np.setdiff1d(np.arange(keep.size), train)
            clf = train_classifier(x[train], y[train])
            macro, micro = f1_scores(y[test], predict(clf, x[test]))
            macros.append(macro)
            micros.append(micro)
        f1[int(pct)] = (float(np.mean(macros)), float(np.mean(micros)))

    k = net.n_classes
    starts = [kmeans_pp_full(x, k, int(named_rng(seed, f"kmeans-{i}").integers(2 ** 63)))
              for i in range(10)]
    # lowest final within-cluster sum of squares; min keeps the earliest on a tie
    clusters = min(starts, key=lambda start: start[2][-1])[0]
    acc = clustering_accuracy(clusters, y)

    config = {"splits": [int(p) for p in splits], "reps": int(reps),
              "seed": int(seed), "exclude_outliers": bool(exclude_outliers),
              "recall_levels": list(RECALL_LEVELS), "n_clusters": int(k),
              "kmeans_starts": 10, "n_nodes": int(n), "n_truth": len(truth)}
    return EvalReport(recall_at=recall, f1=f1, clustering_accuracy=acc, config=config)


def load_report(path: str) -> EvalReport:
    try:
        with open(path, encoding="utf-8") as fh:
            return EvalReport.from_json(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc}", path) from exc
    except (KeyError, ValueError) as exc:
        raise ParseError(f"malformed report: {exc}", path) from exc

"""Shared builders and independent oracles for the test suite.

The oracles here deliberately use explicit Python loops or a different
algorithm than the library code (e.g. a two-sided Jacobi eigensolver to
cross-check the LAPACK SVD), so a bug in the vectorized implementation
cannot cancel out in the comparison.
"""

import copy
import inspect
import io
import itertools
import math
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from oaembed import core
from oaembed.core import FactorModel, OutlierScores
from oaembed.errors import ParseError
from oaembed.evaluation import Classifier, _classification_split, _train_stack, f1_scores, predict
from oaembed.network import AttributedNetwork
from oaembed.numerics import make_rng, named_rng, nmf_init, row_sq_norms
from oaembed.tables import _data_lines, final_outlier_score, rank_nodes


def to_dense(m) -> np.ndarray:
    return np.asarray(m.todense()) if sp.issparse(m) else np.asarray(m, dtype=float)


def random_orthogonal(rng, k: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(k, k)))
    return q * np.sign(np.diag(r))


def rand_scores(rng, n: int) -> np.ndarray:
    """A valid score vector: entries in (0, 1], summing to 1."""
    if n == 1:
        return np.array([1.0])
    s = rng.uniform(0.2, 1.0, size=n)
    return s / s.sum()


def rand_score_triplet(rng, n: int) -> OutlierScores:
    return OutlierScores(rand_scores(rng, n), rand_scores(rng, n), rand_scores(rng, n))


def rand_model(rng, n: int, k: int, d: int) -> FactorModel:
    return FactorModel(struct_embed=rng.normal(size=(n, k)),
                       struct_context=rng.normal(size=(k, n)),
                       attr_embed=rng.normal(size=(n, k)),
                       attr_basis=rng.normal(size=(k, d)),
                       align=random_orthogonal(rng, k))


def rand_network(rng, n: int, d: int, edge_p: float | None = None,
                 attr_p: float = 0.3) -> AttributedNetwork:
    """Random undirected binary graph with sparse nonnegative attributes, each
    entry nonzero with probability attr_p (plus one entry in any empty row)."""
    if edge_p is None:
        edge_p = min(0.5, 4.0 / n)
    ii, jj = np.triu_indices(n, 1)
    keep = rng.random(ii.size) < edge_p
    ei, ej = ii[keep], jj[keep]
    adj = sp.csr_matrix((np.ones(2 * ei.size),
                         (np.concatenate([ei, ej]), np.concatenate([ej, ei]))),
                        shape=(n, n))
    attrs = np.where(rng.random((n, d)) < attr_p,
                     rng.uniform(0.2, 2.0, size=(n, d)), 0.0)
    if not attrs.any(axis=1).all():  # keep every row nonzero
        attrs[~attrs.any(axis=1), 0] = 1.0
    return AttributedNetwork(adjacency=adj, attributes=attrs)


def frobenius_sq_residual(m, p: np.ndarray, q: np.ndarray) -> float:
    """Total squared reconstruction error sum_ij (m[i,j] - (p@q)[i,j])^2."""
    return float(((to_dense(m) - p @ q) ** 2).sum())


def reference_nmf_mu(m, k: int, iters: int, rng):
    """Plain multiplicative updates (Lee and Seung), one product with m per
    update: `iters` sweeps of one q update then one p update, from the same
    uniform (0.1, 1.0) start and 1e-12 denominator floor as `nmf_init`."""
    n, d = m.shape
    p = rng.uniform(0.1, 1.0, size=(n, k))
    q = rng.uniform(0.1, 1.0, size=(k, d))
    mt = m.T
    for _ in range(iters):
        q *= np.asarray(mt @ p).T / np.maximum((p.T @ p) @ q, 1e-12)
        p *= np.asarray(m @ q.T) / np.maximum(p @ (q @ q.T), 1e-12)
    return p, q


def brute_force_clustering_accuracy(pred, truth) -> float:
    """Enumerate every injective cluster-to-class assignment."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(truth, return_inverse=True)
    conf = np.zeros((int(pi.max()) + 1, int(ti.max()) + 1), dtype=np.int64)
    np.add.at(conf, (pi, ti), 1)
    return brute_force_matching(conf) / pred.size


def brute_force_matching(conf) -> int:
    """Largest total of conf over injective row-to-column assignments, by
    enumerating them all."""
    conf = np.asarray(conf)
    np_, nt = conf.shape
    best = 0
    if np_ <= nt:
        for perm in itertools.permutations(range(nt), np_):
            best = max(best, sum(int(conf[r, perm[r]]) for r in range(np_)))
    else:
        for perm in itertools.permutations(range(np_), nt):
            best = max(best, sum(int(conf[perm[c], c]) for c in range(nt)))
    return best


def reference_rank_nodes(scores) -> np.ndarray:
    """Node indices by descending score, ties by ascending index, as a
    lexsort on (index, -score)."""
    s = np.asarray(scores, dtype=np.float64)
    return np.lexsort((np.arange(s.size), -s))


def reference_f1_scores(y_true, y_pred) -> tuple[float, float]:
    """(macro, micro) F1 with tp, fp and fn counted one class of y_true at a
    time by elementwise comparisons; an undefined class counts as 0."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    per_class = []
    for c in np.unique(y_true):
        tp = int(np.sum((y_pred == c) & (y_true == c)))
        fp = int(np.sum((y_pred == c) & (y_true != c)))
        fn = int(np.sum((y_pred != c) & (y_true == c)))
        per_class.append(2.0 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0)
    return float(np.mean(per_class)), float(np.mean(y_true == y_pred))


def reference_kmeans_pp_full(points, k: int, seed: int):
    """`kmeans_pp_full` with the direct N x k x F distance table in each
    Lloyd step instead of the Gram form: the same k-means++ seeding, stop
    rule and empty-cluster re-seeding (none onto a point within the rounding
    bound of its own centroid), so (labels, centroids, trace) must match bit
    for bit."""
    x = np.asarray(points, dtype=np.float64)
    n = x.shape[0]
    rng = make_rng(seed)
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(n)]
    d2 = ((x - centroids[0]) ** 2).sum(axis=1)
    for t in range(1, k):
        total = d2.sum()
        idx = rng.choice(n, p=d2 / total) if total > 0 else rng.integers(n)
        centroids[t] = x[idx]
        d2 = np.minimum(d2, ((x - centroids[t]) ** 2).sum(axis=1))

    tie_scale = 4 * (x.shape[1] + 2) * np.finfo(np.float64).eps
    x_norm = np.sqrt((x ** 2).sum(axis=1))
    labels = np.full(n, -1)
    trace = []
    for _ in range(100):
        c_sq = (centroids ** 2).sum(axis=1)
        dists = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(dists, axis=1)
        trace.append(float(dists[np.arange(n), new_labels].sum()))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        sizes = np.bincount(labels, minlength=k)
        for c in np.flatnonzero(sizes):
            centroids[c] = x[labels == c].mean(axis=0)
        empty = np.flatnonzero(sizes == 0)
        if empty.size:
            own = ((x - centroids[labels]) ** 2).sum(axis=1)
            near_own = tie_scale * (x_norm + math.sqrt(c_sq.max())) ** 2
            for c in empty:
                far = int(np.argmax(own))
                if own[far] <= near_own[far]:
                    break
                centroids[c] = x[far]
                own[far] = -1.0
    return labels, centroids, trace


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


# evaluate_all's descent length, the default of `_train_stack`
TRAIN_STEPS = inspect.signature(_train_stack).parameters["steps"].default


def train_alone(x: np.ndarray, y: np.ndarray, steps: int = TRAIN_STEPS) -> Classifier:
    """One training set fitted by evaluate_all's trainer as a stack of one."""
    return _train_stack(x[None], y[None], steps)[0]


def reference_train_classifier(x: np.ndarray, y: np.ndarray,
                               steps: int = TRAIN_STEPS) -> Classifier:
    """One training set by a row-major (nodes x classes) gradient-descent
    loop with a dense one-hot target, against `_train_stack`'s stacked,
    feature-major loop: the same zero start, step 0.1 and l2 weight 1e-3
    with the bias row exempt."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    classes = np.unique(y)
    n = x.shape[0]

    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale = np.where(scale < 1e-12, 1.0, scale)
    z = np.column_stack([(x - mean) / scale, np.ones(n)])
    target = (y[:, None] == classes[None, :]).astype(np.float64)

    w = np.zeros((z.shape[1], classes.size))
    reg_mask = np.ones_like(w)
    reg_mask[-1, :] = 0.0  # bias row unregularized
    for _ in range(steps):
        p = _softmax(z @ w)
        w -= 0.1 * (z.T @ (p - target) / n + 1e-3 * w * reg_mask)
    return Classifier(weights=w, classes=classes, feature_mean=mean,
                      feature_scale=scale)


def reference_f1_by_split(net: AttributedNetwork, result, truth_ids, splits, reps: int,
                          seed: int, exclude_outliers: bool = False,
                          trainer=train_alone) -> dict:
    """evaluate_all's F1 map by one fit per split: for each train percentage,
    rep by rep, draw the split from its named stream, fit `trainer` on that
    set alone, predict the rest and score; the means over the reps."""
    keep = np.arange(net.n_nodes)
    if exclude_outliers:
        keep = keep[~np.isin(keep, list(truth_ids))]
    x = result.embedding[keep]
    y = net.labels[keep]
    f1 = {}
    for pct in splits:
        macros, micros = [], []
        for rep in range(reps):
            rng = named_rng(seed, f"split-{pct}-{rep}")
            train = _classification_split(keep.size, pct / 100.0, y, rng)
            test = np.setdiff1d(np.arange(keep.size), train)
            clf = trainer(x[train], y[train])
            macro, micro = f1_scores(y[test], predict(clf, x[test]))
            macros.append(macro)
            micros.append(micro)
        f1[pct] = (float(np.mean(macros)), float(np.mean(micros)))
    return f1


def class_stats_by_loop(net: AttributedNetwork) -> dict:
    """seeding._ClassStats's fields built one class at a time from row subsets."""
    degrees = np.diff(net.adjacency.indptr)
    attrs = to_dense(net.attributes)
    nnz_counts = np.count_nonzero(attrs, axis=1)
    out = {"members": [], "external": [], "mean_degree": [], "nnz_counts": [],
           "col_sums": [], "col_nnz": []}
    for c in range(net.n_classes):
        mask = net.labels == c
        idx = np.nonzero(mask)[0]
        out["members"].append(idx)
        out["external"].append(np.nonzero(~mask)[0])
        out["mean_degree"].append(degrees[idx].mean())
        out["nnz_counts"].append(nnz_counts[idx])
        out["col_sums"].append(attrs[idx].sum(axis=0))
        out["col_nnz"].append(np.count_nonzero(attrs[idx], axis=0))
    return out


def block_pairs_by_divmod(size_a: int, size_b: int | None = None):
    """Row-major (i, j) of every node pair in a block, by divmod over the full
    grid: the pairs i < j of one size_a-node class when size_b is None, else
    all size_a x size_b pairs across two classes. int32 keeps large blocks small."""
    width = size_a if size_b is None else size_b
    i, j = np.divmod(np.arange(size_a * width, dtype=np.int32), width)
    if size_b is None:
        keep = i < j
        i, j = i[keep], j[keep]
    return i, j


def reference_synth_attributes(n_nodes: int, n_classes: int, p_in: float, p_out: float,
                               n_attrs: int, attr_signal: float, seed: int) -> np.ndarray:
    """synth_network's attributes by a dense per-node loop over its draw rule.

    The generator's stream is first advanced past the edge draws (a binomial
    count and a choice of that many pair numbers per class pair). The
    attribute draws then consume the same random numbers as synth_network,
    in the same calls, but every number is placed by plain loops into a
    zeroed N x n_attrs array: the off-block redraw rounds into one set per
    node, then selection sampling member by member and column by column.
    """
    rng = np.random.default_rng(seed)
    base, rem = divmod(n_nodes, n_classes)
    sizes = [base + (c < rem) for c in range(n_classes)]
    labels = np.repeat(np.arange(n_classes), sizes)
    for a in range(n_classes):
        for b in range(a, n_classes):
            pairs = sizes[a] * (sizes[a] - 1) // 2 if a == b else sizes[a] * sizes[b]
            rng.choice(pairs, size=int(rng.binomial(pairs, p_in if a == b else p_out)),
                       replace=False)

    block = n_attrs // n_classes
    lo_cnt = max(2, block // 3)
    hi_cnt = max(3, (2 * block) // 3)
    nnz = rng.integers(lo_cnt, hi_cnt + 1, size=n_nodes)
    share = rng.binomial(nnz, attr_signal)
    own = [min(int(share[i]), block) for i in range(n_nodes)]
    off = [min(int(nnz[i]) - own[i], n_attrs - block) for i in range(n_nodes)]
    attrs = np.zeros((n_nodes, n_attrs))

    # off-block: every node short of off[i] distinct pool numbers draws the
    # missing count with replacement, node by node, until none is short
    picked = [set() for _ in range(n_nodes)]
    while True:
        missing = [off[i] - len(picked[i]) for i in range(n_nodes)]
        if sum(missing) == 0:
            break
        draws = iter(rng.integers(n_attrs - block, size=sum(missing)).tolist())
        for i in range(n_nodes):
            for _ in range(missing[i]):
                picked[i].add(next(draws))
    for i in range(n_nodes):
        c = labels[i]
        for v in picked[i]:
            attrs[i, v if v < c * block else v + block] = 1.0

    # own block, Algorithm S: column t goes to a member while u * (block - t)
    # is below the number it still needs; u comes member by member, column
    # after column
    start = 0
    for c in range(n_classes):
        u = rng.random((block, sizes[c]))
        for r in range(sizes[c]):
            need = own[start + r]
            for t in range(block):
                if u[t, r] * float(block - t) < need:
                    attrs[start + r, c * block + t] = 1.0
                    need -= 1
        start += sizes[c]
    return attrs


def naive_weighted_sq_loss(m, p, q, scores) -> float:
    """sum_i log(1/scores_i) sum_j (m_ij - p_i . q_.j)^2 by explicit loops."""
    a = to_dense(m)
    total = 0.0
    for i in range(a.shape[0]):
        w = math.log(1.0 / scores[i])
        for j in range(a.shape[1]):
            pred = 0.0
            for kk in range(p.shape[1]):
                pred += p[i, kk] * q[kk, j]
            total += w * (a[i, j] - pred) ** 2
    return total


def naive_loss_disagreement(g, u, w, scores) -> float:
    total = 0.0
    for i in range(g.shape[0]):
        wt = math.log(1.0 / scores[i])
        for k in range(g.shape[1]):
            pred = 0.0
            for m in range(w.shape[1]):
                pred += u[i, m] * w[k, m]
            total += wt * (g[i, k] - pred) ** 2
    return total


def naive_joint_loss(net, model, scores, attr_weight, dis_weight) -> float:
    """The joint loss by explicit loops over dense residuals, entry by entry,
    so no Gram-form cancellation enters it."""
    return (naive_weighted_sq_loss(net.adjacency, model.struct_embed, model.struct_context,
                                   scores.structural)
            + attr_weight * naive_weighted_sq_loss(net.attributes, model.attr_embed,
                                                   model.attr_basis, scores.attribute)
            + dis_weight * naive_loss_disagreement(model.struct_embed, model.attr_embed,
                                                   model.align, scores.disagreement))


def naive_update_struct_embed(adj, model, scores, dis_weight) -> np.ndarray:
    a = to_dense(adj)
    g = model.struct_embed.copy()
    h = model.struct_context
    u = model.attr_embed
    w = model.align
    beta = dis_weight
    n, k_dim = g.shape
    for i in range(n):
        w1 = math.log(1.0 / scores.structural[i])
        w3 = math.log(1.0 / scores.disagreement[i])
        for k in range(k_dim):
            s = 0.0
            for j in range(a.shape[1]):
                pred = 0.0
                for l in range(k_dim):
                    if l != k:
                        pred += g[i, l] * h[l, j]
                s += (a[i, j] - pred) * h[k, j]
            tgt = 0.0
            for m in range(k_dim):
                tgt += u[i, m] * w[k, m]
            num = w1 * s + beta * w3 * tgt
            den = w1 * sum(h[k, j] ** 2 for j in range(a.shape[1])) + beta * w3
            if den >= 1e-12:
                g[i, k] = num / den
    return g


def naive_update_struct_context(adj, model, scores) -> np.ndarray:
    a = to_dense(adj)
    h = model.struct_context.copy()
    g = model.struct_embed
    n = a.shape[0]
    k_dim = h.shape[0]
    for k in range(k_dim):
        den = 0.0
        for i in range(n):
            den += math.log(1.0 / scores.structural[i]) * g[i, k] ** 2
        if den < 1e-12:
            continue
        for j in range(h.shape[1]):
            num = 0.0
            for i in range(n):
                pred = 0.0
                for l in range(k_dim):
                    if l != k:
                        pred += g[i, l] * h[l, j]
                num += math.log(1.0 / scores.structural[i]) * (a[i, j] - pred) * g[i, k]
            h[k, j] = num / den
    return h


def naive_update_attr_embed(attrs, model, scores, attr_weight, dis_weight) -> np.ndarray:
    c = to_dense(attrs)
    u = model.attr_embed.copy()
    v = model.attr_basis
    g = model.struct_embed
    w = model.align
    alpha, beta = attr_weight, dis_weight
    n, k_dim = u.shape
    for i in range(n):
        w2 = math.log(1.0 / scores.attribute[i])
        w3 = math.log(1.0 / scores.disagreement[i])
        for k in range(k_dim):
            s_attr = 0.0
            for d in range(c.shape[1]):
                pred = 0.0
                for l in range(k_dim):
                    if l != k:
                        pred += u[i, l] * v[l, d]
                s_attr += (c[i, d] - pred) * v[k, d]
            s_dis = 0.0
            for m in range(k_dim):
                pred = 0.0
                for l in range(k_dim):
                    if l != k:
                        pred += u[i, l] * w[m, l]
                s_dis += (g[i, m] - pred) * w[m, k]
            num = alpha * w2 * s_attr + beta * w3 * s_dis
            den = (alpha * w2 * sum(v[k, d] ** 2 for d in range(c.shape[1]))
                   + beta * w3 * sum(w[m, k] ** 2 for m in range(k_dim)))
            if den >= 1e-12:
                u[i, k] = num / den
    return u


def naive_update_attr_basis(attrs, model, scores) -> np.ndarray:
    c = to_dense(attrs)
    v = model.attr_basis.copy()
    u = model.attr_embed
    n = c.shape[0]
    k_dim = v.shape[0]
    for k in range(k_dim):
        den = 0.0
        for i in range(n):
            den += math.log(1.0 / scores.attribute[i]) * u[i, k] ** 2
        if den < 1e-12:
            continue
        for d in range(v.shape[1]):
            num = 0.0
            for i in range(n):
                pred = 0.0
                for l in range(k_dim):
                    if l != k:
                        pred += u[i, l] * v[l, d]
                num += math.log(1.0 / scores.attribute[i]) * (c[i, d] - pred) * u[i, k]
            v[k, d] = num / den
    return v


def reference_cd_sweep(x, terms, diag, key) -> np.ndarray:
    """core._cd_sweep as it was before it dropped terms with an all-zero
    off-diagonal Gram: every term's column product runs, both masks always
    apply, and each Gram's diagonal is taken twice. The kernel must match it
    bit for bit."""
    x = np.array(x, dtype=np.float64, order="F")
    den = sum(a[:, None] * np.diag(gram) for a, _, gram in terms)
    ok = den >= 1e-12
    den = np.where(ok, den, np.inf)
    base = np.where(ok, sum(a[:, None] * cross for a, cross, _ in terms) / den, x)
    parts = [(a[:, None] / den, gram - np.diag(np.diag(gram))) for a, _, gram in terms]
    for k in range(x.shape[1]):
        x[:, k] = base[:, k] - sum(coef[:, k] * (x @ off[:, k]) for coef, off in parts)
    if diag is not None and not ok.all():
        diag[key] = diag.get(key, 0) + int(ok.size - np.count_nonzero(ok))
    return x


def reference_row_sq_norms(m) -> np.ndarray:
    """numerics.row_sq_norms as it was before it summed the squared stored
    values in place: the row sums of m.multiply(m), a full copy of m that
    drops the entries whose square is 0."""
    return np.asarray(m.multiply(m).sum(axis=1)).ravel()


def fit_inputs(model, adj=None, attrs=None) -> SimpleNamespace:
    """The matrix inputs fit hands the kernels, formed afresh for model: the
    adjacency and attributes as CSR (an omitted one is all zeros), their
    transposes adj_t and attrs_t, norms (their row_sq_norms), the products
    ah = A H^T and cv = C V^T and the Grams hh = H H^T and vv = V V^T."""
    n = model.struct_embed.shape[0]
    adj = sp.csr_matrix((n, n) if adj is None else adj, dtype=np.float64)
    attrs = sp.csr_matrix((n, model.attr_basis.shape[1]) if attrs is None else attrs,
                          dtype=np.float64)
    h, v = model.struct_context, model.attr_basis
    return SimpleNamespace(adj=adj, attrs=attrs, adj_t=adj.T, attrs_t=attrs.T,
                           norms=(row_sq_norms(adj), row_sq_norms(attrs)),
                           ah=np.asarray(adj @ h.T), cv=np.asarray(attrs @ v.T),
                           hh=h @ h.T, vv=v @ v.T)


def residuals(model, adj=None, attrs=None):
    """core._residuals with its inputs formed afresh by fit_inputs."""
    x = fit_inputs(model, adj, attrs)
    return core._residuals(model, x.norms, (x.ah, x.cv), (x.hh, x.vv))


def loss_terms(model, scores, adj=None, attrs=None):
    """(structure, attribute, disagreement) terms by the path fit runs; an
    omitted adjacency or attribute matrix is all zeros."""
    return core._loss_terms(residuals(model, adj, attrs), core._score_weights(scores))


def fit_steps(net: AttributedNetwork, hp):
    """fit's initialization and rounds as plain calls of the core kernels,
    with every input formed afresh just before the call that reads it: the
    score weights, the sparse transposes, A H^T, C V^T, H H^T, V V^T and the
    row norms. Only nmf_init's factors are read, not the products and Grams
    it hands on, so fit is compared against a replay that shares none of its
    hand-ons.

    Yields (step, model, scores, attr_weight, dis_weight) at the start (after
    the calibration) and after each update of a round: "align" (from round
    2 on), "G", "H", "U", "V" and "scores". The model is updated in place,
    so a consumer reads it before asking for the next step."""
    adj, attrs = net.adjacency, net.attributes
    g, h = nmf_init(adj, hp.dim, hp.init_passes, named_rng(hp.seed, "init-structure"),
                    adj.T)[:2]
    u, v = nmf_init(attrs, hp.dim, hp.init_passes, named_rng(hp.seed, "init-attributes"),
                    attrs.T)[:2]
    uniform = np.full(net.n_nodes, 1.0 / net.n_nodes)
    scores = OutlierScores(uniform.copy(), uniform.copy(), uniform.copy())
    model = FactorModel(g, h, u, v, np.eye(hp.dim))
    model.align = core.update_alignment(model, core._score_weights(scores))
    attr_w, dis_w, _ = core._loss_ratios(*loss_terms(model, scores, adj, attrs))
    attr_weight = attr_w if hp.attr_weight is None else hp.attr_weight
    dis_weight = dis_w if hp.dis_weight is None else hp.dis_weight
    yield "start", model, scores, attr_weight, dis_weight
    for round_no in range(1, hp.iters + 1):
        if round_no > 1:
            model.align = core.update_alignment(model, core._score_weights(scores))
            yield "align", model, scores, attr_weight, dis_weight
        model.struct_embed = core.update_struct_embed(
            model, core._score_weights(scores), dis_weight,
            np.asarray(adj @ model.struct_context.T),
            model.struct_context @ model.struct_context.T, {})
        yield "G", model, scores, attr_weight, dis_weight
        model.struct_context = core.update_struct_context(
            adj.T, model, core._score_weights(scores), {})
        yield "H", model, scores, attr_weight, dis_weight
        model.attr_embed = core.update_attr_embed(
            model, core._score_weights(scores), attr_weight, dis_weight,
            np.asarray(attrs @ model.attr_basis.T), model.attr_basis @ model.attr_basis.T, {})
        yield "U", model, scores, attr_weight, dis_weight
        model.attr_basis = core.update_attr_basis(attrs.T, model, core._score_weights(scores), {})
        yield "V", model, scores, attr_weight, dis_weight
        scores = OutlierScores(*(core.budget_scores(r, 1.0, 1e-8)
                                 for r in residuals(model, adj, attrs)))
        yield "scores", model, scores, attr_weight, dis_weight


def reference_fit(net: AttributedNetwork, hp):
    """fit_steps with each round's loss by the path fit runs, stopped by the
    rule's definition: after the first round whose top ceil(N / 4) nodes of
    rank_nodes(final_outlier_score(scores)) hold at least 98 % of the
    previous round's top set, for the third round running, or at the cap.
    fit forms each input once and must match this bit for bit.
    Returns (model, scores, loss trace)."""
    trace, top, streak = [], None, 0
    k = math.ceil(net.n_nodes / 4)
    for step, model, scores, attr_weight, dis_weight in fit_steps(net, hp):
        if step == "scores":
            trace.append(joint_loss(net, model, scores, attr_weight, dis_weight))
            combined = final_outlier_score(np.column_stack(
                [scores.structural, scores.attribute, scores.disagreement]))
            prev, top = top, set(rank_nodes(combined)[:k].tolist())
            if prev is not None:
                streak = streak + 1 if len(top & prev) >= 0.98 * k else 0
            if streak == 3:
                break
    return model, scores, trace


def jacobi_eigvals(s) -> np.ndarray:
    """Eigenvalues of a symmetric matrix via two-sided Jacobi, sorted descending."""
    a = np.array(s, dtype=float)
    k = a.shape[0]
    scale = max(1.0, np.abs(a).max())
    for _ in range(100):
        off = max((abs(a[p, q]) for p in range(k - 1) for q in range(p + 1, k)),
                  default=0.0)
        if off < 1e-14 * scale:
            break
        for p in range(k - 1):
            for q in range(p + 1, k):
                if abs(a[p, q]) < 1e-300:
                    continue
                theta = 0.5 * math.atan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, sn = math.cos(theta), math.sin(theta)
                rot = np.eye(k)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = sn
                rot[q, p] = -sn
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))[::-1]


def grid_min_scores(residuals, floor: float = 1e-8) -> np.ndarray:
    """Brute-force minimizer of sum_i r_i log(1/s_i) at 1e-3 grid resolution.

    A zero-residual coordinate contributes nothing to the objective, so any
    mass above the feasible floor is strictly better spent on the others; the
    minimizer therefore parks it at the floor, and the enumeration splits the
    whole unit budget over the positive-residual coordinates on the 1/1000
    grid (the floor mass sits far below the grid's resolution)."""
    r_all = np.asarray(residuals, dtype=float)
    pos = np.nonzero(r_all > 0)[0]
    if pos.size == 0:
        raise ValueError("grid oracle needs at least one positive residual")
    out = np.full(r_all.size, floor)
    out[pos] = _grid_min_positive(r_all[pos])
    return out


def _grid_min_positive(r: np.ndarray) -> np.ndarray:
    n = r.size
    units = 1000
    neglog = np.empty(units + 1)
    neglog[0] = np.inf
    m_all = np.arange(1, units + 1)
    neglog[1:] = np.log(units / m_all.astype(float))

    if n == 1:
        return np.array([1.0])
    if n == 2:
        m1 = np.arange(1, units)
        obj = r[0] * neglog[m1] + r[1] * neglog[units - m1]
        best = int(m1[np.argmin(obj)])
        return np.array([best, units - best]) / units
    if n == 3:
        best_obj = np.inf
        best_m = None
        for m1 in range(1, units - 1):
            m2 = np.arange(1, units - m1)
            obj = r[0] * neglog[m1] + r[1] * neglog[m2] + r[2] * neglog[units - m1 - m2]
            j = int(np.argmin(obj))
            if obj[j] < best_obj:
                best_obj = float(obj[j])
                best_m = (m1, int(m2[j]), units - m1 - int(m2[j]))
        return np.array(best_m) / units
    if n == 4:
        # best split of a mass S between the last two coordinates
        pair_best = np.full(units + 1, np.inf)
        pair_arg = np.zeros(units + 1, dtype=int)
        for s_mass in range(2, units - 1):
            m3 = np.arange(1, s_mass)
            vals = r[2] * neglog[m3] + r[3] * neglog[s_mass - m3]
            j = int(np.argmin(vals))
            pair_best[s_mass] = float(vals[j])
            pair_arg[s_mass] = int(m3[j])
        best_obj = np.inf
        best_m = None
        for m1 in range(1, units - 2):
            m2 = np.arange(1, units - m1 - 1)
            obj = r[0] * neglog[m1] + r[1] * neglog[m2] + pair_best[units - m1 - m2]
            j = int(np.argmin(obj))
            if obj[j] < best_obj:
                best_obj = float(obj[j])
                rest = units - m1 - int(m2[j])
                m3 = int(pair_arg[rest])
                best_m = (m1, int(m2[j]), m3, rest - m3)
        return np.array(best_m) / units
    raise ValueError("grid oracle supports up to 4 coordinates")


def mid_matrix(old: np.ndarray, new: np.ndarray, pos: int, axis: int) -> np.ndarray:
    """The factor matrix as it stood when sweep position `pos` was finalized.

    The library sweeps struct_embed/attr_embed column by column and
    struct_context/attr_basis row by row, so the mid-sweep state mixes new
    values up to `pos` with old values after it.
    """
    m = old.copy()
    if axis == 1:
        m[:, :pos + 1] = new[:, :pos + 1]
    else:
        m[:pos + 1, :] = new[:pos + 1, :]
    return m


def joint_loss(net, model, scores, attr_weight, dis_weight) -> float:
    """The joint loss by the path fit runs."""
    return core._joint(loss_terms(model, scores, net.adjacency, net.attributes),
                       attr_weight, dis_weight)


def min_fd_gap(net, model, scores, attr_weight, dis_weight, field_name: str, i: int,
               k: int, eps: float = 1e-4) -> float:
    """Smallest loss change from perturbing one coordinate by +-eps."""
    base = joint_loss(net, model, scores, attr_weight, dis_weight)
    best = np.inf
    for delta in (eps, -eps):
        probe = copy.deepcopy(model)
        getattr(probe, field_name)[i, k] += delta
        best = min(best, joint_loss(net, probe, scores, attr_weight, dis_weight) - base)
    return best


def fd_check_sweep(net, model, scores, attr_weight, dis_weight, rng, n_coords: int) -> float:
    """Run the four factor updates in algorithm order, finite-difference
    probing sampled coordinates at their exact mid-sweep states. Returns the
    worst (most negative) loss gap seen; coordinate optimality means it stays
    above -1e-10."""
    work = copy.deepcopy(model)
    weights = core._score_weights(scores)
    adj, attrs = net.adjacency, net.attributes
    plans = [
        ("struct_embed",
         lambda: core.update_struct_embed(work, weights, dis_weight,
                                          np.asarray(adj @ work.struct_context.T),
                                          work.struct_context @ work.struct_context.T, {}), 1),
        ("struct_context",
         lambda: core.update_struct_context(adj.T, work, weights, {}), 0),
        ("attr_embed",
         lambda: core.update_attr_embed(work, weights, attr_weight, dis_weight,
                                        np.asarray(attrs @ work.attr_basis.T),
                                        work.attr_basis @ work.attr_basis.T, {}), 1),
        ("attr_basis",
         lambda: core.update_attr_basis(attrs.T, work, weights, {}), 0),
    ]
    worst = np.inf
    per = max(1, n_coords // len(plans))
    for name, update, axis in plans:
        old = getattr(work, name).copy()
        new = update()
        for _ in range(per):
            i = int(rng.integers(old.shape[0]))
            k = int(rng.integers(old.shape[1]))
            probe = copy.deepcopy(work)
            setattr(probe, name, mid_matrix(old, new, k if axis == 1 else i, axis))
            worst = min(worst, min_fd_gap(net, probe, scores, attr_weight, dis_weight,
                                          name, i, k))
        setattr(work, name, new)
    return worst


def hypergeom_recall_null(n: int, n_truth: int, top: int) -> tuple[float, float]:
    """(mean, std) of the recall of a uniformly random ranking."""
    frac = n_truth / n
    mean_hits = top * frac
    var_hits = top * frac * (1.0 - frac) * (n - top) / (n - 1)
    return mean_hits / n_truth, math.sqrt(var_hits) / n_truth


# A two-phase attribute-file parser (per-row arrays, then a second loop over
# dense rows); test_network.py binds network._parse_attributes to it.
def reference_parse_attributes(path: str):
    """Parse an attribute file into (node_names, N x D CSR attributes); a
    dense row contributes its nonzeros."""
    names: list[str] = []
    seen: dict[str, int] = {}
    rows: list[tuple[np.ndarray | None, np.ndarray]] = []  # (indices, values) per node
    declared_dim = None
    mode = None  # "dense" | "sparse"
    max_idx = -1
    for lineno, line in _data_lines(path):
        toks = line.split()
        if toks[0].startswith("%"):
            if toks[0] == "%dim" and len(toks) == 2:
                if rows:
                    raise ParseError("%dim must precede all data rows", path, lineno)
                try:
                    declared_dim = int(toks[1])
                except ValueError:
                    raise ParseError(f"bad %dim value {toks[1]!r}", path, lineno) from None
                if declared_dim < 1:
                    raise ParseError("%dim must be >= 1", path, lineno)
            else:
                raise ParseError(f"unknown directive {toks[0]!r}", path, lineno)
            continue
        node, vals = toks[0], toks[1:]
        if node in seen:
            raise ParseError(f"duplicate attribute row for node {node!r}", path, lineno)
        if mode is None:
            mode = "sparse" if (not vals or any(":" in t for t in vals)) else "dense"
        if mode == "dense":
            if not vals:
                raise ParseError("dense attribute row has no values", path, lineno)
            try:
                v = np.array([float(t) for t in vals])
            except ValueError:
                raise ParseError("bad dense attribute value", path, lineno) from None
            idx = None
        else:
            pairs = []
            for t in vals:
                head, sep, tail = t.partition(":")
                if not sep:
                    raise ParseError(f"expected idx:val token, got {t!r}", path, lineno)
                try:
                    pairs.append((int(head), float(tail)))
                except ValueError:
                    raise ParseError(f"bad idx:val token {t!r}", path, lineno) from None
            idx = np.array([p[0] for p in pairs], dtype=np.int64)
            v = np.array([p[1] for p in pairs])
            if idx.size:
                if idx.min() < 0:
                    raise ParseError("negative attribute index", path, lineno)
                if np.unique(idx).size != idx.size:
                    raise ParseError("duplicate attribute index in row", path, lineno)
                max_idx = max(max_idx, int(idx.max()))
        if v.size and not np.isfinite(v).all():
            raise ParseError("non-finite attribute value", path, lineno)
        seen[node] = lineno
        names.append(node)
        rows.append((idx, v))

    if not names:
        raise ParseError("attribute file has no data rows", path)
    if mode == "dense":
        dim = rows[0][1].size
        if declared_dim is not None and declared_dim != dim:
            raise ParseError(f"%dim {declared_dim} != dense row length {dim}", path)
        for name, (_, v) in zip(names, rows):
            if v.size != dim:
                raise ParseError(f"dense row for node {name!r} has {v.size} values, "
                                 f"expected {dim}", path, seen[name])
        rows = [(np.flatnonzero(v), v[v != 0]) for _, v in rows]
    else:
        dim = declared_dim if declared_dim is not None else max_idx + 1
        if dim < 1:
            raise ParseError("cannot infer attribute dimension (no nonzeros, no %dim)", path)
        if max_idx >= dim:
            raise ParseError(f"attribute index {max_idx} >= declared dimension {dim}", path)

    indptr = np.cumsum([0] + [idx.size for idx, _ in rows])
    return names, sp.csr_matrix((np.concatenate([v for _, v in rows]),
                                 np.concatenate([idx for idx, _ in rows]), indptr),
                                shape=(len(names), dim))


def run_cli(*args: str) -> tuple[int, str, str]:
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    from oaembed.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()

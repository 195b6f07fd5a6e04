"""Joint factorization of an attributed network with per-node outlier damping.

The model approximates the adjacency A (N x N) by struct_embed @ struct_context,
the attribute matrix C (N x D) by attr_embed @ attr_basis, and couples the two
node embeddings through an orthogonal K x K map: struct_embed row i should
match attr_embed row i times align.T. Each of the three squared-error terms
weights node i by log(1 / score_i), where each score vector sums to 1, as in
the paper, with entries in [1e-8, 1). A node with a large score has weight
near 0, so a poorly fitting node can be discounted instead of distorting the
factors; the scores themselves are the outlier signal.

The weights follow from the paper's objective and constraint, as a
contract. Above the floor each score is s_i = r_i / lam, for r_i node i's
residual in that term and lam = (sum of the free r) / (1 - 1e-8 * (number
floored)). So w_i = log(lam / r_i), which is log(sum r / r_i) when no score
is floored: a node with c times the mean residual keeps a fraction
1 - ln c / ln N of the weight of a node with the mean residual.

The joint objective is

    sum_i log(1/s1_i) ||A_i - (GH)_i||^2
    + attr_weight * sum_i log(1/s2_i) ||C_i - (UV)_i||^2
    + dis_weight  * sum_i log(1/s3_i) ||G_i - U_i W^T||^2

with G = struct_embed, H = struct_context, U = attr_embed, V = attr_basis,
W = align. Every factor sub-problem is a score-weighted least-squares fit of
the form sum_t sum_i a_t[i] ||T_t[i] - x[i] B_t||^2, so all four factor
updates run one shared kernel, _cd_sweep: an exact Gauss-Seidel sweep over
the columns of x. G and U pass two terms (their reconstruction and the
alignment); H and V pass one, swept on their transposes. Align is the exact
Procrustes minimizer and the scores their exact closed form (proportional to
the residuals, floored at 1e-8), so a full round never increases the objective.

Every loss takes one path: _residuals gives the three per-node squared
residual vectors, _loss_terms weights them by log(1 / score) and _joint sums
the terms. fit is the one way into the objective: its initial loss,
calibration (_loss_ratios) and rounds (each round's scores come from the
same residuals) all run this path, and the update functions take the
resolved attr_weight and dis_weight floats, so only fit reads HyperParams.

C is CSR (AttributedNetwork stores no other layout), so the attribute
initialization, the U and V sweeps and all attribute residuals cost
O(nnz(C) K + (N + D) K^2), never O(N D K).

Each shared quantity has one source, fit, which forms it once, and every
kernel takes it as a required argument and forms none itself: A^T, C^T and
the row norms ||A_i||^2 and ||C_i||^2 once per fit; the three log(1 / score)
weight vectors (_score_weights) once per new set of scores; A H^T and H H^T
once per change of H, and C V^T and V V^T once per change of V. Every kernel
reads every input it takes: an update reads the weights, never the scores;
the G and U sweeps read no input matrix, and the residual pass only the row
norms, the two products and the two Grams. An
undirected network's A is symmetric and serves as its own A^T: its CSR
products add in the order of the CSC ones, bit for bit.

Each input is also checked once, where it enters: A and C by AttributedNetwork
(finite canonical CSR, A square with positive weights, C with N rows), the
knobs by HyperParams, 1 <= dim <= min(N, D) and C >= 0 by fit. So the kernels
fit calls raise nothing, bar svd_small's finiteness check (LAPACK gives NaN
singular values for an infinite entry without raising); budget_scores, the
solver's checked entry, checks its own arguments.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError
from .network import AttributedNetwork, EmbeddingResult
from .numerics import (check_integer, named_rng, nmf_init, row_sq_norms, row_sq_residuals,
                       svd_small)
from .tables import check_combine_weights, final_outlier_score, is_real

_DEGENERATE_DEN = 1e-12  # coordinate updates with a smaller denominator are skipped
_SCORE_FLOOR = 1e-8  # fit's smallest score, so log(1/score) stays finite


@dataclass
class HyperParams:
    """Knobs for fit(). attr_weight and dis_weight default to None, meaning
    'calibrate so the three loss terms start equal'. dim is the embedding
    width K. dim, iters, init_passes and seed must be Python or numpy
    integers (bool and float values are rejected, not truncated);
    attr_weight, dis_weight and the combine_weights entries must be real
    numbers, not bool. A fit runs exactly iters rounds; each score vector
    sums to 1, the paper's constraint, with every score in [1e-8, 1).
    init_passes is the number of nmf_init passes in each initialization."""

    dim: int
    attr_weight: float | None = None
    dis_weight: float | None = None
    iters: int = 15
    combine_weights: tuple[float, float, float] = (0.25, 0.5, 0.25)
    seed: int = 0
    init_passes: int = 1

    def __post_init__(self):
        for name in ("dim", "iters", "init_passes", "seed"):
            check_integer(getattr(self, name), name)
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        for name in ("attr_weight", "dis_weight"):
            v = getattr(self, name)
            if v is not None and not (is_real(v) and 0 < v < np.inf):
                raise ConfigError(f"{name} must be a finite real number > 0, got {v!r}")
        if self.iters < 1:
            raise ConfigError(f"iters must be >= 1, got {self.iters}")
        check_combine_weights(self.combine_weights)
        if self.init_passes < 1:
            raise ConfigError(f"init_passes must be >= 1, got {self.init_passes}")


@dataclass
class FactorModel:
    """The five factor matrices; align has orthonormal columns."""

    struct_embed: np.ndarray    # N x K
    struct_context: np.ndarray  # K x N
    attr_embed: np.ndarray      # N x K
    attr_basis: np.ndarray      # K x D
    align: np.ndarray           # K x K


@dataclass
class OutlierScores:
    """Per-node score vectors; each sums to 1, entries in [1e-8, 1) for N >= 2."""

    structural: np.ndarray
    attribute: np.ndarray
    disagreement: np.ndarray


@dataclass
class FitDiagnostics:
    """Bookkeeping from fit(): skipped degenerate coordinates per update kind,
    the loss at the initial point, and a note for each fallback taken."""

    skipped: dict[str, int] = field(default_factory=dict)
    initial_loss: float | None = None
    notes: list[str] = field(default_factory=list)


def _score_weights(scores: OutlierScores) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(w1, w2, w3): log(1/s) of the structural, attribute and disagreement
    scores, the per-node weights of the three loss terms. fit's scores are
    the uniform start or _solve_scores output, 1-D and in [1e-8, 1], so
    every weight is finite and nonnegative."""
    return tuple(-np.log(s) for s in (scores.structural, scores.attribute,
                                      scores.disagreement))


def _residuals(model: FactorModel, norms, products,
               grams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-node squared residuals of the structure, attribute and alignment
    fits from norms (row_sq_norms(A), row_sq_norms(C)), products
    (A H^T, C V^T) and grams (H H^T, V V^T); the dense alignment rows are
    subtracted directly."""
    dis = model.attr_embed @ model.align.T - model.struct_embed
    return (row_sq_residuals(model.struct_embed, grams[0], norms[0], products[0]),
            row_sq_residuals(model.attr_embed, grams[1], norms[1], products[1]),
            np.einsum("ij,ij->i", dis, dis))


def _loss_terms(residuals, weights) -> tuple[float, float, float]:
    """(structure, attribute, disagreement) loss terms, unweighted, from the
    three residual vectors and _score_weights(scores)."""
    return tuple(float(w @ r) for w, r in zip(weights, residuals))


def _joint(terms, attr_weight: float, dis_weight: float) -> float:
    l_str, l_attr, l_dis = terms
    return l_str + attr_weight * l_attr + dis_weight * l_dis


def _loss_ratios(l_str: float, l_attr: float, l_dis: float) -> tuple[float, float, str | None]:
    """(attr_weight, dis_weight, note): the weights that make the three loss
    terms equal, l_str / l_attr and l_str / l_dis. If any term is zero the
    ratios are undefined; the weights fall back to (1, 1) with a note saying so.
    A view fitted within rounding has a zero term, as row_sq_residuals reads
    its noise as 0, so noise is never scaled up into a weight."""
    if l_attr <= 0.0 or l_dis <= 0.0 or l_str <= 0.0:
        return 1.0, 1.0, ("degenerate initial losses "
                          f"(structure={l_str!r}, attribute={l_attr!r}, disagreement={l_dis!r}); "
                          "falling back to weights (1, 1)")
    return l_str / l_attr, l_str / l_dis, None


def _cd_sweep(x: np.ndarray, terms, diag: dict, key: str) -> np.ndarray:
    """One exact Gauss-Seidel sweep over the columns of the M x K matrix x.

    Minimizes sum_t sum_i a_t[i] ||T_t[i] - x[i] B_t||^2 one column at a time,
    all rows at once (rows are independent given the other columns). Each
    term is (a_t, T_t B_t^T, B_t B_t^T): row weights of length M, an M x K
    cross product and a K x K Gram. A coordinate whose quadratic coefficient
    is below 1e-12 is left unchanged and counted under diag[key].

    A term whose Gram is diagonal (the identity of the G sweep's alignment
    term, or any Gram at K = 1) couples no columns: its share of each column
    update is coef * (x @ 0), exactly zero for finite x, and adding it to a
    sum that starts from 0 changes no bit. So it enters the quadratic
    coefficients and the base but runs no column products.
    """
    x = np.array(x, dtype=np.float64, order="F")  # x[:, k] contiguous
    diags = [np.diag(gram) for _, _, gram in terms]
    den = sum(a[:, None] * dg for (a, _, _), dg in zip(terms, diags))  # M x K
    num = sum(a[:, None] * cross for a, cross, _ in terms)
    ok = den >= _DEGENERATE_DEN
    n_skipped = ok.size - np.count_nonzero(ok)
    # x[:, k] = base[:, k] - sum_t coef_t[:, k] * (x @ off_t[:, k]), where off_t
    # is the Gram with a zero diagonal, so column k drops out of its own update;
    # a skipped coordinate has coef 0 and base equal to its current value
    if n_skipped:
        den = np.where(ok, den, np.inf)
        base = np.where(ok, num / den, x)
    else:
        base = np.divide(num, den, out=num)
    parts = [(a[:, None] / den, off) for (a, _, gram), dg in zip(terms, diags)
             if (off := gram - np.diag(dg)).any()]
    if not parts:
        x[:] = base
    else:
        t, acc = np.empty(x.shape[0]), np.empty(x.shape[0])  # one column's buffers
        for k in range(x.shape[1]):
            for i, (coef, off) in enumerate(parts):
                np.matmul(x, off[:, k], out=t)
                np.multiply(coef[:, k], t, out=t)
                # the first part enters as 0 + t, which turns -0.0 into +0.0
                np.add(acc if i else 0.0, t, out=acc)
            np.subtract(base[:, k], acc, out=x[:, k])
    if n_skipped:
        diag[key] = diag.get(key, 0) + int(n_skipped)
    return x


def update_struct_embed(model: FactorModel, weights, dis_weight: float, ah: np.ndarray,
                        hh: np.ndarray, diag: dict) -> np.ndarray:
    """One exact coordinate-descent sweep over struct_embed G: the structure
    term (w1, A H^T, H H^T) plus the alignment term (dis_weight w3, U W^T, I).
    weights is _score_weights(scores), and ah and hh are A H^T and H H^T for
    the current H."""
    w1, _, w3 = weights
    terms = ((w1, ah, hh),
             (dis_weight * w3, model.attr_embed @ model.align.T, np.eye(hh.shape[0])))
    return _cd_sweep(model.struct_embed, terms, diag, "struct_embed")


def update_struct_context(adj_t, model: FactorModel, weights, diag: dict) -> np.ndarray:
    """One exact coordinate-descent sweep over struct_context H. Its columns are
    independent, so the kernel sweeps H^T with unit row weights and the scores
    folded into the term (A^T (G*w1), G^T (G*w1)). adj_t is A^T; for a
    symmetric A (an undirected network) it may be A itself, whose CSR product
    gives the bits of the CSC product of A^T."""
    g = model.struct_embed
    gw = g * weights[0][:, None]
    terms = ((np.ones(adj_t.shape[0]), np.asarray(adj_t @ gw), g.T @ gw),)
    return _cd_sweep(model.struct_context.T, terms, diag, "struct_context").T


def update_attr_embed(model: FactorModel, weights, attr_weight: float, dis_weight: float,
                      cv: np.ndarray, vv: np.ndarray, diag: dict) -> np.ndarray:
    """One exact coordinate-descent sweep over attr_embed U: the attribute
    term (attr_weight w2, C V^T, V V^T) plus the alignment term
    (dis_weight w3, G W, W^T W). cv and vv are C V^T and V V^T for the
    current V."""
    w = model.align
    _, w2, w3 = weights
    terms = ((attr_weight * w2, cv, vv),
             (dis_weight * w3, model.struct_embed @ w, w.T @ w))
    return _cd_sweep(model.attr_embed, terms, diag, "attr_embed")


def update_attr_basis(attrs_t, model: FactorModel, weights, diag: dict) -> np.ndarray:
    """One exact coordinate-descent sweep over attr_basis V, on V^T as for
    struct_context, with the term (ones, C^T (U*w2), U^T (U*w2)). attrs_t is
    C^T."""
    u = model.attr_embed
    uw = u * weights[1][:, None]
    terms = ((np.ones(attrs_t.shape[0]), np.asarray(attrs_t @ uw), u.T @ uw),)
    return _cd_sweep(model.attr_basis.T, terms, diag, "attr_basis").T


def update_alignment(model: FactorModel, weights) -> np.ndarray:
    """Weighted-Procrustes minimizer of the disagreement term.

    Scales both embeddings row-wise by sqrt(w3), the disagreement weights of
    _score_weights(scores), then takes the SVD x diag(sigma) yt of their
    K x K cross-product; x @ yt is the optimal orthogonal map. The result has
    orthonormal columns even when the cross-product is singular.
    """
    rw = np.sqrt(weights[2])[:, None]
    cross = (model.struct_embed * rw).T @ (model.attr_embed * rw)
    x, _, yt = svd_small(cross)
    return x @ yt


def budget_scores(residuals: np.ndarray, budget: float, floor: float) -> np.ndarray:
    """Exact minimizer of sum_i log(1/s_i) r_i over {s : sum s = budget,
    s >= floor} for a budget in [N * floor, 1]. fit passes 1, the paper's
    constraint, so for N >= 2 every score lies in [floor, 1).

    Stationarity gives s_i = max(r_i / lam, floor): each score is proportional
    to its residual, with small ones pinned at the floor. One sort finds the
    free scores, without iterating, and they are scaled to sum to their share
    of the budget to machine precision. A lone score is the budget; at budget
    N * floor every score is the floor. All-zero residuals yield the uniform
    budget/N split, with a warning.
    """
    r = np.asarray(residuals, dtype=np.float64)
    if r.ndim != 1 or r.size == 0:
        raise ValueError("residuals must be a nonempty 1-D vector")
    if not np.isfinite(r).all() or (r < 0).any():
        raise ValueError("residuals must be finite and nonnegative")
    n = r.size
    if not floor * n <= budget <= 1:
        raise ValueError(f"budget {budget} outside [{n} * floor, 1] for floor {floor}")
    s, zero = _solve_scores(r, budget, floor)
    if zero:
        warnings.warn("all residuals are zero; returning uniform scores", stacklevel=2)
    return s


def _solve_scores(r: np.ndarray, budget: float, floor: float):
    """budget_scores' minimizer for the 1-D residuals r, which the caller has
    checked finite and nonnegative, with the budget in [N * floor, 1].
    Returns (scores, zero); zero is True if every residual is zero, and the
    scores are then the uniform budget / N split."""
    n = r.size
    if not r.any():
        return np.full(n, budget / n), True
    # the scores depend on r only up to scale: an exact power-of-two shift
    # brings the largest residual into [0.5, 1), so no sum overflows and the
    # free scale below stays a normal number
    r = np.ldexp(r, -int(np.frexp(r.max())[1]))
    if budget == floor * n:  # the one feasible point
        return np.full(n, floor), False
    if n == 1:
        return np.array([budget]), False

    # the m largest residuals are free while r_(m) / lam > floor, with
    # lam = sum_{<=m} r / (budget - floor * (N - m)); zero residuals never are
    rs = np.sort(r)[::-1]
    above = rs * (budget - floor * np.arange(n - 1, -1, -1)) > floor * np.cumsum(rs)
    m = int(np.logical_and.accumulate(above).sum())
    free = r > rs[m] if m < n else np.ones(n, dtype=bool)
    s = np.full(n, floor)
    if free.any():  # empty only if rounding floors a tie a few ulps above N * floor
        s[free] = r[free] * ((budget - floor * (n - free.sum())) / r[free].sum())
    return np.clip(s, floor, 1.0), False


def _final_embedding(model: FactorModel) -> np.ndarray:
    """Per-node average of the structure embedding and the mapped attribute
    embedding: (struct_embed + attr_embed @ align.T) / 2."""
    return (model.struct_embed + model.attr_embed @ model.align.T) / 2.0


def _check_finite(arr: np.ndarray, what: str, round_no: int):
    if not np.isfinite(arr).all():
        raise NumericError(f"{what} produced non-finite values in round {round_no}")


def fit(net: AttributedNetwork, hp: HyperParams):
    """Run the full alternating optimization.

    Initializes the factor pairs by init_passes passes of numerics.nmf_init
    on A and C, starts with uniform scores and their align, calibrates the
    loss weights if unset, then runs exactly `iters` rounds of: align update
    (from round 2 on), sweeps of struct_embed, struct_context, attr_embed and
    attr_basis, each consuming the others' latest values, and one residual
    pass that yields both the new scores (floored at 1e-8) and the round's
    joint loss. So loss_trace holds `iters` non-increasing losses.

    A round forms four sparse products, each once: A^T (G*w1) for the H
    sweep, then A H^T, C^T (U*w2) for the V sweep, then C V^T. A H^T with
    the Gram H H^T, and C V^T with V V^T, serve the round's residuals and the
    next round's G and U sweeps; the initial residual pass hands round 1
    its products and Grams the same way. The
    uniform start's weights serve the initial align, the calibration and
    round 1, and each round's serve its loss and the next round's updates.

    The CSR attributes are never densified, and net is not changed.

    Returns (FactorModel, OutlierScores, EmbeddingResult, FitDiagnostics).
    """
    n, d = net.n_nodes, net.n_attrs
    if not 1 <= hp.dim <= min(n, d):
        raise ConfigError(f"dim must be in [1, min(n_nodes, n_attrs)] = "
                          f"[1, {min(n, d)}], got {hp.dim}")
    adj = net.adjacency
    attrs = net.attributes
    if (attrs.data < 0).any():
        raise ConfigError("attributes must be nonnegative (initialization is "
                          "a nonnegative factorization)")

    diagnostics = FitDiagnostics()
    # sparse .T builds a new CSC object on each call, so build each once
    adj_t = adj.T if net.directed else adj
    attrs_t = attrs.T
    g, h = nmf_init(adj, hp.dim, hp.init_passes, named_rng(hp.seed, "init-structure"), adj_t)
    u, v = nmf_init(attrs, hp.dim, hp.init_passes, named_rng(hp.seed, "init-attributes"),
                    attrs_t)
    for what, factor in (("structure", g), ("structure", h),
                         ("attribute", u), ("attribute", v)):
        if not np.isfinite(factor).all():
            raise NumericError(f"{what} initialization overflowed; input "
                               "magnitudes are too large for squared residuals")
    uniform = np.full(n, 1.0 / n)
    scores = OutlierScores(uniform.copy(), uniform.copy(), uniform.copy())
    weights = _score_weights(scores)
    model = FactorModel(g, h, u, v, np.eye(hp.dim))
    # the align matrix has no factorization-based start; use the Procrustes
    # optimum for the initial embeddings so calibration sees a sensible value
    model.align = update_alignment(model, weights)

    # H and V change only in their own sweeps, so A H^T, H H^T, C V^T and
    # V V^T stay valid until the next one
    norms = (row_sq_norms(adj), row_sq_norms(attrs))
    h, v = model.struct_context, model.attr_basis
    ah, hh = np.asarray(adj @ h.T), h @ h.T
    cv, vv = np.asarray(attrs @ v.T), v @ v.T
    terms = _loss_terms(_residuals(model, norms, (ah, cv), (hh, vv)), weights)
    for term, value in zip(("structure", "attribute", "disagreement"), terms):
        if not np.isfinite(value):
            raise NumericError(f"initial {term} loss is non-finite; "
                               "input magnitudes overflow the squared residuals")

    attr_weight, dis_weight = hp.attr_weight, hp.dis_weight
    if attr_weight is None or dis_weight is None:
        attr_w, dis_w, note = _loss_ratios(*terms)
        if note:
            diagnostics.notes.append(note)
        attr_weight = attr_w if attr_weight is None else attr_weight
        dis_weight = dis_w if dis_weight is None else dis_weight
    diagnostics.initial_loss = _joint(terms, attr_weight, dis_weight)

    trace: list[float] = []
    for round_no in range(1, hp.iters + 1):
        if round_no > 1:  # round 1 would recompute the calibration's align
            model.align = update_alignment(model, weights)
            _check_finite(model.align, "align update", round_no)
        model.struct_embed = update_struct_embed(model, weights, dis_weight, ah, hh,
                                                 diagnostics.skipped)
        _check_finite(model.struct_embed, "struct_embed update", round_no)
        h = model.struct_context = update_struct_context(adj_t, model, weights,
                                                         diagnostics.skipped)
        _check_finite(h, "struct_context update", round_no)
        ah, hh = np.asarray(adj @ h.T), h @ h.T
        model.attr_embed = update_attr_embed(model, weights, attr_weight, dis_weight, cv, vv,
                                             diagnostics.skipped)
        _check_finite(model.attr_embed, "attr_embed update", round_no)
        v = model.attr_basis = update_attr_basis(attrs_t, model, weights, diagnostics.skipped)
        _check_finite(v, "attr_basis update", round_no)
        cv, vv = np.asarray(attrs @ v.T), v @ v.T

        residuals = _residuals(model, norms, (ah, cv), (hh, vv))
        # finite residuals are nonnegative (row_sq_residuals floors them at
        # 0, the alignment's are sums of squares), so only finiteness is checked
        solved = []
        for what, r in zip(("structure", "attribute", "disagreement"), residuals):
            _check_finite(r, f"{what} residuals", round_no)
            s, zero = _solve_scores(r, 1.0, _SCORE_FLOOR)
            solved.append(s)
            if zero:
                diagnostics.notes.append(f"round {round_no}: {what} residuals are all zero; "
                                         "uniform scores")
        scores = OutlierScores(*solved)
        weights = _score_weights(scores)
        loss = _joint(_loss_terms(residuals, weights), attr_weight, dis_weight)
        if not np.isfinite(loss):
            raise NumericError(f"joint loss became non-finite in round {round_no}")
        trace.append(loss)

    components = np.column_stack([scores.structural, scores.attribute, scores.disagreement])
    result = EmbeddingResult(
        embedding=_final_embedding(model),
        outlier_scores=final_outlier_score(components, hp.combine_weights),
        component_scores=components, loss_trace=trace, node_names=net.node_names)
    return model, scores, result, diagnostics


def default_dim(net: AttributedNetwork) -> int:
    """Three embedding dimensions per ground-truth class."""
    if net.labels is None:
        raise ConfigError("cannot derive an embedding dimension without labels; "
                          "set dim explicitly")
    return 3 * net.n_classes

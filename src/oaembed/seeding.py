"""Ground-truth outlier planting and synthetic labeled networks.

Three planted node kinds, named for which view of the node is inconsistent:

- structural: attributes drawn from one class, every edge leads outside it
- attribute: edges stay inside one class, attributes drawn from the others
- combined: edges stay inside one class, attributes drawn from a second class

Planted nodes are new nodes appended to the network; they connect only to
original nodes, carry the label of the class their structure or attributes
were anchored to, and their degree and nonzero-attribute counts are drawn
from the anchor class's empirical distributions so summary statistics do not
give them away. One rule plants all three kinds; they differ only in where
the edges and the attributes come from. A SeededDataset records each planted
node once, in planting order, and derives the per-kind id lists from that.
"""

import copy
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, ParseError
from .network import AttributedNetwork, _undirected_csr
from .numerics import Handoff, check_integer, make_rng, named_rng
from .tables import _data_lines, _write_lines, is_real

OUTLIER_KINDS = ("structural", "attribute", "combined")
_DEGREE_BAND = 0.10  # relative half-width of the planted degree around the class mean


@dataclass
class SeedingPlan:
    """How many outliers to plant, and the seed of the planting stream.

    total_fraction of the node count (rounded up) is planted, split equally
    across the three kinds with any remainder handed out in kind order;
    planted degrees stay within _DEGREE_BAND (10 %) of the class mean. seed
    must be a Python or numpy integer and total_fraction a real number (a
    bool is not one); anything else raises ConfigError.
    """

    total_fraction: float = 0.05
    seed: int = 0

    def __post_init__(self):
        check_integer(self.seed, "seed")
        if not (is_real(self.total_fraction) and 0 <= self.total_fraction < 0.5):
            raise ConfigError(f"total_fraction must be in [0, 0.5), got {self.total_fraction!r}")

    def counts(self, n_nodes: int) -> tuple[int, int, int]:
        """Planted count per kind for an n_nodes network."""
        # the 1e-9 nudge keeps float noise (0.05 * 300 == 15.000000000000002)
        # from bumping the ceiling to the next integer
        total = math.ceil(self.total_fraction * n_nodes - 1e-9)
        base, rem = divmod(total, 3)
        return base + (rem >= 1), base + (rem >= 2), base


@dataclass
class PlantedNode:
    """One planted outlier before insertion.

    struct_class is the class the edges stay inside (None for structural
    outliers, whose edges avoid their class); attr_class is the class whose
    keyword distribution the attributes follow (None for attribute outliers,
    which pool every other class). label is the class id the node is assigned.
    """

    kind: str
    label: int
    struct_class: int | None
    attr_class: int | None
    neighbors: np.ndarray
    attr_indices: np.ndarray
    attr_values: np.ndarray


@dataclass
class SeededDataset:
    """An augmented network whose last len(planted) nodes are the planted ones, in order."""

    network: AttributedNetwork
    planted: list[PlantedNode] = field(default_factory=list)

    def _ids(self, kind: str | None = None) -> list[int]:
        n0 = self.network.n_nodes - len(self.planted)
        return [n0 + t for t, p in enumerate(self.planted) if kind in (None, p.kind)]

    @property
    def outlier_ids(self) -> list[int]:
        return self._ids()


class _ClassStats:
    """Per-class empirical statistics used by the planting rules.

    Class probabilities are the class-size shares, fixed for a whole seeding;
    row c of second_probs is them with class c set to 0 and renormalised,
    the odds of a combined outlier's second class.
    Degree sums, column sums and column nonzero counts are products with one
    dense N x K class indicator: of the degree vector, and of the transposed
    CSR attributes and their nonzero pattern. No N x D array is built, and
    each class's column sums run over its members in node order. Each
    class's own and pooled-other attribute distributions are built once
    here, not once per planted node.
    """

    def __init__(self, net: AttributedNetwork):
        if net.labels is None:
            raise ValueError("planting requires a labeled network")
        if net.directed:
            raise ValueError("planting is defined for undirected networks only")
        if net.n_classes < 2:
            raise ValueError("planting requires at least 2 classes")
        n, k = net.n_nodes, net.n_classes
        sizes = np.bincount(net.labels, minlength=k)
        if (sizes == 0).any():
            raise ValueError(f"class id {int(np.argmin(sizes))} has no members")
        onehot = np.zeros((n, k))
        onehot[np.arange(n), net.labels] = 1.0
        attrs = net.attributes
        nnz_counts = np.diff(attrs.indptr)
        self.class_probs = sizes / n
        others = np.where(np.eye(k, dtype=bool), 0.0, self.class_probs)
        self.second_probs = others / others.sum(axis=1, keepdims=True)
        self.members = [np.flatnonzero(net.labels == c) for c in range(k)]
        self.external = [np.flatnonzero(net.labels != c) for c in range(k)]
        # integer degree sums are exact in any summation order
        self.mean_degree = (np.diff(net.adjacency.indptr) @ onehot) / sizes
        self.nnz_counts = [nnz_counts[m] for m in self.members]
        self.col_sums = np.ascontiguousarray((attrs.T @ onehot).T)
        # the nonzero pattern lives only for this product
        self.col_nnz = np.ascontiguousarray((sp.csr_matrix(
            (np.ones(attrs.nnz), attrs.indices, attrs.indptr), shape=attrs.shape).T
            @ onehot).T)
        sum_all, nnz_all = self.col_sums.sum(axis=0), self.col_nnz.sum(axis=0)
        # own[c]: class c's keyword distribution; other[c]: every class but c
        # pooled, count pools in class order
        self.own = [_AttrDistribution.of(self.col_sums[c], self.col_nnz[c], self.nnz_counts[c])
                    for c in range(k)]
        self.other = [_AttrDistribution.of(
            sum_all - self.col_sums[c], nnz_all - self.col_nnz[c],
            np.concatenate([p for o, p in enumerate(self.nnz_counts) if o != c]))
            for c in range(k)]


@dataclass(frozen=True)
class _AttrDistribution:
    """What a planted attribute row is drawn from: the columns of positive
    weight, their sampling probabilities and per-column mean values, and the
    pool of nonzero counts."""

    support: np.ndarray
    p: np.ndarray
    values: np.ndarray
    counts: np.ndarray

    @classmethod
    def of(cls, weights: np.ndarray, nnz: np.ndarray, counts: np.ndarray):
        """From per-column weight sums and nonzero counts; a column's value is
        its mean over the entries that have it."""
        support = np.nonzero(weights > 0)[0]
        w = weights[support]
        values = np.divide(w, nnz[support], out=np.zeros_like(w), where=nnz[support] > 0)
        return cls(support, w / w.sum(), values, counts)


def _draw_degree(mean_deg: float, pool_size: int, rng) -> int:
    """Integer degree uniform in [(1-b)m, (1+b)m] for b = _DEGREE_BAND, at least 1.

    Falls back to round(m) when the band contains no integer; always capped
    at the size of the eligible neighbor pool. The 1e-9 nudge keeps float
    noise in (1-b)*m from emptying an exactly-integer-bounded band.
    """
    lo = max(1, math.ceil((1.0 - _DEGREE_BAND) * mean_deg - 1e-9))
    hi = math.floor((1.0 + _DEGREE_BAND) * mean_deg + 1e-9)
    if lo > hi:
        deg = max(1, round(mean_deg))
    else:
        deg = int(rng.integers(lo, hi + 1))
    return min(deg, pool_size)


def _draw_attributes(dist: _AttrDistribution, rng):
    """Sample (indices, values) for a planted node's attribute row.

    The nonzero count is one empirical draw from dist.counts, never empty;
    indices are a weighted sample without replacement from the keywords.
    """
    if dist.support.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0)
    cnt = int(dist.counts[rng.integers(dist.counts.size)])
    cnt = min(max(cnt, 1), dist.support.size)
    pos = np.sort(rng.choice(dist.support.size, size=cnt, replace=False, p=dist.p))
    return dist.support[pos], dist.values[pos]


def _plant(kind: str, rng, stats: _ClassStats) -> PlantedNode:
    """One planted node of the given kind. Draws, in this order: the anchor class,
    the attribute class (combined only), the degree, the neighbors, the attributes."""
    k = stats.class_probs.size
    c = int(rng.choice(k, p=stats.class_probs))
    struct_class = None if kind == "structural" else c
    attr_class = (int(rng.choice(k, p=stats.second_probs[c])) if kind == "combined"
                  else None if kind == "attribute" else c)
    pool = stats.external[c] if struct_class is None else stats.members[c]
    deg = _draw_degree(stats.mean_degree[c], pool.size, rng)
    neighbors = np.sort(rng.choice(pool, size=deg, replace=False))
    dist = stats.other[c] if attr_class is None else stats.own[attr_class]
    idx, vals = _draw_attributes(dist, rng)
    return PlantedNode(kind, c, struct_class, attr_class, neighbors, idx, vals)


def seed_outliers(net: AttributedNetwork, plan: SeedingPlan) -> SeededDataset:
    """Plant ceil(total_fraction * N) outliers and return the augmented dataset.

    The planted nodes come kind by kind (structural, attribute, combined; see
    SeedingPlan.counts), each by one _plant call on one _ClassStats of net,
    all drawn from one named_rng(plan.seed, "seeding") stream. Deterministic
    per plan.seed. Planted nodes are appended after the original nodes,
    named planted_<t>_<kind>, and never link to each other.
    """
    counts = plan.counts(net.n_nodes)
    if sum(counts) == 0:
        return SeededDataset(network=copy.deepcopy(net))

    stats = _ClassStats(net)
    rng = named_rng(plan.seed, "seeding")
    planted = [_plant(kind, rng, stats)
               for kind, count in zip(OUTLIER_KINDS, counts) for _ in range(count)]
    del stats  # its K x n_attrs tables need not outlive the planting

    n0, total = net.n_nodes, len(planted)
    new_ids = np.arange(n0, n0 + total)
    edge_new = np.repeat(new_ids, [p.neighbors.size for p in planted])
    edge_old = np.concatenate([p.neighbors for p in planted])
    adj = net.adjacency.copy()  # the planted pairs are new entries, added to a resized copy
    adj.resize(n0 + total, n0 + total)
    adj = adj + _undirected_csr(edge_new, edge_old, np.ones(edge_old.size), n0 + total)
    planted_rows = sp.csr_matrix(
        (np.concatenate([p.attr_values for p in planted]),
         np.concatenate([p.attr_indices for p in planted]),
         np.cumsum([0] + [p.attr_indices.size for p in planted])),
        shape=(total, net.n_attrs))
    # vstack concatenates into new arrays, so both matrices can be handed over
    attrs = sp.vstack([net.attributes, planted_rows], format="csr")

    names = list(net.node_names)
    taken = set(names)
    for t, p in enumerate(planted):
        name = f"planted_{t}_{p.kind}"
        while name in taken:
            name += "_x"
        taken.add(name)
        names.append(name)

    augmented = AttributedNetwork(
        adjacency=Handoff(adj), attributes=Handoff(attrs),
        labels=np.concatenate([net.labels, [p.label for p in planted]]),
        node_names=names, directed=False, label_names=list(net.label_names))
    return SeededDataset(network=augmented, planted=planted)


def save_truth(seeded: SeededDataset, path: str):
    """Write `<node_id> <kind>` lines for every planted outlier, in planting order."""
    names = [seeded.network.node_names[i] for i in seeded.outlier_ids]
    _write_lines(path, (f"{name} {p.kind}" for name, p in zip(names, seeded.planted)))


def load_truth(path: str) -> list[tuple[str, str]]:
    """Read a ground-truth outlier file back as (node_id, kind) pairs."""
    out = []
    for lineno, line in _data_lines(path):
        toks = line.split()
        if len(toks) != 2:
            raise ParseError("expected '<node_id> <kind>'", path, lineno)
        if toks[1] not in OUTLIER_KINDS:
            raise ParseError(f"unknown outlier kind {toks[1]!r}", path, lineno)
        out.append((toks[0], toks[1]))
    return out


def _decode_block_pairs(idx: np.ndarray, size_a: int, size_b: int | None = None):
    """Row-major (i, j) of the node pairs numbered idx inside one block.

    With size_b None the block is the strict upper triangle of one size_a-node
    class (the order of np.triu_indices(size_a, 1)); otherwise it is the full
    size_a x size_b grid across two classes. Integer arithmetic only: a float
    square-root inverse of the triangle numbers rounds wrongly at large sizes.
    """
    if size_b is not None:
        return np.divmod(idx, size_b)
    rows = np.arange(size_a, dtype=np.int64)
    row_start = rows * (2 * size_a - rows - 1) // 2  # pairs in the rows above
    i = np.searchsorted(row_start, idx, side="right") - 1
    return i, idx - row_start[i] + i + 1


def synth_network(n_nodes: int, n_classes: int, p_in: float, p_out: float,
                  n_attrs: int, attr_signal: float, seed: int) -> AttributedNetwork:
    """Random labeled network: block-model edges plus class-keyword attributes.

    Nodes are split into near-equal contiguous classes. Within-class pairs
    link with probability p_in, cross-class pairs with p_out, each pair
    independently. Each class owns a contiguous block of n_attrs // n_classes
    attribute columns. A node draws nnz ~ Uniform{lo..hi} nonzero attributes
    (lo = max(2, block // 3), hi = max(3, 2 * block // 3)), takes
    own = min(Binomial(nnz, attr_signal), block) of them from its class's
    block and off = min(nnz - own, n_attrs - block) from the remaining
    columns, each set a uniform subset without replacement, all with value 1.

    Edges are drawn per class pair as a Binomial(pairs, p) count and then that
    many distinct pairs uniformly (Batagelj & Brandes 2005), which is the same
    distribution as one Bernoulli draw per pair. Time is O(E + K^2 + N * nnz)
    for E edges, K classes and nnz nonzero attributes per node; no per-pair
    array is built. The attributes have no per-node loop either: the counts
    are two calls over all nodes, the off-block columns are drawn for all
    nodes at once, and the own columns class by class, one vectorised step
    per block column. They are returned as N x n_attrs CSR with every row
    already column-sorted. No temporary is larger than that CSR: the work
    arrays are one class's members x block boolean mask and the positions it
    marks, and a byte per stored entry.

    The random stream is: the edges, class pair by class pair; then nnz and
    the binomial share for all nodes; then the off-block columns; then the
    own columns, class by class. Every attribute draw follows every edge
    draw, so the attribute rule never moves the adjacency of a given seed.
    """
    if n_classes < 1 or n_nodes < n_classes:
        raise ValueError("need n_nodes >= n_classes >= 1")
    if not 0 <= p_out < p_in <= 1:
        raise ValueError("need 0 <= p_out < p_in <= 1")
    if not 0 < attr_signal <= 1:
        raise ValueError("attr_signal must be in (0, 1]")
    if n_attrs < n_classes:
        raise ValueError("need n_attrs >= n_classes")

    rng = make_rng(seed)
    base, rem = divmod(n_nodes, n_classes)
    sizes = [base + (c < rem) for c in range(n_classes)]
    starts = [c * base + min(c, rem) for c in range(n_classes)]
    labels = np.repeat(np.arange(n_classes), sizes)

    ei, ej = [], []
    for a in range(n_classes):
        for b in range(a, n_classes):
            pairs = sizes[a] * (sizes[a] - 1) // 2 if a == b else sizes[a] * sizes[b]
            m = int(rng.binomial(pairs, p_in if a == b else p_out))
            # choice holds range(pairs) only when m > pairs / 50, so this stays O(m)
            idx = rng.choice(pairs, size=m, replace=False)
            i, j = _decode_block_pairs(idx, sizes[a], None if a == b else sizes[b])
            ei.append(starts[a] + i)
            ej.append(starts[b] + j)
    ei, ej = np.concatenate(ei), np.concatenate(ej)
    adj = _undirected_csr(ei, ej, np.ones(ei.size), n_nodes)

    block = n_attrs // n_classes
    lo_cnt = max(2, block // 3)
    hi_cnt = max(3, (2 * block) // 3)
    nnz = rng.integers(lo_cnt, hi_cnt + 1, size=n_nodes)
    own = np.minimum(rng.binomial(nnz, attr_signal), block)
    off = np.minimum(nnz - own, n_attrs - block)
    attrs = _keyword_rows(labels, sizes, own, off, block, n_attrs, rng)
    return AttributedNetwork(adjacency=Handoff(adj), attributes=Handoff(attrs), labels=labels,
                             label_names=[f"class{c}" for c in range(n_classes)])


def _keyword_rows(labels, sizes, own, off, block, n_attrs, rng) -> sp.csr_matrix:
    """synth_network's attribute CSR, every row already column-sorted.

    Node i takes off[i] distinct columns outside its class's block (pool
    numbers drawn by _distinct_per_row, in one pass over all nodes) and then,
    class by class, own[i] distinct columns inside it (_select_per_column).
    A row is laid out as [off-block columns below the block, own columns,
    off-block columns above it]; the off-block entries are placed first and
    each class's own columns fill the remaining slots of its rows in order.
    """
    indptr = np.zeros(labels.size + 1, dtype=np.int64)
    np.cumsum(own + off, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int32)

    rows, pick = _distinct_per_row(off, n_attrs - block, rng)
    above = pick >= labels[rows] * block          # pool number -> column: skip the block
    first_off = np.cumsum(off) - off
    slot = indptr[rows] + np.arange(rows.size) - first_off[rows] + np.where(above, own[rows], 0)
    indices[slot] = pick + np.where(above, block, 0)
    is_off = np.zeros(indices.size, dtype=bool)
    is_off[slot] = True
    del rows, pick, above, slot

    start = 0
    for c, size in enumerate(sizes):
        lo, hi = indptr[start], indptr[start + size]
        cols = _select_per_column(own[start:start + size], block, rng) + c * block
        indices[lo:hi][~is_off[lo:hi]] = cols
        start += size
    return sp.csr_matrix((np.ones(indices.size), indices, indptr), shape=(labels.size, n_attrs))


def _distinct_per_row(counts: np.ndarray, pool: int, rng):
    """Row i gets counts[i] distinct numbers of range(pool), a uniform subset.

    Every row draws its missing numbers with replacement in one call, row by
    row, repeats are dropped, and the rows still short draw again until all
    are full. Relabelling range(pool) maps the procedure onto itself, so
    every subset of a given size is equally likely. Returns (rows, numbers)
    sorted by row and then by number.
    """
    rows = np.arange(counts.size)
    keys = np.empty(0, dtype=np.int64)
    missing = counts
    while total := int(missing.sum()):
        keys = np.concatenate([keys, np.repeat(rows, missing) * pool
                               + rng.integers(pool, size=total)])
        keys.sort()
        keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
        missing = counts - np.bincount(keys // pool, minlength=counts.size)
    return np.divmod(keys, pool)


def _select_per_column(need: np.ndarray, width: int, rng) -> np.ndarray:
    """Member r of a class takes need[r] distinct columns of range(width),
    each subset equally likely: Knuth's selection sampling (TAOCP vol. 2,
    Algorithm S) run for all members at once, one column at a time. Column t
    is taken when u * (width - t) < (columns still needed), with one uniform
    u in [0, 1) per member and column. Returns the taken columns member after
    member, each member's in increasing order.
    """
    need = need.astype(np.float64)
    taken = np.empty((width, need.size), dtype=bool)
    u = np.empty(need.size)
    for t in range(width):
        rng.random(out=u)
        u *= width - t
        np.less(u, need, out=taken[t])
        need -= taken[t]
    return np.flatnonzero(taken.T) % width

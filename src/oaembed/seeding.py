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
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ParseError
from .network import AttributedNetwork, _data_lines
from .numerics import make_rng, named_rng

OUTLIER_KINDS = ("structural", "attribute", "combined")


@dataclass
class SeedingPlan:
    """How many outliers to plant and how tightly to match class degrees.

    total_fraction of the node count (rounded up) is planted, split equally
    across the three kinds with any remainder handed out in kind order.
    degree_band is the relative half-width around the anchor class's mean
    degree from which planted degrees are drawn.
    """

    total_fraction: float = 0.05
    degree_band: float = 0.10
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.total_fraction < 0.5:
            raise ValueError(f"total_fraction must be in [0, 0.5), got {self.total_fraction}")
        if not 0 < self.degree_band < 1:
            raise ValueError(f"degree_band must be in (0, 1), got {self.degree_band}")

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
    def structural_ids(self) -> list[int]:
        return self._ids("structural")

    @property
    def attribute_ids(self) -> list[int]:
        return self._ids("attribute")

    @property
    def combined_ids(self) -> list[int]:
        return self._ids("combined")

    @property
    def outlier_ids(self) -> list[int]:
        return self._ids()


class _ClassStats:
    """Per-class empirical statistics used by the planting rules.

    Class probabilities are the class-size shares, fixed for a whole seeding.
    Degree sums, column sums and column nonzero counts are products with one
    dense N x K class indicator: of the degree vector, and of the transposed
    CSR attributes (dense input is converted) and their nonzero pattern. No
    N x D array is built, and each class's column sums run over its members
    in node order.
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
        attrs = sp.csr_matrix(net.attributes)
        pattern = sp.csr_matrix((np.ones(attrs.nnz), attrs.indices, attrs.indptr),
                                shape=attrs.shape)
        nnz_counts = np.diff(attrs.indptr)
        self.class_probs = sizes / n
        self.members = [np.flatnonzero(net.labels == c) for c in range(k)]
        self.external = [np.flatnonzero(net.labels != c) for c in range(k)]
        # integer degree sums are exact in any summation order
        self.mean_degree = (np.diff(net.adjacency.indptr) @ onehot) / sizes
        self.nnz_counts = [nnz_counts[m] for m in self.members]
        self.col_sums = np.ascontiguousarray((attrs.T @ onehot).T)
        self.col_nnz = np.ascontiguousarray((pattern.T @ onehot).T)

    def own_distribution(self, c: int):
        """(keyword weights, per-keyword mean values, nonzero-count pool) of class c."""
        vals = np.divide(self.col_sums[c], self.col_nnz[c],
                         out=np.zeros_like(self.col_sums[c]),
                         where=self.col_nnz[c] > 0)
        return self.col_sums[c], vals, self.nnz_counts[c]

    def pooled_other_distribution(self, c: int):
        """Same statistics pooled over every class except c (count pools in class order)."""
        w = self.col_sums.sum(axis=0) - self.col_sums[c]
        nz = self.col_nnz.sum(axis=0) - self.col_nnz[c]
        vals = np.divide(w, nz, out=np.zeros_like(w), where=nz > 0)
        counts = np.concatenate([p for o, p in enumerate(self.nnz_counts) if o != c])
        return w, vals, counts


def _draw_degree(mean_deg: float, band: float, pool_size: int, rng) -> int:
    """Integer degree uniform in [(1-band)m, (1+band)m], at least 1.

    Falls back to round(m) when the band contains no integer; always capped
    at the size of the eligible neighbor pool. The 1e-9 nudge keeps float
    noise in (1-band)*m from emptying an exactly-integer-bounded band.
    """
    lo = max(1, math.ceil((1.0 - band) * mean_deg - 1e-9))
    hi = math.floor((1.0 + band) * mean_deg + 1e-9)
    if lo > hi:
        deg = max(1, round(mean_deg))
    else:
        deg = int(rng.integers(lo, hi + 1))
    return min(max(deg, 1), pool_size)


def _draw_attributes(weights: np.ndarray, values: np.ndarray,
                     count_pool: np.ndarray, rng):
    """Sample (indices, values) for a planted node's attribute row.

    The nonzero count is one empirical draw from count_pool; indices are a
    weighted sample without replacement from the keyword distribution.
    """
    support = np.nonzero(weights > 0)[0]
    if support.size == 0 or count_pool.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0)
    cnt = int(count_pool[rng.integers(count_pool.size)])
    cnt = min(max(cnt, 1), support.size)
    p = weights[support] / weights[support].sum()
    idx = np.sort(rng.choice(support, size=cnt, replace=False, p=p))
    return idx, values[idx]


def _pick_class(stats: _ClassStats, rng, exclude: int | None = None) -> int:
    probs = stats.class_probs
    if exclude is not None:
        probs = probs.copy()
        probs[exclude] = 0.0
        probs /= probs.sum()
    return int(rng.choice(probs.size, p=probs))


def _plant(kind: str, plan: SeedingPlan, rng, stats: _ClassStats) -> PlantedNode:
    """One planted node of the given kind. Draws, in this order: the anchor class,
    the attribute class (combined only), the degree, the neighbors, the attributes."""
    c = _pick_class(stats, rng)
    struct_class = None if kind == "structural" else c
    attr_class = (_pick_class(stats, rng, exclude=c) if kind == "combined"
                  else None if kind == "attribute" else c)
    pool = stats.external[c] if struct_class is None else stats.members[c]
    if pool.size == 0:
        raise ValueError(f"class {c} has no external nodes to connect to")
    deg = _draw_degree(stats.mean_degree[c], plan.degree_band, pool.size, rng)
    neighbors = np.sort(rng.choice(pool, size=deg, replace=False))
    dist = (stats.pooled_other_distribution(c) if attr_class is None
            else stats.own_distribution(attr_class))
    idx, vals = _draw_attributes(*dist, rng)
    return PlantedNode(kind, c, struct_class, attr_class, neighbors, idx, vals)


def plant_structural(net: AttributedNetwork, plan: SeedingPlan, rng) -> PlantedNode:
    """A node whose attributes follow one class while every edge leaves it."""
    return _plant("structural", plan, rng, _ClassStats(net))


def plant_attribute(net: AttributedNetwork, plan: SeedingPlan, rng) -> PlantedNode:
    """A node whose edges stay inside one class while its attributes pool the rest."""
    return _plant("attribute", plan, rng, _ClassStats(net))


def plant_combined(net: AttributedNetwork, plan: SeedingPlan, rng) -> PlantedNode:
    """A node structurally anchored to one class with another class's attributes."""
    return _plant("combined", plan, rng, _ClassStats(net))


def seed_outliers(net: AttributedNetwork, plan: SeedingPlan) -> SeededDataset:
    """Plant ceil(total_fraction * N) outliers and return the augmented dataset.

    The planted nodes come kind by kind (structural, attribute, combined; see
    SeedingPlan.counts), all drawn from one named_rng(plan.seed, "seeding")
    stream, so the result equals the plant_* calls made in that order on that
    stream. Deterministic per plan.seed. Planted nodes are appended after the
    original nodes, named planted_<t>_<kind>, and never link to each other.
    The augmented network's attributes are CSR, whatever the input layout.
    """
    counts = plan.counts(net.n_nodes)
    if sum(counts) == 0:
        return SeededDataset(network=copy.deepcopy(net))

    stats = _ClassStats(net)
    rng = named_rng(plan.seed, "seeding")
    planted = [_plant(kind, plan, rng, stats)
               for kind, count in zip(OUTLIER_KINDS, counts) for _ in range(count)]

    n0, total = net.n_nodes, len(planted)
    new_ids = np.arange(n0, n0 + total)
    edge_new = np.repeat(new_ids, [p.neighbors.size for p in planted])
    edge_old = np.concatenate([p.neighbors for p in planted])
    coo = net.adjacency.tocoo()
    adj = sp.csr_matrix((np.concatenate([coo.data, np.ones(2 * edge_old.size)]),
                         (np.concatenate([coo.row, edge_new, edge_old]),
                          np.concatenate([coo.col, edge_old, edge_new]))),
                        shape=(n0 + total, n0 + total))
    planted_rows = sp.csr_matrix(
        (np.concatenate([p.attr_values for p in planted]),
         np.concatenate([p.attr_indices for p in planted]),
         np.cumsum([0] + [p.attr_indices.size for p in planted])),
        shape=(total, net.n_attrs))
    attrs = sp.vstack([sp.csr_matrix(net.attributes), planted_rows], format="csr")

    names = list(net.node_names)
    taken = set(names)
    for t, p in enumerate(planted):
        name = f"planted_{t}_{p.kind}"
        while name in taken:
            name += "_x"
        taken.add(name)
        names.append(name)

    augmented = AttributedNetwork(
        adjacency=adj, attributes=attrs,
        labels=np.concatenate([net.labels, [p.label for p in planted]]),
        node_names=names, directed=False,
        has_self_loops=net.has_self_loops, label_names=list(net.label_names))
    return SeededDataset(network=augmented, planted=planted)


def save_truth(seeded: SeededDataset, path: str):
    """Write `<node_id> <kind>` lines for every planted outlier, in planting order."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    names = seeded.network.node_names
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i, p in zip(seeded.outlier_ids, seeded.planted):
            fh.write(f"{names[i]} {p.kind}\n")


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
    independently. Each class owns a contiguous block of attribute columns; a
    node draws a Binomial(nnz, attr_signal) share of its nonzero attributes
    from its own block and the rest from the remaining columns, all with
    value 1.

    Edges are drawn per class pair as a Binomial(pairs, p) count and then that
    many distinct pairs uniformly (Batagelj & Brandes 2005), which is the same
    distribution as one Bernoulli draw per pair. Time is O(E + K^2 + N * nnz)
    for E edges, K classes and nnz nonzero attributes per node; no per-pair
    array is built. The attributes are returned as N x n_attrs CSR, built row
    by row with no dense N x n_attrs array.
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
    adj = sp.csr_matrix((np.ones(2 * ei.size),
                         (np.concatenate([ei, ej]), np.concatenate([ej, ei]))),
                        shape=(n_nodes, n_nodes))

    block = n_attrs // n_classes
    lo_cnt = max(2, block // 3)
    hi_cnt = max(3, (2 * block) // 3)
    all_cols = np.arange(n_attrs, dtype=np.int32)  # the CSR's index dtype: no conversion copy
    own_cols = [all_cols[c * block:(c + 1) * block] for c in range(n_classes)]
    other_cols = [np.concatenate([all_cols[:c * block], all_cols[(c + 1) * block:]])
                  for c in range(n_classes)]
    picks, row_nnz = [np.empty(0, dtype=np.int32)], [0]
    for i in range(n_nodes):
        c = labels[i]
        nnz = int(rng.integers(lo_cnt, hi_cnt + 1))
        own = min(int(rng.binomial(nnz, attr_signal)), own_cols[c].size)
        off = min(nnz - own, other_cols[c].size)
        if own:
            picks.append(rng.choice(own_cols[c], size=own, replace=False))
        if off > 0:
            picks.append(rng.choice(other_cols[c], size=off, replace=False))
        row_nnz.append(own + off)
    # a row's two picks are disjoint and duplicate-free; AttributedNetwork
    # sorts each row's columns
    cols = np.concatenate(picks)
    attrs = sp.csr_matrix((np.ones(cols.size), cols, np.cumsum(row_nnz)),
                          shape=(n_nodes, n_attrs))

    return AttributedNetwork(adjacency=adj, attributes=attrs, labels=labels,
                             label_names=[f"class{c}" for c in range(n_classes)])

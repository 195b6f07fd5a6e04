"""Ground-truth outlier planting and synthetic labeled networks.

Three planted node kinds, named for which view of the node is inconsistent:

- structural: attributes drawn from one class, every edge leads outside it
- attribute: edges stay inside one class, attributes drawn from the others
- combined: edges stay inside one class, attributes drawn from a second class

Planted nodes are new nodes appended to the network; they connect only to
original nodes, carry the label of the class their structure or attributes
were anchored to, and their degree and nonzero-attribute counts are drawn
from the anchor class's empirical distributions so summary statistics do not
give them away.
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ParseError
from .network import AttributedNetwork, _data_lines, class_distribution
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
    """An augmented network plus the identities of the planted nodes."""

    network: AttributedNetwork
    structural_ids: list[int] = field(default_factory=list)
    attribute_ids: list[int] = field(default_factory=list)
    combined_ids: list[int] = field(default_factory=list)
    planted: list[PlantedNode] = field(default_factory=list)

    @property
    def outlier_ids(self) -> list[int]:
        return [*self.structural_ids, *self.attribute_ids, *self.combined_ids]


class _ClassStats:
    """Per-class empirical statistics used by the planting rules."""

    def __init__(self, net: AttributedNetwork):
        if net.labels is None:
            raise ValueError("seeding requires a labeled network")
        labels = net.labels
        n, k = net.n_nodes, net.n_classes
        degrees = np.diff(net.adjacency.indptr)
        nnz_counts = np.count_nonzero(net.attributes, axis=1)
        col_sums = np.zeros((k, net.n_attrs))
        col_nnz = np.zeros((k, net.n_attrs))
        self.members = []
        self.external = []
        self.mean_degree = np.zeros(k)
        self.nnz_counts = []
        for c in range(k):
            mask = labels == c
            idx = np.nonzero(mask)[0]
            if idx.size == 0:
                raise ValueError(f"class id {c} has no members")
            self.members.append(idx)
            self.external.append(np.nonzero(~mask)[0])
            self.mean_degree[c] = degrees[idx].mean()
            self.nnz_counts.append(nnz_counts[idx])
            col_sums[c] = net.attributes[idx].sum(axis=0)
            col_nnz[c] = np.count_nonzero(net.attributes[idx], axis=0)
        self.col_sums = col_sums
        self.col_nnz = col_nnz
        self.total_col_sums = col_sums.sum(axis=0)
        self.total_col_nnz = col_nnz.sum(axis=0)
        self.all_nnz_counts = nnz_counts

    def own_distribution(self, c: int):
        """(keyword weights, per-keyword mean values, nonzero-count pool) of class c."""
        vals = np.divide(self.col_sums[c], self.col_nnz[c],
                         out=np.zeros_like(self.col_sums[c]),
                         where=self.col_nnz[c] > 0)
        return self.col_sums[c], vals, self.nnz_counts[c]

    def pooled_other_distribution(self, c: int):
        """Same statistics pooled over every class except c."""
        w = self.total_col_sums - self.col_sums[c]
        nz = self.total_col_nnz - self.col_nnz[c]
        vals = np.divide(w, nz, out=np.zeros_like(w), where=nz > 0)
        counts = np.concatenate([self.nnz_counts[o] for o in range(len(self.members))
                                 if o != c])
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


def _pick_class(net: AttributedNetwork, rng, exclude: int | None = None) -> int:
    probs = class_distribution(net)
    if exclude is not None:
        probs = probs.copy()
        probs[exclude] = 0.0
        probs /= probs.sum()
    return int(rng.choice(probs.size, p=probs))


def _require_plantable(net: AttributedNetwork):
    if net.labels is None:
        raise ValueError("planting requires a labeled network")
    if net.directed:
        raise ValueError("planting is defined for undirected networks only")
    if net.n_classes < 2:
        raise ValueError("planting requires at least 2 classes")


def plant_structural(net: AttributedNetwork, plan: SeedingPlan, rng,
                     stats: _ClassStats | None = None) -> PlantedNode:
    """A node whose attributes follow one class while every edge leaves it."""
    _require_plantable(net)
    stats = stats if stats is not None else _ClassStats(net)
    c = _pick_class(net, rng)
    pool = stats.external[c]
    if pool.size == 0:
        raise ValueError(f"class {c} has no external nodes to connect to")
    deg = _draw_degree(stats.mean_degree[c], plan.degree_band, pool.size, rng)
    neighbors = np.sort(rng.choice(pool, size=deg, replace=False))
    idx, vals = _draw_attributes(*stats.own_distribution(c), rng)
    return PlantedNode("structural", c, None, c, neighbors, idx, vals)


def plant_attribute(net: AttributedNetwork, plan: SeedingPlan, rng,
                    stats: _ClassStats | None = None) -> PlantedNode:
    """A node whose edges stay inside one class while its attributes pool the rest."""
    _require_plantable(net)
    stats = stats if stats is not None else _ClassStats(net)
    c = _pick_class(net, rng)
    pool = stats.members[c]
    deg = _draw_degree(stats.mean_degree[c], plan.degree_band, pool.size, rng)
    neighbors = np.sort(rng.choice(pool, size=deg, replace=False))
    idx, vals = _draw_attributes(*stats.pooled_other_distribution(c), rng)
    return PlantedNode("attribute", c, c, None, neighbors, idx, vals)


def plant_combined(net: AttributedNetwork, plan: SeedingPlan, rng,
                   stats: _ClassStats | None = None) -> PlantedNode:
    """A node structurally anchored to one class with another class's attributes."""
    _require_plantable(net)
    stats = stats if stats is not None else _ClassStats(net)
    c1 = _pick_class(net, rng)
    c2 = _pick_class(net, rng, exclude=c1)
    pool = stats.members[c1]
    deg = _draw_degree(stats.mean_degree[c1], plan.degree_band, pool.size, rng)
    neighbors = np.sort(rng.choice(pool, size=deg, replace=False))
    idx, vals = _draw_attributes(*stats.own_distribution(c2), rng)
    return PlantedNode("combined", c1, c1, c2, neighbors, idx, vals)


def seed_outliers(net: AttributedNetwork, plan: SeedingPlan) -> SeededDataset:
    """Plant ceil(total_fraction * N) outliers and return the augmented dataset.

    Deterministic per plan.seed. Planted nodes are appended after the original
    nodes and never link to each other.
    """
    n_s, n_a, n_c = plan.counts(net.n_nodes)
    total = n_s + n_a + n_c
    if total == 0:
        copy = AttributedNetwork(
            adjacency=net.adjacency.copy(), attributes=net.attributes.copy(),
            labels=None if net.labels is None else net.labels.copy(),
            node_names=list(net.node_names), directed=net.directed,
            has_self_loops=net.has_self_loops,
            label_names=None if net.label_names is None else list(net.label_names))
        return SeededDataset(network=copy)

    _require_plantable(net)
    rng = named_rng(plan.seed, "seeding")
    stats = _ClassStats(net)
    planted = ([plant_structural(net, plan, rng, stats) for _ in range(n_s)]
               + [plant_attribute(net, plan, rng, stats) for _ in range(n_a)]
               + [plant_combined(net, plan, rng, stats) for _ in range(n_c)])

    n0 = net.n_nodes
    coo = net.adjacency.tocoo()
    rows = [coo.row]
    cols = [coo.col]
    data = [coo.data]
    new_attrs = np.zeros((total, net.n_attrs))
    names = list(net.node_names)
    taken = set(names)
    labels = list(net.labels)
    ids_by_kind: dict[str, list[int]] = {k: [] for k in OUTLIER_KINDS}
    for t, p in enumerate(planted):
        i = n0 + t
        rows.append(np.concatenate([np.full(p.neighbors.size, i), p.neighbors]))
        cols.append(np.concatenate([p.neighbors, np.full(p.neighbors.size, i)]))
        data.append(np.ones(2 * p.neighbors.size))
        new_attrs[t, p.attr_indices] = p.attr_values
        name = f"planted_{t}_{p.kind}"
        while name in taken:
            name += "_x"
        taken.add(name)
        names.append(name)
        labels.append(p.label)
        ids_by_kind[p.kind].append(i)

    adj = sp.csr_matrix((np.concatenate(data),
                         (np.concatenate(rows), np.concatenate(cols))),
                        shape=(n0 + total, n0 + total))
    augmented = AttributedNetwork(
        adjacency=adj, attributes=np.vstack([net.attributes, new_attrs]),
        labels=np.array(labels), node_names=names, directed=False,
        has_self_loops=net.has_self_loops, label_names=list(net.label_names))
    return SeededDataset(network=augmented,
                         structural_ids=ids_by_kind["structural"],
                         attribute_ids=ids_by_kind["attribute"],
                         combined_ids=ids_by_kind["combined"],
                         planted=planted)


def save_truth(seeded: SeededDataset, path: str):
    """Write `<node_id> <kind>` lines for every planted outlier."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    names = seeded.network.node_names
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for kind, ids in (("structural", seeded.structural_ids),
                          ("attribute", seeded.attribute_ids),
                          ("combined", seeded.combined_ids)):
            for i in ids:
                fh.write(f"{names[i]} {kind}\n")


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


def synth_network(n_nodes: int, n_classes: int, p_in: float, p_out: float,
                  n_attrs: int, attr_signal: float, seed: int) -> AttributedNetwork:
    """Random labeled network: block-model edges plus class-keyword attributes.

    Nodes are split into near-equal contiguous classes. Within-class pairs
    link with probability p_in, cross-class pairs with p_out. Each class owns
    a contiguous block of attribute columns; a node draws a Binomial
    (nnz, attr_signal) share of its nonzero attributes from its own block and
    the rest from the remaining columns, all with value 1.
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
    labels = np.repeat(np.arange(n_classes), sizes)

    ii, jj = np.triu_indices(n_nodes, 1)
    probs = np.where(labels[ii] == labels[jj], p_in, p_out)
    keep = rng.random(ii.size) < probs
    ei, ej = ii[keep], jj[keep]
    adj = sp.csr_matrix((np.ones(2 * ei.size),
                         (np.concatenate([ei, ej]), np.concatenate([ej, ei]))),
                        shape=(n_nodes, n_nodes))

    block = n_attrs // n_classes
    lo_cnt = max(2, block // 3)
    hi_cnt = max(3, (2 * block) // 3)
    attrs = np.zeros((n_nodes, n_attrs))
    all_cols = np.arange(n_attrs)
    for i in range(n_nodes):
        c = labels[i]
        own_cols = all_cols[c * block:(c + 1) * block]
        other_cols = np.concatenate([all_cols[:c * block], all_cols[(c + 1) * block:]])
        nnz = int(rng.integers(lo_cnt, hi_cnt + 1))
        own = min(int(rng.binomial(nnz, attr_signal)), own_cols.size)
        off = min(nnz - own, other_cols.size)
        if own:
            attrs[i, rng.choice(own_cols, size=own, replace=False)] = 1.0
        if off > 0:
            attrs[i, rng.choice(other_cols, size=off, replace=False)] = 1.0

    return AttributedNetwork(adjacency=adj, attributes=attrs, labels=labels,
                             label_names=[f"class{c}" for c in range(n_classes)])

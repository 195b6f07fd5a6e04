import hashlib
import math
import tracemalloc
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (block_pairs_by_divmod, class_stats_by_loop, reference_synth_attributes,
                     to_dense)
from oaembed.errors import ConfigError, ParseError
from oaembed.network import AttributedNetwork
from oaembed.numerics import make_rng, named_rng
from oaembed.seeding import (OUTLIER_KINDS, PlantedNode, SeedingPlan, _ClassStats,
                             _decode_block_pairs, _plant, load_truth, save_truth,
                             seed_outliers, synth_network)


def block_of(j, n_classes=3, n_attrs=120):
    return j // (n_attrs // n_classes)


def degree_of(net, i):
    row = net.adjacency.getrow(i)
    return row.nnz - (1 if net.adjacency[i, i] != 0 else 0)


# --------------------------------------------------------------- synthesis


def test_synth_basic_shape_and_labels():
    net = synth_network(90, 3, 0.3, 0.02, 120, 0.9, seed=5)
    assert net.n_nodes == 90
    assert net.n_attrs == 120
    assert net.n_classes == 3
    counts = np.bincount(net.labels)
    assert counts.tolist() == [30, 30, 30]
    assert list(net.label_names) == ["class0", "class1", "class2"]
    assert not net.directed and not net.adjacency.diagonal().any()
    # contiguous blocks: labels are sorted
    assert (np.diff(net.labels) >= 0).all()


def test_synth_within_class_denser():
    net = synth_network(150, 3, 0.3, 0.02, 60, 0.9, seed=1)
    a = net.adjacency.toarray()
    same = net.labels[:, None] == net.labels[None, :]
    np.fill_diagonal(same, False)
    within = a[same].mean()
    cross = a[~same & ~np.eye(150, dtype=bool)].mean()
    assert within > 5 * cross


def test_synth_disconnected_when_p_out_zero():
    net = synth_network(60, 2, 0.4, 0.0, 20, 0.9, seed=2)
    a = net.adjacency.toarray()
    cross = net.labels[:, None] != net.labels[None, :]
    assert a[cross].sum() == 0.0


def test_synth_pure_attribute_signal():
    net = synth_network(60, 3, 0.2, 0.02, 120, 1.0, seed=3)
    for i in range(60):
        cols = np.nonzero(to_dense(net.attributes)[i])[0]
        assert len(cols) > 0
        assert all(block_of(j) == net.labels[i] for j in cols)


def test_synth_attribute_signal_statistics():
    net = synth_network(300, 3, 0.1, 0.01, 120, 0.9, seed=4)
    own = total = 0
    for i in range(300):
        cols = np.nonzero(to_dense(net.attributes)[i])[0]
        own += sum(block_of(j) == net.labels[i] for j in cols)
        total += len(cols)
    assert own / total > 0.8


@pytest.mark.parametrize("args", [
    (90, 3, 0.2, 0.02, 120, 0.9, 0),
    (90, 3, 0.2, 0.02, 120, 0.9, 7),
    (91, 4, 0.2, 0.02, 50, 0.8, 3),     # 50 % 4 != 0: two columns no class owns
    (60, 3, 0.3, 0.02, 31, 1.0, 7),     # attr_signal = 1, 31 % 3 != 0
    (40, 1, 0.3, 0.0, 12, 0.5, 11),     # one class owns every column
])
def test_synth_attributes_match_dense_reference(args):
    net = synth_network(*args[:6], seed=args[6])
    assert sp.issparse(net.attributes) and net.attributes.format == "csr"
    assert net.attributes.has_sorted_indices
    assert np.array_equal(to_dense(net.attributes), reference_synth_attributes(*args))


def test_synth_attributes_match_dense_reference_on_wide_blocks():
    # blocks of 150 and 100 columns, and a column (300) that no class owns
    for args in [(40, 2, 0.3, 0.05, 300, 0.7, 2), (33, 3, 0.3, 0.05, 301, 0.95, 5)]:
        net = synth_network(*args[:6], seed=args[6])
        assert np.array_equal(to_dense(net.attributes), reference_synth_attributes(*args))


def test_synth_attribute_draw_follows_its_law():
    # block 100 of 400 columns: lo = 33, hi = 66, so neither cap binds and
    # every row holds exactly its nnz ~ Uniform{33..66} draw
    n, k, d, signal = 4000, 4, 400, 0.7
    block, lo, hi = d // k, 33, 66
    net = synth_network(n, k, 0.01, 0.001, d, signal, seed=12)
    a = net.attributes
    rows = np.repeat(np.arange(n), np.diff(a.indptr))
    in_own = a.indices // block == net.labels[rows]
    row_nnz = np.diff(a.indptr)
    own = np.bincount(rows[in_own], minlength=n)

    # row counts: each of the 34 values is hit Binomial(n, 1/34) times
    p = 1 / (hi - lo + 1)
    hits = np.bincount(row_nnz, minlength=hi + 1)
    assert hits[:lo].sum() == 0 and hits.size == hi + 1
    assert (np.abs(hits[lo:] - n * p) <= 4 * math.sqrt(n * p * (1 - p))).all()

    # own share: Binomial(nnz, signal) given nnz, in its mean and its spread
    var = row_nnz * signal * (1 - signal)
    dev = own - row_nnz * signal
    assert abs(dev.sum()) <= 4 * math.sqrt(var.sum())
    # Var((X - mu)^2) = 2 var^2 + var (1 - 6 p q) for a binomial X
    spread = var * (2 * var + 1 - 6 * signal * (1 - signal))
    assert abs((dev ** 2).sum() - var.sum()) <= 4 * math.sqrt(spread.sum())

    # column frequencies: uniform over the own block and over the off-block
    # pool of each class; a row takes column j with probability (its count) /
    # (width), so sum_j (hits_j - mean)^2 / var over a width-w range is about
    # chi-square with w degrees of freedom
    def chi_square(cols, members, taken, width):
        counts = np.bincount(cols, minlength=width)
        frac = taken[members] / width
        return ((counts - frac.sum()) ** 2).sum() / (frac * (1 - frac)).sum()

    stat_own = stat_off = 0.0
    for c in range(k):
        members = np.flatnonzero(net.labels == c)
        mine = net.labels[rows] == c
        cols = a.indices[mine & in_own] - c * block
        pool = a.indices[mine & ~in_own]
        pool = np.where(pool >= (c + 1) * block, pool - block, pool)
        stat_own += chi_square(cols, members, own, block)
        stat_off += chi_square(pool, members, row_nnz - own, d - block)
    for stat, dof in ((stat_own, k * block), (stat_off, k * (d - block))):
        assert abs(stat - dof) <= 4 * math.sqrt(2 * dof), (stat, dof)


@st.composite
def attribute_models(draw):
    """(n_nodes, n_classes, n_attrs, attr_signal): one class, uneven blocks
    (n_attrs % n_classes != 0), blocks of one or two columns (own capped at
    the block) and attr_signal = 1 all reachable."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, 5 * k + 3))
    d = draw(st.integers(k, 14 * k + 5))
    signal = draw(st.one_of(st.just(1.0), st.floats(0.05, 1.0)))
    return n, k, d, signal


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(attribute_models(), st.integers(0, 2**31 - 1))
@example((12, 3, 31, 1.0), 0)     # attr_signal = 1, 31 % 3 != 0
@example((9, 1, 7, 0.6), 1)       # one class owns every column
@example((10, 4, 9, 0.9), 2)      # blocks of 2 columns, hi = 3: own capped
@example((8, 2, 3, 1.0), 3)       # blocks of 1 column, a column no class owns
def test_synth_attribute_rows_are_born_sorted(model, seed):
    n, k, d, signal = model
    sorted_here = []
    real_sort = sp.csr_matrix.sort_indices

    def spy(self):
        sorted_here.append(self.indices)
        real_sort(self)

    with mock.patch.object(sp.csr_matrix, "sort_indices", spy):
        net = synth_network(n, k, 0.3, 0.05, d, signal, seed=seed)
    a = net.attributes
    assert not any(np.shares_memory(a.indices, idx) for idx in sorted_here)
    assert a.has_canonical_format and (a.data == 1.0).all()
    block = d // k
    hi = max(3, 2 * block // 3)
    for i in range(n):
        cols = a.indices[a.indptr[i]:a.indptr[i + 1]]
        assert (np.diff(cols) > 0).all()
        own = np.count_nonzero(cols // block == net.labels[i])
        assert own <= block and cols.size - own <= d - block and cols.size <= hi
        if signal == 1.0 and hi <= block:
            assert own == cols.size
    assert np.array_equal(to_dense(a), reference_synth_attributes(n, k, 0.3, 0.05, d,
                                                                  signal, seed))


def test_synth_deterministic():
    a = synth_network(50, 2, 0.3, 0.02, 30, 0.9, seed=11)
    b = synth_network(50, 2, 0.3, 0.02, 30, 0.9, seed=11)
    assert np.array_equal(a.adjacency.toarray(), b.adjacency.toarray())
    assert np.array_equal(to_dense(a.attributes), to_dense(b.attributes))
    assert np.array_equal(a.labels, b.labels)


def test_synth_param_validation():
    with pytest.raises(ValueError):
        synth_network(10, 0, 0.3, 0.02, 20, 0.9, seed=0)
    with pytest.raises(ValueError):
        synth_network(5, 6, 0.3, 0.02, 20, 0.9, seed=0)   # more classes than nodes
    with pytest.raises(ValueError):
        synth_network(10, 2, 1.5, 0.02, 20, 0.9, seed=0)
    with pytest.raises(ValueError):
        synth_network(10, 2, 0.3, -0.1, 20, 0.9, seed=0)
    with pytest.raises(ValueError):
        synth_network(10, 2, 0.3, 0.02, 1, 0.9, seed=0)   # attrs < classes
    with pytest.raises(ValueError):
        synth_network(10, 2, 0.3, 0.02, 20, 1.2, seed=0)
    for seed in (1.5, True):
        with pytest.raises(ValueError, match="seed"):
            synth_network(10, 2, 0.3, 0.02, 20, 0.9, seed=seed)
    # a float count is refused, not cast, and a bool probability is not read as 0 or 1
    for args, name in (((300.0, 3, 0.3, 0.02, 120, 0.9), "n_nodes"),
                       ((300, 3.0, 0.3, 0.02, 120, 0.9), "n_classes"),
                       ((300, 3, 0.3, 0.02, 120.0, 0.9), "n_attrs"),
                       ((60, 3, True, 0.05, 12, 0.9), "p_in"),
                       ((60, 3, 0.3, False, 12, 0.9), "p_out"),
                       ((60, 3, 0.3, 0.05, 12, True), "attr_signal")):
        with pytest.raises(ConfigError, match=name):
            synth_network(*args, seed=0)


@st.composite
def block_models(draw):
    """(n_nodes, n_classes, p_in, p_out): uneven and single-node classes, one
    class, complete (p_in = 1) and empty (p_out = 0) blocks all reachable."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(k, 4 * k + 3))
    p_in = draw(st.one_of(st.just(1.0), st.floats(0.05, 1.0)))
    p_out = draw(st.one_of(st.just(0.0), st.floats(0.0, p_in, exclude_max=True)))
    return n, k, p_in, p_out


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(block_models(), st.integers(0, 2**31 - 1))
def test_synth_adjacency_invariants(model, seed):
    n, k, p_in, p_out = model
    net = synth_network(n, k, p_in, p_out, 3 * k, 0.9, seed=seed)
    a = net.adjacency
    assert a.shape == (n, n)
    assert (a != a.T).nnz == 0
    assert not a.diagonal().any()
    assert (a.data == 1.0).all()          # a drawn-twice pair would sum to 2
    same = net.labels[:, None] == net.labels[None, :]
    dense = a.toarray()
    if p_in == 1.0:
        assert (dense[same] == 1.0 - np.eye(n)[same]).all()
    if p_out == 0.0:
        assert not dense[~same].any()


def test_synth_block_edge_counts_match_binomial_means():
    sizes, p_in, p_out, seeds = [21, 21, 20], 0.3, 0.05, range(20)
    counts = np.zeros((3, 3))
    for seed in seeds:
        net = synth_network(sum(sizes), 3, p_in, p_out, 30, 0.9, seed=seed)
        upper = sp.triu(net.adjacency, k=1).tocoo()
        np.add.at(counts, (net.labels[upper.row], net.labels[upper.col]), 1)
    for a in range(3):
        for b in range(a, 3):
            pairs = sizes[a] * (sizes[a] - 1) // 2 if a == b else sizes[a] * sizes[b]
            p = p_in if a == b else p_out
            trials = len(seeds) * pairs
            sd = math.sqrt(trials * p * (1 - p))
            assert abs(counts[a, b] - trials * p) <= 4 * sd, (a, b)
    assert not np.tril(counts, -1).any()  # labels are contiguous and sorted


def test_synth_memory_is_not_quadratic():
    tracemalloc.start()
    try:
        synth_network(3000, 3, 0.01, 0.001, 30, 0.9, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6   # the 4.5 M node pairs alone would take 72 MB as int64


def test_synth_and_seeding_keep_wide_attributes_sparse():
    tracemalloc.start()
    try:
        net = synth_network(1000, 20, 0.01, 0.001, 20000, 0.9, seed=0)
        seeded = seed_outliers(net, SeedingPlan(total_fraction=0.05, seed=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sp.issparse(seeded.network.attributes)
    assert peak < 40e6   # one dense 1000 x 20000 float64 copy would take 160 MB


def test_synth_and_seeding_hold_two_attribute_copies_not_three():
    # at 1000 x 10000 in 5 classes the attributes (12.5 MB a copy) outweigh
    # the per-class K x n_attrs tables of the planting; the input network and
    # the seeded one are the only copies, so neither builder copies its own
    tracemalloc.start()
    try:
        net = synth_network(1000, 5, 0.01, 0.001, 10000, 0.9, seed=0)
        seeded = seed_outliers(net, SeedingPlan(total_fraction=0.05, seed=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    a = seeded.network.attributes
    copy_bytes = a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
    assert peak < 2.5 * copy_bytes, (peak, copy_bytes)


def test_decode_block_pairs_is_exact_at_scale():
    size = 3000
    i, j = _decode_block_pairs(np.arange(size * (size - 1) // 2), size)
    ti, tj = np.triu_indices(size, 1)
    assert np.array_equal(i, ti) and np.array_equal(j, tj)
    del ti, tj
    oi, oj = block_pairs_by_divmod(size)
    assert np.array_equal(i, oi) and np.array_equal(j, oj)
    del i, j, oi, oj

    size_a, size_b = 3000, 3001
    i, j = _decode_block_pairs(np.arange(size_a * size_b), size_a, size_b)
    oi, oj = block_pairs_by_divmod(size_a, size_b)
    assert np.array_equal(i, oi) and np.array_equal(j, oj)


# ------------------------------------------------------------------ plans


def test_plan_counts_examples():
    assert SeedingPlan(total_fraction=0.05).counts(300) == (5, 5, 5)
    assert SeedingPlan(total_fraction=0.05).counts(301) == (6, 5, 5)
    assert SeedingPlan(total_fraction=0.0).counts(300) == (0, 0, 0)
    # ceil(0.05 * 20) = 1 planted node in total
    assert SeedingPlan(total_fraction=0.05).counts(20) == (1, 0, 0)
    assert SeedingPlan(total_fraction=0.05).counts(40) == (1, 1, 0)


def test_plan_validation():
    with pytest.raises(ValueError):
        SeedingPlan(total_fraction=-0.01)
    with pytest.raises(ValueError):
        SeedingPlan(total_fraction=0.5)


@pytest.mark.parametrize("field", ["total_fraction"])
@pytest.mark.parametrize("value", [False, True, "0.1", None, math.nan])
def test_plan_refuses_bool_and_non_number_settings(field, value):
    # unchecked, False would plant nothing and "0.1" or None would fail
    # inside a comparison; HyperParams refuses the same values
    with pytest.raises(ConfigError, match=field):
        SeedingPlan(**{field: value})


def test_plan_checks_seed_when_built():
    for fraction in (0.05, 0.0):  # even when nothing is planted
        for seed in (1.5, True, "1"):
            with pytest.raises(ValueError, match="seed"):
                SeedingPlan(total_fraction=fraction, seed=seed)
    assert SeedingPlan(seed=np.int64(3)).seed == 3


# --------------------------------------------------------------- planting


def regular_two_class_net(seed=0):
    """Class 0 is a 12-node circulant where every node has degree exactly 10."""
    n0, n1 = 12, 30
    n = n0 + n1
    rng = make_rng(seed)
    a = np.zeros((n, n))
    for i in range(n0):
        for step in range(1, 6):  # 5 steps each way -> degree 10
            j = (i + step) % n0
            a[i, j] = a[j, i] = 1.0
    mask = np.triu(rng.random((n1, n1)) < 0.3, 1)
    a[n0:, n0:] = mask + mask.T
    attrs = np.zeros((n, 40))
    for i in range(n):
        c = 0 if i < n0 else 1
        cols = rng.choice(np.arange(c * 20, (c + 1) * 20), size=6, replace=False)
        attrs[i, cols] = rng.uniform(0.5, 1.5, size=6)
    labels = np.array([0] * n0 + [1] * n1)
    return AttributedNetwork(adjacency=sp.csr_matrix(a), attributes=attrs,
                             labels=labels, label_names=["c0", "c1"])


def test_plant_structural_degree_band_and_edges():
    net = regular_two_class_net()
    stats = _ClassStats(net)
    hits = 0
    for trial in range(30):
        node = _plant("structural", named_rng(trial, "t"), stats)
        assert node.kind == "structural"
        assert node.struct_class is None
        assert node.attr_class == node.label
        assert all(net.labels[j] != node.label for j in node.neighbors)
        assert len(set(node.neighbors.tolist())) == node.neighbors.size
        if node.label == 0:
            hits += 1
            # class-0 mean degree is exactly 10, so the band is [9, 11]
            assert 9 <= node.neighbors.size <= 11
            # attributes stay inside the class-0 keyword block
            assert (node.attr_indices < 20).all()
    assert hits >= 3


def test_plant_structural_attributes_look_native():
    net = synth_network(120, 3, 0.2, 0.01, 120, 0.9, seed=7)
    stats = _ClassStats(net)
    own = total = 0
    for trial in range(30):
        node = _plant("structural", named_rng(trial, "s"), stats)
        own += sum(block_of(j) == node.label for j in node.attr_indices)
        total += len(node.attr_indices)
        assert (np.asarray(node.attr_values) > 0).all()
    assert own / total > 0.8


def test_plant_attribute_edges_and_foreign_attrs():
    net = synth_network(120, 3, 0.2, 0.01, 120, 1.0, seed=8)
    stats = _ClassStats(net)
    for trial in range(20):
        node = _plant("attribute", named_rng(trial, "a"), stats)
        assert node.kind == "attribute"
        assert node.struct_class == node.label
        assert node.attr_class is None
        assert all(net.labels[j] == node.label for j in node.neighbors)
        # signal 1.0 means the label's rows never use foreign columns, so the
        # pooled other-class draw cannot land inside the label's own block
        assert all(block_of(j) != node.label for j in node.attr_indices)


def test_plant_combined_provenance():
    net = synth_network(120, 3, 0.2, 0.01, 120, 1.0, seed=9)
    stats = _ClassStats(net)
    for trial in range(20):
        node = _plant("combined", named_rng(trial, "c"), stats)
        assert node.kind == "combined"
        assert node.struct_class is not None and node.attr_class is not None
        assert node.struct_class != node.attr_class
        assert node.label == node.struct_class
        assert all(net.labels[j] == node.struct_class for j in node.neighbors)
        assert all(block_of(j) == node.attr_class for j in node.attr_indices)


def test_plant_degree_band_from_class_stats():
    net = synth_network(120, 3, 0.2, 0.01, 60, 0.9, seed=7)
    stats = _ClassStats(net)
    means = {}
    for c in range(3):
        members = np.nonzero(net.labels == c)[0]
        means[c] = np.mean([degree_of(net, int(i)) for i in members])
    for trial in range(15):
        node = _plant("attribute", named_rng(trial, "band"), stats)
        lo = np.ceil(0.9 * means[node.label] - 1e-9)
        hi = np.floor(1.1 * means[node.label] + 1e-9)
        assert lo <= node.neighbors.size <= hi


def test_plant_requires_usable_network():
    net = synth_network(60, 2, 0.3, 0.02, 20, 0.9, seed=10)
    unlabeled = AttributedNetwork(adjacency=net.adjacency, attributes=net.attributes)
    with pytest.raises(ValueError):
        _plant("structural", make_rng(0), _ClassStats(unlabeled))
    single = AttributedNetwork(adjacency=net.adjacency, attributes=net.attributes,
                               labels=np.zeros(60, dtype=int), label_names=["only"])
    with pytest.raises(ValueError):
        _plant("combined", make_rng(0), _ClassStats(single))


# ----------------------------------------------------------- full seeding


def test_seed_outliers_counts_names_and_labels():
    net = synth_network(300, 3, 0.05, 0.005, 120, 0.9, seed=13)
    seeded = seed_outliers(net, SeedingPlan(total_fraction=0.05, seed=13))
    assert seeded.network.n_nodes == 315
    assert len(seeded.planted) == 15
    kinds = [p.kind for p in seeded.planted]
    assert all(kinds.count(k) == 5 for k in OUTLIER_KINDS)
    assert len(seeded._ids("structural")) == 5
    assert len(seeded._ids("attribute")) == 5
    assert len(seeded._ids("combined")) == 5

    names = seeded.network.node_names
    assert len(seeded.outlier_ids) == 15
    for j, (node_id, planted) in enumerate(zip(seeded.outlier_ids, seeded.planted)):
        assert node_id >= 300
        assert names[node_id] == f"planted_{j}_{planted.kind}"
        assert seeded.network.labels[node_id] == planted.label
    # originals keep their ids, labels and attributes
    assert np.array_equal(seeded.network.labels[:300], net.labels)
    assert np.array_equal(to_dense(seeded.network.attributes)[:300], to_dense(net.attributes))


def test_seed_outliers_edge_consistency():
    net = synth_network(300, 3, 0.05, 0.005, 120, 0.9, seed=14)
    seeded = seed_outliers(net, SeedingPlan(total_fraction=0.05, seed=14))
    snet = seeded.network
    for node_id, planted in zip(seeded.outlier_ids, seeded.planted):
        row = snet.adjacency.getrow(node_id)
        assert sorted(int(j) for j in row.indices) == planted.neighbors.tolist()
        assert (np.asarray(planted.neighbors) < 300).all()  # never link planted
        for j in planted.neighbors:
            assert snet.adjacency[j, node_id] != 0  # symmetric
        cols = np.nonzero(to_dense(snet.attributes)[node_id])[0]
        assert cols.tolist() == sorted(planted.attr_indices.tolist())
        if planted.kind == "structural":
            assert all(net.labels[j] != planted.label for j in planted.neighbors)
        else:
            assert all(net.labels[j] == planted.struct_class
                       for j in planted.neighbors)


def test_seed_outliers_degrees_in_band():
    net = synth_network(300, 3, 0.05, 0.005, 120, 0.9, seed=15)
    base_means = {}
    for c in range(3):
        members = np.nonzero(net.labels == c)[0]
        base_means[c] = np.mean([degree_of(net, int(i)) for i in members])
    seeded = seed_outliers(net, SeedingPlan(total_fraction=0.05, seed=15))
    for planted in seeded.planted:
        m = base_means[planted.label]
        lo = np.ceil(0.9 * m - 1e-9)
        hi = np.floor(1.1 * m + 1e-9)
        assert lo <= planted.neighbors.size <= hi


def test_seed_outliers_attribute_stats_overlap():
    net = synth_network(300, 3, 0.05, 0.005, 120, 0.9, seed=16)
    attrs = to_dense(net.attributes)
    nnz_counts = np.count_nonzero(attrs, axis=1)
    seeded = seed_outliers(net, SeedingPlan(total_fraction=0.05, seed=16))
    lo, hi = nnz_counts.min(), nnz_counts.max()
    positives = attrs[attrs > 0]
    for planted in seeded.planted:
        assert lo <= len(planted.attr_indices) <= hi
        vals = np.asarray(planted.attr_values)
        assert (vals >= positives.min() - 1e-12).all()
        assert (vals <= attrs.max() + 1e-12).all()


def test_seed_outliers_deterministic_and_fraction_zero():
    net = synth_network(100, 2, 0.1, 0.01, 40, 0.9, seed=17)
    a = seed_outliers(net, SeedingPlan(total_fraction=0.05, seed=17))
    b = seed_outliers(net, SeedingPlan(total_fraction=0.05, seed=17))
    assert np.array_equal(to_dense(a.network.attributes), to_dense(b.network.attributes))
    assert np.array_equal(a.network.adjacency.toarray(),
                          b.network.adjacency.toarray())
    assert [p.kind for p in a.planted] == [p.kind for p in b.planted]

    c = seed_outliers(net, SeedingPlan(total_fraction=0.05, seed=18))
    assert not np.array_equal(a.network.adjacency.toarray(),
                              c.network.adjacency.toarray())

    empty = seed_outliers(net, SeedingPlan(total_fraction=0.0, seed=17))
    assert empty.network.n_nodes == 100
    assert empty.planted == []
    assert empty.outlier_ids == []
    assert np.array_equal(to_dense(empty.network.attributes), to_dense(net.attributes))


def test_seed_outliers_is_the_plant_calls_in_sequence():
    # labels shuffled across nodes (classes not contiguous, as in cora-like
    # files) and attribute values that are not 0/1
    rng = make_rng(21)
    base = synth_network(240, 4, 0.08, 0.01, 80, 0.8, seed=21)
    net = AttributedNetwork(
        adjacency=base.adjacency, labels=rng.permutation(base.labels),
        attributes=to_dense(base.attributes) * rng.uniform(0.2, 2.5, size=base.attributes.shape),
        label_names=base.label_names)

    stats = _ClassStats(net)
    for name, per_class in class_stats_by_loop(net).items():
        for c, want in enumerate(per_class):
            assert np.array_equal(getattr(stats, name)[c], want), (name, c)

    plan = SeedingPlan(total_fraction=0.05, seed=21)
    seeded = seed_outliers(net, plan)
    n_s, n_a, n_c = plan.counts(net.n_nodes)
    stream = named_rng(plan.seed, "seeding")
    in_sequence = [_plant(kind, stream, stats) for kind in
                   ["structural"] * n_s + ["attribute"] * n_a + ["combined"] * n_c]
    assert len(seeded.planted) == len(in_sequence) == 12
    for got, want in zip(seeded.planted, in_sequence):
        for f in fields(PlantedNode):
            assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name
    assert seeded.outlier_ids == list(range(net.n_nodes, net.n_nodes + 12))


def fixed_labeled_network():
    """A 200-node, 3-class network with shuffled labels and attribute values
    not 0/1, built from one generator rather than by synth_network."""
    rng = make_rng(5)
    n, d = 200, 60
    labels = rng.permutation(np.arange(n) % 3)
    i, j = np.triu_indices(n, 1)
    keep = rng.random(i.size) < 0.04
    i, j = i[keep], j[keep]
    adj = sp.csr_matrix((np.ones(2 * i.size), (np.concatenate([i, j]), np.concatenate([j, i]))),
                        shape=(n, n))
    attrs = np.where(rng.random((n, d)) < 0.1, rng.uniform(0.5, 2.0, size=(n, d)), 0.0)
    return AttributedNetwork(adjacency=adj, attributes=sp.csr_matrix(attrs), labels=labels)


def test_seed_outliers_stream_is_pinned():
    # a fixed digest of this seeding's output: any change to what the
    # planting draws, or in which order, shows here
    seeded = seed_outliers(fixed_labeled_network(), SeedingPlan(total_fraction=0.1, seed=3))
    h = hashlib.sha256()
    for m in (seeded.network.adjacency, seeded.network.attributes):
        for arr in (m.data, m.indices.astype(np.int64), m.indptr.astype(np.int64)):
            h.update(arr.tobytes())
    h.update(seeded.network.labels.astype(np.int64).tobytes())
    h.update("\n".join(seeded.network.node_names).encode())
    assert len(seeded.planted) == 20
    assert h.hexdigest() == "cc562dcef4ea85fad51a1b938284ab255e5f27e9e6641a54a97b17f429deb458"


def test_seed_outliers_input_validation():
    net = synth_network(60, 2, 0.3, 0.02, 20, 0.9, seed=18)
    unlabeled = AttributedNetwork(adjacency=net.adjacency, attributes=net.attributes)
    with pytest.raises(ValueError):
        seed_outliers(unlabeled, SeedingPlan(total_fraction=0.05))
    single = AttributedNetwork(adjacency=net.adjacency, attributes=net.attributes,
                               labels=np.zeros(60, dtype=int), label_names=["only"])
    with pytest.raises(ValueError):
        seed_outliers(single, SeedingPlan(total_fraction=0.05))
    directed = AttributedNetwork(adjacency=net.adjacency, attributes=net.attributes,
                                 labels=net.labels, label_names=net.label_names,
                                 directed=True)
    with pytest.raises(ValueError):
        seed_outliers(directed, SeedingPlan(total_fraction=0.05))
    for seed in (1.5, True):  # used to plant seed 1
        with pytest.raises(ValueError, match="seed"):
            seed_outliers(net, SeedingPlan(total_fraction=0.05, seed=seed))


# ------------------------------------------------------------ truth files


def test_truth_round_trip(tmp_path):
    net = synth_network(100, 2, 0.1, 0.01, 40, 0.9, seed=19)
    seeded = seed_outliers(net, SeedingPlan(total_fraction=0.05, seed=19))
    path = str(tmp_path / "outliers.tsv")
    save_truth(seeded, path)
    loaded = load_truth(path)
    names = seeded.network.node_names
    want = [(names[i], p.kind)
            for i, p in zip(seeded.outlier_ids, seeded.planted)]
    assert loaded == want


def test_load_truth_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("node_a structural extra_field\n")
    with pytest.raises(ParseError):
        load_truth(str(bad))
    unknown = tmp_path / "unknown.tsv"
    unknown.write_text("node_a sideways\n")
    with pytest.raises(ParseError):
        load_truth(str(unknown))
    with pytest.raises(ParseError):
        load_truth(str(tmp_path / "missing.tsv"))


def test_seed_outliers_keeps_the_input_adjacency_on_the_original_block():
    net = synth_network(300, 3, 0.05, 0.005, 120, 0.9, seed=4)
    weights = net.adjacency.copy()
    weights.data = make_rng(4).uniform(0.5, 2.0, size=weights.nnz)
    weights = (weights + weights.T) / 2 + sp.diags(np.r_[1.5, np.zeros(299)], format="csr")
    net = AttributedNetwork(adjacency=weights, attributes=net.attributes, labels=net.labels)
    seeded = seed_outliers(net, SeedingPlan(total_fraction=0.05, seed=4))
    n0, adj = net.n_nodes, seeded.network.adjacency
    block = adj[:n0, :n0]
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(block, attr), getattr(net.adjacency, attr))
    assert adj[n0:, n0:].nnz == 0
    assert np.array_equal(adj[n0:, :n0].toarray(), adj[:n0, n0:].toarray().T)

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import joint_loss, rand_network, reference_parse_attributes, to_dense
from oaembed.core import HyperParams, fit
from oaembed.errors import ParseError
from oaembed.network import (AttributedNetwork, EmbeddingResult, _parse_attributes,
                             _undirected_csr, load_network, save_network, save_result)
from oaembed.numerics import make_rng
from oaembed.seeding import (SeededDataset, SeedingPlan, _ClassStats, save_truth,
                             seed_outliers, synth_network)
from oaembed.tables import _write_lines, load_embedding_tsv, load_scores_tsv


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def write_trivial(tmp_path, edge_text="0 1\n1 2\n"):
    edges = write(tmp_path / "edges.txt", edge_text)
    attrs = write(tmp_path / "attrs.txt", "0 1.0 0.0\n1 0.5 0.5\n2 0.0 1.0\n")
    return edges, attrs


def test_load_trivial(tmp_path):
    edges, attrs = write_trivial(tmp_path)
    net = load_network(edges, attrs)
    assert net.n_nodes == 3
    assert net.n_edges == 2
    assert net.adjacency.nnz == 4  # symmetric storage
    assert (net.adjacency.toarray() == net.adjacency.toarray().T).all()
    assert net.n_attrs == 2
    assert not net.directed and not net.adjacency.diagonal().any()
    assert net.labels is None and net.n_classes == 0


def test_load_isolated_node_and_comments(tmp_path):
    edges, attrs = write_trivial(tmp_path, "# comment\n\n0 1\n")
    net = load_network(edges, attrs)
    assert net.n_nodes == 3 and net.n_edges == 1
    assert net.adjacency[2].nnz == 0


def test_edge_weights_and_duplicates(tmp_path):
    edges = write(tmp_path / "e.txt", "0 1 2.5\n0 1 3.0\n1 0 4.0\n1 2\n")
    attrs = write_trivial(tmp_path)[1]
    net = load_network(edges, attrs)
    assert net.adjacency[0, 1] == 4.0  # duplicates: last occurrence wins
    assert net.adjacency[1, 0] == 4.0
    assert net.adjacency[1, 2] == 1.0  # missing weight defaults to 1
    assert net.n_edges == 2


def test_directed_header(tmp_path):
    edges = write(tmp_path / "e.txt", "%directed\n0 1\n2 1\n")
    attrs = write_trivial(tmp_path)[1]
    net = load_network(edges, attrs)
    assert net.directed
    assert net.adjacency[0, 1] == 1.0 and net.adjacency[1, 0] == 0.0
    assert net.n_edges == 2


def test_self_loop_flagged(tmp_path):
    edges, attrs = write_trivial(tmp_path, "0 0\n0 1\n")
    net = load_network(edges, attrs)
    assert net.adjacency.diagonal().any()
    assert net.n_edges == 2


def test_sparse_attributes_with_dim_header(tmp_path):
    edges = write(tmp_path / "e.txt", "a b\n")
    attrs = write(tmp_path / "a.txt", "%dim 5\na 0:1.0 3:2.0\nb 4:0.5\nc\n")
    net = load_network(edges, attrs)
    assert net.n_nodes == 3 and net.n_attrs == 5
    assert net.node_names == ("a", "b", "c")
    assert net.attributes[0, 3] == 2.0 and net.attributes[2].sum() == 0.0


def _attribute_case(case, tmp_path):
    """(network built from one attribute input, its dense attributes or None)."""
    base = rand_network(make_rng(27), 40, 12)
    want = to_dense(base.attributes)
    want[5] = 0.0  # an empty attribute row
    want[6, want[6] > 0] *= 3.7  # values not 0/1
    if case == "synth_network":
        return synth_network(60, 3, 0.2, 0.02, 30, 0.9, seed=27), None
    if case == "seed_outliers":
        net = AttributedNetwork(adjacency=base.adjacency, attributes=want,
                                labels=np.arange(40) % 3)
        return seed_outliers(net, SeedingPlan(total_fraction=0.1, seed=27)).network, None
    if case.endswith("-file"):
        edges = save_network(base, str(tmp_path))["edges"]
        if case == "dense-file":
            rows = [[repr(v) for v in row.tolist()] for row in want]
        else:  # columns in falling order, then an explicit zero
            rows = [[f"{j}:{row[j].item()!r}" for j in np.flatnonzero(row)[::-1]]
                    + [f"{np.flatnonzero(row == 0)[0]}:0.0"] for row in want]
        text = "".join(" ".join([str(i), *toks]) + "\n" for i, toks in enumerate(rows))
        return load_network(edges, write(tmp_path / "attrs.txt", "%dim 12\n" + text)), want
    given = {"ndarray": want.copy(), "nested-list": want.tolist(), "csr": sp.csr_matrix(want),
             "coo": sp.coo_matrix(want)}[case]
    return AttributedNetwork(adjacency=base.adjacency, attributes=given), want


@pytest.mark.parametrize("case", ["ndarray", "nested-list", "csr", "coo", "dense-file",
                                  "idx-val-file", "synth_network", "seed_outliers"])
def test_every_attribute_input_is_canonical_csr(case, tmp_path):
    net, want = _attribute_case(case, tmp_path)
    attrs = net.attributes
    assert attrs.format == "csr" and attrs.dtype == np.float64
    assert attrs.has_canonical_format and (attrs.data != 0).all()
    if want is not None:
        assert np.array_equal(to_dense(attrs), want)

    kept = [a.copy() for a in (attrs.data, attrs.indices, attrs.indptr)]
    hp = HyperParams(dim=3, attr_weight=0.7, dis_weight=1.3, seed=27)
    model, scores, result, diag = fit(net, hp)
    assert net.attributes is attrs  # fit leaves the attributes alone
    for got, was in zip((attrs.data, attrs.indices, attrs.indptr), kept):
        assert np.array_equal(got, was)
    assert result.loss_trace[-1] == pytest.approx(joint_loss(net, model, scores, 0.7, 1.3),
                                                  rel=1e-12)
    trace = [diag.initial_loss, *result.loss_trace]
    for prev, cur in zip(trace, trace[1:]):
        assert cur <= prev + 1e-9 * abs(prev)
    if want is None:
        return
    # every input of the same matrix, a dense file and its idx:val twin
    # included, fits bit for bit like the CSR one
    _, _, ref, _ = fit(AttributedNetwork(adjacency=net.adjacency,
                                         attributes=sp.csr_matrix(want)), hp)
    for got, exp in ((result.embedding, ref.embedding),
                     (result.outlier_scores, ref.outlier_scores),
                     (result.component_scores, ref.component_scores),
                     (np.array(result.loss_trace), np.array(ref.loss_trace))):
        assert got.tobytes() == exp.tobytes()


def test_csr_attribute_validation():
    adj = sp.csr_matrix((2, 2))
    unsorted = sp.csr_matrix(([2.0, 0.0, 1.0], [3, 1, 0], [0, 3, 3]), shape=(2, 4))
    net = AttributedNetwork(adjacency=adj, attributes=unsorted)
    assert net.attributes.dtype == np.float64 and net.attributes.has_canonical_format
    assert net.attributes.indices.tolist() == [0, 3] and net.attributes.nnz == 2
    assert unsorted.nnz == 3  # the caller's matrix is not modified
    repeated = sp.csr_matrix(([1.0, 1.0], [2, 2], [0, 2, 2]), shape=(2, 4))
    for bad in (repeated, sp.coo_matrix(([1.0, 1.0], ([0, 0], [2, 2])), shape=(2, 4)),
                sp.csr_matrix(([np.nan], [1], [0, 1, 1]), shape=(2, 4))):
        with pytest.raises(ValueError):
            AttributedNetwork(adjacency=adj, attributes=bad)
    with pytest.raises(ValueError, match="2-D"):  # not read as a single row
        AttributedNetwork(adjacency=sp.csr_matrix((1, 1)), attributes=np.ones(3))


@pytest.mark.parametrize("attrs", [
    sp.csr_matrix(([2.0, 0.0, 1.0], [3, 1, 0], [0, 3, 3]), shape=(2, 4)),  # needs canonicalising
    sp.csr_matrix(([1.0, 2.0], [0, 3], [0, 2, 2]), shape=(2, 4)),           # already canonical
])
def test_network_neither_edits_nor_aliases_a_callers_csr(attrs):
    adj = sp.csr_matrix(([1.0, 1.0], [1, 0], [0, 1, 2]), shape=(2, 2))
    given = [m.copy() for m in (adj, attrs)]
    net = AttributedNetwork(adjacency=adj, attributes=attrs)
    for mine, kept in zip((adj, attrs), given):
        for f in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(mine, f), getattr(kept, f)), f
    for theirs, mine in ((net.adjacency, adj), (net.attributes, attrs)):
        for f in ("data", "indices", "indptr"):
            assert not np.shares_memory(getattr(theirs, f), getattr(mine, f)), f
    before = [to_dense(net.adjacency), to_dense(net.attributes)]
    for m in (adj, attrs):
        m.data[:] = 7.0
        m.indices[:] = 0
    assert np.array_equal(to_dense(net.adjacency), before[0])
    assert np.array_equal(to_dense(net.attributes), before[1])


def test_sparse_attributes_dim_inferred(tmp_path):
    edges = write(tmp_path / "e.txt", "x y\n")
    attrs = write(tmp_path / "a.txt", "x 3:1.5\ny 0:1.0\n")
    net = load_network(edges, attrs)
    assert net.n_attrs == 4


def test_labels_sorted_name_order(tmp_path):
    edges, attrs = write_trivial(tmp_path)
    labels = write(tmp_path / "l.txt", "0 red\n1 blue\n2 red\n")
    net = load_network(edges, attrs, labels)
    assert net.label_names == ["blue", "red"]
    assert net.labels.tolist() == [1, 0, 1]
    assert net.n_classes == 2


@pytest.mark.parametrize("bad,lineno", [
    ("0 1 2 3\n", 1),
    ("0\n", 1),
    ("0 1\n0 1 zap\n", 2),
    ("0 1\n0 1 0\n", 2),     # weight must be > 0
    ("0 1\n0 1 -2\n", 2),
    ("0 9\n", 1),            # endpoint without an attribute row
    ("0 1\n%directed\n", 2),  # directive after data
])
def test_edge_parse_errors(tmp_path, bad, lineno):
    edges = write(tmp_path / "e.txt", bad)
    attrs = write_trivial(tmp_path)[1]
    with pytest.raises(ParseError) as exc:
        load_network(edges, attrs)
    assert exc.value.lineno == lineno
    assert "e.txt" in str(exc.value)


_ATTRIBUTE_ERRORS = [
    ("0 1.0\n0 2.0\n", 2),          # duplicate node row
    ("0 1.0\n1 zap\n", 2),          # bad dense value
    ("0 0:1.0\n1 3\n", 2),          # sparse row with a dense token
    ("0 0:1.0 0:2.0\n", 1),         # duplicate index in row
    ("0 -1:1.0\n", 1),              # negative index
    ("0 1.0\n%dim 2\n1 1.0\n", 2),  # %dim after data
    ("%dim 0\n0 0:1.0\n", 1),       # bad dim
    ("%foo\n0 0:1.0\n", 1),         # unknown directive
    ("0 1.0 2.0\n1 1.0\n", 2),      # ragged dense rows
    ("%dim 2\n0 5:1.0\n", 2),       # index out of declared range
    ("%dim 2\n0 0:1\n1 99999999999999999999:1\n", 3),  # index past int64
    ("%dim 99999999999999999999\n0 0:1\n", 1),   # %dim past int64
    ("%dim 3\n0 1 2\n", 2),         # dense row length != %dim
    ("0 1 2\n1 1\n2 zap 1\n", 2),   # the ragged row comes before the bad value
    ("", None),                     # no rows at all
]


@pytest.mark.parametrize("bad,lineno", _ATTRIBUTE_ERRORS,
                         ids=[bad for bad, _ in _ATTRIBUTE_ERRORS])
def test_attribute_parse_errors(tmp_path, bad, lineno):
    # the first bad line in file order is the one named
    edges = write(tmp_path / "e.txt", "")
    attrs = write(tmp_path / "a.txt", bad)
    with pytest.raises(ParseError) as exc:
        load_network(edges, attrs)
    assert exc.value.lineno == lineno
    assert exc.value.path == attrs and "a.txt" in str(exc.value)


_CLEAN_VALUES = st.sampled_from(["0", "-0.0", "0.0", "1", "2.5", "-3", "1e-300"])
_ANY_VALUES = _CLEAN_VALUES | st.sampled_from(["nan", "-inf", "zap", "", "1:2"])
_INDICES = st.sampled_from(["-1", "0", "1", "2", "3", "4", "7", "x", ""])


@st.composite
def _clean_attribute_files(draw):
    """Files both parsers should mostly accept: equal-length dense rows or
    sparse rows of distinct in-range indices, with a %dim that may disagree."""
    dense = draw(st.booleans())
    n_rows = draw(st.integers(1, 5))
    if dense:
        width = draw(st.integers(1, 4))
        rows = [draw(st.lists(_CLEAN_VALUES, min_size=width, max_size=width))
                for _ in range(n_rows)]
        dim = draw(st.sampled_from([None, width, width + 1]))
    else:
        rows = [[f"{j}:{draw(_CLEAN_VALUES)}"
                 for j in draw(st.lists(st.integers(0, 4), unique=True, max_size=4))]
                for _ in range(n_rows)]
        dim = draw(st.sampled_from([None, 3, 5, 6]))
    lines = [] if dim is None else [f"%dim {dim}"]
    return "\n".join(lines + [" ".join([f"n{i}"] + row) for i, row in enumerate(rows)]) + "\n"


@st.composite
def _noisy_attribute_files(draw):
    """Any mix of directives, comments, blank lines and dense, sparse or mixed
    rows, with bad values, bad indices and repeated node names."""
    token = _ANY_VALUES | st.builds("{}:{}".format, _INDICES, _ANY_VALUES)
    line = (st.sampled_from(["%dim 0", "%dim 2", "%dim 3", "%dim 5", "%dim x", "%dim",
                             "%dir", "# note", ""])
            | st.builds(lambda name, toks: " ".join([name] + toks),
                        st.sampled_from(["a", "b", "c", "d", "e", "f"]),
                        st.lists(_ANY_VALUES, max_size=4) | st.lists(token, max_size=4)))
    return "\n".join(draw(st.lists(line, max_size=7))) + "\n"


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_clean_attribute_files() | _noisy_attribute_files())
@example("%dim 4\n%dim 2\na 1:0.0 0:-0.0\nb\n")
@example("a 0 -0.0\nb 0.0 0\n")
@example("a\nb\n")
def test_attribute_parser_agrees_with_the_two_phase_reference(text):
    # one pass accepts and refuses what the two-phase parser did, builds the
    # same CSR bit for bit, and names the first bad line, never a later one
    with tempfile.TemporaryDirectory() as tmp:
        path = write(Path(tmp) / "attributes.txt", text)
        try:
            ref = reference_parse_attributes(path)
        except ParseError as exc:
            ref = exc
        try:
            got = _parse_attributes(path)
        except ParseError as exc:
            got = exc
    if isinstance(ref, ParseError) or isinstance(got, ParseError):
        assert isinstance(ref, ParseError) and isinstance(got, ParseError), (ref, got)
        if ref.lineno is not None:
            assert got.lineno is not None and got.lineno <= ref.lineno
        return
    assert got[0] == ref[0] and got[1].shape == ref[1].shape
    for field in ("indptr", "indices", "data"):
        a, b = getattr(got[1], field), getattr(ref[1], field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


@pytest.mark.parametrize("bad", [
    "0 red\n1 blue\n",            # node 2 missing
    "0 red\n1 blue\n2 red\n9 x\n",  # unknown node
    "0 red\n0 blue\n1 x\n2 x\n",  # duplicate label
    "0 red blue\n1 x\n2 x\n",     # too many tokens
])
def test_label_parse_errors(tmp_path, bad):
    edges, attrs = write_trivial(tmp_path)
    labels = write(tmp_path / "l.txt", bad)
    with pytest.raises(ParseError):
        load_network(edges, attrs, labels)


def test_missing_file_is_parse_error(tmp_path):
    edges, attrs = write_trivial(tmp_path)
    with pytest.raises(ParseError):
        load_network(str(tmp_path / "nope.txt"), attrs)


def test_has_self_loops_is_read_from_the_adjacency():
    # the adjacency's diagonal is the one record of self loops
    ones = np.ones((2, 1))
    loop = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 0.0]]))
    assert AttributedNetwork(adjacency=loop, attributes=ones).adjacency.diagonal().any()
    plain = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert not AttributedNetwork(adjacency=plain, attributes=ones).adjacency.diagonal().any()
    assert not hasattr(AttributedNetwork, "has_self_loops")
    with pytest.raises(TypeError):  # no longer a field that could contradict the adjacency
        AttributedNetwork(adjacency=loop, attributes=ones, has_self_loops=False)


def test_labels_must_be_whole_numbers():
    adj, attrs = sp.csr_matrix((3, 3)), np.ones((3, 1))
    for bad in ([0, 1.7, 0.2], [0.0, 1.0, np.nan], [0.0, np.inf, 1.0]):
        with pytest.raises(ValueError, match="labels"):
            AttributedNetwork(adjacency=adj, attributes=attrs, labels=bad)
    net = AttributedNetwork(adjacency=adj, attributes=attrs, labels=[0.0, 2.0, 1.0])
    assert net.labels.dtype == np.int64 and net.labels.tolist() == [0, 2, 1]


def test_undirected_symmetry_enforced():
    adj = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        AttributedNetwork(adjacency=adj, attributes=np.ones((2, 1)))


def test_class_distribution():
    # the class-size shares the planting rule draws anchor classes from
    net = AttributedNetwork(adjacency=sp.csr_matrix((4, 4)),
                            attributes=np.ones((4, 1)), labels=[0, 0, 1, 1])
    assert np.allclose(_ClassStats(net).class_probs, [0.5, 0.5])
    net = AttributedNetwork(adjacency=sp.csr_matrix((4, 4)),
                            attributes=np.ones((4, 1)), labels=[0, 1, 1, 1])
    assert np.allclose(_ClassStats(net).class_probs, [0.25, 0.75])
    unlabeled = AttributedNetwork(adjacency=sp.csr_matrix((2, 2)),
                                  attributes=np.ones((2, 1)))
    with pytest.raises(ValueError):
        _ClassStats(unlabeled)


def test_network_save_load_roundtrip(tmp_path):
    rng = make_rng(1)
    net = rand_network(rng, 25, 9)
    net.labels = rng.integers(0, 3, size=25)
    net.labels[:3] = [0, 1, 2]
    net = AttributedNetwork(adjacency=net.adjacency, attributes=net.attributes,
                            labels=net.labels,
                            node_names=[f"node{i}" for i in range(25)])
    paths = save_network(net, str(tmp_path))
    back = load_network(paths["edges"], paths["attributes"], paths["labels"])
    assert back.node_names == net.node_names
    assert (back.adjacency != net.adjacency).nnz == 0
    assert np.array_equal(to_dense(back.attributes), to_dense(net.attributes))
    assert np.array_equal(back.labels, net.labels)
    assert back.directed == net.directed


def test_save_load_is_byte_identical_for_both_layouts(tmp_path):
    net = rand_network(make_rng(3), 30, 12, attr_p=0.2)
    attrs = to_dense(net.attributes)
    attrs[4] = 0.0  # an empty attribute row
    twins = [AttributedNetwork(adjacency=net.adjacency, attributes=a)
             for a in (attrs, sp.csr_matrix(attrs))]
    files = []
    for t, twin in enumerate(twins):
        paths = save_network(twin, str(tmp_path / f"first{t}"))
        back = load_network(paths["edges"], paths["attributes"])
        assert sp.issparse(back.attributes)
        again = save_network(back, str(tmp_path / f"second{t}"))
        first = {k: Path(v).read_bytes() for k, v in paths.items()}
        assert first == {k: Path(v).read_bytes() for k, v in again.items()}
        files.append(first)
    assert files[0] == files[1]


@pytest.mark.parametrize("bad", ["#x", "%dim", "a b", "a\tb", "x\n", ""])
@pytest.mark.parametrize("writer", ["save_network", "save_network-label", "save_result",
                                    "save_truth"])
def test_writers_reject_names_the_loaders_cannot_read(writer, bad, tmp_path):
    names = ["n0", "n1", bad]
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        if writer.startswith("save_network"):
            node_names, label_names = ((["n0", "n1", "n2"], ["c0", bad]) if writer.endswith("label")
                                       else (names, ["c0", "c1"]))
            save_network(AttributedNetwork(adjacency=sp.csr_matrix((3, 3)), attributes=np.eye(3),
                                           labels=[0, 1, 1], node_names=node_names,
                                           label_names=label_names), str(out))
        elif writer == "save_result":
            save_result(EmbeddingResult(embedding=np.zeros((3, 2)),
                                        outlier_scores=np.full(3, 1 / 3),
                                        component_scores=np.full((3, 3), 1 / 3),
                                        loss_trace=[1.0], node_names=names), str(out))
        else:
            seeded = seed_outliers(synth_network(30, 2, 0.3, 0.02, 10, 0.9, seed=2),
                                   SeedingPlan(total_fraction=0.1, seed=2))
            net = seeded.network
            renamed = AttributedNetwork(adjacency=net.adjacency, attributes=net.attributes,
                                        labels=net.labels, label_names=net.label_names,
                                        node_names=[*net.node_names[:-1], bad])
            save_truth(SeededDataset(renamed, seeded.planted), str(out / "outliers.tsv"))
    assert not out.exists()


@pytest.mark.parametrize("bad", ["#x", "%dim", "a b", "a\tb", "x\n", ""])
def test_types_reject_node_names_the_loaders_cannot_read(bad):
    # refused when built, not after a fit when the result is saved
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        AttributedNetwork(adjacency=sp.csr_matrix((2, 2)), attributes=np.eye(2),
                          node_names=["n0", bad])
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        EmbeddingResult(embedding=np.zeros((2, 2)), outlier_scores=np.full(2, 0.5),
                        component_scores=np.full((2, 3), 0.5), loss_trace=[1.0],
                        node_names=["n0", bad])
    # a label name is checked only by save_network: embed and evaluate read it fine
    net = AttributedNetwork(adjacency=sp.csr_matrix((2, 2)), attributes=np.eye(2),
                            labels=[0, 1], label_names=["c0", bad])
    assert net.label_names == ["c0", bad]


def test_result_needs_an_embedding_column(tmp_path):
    # an N x 0 embedding would save an embedding.tsv that load_embedding_tsv refuses
    with pytest.raises(ValueError, match="at least one column"):
        EmbeddingResult(embedding=np.zeros((2, 0)), outlier_scores=np.full(2, 0.5),
                        component_scores=np.full((2, 3), 0.5), loss_trace=[])
    one = EmbeddingResult(embedding=np.array([[0.5], [-1.0]]), outlier_scores=np.full(2, 0.5),
                          component_scores=np.full((2, 3), 0.5), loss_trace=[])
    names, emb = load_embedding_tsv(save_result(one, str(tmp_path))["embedding"])
    assert list(names) == ["0", "1"] and np.array_equal(emb, one.embedding)


def _result(node_names):
    return EmbeddingResult(embedding=np.zeros((2, 2)), outlier_scores=np.full(2, 0.5),
                           component_scores=np.full((2, 3), 0.5), loss_trace=[1.0],
                           node_names=node_names)


def _network(node_names):
    return AttributedNetwork(adjacency=sp.csr_matrix((2, 2)), attributes=np.eye(2),
                             node_names=node_names)


@pytest.mark.parametrize("build", [_network, _result])
@pytest.mark.parametrize("names", [["a", "a"], [0, 1], ["a", 1], [b"a", b"b"], ["a"],
                                   ["a", "b", "c"]],
                         ids=["duplicate", "int", "mixed", "bytes", "too-few", "too-many"])
def test_types_apply_one_node_name_rule(build, names):
    with pytest.raises(ValueError):
        build(names)


@pytest.mark.parametrize("build", [_network, _result])
def test_types_store_node_names_as_an_immutable_tuple(build):
    names = ["a", "b"]
    obj = build(names)
    assert obj.node_names == ("a", "b")
    names[0] = "#x"  # the caller's list is not aliased
    assert obj.node_names == ("a", "b")
    with pytest.raises(TypeError):
        obj.node_names[0] = "#x"  # nor can the checked names be edited in place
    assert build([]).node_names == ("0", "1")


def test_save_network_rejects_duplicate_label_names(tmp_path):
    # the loader would read two classes with one name as one class
    net = AttributedNetwork(adjacency=sp.csr_matrix((2, 2)), attributes=np.eye(2),
                            labels=[0, 1], label_names=["c", "c"])
    with pytest.raises(ValueError, match="duplicates"):
        save_network(net, str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


def test_directed_weighted_roundtrip(tmp_path):
    adj = sp.csr_matrix(np.array([[0.0, 2.5, 0.0],
                                  [0.0, 0.0, 1.0],
                                  [0.25, 0.0, 0.0]]))
    net = AttributedNetwork(adjacency=adj, attributes=np.eye(3), directed=True)
    paths = save_network(net, str(tmp_path))
    back = load_network(paths["edges"], paths["attributes"])
    assert back.directed
    assert np.array_equal(back.adjacency.toarray(), adj.toarray())


def make_result(rng, n, k):
    comp = rng.uniform(0.1, 1.0, size=(n, 3))
    comp /= comp.sum(axis=0)
    return EmbeddingResult(embedding=rng.normal(size=(n, k)),
                           outlier_scores=comp @ np.array([0.25, 0.5, 0.25]),
                           component_scores=comp,
                           loss_trace=[5.0, 3.5, 3.5],
                           node_names=[f"v{i}" for i in range(n)])


def read_result(out_dir):
    """The saved result, read back with the package's loaders and, for
    loss.tsv, a plain parse."""
    names, emb = load_embedding_tsv(str(out_dir / "embedding.tsv"))
    snames, comps, combined = load_scores_tsv(str(out_dir / "scores.tsv"))
    assert snames == names
    rows = (out_dir / "loss.tsv").read_text().splitlines()
    assert rows[0] == "iteration\tloss"
    trace = [float(r.split("\t")[1]) for r in rows[1:]]
    return EmbeddingResult(embedding=emb, outlier_scores=combined, component_scores=comps,
                           loss_trace=trace, node_names=names)


def test_result_roundtrip_bit_exact(tmp_path):
    result = make_result(make_rng(2), 12, 4)
    save_result(result, str(tmp_path))
    back = read_result(tmp_path)
    assert np.array_equal(back.embedding, result.embedding)
    assert np.array_equal(back.outlier_scores, result.outlier_scores)
    assert np.array_equal(back.component_scores, result.component_scores)
    assert back.loss_trace == result.loss_trace
    assert back.node_names == result.node_names


def test_result_single_node_two_dims(tmp_path):
    result = EmbeddingResult(embedding=np.array([[1.5, -2.0]]),
                             outlier_scores=np.array([1.0]),
                             component_scores=np.array([[1.0, 1.0, 1.0]]),
                             loss_trace=[0.0])
    save_result(result, str(tmp_path))
    back = read_result(tmp_path)
    assert np.array_equal(back.embedding, result.embedding)
    assert back.node_names == ("0",)


def test_scores_file_column_sums(tmp_path):
    result = make_result(make_rng(3), 40, 3)
    save_result(result, str(tmp_path))
    rows = (tmp_path / "scores.tsv").read_text().strip().splitlines()[1:]
    cols = np.array([[float(c) for c in r.split("\t")[1:4]] for r in rows])
    assert np.abs(cols.sum(axis=0) - 1.0).max() < 1e-9


def test_result_loaders_reject_malformed_tsv(tmp_path):
    save_result(make_result(make_rng(5), 4, 2), str(tmp_path))
    for name, loader in (("embedding.tsv", load_embedding_tsv),
                         ("scores.tsv", load_scores_tsv)):
        path = tmp_path / name
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit("\t", 1)[0] + "\tzap"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            loader(str(path))
        assert err.value.lineno == 3
        assert "bad float cell 'zap'" in str(err.value)


@pytest.mark.parametrize("name,loader", [("embedding.tsv", load_embedding_tsv),
                                         ("scores.tsv", load_scores_tsv)])
@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_result_loaders_reject_non_finite_cells(tmp_path, name, loader, cell):
    save_result(make_result(make_rng(5), 4, 2), str(tmp_path))
    path = tmp_path / name
    lines = path.read_text().splitlines()
    lines[3] = lines[3].rsplit("\t", 1)[0] + "\t" + cell
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="non-finite value for node 'v2'") as err:
        loader(str(path))
    assert err.value.lineno == 4
    assert str(err.value).endswith(f"{cell!r}")


@pytest.mark.parametrize("name,loader", [("embedding.tsv", load_embedding_tsv),
                                         ("scores.tsv", load_scores_tsv)])
def test_result_loaders_report_the_first_bad_row_in_file_order(tmp_path, name, loader):
    # a bad cell on line 3 is reported although a short row follows on line 5
    save_result(make_result(make_rng(5), 4, 2), str(tmp_path))
    path = tmp_path / name
    lines = path.read_text().splitlines()
    lines[2] = lines[2].rsplit("\t", 1)[0] + "\tinf"
    lines[4] = lines[4].rsplit("\t", 1)[0]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="non-finite value for node 'v1'") as err:
        loader(str(path))
    assert err.value.lineno == 3


@pytest.mark.parametrize("name,loader", [("embedding.tsv", load_embedding_tsv),
                                         ("scores.tsv", load_scores_tsv)])
def test_result_loaders_reject_duplicate_node_rows(tmp_path, name, loader):
    save_result(make_result(make_rng(5), 4, 2), str(tmp_path))
    path = tmp_path / name
    lines = path.read_text().splitlines()
    lines.append("v1\t" + lines[1].split("\t", 1)[1])  # a second row for node v1
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="duplicate row for node 'v1'") as err:
        loader(str(path))
    assert err.value.lineno == 6


def test_result_loaders_read_a_header_only_file(tmp_path):
    (tmp_path / "embedding.tsv").write_text("node\tdim0\tdim1\n")
    names, emb = load_embedding_tsv(str(tmp_path / "embedding.tsv"))
    assert names == [] and emb.shape == (0, 2)
    (tmp_path / "scores.tsv").write_text("node\tstructural\tattribute\tdisagreement\tcombined\n")
    names, comps, combined = load_scores_tsv(str(tmp_path / "scores.tsv"))
    assert names == [] and comps.shape == (0, 3) and combined.shape == (0,)


def test_citation_corpus_scale(tmp_path):
    # files shaped like a public citation benchmark: 20701 nodes, 49523
    # distinct undirected edges, 500 attribute dimensions, 3 classes
    rng = make_rng(6)
    n, d, target = 20701, 500, 49523
    pairs = rng.integers(0, n, size=(int(target * 1.5), 2))
    pairs = np.column_stack([pairs.min(axis=1), pairs.max(axis=1)])
    pairs = np.unique(pairs[pairs[:, 0] != pairs[:, 1]], axis=0)
    assert pairs.shape[0] >= target
    pairs = pairs[rng.permutation(pairs.shape[0])[:target]]

    edge_lines = [f"{i} {j}" for i, j in pairs]
    attr_lines = [f"%dim {d}"] + [f"{i} {rng.integers(d)}:1.0" for i in range(n)]
    label_lines = [f"{i} c{i % 3}" for i in range(n)]
    edges = write(tmp_path / "e.txt", "\n".join(edge_lines) + "\n")
    attrs = write(tmp_path / "a.txt", "\n".join(attr_lines) + "\n")
    labels = write(tmp_path / "l.txt", "\n".join(label_lines) + "\n")

    net = load_network(edges, attrs, labels)
    assert net.n_nodes == n
    assert net.n_edges == target
    assert net.n_attrs == d
    assert net.n_classes == 3


def test_write_lines_creates_the_directory_and_ends_every_line_in_a_newline(tmp_path):
    path = tmp_path / "a" / "b" / "out.tsv"
    assert _write_lines(str(path), (line for line in ["x\ty", "é"])) == str(path)
    assert path.read_bytes() == b"x\ty\n\xc3\xa9\n"
    _write_lines(str(path), [])
    assert path.read_bytes() == b""


@pytest.mark.parametrize("i,j,w,n", [
    ([0, 2, 1], [1, 0, 3], [1.0, 2.5, 0.25], 4),    # weighted pairs, both orientations
    ([1, 0], [1, 2], [3.5, 1.0], 3),                # a weighted self-loop, stored once
    ([0, 1], [1, 2], [1.0, 1.0], 5),                # isolated last nodes
    ([], [], [], 3),                                # no pairs at all
])
def test_undirected_csr_matches_a_dense_symmetric_reference(i, j, w, n):
    ref = np.zeros((n, n))
    for a, b, x in zip(i, j, w):
        ref[a, b] = ref[b, a] = x
    adj = _undirected_csr(np.array(i, dtype=np.int64), np.array(j, dtype=np.int64),
                          np.array(w, dtype=np.float64), n)
    assert isinstance(adj, sp.csr_matrix) and adj.shape == (n, n)
    assert adj.has_canonical_format
    assert adj.nnz == np.count_nonzero(ref)  # a self-loop is one entry
    assert np.array_equal(adj.toarray(), ref)

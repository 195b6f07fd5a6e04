"""Attributed-network data model, file ingestion, and result persistence.

File grammars
-------------
Edge file: one edge per line, whitespace-separated ``<src> <dst> [weight]``.
Lines starting with ``#`` are comments. An optional ``%directed`` directive
before the first edge marks the graph directed; the default is undirected,
stored symmetrically. Missing weights default to 1.0.

Attribute file: one node per line, either dense ``<id> <v1> <v2> ...`` or
sparse ``<id> <idx>:<val> ...``. The dimension comes from an optional
``%dim D`` header or is inferred (dense: row length, sparse: max index + 1).
The attribute file defines the node universe; edge and label files may only
reference nodes that have an attribute row. Both grammars load as CSR
attributes.

Each file is read in one pass and checked row by row, so the first bad line
in file order raises ParseError with its line number; in the attribute file
that includes a ragged dense row, a dense row length that differs from
``%dim`` and a sparse index at or past ``%dim``. Only whole-file conditions
name no line: an empty attribute file, a sparse one with no entries and no
``%dim``, and a label file that misses nodes.

Label file: ``<node_id> <class_name>`` per line, one line per node. Class
names are mapped to dense integer ids in sorted-name order.

Every file is written through the output rule of `oaembed.tables`.
"""

import math
import os
from array import array
from dataclasses import dataclass
from itertools import chain

import numpy as np
import scipy.sparse as sp

from .errors import ParseError
from .numerics import Handoff, as_csr, as_dense, as_sparse
from .tables import SCORE_COLUMNS, _data_lines, _save_float_tsv, _write_lines


@dataclass
class AttributedNetwork:
    """A graph with per-node attribute vectors and optional class labels.

    adjacency is N x N CSR (symmetric when undirected). attributes is N x D
    float64 CSR (sorted indices, no duplicate entries, explicit zeros
    dropped), whatever 2-D input it was built from: a dense array, a nested
    list or any scipy sparse matrix. labels is an int array with ids in
    0..n_classes-1. node_names (default "0".."N-1") is a tuple of distinct
    strings that read back from the files save_network writes (see
    _check_names); being a tuple, it cannot be edited past that check.

    A caller's matrices are copied, so the network never edits or aliases
    them. The package's own builders (synth_network, seed_outliers,
    load_network) pass theirs wrapped in numerics.Handoff, which is validated
    just as fully but kept without a copy.
    """

    adjacency: sp.csr_matrix
    attributes: sp.csr_matrix
    labels: np.ndarray | None = None
    node_names: tuple[str, ...] = ()
    directed: bool = False
    label_names: list[str] | None = None

    def __post_init__(self):
        self.adjacency = as_sparse(self.adjacency, "adjacency")
        self.attributes = as_csr(self.attributes, "attributes")
        n = self.adjacency.shape[0]
        if self.adjacency.shape[1] != n:
            raise ValueError(f"adjacency must be square, got {self.adjacency.shape}")
        if self.attributes.shape[0] != n:
            raise ValueError(
                f"attribute row count {self.attributes.shape[0]} != node count {n}")
        self.node_names = _check_names(self.node_names, n)
        if not self.directed:
            diff = self.adjacency - self.adjacency.T
            if diff.nnz and np.abs(diff.data).max() > 0:
                raise ValueError("undirected network must have a symmetric adjacency")
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.dtype.kind == "f" and not (np.isfinite(labels)
                                                 & (labels == np.trunc(labels))).all():
                raise ValueError("labels must be whole-number class ids")
            self.labels = labels.astype(np.int64, copy=False)
            if self.labels.shape != (n,):
                raise ValueError("labels length mismatch")
            k = int(self.labels.max()) + 1 if n else 0
            if n and self.labels.min() < 0:
                raise ValueError("labels must be nonnegative class ids")
            if self.label_names is None:
                self.label_names = [str(c) for c in range(k)]
            if len(self.label_names) < k:
                raise ValueError("label_names shorter than the label id range")

    @property
    def n_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def n_attrs(self) -> int:
        return self.attributes.shape[1]

    @property
    def n_classes(self) -> int:
        if self.labels is None:
            return 0
        return len(self.label_names)

    @property
    def n_edges(self) -> int:
        """Distinct edges: each undirected pair counted once, self loops once."""
        if self.directed:
            return self.adjacency.nnz
        diag = int((self.adjacency.diagonal() != 0).sum())
        return (self.adjacency.nnz - diag) // 2 + diag


def _check_names(names, n: int | None, what: str = "node name") -> tuple[str, ...]:
    """The one naming rule: return names as a tuple, or raise ValueError
    unless they are distinct strings that each read back as written, a
    non-empty token with no whitespace that does not start with '#' (a
    comment) or '%' (a directive). Unless n is None, there must be n names,
    and no names at all means "0".."n-1". AttributedNetwork and EmbeddingResult
    store the tuple, so every writer can save their node names."""
    names = tuple(names)
    if not names and n is not None:
        names = tuple(str(i) for i in range(n))
    if n is not None and len(names) != n:
        raise ValueError(f"{what}s: expected {n}, got {len(names)}")
    for name in names:
        if not isinstance(name, str) or name.split() != [name] or name[0] in "#%":
            raise ValueError(f"{what} {name!r} cannot be saved: names must be non-empty "
                             "strings with no whitespace that do not start with '#' or '%'")
    if len(set(names)) != len(names):
        raise ValueError(f"{what}s contain duplicates")
    return names


def _parse_attributes(path: str):
    """Parse an attribute file into (node_names, N x D CSR attributes) in one
    pass: each row's entries go onto the CSR arrays as it is read, a dense
    row's nonzeros (-0.0 is dropped) or a sparse row's entries as written,
    and each check runs on the row that breaks it."""
    names: dict[str, None] = {}  # insertion-ordered, so a set that keeps file order
    indices = array("q")  # int64, so an index past int64 is a bad token
    values = array("d")
    indptr = [0]
    dim = None  # %dim, else the first dense row's length, else max index + 1
    for lineno, line in _data_lines(path):
        node, *vals = line.split()
        if node.startswith("%"):
            if node != "%dim" or len(vals) != 1:
                raise ParseError(f"unknown directive {node!r}", path, lineno)
            if names:
                raise ParseError("%dim must precede all data rows", path, lineno)
            try:
                dim = int(vals[0])
            except ValueError:
                raise ParseError(f"bad %dim value {vals[0]!r}", path, lineno) from None
            if dim < 1:
                raise ParseError("%dim must be >= 1", path, lineno)
            continue
        if node in names:
            raise ParseError(f"duplicate attribute row for node {node!r}", path, lineno)
        if not names:  # the first data row decides the grammar
            dense = bool(vals) and not any(":" in t for t in vals)
        if dense:
            if not vals:
                raise ParseError("dense attribute row has no values", path, lineno)
            try:
                row = [float(t) for t in vals]
            except ValueError:
                raise ParseError("bad dense attribute value", path, lineno) from None
            dim = dim or len(row)
            if len(row) != dim:
                raise ParseError(f"dense row for node {node!r} has {len(row)} values, "
                                 f"expected {dim}" if names else
                                 f"%dim {dim} != dense row length {len(row)}", path, lineno)
            indices.extend([j for j, v in enumerate(row) if v != 0])
            values.extend([v for v in row if v != 0])
        else:
            for t in vals:
                head, sep, tail = t.partition(":")
                if not sep:
                    raise ParseError(f"expected idx:val token, got {t!r}", path, lineno)
                try:
                    indices.append(int(head))
                    values.append(float(tail))
                except (ValueError, OverflowError):
                    raise ParseError(f"bad idx:val token {t!r}", path, lineno) from None
            row_idx = indices[indptr[-1]:]
            if min(row_idx, default=0) < 0:
                raise ParseError("negative attribute index", path, lineno)
            if len(set(row_idx)) != len(row_idx):
                raise ParseError("duplicate attribute index in row", path, lineno)
            if dim and max(row_idx, default=0) >= dim:
                raise ParseError(f"attribute index {max(row_idx)} >= declared dimension {dim}",
                                 path, lineno)
        if not all(map(math.isfinite, values[indptr[-1]:])):
            raise ParseError("non-finite attribute value", path, lineno)
        names[node] = None
        indptr.append(len(indices))

    if not names:
        raise ParseError("attribute file has no data rows", path)
    if dim is None and not indices:
        raise ParseError("cannot infer attribute dimension (no nonzeros, no %dim)", path)
    return list(names), sp.csr_matrix((values, indices, indptr),
                                      shape=(len(names), dim or max(indices) + 1))


def _parse_edges(path: str, index: dict[str, int]):
    """Parse an edge file into (directed, edge dict)."""
    directed = False
    edges: dict[tuple[int, int], float] = {}
    for lineno, line in _data_lines(path):
        toks = line.split()
        if toks[0].startswith("%"):
            if toks == ["%directed"]:
                if edges:
                    raise ParseError("%directed must precede all edges", path, lineno)
                directed = True
            else:
                raise ParseError(f"unknown directive {toks[0]!r}", path, lineno)
            continue
        if len(toks) not in (2, 3):
            raise ParseError(f"expected '<src> <dst> [weight]', got {len(toks)} tokens",
                             path, lineno)
        try:
            i = index[toks[0]]
            j = index[toks[1]]
        except KeyError as exc:
            raise ParseError(f"edge endpoint {exc.args[0]!r} has no attribute row",
                             path, lineno) from None
        w = 1.0
        if len(toks) == 3:
            try:
                w = float(toks[2])
            except ValueError:
                raise ParseError(f"bad edge weight {toks[2]!r}", path, lineno) from None
            if not np.isfinite(w) or w <= 0:
                raise ParseError(f"edge weight must be finite and > 0, got {w}", path, lineno)
        key = (i, j) if directed else (min(i, j), max(i, j))
        edges[key] = w  # duplicate edge: last occurrence wins
    return directed, edges


def _parse_labels(path: str, index: dict[str, int]):
    """Parse a label file into (label id array, sorted class names)."""
    raw: dict[int, str] = {}
    for lineno, line in _data_lines(path):
        toks = line.split()
        if len(toks) != 2:
            raise ParseError(f"expected '<node_id> <class_name>', got {len(toks)} tokens",
                             path, lineno)
        node, cls = toks
        if node not in index:
            raise ParseError(f"labeled node {node!r} has no attribute row", path, lineno)
        i = index[node]
        if i in raw:
            raise ParseError(f"duplicate label for node {node!r}", path, lineno)
        raw[i] = cls
    missing = len(index) - len(raw)
    if missing:
        raise ParseError(f"label file covers {len(raw)} of {len(index)} nodes "
                         f"({missing} missing)", path)
    label_names = sorted(set(raw.values()))
    ids = {c: k for k, c in enumerate(label_names)}
    labels = np.array([ids[raw[i]] for i in range(len(index))], dtype=np.int64)
    return labels, label_names


def _undirected_csr(i, j, w, n: int) -> sp.csr_matrix:
    """The one undirected-edge rule: n x n CSR that stores each pair (i[t], j[t])
    of weight w[t] both ways and a self-loop once; list each pair once."""
    off = i != j
    return sp.csr_matrix((np.concatenate([w, w[off]]),
                          (np.concatenate([i, j[off]]), np.concatenate([j, i[off]]))),
                         shape=(n, n))


def load_network(edge_path: str, attr_path: str, label_path: str | None = None) -> AttributedNetwork:
    """Load an attributed network from edge, attribute, and optional label files.

    The attribute file defines the node universe and the index order; every
    edge endpoint and labeled node must have an attribute row.
    """
    names, attrs = _parse_attributes(attr_path)
    index = {name: i for i, name in enumerate(names)}
    directed, edges = _parse_edges(edge_path, index)

    n = len(names)
    i, j = np.array(list(edges), dtype=np.int64).reshape(-1, 2).T
    w = np.fromiter(edges.values(), dtype=np.float64, count=len(edges))
    adj = (sp.csr_matrix((w, (i, j)), shape=(n, n)) if directed
           else _undirected_csr(i, j, w, n))

    labels = label_names = None
    if label_path is not None:
        labels, label_names = _parse_labels(label_path, index)

    return AttributedNetwork(adjacency=Handoff(adj), attributes=Handoff(attrs), labels=labels,
                             node_names=names, directed=directed, label_names=label_names)


def save_network(net: AttributedNetwork, out_dir: str) -> dict[str, str]:
    """Write a network to out_dir in the loader's file formats.

    Files are edges.txt, attributes.txt (sparse idx:val with a %dim header)
    and, if labeled, labels.txt. Returns the written paths keyed by 'edges',
    'attributes' and (if labeled) 'labels'. Raises ValueError, before
    writing anything, for a label name the loader cannot read back (node
    names are checked when the network is built).
    """
    if net.labels is not None:
        _check_names(net.label_names, None, "label name")
    names, attrs = net.node_names, net.attributes
    bounds = attrs.indptr.tolist()
    # canonical CSR lists each row's columns in ascending order, so the edges
    # come out sorted by (src, dst); undirected pairs are written once, i <= j
    edges = (net.adjacency if net.directed
             else sp.triu(net.adjacency, format="csr")).tocoo()
    edge_lines = (f"{names[i]} {names[j]}" + (f" {w!r}" if w != 1.0 else "")
                  for i, j, w in zip(edges.row.tolist(), edges.col.tolist(), edges.data.tolist()))
    attr_lines = (" ".join([name] + [f"{j}:{v!r}" for j, v in zip(attrs.indices[lo:hi].tolist(),
                                                                  attrs.data[lo:hi].tolist())])
                  for name, lo, hi in zip(names, bounds, bounds[1:]))
    paths = {"edges": _write_lines(os.path.join(out_dir, "edges.txt"),
                                   chain(["%directed"] if net.directed else [], edge_lines)),
             "attributes": _write_lines(os.path.join(out_dir, "attributes.txt"),
                                        chain([f"%dim {net.n_attrs}"], attr_lines))}
    if net.labels is not None:
        paths["labels"] = _write_lines(os.path.join(out_dir, "labels.txt"), (
            f"{name} {net.label_names[c]}" for name, c in zip(names, net.labels.tolist())))
    return paths


@dataclass
class EmbeddingResult:
    """A fitted embedding with per-node outlier scores and the loss trace.

    component_scores columns are the structural, attribute, and disagreement
    scores in that order; outlier_scores is their configured combination.
    node_names are checked and stored as a tuple, as AttributedNetwork's are.
    """

    embedding: np.ndarray
    outlier_scores: np.ndarray
    component_scores: np.ndarray
    loss_trace: list[float]
    node_names: tuple[str, ...] = ()

    def __post_init__(self):
        self.embedding = as_dense(self.embedding, "embedding")
        n, k = self.embedding.shape
        if k == 0:
            raise ValueError("embedding must have at least one column")
        self.outlier_scores = np.asarray(self.outlier_scores, dtype=np.float64)
        self.component_scores = as_dense(self.component_scores, "component_scores")
        if self.outlier_scores.shape != (n,):
            raise ValueError("outlier_scores length mismatch")
        if not np.isfinite(self.outlier_scores).all():
            raise ValueError("outlier_scores contains non-finite entries")
        if self.component_scores.shape != (n, 3):
            raise ValueError(f"component_scores must be N x 3, got {self.component_scores.shape}")
        self.loss_trace = [float(v) for v in self.loss_trace]
        self.node_names = _check_names(self.node_names, n)


def save_result(result: EmbeddingResult, out_dir: str) -> dict[str, str]:
    """Write embedding.tsv, scores.tsv, and loss.tsv under out_dir;
    tables.load_embedding_tsv and tables.load_scores_tsv read the first two
    back bit-exactly."""
    names, k = result.node_names, result.embedding.shape[1]
    scores = np.column_stack([result.component_scores, result.outlier_scores])
    losses = (f"{t}\t{v!r}" for t, v in enumerate(result.loss_trace, 1))
    return {"embedding": _save_float_tsv(os.path.join(out_dir, "embedding.tsv"), names,
                                         [f"dim{j}" for j in range(k)], result.embedding),
            "scores": _save_float_tsv(os.path.join(out_dir, "scores.tsv"), names,
                                      SCORE_COLUMNS, scores),
            "loss": _write_lines(os.path.join(out_dir, "loss.tsv"),
                                 chain(["iteration\tloss"], losses))}

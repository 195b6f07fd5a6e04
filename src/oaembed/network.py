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

Label file: ``<node_id> <class_name>`` per line, one line per node. Class
names are mapped to dense integer ids in sorted-name order.

Output rule: every file the package writes goes through _write_lines, which
creates its directory and writes UTF-8 lines ending in '\n'; floats are
written with repr(), so a save/load round trip is bit-exact. The ten files:
edges.txt, attributes.txt and labels.txt in the grammars above; outliers.tsv,
``<node_id> <kind>`` per planted node in planting order; embedding.tsv and
scores.tsv, a ``node`` header and one row of floats per node; loss.tsv
(``iteration loss``); ranked.tsv (``rank node score``, most outlying first);
report.json and report.tsv, EvalReport.to_json() and to_tsv().
"""

import os
from dataclasses import dataclass
from itertools import chain

import numpy as np
import scipy.sparse as sp

from .errors import ParseError
from .numerics import Handoff, as_csr, as_dense, as_sparse


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
    def has_self_loops(self) -> bool:
        return bool(self.adjacency.diagonal().any())

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


def _data_lines(path: str):
    """Yield (lineno, line) for non-empty, non-comment lines."""
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if line and not line.startswith("#"):
                    yield lineno, line
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc}", path) from exc


def _write_lines(path: str, lines) -> str:
    """The one output rule (module docstring): create path's directory, then
    write each line of the iterable with a '\\n' ending. Returns path."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)
    return path


def _parse_attributes(path: str):
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


SCORE_COLUMNS = ("structural", "attribute", "disagreement", "combined")


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
    load_embedding_tsv and load_scores_tsv read the first two back bit-exactly."""
    names, k = result.node_names, result.embedding.shape[1]
    scores = np.column_stack([result.component_scores, result.outlier_scores])
    losses = (f"{t}\t{v!r}" for t, v in enumerate(result.loss_trace, 1))
    return {"embedding": _save_float_tsv(os.path.join(out_dir, "embedding.tsv"), names,
                                         [f"dim{j}" for j in range(k)], result.embedding),
            "scores": _save_float_tsv(os.path.join(out_dir, "scores.tsv"), names,
                                      SCORE_COLUMNS, scores),
            "loss": _write_lines(os.path.join(out_dir, "loss.tsv"),
                                 chain(["iteration\tloss"], losses))}


def _save_float_tsv(path: str, names, columns, values: np.ndarray) -> str:
    """Write a 'node' header and one row of floats per node: _load_float_tsv's inverse."""
    rows = (name + "\t" + "\t".join(map(repr, row.tolist())) for name, row in zip(names, values))
    return _write_lines(path, chain(["node\t" + "\t".join(columns)], rows))


def _load_float_tsv(path: str, columns: tuple[str, ...] | None = None):
    """Read a TSV whose header is 'node' and then float columns (exactly
    `columns`, when given) into (node names, N x C float array). A header
    that does not fit, a row of the wrong length, a second row for a node or
    a cell that is not a finite float raises ParseError."""
    header = None
    rows = {}  # node name -> its value cells
    for lineno, line in _data_lines(path):
        cells = line.split("\t")
        if header is None:
            header = cells
            if (cells[0] != "node" or len(cells) < 2
                    or columns is not None and tuple(cells[1:]) != columns):
                raise ParseError(f"unexpected header {cells!r}", path, lineno)
        elif len(cells) != len(header):
            raise ParseError(f"row has {len(cells)} cells, header has {len(header)}",
                             path, lineno)
        elif cells[0] in rows:
            raise ParseError(f"duplicate row for node {cells[0]!r}", path, lineno)
        else:
            rows[cells[0]] = cells[1:]
    if header is None:
        raise ParseError("empty TSV", path)
    names = list(rows)
    try:
        vals = np.array([[float(c) for c in r] for r in rows.values()])
    except ValueError:
        raise ParseError("bad float cell", path) from None
    vals = vals.reshape(len(rows), len(header) - 1)  # also when there are no rows
    finite = np.isfinite(vals).all(axis=1)
    if not finite.all():
        raise ParseError(f"non-finite value for node {names[np.argmin(finite)]!r}", path)
    return names, vals


def load_embedding_tsv(path: str):
    """Read embedding.tsv into (node_names, N x K array)."""
    return _load_float_tsv(path)


def load_scores_tsv(path: str):
    """Read scores.tsv into (node_names, N x 3 component scores, combined scores)."""
    names, vals = _load_float_tsv(path, SCORE_COLUMNS)
    return names, vals[:, :3], vals[:, 3]

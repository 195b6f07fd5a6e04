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

All output TSVs are UTF-8 with a header row; floats are written with repr()
so a save/load round trip is bit-exact.
"""

import os
from dataclasses import dataclass, field

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
    0..n_classes-1. node_names (default "0".."N-1") are distinct and must
    read back from the files save_network writes (see _check_names).

    A caller's matrices are copied, so the network never edits or aliases
    them. The package's own builders (synth_network, seed_outliers,
    load_network) pass theirs wrapped in numerics.Handoff, which is validated
    just as fully but kept without a copy.
    """

    adjacency: sp.csr_matrix
    attributes: sp.csr_matrix
    labels: np.ndarray | None = None
    node_names: list[str] = field(default_factory=list)
    directed: bool = False
    has_self_loops: bool = False
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
        if not self.node_names:
            self.node_names = [str(i) for i in range(n)]
        if len(self.node_names) != n:
            raise ValueError("node_names length mismatch")
        if len(set(self.node_names)) != n:
            raise ValueError("node_names contains duplicates")
        _check_names(self.node_names)
        if not self.directed:
            diff = self.adjacency - self.adjacency.T
            if diff.nnz and np.abs(diff.data).max() > 0:
                raise ValueError("undirected network must have a symmetric adjacency")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
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


def _check_names(names, what: str = "node name"):
    """Raise ValueError unless every name reads back as written: a non-empty
    token with no whitespace that does not start with '#' (a comment) or '%'
    (a directive). AttributedNetwork and EmbeddingResult check their node
    names on construction, so every writer can save them."""
    for name in names:
        if name.split() != [name] or name[0] in "#%":
            raise ValueError(f"{what} {name!r} cannot be saved: names must be non-empty, "
                             "contain no whitespace and not start with '#' or '%'")


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
    """Parse an edge file into (directed, has_self_loops, edge dict)."""
    directed = False
    self_loops = False
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
        if i == j:
            self_loops = True
        key = (i, j) if directed else (min(i, j), max(i, j))
        edges[key] = w  # duplicate edge: last occurrence wins
    return directed, self_loops, edges


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


def load_network(edge_path: str, attr_path: str, label_path: str | None = None) -> AttributedNetwork:
    """Load an attributed network from edge, attribute, and optional label files.

    The attribute file defines the node universe and the index order; every
    edge endpoint and labeled node must have an attribute row.
    """
    names, attrs = _parse_attributes(attr_path)
    index = {name: i for i, name in enumerate(names)}
    directed, self_loops, edges = _parse_edges(edge_path, index)

    n = len(names)
    row, col, data = [], [], []
    for (i, j), w in sorted(edges.items()):
        row.append(i)
        col.append(j)
        data.append(w)
        if not directed and i != j:
            row.append(j)
            col.append(i)
            data.append(w)
    adj = sp.csr_matrix((data, (row, col)), shape=(n, n))

    labels = label_names = None
    if label_path is not None:
        labels, label_names = _parse_labels(label_path, index)

    return AttributedNetwork(adjacency=Handoff(adj), attributes=Handoff(attrs), labels=labels,
                             node_names=names, directed=directed,
                             has_self_loops=self_loops, label_names=label_names)


def save_network(net: AttributedNetwork, out_dir: str) -> dict[str, str]:
    """Write a network to out_dir in the loader's file formats.

    Files are edges.txt, attributes.txt (sparse idx:val with a %dim header)
    and, if labeled, labels.txt. Returns the written paths keyed by 'edges',
    'attributes' and (if labeled) 'labels'. Raises ValueError, before
    writing anything, for a label name the loader cannot read back (node
    names are checked when the network is built).
    """
    if net.labels is not None:
        _check_names(net.label_names, "label name")
    os.makedirs(out_dir, exist_ok=True)
    paths = {"edges": os.path.join(out_dir, "edges.txt"),
             "attributes": os.path.join(out_dir, "attributes.txt")}

    # canonical CSR lists each row's columns in ascending order, so the edges
    # come out sorted by (src, dst); undirected pairs are written once, i <= j
    edges = (net.adjacency if net.directed
             else sp.triu(net.adjacency, format="csr")).tocoo()
    with open(paths["edges"], "w", encoding="utf-8", newline="\n") as fh:
        if net.directed:
            fh.write("%directed\n")
        for i, j, w in zip(edges.row.tolist(), edges.col.tolist(), edges.data.tolist()):
            line = f"{net.node_names[i]} {net.node_names[j]}"
            if w != 1.0:
                line += f" {w!r}"
            fh.write(line + "\n")

    attrs = net.attributes
    bounds = attrs.indptr.tolist()
    with open(paths["attributes"], "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"%dim {net.n_attrs}\n")
        for name, lo, hi in zip(net.node_names, bounds, bounds[1:]):
            toks = [name] + [f"{j}:{v!r}" for j, v in zip(attrs.indices[lo:hi].tolist(),
                                                          attrs.data[lo:hi].tolist())]
            fh.write(" ".join(toks) + "\n")

    if net.labels is not None:
        paths["labels"] = os.path.join(out_dir, "labels.txt")
        with open(paths["labels"], "w", encoding="utf-8", newline="\n") as fh:
            for i, name in enumerate(net.node_names):
                fh.write(f"{name} {net.label_names[net.labels[i]]}\n")
    return paths


SCORE_COLUMNS = ("structural", "attribute", "disagreement", "combined")


@dataclass
class EmbeddingResult:
    """A fitted embedding with per-node outlier scores and the loss trace.

    component_scores columns are the structural, attribute, and disagreement
    scores in that order; outlier_scores is their configured combination.
    node_names are checked as AttributedNetwork's are.
    """

    embedding: np.ndarray
    outlier_scores: np.ndarray
    component_scores: np.ndarray
    loss_trace: list[float]
    node_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.embedding = as_dense(self.embedding, "embedding")
        n = self.embedding.shape[0]
        self.outlier_scores = np.asarray(self.outlier_scores, dtype=np.float64)
        self.component_scores = as_dense(self.component_scores, "component_scores")
        if self.outlier_scores.shape != (n,):
            raise ValueError("outlier_scores length mismatch")
        if not np.isfinite(self.outlier_scores).all():
            raise ValueError("outlier_scores contains non-finite entries")
        if self.component_scores.shape != (n, 3):
            raise ValueError(f"component_scores must be N x 3, got {self.component_scores.shape}")
        self.loss_trace = [float(v) for v in self.loss_trace]
        if not self.node_names:
            self.node_names = [str(i) for i in range(n)]
        if len(self.node_names) != n:
            raise ValueError("node_names length mismatch")
        _check_names(self.node_names)


def save_result(result: EmbeddingResult, out_dir: str) -> dict[str, str]:
    """Write embedding.tsv, scores.tsv, and loss.tsv under out_dir.

    Floats are repr()-formatted, so load_result restores them bit-exactly.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {"embedding": os.path.join(out_dir, "embedding.tsv"),
             "scores": os.path.join(out_dir, "scores.tsv"),
             "loss": os.path.join(out_dir, "loss.tsv")}

    k = result.embedding.shape[1]
    with open(paths["embedding"], "w", encoding="utf-8", newline="\n") as fh:
        fh.write("node\t" + "\t".join(f"dim{j}" for j in range(k)) + "\n")
        for i, name in enumerate(result.node_names):
            fh.write(name + "\t" + "\t".join(repr(float(v)) for v in result.embedding[i]) + "\n")

    with open(paths["scores"], "w", encoding="utf-8", newline="\n") as fh:
        fh.write("node\t" + "\t".join(SCORE_COLUMNS) + "\n")
        for i, name in enumerate(result.node_names):
            vals = [*result.component_scores[i], result.outlier_scores[i]]
            fh.write(name + "\t" + "\t".join(repr(float(v)) for v in vals) + "\n")

    with open(paths["loss"], "w", encoding="utf-8", newline="\n") as fh:
        fh.write("iteration\tloss\n")
        for t, v in enumerate(result.loss_trace, 1):
            fh.write(f"{t}\t{v!r}\n")
    return paths


def _read_tsv(path: str, expected_header: list[str] | None = None):
    """Read a TSV with a header row; returns (header, rows of string cells)."""
    header = None
    rows = []
    for lineno, line in _data_lines(path):
        cells = line.split("\t")
        if header is None:
            header = cells
            if expected_header is not None and cells != expected_header:
                raise ParseError(f"unexpected header {cells!r}", path, lineno)
        else:
            if len(cells) != len(header):
                raise ParseError(f"row has {len(cells)} cells, header has {len(header)}",
                                 path, lineno)
            rows.append(cells)
    if header is None:
        raise ParseError("empty TSV", path)
    return header, rows


def load_embedding_tsv(path: str):
    """Read embedding.tsv into (node_names, N x K array)."""
    header, rows = _read_tsv(path)
    if not header or header[0] != "node":
        raise ParseError("embedding TSV must start with a 'node' column", path)
    if len(header) < 2:
        raise ParseError("embedding TSV has no dimension columns", path)
    names = [r[0] for r in rows]
    try:
        emb = np.array([[float(c) for c in r[1:]] for r in rows])
    except ValueError:
        raise ParseError("bad float in embedding TSV", path) from None
    return names, emb.reshape(len(rows), len(header) - 1)


def load_scores_tsv(path: str):
    """Read scores.tsv into (node_names, N x 3 component scores, combined scores)."""
    _, rows = _read_tsv(path, ["node", *SCORE_COLUMNS])
    names = [r[0] for r in rows]
    try:
        vals = np.array([[float(c) for c in r[1:]] for r in rows])
    except ValueError:
        raise ParseError("bad float in scores TSV", path) from None
    vals = vals.reshape(len(rows), 4)
    return names, vals[:, :3], vals[:, 3]


def load_loss_tsv(path: str) -> list[float]:
    _, rows = _read_tsv(path, ["iteration", "loss"])
    try:
        return [float(r[1]) for r in rows]
    except ValueError:
        raise ParseError("bad float in loss TSV", path) from None


def load_result(out_dir: str) -> EmbeddingResult:
    """Inverse of save_result; node order must agree across the files."""
    names, emb = load_embedding_tsv(os.path.join(out_dir, "embedding.tsv"))
    snames, comps, combined = load_scores_tsv(os.path.join(out_dir, "scores.tsv"))
    if snames != names:
        raise ParseError("scores.tsv node order differs from embedding.tsv",
                         os.path.join(out_dir, "scores.tsv"))
    trace = load_loss_tsv(os.path.join(out_dir, "loss.tsv"))
    return EmbeddingResult(embedding=emb, outlier_scores=combined,
                           component_scores=comps, loss_trace=trace, node_names=names)

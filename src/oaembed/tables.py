"""Line files, float tables and the outlier ranking: the package's scipy-free layer.

Everything `oaembed rank-outliers` runs lives here: reading scores.tsv,
recombining its columns and writing ranked.tsv. `network`, `core`,
`evaluation` and `seeding` import what they use from this module. Importing
it loads no numpy: only the functions that return an array
(_load_float_tsv, load_embedding_tsv, load_scores_tsv, final_outlier_score
and rank_nodes) import numpy, when first called. So `rank-outliers`, which
reads scores.tsv with _read_float_rows and sorts in Python, runs on the
standard library alone unless given --weights.

Output rule: every file the package writes goes through _write_lines, which
creates its directory and writes UTF-8 lines ending in '\n'; floats are
written with repr(), so a save/load round trip is bit-exact. The ten files:
edges.txt, attributes.txt and labels.txt in the grammars of `oaembed.network`;
outliers.tsv, ``<node_id> <kind>`` per planted node in planting order;
embedding.tsv and scores.tsv, a ``node`` header and one row of floats per
node; loss.tsv (``iteration loss``); ranked.tsv (``rank node score``, most
outlying first); report.json and report.tsv, EvalReport.to_json() and
to_tsv().
"""

from __future__ import annotations

import math
import os
from itertools import chain

from .errors import ConfigError, ParseError

SCORE_COLUMNS = ("structural", "attribute", "disagreement", "combined")


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


def _save_float_tsv(path: str, names, columns, values: np.ndarray) -> str:
    """Write a 'node' header and one row of floats per node: _load_float_tsv's inverse."""
    rows = (name + "\t" + "\t".join(map(repr, row.tolist())) for name, row in zip(names, values))
    return _write_lines(path, chain(["node\t" + "\t".join(columns)], rows))


def _read_float_rows(path: str, columns: tuple[str, ...] | None = None):
    """Read a TSV whose header is 'node' and then float columns (exactly
    `columns`, when given) into (column names, node names, one list of
    floats per node), all lists, with the standard library alone. The first
    bad line in file order raises ParseError with its line number: a header
    that does not fit, a row of the wrong length, a second row for a node,
    or a cell that is not a finite float (the cell is named)."""
    header = None
    rows = {}  # node name -> its floats
    for lineno, line in _data_lines(path):
        cells = line.split("\t")
        if header is None:
            header = cells
            if (cells[0] != "node" or len(cells) < 2
                    or columns is not None and tuple(cells[1:]) != columns):
                raise ParseError(f"unexpected header {cells!r}", path, lineno)
            continue
        if len(cells) != len(header):
            raise ParseError(f"row has {len(cells)} cells, header has {len(header)}",
                             path, lineno)
        name = cells[0]
        if name in rows:
            raise ParseError(f"duplicate row for node {name!r}", path, lineno)
        row = []
        for cell in cells[1:]:
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(f"bad float cell {cell!r}", path, lineno) from None
            if not math.isfinite(value):
                raise ParseError(f"non-finite value for node {name!r}: {cell!r}", path, lineno)
            row.append(value)
        rows[name] = row
    if header is None:
        raise ParseError("empty TSV", path)
    return header[1:], list(rows), list(rows.values())


def _load_float_tsv(path: str, columns: tuple[str, ...] | None = None):
    """_read_float_rows as (node names, N x C float array)."""
    import numpy as np

    cols, names, rows = _read_float_rows(path, columns)
    return names, np.array(rows, dtype=np.float64).reshape(len(rows), len(cols))


def load_embedding_tsv(path: str):
    """Read embedding.tsv into (node_names, N x K array)."""
    return _load_float_tsv(path)


def load_scores_tsv(path: str):
    """Read scores.tsv into (node_names, N x 3 component scores, combined scores)."""
    names, vals = _load_float_tsv(path, SCORE_COLUMNS)
    return names, vals[:, :3], vals[:, 3]


def is_real(x) -> bool:
    """Whether x is a Python or numpy real number; a bool is not one."""
    import numbers  # not at module level: rank-outliers without --weights never calls this

    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def check_combine_weights(w, name: str = "combine_weights"):
    """Raise ConfigError unless w is an indexable triple of nonnegative real
    numbers summing to 1 (NaN, bool and non-number entries fail, as do a set
    and a w without a length)."""
    try:
        ok = (len(w) == 3 and all(is_real(w[i]) and w[i] >= 0 for i in range(3))
              and abs(sum(w) - 1.0) <= 1e-9)
    except (TypeError, KeyError):
        ok = False
    if not ok:
        raise ConfigError(f"{name} must be 3 nonnegative values summing to 1, got {w!r}")


def final_outlier_score(component_scores,
                        combine_weights: tuple[float, float, float]) -> np.ndarray:
    """Convex combination w1 s1 + w2 s2 + w3 s3 of the columns of the N x 3
    component-score array (structural, attribute, disagreement). fit and the
    CLI's --weights both combine scores here, so a stored combined column is
    reproduced bit for bit from its components."""
    import numpy as np

    check_combine_weights(combine_weights)
    c = np.asarray(component_scores, dtype=np.float64)
    if c.ndim != 2 or c.shape[1] != 3:
        raise ValueError(f"component scores must be N x 3, got shape {c.shape}")
    w = combine_weights
    return w[0] * c[:, 0] + w[1] * c[:, 1] + w[2] * c[:, 2]


def rank_nodes(scores: np.ndarray) -> np.ndarray:
    """Node indices sorted by descending score, ties by ascending index.
    `oaembed rank-outliers` sorts by the same rule in Python (cli.py).

    One stable sort of the negated scores: equal scores, -0.0 and 0.0
    included, keep their index order, as a lexsort on (index, -score) would
    give them."""
    import numpy as np

    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1:
        raise ValueError("scores must be a 1-D vector")
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    return np.argsort(-s, kind="stable")

"""Output checks. Each returns a list of problems; an empty list is a pass.

The checks read only the documented outputs of a fit (loss trace, the three
score vectors, the align matrix) or the CLI's output files, so they keep
working when the package's internals change.
"""

import hashlib
import math

import numpy as np

LOSS_SLACK = 1e-9        # relative slack for "non-increasing"
SUM_TOL = 1e-9           # |sum(scores) - budget| allowed, relative to the budget
ORTHO_TOL = 1e-8         # max |W^T W - I| allowed for the align matrix


def check_loss_trace(trace, initial=None):
    problems = []
    trace = [float(v) for v in trace]
    if not trace:
        return ["loss trace is empty"]
    if not all(math.isfinite(v) for v in trace):
        return ["loss trace has a non-finite value"]
    for i in range(1, len(trace)):
        if trace[i] > trace[i - 1] + LOSS_SLACK * abs(trace[i - 1]):
            problems.append(f"loss rose in round {i + 1}: {trace[i - 1]!r} -> {trace[i]!r}")
    if initial is not None and trace[0] > initial + LOSS_SLACK * abs(initial):
        problems.append(f"first loss {trace[0]!r} exceeds the initial loss {initial!r}")
    return problems


def check_scores(columns, budget=1.0, floor=1e-8):
    """columns: N x 3 array of structural, attribute, disagreement scores."""
    cols = np.asarray(columns, dtype=np.float64)
    if cols.ndim != 2 or cols.shape[1] != 3:
        return [f"expected N x 3 score columns, got shape {cols.shape}"]
    problems = []
    for j, name in enumerate(("structural", "attribute", "disagreement")):
        s = cols[:, j]
        if not np.isfinite(s).all():
            problems.append(f"{name} scores are not finite")
            continue
        if abs(s.sum() - budget) > SUM_TOL * budget:
            problems.append(f"{name} scores sum to {float(s.sum())!r}, not {budget!r}")
        if s.min() < floor or s.max() > 1.0:
            problems.append(f"{name} scores leave [{floor}, 1]: "
                            f"min {float(s.min())!r}, max {float(s.max())!r}")
    return problems


def check_orthonormal(align):
    w = np.asarray(align, dtype=np.float64)
    if not np.isfinite(w).all():
        return ["align matrix is not finite"]
    defect = float(np.abs(w.T @ w - np.eye(w.shape[1])).max())
    if defect > ORTHO_TOL:
        return [f"align matrix orthogonality defect {defect:.3g} > {ORTHO_TOL}"]
    return []


def check_fraction(name, value):
    if not (isinstance(value, float) and 0.0 <= value <= 1.0):
        return [f"{name} = {value!r} is not a fraction in [0, 1]"]
    return []


def check_exit(argv_name, code):
    if code != 0:
        return [f"`oaembed {argv_name}` exited with code {code}"]
    return []


def check_ranking(names, ranked_rows):
    """ranked_rows: (rank, node, score) from ranked.tsv in file order."""
    problems = []
    if sorted(r[1] for r in ranked_rows) != sorted(names):
        problems.append("ranked.tsv does not list every node exactly once")
    if [r[0] for r in ranked_rows] != list(range(1, len(ranked_rows) + 1)):
        problems.append("ranked.tsv ranks are not 1..N")
    scores = [r[2] for r in ranked_rows]
    if any(b > a for a, b in zip(scores, scores[1:])):
        problems.append("ranked.tsv scores are not in descending order")
    return problems


def check_digests(store, keyed):
    """Every run of one input with one build must produce identical outputs.

    store maps an input key to the first digest seen for it and is updated in
    place; keyed is a list of (key, digest) from this run.
    """
    problems = []
    for key, digest in keyed:
        seen = store.setdefault(key, digest)
        if seen != digest:
            problems.append(f"outputs for {key} differ from an earlier run: {digest} != {seen}")
    return problems


class Digest:
    """sha256 over arrays, numbers and file contents, in the order added."""

    def __init__(self):
        self._h = hashlib.sha256()

    def array(self, a):
        a = np.ascontiguousarray(a, dtype=np.float64)
        self._h.update(repr(a.shape).encode())
        self._h.update(a.tobytes())
        return self

    def text(self, s):
        self._h.update(s.encode())
        return self

    def file(self, path):
        with open(path, "rb") as fh:
            self._h.update(fh.read())
        return self

    def hexdigest(self):
        return self._h.hexdigest()[:16]

"""Spans around the package's public functions, recorded from outside.

A span is opened by a wrapper installed at every module-level binding of a
traced function inside the `oaembed` package, so a call is caught at the name
its caller resolves (for example `oaembed.core.nmf_init`, which is how `fit`
reaches `oaembed.numerics.nmf_init`). Spans are kept in memory and written out
when the run ends. A function that no longer exists is skipped and reports 0
calls.
"""

import functools
import json
import sys
import time

# (defining module, function, span name). The span name's first part is the
# layer the function belongs to.
TRACED = [
    ("seeding", "synth_network", "seeding.synth_network"),
    ("seeding", "seed_outliers", "seeding.seed_outliers"),
    ("seeding", "save_truth", "seeding.save_truth"),
    ("network", "load_network", "network.load_network"),
    ("network", "save_network", "network.save_network"),
    ("network", "save_result", "network.save_result"),
    ("network", "load_scores_tsv", "network.load_scores_tsv"),
    ("numerics", "nmf_init", "numerics.nmf_init"),
    ("numerics", "row_sq_residuals", "numerics.row_sq_residuals"),
    ("numerics", "svd_small", "numerics.svd_small"),
    ("core", "fit", "core.fit"),
    ("core", "update_alignment", "core.update_alignment"),
    ("core", "update_struct_embed", "core.update_struct_embed"),
    ("core", "update_struct_context", "core.update_struct_context"),
    ("core", "update_attr_embed", "core.update_attr_embed"),
    ("core", "update_attr_basis", "core.update_attr_basis"),
    ("core", "budget_scores", "core.budget_scores"),
    ("core", "calibrate_weights", "core.calibrate_weights"),
    ("core", "loss_joint", "core.loss_joint"),
    ("core", "loss_structure", "core.loss_structure"),
    ("core", "loss_attribute", "core.loss_attribute"),
    ("core", "loss_disagreement", "core.loss_disagreement"),
    ("evaluation", "evaluate_all", "evaluation.evaluate_all"),
    ("evaluation", "train_classifier", "evaluation.train_classifier"),
    ("evaluation", "predict", "evaluation.predict"),
    ("evaluation", "kmeans_pp", "evaluation.kmeans_pp"),
    ("evaluation", "rank_nodes", "evaluation.rank_nodes"),
    ("evaluation", "recall_at", "evaluation.recall_at"),
]

PACKAGE_MODULES = ["oaembed", "oaembed.cli", "oaembed.core", "oaembed.evaluation",
                   "oaembed.network", "oaembed.numerics", "oaembed.seeding"]


class Tracer:
    """In-memory span recorder. Recording happens only while `active`."""

    def __init__(self):
        self.active = False
        self.spans = []   # [name, start, end, parent index or -1]
        self.counts = {}  # name -> summed count recorded at span boundaries
        self._stack = []
        self._restore = []

    def count(self, name, value):
        if self.active:
            self.counts[name] = self.counts.get(name, 0) + value

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span named `name` (if recording)."""
        if not self.active:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def install(self, on_return=None):
        """Wrap every binding of each TRACED function in the loaded package.

        on_return maps a span name to f(tracer, args, kwargs, result), called
        after the span closes to record counts derived from the call.
        """
        on_return = on_return or {}
        for mod_name, attr, span_name in TRACED:
            original = getattr(sys.modules.get("oaembed." + mod_name), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(span_name, original, on_return.get(span_name))
            for holder_name in PACKAGE_MODULES:
                holder = sys.modules.get(holder_name)
                if holder is not None and getattr(holder, attr, None) is original:
                    self._restore.append((holder, attr, original))
                    setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore = []

    def _wrap(self, name, fn, after):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self.span(name, fn, *args, **kwargs)
            if after is not None and self.active:
                try:
                    after(self, args, kwargs, out)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # a changed signature loses a count, not the run
            return out
        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def summarize(spans):
    """Per span name: calls, inclusive seconds and self seconds.

    Inclusive time counts only spans with no ancestor of the same name, so a
    recursive or re-entrant call is not counted twice. Self time is a span's
    duration minus the durations of its direct children.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, parent) in enumerate(spans):
        rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["self_s"] += (end - start) - child_time[i]
        if not _has_ancestor(spans, parent, lambda n: n == name):
            rec["s"] += end - start
    return out


def outermost_seconds(spans, names):
    """Wall time covered by spans in `names` that have no ancestor in `names`."""
    total = 0.0
    for name, start, end, parent in spans:
        if name in names and not _has_ancestor(spans, parent, names.__contains__):
            total += end - start
    return total


def _has_ancestor(spans, parent, match):
    while parent >= 0:
        if match(spans[parent][0]):
            return True
        parent = spans[parent][3]
    return False

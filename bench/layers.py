"""The traced run: per-layer metrics for the package's modules.

A warm-up and an untraced iteration are timed first, then one traced
iteration of the same input; the difference of the last two totals is the
tracing overhead. Times are from spans
(see tracing.py); counts are recorded at the same boundaries from the calls'
arguments and results. Every metric is reported on every workload, as 0 where
the workload does not reach that layer.
"""

import scipy.sparse as sp

from tracing import Tracer, outermost_seconds, summarize
from workloads import stored_mb

LAYERS = ("seeding", "network", "numerics", "core", "evaluation", "cli")
LOSS_SPANS = {"core.calibrate_weights", "core.loss_joint", "core.loss_structure",
              "core.loss_attribute", "core.loss_disagreement"}

# name -> unit, in report order
UNITS = {
    "seeding.synth_network.s": "s", "seeding.synth_network.calls": "count",
    "seeding.edges": "count",
    "seeding.seed_outliers.s": "s", "seeding.seed_outliers.calls": "count",
    "network.load_network.s": "s", "network.load_network.calls": "count",
    "network.save_network.s": "s", "network.save_result.s": "s",
    "network.attributes.stored_mb": "MB",
    "numerics.nmf_init.s": "s", "numerics.nmf_init.calls": "count",
    "numerics.nmf_init.gflop": "Gflop", "numerics.nmf_init.gflops_per_s": "Gflop/s",
    "numerics.row_sq_residuals.s": "s", "numerics.row_sq_residuals.calls": "count",
    "numerics.svd_small.s": "s", "numerics.svd_small.calls": "count",
    "core.fit.s": "s", "core.fit.calls": "count", "core.fit.self_s": "s",
    "core.update_alignment.s": "s", "core.update_struct_embed.s": "s",
    "core.update_struct_context.s": "s", "core.update_attr_embed.s": "s",
    "core.update_attr_basis.s": "s",
    "core.budget_scores.s": "s", "core.budget_scores.calls": "count",
    "core.loss.s": "s", "core.loss_structure.calls": "count",
    "core.rounds": "count", "core.skipped": "count",
    "evaluation.evaluate_all.s": "s",
    "evaluation.train_classifier.s": "s", "evaluation.train_classifier.calls": "count",
    "evaluation.kmeans_pp.s": "s", "evaluation.predict.s": "s",
    "cli.import_s": "s", "cli.seed.self_s": "s", "cli.embed.self_s": "s",
    "cli.rank-outliers.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.untraced_total_s": "s", "trace.traced_total_s": "s",
    "trace.overhead_s": "s", "trace.spans": "count",
}


def nmf_gflop(m, k, iters):
    """Computed (not measured) flops of `iters` multiplicative-update sweeps
    on m ~ p @ q: two products with m, four K x K Gram products and updates,
    and the element-wise update of both factors."""
    n, d = m.shape
    nnz = m.nnz if sp.issparse(m) else n * d
    return iters * (4 * nnz * k + 4 * k * k * (n + d) + 3 * k * (n + d)) / 1e9


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _peak(tracer, name, value):
    tracer.counts[name] = max(tracer.counts.get(name, 0.0), value)


HOOKS = {
    "seeding.synth_network": lambda t, a, kw, out: (
        t.count("seeding.edges", out.n_edges),
        _peak(t, "network.attributes.stored_mb", stored_mb(out))),
    "seeding.seed_outliers": lambda t, a, kw, out: _peak(
        t, "network.attributes.stored_mb", stored_mb(out.network)),
    "network.load_network": lambda t, a, kw, out: _peak(
        t, "network.attributes.stored_mb", stored_mb(out)),
    "numerics.nmf_init": lambda t, a, kw, out: t.count(
        "numerics.nmf_init.gflop",
        nmf_gflop(_arg(a, kw, 0, "m"), _arg(a, kw, 1, "k"), _arg(a, kw, 2, "iters"))),
    "core.fit": lambda t, a, kw, out: (
        t.count("core.rounds", len(out[2].loss_trace)),
        t.count("core.skipped", sum(out[3].skipped.values()))),
}


def traced_run(workload, spans_path):
    """Returns (per-layer metrics, output digests of the iterations).

    A warm-up iteration, then one untraced and one traced iteration, all of
    the same input run the same way (`cli-cora` calls `oaembed.cli.main`
    in-process in all three), so the difference of the last two totals is
    the tracing overhead rather than first-run costs.
    """
    tracer = Tracer()
    workload.tracer = tracer
    workload.in_process = True
    warm = workload.iteration(0)
    untraced = workload.iteration(0)
    tracer.install(HOOKS)
    tracer.active = True
    try:
        traced = workload.iteration(0)
    finally:
        tracer.active = False
        tracer.uninstall()
    tracer.write(spans_path)
    import_s = workload.import_seconds() if hasattr(workload, "import_seconds") else 0.0
    metrics = layer_metrics(tracer, import_s)
    metrics["trace.untraced_total_s"] = untraced["total_s"]
    metrics["trace.traced_total_s"] = traced["total_s"]
    metrics["trace.overhead_s"] = traced["total_s"] - untraced["total_s"]
    return metrics, [warm["digest"], untraced["digest"], traced["digest"]]


def layer_metrics(tracer, import_s):
    spans = tracer.spans
    per_name = summarize(spans)
    metrics = {}
    for name in UNITS:
        if name in tracer.counts:
            metrics[name] = float(tracer.counts[name])
            continue
        base, _, field = name.rpartition(".")
        rec = per_name.get(base)
        if field in ("s", "calls", "self_s") and base not in LAYERS:
            metrics[name] = float(rec[field]) if rec else 0.0
        else:
            metrics[name] = 0.0
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(rec["self_s"] for n, rec in per_name.items()
                                         if n.split(".", 1)[0] == layer)
    metrics["core.loss.s"] = outermost_seconds(spans, LOSS_SPANS)
    s = metrics["numerics.nmf_init.s"]
    metrics["numerics.nmf_init.gflops_per_s"] = metrics["numerics.nmf_init.gflop"] / s if s else 0.0
    metrics["cli.import_s"] = import_s
    metrics["trace.spans"] = float(len(spans))
    return metrics

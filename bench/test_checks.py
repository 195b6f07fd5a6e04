"""Each output check of the benchmark catches a planted violation.

    python3 -m pytest -q bench/test_checks.py
"""

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

from checks import (Digest, check_exit, check_fraction, check_loss_trace,  # noqa: E402
                    check_digests, check_orthonormal, check_ranking, check_scores)


def good_scores(n=50, seed=0):
    r = np.random.default_rng(seed).random((n, 3)) + 0.1
    return r / r.sum(axis=0)


def test_clean_outputs_pass():
    assert check_loss_trace([5.0, 4.0, 4.0, 3.5], initial=6.0) == []
    assert check_scores(good_scores()) == []
    q, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(6, 6)))
    assert check_orthonormal(q) == []
    assert check_exit("embed", 0) == []
    assert check_fraction("recall", 0.5) == []
    assert check_ranking(["a", "b"], [(1, "b", 0.7), (2, "a", 0.3)]) == []
    store = {}
    assert check_digests(store, [("k/0", "x"), ("k/1", "y"), ("k/0", "x")]) == []
    assert check_digests(store, [("k/0", "x")]) == []


@pytest.mark.parametrize("trace,initial", [
    ([5.0, 4.0, 4.5], None),            # loss rose
    ([5.0, float("nan"), 3.0], None),   # non-finite
    ([5.0, 4.0], 4.5),                  # first loss above the initial loss
    ([], None),                          # nothing recorded
])
def test_loss_trace_violations(trace, initial):
    assert check_loss_trace(trace, initial)


def test_score_violations():
    s = good_scores()
    off_budget = s.copy()
    off_budget[0, 1] += 1e-6
    below_floor = s.copy()
    below_floor[:2, 0] = [0.0, below_floor[0, 0] + below_floor[1, 0]]
    above_one = np.zeros((3, 3))
    above_one[0] = 1.5
    above_one[1] = -0.5
    for bad in (off_budget, below_floor, above_one, s[:, :2]):
        assert check_scores(bad), bad


def test_orthonormal_violation():
    q, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(6, 6)))
    q[0, 0] += 1e-6
    assert check_orthonormal(q)
    assert check_orthonormal(np.full((2, 2), np.nan))


def test_exit_fraction_ranking_digest_violations():
    assert check_exit("seed", 1)
    assert check_exit("embed", "timeout")
    assert check_fraction("recall", 1.2)
    assert check_fraction("recall", float("nan"))
    assert check_ranking(["a", "b", "c"], [(1, "b", 0.7), (2, "a", 0.3)])
    assert check_ranking(["a", "b"], [(1, "b", 0.3), (2, "a", 0.7)])
    assert check_ranking(["a", "b"], [(1, "b", 0.7), (3, "a", 0.3)])
    assert check_digests({"k/0": "x"}, [("k/0", "y")])
    assert check_digests({}, [("k/0", "x"), ("k/0", "y")])


def test_digest_sees_one_ulp():
    a = np.linspace(0.0, 1.0, 7)
    b = a.copy()
    b[3] = np.nextafter(b[3], 2.0)
    assert Digest().array(a).hexdigest() == Digest().array(a.copy()).hexdigest()
    assert Digest().array(a).hexdigest() != Digest().array(b).hexdigest()


def test_fit_check_records_a_failed_operation():
    from workloads import Ledger, check_fit
    ledger = Ledger()
    result = SimpleNamespace(loss_trace=[3.0, 2.0], component_scores=good_scores())
    good = SimpleNamespace(align=np.eye(4))
    bad = SimpleNamespace(align=np.eye(4) * 1.01)
    check_fit(ledger, "fit", good, result, SimpleNamespace(initial_loss=3.5))
    check_fit(ledger, "fit", bad, result, SimpleNamespace(initial_loss=3.5))
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert "orthogonality" in ledger.problems[0]


def test_self_time_and_removed_function(monkeypatch):
    import oaembed.core
    import oaembed.numerics
    from layers import UNITS, layer_metrics
    from tracing import Tracer, summarize

    spans = [["core.fit", 0.0, 10.0, -1], ["numerics.nmf_init", 1.0, 5.0, 0],
             ["core.budget_scores", 6.0, 7.0, 0]]
    per = summarize(spans)
    assert per["core.fit"]["s"] == 10.0
    assert per["core.fit"]["self_s"] == pytest.approx(5.0)

    # a function a later change deletes reports 0 calls, the rest still trace
    monkeypatch.delattr(oaembed.numerics, "svd_small")
    monkeypatch.delattr(oaembed.core, "svd_small")
    tracer = Tracer()
    tracer.install()
    try:
        tracer.active = True
        oaembed.core.budget_scores(np.array([1.0, 2.0, 3.0]), 1.0, 1e-8)
        tracer.active = False
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, 0.0)
    assert set(metrics) == set(UNITS)
    assert metrics["numerics.svd_small.calls"] == 0
    assert metrics["core.budget_scores.calls"] == 1


def test_refuses_to_run_without_the_package(tmp_path):
    """With only the benchmark's own files present it exits nonzero and
    prints no result."""
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    with open(tmp_path / "BENCHMARK.json", "w") as fh:
        json.dump({}, fh)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli-cora",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

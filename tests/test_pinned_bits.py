"""Pinned sha256 digests of fit's outputs and of the evaluation report.

Every output of fit and evaluate_all is a pure function of its inputs and
seeds, so a change that claims to keep them bit-identical must leave these
digests as they are. A change that means to move them updates the digests
here and records the old and new values, and why, in CHANGES.md.

The bits depend on the BLAS and LAPACK build, not on the thread count
(test_fit_and_report_bits_do_not_depend_on_the_blas_thread_count). The
digests were pinned on numpy 2.4.6, scipy 1.17.1 and scipy-openblas 0.3.31.
"""

import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

from oaembed.core import HyperParams, fit
from oaembed.evaluation import evaluate_all
from oaembed.network import AttributedNetwork
from oaembed.numerics import make_rng
from oaembed.seeding import SeedingPlan, seed_outliers, synth_network


def _planted_synth(seed):
    """A 300-node block-model network with 5 % planted outliers."""
    seeded = seed_outliers(synth_network(300, 3, 0.05, 0.005, 120, 0.9, seed=seed),
                           SeedingPlan(total_fraction=0.05, seed=seed))
    return seeded.network, seeded.outlier_ids


def _directed_corner_cases():
    """Directed and weighted, with a self-loop on every fourth node, node 1
    isolated (no edge in or out) and node 2's attribute row empty."""
    rng = make_rng(31)
    n, d = 40, 15
    adj = sp.random(n, n, density=0.12, random_state=rng, format="lil",
                    data_rvs=lambda size: rng.uniform(0.5, 3.0, size))
    for i in range(0, n, 4):
        adj[i, i] = 2.0
    adj[1, :] = 0.0
    adj[:, 1] = 0.0
    attrs = sp.random(n, d, density=0.3, random_state=rng, format="lil",
                      data_rvs=lambda size: rng.uniform(0.2, 2.0, size))
    attrs[2, :] = 0.0
    labels = np.arange(n) % 3
    net = AttributedNetwork(adjacency=adj.tocsr(), attributes=attrs.tocsr(), labels=labels,
                            directed=True)
    return net, [3, 17, 29]


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("build, dim, fit_digest, report_digest", [
    (lambda: _planted_synth(0), 6,
     "607de3fb2541cebd6dd4986ba2165d0a91d5bfc9422537048f31fd8abe98986c",
     "fc94cf453fb989a725b4f4192a9955bb3284aa322c498e6fbb267a995e8befdf"),
    (lambda: _planted_synth(7), 6,
     "6ab4a178b560b11e3246282b699ef22e0159507e7f02d4216980234b9715e6e0",
     "e6ee2379ef5205c8491a9cae5642202a7489b143df4a0a8e000f694cddf5942a"),
    (_directed_corner_cases, 4,
     "9d2d0f08d8f35743d395910edf527fd7803e1233bad266bcafca79afa643b153",
     "c121d2948629d7779710102bfa3fdc936d822b492fa90c43854e29078457a743"),
], ids=["synth-planted-seed0", "synth-planted-seed7", "directed-weighted-corner-cases"])
def test_fit_and_report_bits_are_pinned(build, dim, fit_digest, report_digest):
    net, truth = build()
    model, scores, result, _ = fit(net, HyperParams(dim=dim, seed=3))
    got = _digest([model.struct_embed, model.struct_context, model.attr_embed,
                   model.attr_basis, model.align, scores.structural, scores.attribute,
                   scores.disagreement, result.loss_trace, result.embedding])
    report = evaluate_all(net, result, truth, splits=(20, 50), reps=2, seed=5)
    assert (got, hashlib.sha256(report.to_json().encode()).hexdigest()) == (fit_digest,
                                                                           report_digest)

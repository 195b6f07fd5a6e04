"""Cost as a contract: the sparse products a fit forms and the bytes it traces.

A clock cannot show that a refactor adds no work, but the work fit does is
deterministic: its sparse products and its allocations repeat from run to
run (tracemalloc peaks of one fit differ by a few KB between reruns in one
process). So these tests bound them exactly, or within a stated margin, on
three inputs:

- sbm-2100 and sbm-4200: synth_network(n, 5, 0.01 * 2000 / n,
  0.0005 * 2000 / n, 1000, 0.9, seed=0) at n = 2000 and 4000, plus 5 %
  planted, so N doubles with the mean degree held and nnz nearly doubles;
- wide: N = 2000 nodes, D = 20000 attributes, 20 nonzeros per attribute row
  with values 1-3, and about 5 random undirected edges per node.

Each fit is K = 15, 4 rounds. Its tracemalloc peak is bounded by the model
a (N + D) K 8 + b nnz + c bytes, nnz = nnz(A) + nnz(C), times 1 + MARGIN.
a, b and c are solved through the three peaks read on the build the bounds
were fitted on: Python 3.11.7, numpy 2.4.6, scipy 1.17.1 and scipy-openblas
0.3.31. The model interpolates three peaks that different phases of fit
set, so c is negative and the coefficients carry no meaning off these
inputs. A change that lowers what fit allocates refits a, b and c to the
lower peaks; none is raised to pass.
"""

import functools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from oaembed.core import HyperParams, fit
from oaembed.network import AttributedNetwork
from oaembed.numerics import make_rng
from oaembed.seeding import SeedingPlan, seed_outliers, synth_network

K, ITERS = 15, 4
# peak <= (1 + MARGIN) * (A_BYTES (N + D) K 8 + B_BYTES nnz + C_BYTES)
A_BYTES, B_BYTES, C_BYTES = 5.41, 9.987, -330_400
MARGIN = 0.02
GROWTH = 2.1  # at twice N and twice nnz, no traced peak may grow more


def _sbm_args(n):
    return n, 5, 0.01 * 2000 / n, 0.0005 * 2000 / n, 1000, 0.9, 0


@functools.cache
def _sbm(n):
    """The sbm-shaped network at n generated nodes, and the same plus 5 %
    planted."""
    net = synth_network(*_sbm_args(n))
    return net, seed_outliers(net, SeedingPlan(total_fraction=0.05, seed=0)).network


@functools.cache
def _wide(n=2000, d=20000, per_row=20, degree=5):
    rng = make_rng(0)
    cols = np.concatenate([rng.choice(d, per_row, replace=False) for _ in range(n)])
    attrs = sp.csr_matrix((rng.integers(1, 4, n * per_row).astype(np.float64),
                           (np.repeat(np.arange(n), per_row), cols)), shape=(n, d))
    i, j = rng.integers(0, n, (2, n * degree // 2))
    a, b = np.unique(np.sort(np.stack([i[i != j], j[i != j]]), axis=0), axis=1)
    adj = sp.csr_matrix((np.ones(2 * a.size), (np.concatenate([a, b]), np.concatenate([b, a]))),
                        shape=(n, n))
    return AttributedNetwork(adjacency=adj, attributes=attrs)


_INPUTS = {"sbm-2100": lambda: _sbm(2000)[1], "sbm-4200": lambda: _sbm(4000)[1],
           "wide": _wide}


def _traced_peak(call, *args) -> int:
    """tracemalloc peak of call(*args) in bytes."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@functools.cache
def _fit_peak(name):
    return _traced_peak(fit, _INPUTS[name](), HyperParams(dim=K, seed=0, iters=ITERS))


def _nnz(net):
    return net.adjacency.nnz + net.attributes.nnz


@pytest.mark.parametrize("name", list(_INPUTS))
def test_fit_traced_peak_is_within_the_fitted_model(name):
    net = _INPUTS[name]()
    model = A_BYTES * (net.n_nodes + net.n_attrs) * K * 8 + B_BYTES * _nnz(net) + C_BYTES
    assert _fit_peak(name) <= (1 + MARGIN) * model


def _sparse_products(monkeypatch, net, hp):
    """(count, summed nnz * K, rounds run) of the sparse-dense products of
    fit(net, hp)."""
    seen = []
    for cls in (sp.csr_matrix, sp.csc_matrix):
        def spy(self, other, _matmul=cls.__matmul__):
            if isinstance(other, np.ndarray) and other.ndim == 2:
                seen.append(self.nnz * other.shape[1])
            return _matmul(self, other)
        monkeypatch.setattr(cls, "__matmul__", spy)
    rounds = len(fit(net, hp)[2].loss_trace)
    return len(seen), sum(seen), rounds


@pytest.mark.parametrize("passes, iters, rounds", [(1, 1, 1), (1, 4, 4), (3, 2, 2),
                                                   (1, 15, 14)],
                         ids=["1-1", "1-4", "3-2", "1-15"])
def test_fit_forms_a_fixed_number_of_sparse_products(monkeypatch, passes, iters, rounds):
    # per view: two per nmf_init pass (the last one's product serves the
    # initial residual pass) and two per round run (the basis sweep's and
    # the next residual pass's); at the default cap this fit's ranking
    # settles after round 14, and the settling check forms none
    net = _sbm(2000)[1]
    count, work, run = _sparse_products(monkeypatch, net, HyperParams(
        dim=K, seed=0, iters=iters, init_passes=passes))
    assert run == rounds
    per_view = 2 * passes + 2 * rounds
    assert (count, work) == (2 * per_view, per_view * _nnz(net) * K)


def test_no_cost_grows_faster_than_the_input():
    # the North star's "no N^2 term anywhere, the data generator included":
    # at twice N with twice the nnz, the generator, the seeding and the fit
    # each trace at most GROWTH times the peak (fit's product work grows by
    # the nnz ratio exactly, by the count test above)
    small, large = _sbm(2000), _sbm(4000)
    assert _nnz(large[1]) <= 2 * _nnz(small[1])
    plan = SeedingPlan(total_fraction=0.05, seed=0)
    for what, peak in (
            ("synth_network", lambda s: _traced_peak(synth_network, *_sbm_args(s[0].n_nodes))),
            ("seed_outliers", lambda s: _traced_peak(seed_outliers, s[0], plan))):
        assert peak(large) <= GROWTH * peak(small), what
    assert _fit_peak("sbm-4200") <= GROWTH * _fit_peak("sbm-2100")

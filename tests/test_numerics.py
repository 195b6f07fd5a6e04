import ast
import io
import itertools
import re
import tokenize
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from helpers import (frobenius_sq_residual, jacobi_eigvals, reference_nmf_mu,
                     reference_row_sq_norms, to_dense)
import oaembed
from oaembed.numerics import (Handoff, as_csr, as_dense, as_sparse, make_rng, named_rng,
                              nmf_init, row_sq_norms, row_sq_residuals, svd_small)
from oaembed.seeding import SeedingPlan, seed_outliers, synth_network


def test_make_rng_reproducible():
    a = make_rng(42).random(8)
    b = make_rng(42).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, make_rng(43).random(8))
    assert np.array_equal(a, make_rng(np.int64(42)).random(8))


def test_named_rng_substreams():
    a = named_rng(7, "alpha").random(8)
    assert np.array_equal(a, named_rng(7, "alpha").random(8))
    assert not np.array_equal(a, named_rng(7, "beta").random(8))
    assert not np.array_equal(a, named_rng(8, "alpha").random(8))
    assert np.array_equal(a, named_rng(np.uint32(7), "alpha").random(8))


@pytest.mark.parametrize("seed", [1.5, 2.0, True, np.float64(3.0), "4", None])
def test_rng_rejects_seeds_that_are_not_integers(seed):
    # a float or bool seed was truncated to an integer, or failed with a TypeError
    with pytest.raises(ValueError, match=f"seed must be an integer, got {re.escape(repr(seed))}"):
        make_rng(seed)
    with pytest.raises(ValueError, match="seed must be an integer"):
        named_rng(seed, "alpha")


def test_as_dense_validation():
    out = as_dense([[1, 2], [3, 4]])
    assert out.dtype == np.float64 and out.shape == (2, 2)
    with pytest.raises(ValueError):
        as_dense([1.0, 2.0])
    with pytest.raises(ValueError):
        as_dense([[np.nan, 0.0]])


def test_as_sparse_validation():
    m = as_sparse([[0.0, 2.0], [1.0, 0.0]])
    assert sp.issparse(m) and m.nnz == 2
    with pytest.raises(ValueError):
        as_sparse(sp.coo_matrix(([1.0, -1.0], ([0, 1], [0, 1])), shape=(2, 2)))
    with pytest.raises(ValueError):
        as_sparse(sp.coo_matrix(([np.inf], ([0], [0])), shape=(1, 1)))
    dup = sp.coo_matrix(([1.0, 1.0], ([0, 0], [1, 1])), shape=(2, 2))
    with pytest.raises(ValueError):
        as_sparse(dup)
    # built from (data, indices, indptr), a CSR matrix keeps its repeated entry
    dup_csr = sp.csr_matrix(([1.0, 2.0, 1.0], [1, 0, 1], [0, 3, 3]), shape=(2, 2))
    assert dup_csr.nnz == 3
    with pytest.raises(ValueError, match="duplicate"):
        as_sparse(dup_csr)


def test_handoff_is_validated_in_place_without_a_copy():
    built = sp.csr_matrix(([2.0, 0.0, 1.0], [3, 1, 0], [0, 3, 3]), shape=(2, 4))
    data = built.data
    out = as_csr(Handoff(built), "attributes")
    assert out is built and np.shares_memory(out.data, data)
    assert out.has_canonical_format and out.indices.tolist() == [0, 3]
    adj = sp.csr_matrix(([1.0, 1.0], [1, 0], [0, 1, 2]), shape=(2, 2))
    assert as_sparse(Handoff(adj)) is adj
    for bad in (sp.csr_matrix(([1.0, 2.0], [1, 1], [0, 2, 2]), shape=(2, 2)),
                sp.csr_matrix(([np.nan], [1], [0, 1, 1]), shape=(2, 2))):
        with pytest.raises(ValueError):
            as_csr(Handoff(bad))
    with pytest.raises(ValueError, match="non-positive"):
        as_sparse(Handoff(sp.csr_matrix(([-1.0], [1], [0, 1, 1]), shape=(2, 2))))
    with pytest.raises(TypeError):
        Handoff(sp.csr_matrix(np.eye(2, dtype=np.int64)))


def test_svd_identity():
    x, sigma, yt = svd_small(np.eye(3))
    assert np.allclose(x @ yt, np.eye(3), atol=1e-12)
    assert np.allclose(sigma, np.ones(3), atol=1e-12)
    assert np.allclose(np.abs(yt), np.eye(3), atol=1e-12)


def test_svd_diagonal():
    x, sigma, yt = svd_small(np.diag([3.0, 2.0]))
    assert np.allclose(sigma, [3.0, 2.0], atol=1e-12)
    # singular vectors are signed permutations of the identity columns
    assert np.allclose(np.abs(x), np.eye(2), atol=1e-12)
    assert np.allclose(np.abs(yt), np.eye(2), atol=1e-12)
    assert np.allclose((x * sigma) @ yt, np.diag([3.0, 2.0]), atol=1e-12)


def _check_svd(m):
    x, sigma, yt = svd_small(m)
    k = m.shape[0]
    assert np.abs(x.T @ x - np.eye(k)).max() < 1e-9
    assert np.abs(yt @ yt.T - np.eye(k)).max() < 1e-9
    assert (sigma >= 0).all()
    assert (np.diff(sigma) <= 1e-12).all()
    scale = max(np.linalg.norm(m), 1e-30)
    assert np.linalg.norm((x * sigma) @ yt - m) <= 1e-8 * scale
    return sigma


def test_svd_random_reconstruction_and_eigen_crosscheck():
    rng = make_rng(5)
    m = rng.normal(size=(4, 4))
    sigma = _check_svd(m)
    # independent oracle: squared singular values = eigenvalues of m.T @ m
    eig = jacobi_eigvals(m.T @ m)
    assert np.allclose(sigma ** 2, np.clip(eig, 0.0, None),
                       rtol=1e-8, atol=1e-10)


def test_svd_many_shapes():
    rng = make_rng(11)
    for k in (1, 2, 3, 5, 8):
        _check_svd(rng.normal(size=(k, k)))
        _check_svd(rng.normal(size=(k, k)) * 1e-6)


def test_svd_rank_deficient():
    u = np.array([1.0, 2.0, -1.0])
    v = np.array([0.5, 1.0, 3.0])
    _check_svd(np.outer(u, v))


def test_svd_zero_matrix():
    sigma = _check_svd(np.zeros((3, 3)))
    assert (sigma == 0).all()


def test_svd_deterministic():
    rng = make_rng(3)
    m = rng.normal(size=(5, 5))
    for got, want in zip(svd_small(m), svd_small(m)):
        assert np.array_equal(got, want)


def test_svd_input_errors():
    with pytest.raises(ValueError):
        svd_small(np.array([[np.nan]]))
    # LAPACK returns NaN singular values for an infinite entry without raising
    with pytest.raises(ValueError, match="non-finite"):
        svd_small(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def nmf(m, k, iters, rng):
    """nmf_init of m as CSR, handed its transpose as fit hands it."""
    m = sp.csr_matrix(m)
    return nmf_init(m, k, iters, rng, m.T)


def test_nmf_rank_one_recovery():
    p = np.array([1.0, 2.0, 0.5, 3.0])
    q = np.array([0.2, 1.5, 0.7])
    m = np.outer(p, q)
    fp, fq = nmf(m, 1, 67, make_rng(0))
    err = frobenius_sq_residual(m, fp, fq)
    assert np.sqrt(err) / np.linalg.norm(m) < 1e-3


def test_nmf_zero_matrix():
    p, q = nmf(np.zeros((4, 3)), 2, 17, make_rng(0))
    assert (p >= 0).all() and (q >= 0).all()
    assert frobenius_sq_residual(np.zeros((4, 3)), p, q) == pytest.approx(0.0, abs=1e-12)


def test_nmf_monotone_error():
    rng = make_rng(9)
    m = rng.uniform(0.0, 2.0, size=(15, 12))
    # same seed means a run of more passes extends a shorter one, giving the per-pass trace
    errs = [frobenius_sq_residual(m, *nmf(m, 4, t, make_rng(1)))
            for t in range(1, 12)]
    for prev, cur in zip(errs, errs[1:]):
        assert cur <= prev + 1e-9 * max(abs(prev), 1.0)


class _ProductCounted(sp.csr_matrix):
    """Counts its products with dense matrices in the shared list `products`."""

    products: list

    def __matmul__(self, other):
        self.products.append(1)
        return super().__matmul__(other)


def test_nmf_runs_exactly_iters_passes():
    # each pass forms one product with m^T (for q) and one with m (for p)
    m = make_rng(3).uniform(0.0, 2.0, size=(12, 9))
    runs = []
    for passes in (1, 2, 3, 4):
        counted = _ProductCounted(m), _ProductCounted(m.T)
        products = counted[0].products = counted[1].products = []
        runs.append(nmf_init(counted[0], 3, passes, make_rng(4), counted[1]))
        assert len(products) == 2 * passes
    for (p1, q1), (p2, q2) in itertools.combinations(runs, 2):
        assert not np.array_equal(p1, p2) and not np.array_equal(q1, q2)


@pytest.mark.parametrize("kind", ["sparse", "dense"])
def test_nmf_error_matches_plain_mu(kind):
    if kind == "sparse":
        m = sp.random(600, 300, density=0.05, random_state=1, format="csr",
                      data_rvs=np.ones)
        k = 10
    else:
        rng = make_rng(3)
        m = rng.uniform(0, 1, (200, 5)) @ rng.uniform(0, 1, (5, 80))
        m += rng.uniform(0, 0.3, (200, 80))
        k = 6
    for passes in (7, 67):  # each pass applies 3 updates per factor
        err = frobenius_sq_residual(m, *nmf(m, k, passes, make_rng(0)))
        ref = frobenius_sq_residual(m, *reference_nmf_mu(m, k, 3 * passes, make_rng(0)))
        assert err == pytest.approx(ref, rel=0.01)


def test_nmf_nonneg_deterministic_sparse_matches_dense():
    rng = make_rng(2)
    dense = np.where(rng.random((10, 8)) < 0.4, rng.uniform(0.1, 2.0, (10, 8)), 0.0)
    p1, q1 = nmf(dense, 3, 14, make_rng(5))
    p2, q2 = nmf(dense, 3, 14, make_rng(5))
    assert np.array_equal(p1, p2) and np.array_equal(q1, q2)
    assert (p1 >= 0).all() and (q1 >= 0).all()
    ps, qs = nmf(dense, 3, 14, make_rng(5))
    assert np.allclose(p1, ps, atol=1e-12) and np.allclose(q1, qs, atol=1e-12)


def test_nmf_bag_of_words_scale():
    # large sparse text-matrix shape: 3477 x 3703 at rank 18 stays finite
    rng = make_rng(4)
    n, d, nnz = 3477, 3703, 30000
    rows = rng.integers(0, n, size=nnz)
    cols = rng.integers(0, d, size=nnz)
    m = sp.csr_matrix((np.ones(nnz), (rows, cols)), shape=(n, d))
    m.sum_duplicates()
    m.data[:] = 1.0
    p, q = nmf(m, 18, 9, make_rng(0))
    assert np.isfinite(p).all() and np.isfinite(q).all()
    assert (p >= 0).all() and (q >= 0).all()


def test_frobenius_exact_factorization():
    rng = make_rng(6)
    p = rng.normal(size=(5, 2))
    q = rng.normal(size=(2, 4))
    assert frobenius_sq_residual(p @ q, p, q) == pytest.approx(0.0, abs=1e-18)


def test_frobenius_scalar_case():
    assert frobenius_sq_residual(np.array([[2.0]]), np.array([[1.0]]),
                                 np.array([[1.0]])) == 1.0


def test_frobenius_matches_triple_loop():
    rng = make_rng(7)
    m = rng.normal(size=(5, 4))
    p = rng.normal(size=(5, 3))
    q = rng.normal(size=(3, 4))
    naive = 0.0
    for i in range(5):
        for j in range(4):
            pred = sum(p[i, k] * q[k, j] for k in range(3))
            naive += (m[i, j] - pred) ** 2
    assert frobenius_sq_residual(m, p, q) == pytest.approx(naive, abs=1e-12)


def test_frobenius_dimension_mismatch():
    with pytest.raises(ValueError):
        frobenius_sq_residual(np.ones((3, 3)), np.ones((3, 2)), np.ones((2, 4)))


def sq_residuals(m, p, q):
    """row_sq_residuals with its norms, product and Gram formed here."""
    return row_sq_residuals(p, q @ q.T, row_sq_norms(m), np.asarray(m @ q.T))


def test_row_sq_residuals_match_a_dense_reference():
    rng = make_rng(8)
    n, d, k = 1500, 6, 3
    p = rng.normal(size=(n, k))
    q = rng.normal(size=(k, d))
    m = sp.csr_matrix(np.where(rng.random((n, d)) < 0.2, 1.0, 0.0))
    full = to_dense(m) - p @ q
    want = (full ** 2).sum(axis=1)
    assert np.allclose(sq_residuals(m, p, q), want, rtol=1e-12, atol=1e-12)


def test_row_sq_norms_and_residuals_of_empty_rows():
    rng = make_rng(10)
    n, d, k = 300, 50, 5
    m = sp.random(n, d, density=0.1, format="csr", random_state=np.random.default_rng(3))
    m = sp.csr_matrix(sp.diags((rng.random(n) < 0.8).astype(float)) @ m)
    m.eliminate_zeros()  # about 20 % of the rows are empty
    empty = np.diff(m.indptr) == 0
    assert empty.sum() > 20
    p = rng.normal(size=(n, k))
    q = rng.normal(size=(k, d))
    norms = row_sq_norms(m)
    assert (norms[empty] == 0).all() and (norms[~empty] > 0).all()
    want = ((to_dense(m) - p @ q) ** 2).sum(axis=1)  # an empty row's is ||p_i q||^2
    assert np.allclose(sq_residuals(m, p, q), want, rtol=1e-12, atol=1e-12)


def _sparse_with_empty_rows(rng, n, d):
    """A CSR with about a fifth of its rows empty and rows of up to d
    entries, long enough for the pairwise sum's blocks."""
    dense = np.where(rng.random((n, d)) < rng.random((n, 1)) ** 2, 1.0, 0.0)
    dense[rng.random(n) < 0.2] = 0.0
    m = sp.csr_matrix(dense)
    assert (np.diff(m.indptr) == 0).sum() > n // 10 and np.diff(m.indptr).max() > 128
    return m


@pytest.mark.parametrize("case", ["ten-decades", "unit", "adjacency", "attributes"])
def test_row_sq_norms_equal_the_multiply_formula_bit_for_bit(case):
    rng = make_rng(31)
    if case in ("adjacency", "attributes"):  # as fit receives them
        net = synth_network(300, 3, 0.05, 0.005, 120, 0.9, seed=4)
        m = getattr(seed_outliers(net, SeedingPlan(total_fraction=0.05, seed=4)).network, case)
    else:
        m = _sparse_with_empty_rows(rng, 300, 400)
        if case == "ten-decades":
            m.data = 10.0 ** rng.uniform(-5, 5, m.nnz) * rng.choice([-1.0, 1.0], m.nnz)
    got = row_sq_norms(m)
    want = reference_row_sq_norms(m)
    assert got.dtype == want.dtype and got.shape == want.shape == (m.shape[0],)
    assert got.tobytes() == want.tobytes()


def test_row_sq_norms_with_stored_zeros_stay_within_rounding():
    # multiply drops a stored zero and the reduction keeps it, which can
    # regroup the pairwise sum; AttributedNetwork never stores one
    rng = make_rng(32)
    m = _sparse_with_empty_rows(rng, 300, 400)
    m.data = rng.uniform(0.1, 10.0, m.nnz) * (rng.random(m.nnz) < 0.7)
    assert (m.data == 0).sum() > m.nnz // 5
    want = reference_row_sq_norms(m)
    np.testing.assert_allclose(row_sq_norms(m), want, rtol=1e-14, atol=0.0)
    assert np.array_equal(row_sq_norms(m) == 0, want == 0)


def test_row_sq_norms_peak_allocation_below_the_matrix():
    # one nnz-long vector of squares, not a copy of m (2 x m's bytes before)
    m = sp.random(2000, 500, density=0.05, format="csr", random_state=np.random.default_rng(5))
    own = m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
    tracemalloc.start()
    try:
        row_sq_norms(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < own


def test_row_sq_residuals_sparse_cancellation():
    rng = make_rng(9)
    n, d, k = 200, 40, 4
    p = rng.uniform(0.5, 2.0, size=(n, k))
    q = np.where(rng.random((k, d)) < 0.3, rng.uniform(0.5, 2.0, size=(k, d)), 0.0)
    m = p @ q  # rows 0..149 are fitted exactly by p @ q
    m[150:190] += np.where(rng.random((40, d)) < 0.2, 1e-6, 0.0)
    m[190:195] = 0.0  # all-zero rows of m
    p[195:] = 0.0  # zero rows of p
    got = sq_residuals(sp.csr_matrix(m), p, q)
    fit = p @ q
    want = ((m - fit) ** 2).sum(axis=1)
    scale = (m ** 2).sum(axis=1) + (fit ** 2).sum(axis=1)
    assert (got >= 0).all()
    assert (np.abs(got - want) <= 1e-12 * scale).all()


def test_row_sq_residuals_read_rounding_noise_as_zero():
    # rows that p @ q reproduces exactly, over six decades of scale, leave only
    # cancellation noise in the Gram form; a row 1e-5 off keeps its residual
    rng = make_rng(12)
    n, d, k = 300, 40, 4
    p = rng.uniform(0.5, 2.0, size=(n, k)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    q = np.where(rng.random((k, d)) < 0.3, rng.uniform(0.5, 2.0, size=(k, d)), 0.0)
    m = p @ q
    m[-1] += np.where(q[0] > 0, 1e-5, 0.0) * np.abs(m[-1]).max()
    got = sq_residuals(sp.csr_matrix(m), p, q)
    assert (got[:-1] == 0).all()
    want = ((m[-1] - p[-1] @ q) ** 2).sum()
    assert want > 0 and got[-1] == pytest.approx(want, rel=1e-3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_row_sq_residuals_keep_an_overflow_non_finite():
    # the noise bound of an overflowing row is inf too, and inf <= inf once
    # read the overflow as an exact fit; the finite rows keep their values
    q = np.array([[1.0, 1.0]])
    got = sq_residuals(sp.csr_matrix([[1.0, 2.0], [3.0, 4.0]]), np.array([[1e160], [1.0]]), q)
    assert got[0] == np.inf and got[1] == 13.0
    got = sq_residuals(sp.csr_matrix([[1e200, 0.0], [3.0, 4.0]]), np.zeros((2, 1)), q)
    assert got[0] == np.inf and got[1] == 25.0  # ||m_0||^2 overflows, p fits nothing


def test_package_never_densifies_sparse_matrices():
    # the sparse paths (adjacency, CSR attributes) must stay O(nnz) in memory
    sources = sorted(Path(oaembed.__file__).parent.glob("*.py"))
    assert {"core.py", "numerics.py"} <= {path.name for path in sources}
    calls = [f"{path.name}:{no}" for path in sources
             for no, line in enumerate(path.read_text().splitlines(), 1)
             if re.search(r"\.\s*(toarray|todense)\s*\(", line)]
    assert calls == []


def _file_calls(tree, module: str):
    """(module, enclosing function, call kind) for every call that opens a
    file (kind 'read' or 'write'; a mode that is not a constant counts as
    'write') or writes through pathlib or creates a directory."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "open":
                mode = node.args[1] if len(node.args) > 1 else next(
                    (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
                reads = isinstance(mode, ast.Constant) and not set(mode.value) & set("wax+")
                found.append((module, func, "read" if reads else "write"))
            elif name in ("makedirs", "mkdir", "write_text", "write_bytes"):
                found.append((module, func, name))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_package_writes_files_only_through_write_lines():
    # one output rule (encoding, line endings, directory creation) for every file
    calls = [call for path in sorted(Path(oaembed.__file__).parent.glob("*.py"))
             for call in _file_calls(ast.parse(path.read_text()), path.name)]
    assert ("tables.py", "_data_lines", "read") in calls  # the scanner sees open()
    assert [c for c in calls if c[2] != "read"] == [("tables.py", "_write_lines", "makedirs"),
                                                     ("tables.py", "_write_lines", "write")]


def test_file_call_scanner_flags_every_way_to_write():
    tree = ast.parse(
        "def f(p, m):\n"
        "    open(p)\n    open(p, 'rb')\n    open(p, encoding='utf-8')\n"
        "    open(p, 'w')\n    open(p, mode='a')\n    open(p, 'r+')\n    open(p, m)\n"
        "    os.makedirs(p)\n    p.mkdir()\n    p.write_text('x')\n")
    kinds = [kind for _, func, kind in _file_calls(tree, "m.py") if func == "f"]
    assert kinds == ["read"] * 3 + ["write"] * 4 + ["makedirs", "mkdir", "write_text"]


def _concurrency_imports(tree) -> list[str]:
    """Every module an import names, at any depth, whose top-level package
    runs work on other threads or processes."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names
            if name.split(".")[0] in ("threading", "_thread", "concurrent", "multiprocessing")]


def test_package_starts_no_threads_or_processes():
    # BLAS is the only parallelism: threads over nmf_init and over the sparse
    # products were measured and rejected, and evaluate_all on one thread at
    # 200 descent steps beat its old pool at 500
    found = [(path.name, name) for path in sorted(Path(oaembed.__file__).parent.glob("*.py"))
             for name in _concurrency_imports(ast.parse(path.read_text()))]
    assert found == []


def test_concurrency_import_scanner_sees_every_spelling():
    tree = ast.parse(
        "import json, threading\nimport concurrent.futures as cf\n"
        "from concurrent.futures import ThreadPoolExecutor\nfrom concurrent import futures\n"
        "from collections import deque\nfrom . import numerics\n"
        "def f():\n    import multiprocessing.pool\n    from _thread import get_ident\n")
    assert sorted(_concurrency_imports(tree)) == [
        "_thread", "concurrent", "concurrent.futures", "concurrent.futures",
        "multiprocessing.pool", "threading"]


# the kernels fit, evaluate_all and seed_outliers call, per module: each
# input is checked once, where it enters (AttributedNetwork, HyperParams,
# fit; evaluate_all and its splits; _ClassStats), so none of them re-checks
# it; budget_scores, fit, evaluate_all and seed_outliers stay the checked entries
FIT_KERNELS = {
    "core.py": ("_score_weights", "_residuals", "_loss_terms", "_joint", "_loss_ratios",
                "_cd_sweep", "update_alignment", "update_struct_embed", "update_struct_context",
                "update_attr_embed", "update_attr_basis", "_solve_scores", "_final_embedding"),
    "numerics.py": ("nmf_init", "row_sq_norms", "row_sq_residuals", "svd_small"),
    "evaluation.py": ("_train_stack", "_descend", "_max_matching"),
    "seeding.py": ("_draw_degree", "_draw_attributes"),
}


def _raises_by_function(tree) -> dict[str, bool]:
    """Whether each top-level function holds a raise statement anywhere in
    its body, nested blocks and definitions included."""
    return {node.name: any(isinstance(sub, ast.Raise) for sub in ast.walk(node))
            for node in tree.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def test_fit_kernels_raise_nothing():
    root = Path(oaembed.__file__).parent
    raising = []
    for module, kernels in FIT_KERNELS.items():
        raises = _raises_by_function(ast.parse((root / module).read_text()))
        assert set(kernels) <= set(raises), f"{module} no longer defines a listed kernel"
        raising += [f"{module}:{name}" for name in kernels if raises[name]]
    assert raising == []


def test_raise_scanner_sees_every_nesting():
    tree = ast.parse(
        "def a(x):\n    return x\n"
        "def b(x):\n    if x:\n        raise ValueError(x)\n"
        "def c(x):\n    try:\n        x()\n    except KeyError:\n        raise\n"
        "def d(x):\n    def inner():\n        raise TypeError\n    return inner\n"
        "async def e(x):\n    with x:\n        for _ in x:\n            raise x\n"
        "def f(x):\n    assert x\n    return [y for y in x if y]\n"
        "class G:\n    def h(self):\n        raise ValueError\n")
    assert _raises_by_function(tree) == {"a": False, "b": True, "c": True, "d": True,
                                         "e": True, "f": False}


def _parameters(node) -> set[str]:
    args = node.args
    return {arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                args.vararg, args.kwarg) if arg is not None}


def _loads(node, names: set[str]) -> set[str]:
    """The names of `names` that node loads. A nested function or lambda that
    takes one as its own parameter hides it in its body, not in its
    defaults and decorators, which run in the enclosing scope."""
    if isinstance(node, ast.Name):
        return names & {node.id} if isinstance(node.ctx, ast.Load) else set()
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        outer = [*node.args.defaults, *filter(None, node.args.kw_defaults),
                 *getattr(node, "decorator_list", [])]
        body = node.body if isinstance(node.body, list) else [node.body]
        inner = names - _parameters(node)
        return set().union(*(_loads(n, names) for n in outer), *(_loads(n, inner) for n in body))
    return set().union(*(_loads(child, names) for child in ast.iter_child_nodes(node)))


def _unread_parameters(tree) -> list[str]:
    """'function (parameter)' for every parameter of every function and lambda
    in tree that its body never loads; self and cls are exempt, and a
    parameter only passed on to another call is read."""
    unread = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            params = _parameters(node) - {"self", "cls"}
            body = node.body if isinstance(node.body, list) else [node.body]
            read = set().union(*(_loads(n, params) for n in body))
            unread += [f"{getattr(node, 'name', '<lambda>')} ({name})"
                       for name in sorted(params - read)]
    return unread


def test_package_functions_read_every_parameter():
    # a parameter no code reads is a second apparent source of the value it
    # names, which a reader has to rule out
    unread = [f"{path.name}:{entry}"
              for path in sorted(Path(oaembed.__file__).parent.glob("*.py"))
              for entry in _unread_parameters(ast.parse(path.read_text()))]
    assert unread == []


def test_unread_parameter_scanner_sees_closures_lambdas_and_star_args():
    tree = ast.parse(
        "def a(x, y):\n    return x\n"
        "def b(x):\n    def inner():\n        return x\n    return inner\n"
        "def c(x, y=None):\n    def inner(x, z=y):\n        return x, z\n    return inner\n"
        "def d(*args, **kwargs):\n    return args\n"
        "def e(*args, **kwargs):\n    return a(*args, **kwargs)\n"
        "f = lambda x, y: x\n"
        "g = lambda x: lambda: x\n"
        "class H:\n    def m(self, x):\n        return x\n"
        "    @classmethod\n    def n(cls, x):\n        del x\n")
    assert sorted(_unread_parameters(tree)) == ["<lambda> (y)", "a (y)", "c (x)",
                                                "d (kwargs)", "n (x)"]


# a number or a range of numbers followed by a unit of time or memory
_MEASURED = re.compile(r"\d[\d.]*(?:\s*[-–]\s*\d[\d.]*)?\s*(?:ms|µs|us|s|KB|MB|GB)\b")


def _measured_figures(source: str, module: str) -> list[str]:
    """module:line of every docstring line and comment that quotes a measured
    figure; string literals that are not docstrings are code, not prose."""
    lines = source.splitlines()
    found = {tok.start[0] for tok in tokenize.generate_tokens(io.StringIO(source).readline)
             if tok.type == tokenize.COMMENT and _MEASURED.search(tok.string)}
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node) is not None):
            doc = node.body[0]
            found.update(no for no in range(doc.lineno, doc.end_lineno + 1)
                         if _MEASURED.search(lines[no - 1]))
    return [f"{module}:{no}" for no in sorted(found)]


def test_package_docstrings_and_comments_quote_no_measurements():
    # timings and memory figures go stale; they belong in CHANGES.md and the
    # BENCH_*.json files, and the code states what it promises
    found = [hit for path in sorted(Path(oaembed.__file__).parent.glob("*.py"))
             for hit in _measured_figures(path.read_text(), path.name)]
    assert found == []


def test_measured_figure_scanner_sees_every_unit():
    source = ('"""Takes 0.35-0.39 s."""\n'
              'def f():\n    """82–112 ms, 3 µs or 40 us."""\n'
              '    x = 1  # held 4.4 MB more\n'
              '    # 2 KB, then 1.5GB\n'
              '    return "5 s"  # 10 seeds, 3 sets, s1 at K = 2\n'
              'class C:\n    """1 s\n\n    and 2 us"""\n')
    assert _measured_figures(source, "m.py") == ["m.py:1", "m.py:3", "m.py:4", "m.py:5",
                                                 "m.py:8", "m.py:10"]


def test_package_modules_have_no_unused_imports():
    # deletions tend to leave imports behind; __init__.py re-exports on purpose
    unused = []
    for path in sorted(Path(oaembed.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if isinstance(stmt, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in stmt.names]
            elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
                bound = [a.asname or a.name for a in stmt.names]
            else:
                continue
            unused += [f"{path.name}:{stmt.lineno} {name}" for name in bound
                       if name not in used]
    assert unused == []


def _defined(stmt) -> list[str]:
    """Names a module-level statement defines: a function, a class or assigned names."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def _reads(tree) -> set[str]:
    """Names a syntax tree reads: loaded names, attribute names and from-imports."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_package_private_definitions_are_referenced():
    # a module-level _function, _Class or _CONSTANT that nothing else in the
    # package reads is dead code left behind by a deletion; a read inside its
    # own definition (a recursive call, a classmethod) does not count
    stmts = [(path.name, stmt)
             for path in sorted(Path(oaembed.__file__).parent.glob("*.py"))
             for stmt in ast.parse(path.read_text()).body]
    reads = [_reads(stmt) for _, stmt in stmts]
    orphans = [f"{name}:{stmt.lineno} {ident}" for t, (name, stmt) in enumerate(stmts)
               for ident in _defined(stmt)
               if ident.startswith("_") and not ident.startswith("__")
               and not any(ident in r for u, r in enumerate(reads) if u != t)]
    assert orphans == []


def test_every_test_helper_has_a_reader():
    # an oracle in tests/helpers.py that no test module and no other helper
    # reads was left behind by a test rewrite
    here = Path(__file__).parent
    helpers = ast.parse((here / "helpers.py").read_text())
    read = set().union(*(_reads(ast.parse(path.read_text()))
                         for path in sorted(here.glob("test_*.py"))))
    for stmt in helpers.body:
        read |= _reads(stmt) - set(_defined(stmt))
    orphans = [f"helpers.py:{stmt.lineno} {ident}" for stmt in helpers.body
               for ident in _defined(stmt) if ident not in read]
    assert orphans == []

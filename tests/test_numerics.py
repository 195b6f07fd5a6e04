import numpy as np
import pytest
import scipy.sparse as sp

from helpers import frobenius_sq_residual, jacobi_eigvals, to_dense
from oaembed.numerics import (as_dense, as_sparse, make_rng, named_rng, nmf_init,
                              row_sq_residuals, svd_small)


def test_make_rng_reproducible():
    a = make_rng(42).random(8)
    b = make_rng(42).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, make_rng(43).random(8))


def test_named_rng_substreams():
    a = named_rng(7, "alpha").random(8)
    assert np.array_equal(a, named_rng(7, "alpha").random(8))
    assert not np.array_equal(a, named_rng(7, "beta").random(8))
    assert not np.array_equal(a, named_rng(8, "alpha").random(8))


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


def test_svd_identity():
    res = svd_small(np.eye(3))
    assert np.allclose(res.x, np.eye(3), atol=1e-12)
    assert np.allclose(res.sigma, np.ones(3), atol=1e-12)
    assert np.allclose(res.y, np.eye(3), atol=1e-12)


def test_svd_diagonal():
    res = svd_small(np.diag([3.0, 2.0]))
    assert np.allclose(res.sigma, [3.0, 2.0], atol=1e-12)
    # singular vectors are signed permutations of the identity columns
    assert np.allclose(np.abs(res.x), np.eye(2), atol=1e-12)
    assert np.allclose(np.abs(res.y), np.eye(2), atol=1e-12)
    assert np.allclose(res.reconstruct(), np.diag([3.0, 2.0]), atol=1e-12)


def _check_svd(m):
    res = svd_small(m)
    k = m.shape[0]
    assert np.abs(res.x.T @ res.x - np.eye(k)).max() < 1e-9
    assert np.abs(res.y.T @ res.y - np.eye(k)).max() < 1e-9
    assert (res.sigma >= 0).all()
    assert (np.diff(res.sigma) <= 1e-12).all()
    scale = max(np.linalg.norm(m), 1e-30)
    assert np.linalg.norm(res.reconstruct() - m) <= 1e-8 * scale
    return res


def test_svd_random_reconstruction_and_eigen_crosscheck():
    rng = make_rng(5)
    m = rng.normal(size=(4, 4))
    res = _check_svd(m)
    # independent oracle: squared singular values = eigenvalues of m.T @ m
    eig = jacobi_eigvals(m.T @ m)
    assert np.allclose(res.sigma ** 2, np.clip(eig, 0.0, None),
                       rtol=1e-8, atol=1e-10)


def test_svd_many_shapes():
    rng = make_rng(11)
    for k in (1, 2, 3, 5, 8):
        _check_svd(rng.normal(size=(k, k)))
        _check_svd(rng.normal(size=(k, k)) * 1e-6)


def test_svd_rank_deficient():
    u = np.array([1.0, 2.0, -1.0])
    v = np.array([0.5, 1.0, 3.0])
    res = _check_svd(np.outer(u, v))
    assert res.sigma[1] == 0.0 and res.sigma[2] == 0.0


def test_svd_zero_matrix():
    res = _check_svd(np.zeros((3, 3)))
    assert (res.sigma == 0).all()


def test_svd_deterministic_and_sign_convention():
    rng = make_rng(3)
    m = rng.normal(size=(5, 5))
    a = svd_small(m)
    b = svd_small(m)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.sigma, b.sigma)
    assert np.array_equal(a.y, b.y)
    for j in range(5):
        i = int(np.argmax(np.abs(a.x[:, j])))
        assert a.x[i, j] > 0


def test_svd_input_errors():
    with pytest.raises(ValueError):
        svd_small(np.ones((2, 3)))
    with pytest.raises(ValueError):
        svd_small(np.array([[np.nan]]))


def test_nmf_rank_one_recovery():
    p = np.array([1.0, 2.0, 0.5, 3.0])
    q = np.array([0.2, 1.5, 0.7])
    m = np.outer(p, q)
    fp, fq = nmf_init(m, 1, 200, make_rng(0))
    err = frobenius_sq_residual(m, fp, fq)
    assert np.sqrt(err) / np.linalg.norm(m) < 1e-3


def test_nmf_zero_matrix():
    p, q = nmf_init(np.zeros((4, 3)), 2, 50, make_rng(0))
    assert (p >= 0).all() and (q >= 0).all()
    assert frobenius_sq_residual(np.zeros((4, 3)), p, q) == pytest.approx(0.0, abs=1e-12)


def test_nmf_monotone_error():
    rng = make_rng(9)
    m = rng.uniform(0.0, 2.0, size=(15, 12))
    # same seed means run t is a prefix of run t+1, giving the per-sweep trace
    errs = [frobenius_sq_residual(m, *nmf_init(m, 4, t, make_rng(1)))
            for t in range(1, 12)]
    for prev, cur in zip(errs, errs[1:]):
        assert cur <= prev + 1e-9 * max(abs(prev), 1.0)


def test_nmf_nonneg_deterministic_sparse_matches_dense():
    rng = make_rng(2)
    dense = np.where(rng.random((10, 8)) < 0.4, rng.uniform(0.1, 2.0, (10, 8)), 0.0)
    p1, q1 = nmf_init(dense, 3, 40, make_rng(5))
    p2, q2 = nmf_init(dense, 3, 40, make_rng(5))
    assert np.array_equal(p1, p2) and np.array_equal(q1, q2)
    assert (p1 >= 0).all() and (q1 >= 0).all()
    ps, qs = nmf_init(sp.csr_matrix(dense), 3, 40, make_rng(5))
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
    p, q = nmf_init(m, 18, 25, make_rng(0))
    assert np.isfinite(p).all() and np.isfinite(q).all()
    assert (p >= 0).all() and (q >= 0).all()


def test_nmf_input_errors():
    with pytest.raises(ValueError):
        nmf_init(np.array([[1.0, -0.5]]), 1, 10, make_rng(0))
    with pytest.raises(ValueError):
        nmf_init(np.ones((3, 3)), 4, 10, make_rng(0))
    with pytest.raises(ValueError):
        nmf_init(np.ones((3, 3)), 1, 0, make_rng(0))


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


def test_row_sq_residuals_dense_and_sparse_blocked():
    rng = make_rng(8)
    n, d, k = 1500, 6, 3  # crosses the sparse row-block boundary
    p = rng.normal(size=(n, k))
    q = rng.normal(size=(k, d))
    dense = np.where(rng.random((n, d)) < 0.2, 1.0, 0.0)
    m = sp.csr_matrix(dense)
    got_dense = row_sq_residuals(dense, p, q)
    got_sparse = row_sq_residuals(m, p, q)
    full = to_dense(m) - p @ q
    want = (full ** 2).sum(axis=1)
    assert np.allclose(got_dense, want, rtol=1e-12, atol=1e-12)
    assert np.allclose(got_sparse, want, rtol=1e-12, atol=1e-12)


def test_row_sq_residuals_sparse_cancellation():
    rng = make_rng(9)
    n, d, k = 200, 40, 4
    p = rng.uniform(0.5, 2.0, size=(n, k))
    q = np.where(rng.random((k, d)) < 0.3, rng.uniform(0.5, 2.0, size=(k, d)), 0.0)
    m = p @ q  # rows 0..149 are fitted exactly by p @ q
    m[150:190] += np.where(rng.random((40, d)) < 0.2, 1e-6, 0.0)
    m[190:195] = 0.0  # all-zero rows of m
    p[195:] = 0.0  # zero rows of p
    got = row_sq_residuals(sp.csr_matrix(m), p, q)
    fit = p @ q
    want = ((m - fit) ** 2).sum(axis=1)
    scale = (m ** 2).sum(axis=1) + (fit ** 2).sum(axis=1)
    assert (got >= 0).all()
    assert (np.abs(got - want) <= 1e-12 * scale).all()

"""Shared numeric kernels: seeded RNG streams, matrix validation, small-matrix
SVD, multiplicative-update factorization, and squared-residual reductions
(sparse rows by Gram expansion, clamped at 0, so nothing densifies).

Dense matrices are plain float64 ndarrays; sparse matrices are scipy CSR with
strictly positive weights. Everything here is a pure function of its inputs
(plus an explicit generator), so reruns with the same seed are bit-identical.
"""

import zlib
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

_DIV_FLOOR = 1e-12  # multiplicative-update denominator floor


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; identical streams for identical seeds on all platforms."""
    return np.random.default_rng(seed)


def named_rng(seed: int, label: str) -> np.random.Generator:
    """Independent substream derived from a master seed and a purpose label."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), zlib.crc32(label.encode("utf-8"))]))


def as_dense(m, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-D float64 array with finite entries."""
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_sparse(m, name: str = "matrix") -> sp.csr_matrix:
    """Validate and return a CSR matrix with finite, strictly positive weights.

    Duplicate (row, col) entries are rejected rather than summed: callers build
    matrices from deduplicated edge sets and silent summing would hide bugs.
    """
    coo = sp.coo_matrix(m)
    if coo.nnz:
        if not np.isfinite(coo.data).all():
            raise ValueError(f"{name} contains non-finite weights")
        if (coo.data <= 0).any():
            raise ValueError(f"{name} contains non-positive weights")
        keys = coo.row.astype(np.int64) * coo.shape[1] + coo.col
        if np.unique(keys).size != coo.nnz:
            raise ValueError(f"{name} contains duplicate (row, col) entries")
    out = coo.tocsr()
    out.data = out.data.astype(np.float64)
    out.sort_indices()
    return out


@dataclass(frozen=True)
class SvdResult:
    """Full SVD of a square matrix: x @ diag(sigma) @ y.T reconstructs the input."""

    x: np.ndarray      # left singular vectors, orthonormal columns
    sigma: np.ndarray  # singular values, non-increasing, >= 0
    y: np.ndarray      # right singular vectors, orthonormal columns

    def reconstruct(self) -> np.ndarray:
        return (self.x * self.sigma) @ self.y.T


def svd_small(m) -> SvdResult:
    """Full SVD of a small square matrix by LAPACK (numpy.linalg.svd).

    Intended for the K x K cross-products of the alignment step. Singular
    values at or below k * eps * sigma_max are set to exactly 0. Column signs
    are fixed so the largest-magnitude component of each left singular vector
    is positive, making the output deterministic for testing.
    """
    a = as_dense(m, "svd input")
    k = a.shape[0]
    if a.shape[1] != k:
        raise ValueError(f"svd_small requires a square matrix, got {a.shape}")
    if k < 1:
        raise ValueError("svd_small requires at least a 1x1 matrix")

    x, sigma, yt = np.linalg.svd(a)
    cutoff = k * np.finfo(np.float64).eps * (sigma[0] if sigma[0] > 0 else 1.0)
    sigma[sigma <= cutoff] = 0.0
    # Sign convention: dominant component of each left vector positive.
    flip = np.where(x[np.argmax(np.abs(x), axis=0), np.arange(k)] < 0, -1.0, 1.0)
    return SvdResult(x=x * flip, sigma=sigma, y=yt.T * flip)


def nmf_init(m, k: int, iters: int, rng: np.random.Generator):
    """Nonnegative factorization m ~ p @ q by multiplicative updates.

    Factors start uniform in (0.1, 1.0) from the given generator; denominators
    are floored at 1e-12 so exact zeros cannot divide. The Frobenius
    reconstruction error is non-increasing over sweeps. Accepts dense arrays
    or scipy sparse matrices; the sparse path never densifies m.
    """
    dense = not sp.issparse(m)
    if dense:
        m = as_dense(m, "factorization input")
        if (m < 0).any():
            raise ValueError("factorization input must be nonnegative")
    else:
        if m.nnz and (m.data < 0).any():
            raise ValueError("factorization input must be nonnegative")
    n, d = m.shape
    if not 1 <= k <= min(n, d):
        raise ValueError(f"rank k={k} out of range for shape {m.shape}")
    if iters < 1:
        raise ValueError("iters must be >= 1")

    p = rng.uniform(0.1, 1.0, size=(n, k))
    q = rng.uniform(0.1, 1.0, size=(k, d))
    for _ in range(iters):
        q *= np.asarray(m.T @ p).T / np.maximum((p.T @ p) @ q, _DIV_FLOOR)
        p *= np.asarray(m @ q.T) / np.maximum(p @ (q @ q.T), _DIV_FLOOR)
    return p, q


def row_sq_residuals(m, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per-row squared reconstruction error: out[i] = sum_j (m[i,j] - (p@q)[i,j])^2.

    Dense m is subtracted from p @ q. Sparse m is never densified: out[i] =
    ||m_i||^2 - 2 p_i.(m q^T)_i + p_i (q q^T) p_i^T, clamped at 0 against
    cancellation on rows that p @ q fits almost exactly.
    """
    n, d = m.shape
    if p.shape[0] != n or q.shape[1] != d or p.shape[1] != q.shape[0]:
        raise ValueError(f"non-conformal shapes: m {m.shape}, p {p.shape}, q {q.shape}")
    if not sp.issparse(m):
        r = p @ q - m
        return np.einsum("ij,ij->i", r, r)
    norms = np.asarray(m.multiply(m).sum(axis=1)).ravel()
    cross = np.einsum("ij,ij->i", p, np.asarray(m @ q.T))
    fit = np.einsum("ij,ij->i", p @ (q @ q.T), p)
    return np.maximum(norms - 2.0 * cross + fit, 0.0)

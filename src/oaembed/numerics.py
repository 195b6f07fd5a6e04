"""Shared numeric kernels: seeded RNG streams, matrix validation, small-matrix
SVD, multiplicative-update factorization, and the sparse squared-residual
reduction (rows by Gram expansion with a noise floor, so nothing densifies).

Dense matrices are plain float64 ndarrays; sparse matrices are scipy CSR with
sorted indices and no duplicate entries (adjacencies: strictly positive
weights; attributes: no explicit zeros). Everything here is a pure function
of its inputs (plus an explicit generator), so reruns with the same seed are
bit-identical.
"""

import zlib
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError

_DIV_FLOOR = 1e-12  # multiplicative-update denominator floor


def check_integer(value, name: str):
    """Raise ConfigError unless value is a Python or numpy integer; bool and
    float values are rejected, not truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; identical streams for identical seeds on all platforms."""
    check_integer(seed, "seed")
    return np.random.default_rng(seed)


def named_rng(seed: int, label: str) -> np.random.Generator:
    """Independent substream derived from a master seed and a purpose label."""
    check_integer(seed, "seed")
    return np.random.default_rng(np.random.SeedSequence([int(seed), zlib.crc32(label.encode("utf-8"))]))


def as_dense(m, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-D float64 array with finite entries."""
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class Handoff:
    """A float64 CSR matrix built inside this package and handed on whole.

    as_csr and as_sparse validate a wrapped matrix in full but canonicalise
    it in place instead of copying it. Only a matrix that nothing else refers
    to may be wrapped; a caller's matrix never is, so it is never edited and
    never aliased.
    """

    matrix: sp.csr_matrix

    def __post_init__(self):
        if self.matrix.format != "csr" or self.matrix.dtype != np.float64:
            raise TypeError("Handoff takes a float64 CSR matrix")


def _canonical_csr(m, name: str) -> sp.csr_matrix:
    """float64 CSR with sorted indices and finite entries: a copy of m (a
    sparse matrix or any 2-D array-like), or a Handoff's own matrix
    canonicalised in place.

    Duplicate (row, col) entries are rejected rather than summed: callers
    build matrices from deduplicated sets and silent summing would hide bugs.
    Converting COO to CSR, and sum_duplicates on a non-canonical CSR, merge
    duplicates and drop nothing else, so the stored count falls exactly when
    there were some. A CSR that is already canonical is only checked (an
    O(nnz) pass), never sorted.
    """
    if isinstance(m, Handoff):
        out, stored = m.matrix, m.matrix.nnz
    elif sp.issparse(m):
        out, stored = sp.csr_matrix(m, dtype=np.float64, copy=True), m.nnz
    else:  # csr_matrix would read a 1-D vector as one row; as_dense rejects it
        out, stored = sp.csr_matrix(as_dense(m, name)), None
    out.sum_duplicates()
    if stored is not None and out.nnz < stored:
        raise ValueError(f"{name} contains duplicate (row, col) entries")
    if not np.isfinite(out.data).all():
        raise ValueError(f"{name} contains non-finite entries")
    return out


def as_sparse(m, name: str = "matrix") -> sp.csr_matrix:
    """Validate and return a canonical CSR matrix with finite, strictly
    positive weights and no duplicate (row, col) entries."""
    out = _canonical_csr(m, name)
    if (out.data <= 0).any():
        raise ValueError(f"{name} contains non-positive weights")
    return out


def as_csr(m, name: str = "matrix") -> sp.csr_matrix:
    """Validate and return a canonical CSR matrix with finite entries, no
    duplicate (row, col) entries and no explicit zeros."""
    out = _canonical_csr(m, name)
    out.eliminate_zeros()
    return out


def svd_small(m):
    """Full SVD of a small square matrix by LAPACK: numpy.linalg.svd's
    (x, sigma, yt), with x @ diag(sigma) @ yt reconstructing the input.

    Intended for the K x K cross-products of the alignment step, which reads
    only the orthogonal product x @ yt; sigma is as LAPACK returns it and the
    column signs are LAPACK's. m is K x K with K >= 1, as fit's dim check
    guarantees. A non-finite entry raises ValueError (as_dense): LAPACK would
    return NaN singular values for it without raising.
    """
    return np.linalg.svd(as_dense(m, "svd input"))


def nmf_init(m, k: int, iters: int, rng: np.random.Generator, mt):
    """Nonnegative factorization m ~ p @ q by accelerated multiplicative updates.

    Each pass forms m.T @ p and the Gram p.T @ p once and applies three
    multiplicative updates to q with them, then forms m @ q.T and q @ q.T once
    and applies three updates to p: the product with m, which dominates a
    plain MU sweep, is shared by three updates of the same factor (Gillis and
    Glineur, "Accelerated multiplicative updates and hierarchical ALS
    algorithms for nonnegative matrix factorization", Neural Computation 24,
    2012). `iters` counts passes, so each factor gets 3 * iters updates.

    Factors start uniform in (0.1, 1.0) from the given generator; denominators
    are floored at 1e-12 so exact zeros cannot divide. Every update is a plain
    MU step for its factor, so the Frobenius reconstruction error is
    non-increasing over updates. mt is m.T, which the caller forms once
    (sparse .T builds a new object on each call). fit guarantees, and nothing
    here re-checks, that m is finite, nonnegative CSR (never densified), that
    1 <= k <= min(m.shape) and that iters >= 1.

    Returns (p, q, m @ q.T, q @ q.T): the last pass forms the product and
    the Gram from the q it returns, so the caller need not form them again.
    """
    p = rng.uniform(0.1, 1.0, size=(m.shape[0], k))
    q = rng.uniform(0.1, 1.0, size=(k, m.shape[1]))
    for _ in range(iters):
        mp, pp = np.asarray(mt @ p).T, p.T @ p
        for _ in range(3):
            q *= mp / np.maximum(pp @ q, _DIV_FLOOR)
        mq, qq = np.asarray(m @ q.T), q @ q.T
        for _ in range(3):
            p *= mq / np.maximum(p @ qq, _DIV_FLOOR)
    return p, q, mq, qq


def row_sq_norms(m) -> np.ndarray:
    """||m_i||^2 for each row of a CSR m (0 on an empty row).

    The reduceat that scipy's sum(axis=1) runs, over the squared stored
    values: one nnz-long transient, not the copy of m that m.multiply(m)
    makes, and the same bits, except that a stored zero (which the library's
    matrices never hold) or an underflowing square stays in the pairwise
    sum where multiply dropped it, which can move the last bit.
    """
    out = np.zeros(m.shape[0])
    rows = np.flatnonzero(np.diff(m.indptr))
    out[rows] = np.add.reduceat(m.data * m.data, m.indptr[rows])
    return out


def row_sq_residuals(p: np.ndarray, qq: np.ndarray, norms: np.ndarray,
                     mq: np.ndarray) -> np.ndarray:
    """Per-row squared reconstruction error of a sparse m ~ p @ q, from its
    row norms, product and Gram alone: out[i] = sum_j (m[i,j] - (p@q)[i,j])^2
    = ||m_i||^2 - 2 p_i.(m q^T)_i + p_i (q q^T) p_i^T.

    norms = row_sq_norms(m), mq = m @ q.T and qq = q @ q.T come from the
    caller, for p N x K and q K x D, as fit's factors are. On a row that
    p @ q fits almost exactly the sum is cancellation noise, so a finite
    value at or below its rounding bound,
    4 (K + 2) eps (||m_i||^2 + p_i (q q^T) p_i^T), reads as exactly 0: every
    finite entry is 0 or above that bound. An overflow stays non-finite, so
    the caller sees it.
    """
    cross = np.einsum("ij,ij->i", p, mq)
    fit = np.einsum("ij,ij->i", p @ qq, p)
    out = norms - 2.0 * cross + fit
    out[np.isfinite(out) & (out <= 4 * (p.shape[1] + 2) * np.finfo(np.float64).eps
                            * (norms + fit))] = 0.0
    return out

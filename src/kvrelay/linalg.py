"""Dense linear-algebra kernels for selection and backfill.

All float64, all deterministic. Every SVD goes through ``_svd``, the one
call of LAPACK's thin SVD (``np.linalg.svd(full_matrices=False)``):
orthonormal bases, their rank and the principal right singular vectors
come from one SVD each and are returned as read-only arrays, and
:func:`matrix_ranks` takes the ranks of a whole stack of matrices from one
singular-value-only SVD (``compute_uv=False``). Shared conventions:

  * basis vectors carry whatever sign LAPACK gives them: the backfill
    uses a basis only as ``x - (x Q) Q^T`` and a subspace only as
    ``(s C^T) C``, and both are exactly invariant under flipping the
    sign of a vector;
  * numeric rank has one count, ``_rank``, which the bases, the subspace
    and :func:`matrix_ranks` share: the singular values of each matrix
    above ``tol * sigma_max``, with the fixed
    ``tol = max(rows, cols) * machine_eps``;
  * non-finite input raises :class:`NumericalFailure`, as does an SVD
    that does not converge;
  * top-k breaks score ties toward the smaller global position and
    returns positions sorted ascending.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, EmptyInput, NumericalFailure
from .kv import freeze, index_array

_EPS = float(np.finfo(np.float64).eps)


def _as_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionMismatch("expected a 2-D matrix")
    return m


def _svd(m: np.ndarray, compute_uv: bool = True):
    """Thin LAPACK SVD of a finite (..., rows, cols) array: (U, sigmas descending, V^T), or the sigmas alone."""
    rows, cols = m.shape[-2:]
    if not np.isfinite(m).all():
        raise NumericalFailure(f"{rows}x{cols} matrix has non-finite entries")
    try:
        return np.linalg.svd(m, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD of a {rows}x{cols} matrix failed: {exc}") from exc


def _rank(sigmas: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Singular values above ``max(shape) * eps * sigma_max``, counted over the last axis of ``sigmas``."""
    return np.count_nonzero(sigmas > max(shape) * _EPS * sigmas[..., :1], axis=-1)


def matrix_ranks(stack) -> np.ndarray:
    """Numeric rank of every (rows x cols) matrix of a (..., rows, cols) ``stack``.

    One SVD that computes singular values only, with the rank count and the
    failure rules of the bases below; no singular vector is formed.
    """
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim < 2:
        raise DimensionMismatch("expected a stack of 2-D matrices")
    return _rank(_svd(stack, compute_uv=False), stack.shape[-2:])


def orthonormal_basis(m) -> np.ndarray:
    """Orthonormal basis Q (d x r) for the row space of ``m`` (K x d), read-only."""
    m = _as_matrix(m)
    k, d = m.shape
    if k == 0:
        raise EmptyInput("cannot build a basis from zero rows")
    if d == 0:
        raise DimensionMismatch("row dimension must be positive")
    _, sigmas, vt = _svd(m)
    return freeze(vt[: _rank(sigmas, m.shape)].T)


def project_out(x, q: np.ndarray) -> np.ndarray:
    """Residual of every row of ``x`` against the (d x r) basis ``q``: x - (x Q) Q^T."""
    x = _as_matrix(x)
    if x.shape[1] != q.shape[0]:
        raise DimensionMismatch(f"rows have dim {x.shape[1]} but basis lives in dim {q.shape[0]}")
    return x - (x @ q) @ q.T


def principal_subspace(r_mat, max_rank: int) -> np.ndarray:
    """Top ``min(max_rank, numeric rank)`` right singular directions of ``r_mat`` as (p x d) rows, read-only.

    Zero or empty input yields (0 x d) rows rather than an error.
    """
    if max_rank < 1:
        raise ValueError("max_rank must be at least 1")
    r_mat = _as_matrix(r_mat)
    n, d = r_mat.shape
    if n == 0 or d == 0:
        return freeze(np.zeros((0, d)))
    _, sigmas, vt = _svd(r_mat)
    return freeze(vt[: min(max_rank, _rank(sigmas, r_mat.shape))])


def top_k_indices(scores, k: int, eligible) -> np.ndarray:
    """The ``min(k, |eligible|)`` highest-scoring positions, sorted ascending.

    ``scores[i]`` is the score of ``eligible[i]``. Ties are broken
    deterministically toward the smaller global position. Returns a
    read-only int64 array.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    idx = index_array(eligible)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != idx.shape:
        raise DimensionMismatch(f"{scores.shape} scores for {idx.size} eligible positions")
    return freeze(np.sort(idx[np.lexsort((idx, -scores))[:k]]))

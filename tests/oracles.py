"""Reference routes for the library's numeric kernels.

Most functions here take a different algorithmic path from the library
(Gram-matrix eigh, lstsq, two-pass stable sorts, raw tensor reductions),
so agreement between the two routes actually means something. The
exceptions are ``svd_rank`` and ``rowspace_basis``: they use the same
LAPACK SVD as the library, so ``test_linalg`` also checks rank against
matrices built with a known rank. Tests compare against these instead of
re-deriving values from the implementation under test.
"""

from __future__ import annotations

import numpy as np

_EPS = float(np.finfo(np.float64).eps)


def fix_sign(vec, tol: float = 1e-12) -> np.ndarray:
    """Same sign convention as the library: first entry above tol is >= 0."""
    vec = np.array(vec, dtype=np.float64)
    nz = np.nonzero(np.abs(vec) > tol)[0]
    if nz.size and vec[nz[0]] < 0:
        return -vec
    return vec


def gram_right_vectors(m) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force SVD pieces from the Gram matrix m^T m.

    Returns (singular values descending, right singular vectors as
    columns). Eigendecomposition route, disjoint from the library's
    LAPACK SVD.
    """
    m = np.asarray(m, dtype=np.float64)
    evals, evecs = np.linalg.eigh(m.T @ m)
    order = np.argsort(evals)[::-1]
    sigmas = np.sqrt(np.clip(evals[order], 0.0, None))
    return sigmas, evecs[:, order]


def svd_rank(m, tol: float | None = None) -> int:
    m = np.asarray(m, dtype=np.float64)
    if m.size == 0:
        return 0
    sigmas = np.linalg.svd(m, compute_uv=False)
    if tol is None:
        tol = max(m.shape) * _EPS
    top = float(sigmas[0])
    if top == 0.0:
        return 0
    return int(np.count_nonzero(sigmas > tol * top))


def rowspace_basis(rows, rcond: float | None = None) -> np.ndarray:
    """Orthonormal basis (columns) for the row space, via LAPACK SVD."""
    rows = np.asarray(rows, dtype=np.float64)
    _, s, vt = np.linalg.svd(rows, full_matrices=False)
    if rcond is None:
        rcond = max(rows.shape) * _EPS
    rank = int(np.count_nonzero(s > rcond * s[0])) if s.size and s[0] > 0 else 0
    return vt[:rank].T


def lstsq_residual(x, rows) -> np.ndarray:
    """Residual of each row of ``x`` against span(rows), via least squares."""
    x = np.asarray(x, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.float64)
    coeff, *_ = np.linalg.lstsq(rows.T, x.T, rcond=None)
    return x - (rows.T @ coeff).T


def topk(scores, k: int, eligible) -> tuple[int, ...]:
    """Full-sort selection: two stable passes, ties fall to lower position."""
    by_pos = sorted(int(p) for p in eligible)
    ranked = sorted(by_pos, key=lambda p: -float(scores.get(p, 0.0)))
    return tuple(sorted(ranked[: max(0, int(k))]))


def headwise_mass(weights, gen_rows, col_idx, group: int) -> np.ndarray:
    """(layers, kv_heads, columns) mass sums straight off the weight tensor."""
    w = np.asarray(weights, dtype=np.float64)
    layers, q_heads = w.shape[0], w.shape[1]
    picked = w[:, :, gen_rows, :][:, :, :, col_idx].sum(axis=2)
    return picked.reshape(layers, q_heads // group, group, len(col_idx)).sum(axis=2)

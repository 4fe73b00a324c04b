"""Dense linear-algebra kernels for selection and backfill.

All float64, all deterministic. Orthonormal bases and their rank, singular
values and right singular vectors all come from one LAPACK SVD
(``np.linalg.svd(full_matrices=False)``). Shared conventions:

  * basis vectors are sign-fixed so their first entry above 1e-12 in
    magnitude is non-negative;
  * numeric rank counts singular values above ``tol * sigma_max`` with
    the fixed ``tol = max(rows, cols) * machine_eps``;
  * non-finite input raises :class:`NumericalFailure`, as does an SVD
    that does not converge;
  * top-k breaks score ties toward the smaller global position and
    returns positions sorted ascending.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyInput, NumericalFailure
from .kv import as_index_list

_EPS = float(np.finfo(np.float64).eps)
_SIGN_TOL = 1e-12
_ORTHO_TOL = 1e-10


def _as_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionMismatch("expected a 2-D matrix")
    return m


def _svd(m: np.ndarray):
    """Thin LAPACK SVD of a finite matrix: (U, sigmas descending, V^T)."""
    if not np.isfinite(m).all():
        raise NumericalFailure(f"{m.shape[0]}x{m.shape[1]} matrix has non-finite entries")
    try:
        return np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD of a {m.shape[0]}x{m.shape[1]} matrix failed: {exc}") from exc


def _rank(sigmas: np.ndarray, shape: tuple[int, int]) -> int:
    """Singular values above ``max(shape) * eps * sigma_max``."""
    if sigmas.size == 0 or sigmas[0] == 0.0:
        return 0
    return int(np.count_nonzero(sigmas > max(shape) * _EPS * sigmas[0]))


def _fix_row_signs(v: np.ndarray) -> np.ndarray:
    """Flip rows so the first entry with |x| > 1e-12 is non-negative."""
    big = np.abs(v) > _SIGN_TOL
    lead = np.where(big, v, 0.0)[np.arange(v.shape[0]), big.argmax(axis=1)]
    return np.where((lead < 0)[:, None], -v, v)


def _check_orthonormal(vectors: np.ndarray, what: str) -> None:
    """Rows of ``vectors`` must be orthonormal; NaN fails the check."""
    n = vectors.shape[0]
    gram_err = np.abs(vectors @ vectors.T - np.eye(n)).max() if n else 0.0
    if not gram_err <= _ORTHO_TOL:
        raise DimensionMismatch(f"{what} are not orthonormal (err {gram_err:g})")


@dataclass(frozen=True)
class OrthoBasis:
    """Orthonormal columns spanning the row space of some matrix."""

    basis: np.ndarray  # (ambient_dim, rank)
    rank: int

    def __post_init__(self):
        basis = np.array(self.basis, dtype=np.float64)
        if basis.ndim != 2 or basis.shape[1] != self.rank:
            raise DimensionMismatch("basis must be (ambient_dim, rank)")
        _check_orthonormal(basis.T, "basis columns")
        basis.flags.writeable = False
        object.__setattr__(self, "basis", basis)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]


def orthonormal_basis(m) -> OrthoBasis:
    """Orthonormal basis Q (d x r) for the row space of ``m`` (K x d)."""
    m = _as_matrix(m)
    k, d = m.shape
    if k == 0:
        raise EmptyInput("cannot build a basis from zero rows")
    if d == 0:
        raise DimensionMismatch("row dimension must be positive")
    _, sigmas, vt = _svd(m)
    rank = _rank(sigmas, m.shape)
    return OrthoBasis(basis=_fix_row_signs(vt[:rank]).T, rank=rank)


def project_out(x, basis: OrthoBasis) -> np.ndarray:
    """Residual of every row of ``x`` against the basis: x - (x Q) Q^T."""
    x = _as_matrix(x)
    if x.shape[1] != basis.ambient_dim:
        raise DimensionMismatch(
            f"rows have dim {x.shape[1]} but basis lives in dim {basis.ambient_dim}"
        )
    if basis.rank == 0:
        return x.copy()
    q = basis.basis
    return x - (x @ q) @ q.T


@dataclass(frozen=True)
class PrincipalSubspace:
    """Top right-singular directions of a residual matrix, as rows."""

    rows: np.ndarray  # (p, ambient_dim)
    singular_values: tuple[float, ...]

    def __post_init__(self):
        rows = np.array(self.rows, dtype=np.float64)
        if rows.ndim != 2:
            raise DimensionMismatch("rows must be a (p, d) matrix")
        sig = np.asarray(self.singular_values, dtype=np.float64).reshape(-1)
        if sig.size != rows.shape[0]:
            raise DimensionMismatch("one singular value per subspace row")
        if not (np.all(sig >= 0) and np.all(sig[:-1] >= sig[1:])):
            raise ValueError("singular values must be non-negative and non-increasing")
        _check_orthonormal(rows, "subspace rows")
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "singular_values", tuple(sig.tolist()))

    @property
    def subspace_rank(self) -> int:
        return self.rows.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.rows.shape[1]


def principal_subspace(r_mat, max_rank: int) -> PrincipalSubspace:
    """Top ``min(max_rank, numeric rank)`` right singular directions of ``r_mat``.

    Zero or empty input yields an empty subspace rather than an error.
    """
    if max_rank < 1:
        raise ValueError("max_rank must be at least 1")
    r_mat = _as_matrix(r_mat)
    n, d = r_mat.shape
    if n == 0 or d == 0:
        return PrincipalSubspace(rows=np.zeros((0, d)), singular_values=())
    _, sigmas, vt = _svd(r_mat)
    p = min(max_rank, _rank(sigmas, r_mat.shape))
    return PrincipalSubspace(rows=_fix_row_signs(vt[:p]), singular_values=tuple(sigmas[:p].tolist()))


def top_k_indices(scores, k: int, eligible) -> tuple[int, ...]:
    """The ``min(k, |eligible|)`` highest-scoring positions, sorted ascending.

    ``scores[i]`` is the score of ``eligible[i]``. Ties are broken
    deterministically toward the smaller global position.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    idx = np.asarray(as_index_list(eligible), dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != idx.shape:
        raise DimensionMismatch(f"{scores.shape} scores for {idx.size} eligible positions")
    return tuple(np.sort(idx[np.lexsort((idx, -scores))[:k]]).tolist())

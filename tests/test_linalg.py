"""Row-space bases, singular directions, rank and top-k.

The implementation takes all three from one thin LAPACK SVD; these tests
cross-check it against the routes in ``oracles`` (Gram-matrix eigh, lstsq,
two-pass sorts) and against matrices built with a known rank and spectrum,
on seeded random inputs, plus a handful of hand-evaluated fixtures.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from kvrelay.errors import DimensionMismatch, EmptyInput, KvRelayError, NumericalFailure
from kvrelay.linalg import (
    OrthoBasis,
    PrincipalSubspace,
    orthonormal_basis,
    principal_subspace,
    project_out,
    top_k_indices,
)

seeds = st.integers(0, 2**32 - 1)


def random_matrix(rng, max_rows=16, max_cols=12):
    """Mix of dense, low-rank, duplicated-row and rescaled matrices."""
    rows = int(rng.integers(1, max_rows + 1))
    cols = int(rng.integers(1, max_cols + 1))
    kind = int(rng.integers(0, 4))
    if kind == 0:
        m = rng.standard_normal((rows, cols))
    elif kind == 1:
        r = int(rng.integers(1, min(rows, cols) + 1))
        m = rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols))
    elif kind == 2:
        row = rng.standard_normal((1, cols))
        m = np.repeat(row, rows, axis=0)
    else:
        m = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-6, 7)
    return m


def test_basis_of_rank_one_rows():
    basis = orthonormal_basis([[2.0, 0.0], [4.0, 0.0]])
    assert basis.rank == 1
    assert np.allclose(basis.basis, [[1.0], [0.0]], atol=1e-14)


def test_basis_sign_convention():
    basis = orthonormal_basis([[-2.0, 0.0]])
    assert np.allclose(basis.basis, [[1.0], [0.0]], atol=1e-14)


def test_basis_requires_rows():
    with pytest.raises(EmptyInput):
        orthonormal_basis(np.zeros((0, 3)))
    with pytest.raises(DimensionMismatch):
        orthonormal_basis(np.zeros(3))
    with pytest.raises(DimensionMismatch):
        orthonormal_basis(np.zeros((2, 0)))


def test_basis_of_zero_matrix_is_empty():
    basis = orthonormal_basis(np.zeros((3, 4)))
    assert basis.rank == 0
    assert basis.basis.shape == (4, 0)


def test_ortho_basis_rejects_skewed_columns():
    with pytest.raises(DimensionMismatch):
        OrthoBasis(basis=np.array([[1.0, 0.9], [0.0, 0.1]]), rank=2)


def test_project_out_removes_spanned_part():
    basis = orthonormal_basis([[1.0, 0.0]])
    residual = project_out([[3.0, 4.0]], basis)
    assert np.allclose(residual, [[0.0, 4.0]], atol=1e-14)


def test_project_out_with_empty_basis_is_identity():
    basis = orthonormal_basis(np.zeros((2, 3)))
    x = np.array([[1.0, 2.0, 3.0]])
    assert np.array_equal(project_out(x, basis), x)


def test_project_out_dimension_check():
    basis = orthonormal_basis([[1.0, 0.0]])
    with pytest.raises(DimensionMismatch):
        project_out(np.ones((1, 3)), basis)


def test_principal_subspace_of_axis_aligned_residual():
    sub = principal_subspace([[0.0, 0.0, 2.0], [0.0, 0.0, 1.0]], max_rank=8)
    assert sub.subspace_rank == 1
    assert np.allclose(sub.singular_values, [np.sqrt(5.0)], atol=1e-12)
    assert np.allclose(sub.rows, [[0.0, 0.0, 1.0]], atol=1e-12)


def test_principal_subspace_truncates_to_max_rank():
    sub = principal_subspace(np.diag([5.0, 3.0, 1.0]), max_rank=2)
    assert sub.subspace_rank == 2
    assert np.allclose(sub.singular_values, [5.0, 3.0], atol=1e-12)
    assert np.allclose(sub.rows, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], atol=1e-12)


def test_principal_subspace_of_zero_input_is_empty():
    sub = principal_subspace(np.zeros((2, 3)), max_rank=4)
    assert sub.subspace_rank == 0
    assert sub.singular_values == ()


def test_principal_subspace_rejects_bad_max_rank():
    with pytest.raises(ValueError):
        principal_subspace(np.eye(2), max_rank=0)


def test_principal_subspace_type_rejects_increasing_sigmas():
    with pytest.raises(ValueError):
        PrincipalSubspace(rows=np.eye(2), singular_values=(1.0, 2.0))


def test_numeric_rank_examples():
    assert orthonormal_basis(np.eye(3)).rank == 3
    assert orthonormal_basis([[1.0, 2.0], [2.0, 4.0]]).rank == 1
    assert orthonormal_basis(np.zeros((2, 3))).rank == 0
    assert orthonormal_basis(np.ones((4, 4))).rank == 1


def test_top_k_picks_highest_scores():
    assert top_k_indices([0.9, 0.1, 0.5, 0.5], 2, (4, 5, 6, 7)) == (4, 6)


def test_top_k_tie_cascade_prefers_lower_positions():
    assert top_k_indices(np.zeros(6), 2, tuple(range(4, 10))) == (4, 5)


def test_top_k_edges():
    assert top_k_indices([1.0], 0, (1,)) == ()
    assert top_k_indices([1.0, 0.5], 5, (1, 2)) == (1, 2)
    assert top_k_indices([], 2, ()) == ()
    with pytest.raises(ValueError):
        top_k_indices([1.0], -1, (1,))
    with pytest.raises(DimensionMismatch):
        top_k_indices([1.0], 1, (3, 8))  # one score per eligible position


@given(seed=seeds)
@settings(max_examples=120, deadline=None)
def test_basis_is_orthonormal_and_spans_rows(seed):
    rng = np.random.default_rng(seed)
    m = random_matrix(rng)
    basis = orthonormal_basis(m)
    q = basis.basis
    assert np.linalg.norm(q.T @ q - np.eye(basis.rank)) <= 1e-10
    # every input row must be reconstructed by the basis
    residual = project_out(m, basis)
    assert np.linalg.norm(residual) <= 1e-9 * (1.0 + np.linalg.norm(m))


@given(seed=seeds)
@settings(max_examples=100, deadline=None)
def test_basis_rank_matches_svd_oracle(seed):
    rng = np.random.default_rng(seed)
    m = random_matrix(rng)
    assert orthonormal_basis(m).rank == oracles.svd_rank(m)


@given(seed=seeds)
@settings(max_examples=100, deadline=None)
def test_projection_is_idempotent(seed):
    rng = np.random.default_rng(seed)
    basis = orthonormal_basis(rng.standard_normal((3, 8)))
    x = rng.standard_normal((5, 8))
    once = project_out(x, basis)
    twice = project_out(once, basis)
    assert np.allclose(twice, once, atol=1e-12)


@given(seed=seeds)
@settings(max_examples=100, deadline=None)
def test_residual_is_orthogonal_to_basis(seed):
    rng = np.random.default_rng(seed)
    keep = random_matrix(rng, max_rows=10, max_cols=10)
    basis = orthonormal_basis(keep)
    x = rng.standard_normal((4, keep.shape[1]))
    residual = project_out(x, basis)
    assert np.linalg.norm(residual @ basis.basis) <= 1e-8 * (1.0 + np.linalg.norm(x))


@given(seed=seeds)
@settings(max_examples=100, deadline=None)
def test_singular_values_match_gram_oracle(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((int(rng.integers(1, 7)), int(rng.integers(1, 7))))
    sub = principal_subspace(m, max_rank=6)
    sigmas, _ = oracles.gram_right_vectors(m)
    p = sub.subspace_rank
    assert np.allclose(sub.singular_values, sigmas[:p], atol=1e-8)
    # projecting the input onto the subspace reproduces it when p = rank
    if p == min(m.shape):
        reconstructed = (m @ sub.rows.T) @ sub.rows
        assert np.allclose(reconstructed, m, atol=1e-8)


@given(seed=seeds)
@settings(max_examples=150, deadline=None)
def test_top_k_matches_sort_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    eligible = tuple(sorted(rng.choice(200, size=n, replace=False).tolist()))
    # quantized scores so ties actually happen
    scores = {p: float(rng.integers(0, 5)) / 4.0 for p in eligible}
    k = int(rng.integers(0, n + 3))
    aligned = [scores[p] for p in eligible]
    assert top_k_indices(aligned, k, eligible) == oracles.topk(scores, k, eligible)


def with_spectrum(rng, rows, cols, sigmas):
    """U diag(sigmas) V^T with random orthonormal U (rows x r) and V (cols x r)."""
    r = len(sigmas)
    u, _ = np.linalg.qr(rng.standard_normal((rows, r)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, r)))
    return (u * np.asarray(sigmas, dtype=np.float64)) @ v.T


@given(seed=seeds)
@settings(max_examples=100, deadline=None)
def test_known_rank_is_recovered_by_every_kernel(seed):
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(2, 25))
    cols = int(rng.integers(2, 17))
    r = int(rng.integers(1, min(rows, cols) + 1))
    # r well-separated singular values spanning six decades, the rest exactly zero
    sigmas = 10.0 ** -np.linspace(0.0, 6.0, r) * 10.0 ** rng.integers(-4, 5)
    m = with_spectrum(rng, rows, cols, sigmas)
    assert orthonormal_basis(m).rank == r
    assert principal_subspace(m, max_rank=cols).subspace_rank == r


@pytest.mark.parametrize("shape", [(300, 16), (1000, 64)])
@pytest.mark.parametrize("seed", [0, 1])
def test_tall_residual_matches_gram_oracle(shape, seed):
    rng = np.random.default_rng(seed)
    rows, cols = shape
    m = with_spectrum(rng, rows, cols, np.linspace(10.0, 1.0, cols))
    sigmas, vectors = oracles.gram_right_vectors(m)
    for max_rank in (4, cols):
        sub = principal_subspace(m, max_rank=max_rank)
        assert sub.subspace_rank == max_rank
        assert np.allclose(sub.singular_values, sigmas[:max_rank], rtol=1e-10, atol=0.0)
        expected = np.array([oracles.fix_sign(vectors[:, i]) for i in range(max_rank)])
        assert np.allclose(sub.rows, expected, atol=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kernels_reject_non_finite_input(bad):
    m = np.arange(12.0).reshape(4, 3)
    m[2, 1] = bad
    with pytest.raises(NumericalFailure):
        orthonormal_basis(m)
    with pytest.raises(NumericalFailure):
        principal_subspace(m, max_rank=2)
    assert issubclass(NumericalFailure, KvRelayError)


def test_kernels_wrap_svd_failure(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    for kernel in (orthonormal_basis, lambda m: principal_subspace(m, 2)):
        with pytest.raises(NumericalFailure, match="did not converge"):
            kernel(np.eye(3))


def test_orthonormality_checks_reject_nan():
    with pytest.raises(DimensionMismatch):
        OrthoBasis(basis=np.array([[np.nan], [0.0]]), rank=1)
    with pytest.raises(DimensionMismatch):
        PrincipalSubspace(rows=np.array([[np.nan, 0.0]]), singular_values=(1.0,))

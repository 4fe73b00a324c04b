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
from kvrelay.linalg import matrix_ranks, orthonormal_basis, principal_subspace, project_out, top_k_indices

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
    q = orthonormal_basis([[2.0, 0.0], [4.0, 0.0]])
    assert q.shape == (2, 1)
    assert np.allclose(np.abs(q), [[1.0], [0.0]], atol=1e-14)


def test_kernels_return_read_only_arrays():
    m = np.array([[2.0, 0.0, 1.0], [4.0, 1.0, 0.0]])
    for out in (orthonormal_basis(m), principal_subspace(m, 2), principal_subspace(np.zeros((0, 3)), 2)):
        assert isinstance(out, np.ndarray) and out.dtype == np.float64
        assert not out.flags.writeable


def test_basis_requires_rows():
    with pytest.raises(EmptyInput):
        orthonormal_basis(np.zeros((0, 3)))
    with pytest.raises(DimensionMismatch):
        orthonormal_basis(np.zeros(3))
    with pytest.raises(DimensionMismatch):
        orthonormal_basis(np.zeros((2, 0)))


def test_basis_of_zero_matrix_is_empty():
    assert orthonormal_basis(np.zeros((3, 4))).shape == (4, 0)


def test_project_out_removes_spanned_part():
    basis = orthonormal_basis([[1.0, 0.0]])
    residual = project_out([[3.0, 4.0]], basis)
    assert np.allclose(residual, [[0.0, 4.0]], atol=1e-14)


def test_project_out_with_empty_basis_is_identity():
    basis = orthonormal_basis(np.zeros((2, 3)))
    x = np.array([[1.0, -0.0, 3.0], [0.0, 2.5, -7.0]])
    got = project_out(x, basis)
    assert got is not x and got.tobytes() == x.tobytes()  # -0.0 stays -0.0


def test_project_out_dimension_check():
    basis = orthonormal_basis([[1.0, 0.0]])
    with pytest.raises(DimensionMismatch):
        project_out(np.ones((1, 3)), basis)


def test_principal_subspace_of_axis_aligned_residual():
    m = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 1.0]])
    rows = principal_subspace(m, max_rank=8)
    assert rows.shape == (1, 3)
    assert np.allclose(np.linalg.norm(m @ rows.T, axis=0), [np.sqrt(5.0)], atol=1e-12)
    assert np.allclose(np.abs(rows), [[0.0, 0.0, 1.0]], atol=1e-12)


def test_principal_subspace_truncates_to_max_rank():
    m = np.diag([5.0, 3.0, 1.0])
    rows = principal_subspace(m, max_rank=2)
    assert rows.shape == (2, 3)
    assert np.allclose(np.linalg.norm(m @ rows.T, axis=0), [5.0, 3.0], atol=1e-12)
    assert np.allclose(np.abs(rows), [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], atol=1e-12)


def test_principal_subspace_of_zero_input_is_empty():
    assert principal_subspace(np.zeros((2, 3)), max_rank=4).shape == (0, 3)
    assert principal_subspace(np.zeros((0, 3)), max_rank=4).shape == (0, 3)


def test_principal_subspace_rejects_bad_max_rank():
    with pytest.raises(ValueError):
        principal_subspace(np.eye(2), max_rank=0)


def test_numeric_rank_examples():
    assert orthonormal_basis(np.eye(3)).shape[1] == 3
    assert orthonormal_basis([[1.0, 2.0], [2.0, 4.0]]).shape[1] == 1
    assert orthonormal_basis(np.zeros((2, 3))).shape[1] == 0
    assert orthonormal_basis(np.ones((4, 4))).shape[1] == 1
    stack = np.stack([np.eye(3), [[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 0.0]], np.zeros((3, 3)), np.ones((3, 3))])
    assert matrix_ranks(stack).tolist() == [3, 1, 0, 1]
    assert matrix_ranks(stack.reshape(2, 2, 3, 3)).tolist() == [[3, 1], [0, 1]]
    with pytest.raises(DimensionMismatch):
        matrix_ranks(np.ones(3))


def test_top_k_picks_highest_scores():
    assert top_k_indices([0.9, 0.1, 0.5, 0.5], 2, (4, 5, 6, 7)).tolist() == [4, 6]


def test_top_k_tie_cascade_prefers_lower_positions():
    assert top_k_indices(np.zeros(6), 2, tuple(range(4, 10))).tolist() == [4, 5]


def test_top_k_edges():
    assert top_k_indices([1.0], 0, (1,)).tolist() == []
    assert top_k_indices([1.0, 0.5], 5, (1, 2)).tolist() == [1, 2]
    assert top_k_indices([], 2, ()).tolist() == []
    with pytest.raises(ValueError):
        top_k_indices([1.0], -1, (1,))
    with pytest.raises(DimensionMismatch):
        top_k_indices([1.0], 1, (3, 8))  # one score per eligible position


@given(seed=seeds)
@settings(max_examples=120, deadline=None)
def test_basis_is_orthonormal_and_spans_rows(seed):
    rng = np.random.default_rng(seed)
    m = random_matrix(rng)
    q = orthonormal_basis(m)
    assert np.linalg.norm(q.T @ q - np.eye(q.shape[1])) <= 1e-10
    # every input row must be reconstructed by the basis
    residual = project_out(m, q)
    assert np.linalg.norm(residual) <= 1e-9 * (1.0 + np.linalg.norm(m))


@given(seed=seeds)
@settings(max_examples=100, deadline=None)
def test_basis_rank_matches_svd_oracle(seed):
    rng = np.random.default_rng(seed)
    m = random_matrix(rng)
    assert orthonormal_basis(m).shape[1] == oracles.svd_rank(m)
    # a stack of matrices of one shape, some of them rank-deficient
    stack = np.stack([m, m * 1e-300, np.zeros_like(m), rng.standard_normal(m.shape)])
    assert matrix_ranks(stack).tolist() == [oracles.svd_rank(x) for x in stack]


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
    q = orthonormal_basis(keep)
    x = rng.standard_normal((4, keep.shape[1]))
    residual = project_out(x, q)
    assert np.linalg.norm(residual @ q) <= 1e-8 * (1.0 + np.linalg.norm(x))


@given(seed=seeds)
@settings(max_examples=100, deadline=None)
def test_singular_values_match_gram_oracle(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((int(rng.integers(1, 7)), int(rng.integers(1, 7))))
    rows = principal_subspace(m, max_rank=6)
    sigmas, _ = oracles.gram_right_vectors(m)
    p = rows.shape[0]
    # the input's extent along each returned direction is its singular value
    assert np.allclose(np.linalg.norm(m @ rows.T, axis=0), sigmas[:p], atol=1e-8)
    # projecting the input onto the subspace reproduces it when p = rank
    if p == min(m.shape):
        reconstructed = (m @ rows.T) @ rows
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
    assert tuple(top_k_indices(aligned, k, eligible).tolist()) == oracles.topk(scores, k, eligible)


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
    assert orthonormal_basis(m).shape[1] == r
    assert principal_subspace(m, max_rank=cols).shape[0] == r
    assert matrix_ranks(m).tolist() == r


@pytest.mark.parametrize("shape", [(300, 16), (1000, 64)])
@pytest.mark.parametrize("seed", [0, 1])
def test_tall_residual_matches_gram_oracle(shape, seed):
    rng = np.random.default_rng(seed)
    rows, cols = shape
    m = with_spectrum(rng, rows, cols, np.linspace(10.0, 1.0, cols))
    sigmas, vectors = oracles.gram_right_vectors(m)
    for max_rank in (4, cols):
        rows = principal_subspace(m, max_rank=max_rank)
        assert rows.shape[0] == max_rank
        assert np.allclose(np.linalg.norm(m @ rows.T, axis=0), sigmas[:max_rank], rtol=1e-10, atol=0.0)
        # each row is the oracle's vector up to sign
        want = vectors[:, :max_rank].T
        want = want * np.sign(np.sum(rows * want, axis=1))[:, None]
        assert np.allclose(rows, want, atol=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kernels_reject_non_finite_input(bad):
    m = np.arange(12.0).reshape(4, 3)
    m[2, 1] = bad
    with pytest.raises(NumericalFailure):
        orthonormal_basis(m)
    with pytest.raises(NumericalFailure):
        principal_subspace(m, max_rank=2)
    with pytest.raises(NumericalFailure):
        matrix_ranks(np.stack([np.eye(4, 3), m]))
    assert issubclass(NumericalFailure, KvRelayError)


def test_kernels_wrap_svd_failure(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    for kernel in (orthonormal_basis, lambda m: principal_subspace(m, 2), matrix_ranks):
        with pytest.raises(NumericalFailure, match="did not converge"):
            kernel(np.eye(3))

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from palflow import examples, linops
from palflow.distributed import assemble_consensus
from palflow.linops import (BlockOperator, LinearOperator, block_diagonal, csr_product,
                            lyapunov_operator, masked_congruence,
                            null_projection, range_contained,
                            singular_extremes, unvec, vec, vstack)


def test_vec_is_column_major():
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(vec(M), [1.0, 3.0, 2.0, 4.0])
    assert np.array_equal(unvec(vec(M), (2, 2)), M)


def test_singular_extremes_identity():
    op = LinearOperator.identity((3,))
    s = singular_extremes(op.dense())
    assert s.sigma_max == pytest.approx(1.0)
    assert s.sigma_min == pytest.approx(1.0)


def test_singular_extremes_tall_column():
    op = LinearOperator.from_matrix(np.array([[-1.0], [1.0]]))
    s = singular_extremes(op.dense())
    assert s.sigma_max == pytest.approx(np.sqrt(2.0))
    assert s.sigma_min == pytest.approx(np.sqrt(2.0))


def test_singular_extremes_zero_flagged():
    s = singular_extremes(LinearOperator.zero((2,), (2,)).dense())
    assert s == (0.0, 0.0)
    assert s.is_zero


def test_singular_extremes_ignores_tiny_values():
    A = np.diag([1.0, 1e-15])
    s = singular_extremes(A)
    assert s.sigma_min == pytest.approx(1.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 10 ** 6))
def test_matrix_adjoint_identity(r, c, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((r, c))
    op = LinearOperator.from_matrix(A)
    u = rng.standard_normal(c)
    v = rng.standard_normal(r)
    assert op.apply(u) @ v == pytest.approx(u @ op.adjoint(v), rel=1e-12, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 4), st.integers(0, 10 ** 6))
def test_lyapunov_operator_adjoint(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    op = lyapunov_operator(A)
    X = rng.standard_normal((n, n))
    V = rng.standard_normal((n, n))
    assert np.trace(op.apply(X).T @ V) == pytest.approx(
        np.trace(X.T @ op.adjoint(V)), rel=1e-10, abs=1e-10)


def test_lyapunov_operator_dense_is_kronecker_sum():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, 3))
    op = lyapunov_operator(A)
    expected = np.kron(np.eye(3), A) + np.kron(A, np.eye(3))
    assert np.allclose(op.dense(), expected, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 10 ** 6))
def test_masked_congruence_adjoint(n, p, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((p, n))
    C = (rng.random((p, p)) < 0.5).astype(float)
    op = masked_congruence(B, C)
    X = rng.standard_normal((n, n))
    V = rng.standard_normal((p, p))
    assert np.trace(op.apply(X).T @ V) == pytest.approx(
        np.trace(X.T @ op.adjoint(V)), rel=1e-10, abs=1e-10)


def test_vstack_concatenates_and_sums_adjoints():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((2, 3))
    B = rng.standard_normal((4, 3))
    op = vstack([LinearOperator.from_matrix(A), LinearOperator.from_matrix(B)])
    u = rng.standard_normal(3)
    assert np.allclose(op.apply(u), np.concatenate([A @ u, B @ u]))
    v = rng.standard_normal(6)
    assert np.allclose(op.adjoint(v), A.T @ v[:2] + B.T @ v[2:])


def test_vstack_matrix_domain():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((3, 3))
    op = vstack([lyapunov_operator(A), LinearOperator.identity((3, 3))])
    X = rng.standard_normal((3, 3))
    out = op.apply(X)
    assert out.shape == (18,)
    assert np.allclose(out[9:], vec(X))


def test_block_operator_apply_is_sum():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 2))
    B = rng.standard_normal((4, 3))
    op = BlockOperator([LinearOperator.from_matrix(A), LinearOperator.from_matrix(B)])
    u, w = rng.standard_normal(2), rng.standard_normal(3)
    assert np.allclose(op.apply([u, w]), A @ u + B @ w)
    assert np.allclose(op.dense(), np.hstack([A, B]))
    v = rng.standard_normal(4)
    adj = op.adjoint(v)
    assert np.allclose(adj[0], A.T @ v)
    assert np.allclose(adj[1], B.T @ v)


def test_block_operator_empty_needs_dimension():
    with pytest.raises(ValueError):
        BlockOperator([])
    op = BlockOperator([], p=5)
    assert op.p == 5
    assert op.dense().shape == (5, 0)
    assert np.allclose(op.apply([]), np.zeros(5))


def test_block_operator_mismatched_codomain_raises():
    with pytest.raises(ValueError):
        BlockOperator([LinearOperator.from_matrix(np.ones((2, 1))),
                       LinearOperator.from_matrix(np.ones((3, 1)))])


def test_range_contained_zero_and_self():
    rng = np.random.default_rng(4)
    E = rng.standard_normal((4, 2))
    assert range_contained(LinearOperator.zero((3,), (4,)).dense(), E)
    assert range_contained(E, E)


def test_range_contained_detects_escape():
    E = np.array([[1.0], [0.0]])
    F = np.array([[0.0], [1.0]])
    assert not range_contained(F, E)


def test_null_projection_surjective_is_zero():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((3, 5))
    v = rng.standard_normal(3)
    assert np.allclose(null_projection(A, v), 0.0, atol=1e-12)


def test_null_projection_wide_row():
    A = np.array([[1.0, 1.0]])
    assert np.allclose(null_projection(A, np.array([3.0])), 0.0, atol=1e-12)


def test_null_projection_column_operator():
    A = np.array([[1.0], [1.0]])
    v = np.array([1.0, -1.0])
    assert np.allclose(null_projection(A, v), v, atol=1e-12)


def test_dense_materialization_matches_apply():
    rng = np.random.default_rng(6)
    B = rng.standard_normal((3, 4))
    C = np.eye(3)
    op = masked_congruence(B, C)
    X = rng.standard_normal((4, 4))
    assert np.allclose(op.dense() @ vec(X), vec(op.apply(X)), atol=1e-12)


def test_structured_operators_match_their_formulas():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((3, 3))
    B = rng.standard_normal((2, 3))
    C = np.array([[1.0, 0.0], [1.0, 1.0]])
    X = rng.standard_normal((3, 3))
    V = rng.standard_normal((3, 3))
    W = rng.standard_normal((2, 2))
    lyap, cong = lyapunov_operator(A), masked_congruence(B, C)
    assert np.allclose(lyap.apply(X), A @ X + X @ A.T, atol=1e-12)
    assert np.allclose(lyap.adjoint(V), A.T @ V + V @ A, atol=1e-12)
    assert np.allclose(cong.apply(X), (B @ X @ B.T) * C, atol=1e-12)
    assert np.allclose(cong.adjoint(W), B.T @ (W * C) @ B, atol=1e-12)


def test_shape_validation():
    op = LinearOperator.from_matrix(np.ones((2, 3)))
    with pytest.raises(ValueError):
        op.apply(np.ones(2))
    with pytest.raises(ValueError):
        op.adjoint(np.ones(3))


def _operators():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((3, 3))
    B = rng.standard_normal((2, 3))
    C = (rng.random((2, 2)) < 0.5).astype(float)
    return {
        "from_matrix": LinearOperator.from_matrix(rng.standard_normal((4, 3))),
        "identity": LinearOperator.identity((2, 3)),
        "zero": LinearOperator.zero((3, 2), (4,)),
        "lyapunov_operator": lyapunov_operator(A),
        "masked_congruence": masked_congruence(B, C),
        "vstack": vstack([lyapunov_operator(A), masked_congruence(B, C),
                          LinearOperator.identity((3, 3))]),
    }


@pytest.mark.parametrize("name", sorted(_operators()))
def test_operator_is_its_matrix(name):
    op = _operators()[name]
    rng = np.random.default_rng(8)
    M = op.matrix
    assert M.shape == (op.out_dim, op.in_dim)
    u = rng.standard_normal(op.in_shape)
    v = rng.standard_normal(op.out_shape)
    assert op.apply(u).shape == op.out_shape
    assert op.adjoint(v).shape == op.in_shape
    assert np.array_equal(vec(op.apply(u)), M @ vec(u))
    assert np.array_equal(vec(op.adjoint(v)), M.T @ vec(v))
    assert np.array_equal(op.dense(), M.toarray())
    with pytest.raises(ValueError):
        op.apply(np.ones(op.in_shape[::-1] + (1,)))
    with pytest.raises(ValueError):
        op.adjoint(np.ones(op.out_shape[::-1] + (1,)))


def _products():
    """Every kind of CSR matrix the field kernels bind with ``csr_product``:
    each operator's matrix and its transpose, a p x 0 matrix, the kernels'
    ``EF`` and ``EFt``, the block diagonal of a problem's column blocks (the
    layout a kernel keeps where one product of ``EF`` would round
    differently), and a network's kron adjacency."""
    mats = {}
    for name, op in _operators().items():
        mats[name] = op.matrix
        mats[name + ".T"] = op.matrix.T.tocsr()
    mats["p_by_0"] = sp.csr_matrix((4, 0))
    for name, prob in (("lasso", assemble_consensus(examples.gen_lasso_network(3, 4, 3, seed=0)[0])),
                       ("pcp", examples.gen_pcp(6, 1, seed=3)[0]),
                       ("sgl", examples.gen_sparse_group_lasso(6, 12, 3, seed=2)[0]),
                       ("covariance", examples.gen_covariance_completion(3)[0])):
        mats[name + ".blocks"] = block_diagonal(
            [op.matrix for op in prob.E.blocks + prob.F.blocks])
        mats[name + ".EF"] = prob.kernel.EF
        mats[name + ".EFt"] = prob.kernel.EFt
    net = examples.gen_lasso_network(5, 4, 3, seed=0)[0]
    rows = [i for i, nb in enumerate(net.neighbors) for _ in nb]
    cols = [j for nb in net.neighbors for j in nb]
    adj = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(net.k, net.k))
    mats["kron_adjacency"] = sp.kron(adj, sp.identity(net.x_dim), format="csr")
    return mats


def test_csr_product_calls_scipys_matvec():
    # a scipy release that moves this private kernel fails here first
    from scipy.sparse._sparsetools import csr_matvec
    assert linops.csr_matvec is csr_matvec


@pytest.mark.parametrize("name", sorted(_products()))
def test_csr_product_is_the_matrix_product(name):
    A = _products()[name]
    rng = np.random.default_rng(10)
    product = csr_product(A)
    for _ in range(3):
        x = rng.standard_normal(A.shape[1])
        got, want = product(x), A @ x
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
    identity = (A.shape[0] == A.shape[1]
                and (A != sp.identity(A.shape[0], format="csr")).nnz == 0)
    assert (product(x) is x) == identity
    assert identity == (name in {"identity", "identity.T", "pcp.blocks"})

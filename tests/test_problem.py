import numpy as np
import pytest

from palflow import prox
from palflow.linops import BlockOperator, LinearOperator
from palflow.problem import (AssumptionError, NonsmoothBlock, PrimalDualState,
                             SaddleProblem, SmoothBlock, check_assumption4, check_assumption5,
                             ges_certificate, kkt_residual,
                             verify_declared_constants)

from conftest import (build_lifted, composite_instance,
                      quadratic_equality_instance)


def one_dim_equality():
    """min (1/2) x^2 subject to x = 1; saddle at x* = 1, lam* = -1."""
    smooth = [SmoothBlock.quadratic(np.array([[1.0]]))]
    E = BlockOperator([LinearOperator.from_matrix(np.array([[1.0]]))])
    F = BlockOperator([], p=1)
    return SaddleProblem(smooth, [], E, F, np.array([1.0]))


def test_kkt_zero_at_hand_computed_saddle():
    prob = one_dim_equality()
    s = PrimalDualState([np.array([1.0])], [], [], np.array([-1.0]))
    assert kkt_residual(prob, s) == pytest.approx(0.0, abs=1e-14)


def test_kkt_positive_when_infeasible(rng):
    prob = one_dim_equality()
    s = PrimalDualState([np.array([2.0])], [], [], np.array([0.5]))
    assert kkt_residual(prob, s) > 0.1
    prob2 = composite_instance(rng)
    assert kkt_residual(prob2, prob2.random_state(rng)) > 0.0


def test_pack_unpack_roundtrip(rng):
    prob = composite_instance(rng)
    s = prob.random_state(rng)
    flat = prob.pack(s)
    assert flat.size == prob.state_dim
    s2 = prob.unpack(flat)
    assert np.allclose(prob.pack(s2), flat)
    for a, b in zip(s.x + s.z + s.y, s2.x + s2.z + s2.y):
        assert np.array_equal(np.asarray(a), np.asarray(b))


def test_dimensions_are_the_block_sums_summed_once(rng, monkeypatch):
    prob = composite_instance(rng, x_dims=(4, 3, 2), z_dims=(3, 2))
    m, n = prob.m, prob.n
    assert m == sum(int(np.prod(b.shape)) for b in prob.smooth_blocks) == 9
    assert n == sum(int(np.prod(b.shape)) for b in prob.nonsmooth_blocks) == 5
    assert prob.state_dim == m + 2 * n + prob.p == prob.pack(prob.zero_state()).size
    # later reads take the stored sums: no block's size is asked again
    monkeypatch.setattr(SmoothBlock, "dim", property(lambda b: 1 / 0))
    monkeypatch.setattr(NonsmoothBlock, "dim", property(lambda b: 1 / 0))
    assert (prob.m, prob.n, prob.state_dim) == (m, n, m + 2 * n + prob.p)


def test_dimension_validation():
    smooth = [SmoothBlock.quadratic(np.eye(2))]
    E = BlockOperator([LinearOperator.from_matrix(np.ones((3, 2)))])
    with pytest.raises(ValueError):
        SaddleProblem(smooth, [], E, BlockOperator([], p=2), np.zeros(3))
    with pytest.raises(ValueError):
        SaddleProblem(smooth, [], E, BlockOperator([], p=3), np.zeros(3), mu=-1)


@pytest.mark.parametrize("name,kwargs", [
    ("mu", {"mu": np.nan}), ("mu", {"mu": np.inf}), ("mu", {"mu": 0.0}),
    ("alpha", {"alpha": np.nan}), ("alpha", {"alpha": np.inf}), ("alpha", {"alpha": -1.0}),
    ("q", {"q": np.array([np.nan, 0.0])}), ("q", {"q": np.array([0.0, -np.inf])})])
def test_saddle_problem_rejects_nonfinite_numbers(name, kwargs):
    smooth = [SmoothBlock.quadratic(np.eye(2))]
    E = BlockOperator([LinearOperator.from_matrix(np.eye(2))])
    args = {"q": np.zeros(2), **kwargs}
    with pytest.raises(ValueError, match=name):
        SaddleProblem(smooth, [], E, BlockOperator([], p=2), **args)


def test_assumption4_all_strongly_convex(rng):
    prob, _ = quadratic_equality_instance(rng)
    res = check_assumption4(prob)
    assert res.holds
    assert res.I == () and res.J == ()


def test_assumption4_duplicate_columns_fail():
    col = np.array([[1.0], [2.0]])
    smooth = [SmoothBlock(shape=(1,), value=lambda x: 0.0,
                          grad=lambda x: np.zeros(1), lipschitz=1.0)
              for _ in range(2)]
    E = BlockOperator([LinearOperator.from_matrix(col),
                       LinearOperator.from_matrix(col)])
    prob = SaddleProblem(smooth, [], E, BlockOperator([], p=2), np.zeros(2))
    assert not check_assumption4(prob).holds


@pytest.mark.parametrize("scale", [1.0, 1e-10])
def test_assumption4_rank_is_scale_invariant(scale):
    smooth = [SmoothBlock(shape=(2,), value=lambda x: 0.0,
                          grad=lambda x: np.zeros(2), lipschitz=1.0)]
    E = BlockOperator([LinearOperator.from_matrix(scale * np.eye(2))])
    prob = SaddleProblem(smooth, [], E, BlockOperator([], p=2), np.zeros(2))
    res = check_assumption4(prob)
    assert res.holds and res.I == (0,)


def test_assumption5_full_row_rank(rng):
    prob, _ = quadratic_equality_instance(rng)
    assert check_assumption5(prob)
    prob2 = composite_instance(rng)
    assert isinstance(check_assumption5(prob2), bool)


def test_certificate_scalar_instance():
    prob = one_dim_equality()
    cert = ges_certificate(prob)
    # all blocks strongly convex: the modulus falls back to the per-block
    # convention, here the single curvature 1
    assert cert.empty_set_convention
    assert cert.m_xz == pytest.approx(1.0)
    assert cert.alpha_bar2 == pytest.approx(0.5 * 1.0 / (1.0 + 4.0))
    assert cert.M2 == pytest.approx(2.0 * cert.c1 + 1.0)
    assert cert.rho2 > 0


def _sigma_min_max(A):
    s = np.linalg.svd(A, compute_uv=False)
    return s[-1], s[0]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_certificate_general_branch(seed):
    """f strongly convex in every block and g in none: ``I = ()``, ``J`` is
    every nonsmooth block, and ``m_xz = m_f σ_min²(F) / (m_f μ + 4 σ_max²(E))``."""
    prob = composite_instance(np.random.default_rng(seed), mu=0.7)
    cert = ges_certificate(prob)
    assert (cert.notes["I"], cert.notes["J"]) == ((), (0, 1))
    assert not cert.empty_set_convention
    m_f, mu = prob.m_f, prob.mu
    assert m_f > 0 and prob.m_g == 0
    smin_F, smax_E = _sigma_min_max(prob.F.dense())[0], _sigma_min_max(prob.E.dense())[1]
    want = m_f * smin_F ** 2 / (m_f * mu + 4 * smax_E ** 2)
    assert cert.m_xz == pytest.approx(want, rel=1e-12)


def test_certificate_with_no_strongly_convex_block():
    """One least-squares block with fewer rows than unknowns and no nonsmooth
    block (Assumptions 4 and 5 leave no room for one): ``m_xz = σ_min²([E F])/μ``."""
    rng = np.random.default_rng(5)
    smooth = [SmoothBlock.least_squares(rng.standard_normal((2, 3)), rng.standard_normal(2))]
    E = BlockOperator([LinearOperator.from_matrix(rng.standard_normal((4, 3)))])
    prob = SaddleProblem(smooth, [], E, BlockOperator([], p=4),
                         E.apply([rng.standard_normal(3)]), mu=0.5)
    cert = ges_certificate(prob)
    assert (cert.notes["I"], cert.notes["J"]) == ((0,), ())
    assert prob.m_f == prob.m_g == 0
    smin_EF = _sigma_min_max(np.hstack([prob.E.dense(), prob.F.dense()]))[0]
    assert cert.m_xz == pytest.approx(smin_EF ** 2 / 0.5, rel=1e-12)


def test_certificate_with_f_and_g_strongly_convex():
    """A strongly convex smooth block, a plain one, and a strongly convex
    nonsmooth block: ``m_fg = min(m_f, m_g)``, ``I = (1,)``, ``J = ()``, and
    ``m_xz = m_fg σ_min²(E_1) / (m_fg μ + 4 σ_max²([E_0 F]))``."""
    rng = np.random.default_rng(6)
    A = rng.standard_normal((5, 3))
    smooth = [SmoothBlock.quadratic(A.T @ A), SmoothBlock.least_squares(
        rng.standard_normal((1, 2)), rng.standard_normal(1))]
    g = prox.ProximableFunction(value=lambda w: 0.25 * float(np.sum(w ** 2)),
                                prox=lambda mu, v: v / (1.0 + 0.5 * mu),
                                strong_convexity=0.5)
    nonsmooth = [NonsmoothBlock(g, (2,))]
    E0, E1, F0 = (rng.standard_normal((4, d)) for d in (3, 2, 2))
    E = BlockOperator([LinearOperator.from_matrix(E0), LinearOperator.from_matrix(E1)])
    F = BlockOperator([LinearOperator.from_matrix(F0)])
    prob = SaddleProblem(smooth, nonsmooth, E, F, rng.standard_normal(4), mu=1.5)
    cert = ges_certificate(prob)
    assert (cert.notes["I"], cert.notes["J"]) == ((1,), ())
    m_fg = min(prob.m_f, prob.m_g)
    assert prob.m_f > 0 and prob.m_g == 0.5 and not cert.empty_set_convention
    smin_I = _sigma_min_max(E1)[0]
    smax_comp = _sigma_min_max(np.hstack([E0, F0]))[1]
    want = m_fg * smin_I ** 2 / (m_fg * 1.5 + 4 * smax_comp ** 2)
    assert cert.m_xz == pytest.approx(want, rel=1e-12)


def test_certificate_requires_mu_mg_bound():
    g = prox.ProximableFunction(value=lambda w: float(np.sum(w ** 2)),
                                prox=lambda mu, v: v / (1.0 + 2.0 * mu),
                                strong_convexity=2.0)
    nonsmooth = [NonsmoothBlock(g, (1,))]
    F = BlockOperator([LinearOperator.from_matrix(np.array([[1.0]]))])
    prob = SaddleProblem([], nonsmooth, BlockOperator([], p=1), F,
                         np.zeros(1), mu=1.0)
    with pytest.raises(AssumptionError):
        ges_certificate(prob)


def test_certificate_requires_declared_lipschitz():
    smooth = [SmoothBlock(shape=(1,), value=lambda x: 0.0,
                          grad=lambda x: np.zeros(1), lipschitz=0.0,
                          strong_convexity=1.0)]
    E = BlockOperator([LinearOperator.from_matrix(np.array([[1.0]]))])
    prob = SaddleProblem(smooth, [], E, BlockOperator([], p=1), np.zeros(1))
    with pytest.raises(AssumptionError, match="L_f"):
        ges_certificate(prob)


def test_certificate_rejects_rank_violation():
    col = np.array([[1.0], [0.0]])
    nonsmooth = [NonsmoothBlock(prox.l1(1.0), (1,)) for _ in range(2)]
    F = BlockOperator([LinearOperator.from_matrix(-col),
                       LinearOperator.from_matrix(-col)])
    prob = SaddleProblem([], nonsmooth, BlockOperator([], p=2), F, np.zeros(2))
    assert not check_assumption4(prob).holds
    with pytest.raises(AssumptionError):
        ges_certificate(prob)


def test_lifted_dimensions_and_kkt():
    prob = one_dim_equality()
    lifted = build_lifted(prob)
    assert lifted.primal_dim == prob.m + 2 * prob.n
    r = lifted.kkt_residual([np.array([1.0])], [], [], [], np.array([-1.0]))
    assert r == pytest.approx(0.0, abs=1e-14)


def test_lifted_kkt_with_nonsmooth_block(rng):
    prob = composite_instance(rng)
    lifted = build_lifted(prob)
    s = prob.random_state(rng)
    # on the manifold w = z the lifted residual equals the original
    r_lift = lifted.kkt_residual(s.x, s.z, s.z, s.y, s.lam)
    assert r_lift == pytest.approx(kkt_residual(prob, s), rel=1e-12)
    assert lifted.g_value(s.z) == pytest.approx(prob.g_value(s.z))


def test_declared_constants_verified(rng):
    prob, _ = quadratic_equality_instance(rng)
    assert verify_declared_constants(prob, rng, samples=20)


def test_declared_constants_catch_lies(rng):
    bad = SmoothBlock(shape=(2,), value=lambda x: float(x @ x),
                      grad=lambda x: 2.0 * x, lipschitz=0.5)
    E = BlockOperator([LinearOperator.from_matrix(np.eye(2))])
    prob = SaddleProblem([bad], [], E, BlockOperator([], p=2), np.zeros(2))
    with pytest.warns(UserWarning):
        assert not verify_declared_constants(prob, rng, samples=20)


def test_declared_constant_helpers():
    blk = SmoothBlock.quadratic(np.diag([2.0, 5.0]))
    assert blk.lipschitz == pytest.approx(5.0)
    assert blk.strong_convexity == pytest.approx(2.0)
    M = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    ls = SmoothBlock.least_squares(M, np.zeros(3))
    s = np.linalg.svd(M, compute_uv=False)
    assert ls.lipschitz == pytest.approx(s[0] ** 2)
    assert ls.strong_convexity == pytest.approx(s[-1] ** 2)


def test_quadratic_rejects_nonsymmetric_hessian(rng):
    # the gradient H x + c is only right for symmetric H
    with pytest.raises(ValueError, match="symmetric"):
        SmoothBlock.quadratic(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        SmoothBlock.quadratic(np.ones((2, 3)))
    A = rng.standard_normal((7, 4))
    blk = SmoothBlock.quadratic(A.T @ A, np.ones(4))   # symmetric to rounding
    x = rng.standard_normal(4)
    assert np.allclose(blk.grad(x), A.T @ (A @ x) + 1.0)


def test_least_squares_rejects_a_non_matrix_M():
    with pytest.raises(ValueError, match="M must be a matrix"):
        SmoothBlock.least_squares(np.ones(4), np.ones(4))
    with pytest.raises(ValueError, match="M must be a matrix"):
        SmoothBlock.least_squares(np.ones((2, 3, 4)), np.ones(2))


def test_least_squares_rejects_wrong_length_h():
    # the gradient at 0 would broadcast h to [-3, -3, -3, -3]
    with pytest.raises(ValueError, match="h must be a vector of 3 entries"):
        SmoothBlock.least_squares(np.ones((3, 4)), np.array([1.0]))
    with pytest.raises(ValueError, match="h must be a vector of 3 entries"):
        SmoothBlock.least_squares(np.ones((3, 4)), np.ones((3, 1)))


def test_quadratic_rejects_wrong_length_c():
    with pytest.raises(ValueError, match="c must be a vector of 3 entries"):
        SmoothBlock.quadratic(np.eye(3), np.array([2.0]))
    with pytest.raises(ValueError, match="c must be a vector of 3 entries"):
        SmoothBlock.quadratic(np.eye(3), np.ones((3, 1)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["M", "h", "H", "c"])
def test_smooth_blocks_reject_nonfinite_data(name, bad):
    data = {"M": np.ones((3, 2)), "h": np.ones(3), "H": np.eye(2), "c": np.ones(2)}
    data[name][(0,) * data[name].ndim] = bad
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        if name in "Mh":
            SmoothBlock.least_squares(data["M"], data["h"])
        else:
            SmoothBlock.quadratic(data["H"], data["c"])


def test_least_squares_gradient_is_the_matrix_product(rng):
    M, h = rng.standard_normal((5, 7)), rng.standard_normal(5)
    blk = SmoothBlock.least_squares(M, h)
    assert blk.kind == "least_squares"
    assert np.array_equal(blk.meta["M"], M)
    assert np.array_equal(blk.meta["h"], h)
    for _ in range(5):
        x = rng.standard_normal(7)
        want = M.T @ (M @ x - h)
        assert np.max(np.abs(blk.grad(x) - want)) <= 1e-14 * np.max(np.abs(want))
    with pytest.raises(ValueError, match=r"expected input of shape \(7,\)"):
        blk.grad(np.ones(5))


def test_lipschitz_xz_formula(rng):
    prob = composite_instance(rng)
    smax = np.linalg.svd(prob._EF_dense(), compute_uv=False)[0]
    assert prob.lipschitz_xz() == pytest.approx(
        prob.L_f + (1.0 + smax ** 2) / prob.mu)


def test_ges_certificate_factors_EF_once(svd_calls):
    # criterion 2's first certified instance: one SVD of [E F], one of E
    prob, _ = quadratic_equality_instance(np.random.default_rng(11), p=3, dims=(4, 3),
                                          curvature=5.0, a_scale=0.45)
    cert = ges_certificate(prob)
    assert svd_calls == [(3, 7), (3, 7)]
    assert cert.L_xz == prob.lipschitz_xz()
    assert cert.notes["sigma_max_EF"] == prob.kernel.singular_extremes.sigma_max
    ges_certificate(prob)
    assert len(svd_calls) == 3             # [E F] is not factored again

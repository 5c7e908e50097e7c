import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import RK45, solve_ivp
from scipy.optimize import brentq

from palflow import examples, flow, prox
from palflow.distributed import assemble_consensus, simulate, unpack_agents
from palflow.flow import (FlowField, IntegratorConfig, blockwise_field,
                          integrate, integrate_ode, pal_value, vector_field)
from palflow.linops import (BlockOperator, LinearOperator, block_diagonal,
                            masked_congruence, unvec, vec)
from palflow.problem import (BlockPlan, NonsmoothBlock, PrimalDualState,
                             SaddleProblem, SmoothBlock, _fold_order, kkt_residual)

from conftest import (build_lifted, composite_instance, pal_gradient,
                      quadratic_equality_instance, same_doubles,
                      separate_adjoint_field, src_env)


def one_dim_equality():
    smooth = [SmoothBlock.quadratic(np.array([[1.0]]))]
    E = BlockOperator([LinearOperator.from_matrix(np.array([[1.0]]))])
    return SaddleProblem(smooth, [], E, BlockOperator([], p=1), np.array([1.0]))


# -- value and gradient ------------------------------------------------------

def test_value_at_saddle_equals_optimum():
    prob = one_dim_equality()
    s = PrimalDualState([np.array([1.0])], [], [], np.array([-1.0]))
    assert pal_value(prob, s) == pytest.approx(0.5)


def test_value_collapse_without_data():
    g = prox.zero()
    nonsmooth = [NonsmoothBlock(g, (2,))]
    F = BlockOperator([LinearOperator.zero((2,), (1,))])
    mu = 1.7
    prob = SaddleProblem([], nonsmooth, BlockOperator([], p=1), F,
                         np.zeros(1), mu=mu)
    y = np.array([1.0, -2.0])
    s = PrimalDualState([], [np.zeros(2)], [y], np.array([0.3]))
    assert pal_value(prob, s) == pytest.approx(-0.5 * mu * float(y @ y))


def test_value_continuous_in_mu(rng):
    prob = composite_instance(rng)
    s = prob.random_state(rng)
    vals = []
    for mu in (0.999, 1.0, 1.001):
        prob.mu = mu
        vals.append(pal_value(prob, s))
    prob.mu = 1.0
    assert abs(vals[0] - vals[1]) < 0.1
    assert abs(vals[2] - vals[1]) < 0.1


def test_gradient_matches_finite_differences(rng):
    prob = composite_instance(rng)
    s = prob.random_state(rng)
    gx, gz, gy, glam = pal_gradient(prob, s)
    h = 1e-6

    def fd(bump):
        sp, sm = s.copy(), s.copy()
        bump(sp, +h)
        bump(sm, -h)
        return (pal_value(prob, sp) - pal_value(prob, sm)) / (2 * h)

    for bi, g in enumerate(gx):
        for j in range(g.size):
            def bump(st, d, bi=bi, j=j):
                st.x[bi] = st.x[bi].copy()
                st.x[bi].flat[j] += d
            assert fd(bump) == pytest.approx(vec(g)[j], rel=2e-5, abs=2e-5)
    for bi, g in enumerate(gz):
        for j in range(g.size):
            def bump(st, d, bi=bi, j=j):
                st.z[bi] = st.z[bi].copy()
                st.z[bi].flat[j] += d
            assert fd(bump) == pytest.approx(vec(g)[j], rel=2e-5, abs=2e-5)
    for bi, g in enumerate(gy):
        for j in range(g.size):
            def bump(st, d, bi=bi, j=j):
                st.y[bi] = st.y[bi].copy()
                st.y[bi].flat[j] += d
            assert fd(bump) == pytest.approx(vec(g)[j], rel=2e-5, abs=2e-5)
    for j in range(glam.size):
        def bump(st, d, j=j):
            st.lam = st.lam.copy()
            st.lam[j] += d
        assert fd(bump) == pytest.approx(glam[j], rel=2e-5, abs=2e-5)


def test_field_zero_at_saddle():
    prob = one_dim_equality()
    s = PrimalDualState([np.array([1.0])], [], [], np.array([-1.0]))
    d = vector_field(prob, s)
    assert np.allclose(prob.pack(d), 0.0, atol=1e-14)


def test_alpha_scales_dual_parts_only(rng):
    prob = composite_instance(rng)
    s = prob.random_state(rng)
    prob.alpha = 1.0
    d1 = vector_field(prob, s)
    prob.alpha = 2.0
    d2 = vector_field(prob, s)
    for a, b in zip(d1.x + d1.z, d2.x + d2.z):
        assert np.allclose(a, b, atol=1e-15)
    for a, b in zip(d1.y, d2.y):
        assert np.allclose(2.0 * np.asarray(a), b, atol=1e-13)
    assert np.allclose(2.0 * d1.lam, d2.lam, atol=1e-13)


def test_blockwise_equals_monolithic(rng):
    for _ in range(20):
        prob = composite_instance(rng)
        s = prob.random_state(rng)
        v1 = prob.pack(vector_field(prob, s))
        v2 = prob.pack(blockwise_field(prob, s))
        scale = max(1.0, float(np.max(np.abs(v1))))
        assert np.max(np.abs(v1 - v2)) <= 1e-14 * scale


def test_blockwise_single_block_collapse():
    prob = one_dim_equality()
    s = PrimalDualState([np.array([0.3])], [], [], np.array([0.7]))
    assert np.allclose(prob.pack(vector_field(prob, s)),
                       prob.pack(blockwise_field(prob, s)), atol=1e-15)


def test_flow_field_matches_vector_field(rng):
    prob = composite_instance(rng)
    ff = FlowField(prob)
    s = prob.random_state(rng)
    flat = prob.pack(s)
    assert np.allclose(ff(0.0, flat), prob.pack(vector_field(prob, s)),
                       atol=1e-14)


# -- the flat kernel against the per-block reference -------------------------

def _rel_gap(a, b):
    return float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(a))))


def dense_congruence_problem():
    """A masked congruence with a dense ``B``: the sparse product that builds
    its matrix leaves each row's column indices unsorted."""
    rng = np.random.default_rng(5)
    E = BlockOperator([masked_congruence(rng.standard_normal((2, 3)),
                                         np.array([[1.0, 0.0], [1.0, 1.0]]))])
    F = BlockOperator([LinearOperator.from_matrix(-np.eye(4))])
    smooth = [SmoothBlock(shape=(3, 3), value=lambda X: 0.5 * np.sum(X ** 2),
                          grad=lambda X: X, lipschitz=1.0, strong_convexity=1.0)]
    return SaddleProblem(smooth, [NonsmoothBlock(prox.l1(), (4,))], E, F,
                         rng.standard_normal(4))


def mixed_prox_problem():
    """z blocks that interleave l1 blocks of different weights, 1-D and
    matrix-shaped, with group-lasso, nuclear, zero and custom blocks; the
    custom block wraps the soft threshold and is not of kind l1."""
    rng = np.random.default_rng(11)
    custom = prox.ProximableFunction(
        value=lambda w: 0.9 * float(np.sum(np.abs(w))),
        prox=lambda mu, v: prox.prox_l1(0.9 * mu, v), kind="custom")
    part = prox.GroupPartition([np.arange(2), np.arange(2, 4)], [0.6, 1.4], eta=0.2)
    blocks = [(prox.l1(0.4), (3,)), (prox.l1(1.3), (2, 2)),
              (prox.group_lasso(part), (4,)), (prox.l1(0.7), (3,)),
              (prox.l1(0.25), (2, 3)), (custom, (2,)), (prox.l1(1.1), (2,)),
              (prox.nuclear(0.5), (3, 2)), (prox.zero(), (3,)), (prox.l1(0.9), (1,))]
    p = 7
    smooth = [SmoothBlock.quadratic(np.diag([1.0, 2.0, 3.0])),
              SmoothBlock(shape=(2, 2), value=lambda X: 0.5 * np.sum(X ** 2),
                          grad=lambda X: X, lipschitz=1.0, strong_convexity=1.0)]

    def random_map(shape):
        M = rng.standard_normal((p, int(np.prod(shape))))
        return LinearOperator(shape, (p,), lambda: M)

    E = BlockOperator([random_map(b.shape) for b in smooth])
    F = BlockOperator([random_map(sh) for _, sh in blocks])
    return SaddleProblem(smooth, [NonsmoothBlock(g, sh) for g, sh in blocks], E, F,
                         rng.standard_normal(p), mu=0.8, alpha=1.2)


def least_squares_problem():
    """Least-squares x blocks on either side of a quadratic one, under dense
    E and F blocks: the kernel's products give the least-squares gradients,
    its smooth plan the quadratic block's."""
    rng = np.random.default_rng(13)
    p = 5
    smooth = [SmoothBlock.least_squares(rng.standard_normal((3, 4)), rng.standard_normal(3)),
              SmoothBlock.quadratic(np.diag([1.0, 2.0])),
              SmoothBlock.least_squares(rng.standard_normal((2, 3)), rng.standard_normal(2))]
    E = BlockOperator([LinearOperator.from_matrix(rng.standard_normal((p, b.dim)))
                       for b in smooth])
    F = BlockOperator([LinearOperator.from_matrix(rng.standard_normal((p, 3)))])
    return SaddleProblem(smooth, [NonsmoothBlock(prox.l1(0.5), (3,))], E, F,
                         rng.standard_normal(p), mu=0.6, alpha=1.4)


KERNEL_INSTANCES = {
    "network_lasso": lambda: assemble_consensus(examples.gen_lasso_network(3, 4, 3, seed=0)[0]),
    "sparse_group_lasso": lambda: examples.gen_sparse_group_lasso(6, 12, 3, seed=2)[0],
    # identity F blocks and an empty E
    "pcp": lambda: examples.gen_pcp(6, 1, seed=3)[0],
    # Lyapunov and masked-congruence E, identity-over-zero F, matrix-shaped x and z
    "covariance_completion": lambda: examples.gen_covariance_completion(3)[0],
    "counterexample": lambda: examples.counterexample_problem(mu=0.7, alpha=1.3),
    "dense_congruence": dense_congruence_problem,
    "mixed_prox": mixed_prox_problem,
    "least_squares": least_squares_problem,
}
# (mu, alpha): both unit, neither, a unit mu only, and alpha * mu == 1
SCALES = [(1.0, 1.0), (0.3, 2.5), (1.0, 2.5), (2.5, 0.4)]


# each instance at its own (mu, alpha), then at every pair of SCALES
@pytest.mark.parametrize("name, scales", [
    *(pytest.param(name, None, id=name) for name in sorted(KERNEL_INSTANCES)),
    *(pytest.param(name, sc, id=f"{name}-{sc[0]}-{sc[1]}")
      for name in sorted(KERNEL_INSTANCES) for sc in SCALES)])
def test_kernel_field_matches_blockwise(name, scales, rng):
    prob = KERNEL_INSTANCES[name]()
    if scales is not None:
        prob.mu, prob.alpha = scales
    for _ in range(5):
        s = prob.random_state(rng)
        flat = prob.kernel.field(prob.pack(s))
        assert _rel_gap(flat, prob.pack(blockwise_field(prob, s))) <= 1e-14
        # the residual sums the blocks in BlockOperator's order, to the bit
        g = prob.kernel.gradient(prob.pack(s))
        k = prob.m + prob.n
        assert np.array_equal(g[k + prob.n:], prob.constraint_residual(s.x, s.z))
        # the field is the gradient, its primal part negated and its dual
        # part scaled, to the bit
        assert np.array_equal(flat, np.concatenate([-g[:k], prob.alpha * g[k:]]))


@pytest.mark.parametrize("name", ["sparse_group_lasso", "pcp", "sgl_20x200", "pcp_40"])
def test_sgl_and_pcp_keep_the_separate_adjoint_bits(name, rng):
    """Every row of the sparse group lasso's and PCP's ``[E F]^T`` stores
    one entry, or starts from a zero smooth gradient, so adding the backward
    product into the field rounds as subtracting a separate adjoint product
    did: their gradients and fields are that arithmetic's, to the bit."""
    make = {**KERNEL_INSTANCES,
            "sgl_20x200": lambda: examples.gen_sparse_group_lasso(20, 200, 10, seed=2)[0],
            "pcp_40": lambda: examples.gen_pcp(40, 3, seed=3)[0]}
    prob = make[name]()
    for mu, alpha in SCALES:
        prob.mu, prob.alpha = mu, alpha
        for _ in range(2):
            u = prob.pack(prob.random_state(rng))
            grad, field = separate_adjoint_field(prob, u)
            assert same_doubles(prob.kernel.gradient(u), grad)
            assert same_doubles(prob.kernel.field(u), field)


def _one_product_expected(E_mats, F_mats, EF):
    """The residual layout rule, row by row: on each side, at most one block
    stores more than one entry in the row, and it is the first or second of
    that side's blocks with an entry there; and where both sides have
    entries, one of them has exactly one."""
    def side_folds(counts):
        held = [c for c in counts if c > 0]
        many = [k for k, c in enumerate(held) if c > 1]
        return many in ([], [0], [1])

    for i in range(EF.shape[0]):
        e = [M.indptr[i + 1] - M.indptr[i] for M in E_mats]
        f = [M.indptr[i + 1] - M.indptr[i] for M in F_mats]
        if not (side_folds(e) and side_folds(f) and min(sum(e), sum(f)) <= 1):
            return False
    return True


def _pattern_problem(p, e_widths, f_widths, seed):
    """A problem whose column blocks have random stored-entry patterns: 0-3
    entries per row, some stored as explicit zeros, over values of mixed
    magnitudes. An F width of None is a p x p identity block; a width given
    as ``(width, counts)`` fixes the block's stored entries per row."""
    rng = np.random.default_rng(seed)

    def block(width):
        if width is None:
            return LinearOperator.identity((p,))
        if isinstance(width, tuple):
            width, per_row = width[0], np.array(width[1])
        else:
            per_row = np.minimum(rng.choice(4, size=p, p=[0.3, 0.45, 0.15, 0.1]), width)
        cols = [np.sort(rng.choice(width, size=k, replace=False)) for k in per_row]
        k = int(per_row.sum())
        data = rng.standard_normal(k) * 10.0 ** rng.uniform(-2, 2, k)
        data[rng.random(k) < 0.15] = 0.0
        M = sp.csr_matrix((data, np.concatenate([np.zeros(0, int)] + cols),
                           np.concatenate([[0], np.cumsum(per_row)])), shape=(p, width))
        return LinearOperator((width,), (p,), lambda: M)

    E = BlockOperator([block(w) for w in e_widths], p=p)
    F = BlockOperator([block(w) for w in f_widths], p=p)
    width = lambda w: w[0] if isinstance(w, tuple) else w
    smooth = [SmoothBlock.quadratic(np.eye(width(w))) for w in e_widths]
    nonsmooth = [NonsmoothBlock(prox.zero(), (p if w is None else width(w),))
                 for w in f_widths]
    q = rng.standard_normal(p)
    q[rng.random(p) < 0.3] = 0.0
    return SaddleProblem(smooth, nonsmooth, E, F, q), rng


@settings(max_examples=300, deadline=None)
@given(p=st.integers(1, 5), e_widths=st.lists(st.integers(1, 4), max_size=3),
       f_widths=st.lists(st.one_of(st.none(), st.integers(1, 4)), max_size=3),
       seed=st.integers(0, 2 ** 32 - 1))
@example(p=3, e_widths=[], f_widths=[], seed=0)                   # no blocks
@example(p=3, e_widths=[], f_widths=[None, None, None], seed=0)   # PCP's pattern
@example(p=3, e_widths=[], f_widths=[None], seed=0)               # identity [E F]
@example(p=3, e_widths=[2], f_widths=[None], seed=0)               # E beside an identity F
# sgl's: one E1 entry, then a measurement row of T; E2 beside one F entry
@example(p=3, e_widths=[(3, [1, 1, 0]), (5, [5, 5, 1])], f_widths=[(2, [0, 0, 1])], seed=0)
# a many-entry E block third among the row's E blocks keeps the block diagonal
@example(p=2, e_widths=[(1, [1, 1]), (2, [1, 1]), (3, [3, 1])], f_widths=[], seed=0)
# a many-entry F block, second on its side, beside one E entry
@example(p=3, e_widths=[(2, [1, 1, 1])], f_widths=[(1, [1, 0, 1]), (3, [3, 2, 3])], seed=1)
# two many-entry blocks on one side
@example(p=2, e_widths=[(3, [2, 2]), (3, [2, 0])], f_widths=[], seed=2)
# more than one entry on both sides: two one-entry E blocks beside an F row of two
@example(p=2, e_widths=[(1, [1, 1]), (1, [1, 1])], f_widths=[(3, [2, 2])], seed=3)
def test_residual_layout_rule(p, e_widths, f_widths, seed):
    """The kernel takes one product of ``[E F]`` exactly where the rule
    holds, and either layout gives ``BlockOperator``'s residual to the bit,
    signed zeros included."""
    prob, rng = _pattern_problem(p, e_widths, f_widths, seed)
    kernel = prob.kernel
    mats = [[op.matrix for op in B.blocks] for B in (prob.E, prob.F)]
    assert (kernel.blocks is None) == _one_product_expected(*mats, kernel.EF)
    k = prob.m + prob.n
    for _ in range(8):
        s = prob.random_state(rng)
        for a in s.x + s.z:
            a *= 10.0 ** rng.uniform(-3, 3, a.shape)
            a[rng.random(a.shape) < 0.2] = -0.0
        u = prob.pack(s)
        want = prob.constraint_residual(s.x, s.z)
        assert same_doubles(kernel.gradient(u)[k + prob.n:], want)


@pytest.mark.parametrize("name, one_product", [
    ("network_lasso", True), ("pcp", True), ("covariance_completion", True),
    ("counterexample", True), ("dense_congruence", True),
    ("sparse_group_lasso", True), ("mixed_prox", False),
    # palbench's full-size instances
    ("lasso_5x20", True), ("pcp_40", True), ("sgl_20x200", True)])
def test_residual_layout_of_each_instance(name, one_product):
    make = {**KERNEL_INSTANCES,
            "lasso_5x20": lambda: assemble_consensus(
                examples.gen_lasso_network(5, 20, 3, seed=0)[0]),
            "pcp_40": lambda: examples.gen_pcp(40, 3, seed=3)[0],
            "sgl_20x200": lambda: examples.gen_sparse_group_lasso(20, 200, 10, seed=2)[0]}
    # the block diagonal is built only where it is the layout picked
    assert (make[name]().kernel.blocks is None) == one_product


def _scipy_kernel_matrices(prob):
    """``FieldKernel``'s forward and backward matrices stacked by scipy:
    ``[M; residual rows]``, ``M`` the block diagonal of the least-squares
    blocks' ``M`` on their x columns and none on z, and ``-[M^T EFt]``,
    sorted. The residual rows are ``EF``'s in fold order, or the kernel's
    block diagonal ``blocks``."""
    k = prob.kernel
    M = block_diagonal([b.meta["M"] if b.kind == "least_squares" else sp.csr_matrix((0, b.dim))
                        for b in prob.smooth_blocks] + [sp.csr_matrix((0, prob.n))])
    rows = k.blocks
    if rows is None:
        order = _fold_order(k.EF, *[[op.matrix for op in B.blocks] for B in (prob.E, prob.F)])
        rows = sp.csr_matrix((k.EF.data[order], k.EF.indices[order], k.EF.indptr),
                             shape=k.EF.shape)
    B = sp.hstack([M.T, k.EFt], format="csr")
    B.sort_indices()
    return sp.vstack([M, rows], format="csr"), -B


@pytest.mark.parametrize("name", sorted(KERNEL_INSTANCES))
def test_kernel_field_matrices_are_scipys_stacks(name):
    prob = KERNEL_INSTANCES[name]()
    k = prob.kernel
    for got, want in zip((k.forward, k.back), _scipy_kernel_matrices(prob)):
        assert got.shape == want.shape
        for a in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, a), getattr(want, a))


@pytest.mark.parametrize("name", sorted(KERNEL_INSTANCES))
def test_kkt_read_off_the_field(name, rng):
    """The KKT residual is read off the field at the state, evaluated or
    given, and equals the lifted block-by-block reference; with ``mu`` and
    ``alpha`` away from 1, a dropped ``/alpha`` or ``/mu`` shows."""
    prob = KERNEL_INSTANCES[name]()
    prob.mu, prob.alpha = 0.45, 2.7
    lifted = build_lifted(prob)
    for _ in range(5):
        s = prob.random_state(rng)
        u = prob.pack(s)
        want = lifted.kkt_residual(s.x, s.z, s.z, s.y, s.lam)
        assert 0.1 < want < 1e3
        got = prob.kernel.kkt(u)
        assert got == prob.kernel.kkt(u, prob.kernel.field(u))
        assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("name", ["network_lasso", "covariance_completion"])
def test_kkt_near_the_optimum_is_the_lifted_reference(name):
    """Reading the residual off the field loses nothing that shows near the
    optimum: at the kept states of a run with KKT at most 1e-9, it is within
    1e-14 of the lifted block-by-block reference."""
    if name == "network_lasso":
        prob = KERNEL_INSTANCES[name]()
        s0 = prob.zero_state()
    else:
        # a fast dual time constant reaches the tail in well under a second
        prob, s0 = examples.gen_covariance_completion(3, alpha=10.0)
    traj = integrate(prob, s0, IntegratorConfig(t_end=1000.0, stop_kkt=1e-10, rel_tol=1e-5))
    assert traj.termination == "stop_kkt"
    lifted = build_lifted(prob)
    near = np.flatnonzero(traj.diagnostics["kkt_residual"] <= 1e-9)
    assert near.size >= 2
    for i in near:
        s = prob.unpack(traj.states[i])
        want = lifted.kkt_residual(s.x, s.z, s.z, s.y, s.lam)
        assert abs(prob.kernel.kkt(traj.states[i]) - want) <= 1e-14


@pytest.mark.parametrize("name", sorted(KERNEL_INSTANCES))
def test_block_plans_are_the_per_block_calls(name, rng):
    """A plan of the smooth blocks is their gradients, 0.0 on least-squares
    blocks, whose own gradient is scipy's two CSR products; the kernel's
    prox plan is the per-block proxes."""
    prob = KERNEL_INSTANCES[name]()
    kernel = prob.kernel
    plan, _ = _plan_of(prob.smooth_blocks)
    for mu in (prob.mu, 0.37):
        x, v = rng.standard_normal(prob.m), 2.0 * rng.standard_normal(prob.n)
        xs = [unvec(x[sl], b.shape) for sl, b in kernel.x_blocks]
        vs = [unvec(v[sl], b.shape) for sl, b in kernel.z_blocks]
        grads = prob.f_grad(xs)
        for b, xi, g in zip(prob.smooth_blocks, xs, grads):
            if b.kind == "least_squares":
                M = sp.csr_matrix(b.meta["M"])
                assert np.array_equal(g, M.T.tocsr() @ (M @ xi - b.meta["h"]))
        want_grad = np.concatenate([np.zeros(b.dim) if b.kind == "least_squares" else vec(g)
                                    for b, g in zip(prob.smooth_blocks, grads)]
                                   + [np.empty(0)])
        want_prox = np.concatenate([vec(b.g.prox(mu, vi))
                                    for (_, b), vi in zip(kernel.z_blocks, vs)] + [np.empty(0)])
        assert same_doubles(plan.grad(x), want_grad)
        assert np.array_equal(kernel.z_plan.prox(mu, v), want_prox)


def test_block_plan_fuses_adjacent_l1_blocks_only():
    plan = mixed_prox_problem().kernel.z_plan
    # l1 l1 | group | l1 l1 | custom | l1 | nuclear | zero | l1
    assert [(sl.start, sl.stop, w is not None) for sl, w, _, _ in plan.runs] == [
        (0, 7, True), (7, 11, False), (11, 20, True), (20, 22, False),
        (22, 24, True), (24, 30, False), (30, 33, False), (33, 34, True)]
    assert np.array_equal(plan.runs[2][1], [0.7] * 3 + [0.25] * 6)
    assert [shape for _, _, shape, _ in plan.runs if shape] == [(3, 2)]
    # every l1 run's positions and weights, in order, for the kink search
    assert plan.l1_index.tolist() == [*range(7), *range(11, 20), 22, 23, 33]
    assert np.array_equal(plan.l1_weight, np.concatenate(
        [w for _, w, _, _ in plan.runs if w is not None]))
    assert _plan_of(composite_instance(np.random.default_rng(0)).smooth_blocks)[0].l1_index is None
    # every matrix-shaped nuclear block, for the rank-change search
    assert plan.nuclear == [(slice(24, 30), (3, 2), 0.5)]


def _plan_of(blocks):
    ends = np.cumsum([b.dim for b in blocks]).tolist()
    slices = [slice(e - b.dim, e) for e, b in zip(ends, blocks)]
    return BlockPlan(zip(slices, [b.shape for b in blocks], blocks)), slices


def test_block_plan_writes_zero_for_least_squares_blocks(rng):
    def ls(rows, cols):
        return SmoothBlock.least_squares(rng.standard_normal((rows, cols)),
                                         rng.standard_normal(rows))

    quad = SmoothBlock.quadratic(np.diag([1.0, 2.0]))
    # adjacent least-squares blocks around a quadratic one: each is a run
    blocks = [ls(3, 4), ls(2, 4), quad, ls(5, 3), ls(1, 2)]
    plan, slices = _plan_of(blocks)
    assert [(sl.start, sl.stop) for sl, _, _, _ in plan.runs] == [
        (0, 4), (4, 8), (8, 10), (10, 13), (13, 15)]
    assert [b for _, _, _, b in plan.runs] == [None, None, quad, None, None]
    for _ in range(5):
        x = rng.standard_normal(plan.dim)
        want = np.concatenate([quad.grad(x[sl]) if b is quad else np.zeros(b.dim)
                               for sl, b in zip(slices, blocks)])
        assert same_doubles(plan.grad(x), want)


def test_block_plan_output_never_aliases_its_input(rng):
    """A lone l1 run returns the soft threshold's fresh array; a lone block
    whose function returns its input is copied, and a lone least-squares
    block's 0.0 is written into a new array."""
    ident = SmoothBlock(shape=(4,), value=lambda x: 0.5 * x @ x, grad=lambda x: x)
    passthrough = prox.ProximableFunction(value=lambda w: 0.0, prox=lambda mu, v: v)
    lone_ls = SmoothBlock.least_squares(rng.standard_normal((3, 4)), rng.standard_normal(3))
    x = rng.standard_normal(4)
    for block, want in ((ident, x), (lone_ls, np.zeros(4))):
        plan, _ = _plan_of([block])
        g = plan.grad(x)
        assert same_doubles(g, want) and not np.shares_memory(g, x)
    for g in (passthrough, prox.l1(0.3)):
        plan = BlockPlan([(slice(0, 4), (4,), g)])
        p = plan.prox(0.7, x)
        assert np.array_equal(p, g.prox(0.7, x)) and not np.shares_memory(p, x)


def test_kernel_reads_mu_and_alpha_per_call(rng):
    prob = composite_instance(rng)
    s = prob.random_state(rng)
    prob.kernel.field(prob.pack(s))
    prob.mu, prob.alpha = 0.3, 2.5
    flat = prob.kernel.field(prob.pack(s))
    assert _rel_gap(flat, prob.pack(blockwise_field(prob, s))) <= 1e-14
    lifted = build_lifted(prob).kkt_residual(s.x, s.z, s.z, s.y, s.lam)
    assert kkt_residual(prob, s) == pytest.approx(lifted, rel=1e-12)


def _always_scaled(prob, u):
    """The kernel's gradient and field at ``u``, and its KKT residual read
    off that field, with every pass that multiplies or divides by
    ``mu`` or ``alpha`` taken and each prox its block's own call: the
    reference that skipping a unit scale's passes must equal to the bit. Its
    x and z rows start from the other smooth gradients (negated in the
    field; 0.0 where the products give every one) and ``(v - pv) / mu``
    (``(pv - v) / mu``), and the kernel's backward product of ``[M x - h;
    r / mu + lam]`` is added into them."""
    k, m, n, mu, a = prob.kernel, prob.m, prob.n, prob.mu, prob.alpha
    kk = m + n
    z, y, lam = u[m:kk], u[kk:kk + n], u[kk + n:]

    def prox_g(v):
        return np.concatenate([vec(b.g.prox(mu, unvec(v[sl], b.shape)))
                               for sl, b in k.z_blocks] + [np.empty(0)])

    w = k._forward(u[:kk], np.zeros(k._w_dim))[:k.n_ls + prob.p]
    r = w[k.n_ls:] - prob.q
    w[:k.n_ls] -= k._h
    w[k.n_ls:] = r / mu
    w[k.n_ls:] += lam
    v = mu * y
    v += z
    pv = prox_g(v)
    # the smooth gradients the backward product does not cover
    rest = k._x_rest.grad(u[:m]) if k._x_rest else np.zeros(m)
    grad = np.concatenate([rest, (v - pv) / mu, z - pv, r])
    k._back_grad(w, grad[:kk])
    field = np.concatenate([-rest if k._x_rest else rest, (pv - v) / mu, z - pv, r])
    k._back_field(w, field[:kk])
    field[kk:] *= a
    r, d = field[kk + n:] / a, field[kk:kk + n] / a
    g = k._adjoint(r / mu)
    g += field[:kk]
    g[m:] += d / mu
    return grad, field, float(np.sqrt(g @ g + d @ d + r @ r))


CRITERION_6 = ["network_lasso", "sparse_group_lasso", "pcp", "covariance_completion"]


def _instance(name, rng):
    return composite_instance(rng) if name == "composite" else KERNEL_INSTANCES[name]()


@pytest.mark.parametrize("mu,alpha", SCALES)
@pytest.mark.parametrize("name", CRITERION_6 + ["composite"])
def test_unit_scales_cost_no_bit(name, mu, alpha, rng):
    """Where mu or alpha is 1 the kernel skips the passes that scale by it;
    its gradient, its field (returned or written into ``out``) and its KKT
    residual, with the field given or not, equal the always-scaling form,
    value and sign bit, also on states holding zeros of either sign."""
    prob = _instance(name, rng)
    prob.mu, prob.alpha = mu, alpha
    k = prob.kernel
    for i in range(4):
        u = prob.pack(prob.random_state(rng))
        if i % 2:
            u[rng.random(u.size) < 0.2] = 0.0
            u[rng.random(u.size) < 0.2] = -0.0
        grad, field, kkt = _always_scaled(prob, u)
        assert same_doubles(k.gradient(u), grad)
        assert same_doubles(k.field(u), field)
        out = np.full_like(u, np.nan)
        assert k.field(u, out) is out and same_doubles(out, field)
        assert k.kkt(u) == kkt and k.kkt(u, field) == kkt


@pytest.mark.parametrize("mu", [1.0, 0.8, 1.6])
@pytest.mark.parametrize("name", ["mixed_prox", "sparse_group_lasso", "network_lasso",
                                  "composite"])
def test_a_solve_leaves_the_plan_arrays_unchanged(name, mu, rng):
    """The l1 levels and the group weights are read, never written: at a
    unit mu the proxes read them as stored."""
    prob = _instance(name, rng)
    prob.mu = mu
    plan = prob.kernel.z_plan
    parts = [b.g.meta["partition"] for b in prob.nonsmooth_blocks
             if b.g.kind == "group_lasso"]
    held = [w for _, w, _, _ in plan.runs if w is not None] + [plan.l1_weight]
    held += [a for part in parts for a in (part.weights, part.live_weights)]
    before = [a.copy() for a in held]
    integrate(prob, prob.random_state(rng), IntegratorConfig(t_end=2.0))
    assert all(same_doubles(a, b) for a, b in zip(held, before))


def test_flow_field_writes_into_out(rng):
    prob = composite_instance(rng)
    u = prob.pack(prob.random_state(rng))
    out = np.full_like(u, np.nan)
    assert FlowField(prob)(0.0, u, out) is out
    assert same_doubles(out, prob.kernel.field(u))


def test_the_in_place_run_is_the_copying_run(rng):
    """A run whose field writes into the stepper's stage rows equals, to the
    bit, the run of a two-argument field whose values the stepper copies
    in: with rejected attempts, kink caps and cuts, a located stop and dense
    output, and the same count of evaluations."""
    prob = assemble_consensus(examples.gen_lasso_network(3, 4, 3, seed=0)[0])
    k = prob.kernel
    y0 = prob.pack(prob.random_state(rng))
    cfg = IntegratorConfig(t_end=600.0, stop_kkt=1e-2, record_stride=3)
    runs = [integrate_ode(fun, y0, cfg, event=lambda t, y, f: k.kkt(y, f) - 1e-2,
                          dense=True,
                          switching=flow.ProxSwitching.of(k.z_plan, k.m, k.m + k.n,
                                                          lambda: prob.mu))
            for fun in (FlowField(prob), lambda t, y: k.field(y))]
    a, b = runs
    assert a.termination == b.termination == "event"
    assert min(a.meta[key] for key in ("rejected", "kink_cuts", "kink_caps")) > 0
    for key in ("n_evals", "steps", "rejected", "kink_cuts", "kink_caps"):
        assert a.meta[key] == b.meta[key]
    assert same_doubles(a.times, b.times) and same_doubles(a.states, b.states)
    assert same_doubles(a.diagnostics["field_norm"], b.diagnostics["field_norm"])
    ts = np.linspace(0.0, a.times[-1], 101)
    assert same_doubles(a.meta["dense"](ts), b.meta["dense"](ts))


@pytest.mark.parametrize("name", CRITERION_6 + ["composite", "mixed_prox"])
def test_the_stop_bound_is_below_the_kkt_residual(name, rng):
    """``kkt_bound(f)`` never exceeds ``kkt(u, f)``, and lies at least ``size``
    machine epsilons of itself below ``||(f_y, f_lam)|| / alpha`` taken
    exactly: the margin that covers the rounding of the dot products."""
    prob = _instance(name, rng)
    k, eps = prob.kernel, Fraction(np.finfo(float).eps)
    for mu, alpha in SCALES:
        prob.mu, prob.alpha = mu, alpha
        for scale in (1e-6, 1.0, 1e6):
            u = scale * prob.pack(prob.random_state(rng))
            f = k.field(u)
            bound = k.kkt_bound(f)
            assert 0 < bound <= k.kkt(u, f)
            exact = sum(Fraction(x) ** 2 for x in f[prob.m + prob.n:]) / Fraction(alpha) ** 2
            assert Fraction(bound) ** 2 <= (1 - u.size * eps) ** 2 * exact


@pytest.fixture
def steppers(monkeypatch):
    """Every stepper ``flow`` creates during the test; each records the
    times at which it called its right-hand side."""
    solvers = []

    class Recording(flow._RungeKutta):
        def __init__(self, fun, *args, **kwargs):
            self.calls = []
            solvers.append(self)

            def counted(t, y):
                self.calls.append(t)
                return fun(t, y)
            super().__init__(counted, *args, **kwargs)

    monkeypatch.setattr(flow, "_RungeKutta", Recording)
    return solvers


def test_flow_field_counts_solver_calls_only(rng, steppers):
    prob = composite_instance(rng)
    for method, stages in (("rk4", 4), ("euler", 1)):
        traj = integrate(prob, prob.zero_state(),
                         IntegratorConfig(method=method, h=0.1, t_end=1.0))
        solver = steppers.pop()
        assert len(traj.times) == 11
        assert traj.meta["n_evals"] == len(solver.calls) == solver.nfev == stages * 10
        assert traj.meta["steps"] == 10

    for cfg in (IntegratorConfig(t_end=1.0), IntegratorConfig(t_end=1.0, record_stride=3),
                IntegratorConfig(t_end=50.0, stop_kkt=1e-2)):
        traj = integrate(prob, prob.random_state(rng), cfg)
        solver = steppers.pop()
        assert traj.meta["n_evals"] == len(solver.calls) == solver.nfev
        assert len(traj.times) >= 2
    assert traj.termination == "stop_kkt" and steppers == []


def test_rejected_counts_the_attempts_not_accepted(rng, steppers):
    prob = composite_instance(rng)
    net, _ = examples.gen_lasso_network(5, 4, seed=1)
    cfgs = [IntegratorConfig(t_end=20.0), IntegratorConfig(t_end=50.0, record_stride=3),
            IntegratorConfig(method="rk4", h=0.1, t_end=1.0),
            IntegratorConfig(method="euler", h=0.05, t_end=1.0)]
    runs = [lambda cfg: integrate(prob, prob.random_state(rng), cfg),
            lambda cfg: simulate(net, unpack_agents(net, rng.standard_normal(5 * 4 * 5)),
                                 cfg, 1.0, 1.0)]
    stop = IntegratorConfig(t_end=200.0, stop_kkt=1e-3)
    rejected = 0
    for run, cfg in [(r, c) for r in runs for c in cfgs] + [(runs[0], stop)]:
        traj = run(cfg)
        solver = steppers.pop()
        assert traj.meta["n_evals"] == len(solver.calls) == solver.nfev
        want = 0
        if cfg.method == "rk45":
            # after a call at the start and one for the first step size,
            # each attempt ends with two calls at its end point: the last
            # stage and the field there
            calls = solver.calls[2:]
            attempts = sum(a == b for a, b in zip(calls, calls[1:]))
            assert len(calls) == 6 * attempts
            want = attempts - traj.meta["steps"]
        assert traj.meta["rejected"] == want
        rejected += want
    assert steppers == []
    assert traj.termination == "stop_kkt"       # the last run ended on its event
    assert rejected > 0


def test_stop_kkt_event_is_the_kkt_residual(rng, monkeypatch):
    """Handed no field, the stop event is the KKT residual less the target.
    Handed the field, it has that sign, and equals the residual read off the
    field less the target wherever the bound does not clear the target."""
    prob = composite_instance(rng)
    seen = {}
    integrate_ode = flow.integrate_ode

    def capture(fun, y0, cfg, event=None, sample=None, switching=None):
        seen[cfg.stop_kkt] = event
        return integrate_ode(fun, y0, cfg, event=event, sample=sample,
                             switching=switching)

    monkeypatch.setattr(flow, "integrate_ode", capture)
    for stop in (1e-3, 1e3):
        integrate(prob, prob.random_state(rng), IntegratorConfig(t_end=0.1, stop_kkt=stop))
    lifted = build_lifted(prob)
    for _ in range(5):
        s = prob.random_state(rng)
        u = prob.pack(s)
        f = prob.kernel.field(u)
        value = seen[1e-3](0.0, u, None) + 1e-3
        assert value == pytest.approx(kkt_residual(prob, s), rel=1e-12)
        assert value == pytest.approx(lifted.kkt_residual(s.x, s.z, s.z, s.y, s.lam),
                                      rel=1e-12)
        for stop, event in seen.items():
            staged = event(0.0, u, f)
            assert (staged > 0) == (prob.kernel.kkt(u, f) > stop) == (value > stop)
            if not prob.kernel.kkt_bound(f) > stop:
                assert staged == prob.kernel.kkt(u, f) - stop
        # the bound clears 1e-3 on these states, not 1e3
        assert prob.kernel.kkt_bound(f) > 1e-3 and seen[1e3](0.0, u, f) < 0


@pytest.mark.parametrize("method,h,stride,stop", [
    ("rk45", None, 1, 0.3), ("rk45", None, 3, 0.3), ("rk45", None, 3, 1e-12),
    ("euler", 0.01, 1, 0.3), ("euler", 0.01, 7, 1e-12)])
def test_stop_kkt_column_reuses_the_event(rng, monkeypatch, method, h, stride, stop):
    """With ``stop_kkt``, ``kernel.kkt`` runs once per event call handed no
    field, once per event call handed a field (the start's, and the last
    stage of each accepted adaptive step) whose bound does not clear the
    target, reading that field, and once per kept sample, reading the field
    held there or one evaluated for it; the column equals a fresh
    evaluation at every sample, to the bit. The stop is a share ``stop`` of
    the starting KKT residual."""
    prob = composite_instance(rng)
    s0 = prob.random_state(rng)
    cfg = IntegratorConfig(method=method, h=h, t_end=3.0, record_stride=stride,
                           stop_kkt=stop * kkt_residual(prob, s0))
    kkt, calls, event_calls = prob.kernel.kkt, [], []
    monkeypatch.setattr(prob.kernel, "kkt",
                        lambda u, f=None: calls.append(f is None) or kkt(u, f))
    integrate_ode = flow.integrate_ode

    def counting(fun, y0, cfg, event=None, sample=None, switching=None):
        # None where no field is handed, else whether its bound clears
        return integrate_ode(fun, y0, cfg, sample=sample, switching=switching,
                             event=lambda t, y, f: event_calls.append(
                                 None if f is None
                                 else prob.kernel.kkt_bound(f) > cfg.stop_kkt)
                             or event(t, y, f))

    monkeypatch.setattr(flow, "integrate_ode", counting)
    traj = integrate(prob, s0, cfg)
    assert traj.termination == ("stop_kkt" if stop == 0.3 else "t_end")
    assert calls.count(True) == event_calls.count(None)
    assert calls.count(False) == event_calls.count(False) + len(traj.times)
    # the adaptive method hands the event a field at every accepted step
    handed = len(event_calls) - event_calls.count(None)
    assert handed == (traj.meta["steps"] + 1 if method == "rk45" else 1)
    if method == "rk45":
        # the bound clears the target at the steps far from it, and not at
        # every step up to the stop
        assert event_calls.count(True) > 0
        assert (event_calls.count(False) > 0) == (stop == 0.3)
    assert traj.diagnostics["kkt_residual"].tolist() == [kkt(u) for u in traj.states]


@pytest.mark.parametrize("instance,stop", [("composite", 1e-6), ("network", 1e-2),
                                           ("network", 1e-5)])
def test_stop_kkt_from_the_stage_keeps_the_stop_point(rng, monkeypatch, instance, stop):
    """The stop event reads the KKT residual off the last stage; an event
    that evaluates it afresh stops the same run at the same step, after the
    same attempts, at a time equal to rounding."""
    if instance == "composite":
        prob = composite_instance(rng)
    else:
        prob = assemble_consensus(examples.gen_lasso_network(3, 8, 3, seed=0)[0])
    s0 = prob.random_state(rng)
    cfg = IntegratorConfig(t_end=600.0, stop_kkt=stop, record_stride=10)
    staged = integrate(prob, s0, cfg)
    integrate_ode = flow.integrate_ode

    def fresh(fun, y0, cfg, event=None, sample=None, switching=None):
        return integrate_ode(fun, y0, cfg, sample=sample, switching=switching,
                             event=lambda t, y, f: event(t, y, None))

    monkeypatch.setattr(flow, "integrate_ode", fresh)
    direct = integrate(prob, s0, cfg)
    assert staged.termination == direct.termination == "stop_kkt"
    for key in ("steps", "rejected", "n_evals"):
        assert staged.meta[key] == direct.meta[key]
    assert staged.times[-1] == pytest.approx(direct.times[-1], rel=1e-9, abs=0)
    assert np.array_equal(staged.times[:-1], direct.times[:-1])


def test_stop_kkt_evaluates_the_start_field_once(monkeypatch):
    """A network-lasso run to ``stop_kkt`` evaluates the field at its start
    once, as the stepper's first stage, which the stop event is handed. It
    stops where a run whose event evaluates the start's field afresh stops,
    after as many evaluations."""
    prob = assemble_consensus(examples.gen_lasso_network(5, 20, 3, seed=0)[0])
    k, start = prob.kernel, prob.pack(prob.zero_state()).tobytes()
    field, calls = k.field, []
    monkeypatch.setattr(k, "field", lambda u, out=None: calls.append(u.tobytes())
                        or field(u, out))
    cfg = IntegratorConfig(t_end=600.0, stop_kkt=1e-2)
    handed = integrate(prob, prob.zero_state(), cfg)
    assert handed.termination == "stop_kkt"
    assert calls.count(start) == 1
    integrate_ode = flow.integrate_ode

    def fresh_start(fun, y0, cfg, event=None, sample=None, switching=None):
        return integrate_ode(fun, y0, cfg, sample=sample, switching=switching,
                             event=lambda t, y, f: event(t, y, None if t == 0.0 else f))

    monkeypatch.setattr(flow, "integrate_ode", fresh_start)
    calls.clear()
    fresh = integrate(prob, prob.zero_state(), cfg)
    assert calls.count(start) == 2
    assert fresh.times[-1] == handed.times[-1]
    assert fresh.meta["n_evals"] == handed.meta["n_evals"]


def test_reused_buffers_never_leak(rng, monkeypatch):
    """The stepper's work arrays never become a state, a kept sample, a
    step's start or a piece of dense output, and nothing it hands out is
    written by a later step: on Euler, RK4 and RK45, with a located stop and
    with dense output."""
    seen = []

    class Watched(flow._RungeKutta):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.held, self.pieces = [(self.y, self.y.copy())], []
            seen.append(self)

        def _work_arrays(self):
            return [self.K, self._work, self._y_new] + ([self._scale] if self.adaptive else [])

        def step(self):
            super().step()
            handed = [self.y] + ([self.y_old] if self.adaptive else [])
            assert not any(np.shares_memory(a, w)
                           for a in handed for w in self._work_arrays())
            # the field held at an accepted state is the last stage row,
            # which the next step copies into its first before any stage
            assert self._f is None or (self.adaptive and np.shares_memory(self._f, self.K[-1])
                                       and not np.shares_memory(self._f, self.K[:-1]))
            self.held.append((self.y, self.y.copy()))

        def dense_output(self):
            sol = super().dense_output()
            assert not any(np.shares_memory(a, w) for a in (sol.y_old, sol.Q)
                           for w in self._work_arrays())
            self.pieces.append((sol, sol.y_old.copy(), sol.Q.copy()))
            return sol

    monkeypatch.setattr(flow, "_RungeKutta", Watched)
    prob = composite_instance(rng)
    s0 = prob.random_state(rng)
    runs = [integrate(prob, s0, IntegratorConfig(method="euler", h=0.01, t_end=1.0)),
            integrate(prob, s0, IntegratorConfig(method="rk4", h=0.05, t_end=1.0)),
            integrate(prob, s0, IntegratorConfig(t_end=2.0)),
            integrate(prob, s0, IntegratorConfig(
                t_end=50.0, stop_kkt=0.3 * kkt_residual(prob, s0)))]
    t_star, dense = examples.counterexample_run(5.0)
    assert [t.termination for t in runs] == ["t_end"] * 3 + ["stop_kkt"]
    for traj, stepper in zip(runs + [dense], seen):
        assert all(np.array_equal(y, copy) for y, copy in stepper.held)
        kept = [copy for _, copy in stepper.held]
        located = traj.termination in ("stop_kkt", "region_exit")
        assert np.array_equal(traj.states[:len(traj.times) - located],
                              kept[:len(traj.times) - located])
        for sol, y_old, Q in stepper.pieces:
            assert np.array_equal(sol.y_old, y_old) and np.array_equal(sol.Q, Q)
        if located:
            # the end point the root search located, from the pristine piece
            sol, y_old, Q = stepper.pieces[-1]
            end = flow._DenseStep(sol.t_old, sol.t_old + sol.h, y_old, Q)(traj.times[-1])
            assert np.array_equal(traj.states[-1], end)
    assert len(seen) == 5 and len(seen[-1].pieces) == dense.meta["steps"]


def _solve_ivp_samples(fun, y0, cfg, events=None):
    """``solve_ivp``'s RK45 run with ``record_stride`` applied to its steps."""
    sol = solve_ivp(fun, (0.0, cfg.t_end), y0, method="RK45", rtol=cfg.rel_tol,
                    atol=cfg.abs_tol, events=events)
    n = len(sol.t)
    keep = np.unique(np.r_[np.arange(0, n, cfg.record_stride), n - 1])
    return sol.t[keep], sol.y.T[keep], sol


@pytest.mark.parametrize("stride", [1, 3])
def test_rk45_loop_matches_solve_ivp(rng, stride):
    prob = composite_instance(rng)
    y0 = prob.pack(prob.random_state(rng))
    cfg = IntegratorConfig(t_end=2.0, record_stride=stride)
    run = integrate_ode(FlowField(prob), y0, cfg)
    t_ref, y_ref, sol = _solve_ivp_samples(FlowField(prob), y0, cfg)
    assert run.termination == "t_end" and run.meta["steps"] == len(sol.t) - 1
    assert np.array_equal(run.times, t_ref) and np.array_equal(run.states, y_ref)

    def event(t, y):
        return prob.kernel.kkt(y) - 1e-2
    event.terminal, event.direction = True, -1
    cfg = IntegratorConfig(t_end=200.0, stop_kkt=1e-2, record_stride=stride)
    traj = integrate_ode(FlowField(prob), y0, cfg,
                         event=lambda t, y, f: prob.kernel.kkt(y, f) - 1e-2)
    t_ref, y_ref, sol = _solve_ivp_samples(FlowField(prob), y0, cfg, [event])
    assert traj.termination == "event" and traj.meta["kink_cuts"] == 0
    assert sol.status == 1
    assert traj.times[-1] == sol.t_events[0][0] == t_ref[-1]
    assert np.array_equal(traj.times, t_ref) and np.array_equal(traj.states, y_ref)
    assert traj.meta["n_evals"] == sol.nfev


@pytest.mark.parametrize("method,h,stride,stop", [
    ("rk45", None, 1, None), ("rk45", None, 3, None), ("rk45", None, 3, 0.3),
    ("euler", 0.01, 1, None), ("euler", 0.01, 7, 0.3), ("rk4", 0.05, 3, None)])
def test_field_norms_are_the_field_at_each_sample(rng, method, h, stride, stop):
    """The norms come from the fields the steps hold; a stop is set at a
    share ``stop`` of the starting KKT residual."""
    prob = composite_instance(rng)
    s0 = prob.random_state(rng)
    cfg = IntegratorConfig(method=method, h=h, t_end=3.0, record_stride=stride,
                           stop_kkt=None if stop is None else stop * kkt_residual(prob, s0))
    traj = integrate(prob, s0, cfg)
    assert traj.termination == ("t_end" if stop is None else "stop_kkt")
    want = [np.linalg.norm(prob.kernel.field(u)) for u in traj.states]
    assert traj.diagnostics["field_norm"].tolist() == want


@pytest.mark.parametrize("instance", ["composite", "network"])
@pytest.mark.parametrize("method,h,stride", [("rk45", None, 3), ("euler", 0.01, 7),
                                             ("rk4", 0.05, 3)])
def test_integrate_reads_each_sample_off_the_run(rng, monkeypatch, instance,
                                                 method, h, stride):
    """``integrate`` evaluates no field once ``integrate_ode`` returns: each
    kept sample's ``kkt_residual`` and ``field_norm`` equal a fresh
    ``kernel.kkt(u)`` and ``||kernel.field(u)||`` to the bit, at a located
    stop too, and the stepper's calls of the field are its ``n_evals``."""
    if instance == "composite":
        prob = composite_instance(rng)
    else:
        prob = assemble_consensus(examples.gen_lasso_network(3, 8, 3, seed=0)[0])
    k = prob.kernel
    s0 = prob.random_state(rng)
    stop = 0.3 * kkt_residual(prob, s0) if method == "rk45" else None
    cfg = IntegratorConfig(method=method, h=h, t_end=3.0, record_stride=stride,
                           stop_kkt=stop)
    field, call, phase, fields, calls = k.field, FlowField.__call__, ["run"], [], []
    monkeypatch.setattr(k, "field", lambda u, out=None:
                        fields.append(phase[0]) or field(u, out))
    monkeypatch.setattr(FlowField, "__call__", lambda self, t, y, out=None:
                        calls.append(t) or call(self, t, y, out))
    integrate_ode = flow.integrate_ode

    def marked(*args, **kwargs):
        traj = integrate_ode(*args, **kwargs)
        phase[0] = "after"
        return traj

    monkeypatch.setattr(flow, "integrate_ode", marked)
    traj = integrate(prob, s0, cfg)
    monkeypatch.undo()
    assert traj.termination == ("stop_kkt" if stop else "t_end")
    assert "after" not in fields
    assert len(calls) == traj.meta["n_evals"]
    assert traj.diagnostics["kkt_residual"].tolist() == [k.kkt(u) for u in traj.states]
    want = [np.linalg.norm(k.field(u)) for u in traj.states]
    assert traj.diagnostics["field_norm"].tolist() == want


# -- integration -------------------------------------------------------------

def test_rk45_scalar_exponential():
    run = integrate_ode(
        lambda t, y: -y, np.array([1.0]),
        IntegratorConfig(method="rk45", t_end=5.0, rel_tol=1e-11, abs_tol=1e-13))
    assert run.termination == "t_end"
    assert run.states[-1, 0] == pytest.approx(np.exp(-5.0), abs=1e-8)


def test_fixed_step_methods_converge():
    cfg4 = IntegratorConfig(method="rk4", h=0.01, t_end=2.0)
    states4 = integrate_ode(lambda t, y: -y, np.array([1.0]), cfg4).states
    assert states4[-1, 0] == pytest.approx(np.exp(-2.0), abs=1e-8)
    cfg1 = IntegratorConfig(method="euler", h=1e-4, t_end=2.0, record_stride=100)
    states1 = integrate_ode(lambda t, y: -y, np.array([1.0]), cfg1).states
    assert states1[-1, 0] == pytest.approx(np.exp(-2.0), abs=1e-3)


@pytest.mark.parametrize("method", ["euler", "rk4"])
@pytest.mark.parametrize("h,t_end,steps", [(0.01, 0.07, 7), (0.3, 0.9, 3),
                                           (0.1, 0.5, 5), (0.1, 0.55, 6)])
def test_fixed_step_grid_takes_no_extra_step(method, h, t_end, steps):
    # 0.07 / 0.01 rounds up past 7, and 3 * 0.3 falls an ulp short of 0.9
    run = integrate_ode(lambda t, y: -y, np.array([1.0]),
                        IntegratorConfig(method=method, h=h, t_end=t_end))
    assert run.termination == "t_end" and run.meta["steps"] == steps
    assert run.times.tolist() == [k * h for k in range(steps + 1)]


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(method="heun")
    with pytest.raises(ValueError):
        IntegratorConfig(method="euler")          # missing step
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=0.0)
    for method, h in (("euler", 0.1), ("rk4", 0.1), ("rk45", None)):
        for stride in (0, -1):
            with pytest.raises(ValueError, match="record_stride"):
                IntegratorConfig(method=method, h=h, record_stride=stride)
        for t_end in (0.0, -1.0):
            with pytest.raises(ValueError, match="t_end"):
                IntegratorConfig(method=method, h=h, t_end=t_end)


BAD_CONFIGS = [
    ("t_end", {"t_end": np.nan}), ("t_end", {"t_end": np.inf}),
    ("rel_tol", {"rel_tol": np.nan}), ("rel_tol", {"rel_tol": np.inf}),
    ("rel_tol", {"rel_tol": -1e-9}),
    ("abs_tol", {"abs_tol": np.nan}), ("abs_tol", {"abs_tol": 0.0}),
    ("h", {"method": "euler", "h": np.nan}), ("h", {"method": "rk4", "h": np.inf}),
    ("h", {"method": "euler", "h": 0.0}),
    ("stop_kkt", {"stop_kkt": np.nan}), ("stop_kkt", {"stop_kkt": np.inf}),
    ("stop_kkt", {"stop_kkt": 0.0}),
    ("max_steps", {"max_steps": 0}), ("max_steps", {"max_steps": -1}),
    ("max_steps", {"max_steps": 2.5}), ("record_stride", {"record_stride": 1.5})]


@pytest.mark.parametrize("name,kwargs", BAD_CONFIGS,
                         ids=[",".join(f"{k}={v}" for k, v in kw.items())
                              for _, kw in BAD_CONFIGS])
def test_config_rejects_nonfinite_and_out_of_range_numbers(name, kwargs):
    with pytest.raises(ValueError, match=name):
        IntegratorConfig(**kwargs)


def test_config_ignores_h_of_the_adaptive_method():
    assert IntegratorConfig(h=np.nan).method == "rk45"


def test_integrate_ode_rejects_a_nonfinite_start():
    for method, h in (("rk45", None), ("euler", 0.1)):
        with pytest.raises(ValueError, match="y0"):
            integrate_ode(lambda t, y: -y, np.array([1.0, np.nan]),
                          IntegratorConfig(method=method, h=h))


NONFINITE_FIELD = """
import numpy as np
from palflow.flow import FlowError, IntegratorConfig, integrate_ode
for method, h in (("rk45", None), ("euler", 0.1), ("rk4", 0.1)):
    for bad in (np.nan, np.inf):
        for event in (None, lambda t, y, f: -1.0):
            cfg = IntegratorConfig(method=method, h=h, t_end=1.0, max_steps=5)
            try:
                integrate_ode(lambda t, y: np.full_like(y, bad), np.ones(3), cfg,
                              event=event)
            except FlowError as e:
                print(e)
"""


def test_a_nonfinite_starting_field_is_refused():
    """A NaN field at the start once made the adaptive step size NaN, whose
    rejection loop never ended, whatever ``max_steps``; the run is in a
    subprocess with a timeout so that a regression fails, not hangs. The
    fixed-step methods refuse the same start before their first step, and
    every method refuses it on a run whose event stops it at the start."""
    out = subprocess.run([sys.executable, "-c", NONFINITE_FIELD], capture_output=True,
                         text=True, timeout=60, env=src_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["the field at the start is not finite"] * 12


def test_a_step_below_the_float_spacing_is_refused():
    """``y' = y²`` from 1 blows up at ``t = 1``, so the adaptive step size
    shrinks below the spacing of the floats there and the stepper fails."""
    calls = []
    with pytest.raises(flow.FlowError, match="^stiff/failed: Required step size is "
                                             "less than spacing between numbers[.]$"):
        integrate_ode(lambda t, y: calls.append(t) or y ** 2, np.array([1.0]),
                      IntegratorConfig(t_end=2.0))
    assert 0.999 < max(calls) < 1.0


def test_integrate_stop_kkt(rng):
    prob, s_star = quadratic_equality_instance(rng)
    s0 = prob.random_state(rng)
    cfg = IntegratorConfig(method="rk45", t_end=500.0, stop_kkt=1e-6)
    traj = integrate(prob, s0, cfg)
    assert traj.termination == "stop_kkt"
    assert traj.diagnostics["kkt_residual"][-1] <= 1e-6 * 1.01
    assert traj.times[-1] < 500.0


@pytest.mark.parametrize("method,h", [("rk45", None), ("euler", 0.01)])
def test_integrate_stop_kkt_at_start(rng, monkeypatch, method, h):
    """A start already at the target returns at once, and the stepper's
    calls of the field are its ``n_evals``."""
    prob, _ = quadratic_equality_instance(rng)
    s0 = prob.random_state(rng)
    kkt0 = kkt_residual(prob, s0)
    cfg = IntegratorConfig(method=method, h=h, t_end=50.0, stop_kkt=10 * kkt0)
    call, calls = FlowField.__call__, []
    monkeypatch.setattr(FlowField, "__call__", lambda self, t, y, out=None:
                        calls.append(t) or call(self, t, y, out))
    traj = integrate(prob, s0, cfg)
    assert traj.termination == "stop_kkt"
    assert traj.times.tolist() == [0.0]
    assert np.array_equal(traj.states[0], prob.pack(s0))
    assert len(calls) == traj.meta["n_evals"]


@pytest.mark.parametrize("method", ["euler", "rk4", "rk45"])
def test_fixed_step_max_steps_termination(method):
    h = None if method == "rk45" else 0.1
    cfg = IntegratorConfig(method=method, h=h, t_end=10.0, max_steps=5)
    run = integrate_ode(lambda t, y: -y, np.array([1.0]), cfg)
    assert run.termination == "max_steps" and run.meta["steps"] == 5
    assert len(run.times) == 6 and run.times[-1] < 10.0
    if h is not None:
        assert run.times[-1] == pytest.approx(0.5)
        cfg = IntegratorConfig(method=method, h=h, t_end=0.5, max_steps=5)
        assert integrate_ode(lambda t, y: -y, np.array([1.0]), cfg).termination == "t_end"
    # a run that ends on t_end at its last allowed step reports t_end
    full = integrate_ode(lambda t, y: -y, np.array([1.0]),
                         IntegratorConfig(method=method, h=h, t_end=0.5))
    cfg = IntegratorConfig(method=method, h=h, t_end=0.5, max_steps=full.meta["steps"])
    assert integrate_ode(lambda t, y: -y, np.array([1.0]), cfg).termination == "t_end"


def test_integrate_records_diagnostics(rng):
    prob = composite_instance(rng)
    traj = integrate(prob, prob.zero_state(), IntegratorConfig(t_end=1.0))
    assert set(traj.diagnostics) == {"kkt_residual", "field_norm"}
    assert len(traj.times) == traj.states.shape[0]
    assert traj.meta["method"] == "rk45"
    s_end = traj.final_state()
    assert kkt_residual(prob, s_end) == pytest.approx(
        traj.diagnostics["kkt_residual"][-1])


def test_trajectory_csv_layout(tmp_path, rng):
    prob = composite_instance(rng)
    traj = integrate(prob, prob.zero_state(), IntegratorConfig(t_end=0.5))
    path = tmp_path / "out.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,kkt_residual,field_norm"
    assert len(lines) == len(traj.times) + 1


def test_nonfinite_state_raises():
    cfg = IntegratorConfig(method="euler", h=0.5, t_end=100.0)
    # the overflow is the point here, not a RuntimeWarning to fail on
    with np.errstate(over="ignore"), pytest.raises(flow.FlowError, match="non-finite"):
        integrate_ode(lambda t, y: y ** 3, np.array([2.0]), cfg)


def test_record_stride_thins_samples(rng):
    prob = composite_instance(rng)
    full = integrate(prob, prob.zero_state(), IntegratorConfig(t_end=2.0))
    thin = integrate(prob, prob.zero_state(),
                     IntegratorConfig(t_end=2.0, record_stride=5))
    assert len(thin.times) < len(full.times)
    assert thin.times[-1] == pytest.approx(full.times[-1])


# -- the owned stepper's parts -----------------------------------------------

def _scipy_brentq(f, a, b, xtol, rtol):
    return brentq(f, a, b, xtol=xtol, rtol=rtol)


def _step(x):
    return -1.0 if x < 0.3 else 1.0


@pytest.mark.parametrize("f,a,b", [
    (lambda x: x ** 3 - 2 * x - 5, 2.0, 3.0),   # interpolates and extrapolates
    (lambda x: np.exp(x) - 2.0, -4.0, 6.0),
    (lambda x: (x - 0.3) ** 3, 0.0, 1.0),       # flat root: bisects between
    (_step, 0.0, 1.0),                          # no slope: bisects only
    (lambda x: np.tanh(50 * (x - 0.7)), 0.0, 1.0),
    (lambda x: x - 0.25, 0.25, 1.0)])           # a root at an end
@pytest.mark.parametrize("tol", [(2e-12, 4 * np.finfo(float).eps),
                                 (4 * np.finfo(float).eps,) * 2])
def test_brentq_port_is_scipys_step_for_step(f, a, b, tol):
    """The same points are evaluated and the same root returned; a search
    that runs out of its 100 iterations fails in both."""
    def run(brentq):
        xs = []
        try:
            root = brentq(lambda x: xs.append(x) or f(x), a, b, *tol)
        except RuntimeError:
            root = None
        return root, xs
    assert run(flow._brentq) == run(_scipy_brentq)


def test_brentq_port_refuses_a_bracket_of_one_sign_and_nan():
    with pytest.raises(ValueError, match="different signs"):
        flow._brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, 1e-12)
    with pytest.raises(ValueError, match="NaN"):
        flow._brentq(lambda x: np.nan if x > 0.5 else x - 0.9, 0.0, 1.0, 1e-12, 1e-12)


def test_dense_step_is_scipys_interpolant(rng):
    fun = FlowField(composite_instance(rng))
    y0 = 0.1 * rng.standard_normal(fun.prob.state_dim)
    ours = flow._RungeKutta(fun, y0, IntegratorConfig(t_end=1.0, rel_tol=1e-6, abs_tol=1e-9))
    theirs = RK45(fun, 0.0, y0, 1.0, rtol=1e-6, atol=1e-9)
    for _ in range(3):
        ours.step()
        theirs.step()
    assert (ours.t_old, ours.t, ours.nfev) == (theirs.t_old, theirs.t, theirs.nfev)
    assert np.array_equal(ours.y, theirs.y) and np.array_equal(ours.f, theirs.f)
    grid = np.linspace(ours.t_old, ours.t, 7)
    assert np.array_equal(ours.dense_output()(grid), theirs.dense_output()(grid))
    for t in grid[[0, 3, -1]]:
        assert np.array_equal(ours.dense_output()(t), theirs.dense_output()(t))


# -- the retry at the first prox kink ----------------------------------------

def _switching(weights, mu=1.0, extra=0):
    """Switching functions of l1 entries of ``weights`` on the flat state
    ``(z, y, extra entries)``."""
    k = len(weights)
    plan = BlockPlan([(slice(i, i + 1), (1,), prox.l1(w)) for i, w in enumerate(weights)])
    return flow.ProxSwitching.of(plan, 0, k, lambda: mu)


def _attempt(fun, y0, h=1.0):
    """One Dormand–Prince attempt of ``h`` from ``t = 0``: its end state,
    its stages (the field at the end last) and the dense-output weights."""
    st = flow._RungeKutta(fun, np.asarray(y0, dtype=float), IntegratorConfig(t_end=10.0))
    y1 = st._stages(0.0, st.y, h).copy()
    st.fun(h, y1, st.K[-1])
    return y1, st.K, st.P


def test_first_crossing_is_on_the_attempts_interpolant():
    """Fields of ``t`` alone with cubic z: the interpolant is the solution,
    so the switching function ``|z + mu y| - mu w`` crosses zero where the
    closed form says, in either direction and for either sign of z. The
    search interpolates linearly on a grid of 1/64 of the step, so it is
    off by at most ``(1/64)²/8 · max|s''| / min|s'|`` on the bracket: 1.7e-3
    for ``t³ - 0.05³`` (whose curvature is large beside its slope), under
    1e-4 for the others, and rounding only for a linear one."""
    cases = [  # (z0, y0, z', y', mu, w, crossing x)
        (0.0, 0.0, lambda t: 3 * t ** 2, lambda t: 0.0, 1.0, 0.05 ** 3, 0.05),
        (0.0, 0.0, lambda t: 3 * t ** 2, lambda t: 0.0, 1.0, 0.3, 0.3 ** (1 / 3)),
        (2.0, 0.0, lambda t: -3 * t ** 2, lambda t: 0.0, 1.0, 1.5, 0.5 ** (1 / 3)),
        (-2.0, 0.0, lambda t: 3 * t ** 2, lambda t: 0.0, 1.0, 1.5, 0.5 ** (1 / 3)),
        # v = z + mu y = t³ + t/2 reaches mu w = 0.3 where t³ + t/2 = 0.3
        (0.0, 0.0, lambda t: 3 * t ** 2, lambda t: 1.0, 0.5, 0.6,
         brentq(lambda t: t ** 3 + t / 2 - 0.3, 0, 1, xtol=1e-15)),
    ]
    for (z0, y0, dz, dy, mu, w, want), tol in zip(cases, [1.7e-3] + [1e-4] * 4):
        fun = lambda t, u: np.array([dz(t), dy(t)])
        y1, K, P = _attempt(fun, [z0, y0])
        x = _switching([w], mu).first_crossing(np.array([z0, y0]), y1, K, P, 1.0)
        assert x == pytest.approx(want, abs=tol)
    # linear: exact to rounding, and scaled by the step
    fun = lambda t, u: np.array([1.0, 0.0])
    y1, K, P = _attempt(fun, [0.0, 0.0], h=2.0)
    x = _switching([0.7]).first_crossing(np.zeros(2), y1, K, P, 2.0)
    assert x == pytest.approx(0.35, abs=1e-14)


def test_first_crossing_takes_the_earliest():
    """Entry 0 crosses once, at x = 0.6; entry 1 crosses at 0.2, 0.5 and
    0.8, so its ends too lie on either side. The first crossing of any
    entry wins; an attempt with no entry whose ends differ gives 1."""
    def fun(t, u):
        # z0 = t - 0.6 + 1, z1 = 1 + (t - 0.2)(t - 0.5)(t - 0.8); y = 0
        return np.array([1.0, 3 * t ** 2 - 3 * t + 0.66, 0.0, 0.0])

    u0 = np.array([0.4, 0.92, 0.0, 0.0])
    y1, K, P = _attempt(fun, u0)
    assert _switching([1.0, 1.0]).first_crossing(u0, y1, K, P, 1.0) == pytest.approx(
        0.2, abs=3e-4)
    assert _switching([1.0, 50.0]).first_crossing(u0, y1, K, P, 1.0) == pytest.approx(
        0.6, abs=1e-12)
    assert _switching([50.0, 1.0]).first_crossing(u0, y1, K, P, 1.0) == pytest.approx(
        0.2, abs=3e-4)
    assert _switching([50.0, 50.0]).first_crossing(u0, y1, K, P, 1.0) == 1.0


def _nuclear_switching(shape, weight, mu, l1=None):
    """Switching functions of a nuclear block of ``shape`` and ``weight`` on
    the flat state ``(z, y)``, after one l1 entry of weight ``l1`` if given."""
    blocks = [(slice(0, 1), (1,), prox.l1(l1))] if l1 is not None else []
    n = len(blocks) + shape[0] * shape[1]
    blocks.append((slice(len(blocks), n), shape, prox.nuclear(weight)))
    return flow.ProxSwitching.of(BlockPlan(blocks), 0, n, lambda: mu)


def _spectral(rng, shape, k):
    """``k`` orthonormal left and right singular vectors for ``shape``."""
    return (np.linalg.qr(rng.standard_normal((shape[0], k)))[0],
            np.linalg.qr(rng.standard_normal((shape[1], k)))[0])


@pytest.mark.parametrize("shape", [(6, 4), (4, 6), (5, 5)])
def test_nuclear_crossing_is_where_a_singular_value_meets_the_level(rng, shape):
    """Fields of ``t`` alone, ``Z(t) = U diag(s(t)) V^T`` with fixed singular
    vectors and ``y`` constant, ``Y = U diag(e) V^T``: the singular values of
    ``Z + mu Y`` are ``s_i + mu e_i``, and ``r_i`` is exactly ``(s_i + mu
    e_i)^2 - (mu c)^2``, which meets zero where the closed form says, going
    up, going down, and first where one of three goes down before two go up.
    For a linear ``s_i`` the search's linear interpolation on the grid of
    1/64 is off by at most ``(1/64)^2 / 8 · |r''| / |r'|``, under 3e-5 here;
    the bound asserted is 1e-4. A singular value that goes up through the
    level and back within the step leaves the rank at its ends alike, and
    the block is not searched."""
    mu, c = 0.8, 1.5
    level = mu * c
    cases = [  # (s(0), s', e, crossing x)
        ([0.5 * level, 0.3 * level, 2.0 * level], [1.0, 0.0, 0.0], [0.0] * 3, 0.6),
        ([1.5 * level, 0.3 * level, 2.0 * level], [-1.0, 0.0, 0.0], [0.0] * 3, 0.6),
        ([1.5 * level, 0.3 * level, 2.0 * level], [-1.0, 0.0, 0.0], [0.1, 0.2, 0.3],
         0.6 + 0.1 * mu),
        ([level - 0.6, level + 0.25, level - 0.8], [1.0, -1.0, 1.0], [0.0] * 3, 0.25),
        # s_0 = level - 0.2 + 1.6 t (1 - t) is above the level on (0.146, 0.854)
        ([level - 0.2, 0.3 * level, 2.0 * level], [lambda t: 1.6 - 3.2 * t, 0.0, 0.0],
         [0.0] * 3, 1.0),
    ]
    sw = _nuclear_switching(shape, c, mu)
    U, V = _spectral(rng, shape, 3)
    for s0, ds, e, want in cases:
        fun = lambda t, u: np.concatenate([
            np.ravel((U * [d(t) if callable(d) else d for d in ds]) @ V.T, order="F"),
            np.zeros(U.shape[0] * V.shape[0])])
        u0 = np.concatenate([np.ravel((U * s0) @ V.T, order="F"),
                             np.ravel((U * e) @ V.T, order="F")])
        y1, K, P = _attempt(fun, u0)
        assert sw.first_crossing(u0, y1, K, P, 1.0) == pytest.approx(want, abs=1e-4)


def test_the_earlier_of_an_l1_and_a_nuclear_crossing_wins(rng):
    """An l1 entry whose ``z`` meets its level at x = 0.4 (or 0.9) beside a
    nuclear block whose singular value meets its level at x = 0.7."""
    mu, shape = 0.5, (4, 3)
    U, V = _spectral(rng, shape, 2)
    dZ = np.ravel(U[:, :1] @ V[:, :1].T, order="F")
    n = 1 + dZ.size
    fun = lambda t, u: np.concatenate([[1.0], dZ, np.zeros(n)])
    u0 = np.concatenate([[0.0], np.ravel((U * [0.3, 0.1]) @ V.T, order="F"), np.zeros(n)])
    y1, K, P = _attempt(fun, u0)
    for w, want in [(0.4 / mu, 0.4), (0.9 / mu, 0.7)]:
        sw = _nuclear_switching(shape, 1.0 / mu, mu, l1=w)
        assert sw.first_crossing(u0, y1, K, P, 1.0) == pytest.approx(want, abs=1e-4)


@pytest.mark.parametrize("shape", [(7, 5), (5, 7), (6, 6)])
def test_rank_margins_start_on_the_eigenvalues_the_prox_keeps(rng, monkeypatch, shape):
    """``r_i(0) > 0`` on exactly the eigenvalues ``prox_nuclear`` keeps,
    with singular values within 1e-12 and 2e-15 of the level on either
    side."""
    seen = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        seen.append(eigh(a, *args, **kwargs)[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    mu, c = 0.8, 1.5
    level = mu * c
    sw = _nuclear_switching(shape, c, mu)
    plan, block = BlockPlan([(slice(0, shape[0] * shape[1]), shape, prox.nuclear(c))]), sw.nuclear[0]
    P = flow.METHODS["rk45"].P
    for _ in range(5):
        U, V = _spectral(rng, shape, 5)
        s = level * (1 + np.array([1e-12, -1e-12, 2e-15, -2e-15, 0.5]))
        z = np.ravel((U * s) @ V.T, order="F")
        y = 1e-3 * rng.standard_normal(z.size)
        plan.prox(mu, z + mu * y)
        v0 = z + mu * y
        r = sw.rank_margins(block, mu, v0, prox.gram(v0.reshape(shape, order="F"))[0],
                            np.zeros((7, 2 * z.size)), P, 1.0)
        keep = seen[-2] > level * level
        assert np.array_equal(seen[-1], seen[-2]) and np.array_equal(r[:, 0] > 0, keep)
        # the constant term is the eigenvalue itself, not ||V_0 w_i||^2
        assert np.array_equal(r[:, 0], seen[-1] - level * level)
        assert 0 < keep.sum() < 5


def test_pcp_is_cut_at_a_nuclear_kink(monkeypatch):
    """A small PCP run: some rejected attempt's first crossing is its
    nuclear block's rank change, ahead of every l1 entry's, and searching
    the nuclear block changes the run's steps (here not its evaluation
    count)."""
    calls = []
    margins, l1_crossing, first = (flow.ProxSwitching.rank_margins,
                                   flow.ProxSwitching._l1_crossing,
                                   flow.ProxSwitching.first_crossing)

    def recording_margins(self, *args):
        r = margins(self, *args)
        calls[-1]["nuclear"] = self._first_sign_change(r)
        return r

    def recording_l1(self, *args):
        calls[-1]["l1"] = l1_crossing(self, *args)
        return calls[-1]["l1"]

    def recording_first(self, *args):
        calls.append({})
        calls[-1]["x"] = first(self, *args)
        return calls[-1]["x"]

    monkeypatch.setattr(flow.ProxSwitching, "rank_margins", recording_margins)
    monkeypatch.setattr(flow.ProxSwitching, "_l1_crossing", recording_l1)
    monkeypatch.setattr(flow.ProxSwitching, "first_crossing", recording_first)
    prob = examples.gen_pcp(6, 1, seed=3)[0]
    cfg = IntegratorConfig(t_end=0.2)
    run = integrate(prob, prob.zero_state(), cfg)
    assert 0 < run.meta["kink_cuts"] <= run.meta["rejected"] == len(calls)
    assert any(c.get("nuclear", 1.0) == c["x"] < c["l1"] for c in calls)
    prob.kernel.z_plan.nuclear = []
    l1_only = integrate(prob, prob.zero_state(), cfg)
    assert not (np.array_equal(l1_only.times, run.times)
                and np.array_equal(l1_only.states, run.states))


class _Attempts(flow._RungeKutta):
    """A stepper that records the step of every attempt it makes, and fails
    one that retries without end."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.steps = []

    def _stages(self, t, y, h):
        self.steps.append(h)
        assert len(self.steps) <= 100, "the attempts never end"
        return super()._stages(t, y, h)


def _stiff_kink(w, t0=0.0):
    """``z' = 3(t - t0)²`` and ``y' = 0``, one l1 entry of weight ``w``, beside
    ``u' = -1000 u``, which rejects a first attempt of step 1 with the
    controller's smallest factor, 0.2."""
    def fun(t, s):
        return np.array([3 * (t - t0) ** 2, 0.0, -1000.0 * s[2]])
    st = _Attempts(fun, np.array([0.0, 0.0, 1.0]), IntegratorConfig(t_end=t0 + 10.0),
                   _switching([w], extra=1))
    st.t, st.h_abs = t0, 1.0
    return st


def test_a_rejected_attempt_is_retried_at_the_first_kink_when_shorter():
    # the crossing at x = 0.05 is shorter than the controller's 0.2
    st = _stiff_kink(0.05 ** 3)
    st.step()
    assert st.steps[:2] == [1.0, pytest.approx(0.05, abs=1.7e-3)]
    assert st.kink_cuts >= 1 and st.rejected >= 1
    # the one at x = 0.5 is longer: the controller's step is kept
    st = _stiff_kink(0.5 ** 3)
    st.step()
    assert st.steps[:2] == [1.0, 0.2]


def test_a_kink_cut_is_never_below_the_minimum_step():
    """At t = 1000 the minimum step is 10 float spacings, about 1.1e-12; a
    crossing at 1e-14 of the step is not cut to."""
    st = _stiff_kink(1e-42, t0=1000.0)
    st.step()
    assert st.steps[:2] == [1.0, pytest.approx(0.2, rel=1e-12)] and st.kink_cuts == 0


def _linear_kink(z0, w, h=1.0, t0=0.0):
    """``z' = 1`` and ``y' = 0`` from ``z = z0`` at ``t0``, one l1 entry of
    weight ``w``, about to take a step of ``h``: the kink is ``w - z0``
    ahead."""
    st = _Attempts(lambda t, s: np.array([1.0, 0.0]), np.array([z0, 0.0]),
                   IntegratorConfig(t_end=t0 + 10.0), _switching([w]))
    st.t, st.h_abs = t0, h
    return st


def test_a_step_is_capped_at_the_predicted_kink():
    """A linear field: the first attempt is shortened to the kink at 0.5,
    which the field at the start predicts exactly, and is accepted."""
    st = _linear_kink(0.0, 0.5)
    st.step()
    assert st.steps == [0.5]
    assert (st.t, st.rejected, st.kink_cuts, st.kink_caps) == (0.5, 0, 0, 1)


def test_next_crossing_is_the_first_order_time_to_a_kink():
    """Entry ``i`` reaches the level on its own side, ``±mu w_i``, at
    ``(±mu w_i - v_i) / v_i'`` to first order, with ``v = z + mu y`` and
    ``v' = f_z + mu f_y``: from inside or outside, for either sign of
    ``v``. An entry moving away from its kink, or not moving, is ignored,
    and so is one within ``LANDED·h`` of its kink."""
    sw = _switching([1.0] * 4, mu=0.5)             # levels 0.5
    # v = (0.2, -0.1, 0.9, -0.9), v' = (0.2, -0.4, -0.8, -1.0): the kinks
    # are 1.5, 1.0 and 0.5 ahead, and entry 3 moves away from its own
    u = np.array([0.1, -0.1, 0.9, -0.9, 0.2, 0.0, 0.0, 0.0])
    f = np.array([0.1, -0.4, -0.8, -1.0, 0.2, 0.0, 0.0, 0.0])
    assert sw.next_crossing(u, f, 10.0) == pytest.approx(0.5, rel=1e-14)
    f[2] = 0.8
    assert sw.next_crossing(u, f, 10.0) == pytest.approx(1.0, rel=1e-14)
    f[1] = 0.4
    assert sw.next_crossing(u, f, 10.0) == pytest.approx(1.5, rel=1e-14)
    f[0] = -0.2
    assert sw.next_crossing(u, f, 10.0) == np.inf
    f[:] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # a zero rate is dropped unwarned
        assert sw.next_crossing(u, f, 10.0) == np.inf
    # 1e-4 from the kink: ignored against a step of 1, not of 0.05
    u[[0, 4]], f[0] = (0.5 - 1e-4, 0.0), 1.0
    assert sw.next_crossing(u, f, 1.0) == np.inf
    assert sw.next_crossing(u, f, 0.05) == pytest.approx(1e-4, rel=1e-9)


@pytest.mark.parametrize("mu", [1.0, 0.5])
def test_next_crossing_is_the_scaled_formula_to_the_bit(rng, mu):
    """At a unit mu the prediction skips its scaling passes, to the bit."""
    w = 0.5 + rng.random(6)
    sw = _switching(w, mu=mu)
    for _ in range(20):
        u, f = rng.standard_normal(12), rng.standard_normal(12)
        f[rng.random(12) < 0.3] = 0.0
        v = u[:6] + mu * u[6:]
        with np.errstate(divide="ignore", invalid="ignore"):
            tau = (np.copysign(mu * w, v) - v) / (f[:6] + mu * f[6:])
        want = tau[tau > flow.ProxSwitching.LANDED].min(initial=np.inf)
        assert sw.next_crossing(u, f, 1.0) == want


def test_next_crossing_at_a_zero_entry_takes_the_side_of_its_rate():
    """An entry at ``v_i = 0``, of either sign, reaches the level on the
    side it moves to: ``mu w / |v_i'|`` ahead, whichever way it moves."""
    sw = _switching([1.0])
    for zero in (0.0, -0.0):
        for rate in (-2.0, 2.0):
            u, f = np.array([zero, zero]), np.array([rate, 0.0])
            assert sw.next_crossing(u, f, 10.0) == 0.5
    assert _switching([1.0], mu=0.5).next_crossing(np.zeros(2), np.array([0.0, -2.0]),
                                                   10.0) == 0.5


def _group_switching(groups, weights, eta=0.0, mu=1.0):
    """Switching functions of one group-lasso block of ``groups`` on the
    flat state ``(z, y)``, behind one l1 entry of weight 100 that moves
    nowhere near its kink."""
    part = prox.GroupPartition(groups, weights, eta)
    plan = BlockPlan([(slice(0, 1), (1,), prox.l1(100.0)),
                      (slice(1, 1 + part.n), (part.n,), prox.group_lasso(part))])
    return flow.ProxSwitching.of(plan, 0, 1 + part.n, lambda: mu), part


# three groups out of order in the partition: 0, 4, 8 | 1, 2 | 3, 5, 6, 7
GROUPS = [np.array([0, 4, 8]), np.array([1, 2]), np.array([3, 5, 6, 7])]


def _radial(rng, part, mu, c, v0):
    """A state and field of the block (after the l1 entry) whose ``v = z +
    mu y`` moves as ``v_g(t) = (1 + c_g t) v_g(0)``."""
    n = part.n
    y = rng.standard_normal(n)
    dy = rng.standard_normal(n)
    rate = np.empty(n)
    for g, cg in zip(part.groups, c):
        rate[g] = cg * v0[g]
    u = np.concatenate([[1.0], v0 - mu * y, [0.0], y])
    f = np.concatenate([[0.0], rate - mu * dy, [0.0], dy])
    return u, f


def test_group_next_crossing_is_exact_on_a_radial_flow(rng):
    """Where each group's ``v_g`` moves radially the first-order time
    ``(mu w_g - ||v_g||) / (c_g ||v_g||)`` is the crossing itself: a group
    inside its level and growing, one outside and shrinking; one moving
    away from its level, and one not moving, are ignored."""
    mu, w = 0.7, np.array([2.0, 1.5, 3.0])
    sw, part = _group_switching(GROUPS, w, mu=mu)
    for _ in range(10):
        v0 = np.empty(9)
        # each group at least 20 % inside or 25 % outside its level
        radii = rng.uniform(0.2, 0.8, 3) * rng.choice([1.0, 2.5], 3)
        for g, r in zip(part.groups, radii * mu * w):
            d = rng.standard_normal(len(g))
            v0[g] = r * d / np.linalg.norm(d)
        norms = part.group_norms(v0)
        c = np.where(norms < mu * w, 1.0, -0.3) * rng.uniform(0.5, 2.0, 3)
        tau = (mu * w - norms) / (c * norms)
        assert np.allclose(np.abs(1 + c * tau) * norms, mu * w, rtol=1e-14)
        u, f = _radial(rng, part, mu, c, v0)
        assert sw.next_crossing(u, f, 1.0) == pytest.approx(tau.min(), rel=1e-12)
        # the nearest group moving away, then still: the next one is taken
        first = tau.argmin()
        for cf in (-c[first], 0.0):
            c2 = c.copy()
            c2[first] = cf
            u, f = _radial(rng, part, mu, c2, v0)
            want = np.sort(tau)[1]
            assert sw.next_crossing(u, f, 1.0) == pytest.approx(want, rel=1e-12)


def test_group_next_crossing_with_eta_is_where_the_prox_switches():
    """With an entry weight ``eta > 0`` the group prox thresholds first. A
    flow that moves the thresholded ``u_g`` radially, while the entries
    within the threshold drift but stay there, switches the prox between
    zero and nonzero at the predicted time, found by bisection on
    ``prox_group_lasso``. A group held at zero by its threshold stays there
    to first order, and is not predicted."""
    mu, eta, w = 0.8, 0.3, 1.5
    sw, part = _group_switching([np.arange(5)], [w], eta=eta, mu=mu)
    level = eta * mu

    def next_crossing(v, rate):
        return sw.next_crossing(np.concatenate([[1.0], v, [0.0], np.zeros(5)]),
                                np.concatenate([[0.0], rate, [0.0], np.zeros(5)]), 1.0)

    v0 = np.array([0.9, -0.1, -0.7, 0.2, 0.5])
    u0 = prox.prox_l1(level, v0)
    held = u0 == 0
    assert 0 < np.linalg.norm(u0) < mu * w and held.sum() == 2
    # the held entries, -0.1 and 0.2, stay within 0.24 to t = 1.5
    drift = np.where(held, [0.0, -0.02, 0.0, -0.1, 0.0], 0.0)
    for c in (1.0, -0.6):
        start = v0 if c > 0 else np.where(held, v0, np.sign(v0) * (level + 3 * np.abs(u0)))
        rate = c * prox.prox_l1(level, start) + drift
        tau = next_crossing(start, rate)

        def zero_at(t):
            return not prox.prox_group_lasso(mu, part, start + t * rate).any()

        lo, hi = 0.0, 1.5
        assert zero_at(lo) != zero_at(hi)
        for _ in range(100):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if zero_at(mid) == zero_at(0.0) else (lo, mid)
        assert tau == pytest.approx(hi, rel=1e-12)
    assert next_crossing(np.array([0.1, -0.2, 0.0, 0.05, -0.1]), np.ones(5)) == np.inf


def test_a_zero_group_moves_at_the_norm_of_its_rate():
    """A group at ``v_g = 0`` reaches its level ``mu w`` after ``mu w /
    ||v_g'||``, with no warning; one not moving either is ignored."""
    mu = 0.5
    sw, part = _group_switching(GROUPS, [2.0, 1.5, 3.0], mu=mu)
    u, f = np.zeros(20), np.zeros(20)
    u[0], u[1:10], u[11:] = 1.0, -mu, 1.0       # v = z + mu y = 0 on every group
    f[1 + GROUPS[1]] = [3.0, -4.0]              # ||v'|| = 5 on group 1 only
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sw.next_crossing(u, f, 1.0) == pytest.approx(mu * 1.5 / 5.0, rel=1e-14)
        f[:] = 0.0
        assert sw.next_crossing(u, f, 1.0) == np.inf


def test_a_group_within_landed_of_its_kink_is_ignored():
    """A group ``1e-4`` short of its level, moving at unit rate, is
    ignored against a step of 1 and predicted against one of 0.05."""
    sw, part = _group_switching([np.arange(2)], [1.0])
    u = np.array([1.0, 0.6, 0.8 - 1e-4, 0.0, 0.0, 0.0])
    f = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    # ||v|| = 1 - 1e-4 (to first order), and it grows at 0.8
    gap = (1.0 - np.hypot(0.6, 0.8 - 1e-4)) / (0.8 - 1e-4) * np.hypot(0.6, 0.8 - 1e-4)
    assert sw.next_crossing(u, f, 1.0) == np.inf
    assert sw.next_crossing(u, f, 0.05) == pytest.approx(gap, rel=1e-12)


def test_group_switching_functions_are_the_group_supports(rng):
    """Each group's switching function is at or below zero exactly where
    the kernel's prox maps the group to zero, thresholded by its ``eta``,
    at a penalty set after construction."""
    prob = mixed_prox_problem()
    k = prob.kernel
    sw = flow.ProxSwitching.of(k.z_plan, k.m, k.m + k.n, lambda: prob.mu)
    (sl, part), = k.z_plan.groups
    assert np.array_equal(sw.gz, k.m + sl.start + part.order)
    for mu in (0.8, 0.3):
        prob.mu = mu
        seen = set()
        for _ in range(20):
            u = 0.5 * rng.standard_normal(prob.state_dim)
            v = u[k.m:k.m + k.n] + mu * u[k.m + k.n:k.m + 2 * k.n]
            out = k.z_plan.prox(mu, v)[sl]
            zero = np.array([not out[g].any() for g in part.groups])
            s = part.group_norms(prox.prox_l1(part.eta * mu, v[sl])) - mu * part.weights
            assert np.array_equal(s <= 0, zero)
            seen.update(zero)
        assert seen == {True, False}


def test_a_kink_at_or_beyond_the_step_or_just_landed_on_is_not_capped():
    """The predicted kink caps the step only where it lies in ``(LANDED·h,
    h)`` and not below the minimum step."""
    for z0, w in [(0.0, 1.0), (0.0, 1.5), (0.5 - 5e-4, 0.5)]:
        st = _linear_kink(z0, w)
        st.step()
        assert st.steps == [1.0] and (st.t, st.rejected, st.kink_caps) == (1.0, 0, 0)
    st = _linear_kink(0.5 - 2e-3, 0.5)
    st.step()
    assert st.steps == [pytest.approx(2e-3, rel=1e-9)] and st.kink_caps == 1
    # at t = 1000 the minimum step is about 1.1e-12: a kink 5e-13 ahead,
    # above LANDED·h for h = 1e-10, is not capped to
    st = _linear_kink(0.5 - 5e-13, 0.5, h=1e-10, t0=1000.0)
    st.step()
    assert st.steps == [pytest.approx(1e-10, rel=1e-3)] and st.kink_caps == 0


def test_a_far_kink_is_predicted_again_half_way_or_after_hold_steps(monkeypatch):
    """Steps of 0.5 toward a kink at t = 6 predict it at t = 0 (6 ahead:
    again at 3), 3, 4.5, 5.5 (0.5 ahead: not capped) and 6, where it is
    landed on and none is left; with no entry moving, the prediction is
    taken every ``HOLD`` steps."""
    seen = []
    real = flow.ProxSwitching.next_crossing

    def recording(self, y, f, h):
        seen.append(float(y[0]))
        return real(self, y, f, h)

    monkeypatch.setattr(flow.ProxSwitching, "next_crossing", recording)
    for rate, want in [(1.0, [0.0, 3.0, 4.5, 5.5, 6.0]), (0.0, [0.0, 0.0, 0.0])]:
        seen.clear()
        st = _Attempts(lambda t, s: np.array([rate, 0.0]), np.zeros(2),
                       IntegratorConfig(t_end=10.0), _switching([6.0]))
        while not st.done:
            st.h_abs = 0.5
            st.step()
        assert seen == pytest.approx(want, abs=1e-12)
        assert st.kink_caps == 0 and st.t == 10.0
    assert flow._RungeKutta.HOLD == 8


def test_the_step_after_a_kink_is_at_least_the_one_it_displaced():
    """A cap to 0.05 of a step of 1, accepted with no error, would propose
    0.5 (growth of at most 10); the step it displaced, 1, is proposed. A
    cut retry of ``z' = 3t²`` beside a fast-growing ``u' = c t⁵`` (loose
    tolerances), accepted, proposes the controller's step after the
    rejection, which a run without switching functions takes as its
    retry, and not the cut's own step. A step the controller set after a
    cap keeps the controller's proposal."""
    st = _linear_kink(0.0, 0.05)
    st.step()
    assert st.steps == [pytest.approx(0.05, rel=1e-12)] and st.h_abs == 1.0

    def fun(t, s):
        return np.array([3 * t ** 2, 0.0, 1e3 * t ** 5])

    cfg = IntegratorConfig(t_end=10.0, rel_tol=1e-3, abs_tol=1e-3)
    plain, cut = (_Attempts(fun, np.array([0.0, 0.0, 1.0]), cfg, sw)
                  for sw in (None, _switching([0.05 ** 3], extra=1)))
    for st in (plain, cut):
        st.h_abs = 1.0
        st.step()
    assert plain.steps[0] == cut.steps[0] == 1.0 and plain.rejected >= 1
    assert cut.steps[1] == pytest.approx(0.05, abs=1.7e-3)
    assert cut.steps[1] < plain.steps[1]
    assert (cut.rejected, cut.kink_cuts, cut.kink_caps) == (1, 1, 0)
    assert cut.h_abs == plain.steps[1]
    # a capped attempt rejected and retried at the controller's step: the
    # controller set the accepted step, so it does not grow
    st = _Attempts(lambda t, s: np.array([1.0, 0.0, 1e5 * t ** 5]),
                   np.array([0.0, 0.0, 1.0]), cfg, _switching([0.5], extra=1))
    st.h_abs = 1.0
    st.step()
    assert st.steps[0] == 0.5 and (st.kink_caps, st.kink_cuts) == (1, 0)
    assert st.rejected == len(st.steps) - 1 >= 1
    assert st.h_abs <= st.steps[-1] < 0.5


def test_a_kink_cap_costs_no_evaluation():
    """On a small network lasso the caps read the field the stepper holds:
    the run makes its two starting evaluations and six per attempt."""
    prob = assemble_consensus(examples.gen_lasso_network(3, 8, 3, seed=0)[0])
    run = integrate(prob, prob.zero_state(), IntegratorConfig(t_end=30.0))
    m = run.meta
    assert m["kink_caps"] > 0 and m["kink_cuts"] <= m["rejected"]
    assert m["n_evals"] == 2 + 6 * (m["steps"] + m["rejected"])


def test_switching_functions_are_the_l1_supports(rng):
    """Each switching function is at or below zero exactly where its
    entry's prox is zero: on a kernel's flat state and on a network's
    packed one, at a penalty set after construction."""
    prob = mixed_prox_problem()
    k = prob.kernel
    sw = flow.ProxSwitching.of(k.z_plan, k.m, k.m + k.n, lambda: prob.mu)
    net = examples.gen_lasso_network(4, 5, 3, seed=1)[0]
    for mu in (1.0, 0.4):
        prob.mu = mu
        for _ in range(5):
            u = rng.standard_normal(prob.state_dim)
            z, y = u[k.m:k.m + k.n], u[k.m + k.n:k.m + 2 * k.n]
            zero = k.z_plan.prox(mu, z + mu * y)[k.z_plan.l1_index] == 0
            s = np.abs(u[sw.z] + mu * u[sw.y]) - mu * sw.w
            assert np.array_equal(s <= 0, zero) and zero.any() and not zero.all()
            u = rng.standard_normal(5 * 5 * 2 + 3 * 4 * 5)
            agents = unpack_agents(net, u)
            z = np.concatenate([a.z for a in agents])
            y = np.concatenate([a.y for a in agents])
            zero = prox.prox_l1(mu * np.repeat([a.g.meta["weight"] for a in net.agents], 5),
                                z + mu * y) == 0
            nsw = net.switching(mu)
            s = np.abs(u[nsw.z] + mu * u[nsw.y]) - mu * nsw.w
            assert np.array_equal(s <= 0, zero)
    assert flow.ProxSwitching.of(_plan_of(composite_instance(rng).smooth_blocks)[0],
                                 0, 0, None) is None


def test_kink_cuts_leave_the_scipy_path_alone(rng):
    """On a network lasso, whose steps are rejected at l1 kinks, the loop
    with no switching functions is still ``solve_ivp``'s RK45 to the bit;
    ``integrate`` passes the kernel's, cuts at some rejections and so takes
    other steps. A problem with no l1 run, nuclear block or group lasso
    (two orthants) takes neither caps nor cuts; a group lasso beside an
    orthant is capped but never cut; covariance completion's nuclear block
    takes some cuts, never more than its rejections."""
    prob = assemble_consensus(examples.gen_lasso_network(3, 8, 3, seed=0)[0])
    y0 = prob.pack(prob.random_state(rng, scale=0.1))
    cfg = IntegratorConfig(t_end=30.0)
    plain = integrate_ode(FlowField(prob), y0, cfg)
    t_ref, y_ref, sol = _solve_ivp_samples(FlowField(prob), y0, cfg)
    assert np.array_equal(plain.times, t_ref) and np.array_equal(plain.states, y_ref)
    assert plain.meta["n_evals"] == sol.nfev
    assert plain.meta["rejected"] > 0 and plain.meta["kink_cuts"] == 0
    cut = integrate(prob, prob.unpack(y0), cfg)
    assert 0 < cut.meta["kink_cuts"] <= cut.meta["rejected"]
    assert cut.meta["n_evals"] != plain.meta["n_evals"]
    assert _rel_gap(cut.states[-1], plain.states[-1]) < 1e-6
    base = composite_instance(rng)
    s0 = base.pack(base.random_state(rng))

    def beside_an_orthant(second):
        plain = SaddleProblem(base.smooth_blocks,
                              [NonsmoothBlock(prox.indicator_orthant("nonneg"), (3,)), second],
                              base.E, base.F, base.q, mu=base.mu, alpha=base.alpha)
        return (integrate(plain, plain.unpack(s0), IntegratorConfig(t_end=5.0)),
                integrate_ode(FlowField(plain), s0, IntegratorConfig(t_end=5.0)))

    a, b = beside_an_orthant(NonsmoothBlock(prox.indicator_orthant("nonpos"), (2,)))
    assert a.meta["kink_caps"] == a.meta["kink_cuts"] == 0
    assert np.array_equal(a.states, b.states)
    assert a.meta["rejected"] == b.meta["rejected"] > 0
    a, b = beside_an_orthant(base.nonsmooth_blocks[1])
    assert a.meta["kink_caps"] > 0 and a.meta["kink_cuts"] == 0
    assert not np.array_equal(a.states, b.states)
    cov = examples.gen_covariance_completion(2)[0]
    a = integrate(cov, cov.random_state(rng), IntegratorConfig(t_end=5.0))
    assert 0 <= a.meta["kink_cuts"] <= a.meta["rejected"]


SOLVE_IMPORTS = """
import sys
from palflow import distributed, examples, flow
from palflow.flow import IntegratorConfig, integrate

net, _ = examples.gen_lasso_network(3, 4, 3, seed=0)
prob = distributed.assemble_consensus(net)
traj = integrate(prob, prob.zero_state(), IntegratorConfig(t_end=600.0, stop_kkt=1e-3))
assert traj.termination == "stop_kkt", traj.termination
init = distributed.agent_states_from_central(net, prob.zero_state())
distributed.simulate(net, init, IntegratorConfig(t_end=0.5), prob.alpha, prob.mu)
for prob, _ in (examples.gen_sparse_group_lasso(6, 12, 3, seed=2),
                examples.gen_pcp(6, 1, seed=3)):
    integrate(prob, prob.zero_state(), IntegratorConfig(t_end=0.2))
print(sorted(m for m in ("scipy.integrate", "scipy.optimize", "scipy.linalg",
                         "scipy.sparse.csgraph") if m in sys.modules))
"""


def test_a_solve_imports_no_scipy_beyond_sparse():
    """Building a network and solving sgl, PCP and a lasso to its stop_kkt
    event, centrally and by message passing, load none of scipy's
    integrate, optimize, linalg or csgraph."""
    out = subprocess.run([sys.executable, "-c", SOLVE_IMPORTS], capture_output=True,
                         text=True, timeout=120, env=src_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"

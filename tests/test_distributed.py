import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from conftest import (reference_decentralized_field, same_doubles,
                      staggered_decentralized_field)
from palflow import flow, problem, prox
from palflow.distributed import (AgentData, AgentState, DivergenceError,
                                 Network, agent_states_from_central,
                                 assemble_consensus, decentralized_field,
                                 incidence, pack_agents, run_discrete,
                                 simulate, split_multiplier, unpack_agents)
from palflow.flow import IntegratorConfig, blockwise_field, vector_field
from palflow.examples import gen_lasso_network
from palflow.linops import LinearOperator, block_diagonal, csr_add_product, unvec, vec
from palflow.problem import SmoothBlock, kkt_residual


def small_net(k=3, d=2, seed=0, with_chord=True):
    rng = np.random.default_rng(seed)
    agents = []
    for _ in range(k):
        M = rng.standard_normal((d + 1, d))
        agents.append(AgentData(f=SmoothBlock.least_squares(M, rng.standard_normal(d + 1)),
                                g=prox.l1(0.3),
                                C=LinearOperator.identity((d,))))
    edges = [(i, (i + 1) % k) for i in range(k)] if k > 1 else []
    if not with_chord and k > 1:
        edges = [(i, i + 1) for i in range(k - 1)]
    return Network(k, edges, agents)


# -- graph structure ---------------------------------------------------------

def test_incidence_path_two_nodes():
    net = small_net(k=2, with_chord=False)
    T = incidence(net).dense()
    assert T.shape == (1, 2)
    assert np.allclose(np.abs(T), [[1.0, 1.0]])
    assert np.allclose(T.T @ T, [[1.0, -1.0], [-1.0, 1.0]])


def test_laplacian_row_sums_and_null_space():
    net = small_net(k=5)
    T = incidence(net).dense()
    L = T.T @ T
    assert np.allclose(L.sum(axis=1), 0.0, atol=1e-12)
    assert np.allclose(T @ np.ones(net.k), 0.0, atol=1e-12)


def test_network_validation():
    agents = [AgentData(f=SmoothBlock.quadratic(np.eye(1)), g=prox.l1(),
                        C=LinearOperator.identity((1,))) for _ in range(3)]
    with pytest.raises(ValueError):
        Network(3, [(0, 0), (1, 2)], agents)          # self loop
    with pytest.raises(ValueError):
        Network(3, [(0, 1), (1, 0), (1, 2)], agents)  # duplicate
    with pytest.raises(ValueError):
        Network(3, [(0, 1)], agents)                  # disconnected
    with pytest.raises(ValueError):
        Network(3, [(0, 5), (0, 1), (1, 2)], agents)  # out of range
    with pytest.raises(ValueError):
        Network(3, [(0, 1), (1, 2)], agents[:2])      # agent count


@pytest.mark.parametrize("seed", range(6))
def test_connectivity_is_connected_components(seed):
    """The breadth-first search accepts exactly the edge sets scipy's
    ``connected_components`` finds connected, sparse and dense ones alike."""
    from scipy.sparse.csgraph import connected_components
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 12))
    agents = [AgentData(f=SmoothBlock.quadratic(np.eye(1)), g=prox.l1(),
                        C=LinearOperator.identity((1,))) for _ in range(k)]
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    verdicts = set()
    for p in np.linspace(0.05, 0.6, 12):
        edges = [e for e in pairs if rng.random() < p]
        r, c = np.array(edges, dtype=int).reshape(-1, 2).T
        adj = sp.coo_matrix((np.ones(len(r)), (r, c)), shape=(k, k))
        connected = connected_components(adj, directed=False)[0] == 1
        try:
            Network(k, edges, agents)
            built = True
        except ValueError as e:
            assert "connected" in str(e)
            built = False
        assert built == connected
        verdicts.add(connected)
    assert verdicts == {True, False}


def test_single_agent_reduces_to_composite():
    net = small_net(k=1)
    prob = assemble_consensus(net)
    assert prob.p == net.x_dim           # only the local measurement rows
    assert len(prob.smooth_blocks) == 1


# -- field equivalence -------------------------------------------------------

def test_decentralized_matches_centralized_field(rng):
    net = small_net()
    prob = assemble_consensus(net, mu=0.8, alpha=1.3)
    s = prob.random_state(rng)
    central = vector_field(prob, s)
    agents = agent_states_from_central(net, s)
    local = decentralized_field(net, agents, alpha=1.3, mu=0.8)
    dl1, dl2 = split_multiplier(net, prob.pack(central)[-prob.p:])
    # pack(central) tail is the lam derivative because packing ends with lam
    for i in range(net.k):
        assert np.allclose(local[i].x, central.x[i], atol=1e-13)
        assert np.allclose(local[i].z, central.z[i], atol=1e-13)
        assert np.allclose(local[i].y, central.y[i], atol=1e-13)
        assert np.allclose(local[i].lam1, dl1[i], atol=1e-13)
        assert np.allclose(local[i].lam2, dl2[i], atol=1e-13)


def test_field_zero_at_consensus_kkt(rng):
    net = small_net()
    prob = assemble_consensus(net)
    traj = flow.integrate(prob, prob.zero_state(),
                          IntegratorConfig(t_end=3000.0, stop_kkt=1e-10,
                                           rel_tol=1e-11, abs_tol=1e-13))
    s = traj.final_state()
    assert kkt_residual(prob, s) < 1e-9
    local = decentralized_field(net, agent_states_from_central(net, s),
                                alpha=1.0, mu=1.0)
    for st in local:
        for part in (st.x, st.z, st.y, st.lam1, st.lam2):
            assert np.max(np.abs(part)) < 1e-8


def test_locality_stencil(rng):
    net = small_net(k=5, with_chord=False)      # path graph 0-1-2-3-4
    base = rng.standard_normal(5 * 2 * 5)
    ref = decentralized_field(net, unpack_agents(net, base), alpha=1.0, mu=1.0)
    for j, sl in enumerate(net.slices):
        for part, s in zip(("x", "z", "y", "lam1", "lam2"), sl):
            for e in range(s.start, s.stop):
                u = base.copy()
                u[e] += 1.0
                out = decentralized_field(net, unpack_agents(net, u), alpha=1.0, mu=1.0)
                changed = {i for i in range(5) if not all(
                    np.array_equal(getattr(out[i], a), getattr(ref[i], a))
                    for a in ("x", "z", "y", "lam1", "lam2"))}
                # only x crosses an edge: a neighbor reads it, nothing else
                want = {i for i in (j - 1, j, j + 1) if 0 <= i < 5} if part == "x" else {j}
                assert changed == want, (j, part, e)


# -- discrete algorithm ------------------------------------------------------

def test_discrete_step_is_forward_euler(rng):
    net = small_net(k=2, with_chord=False)
    init = unpack_agents(net, rng.standard_normal(5 * 2 * 2))
    eta = 0.01
    traj = run_discrete(net, init, eta, alpha=1.0, mu=1.0, T_iters=3)
    y = pack_agents(init)
    for step in range(3):
        y = y + eta * pack_agents(
            decentralized_field(net, unpack_agents(net, y), 1.0, 1.0))
        assert np.array_equal(y, traj.states[step + 1])


def test_discrete_tracks_continuous_flow(rng):
    net = small_net(k=2, with_chord=False)
    init = unpack_agents(net, 0.5 * rng.standard_normal(5 * 2 * 2))
    eta = 1e-4
    run = run_discrete(net, init, eta, alpha=1.0, mu=1.0, T_iters=10000)
    traj = simulate(net, init, IntegratorConfig(t_end=1.0, rel_tol=1e-10,
                                                abs_tol=1e-12), 1.0, 1.0)
    final_discrete = run.states[-1]
    final_cont = traj.states[-1]
    assert np.max(np.abs(final_discrete - final_cont)) < 1e-3


def test_identical_quadratics_reach_consensus():
    H = np.array([[2.0]])
    agents = [AgentData(f=SmoothBlock.quadratic(H, np.array([-2.0])),
                        g=prox.zero(), C=LinearOperator.identity((1,)))
              for _ in range(4)]
    net = Network(4, [(0, 1), (1, 2), (2, 3), (3, 0)], agents)
    init = unpack_agents(net, np.zeros(5 * 4))
    traj = run_discrete(net, init, eta=0.05, alpha=1.0, mu=1.0, T_iters=4000)
    xs = np.array([s.x[0] for s in unpack_agents(net, traj.states[-1])])
    assert np.max(np.abs(xs - xs.mean())) < 1e-6
    assert xs.mean() == pytest.approx(1.0, abs=1e-6)


def test_discrete_divergence_detected(rng):
    net = small_net(k=2, with_chord=False)
    init = unpack_agents(net, rng.standard_normal(5 * 2 * 2))
    with pytest.raises(DivergenceError) as err:
        run_discrete(net, init, eta=50.0, alpha=1.0, mu=1.0, T_iters=500)
    assert err.value.iteration == 4
    # a start already above the threshold diverges at the first step
    big = unpack_agents(net, 1e13 * pack_agents(init))
    with pytest.raises(DivergenceError) as err:
        run_discrete(net, big, eta=0.01, alpha=1.0, mu=1.0, T_iters=5)
    assert err.value.iteration == 0
    # each bad argument is named: a fractional T_iters once blamed max_steps,
    # a NaN one t_end, and a NaN eta the step h
    for eta in (0.0, -0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="^eta"):
            run_discrete(net, init, eta=eta, alpha=1.0, mu=1.0, T_iters=5)
    for T_iters in (0, -1, 2.5, 3.0, np.nan):
        with pytest.raises(ValueError, match="^T_iters .* iterations"):
            run_discrete(net, init, eta=0.1, alpha=1.0, mu=1.0, T_iters=T_iters)


# alpha = 0 once failed as a non-finite state, alpha = -1 ran with the dual
# part ascending the wrong way, and a NaN failed as a stiff step
BAD_ALPHA_MU = [("alpha", 0.0, 1.0), ("alpha", -1.0, 1.0), ("alpha", np.nan, 1.0),
                ("alpha", np.inf, 1.0), ("mu", 1.0, 0.0), ("mu", 1.0, -2.0),
                ("mu", 1.0, np.nan)]


@pytest.mark.parametrize("name,alpha,mu", BAD_ALPHA_MU)
def test_discrete_rejects_nonfinite_or_nonpositive_alpha_and_mu(rng, name, alpha, mu):
    net = small_net(k=2, with_chord=False)
    init = unpack_agents(net, rng.standard_normal(5 * 2 * 2))
    with pytest.raises(ValueError, match=name):
        run_discrete(net, init, eta=0.01, alpha=alpha, mu=mu, T_iters=3)


@pytest.mark.parametrize("eta,T_iters", [(0.1, 3), (0.01, 7), (0.3, 3), (1e-3, 250)])
def test_discrete_keeps_every_iterate_with_one_round_each(rng, eta, T_iters):
    net = mixed_prox_net()
    init = unpack_agents(net, 0.3 * rng.standard_normal(2 * net.k * net.x_dim
                                                        + 3 * sum(net.z_dims)))
    traj = run_discrete(net, init, eta, alpha=1.3, mu=0.7, T_iters=T_iters)
    assert traj.termination == "t_end"
    assert len(traj.times) == T_iters + 1
    assert traj.times.tolist() == [k * eta for k in range(T_iters + 1)]
    assert traj.meta["n_evals"] == traj.meta["steps"] == T_iters
    # the iterates of the stand-alone Euler loop, to the bit
    y = pack_agents(init)
    assert np.array_equal(traj.states[0], y)
    for k in range(T_iters):
        y = y + eta * net.field(y, 1.3, 0.7)
        assert np.array_equal(traj.states[k + 1], y)


# -- message-passing simulation ----------------------------------------------

def test_simulate_message_accounting(rng):
    net = small_net(k=3)
    init = unpack_agents(net, 0.1 * rng.standard_normal(5 * 2 * 3))
    traj = simulate(net, init, IntegratorConfig(t_end=0.5), 1.0, 1.0)
    assert traj.meta["messages_per_round"] == 2 * len(net.edges)
    assert traj.meta["messages_total"] == 2 * len(net.edges) * traj.meta["rounds"]
    assert traj.meta["rounds"] > 0


@pytest.mark.parametrize("name,alpha,mu", BAD_ALPHA_MU)
def test_simulate_rejects_nonfinite_or_nonpositive_alpha_and_mu(name, alpha, mu):
    net = small_net(k=3)
    init = unpack_agents(net, np.zeros(5 * 2 * 3))
    with pytest.raises(ValueError, match=name):
        simulate(net, init, IntegratorConfig(t_end=0.5), alpha, mu)


def test_simulate_matches_centralized(rng):
    net = small_net()
    prob = assemble_consensus(net)
    s0 = prob.random_state(rng, scale=0.3)
    cfg = IntegratorConfig(t_end=10.0, rel_tol=1e-11, abs_tol=1e-13)
    central = flow.integrate(prob, s0, cfg)
    agents0 = agent_states_from_central(net, s0)
    dec = simulate(net, agents0, cfg, alpha=1.0, mu=1.0)
    final_central = agent_states_from_central(net, central.final_state())
    final_dec = unpack_agents(net, dec.states[-1])
    err = max(np.max(np.abs(getattr(a, f) - getattr(b, f)))
              for a, b in zip(final_central, final_dec)
              for f in ("x", "z", "y", "lam1", "lam2"))
    assert err < 1e-7


def test_simulate_counts_only_integrator_rounds(rng):
    net = small_net(k=3)
    init = unpack_agents(net, 0.1 * rng.standard_normal(5 * 2 * 3))
    traj = simulate(net, init, IntegratorConfig(method="rk4", h=0.1, t_end=1.0),
                    1.0, 1.0)
    assert traj.meta["rounds"] == 40            # 10 steps of 4 stages
    assert len(traj.diagnostics["field_norm"]) == len(traj.times) == 11
    traj = simulate(net, init, IntegratorConfig(method="euler", h=0.1, t_end=1.0),
                    1.0, 1.0)
    assert traj.meta["rounds"] == traj.meta["n_evals"] == 10


def test_simulate_rounds_are_the_steppers_calls(rng, monkeypatch):
    net = small_net(k=3)
    init = unpack_agents(net, 0.1 * rng.standard_normal(5 * 2 * 3))
    calls, field = [], net.field
    monkeypatch.setattr(net, "field", lambda *a: calls.append(1) or field(*a))
    traj = simulate(net, init, IntegratorConfig(t_end=2.0), 1.0, 1.0)
    # RK45 holds the field at its last step, so every call is a round
    assert traj.meta["rounds"] == traj.meta["n_evals"] == len(calls)


@pytest.mark.parametrize("method,h,stride", [("rk45", None, 1), ("rk45", None, 3),
                                             ("euler", 0.05, 1), ("rk4", 0.1, 3)])
def test_simulate_field_norms_are_the_decentralized_field(rng, method, h, stride):
    net = small_net(k=3)
    init = unpack_agents(net, 0.1 * rng.standard_normal(5 * 2 * 3))
    cfg = IntegratorConfig(method=method, h=h, t_end=1.0, record_stride=stride)
    traj = simulate(net, init, cfg, 1.0, 1.0)
    want = [np.linalg.norm(pack_agents(decentralized_field(
        net, unpack_agents(net, u), 1.0, 1.0))) for u in traj.states]
    assert traj.diagnostics["field_norm"].tolist() == want
    assert traj.meta["steps"] >= len(traj.times) - 1 > 0


# -- agent layout with unequal z dimensions ----------------------------------

def mixed_net(seed=0):
    """Path 0-1-2 whose local operators map R^3 to R^3, R^2 and R^4."""
    rng = np.random.default_rng(seed)
    Cs = [LinearOperator.identity((3,)),
          LinearOperator.from_matrix(rng.standard_normal((2, 3))),
          LinearOperator.from_matrix(rng.standard_normal((4, 3)))]
    agents = [AgentData(f=SmoothBlock.least_squares(rng.standard_normal((4, 3)),
                                                    rng.standard_normal(4)),
                        g=prox.l1(0.3), C=C) for C in Cs]
    return Network(3, [(1, 2), (0, 1)], agents)


def mixed_prox_net(seed=1):
    """Cycle of four agents on R^3: l1 terms of three weights around one
    group-lasso agent, with identity and random local maps."""
    rng = np.random.default_rng(seed)
    part = prox.GroupPartition([np.arange(2), np.arange(2, 4)], [0.5, 1.2], eta=0.1)
    local = [(prox.l1(0.3), LinearOperator.identity((3,))),
             (prox.l1(0.8), LinearOperator.from_matrix(rng.standard_normal((2, 3)))),
             (prox.group_lasso(part), LinearOperator.from_matrix(rng.standard_normal((4, 3)))),
             (prox.l1(1.5), LinearOperator.identity((3,)))]
    agents = [AgentData(f=SmoothBlock.least_squares(rng.standard_normal((4, 3)),
                                                    rng.standard_normal(4)),
                        g=g, C=C) for g, C in local]
    return Network(4, [(0, 1), (1, 2), (2, 3), (3, 0)], agents)


def mixed_f_net(seed=2):
    """Path 0-1-2 on R^3 whose agents' smooth terms are a quadratic, a least
    squares and a quadratic, with an l1 and a zero prox."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((4, 3))
    fs = [SmoothBlock.quadratic(A.T @ A + np.eye(3), rng.standard_normal(3)),
          SmoothBlock.least_squares(rng.standard_normal((4, 3)), rng.standard_normal(4)),
          SmoothBlock.quadratic(np.diag([1.0, 2.0, 3.0]))]
    local = [(prox.l1(0.4), LinearOperator.from_matrix(rng.standard_normal((2, 3)))),
             (prox.zero(), LinearOperator.identity((3,))),
             (prox.l1(0.7), LinearOperator.identity((3,)))]
    agents = [AgentData(f=f, g=g, C=C) for f, (g, C) in zip(fs, local)]
    return Network(3, [(0, 1), (1, 2)], agents)


def test_layout_from_network():
    net = mixed_net()
    assert net.neighbors == [[1], [0, 2], [1]]
    assert net.x_dim == 3 and net.z_dims == [3, 2, 4]
    n = 2 * 3 * 3 + 3 * sum(net.z_dims)      # x and lam1; z, y and lam2
    covered = np.zeros(n, dtype=int)
    for sl in net.slices:
        for s in sl:
            covered[s] += 1
    assert np.all(covered == 1)


def test_pack_unpack_round_trip_mixed_dims(rng):
    net = mixed_net()
    flat = rng.standard_normal(2 * 3 * 3 + 3 * 9)
    states = unpack_agents(net, flat)
    assert [s.z.size for s in states] == [3, 2, 4]
    assert [s.lam1.size for s in states] == [3, 3, 3]
    assert np.array_equal(pack_agents(states), flat)
    orig = flat.copy()
    for st in states:                                  # copies, not views
        st.x[:] = st.z[:] = st.lam2[:] = 0.0
    assert np.array_equal(flat, orig)


def test_decentralized_matches_centralized_mixed_dims(rng):
    net = mixed_net()
    prob = assemble_consensus(net, mu=0.7, alpha=1.4)
    s = prob.random_state(rng)
    central = agent_states_from_central(net, vector_field(prob, s))
    local = decentralized_field(net, agent_states_from_central(net, s),
                                alpha=1.4, mu=0.7)
    ref = pack_agents(central)
    gap = np.max(np.abs(pack_agents(local) - ref))
    assert gap <= 1e-13 * max(1.0, np.max(np.abs(ref)))


def test_network_rejects_mixed_local_dims():
    agents = [AgentData(f=SmoothBlock.quadratic(np.eye(d)), g=prox.l1(),
                        C=LinearOperator.identity((d,))) for d in (3, 2)]
    with pytest.raises(ValueError, match="common local dimension"):
        Network(2, [(0, 1)], agents)
    agents[1] = AgentData(f=SmoothBlock.quadratic(np.eye(3)), g=prox.l1(),
                          C=LinearOperator.from_matrix(np.ones((2, 2))))
    with pytest.raises(ValueError, match="local map C"):
        Network(2, [(0, 1)], agents)


# -- the packed message-passing field ----------------------------------------

NETS = [small_net, lambda: small_net(k=5, with_chord=False), mixed_net, mixed_prox_net,
        lambda: gen_lasso_network(6, 4, seed=2)[0], mixed_f_net]
NET_IDS = ["triangle", "path", "mixed", "mixed_prox", "lasso", "mixed_f"]


@pytest.mark.parametrize("make_net", NETS, ids=NET_IDS)
@pytest.mark.parametrize("alpha,mu", [(1.0, 1.0), (1.3, 0.7)])
def test_network_field_is_the_per_agent_loop(rng, make_net, alpha, mu):
    net = make_net()
    n = 2 * net.k * net.x_dim + 3 * sum(net.z_dims)
    for _ in range(20):
        u = rng.standard_normal(n)
        want = reference_decentralized_field(net, unpack_agents(net, u), alpha, mu)
        assert np.array_equal(net.field(u, alpha, mu), pack_agents(want))


@pytest.mark.parametrize("make_net", NETS, ids=NET_IDS)
@pytest.mark.parametrize("alpha,mu", [(1.0, 1.0), (1.3, 0.7)])
def test_network_field_is_the_staggered_field(rng, make_net, alpha, mu):
    """The two-product field equals the staggered per-agent form, whose
    passes round differently, to 1e-14 of the largest entry."""
    net = make_net()
    n = 2 * net.k * net.x_dim + 3 * sum(net.z_dims)
    for _ in range(20):
        u = rng.standard_normal(n)
        want = pack_agents(staggered_decentralized_field(net, unpack_agents(net, u),
                                                         alpha, mu))
        gap = np.max(np.abs(net.field(u, alpha, mu) - want))
        assert gap <= 1e-14 * np.max(np.abs(want))


def _scipy_field_matrices(net):
    """``Network._field_ops``' forward and backward matrices stacked by
    scipy: ``[M 0; L 0; C -I]`` and ``-[M^T I C^T; 0 0 -I]``, sorted."""
    d, nz = net.x_dim, sum(net.z_dims)
    kd = net.k * d
    deg = np.diff(net.adjacency.indptr).astype(float)
    L = sp.kron(sp.diags(deg) - net.adjacency, sp.identity(d), format="csr")
    M = block_diagonal([a.f.meta["M"] if a.f.kind == "least_squares" else sp.csr_matrix((0, d))
                        for a in net.agents])
    C = block_diagonal([a.C.matrix for a in net.agents])
    F = sp.vstack([sp.hstack([M, sp.csr_matrix((M.shape[0], nz))]),
                   sp.hstack([L, sp.csr_matrix((kd, nz))]),
                   sp.hstack([C, -sp.identity(nz)])], format="csr")
    B = -sp.vstack([sp.hstack([M.T, sp.identity(kd), C.T]),
                    sp.hstack([sp.csr_matrix((nz, M.shape[0] + kd)), -sp.identity(nz)])],
                   format="csr")
    for A in (F, B):
        A.sort_indices()
    return F, B


@pytest.mark.parametrize("make_net", NETS + [lambda: small_net(k=1)],
                         ids=NET_IDS + ["single"])
def test_field_matrices_are_scipys_stacks(make_net):
    net = make_net()
    ops = net._field_ops
    for got, want in zip((ops.forward, ops.back), _scipy_field_matrices(net)):
        assert got.shape == want.shape and got.has_sorted_indices
        for a in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, a), getattr(want, a))


def _always_scaled_packed(net, u, alpha, mu):
    """``Network.field`` with every pass that multiplies or divides by
    ``alpha`` or ``mu`` taken, each agent's prox its own call and each part
    a fresh array: the reference that skipping a unit scale's passes must
    equal to the bit."""
    ops = net._field_ops
    m, n, h, rest = ops.m, ops.n, ops._h, ops._x_rest
    z, y = u[m:m + n], u[m + n:m + 2 * n]
    w = ops._forward(u[:m + n], np.zeros(ops.forward.shape[0]))
    w[:h.size] -= h
    tail = w[h.size:]
    lam_dot = alpha * tail
    tail[:] = tail / mu + u[m + 2 * n:]
    v = z + mu * y
    prox_out = np.concatenate([vec(a.g.prox(mu, unvec(v[sl], a.C.out_shape)))
                               for a, sl in zip(net.agents, net.z_slices)])
    y_dot = alpha * (z - prox_out)
    z_dot = (prox_out - v) / mu + tail[m:]
    x_dot = np.zeros(m) if rest is None else -rest.grad(u[:m])
    # the backward matrix's x rows
    csr_add_product(ops.back[:m])(w, x_dot)
    return np.concatenate([x_dot, z_dot, y_dot, lam_dot])


@pytest.mark.parametrize("make_net", [small_net, mixed_net, mixed_prox_net,
                                      lambda: gen_lasso_network(5, 20, 3, seed=0)[0],
                                      mixed_f_net],
                         ids=["triangle", "mixed", "mixed_prox", "lasso", "mixed_f"])
# both unit, neither, a unit mu only, and neither with alpha * mu == 1
@pytest.mark.parametrize("alpha,mu", [(1.0, 1.0), (2.5, 0.3), (2.5, 1.0), (0.4, 2.5)])
def test_network_field_unit_scales_cost_no_bit(rng, make_net, alpha, mu):
    """Where alpha or mu is 1 the packed field skips the passes that scale
    by it; returned or written into ``out``, it equals the
    always-scaling form, value and sign bit, also on states holding zeros
    of either sign."""
    net = make_net()
    n = 2 * net.k * net.x_dim + 3 * sum(net.z_dims)
    for i in range(6):
        u = rng.standard_normal(n)
        if i % 2:
            u[rng.random(n) < 0.2] = 0.0
            u[rng.random(n) < 0.2] = -0.0
        want = _always_scaled_packed(net, u, alpha, mu)
        assert same_doubles(net.field(u, alpha, mu), want)
        out = np.full(n, np.nan)
        assert net.field(u, alpha, mu, out) is out and same_doubles(out, want)


@st.composite
def random_networks(draw):
    """A connected network of 1 to 6 agents on R^1 to R^3: a random
    spanning tree and chords, each agent's smooth term least squares or a
    quadratic, its prox l1, zero or a group lasso, and its local map the
    identity or a random matrix onto R^1, R^2 or R^4 (unequal z
    dimensions)."""
    k, d = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    edges = {(int(rng.integers(i)), i) for i in range(1, k)}
    chords = draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
                           max_size=6))
    edges |= {(min(i, j), max(i, j)) for i, j in chords if i != j}
    kinds = draw(st.lists(st.tuples(st.sampled_from(["least_squares", "quadratic"]),
                                    st.sampled_from(["l1", "zero", "group_lasso"]),
                                    st.sampled_from([None, 1, 2, 4])),
                          min_size=k, max_size=k))
    agents = []
    for f_kind, g_kind, rows in kinds:
        A = rng.standard_normal((d + 1, d))
        f = (SmoothBlock.least_squares(A, rng.standard_normal(d + 1))
             if f_kind == "least_squares"
             else SmoothBlock.quadratic(A.T @ A + np.eye(d), rng.standard_normal(d)))
        C = (LinearOperator.identity((d,)) if rows is None
             else LinearOperator.from_matrix(rng.standard_normal((rows, d))))
        nz = d if rows is None else rows
        if g_kind == "l1":
            g = prox.l1(float(rng.uniform(0.1, 1.5)))
        elif g_kind == "zero":
            g = prox.zero()
        else:
            order, cut = rng.permutation(nz), int(rng.integers(0, nz + 1))
            g = prox.group_lasso(prox.GroupPartition([order[:cut], order[cut:]],
                                                     rng.uniform(0.2, 1.5, 2),
                                                     eta=float(rng.choice([0.0, 0.1]))))
        agents.append(AgentData(f=f, g=g, C=C))
    return Network(k, sorted(edges), agents)


SCALE = st.one_of(st.just(1.0), st.floats(0.25, 4.0))


@settings(max_examples=200, deadline=None)
@given(net=random_networks(), alpha=SCALE, mu=SCALE, seed=st.integers(0, 2 ** 32 - 1))
def test_field_assembly_on_random_networks(net, alpha, mu, seed):
    """On random layouts the shared assembly equals the per-agent loop to
    the bit, also on states holding zeros of either sign, and the assembled
    problem's kernel field stays within 1e-14 of the per-block field."""
    rng = np.random.default_rng(seed)
    n = 2 * net.k * net.x_dim + 3 * sum(net.z_dims)
    for i in range(2):
        u = rng.standard_normal(n)
        if i:
            u[rng.random(n) < 0.2] = 0.0
            u[rng.random(n) < 0.2] = -0.0
        want = pack_agents(reference_decentralized_field(net, unpack_agents(net, u), alpha, mu))
        assert same_doubles(net.field(u, alpha, mu), want)
    prob = assemble_consensus(net, mu=mu, alpha=alpha)
    s = prob.random_state(rng)
    flat, want = prob.kernel.field(prob.pack(s)), prob.pack(blockwise_field(prob, s))
    assert np.max(np.abs(flat - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("mu", [1.0, 0.7, 1.6])
def test_simulate_leaves_the_plan_arrays_unchanged(rng, mu):
    net = mixed_prox_net()
    proxes = net._field_ops.z_plan
    part = net.agents[2].g.meta["partition"]
    held = [w for _, w, _, _ in proxes.runs if w is not None]
    held += [proxes.l1_weight, part.weights, part.live_weights]
    before = [a.copy() for a in held]
    init = unpack_agents(net, 0.3 * rng.standard_normal(2 * 4 * 3 + 3 * 12))
    simulate(net, init, IntegratorConfig(t_end=2.0), 1.3, mu)
    assert all(same_doubles(a, b) for a, b in zip(held, before))


@pytest.mark.parametrize("method,h,stride", [("rk45", None, 1), ("rk45", None, 3),
                                             ("rk4", 0.1, 1)])
def test_simulate_is_the_reference_flow(rng, method, h, stride):
    net = mixed_net()
    init = unpack_agents(net, 0.3 * rng.standard_normal(2 * 3 * 3 + 3 * 9))
    cfg = IntegratorConfig(method=method, h=h, t_end=2.0, record_stride=stride)
    traj = simulate(net, init, cfg, alpha=1.3, mu=0.7)

    def ref(t, y):
        return pack_agents(reference_decentralized_field(
            net, unpack_agents(net, y), 1.3, 0.7))

    # the reference caps steps and cuts rejected ones at the same l1 kinks
    run = flow.integrate_ode(ref, pack_agents(init), cfg, switching=net.switching(0.7))
    assert np.array_equal(traj.times, run.times)
    assert np.array_equal(traj.states, run.states)
    for key in ("n_evals", "rejected", "kink_cuts", "kink_caps"):
        assert traj.meta[key] == run.meta[key]


def test_a_group_lasso_agent_is_switched(rng):
    """The group-lasso agent of ``mixed_prox_net`` puts its groups into the
    network's switching functions, at its packed ``z`` and ``y`` entries.
    ``simulate`` is capped at them: it equals the reference field run with
    those switching functions, and not the run without the groups."""
    net = mixed_prox_net()
    ops = net._field_ops
    part = net.agents[2].g.meta["partition"]
    at = net.z_slices[2].start + part.order
    sw = net.switching(0.7)
    assert np.array_equal(sw.gz, ops.m + at) and np.array_equal(sw.gy, ops.m + ops.n + at)
    init = unpack_agents(net, rng.standard_normal(2 * 4 * 3 + 3 * 12))
    cfg = IntegratorConfig(t_end=2.0)
    traj = simulate(net, init, cfg, alpha=1.3, mu=0.7)

    def ref(t, y):
        return pack_agents(reference_decentralized_field(
            net, unpack_agents(net, y), 1.3, 0.7))

    run = flow.integrate_ode(ref, pack_agents(init), cfg, switching=sw)
    assert np.array_equal(traj.times, run.times)
    assert np.array_equal(traj.states, run.states)
    for key in ("n_evals", "rejected", "kink_cuts", "kink_caps"):
        assert traj.meta[key] == run.meta[key]
    sw.gz = None        # the l1 entries alone
    l1_only = flow.integrate_ode(ref, pack_agents(init), cfg, switching=sw)
    assert traj.meta["kink_caps"] > l1_only.meta["kink_caps"]


def test_network_adjacency_is_the_edge_lists():
    net = gen_lasso_network(5, 20)[0]
    d = net.x_dim
    nbrs = [[] for _ in range(net.k)]
    for i, j in net.edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    assert net.neighbors == [sorted(nb) for nb in nbrs]
    rows = [i for i, nb in enumerate(net.neighbors) for _ in nb]
    cols = [j for nb in net.neighbors for j in nb]
    adj = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(net.k, net.k))
    want = sp.kron(adj, sp.identity(d), format="csr")
    want.sort_indices()
    got = sp.kron(net.adjacency, sp.identity(d), format="csr")
    got.sort_indices()
    for a in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, a), getattr(want, a))


def test_network_builds_field_operators_on_first_use(rng):
    net = gen_lasso_network(6, 4, seed=2)[0]
    assert "_field_ops" not in vars(net)
    net.field(rng.standard_normal(2 * 6 * 4 + 3 * 6 * 4), 1.0, 1.0)
    assert "_field_ops" in vars(net)


def test_lasso_plans_fuse_every_agents_least_squares(rng):
    net = gen_lasso_network(5, 20)[0]
    prob = assemble_consensus(net)
    assert prob.kernel._x_rest is None
    # the network's forward matrix leads with the agents' M block diagonal,
    # and no gradient plan runs
    ops = net._field_ops
    F, h, rest = ops.forward, ops._h, ops._x_rest
    M = block_diagonal([a.f.meta["M"] for a in net.agents])
    top = F[:M.shape[0]]
    assert top.shape == (M.shape[0], M.shape[1] + sum(net.z_dims))
    for a in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(top, a), getattr(M, a))
    assert np.array_equal(h, np.concatenate([a.f.meta["h"] for a in net.agents]))
    assert rest is None


def test_lasso_construction_builds_no_sparse_matrix(monkeypatch):
    def refuse(mats):
        raise AssertionError("built a block-diagonal matrix")

    monkeypatch.setattr(problem, "block_diagonal", refuse)
    net, ref = gen_lasso_network(5, 20)
    prob = assemble_consensus(net)
    monkeypatch.undo()
    cfg = IntegratorConfig(t_end=600.0, stop_kkt=1e-4)
    traj = flow.integrate(prob, prob.zero_state(), cfg)
    assert traj.termination == "stop_kkt"
    x = prob.unpack(traj.states[-1]).x
    assert np.max(np.abs(np.mean(x, axis=0) - ref.meta["x_star"])) < 1e-2

import numpy as np
import pytest

from palflow import flow, prox
from palflow.distributed import (AgentData, AgentState, DivergenceError,
                                 Network, agent_states_from_central,
                                 assemble_consensus, decentralized_field,
                                 incidence, pack_agents, run_discrete,
                                 simulate, split_multiplier, unpack_agents)
from palflow.flow import IntegratorConfig, vector_field
from palflow.linops import LinearOperator
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
    states = [AgentState(rng.standard_normal(2), rng.standard_normal(2),
                         rng.standard_normal(2), rng.standard_normal(2),
                         rng.standard_normal(2)) for _ in range(5)]
    base = decentralized_field(net, states, alpha=1.0, mu=1.0)
    states[2] = AgentState(states[2].x + 1.0, states[2].z, states[2].y,
                           states[2].lam1, states[2].lam2)
    bumped = decentralized_field(net, states, alpha=1.0, mu=1.0)
    for i in range(5):
        changed = any(not np.allclose(getattr(base[i], a), getattr(bumped[i], a))
                      for a in ("x", "z", "y", "lam1", "lam2"))
        assert changed == (i in (1, 2, 3))


# -- discrete algorithm ------------------------------------------------------

def test_discrete_step_is_forward_euler(rng):
    net = small_net(k=2, with_chord=False)
    init = unpack_agents(net, rng.standard_normal(5 * 2 * 2))
    eta = 0.01
    hist = run_discrete(net, init, eta, alpha=1.0, mu=1.0, T_iters=3)
    y = pack_agents(init)
    for step in range(3):
        y = y + eta * pack_agents(
            decentralized_field(net, unpack_agents(net, y), 1.0, 1.0))
        ref = pack_agents(hist[step + 1])
        assert np.max(np.abs(y - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


def test_discrete_tracks_continuous_flow(rng):
    net = small_net(k=2, with_chord=False)
    init = unpack_agents(net, 0.5 * rng.standard_normal(5 * 2 * 2))
    eta = 1e-4
    hist = run_discrete(net, init, eta, alpha=1.0, mu=1.0, T_iters=10000)
    traj = simulate(net, init, IntegratorConfig(t_end=1.0, rel_tol=1e-10,
                                                abs_tol=1e-12), 1.0, 1.0)
    final_discrete = pack_agents(hist[-1])
    final_cont = traj.states[-1]
    assert np.max(np.abs(final_discrete - final_cont)) < 1e-3


def test_identical_quadratics_reach_consensus():
    H = np.array([[2.0]])
    agents = [AgentData(f=SmoothBlock.quadratic(H, np.array([-2.0])),
                        g=prox.zero(), C=LinearOperator.identity((1,)))
              for _ in range(4)]
    net = Network(4, [(0, 1), (1, 2), (2, 3), (3, 0)], agents)
    init = unpack_agents(net, np.zeros(5 * 4))
    hist = run_discrete(net, init, eta=0.05, alpha=1.0, mu=1.0, T_iters=4000)
    xs = np.array([s.x[0] for s in hist[-1]])
    assert np.max(np.abs(xs - xs.mean())) < 1e-6
    assert xs.mean() == pytest.approx(1.0, abs=1e-6)


def test_discrete_divergence_detected(rng):
    net = small_net(k=2, with_chord=False)
    init = unpack_agents(net, rng.standard_normal(5 * 2 * 2))
    with pytest.raises(DivergenceError):
        run_discrete(net, init, eta=50.0, alpha=1.0, mu=1.0, T_iters=500)
    with pytest.raises(ValueError):
        run_discrete(net, init, eta=0.0, alpha=1.0, mu=1.0, T_iters=5)


# -- message-passing simulation ----------------------------------------------

def test_simulate_message_accounting(rng):
    net = small_net(k=3)
    init = unpack_agents(net, 0.1 * rng.standard_normal(5 * 2 * 3))
    traj = simulate(net, init, IntegratorConfig(t_end=0.5), 1.0, 1.0)
    assert traj.meta["messages_per_round"] == 2 * len(net.edges)
    assert traj.meta["messages_total"] == 2 * len(net.edges) * traj.meta["rounds"]
    assert traj.meta["rounds"] > 0


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

"""The benchmark's four workloads: set-up, the timed solve, exact-repeat
counts and output checks.

Each workload is a criterion-6 instance at its criterion-6 generator seed.
The benchmark seed draws the start state: every entry of the zero start is
perturbed by ``START_SCALE`` times a standard normal from
``numpy.random.default_rng(seed)``. The instance is not re-drawn per seed,
because the cost of the instances themselves differs more from seed to seed
than the bounds this benchmark must resolve.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from palflow import distributed, examples, flow, problem

START_SCALE = 1e-3

# Criterion 4 bound on the relative gap between the two field formulas.
FIELD_TOL = 1e-14
# The message-passing field against the centralized one; the two differ
# only by rounding, amplified by recovering the consensus multiplier.
DEC_FIELD_TOL = 1e-10
# Relative objective error accepted at the lasso_kkt stopping residual.
KKT_OBJ_TOL = 1e-3
# The generators run their proximal-gradient oracles to this residual; the
# final residual is recomputed with ``g / L`` in place of ``g * (1 / L)``.
ORACLE_TOL = 1e-9 * (1 + 1e-6)


@dataclass(frozen=True)
class Spec:
    """Instance generator and integrator settings of one workload size."""

    generate: Callable[[], tuple]
    cfg: flow.IntegratorConfig
    decentralized: bool = False


def _sgl(meas, dim, groups):
    prob, ref = examples.gen_sparse_group_lasso(meas, dim, groups, seed=2, alpha=3.0)
    return prob, ref, None


def _pcp(n, rank):
    prob, ref = examples.gen_pcp(n, rank, seed=3)
    return prob, ref, None


def _network(agents, dim):
    net, ref = examples.gen_lasso_network(agents, dim, 3, seed=0)
    return distributed.assemble_consensus(net), ref, net


_Cfg = flow.IntegratorConfig
# (workload, tiny) -> Spec; the tiny sizes run in milliseconds for the
# benchmark's self-test.
SPECS = {
    ("sgl", False): Spec(partial(_sgl, 20, 200, 10), _Cfg(t_end=2.0, record_stride=20)),
    ("sgl", True): Spec(partial(_sgl, 6, 12, 3), _Cfg(t_end=0.5, record_stride=20)),
    ("pcp", False): Spec(partial(_pcp, 40, 3), _Cfg(t_end=0.1, record_stride=5)),
    ("pcp", True): Spec(partial(_pcp, 6, 1), _Cfg(t_end=0.05, record_stride=5)),
    ("lasso_kkt", False): Spec(partial(_network, 5, 20),
                               _Cfg(t_end=600.0, stop_kkt=1e-2, record_stride=10)),
    ("lasso_kkt", True): Spec(partial(_network, 3, 4),
                              _Cfg(t_end=600.0, stop_kkt=1e-4, record_stride=10)),
    ("lasso_dec", False): Spec(partial(_network, 5, 20), _Cfg(t_end=5.0),
                               decentralized=True),
    ("lasso_dec", True): Spec(partial(_network, 3, 4), _Cfg(t_end=1.0),
                              decentralized=True),
}

@dataclass
class Instance:
    prob: problem.SaddleProblem
    ref: Optional[object]
    net: Optional[distributed.Network]
    s0: problem.PrimalDualState

    @property
    def oracle_iters(self) -> int:
        oracle = (self.ref.meta.get("oracle") if self.ref is not None else None)
        return int(oracle.iterations) if oracle is not None else 0


def setup(sp: Spec, seed: int) -> Instance:
    """Generate the problem, its reference and the seeded start state."""
    prob, ref, net = sp.generate()
    s0 = prob.random_state(np.random.default_rng(seed), scale=START_SCALE)
    return Instance(prob, ref, net, s0)


def solve(sp: Spec, inst: Instance) -> flow.Trajectory:
    """The timed call: ``flow.integrate`` or ``distributed.simulate``."""
    if sp.decentralized:
        init = distributed.agent_states_from_central(inst.net, inst.s0)
        return distributed.simulate(inst.net, init, sp.cfg, inst.prob.alpha,
                                    inst.prob.mu)
    return flow.integrate(inst.prob, inst.s0, sp.cfg)


def evals(sp: Spec, traj: flow.Trajectory) -> int:
    """Field evaluations of the solve, or rounds of the decentralized one."""
    return int(traj.meta["rounds" if sp.decentralized else "n_evals"])


def counts(sp: Spec, traj: flow.Trajectory) -> dict:
    """Counts that must repeat exactly for the same code and seed."""
    out = {"samples": len(traj.times)}
    if sp.decentralized:
        out.update(rounds=traj.meta["rounds"], messages=traj.meta["messages_total"])
    else:
        out["field_evals"] = traj.meta["n_evals"]
    return out


def fingerprint(traj: flow.Trajectory) -> str:
    h = hashlib.sha256(np.ascontiguousarray(traj.times).tobytes())
    h.update(np.ascontiguousarray(traj.states).tobytes())
    return h.hexdigest()


def _central_state(net, prob, flat) -> problem.PrimalDualState:
    """Centralized state matching a packed agent state: the consensus part of
    the multiplier is recovered from ``lam1 = (T^T kron I) lam_cons``."""
    agents = distributed.unpack_agents(net, flat)
    d = net.x_dim
    T = distributed.incidence(net).dense()
    lam1 = np.concatenate([a.lam1 for a in agents])
    lam_cons = np.linalg.lstsq(np.kron(T.T, np.eye(d)), lam1, rcond=None)[0]
    lam = np.concatenate([lam_cons] + [a.lam2 for a in agents])
    def blocks(attr, shapes):
        return [getattr(a, attr).reshape(sh, order="F") for a, sh in zip(agents, shapes)]

    return problem.PrimalDualState(blocks("x", prob.x_shapes), blocks("z", prob.z_shapes),
                                   blocks("y", prob.z_shapes), lam)


def _rel_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Largest entry of ``|a - b|`` relative to ``max(1, max |a|)``."""
    scale = max(1.0, float(np.max(np.abs(a), initial=0.0)))
    return float(np.max(np.abs(a - b), initial=0.0)) / scale


def verify(sp: Spec, inst: Instance, traj: flow.Trajectory):
    """Check one solve's output. Returns ``(failures, record)``: the list of
    failed checks (empty when all hold) and the measured values."""
    prob, fails = inst.prob, []
    rec = {"termination": traj.termination, "t_final": float(traj.times[-1])}
    if not np.all(np.isfinite(traj.states)):
        fails.append("non-finite state")
        return fails, rec
    want = "stop_kkt" if sp.cfg.stop_kkt is not None else "t_end"
    if traj.termination != want:
        fails.append(f"termination {traj.termination!r}, expected {want!r}")

    if sp.decentralized:
        net = inst.net
        s = _central_state(net, prob, traj.states[-1])
        agents = distributed.unpack_agents(net, traj.states[-1])
        dec = distributed.pack_agents(distributed.decentralized_field(
            net, agents, prob.alpha, prob.mu))
        cen = distributed.pack_agents(distributed.agent_states_from_central(
            net, flow.vector_field(prob, s)))
        rec["dec_field_gap"] = _rel_gap(cen, dec)
        if not rec["dec_field_gap"] <= DEC_FIELD_TOL:
            fails.append(f"decentralized field gap {rec['dec_field_gap']:.3e}")
        if traj.meta["messages_total"] != 2 * len(net.edges) * traj.meta["rounds"]:
            fails.append("message count is not two per edge per round")
        kkt0 = problem.kkt_residual(prob, inst.s0)
    else:
        s = traj.final_state()
        kkt0 = float(traj.diagnostics["kkt_residual"][0])
    rec["kkt_start"] = kkt0
    rec["kkt_final"] = problem.kkt_residual(prob, s)
    rec["field_gap"] = _rel_gap(prob.pack(flow.vector_field(prob, s)),
                                prob.pack(flow.blockwise_field(prob, s)))
    if not rec["field_gap"] <= FIELD_TOL:
        fails.append(f"vector_field vs blockwise_field gap {rec['field_gap']:.3e}")

    if inst.ref is not None:
        oracle = inst.ref.meta["oracle"]
        rec["oracle_kkt"] = float(oracle.kkt_residual)
        if not oracle.kkt_residual <= ORACLE_TOL:
            fails.append(f"reference oracle unconverged ({oracle.kkt_residual:.3e})")
        rec["rel_obj_err"] = (abs(prob.objective(s.x, s.z) - inst.ref.optimal_value)
                              / abs(inst.ref.optimal_value))
    if sp.cfg.stop_kkt is not None:
        if not rec["kkt_final"] <= sp.cfg.stop_kkt * 1.001:
            fails.append(f"final KKT {rec['kkt_final']:.3e} above the target")
        if not rec["rel_obj_err"] <= KKT_OBJ_TOL:
            fails.append(f"relative objective error {rec['rel_obj_err']:.3e}")
    elif inst.ref is not None and not rec["kkt_final"] < kkt0:
        fails.append("KKT residual did not decrease")
    return fails, rec

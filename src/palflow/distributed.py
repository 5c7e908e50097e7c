"""Consensus problems on graphs: the decentralized flow, its forward Euler
discretization, and a synchronous message-passing simulator."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from . import flow
from .linops import BlockOperator, LinearOperator, vec
from .problem import NonsmoothBlock, PrimalDualState, SaddleProblem, SmoothBlock
from .prox import ProximableFunction


@dataclass
class AgentData:
    """Local data of one agent: smooth oracle, nonsmooth prox, and the local
    measurement operator mapping x_i into the z_i space."""

    f: SmoothBlock
    g: ProximableFunction
    C: LinearOperator


@dataclass
class Network:
    """Connected undirected graph with per-agent local data.

    Construction validates the graph and derives, once, the topology and the
    layout every other function reads: ``neighbors`` (sorted lists),
    ``x_dim`` (the common local dimension), ``z_dims``, ``z_slices`` (each
    agent's slice of the stacked ``z``, and of the local part of the
    multiplier) and ``slices`` (each agent's ``x, z, y, lam1, lam2`` slices
    of the packed state, see ``pack_agents``)."""

    k: int
    edges: List[Tuple[int, int]]
    agents: List[AgentData]
    neighbors: List[List[int]] = field(init=False, repr=False)
    x_dim: int = field(init=False)
    z_dims: List[int] = field(init=False)
    z_slices: List[slice] = field(init=False, repr=False)
    slices: List[Tuple[slice, ...]] = field(init=False, repr=False)

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError("need at least one agent")
        if len(self.agents) != self.k:
            raise ValueError("one AgentData per vertex required")
        norm = []
        seen = set()
        for (i, j) in self.edges:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (0 <= i < self.k and 0 <= j < self.k):
                raise ValueError(f"edge ({i},{j}) out of range")
            e = (min(i, j), max(i, j))
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            norm.append(e)
        self.edges = sorted(norm)
        adj: List[List[int]] = [[] for _ in range(self.k)]
        for (i, j) in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        self.neighbors = [sorted(a) for a in adj]
        if not self._connected():
            raise ValueError("network must be connected")
        dims = {a.f.dim for a in self.agents}
        if len(dims) != 1:
            raise ValueError("consensus requires a common local dimension")
        self.x_dim = d = dims.pop()
        self.z_dims = [int(np.prod(a.C.out_shape, dtype=int)) for a in self.agents]
        z_ends = np.cumsum(self.z_dims).tolist()
        self.z_slices = [slice(e - n, e) for e, n in zip(z_ends, self.z_dims)]
        # packed order: every x, then every z, y, lam1 and lam2 (pack_agents)
        kd, nz = self.k * d, z_ends[-1]
        bases = (0, kd, kd + nz, kd + 2 * nz, 2 * kd + 2 * nz)
        xs = [slice(i * d, (i + 1) * d) for i in range(self.k)]
        self.slices = [tuple(slice(b + s.start, b + s.stop)
                             for b, s in zip(bases, (x, z, z, x, z)))
                       for x, z in zip(xs, self.z_slices)]

    def _connected(self) -> bool:
        seen = {0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for v in self.neighbors[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        return len(seen) == self.k


@dataclass
class AgentState:
    x: np.ndarray
    z: np.ndarray
    y: np.ndarray
    lam1: np.ndarray
    lam2: np.ndarray


def incidence(net: Network) -> LinearOperator:
    """Oriented edge-vertex incidence map ``T`` with ``T^T T`` the graph
    Laplacian; edges oriented min-vertex to max-vertex, rows in sorted edge
    order."""
    T = np.zeros((len(net.edges), net.k))
    for r, (i, j) in enumerate(net.edges):
        T[r, i] = 1.0
        T[r, j] = -1.0
    return LinearOperator.from_matrix(T)


def assemble_consensus(net: Network, mu: float = 1.0, alpha: float = 1.0,
                       name: str = "consensus") -> SaddleProblem:
    """Centralized problem over stacked agent variables with constraint
    ``[T (x) I; blkdiag C] x + [0; -I] z = 0``."""
    d, nz = net.x_dim, sum(net.z_dims)
    T = incidence(net).dense()
    n_cons = T.shape[0] * d
    p = n_cons + nz

    E_blocks = []
    for i, a in enumerate(net.agents):
        top = np.kron(T[:, i:i + 1], np.eye(d))
        bottom = np.zeros((nz, d))
        bottom[net.z_slices[i], :] = a.C.dense()
        E_blocks.append(LinearOperator.from_matrix(np.vstack([top, bottom])))
    F = np.vstack([np.zeros((n_cons, nz)), -np.eye(nz)])
    F_blocks = [LinearOperator.from_matrix(F[:, zs]) for zs in net.z_slices]

    smooth = [a.f for a in net.agents]
    nonsmooth = [NonsmoothBlock(a.g, a.C.out_shape) for a in net.agents]
    return SaddleProblem(smooth, nonsmooth, BlockOperator(E_blocks),
                         BlockOperator(F_blocks), np.zeros(p),
                         mu=mu, alpha=alpha, name=name)


def split_multiplier(net: Network, lam: np.ndarray):
    """Map a centralized multiplier into the per-agent pair: ``lam1`` is the
    incidence-transposed consensus part, ``lam2`` the local slices."""
    d = net.x_dim
    T = incidence(net).dense()
    n_cons = T.shape[0] * d
    lam1 = np.split(np.kron(T.T, np.eye(d)) @ lam[:n_cons], net.k)
    return lam1, [lam[n_cons:][zs] for zs in net.z_slices]


def agent_states_from_central(net: Network, s: PrimalDualState) -> List[AgentState]:
    lam1, lam2 = split_multiplier(net, s.lam)
    return [AgentState(vec(s.x[i]), vec(s.z[i]), vec(s.y[i]), lam1[i], lam2[i])
            for i in range(net.k)]


def decentralized_field(net: Network, states: Sequence[AgentState],
                        alpha: float, mu: float) -> List[AgentState]:
    """Per-agent derivatives using only local state and neighbor ``x`` values.

    The multiplier derivatives come first so the primal derivatives can reuse
    them; the staggering is exactly the per-block form of the centralized
    field."""
    adj = net.neighbors
    out = []
    for i, (a, st) in enumerate(zip(net.agents, states)):
        lam1_dot = alpha * (len(adj[i]) * st.x - sum(states[j].x for j in adj[i]))
        Cx = vec(a.C.apply(st.x.reshape(a.C.in_shape, order="F")))
        lam2_dot = alpha * (Cx - st.z)
        prox_out = vec(a.g.prox(mu, st.z + mu * st.y))
        y_dot = alpha * (st.z - prox_out)
        z_dot = -st.y - y_dot / (alpha * mu) + st.lam2 + lam2_dot / (alpha * mu)
        Ct = lambda v: vec(a.C.adjoint(v.reshape(a.C.out_shape, order="F")))
        x_dot = (-vec(a.f.grad(st.x.reshape(a.f.shape, order="F")))
                 - st.lam1 - Ct(st.lam2)
                 - (lam1_dot + Ct(lam2_dot)) / (alpha * mu))
        out.append(AgentState(x_dot, z_dot, y_dot, lam1_dot, lam2_dot))
    return out


class DivergenceError(RuntimeError):
    def __init__(self, iteration: int):
        super().__init__(f"iterates diverged (norm above 1e12) at iteration {iteration}")
        self.iteration = iteration


def run_discrete(net: Network, init: Sequence[AgentState], eta: float,
                 alpha: float, mu: float, T_iters: int) -> List[List[AgentState]]:
    """Synchronous discrete algorithm: forward Euler with step ``eta`` on the
    decentralized field, so each round broadcasts ``x`` to neighbors once."""
    if eta <= 0:
        raise ValueError("step size must be positive")
    cur = unpack_agents(net, pack_agents(init))
    history = [cur]
    for t in range(T_iters):
        flat = pack_agents(cur) + eta * pack_agents(decentralized_field(net, cur, alpha, mu))
        if np.linalg.norm(flat) > 1e12:
            raise DivergenceError(t)
        cur = unpack_agents(net, flat)      # fresh copies; never mutated
        history.append(cur)
    return history


# -- flat packing of agent states (x, z, y, lam1, lam2; agent order) --------

def pack_agents(states: Sequence[AgentState]) -> np.ndarray:
    parts = []
    for attr in ("x", "z", "y", "lam1", "lam2"):
        parts.extend(getattr(s, attr) for s in states)
    return np.concatenate(parts)


def unpack_agents(net: Network, flat: np.ndarray) -> List[AgentState]:
    return [AgentState(*(flat[s].copy() for s in sl)) for sl in net.slices]


def simulate(net: Network, init: Sequence[AgentState], cfg: flow.IntegratorConfig,
             alpha: float, mu: float) -> flow.Trajectory:
    """Integrate the decentralized field; every field evaluation is one
    synchronous round carrying ``x`` across each edge in both directions."""
    counter = {"evals": 0}

    def field(y):
        return pack_agents(decentralized_field(net, unpack_agents(net, y), alpha, mu))

    def fun(t, y):
        counter["evals"] += 1
        return field(y)

    times, states, term = flow.integrate_ode(fun, pack_agents(init), cfg)
    # the post-hoc norms use the uncounted field: they are not rounds
    fieldnorm = np.array([float(np.linalg.norm(field(s))) for s in states])
    messages = 2 * len(net.edges) * counter["evals"]
    return flow.Trajectory(times=times, states=states,
                           diagnostics={"field_norm": fieldnorm},
                           termination=term, problem=None,
                           meta={"messages_total": messages,
                                 "messages_per_round": 2 * len(net.edges),
                                 "rounds": counter["evals"],
                                 "packing": "x, z, y, lam1, lam2 per agent"})

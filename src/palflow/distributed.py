"""Consensus problems on graphs: the decentralized flow, its forward Euler
discretization, and a synchronous message-passing simulator."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
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
    """Connected undirected graph with per-agent local data."""

    k: int
    edges: List[Tuple[int, int]]
    agents: List[AgentData]

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
        if not self._connected():
            raise ValueError("network must be connected")

    def _connected(self) -> bool:
        if self.k == 1:
            return True
        adj = self.neighbors()
        seen = {0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        return len(seen) == self.k

    def neighbors(self) -> List[List[int]]:
        adj: List[List[int]] = [[] for _ in range(self.k)]
        for (i, j) in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return [sorted(a) for a in adj]

    @property
    def x_dim(self) -> int:
        dims = {a.f.dim for a in self.agents}
        if len(dims) != 1:
            raise ValueError("consensus requires a common local dimension")
        return dims.pop()


@dataclass
class AgentState:
    x: np.ndarray
    z: np.ndarray
    y: np.ndarray
    lam1: np.ndarray
    lam2: np.ndarray

    def copy(self) -> "AgentState":
        return AgentState(self.x.copy(), self.z.copy(), self.y.copy(),
                          self.lam1.copy(), self.lam2.copy())


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
    d = net.x_dim
    T = incidence(net).dense()
    n_cons = T.shape[0] * d
    z_dims = [int(np.prod(a.C.out_shape, dtype=int)) for a in net.agents]
    z_offs = np.cumsum([0] + z_dims)
    p = n_cons + int(z_offs[-1])

    E_blocks = []
    for i, a in enumerate(net.agents):
        top = np.kron(T[:, i:i + 1], np.eye(d))
        bottom = np.zeros((int(z_offs[-1]), d))
        bottom[z_offs[i]:z_offs[i + 1], :] = a.C.dense()
        E_blocks.append(LinearOperator.from_matrix(np.vstack([top, bottom])))
    F_blocks = []
    for j in range(net.k):
        col = np.zeros((p, z_dims[j]))
        col[n_cons + z_offs[j]:n_cons + z_offs[j + 1], :] = -np.eye(z_dims[j])
        F_blocks.append(LinearOperator.from_matrix(col))

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
    lam_cons = lam[:n_cons]
    lam1_full = np.kron(T.T, np.eye(d)) @ lam_cons
    lam1 = [lam1_full[i * d:(i + 1) * d] for i in range(net.k)]
    z_dims = [int(np.prod(a.C.out_shape, dtype=int)) for a in net.agents]
    z_offs = np.cumsum([0] + z_dims)
    lam2 = [lam[n_cons + a:n_cons + b] for a, b in zip(z_offs[:-1], z_offs[1:])]
    return lam1, lam2


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
    adj = net.neighbors()
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
    cur = [s.copy() for s in init]
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
    d = net.x_dim
    z_dims = [int(np.prod(a.C.out_shape, dtype=int)) for a in net.agents]
    off = 0

    def take(dim):
        nonlocal off
        out = flat[off:off + dim]
        off += dim
        return out.copy()

    xs = [take(d) for _ in range(net.k)]
    zs = [take(dz) for dz in z_dims]
    ys = [take(dz) for dz in z_dims]
    l1s = [take(d) for _ in range(net.k)]
    l2s = [take(dz) for dz in z_dims]
    return [AgentState(x, z, y, l1, l2)
            for x, z, y, l1, l2 in zip(xs, zs, ys, l1s, l2s)]


def simulate(net: Network, init: Sequence[AgentState], cfg: flow.IntegratorConfig,
             alpha: float, mu: float) -> flow.Trajectory:
    """Integrate the decentralized field; every field evaluation is one
    synchronous round carrying ``x`` across each edge in both directions."""
    counter = {"evals": 0}

    def fun(t, y):
        counter["evals"] += 1
        d = decentralized_field(net, unpack_agents(net, y), alpha, mu)
        return pack_agents(d)

    y0 = pack_agents(init)
    times, states, term = flow.integrate_ode(fun, y0, cfg)
    fieldnorm = np.array([float(np.linalg.norm(fun(0.0, s))) for s in states])
    messages = 2 * len(net.edges) * counter["evals"]
    return flow.Trajectory(times=times, states=states,
                           diagnostics={"field_norm": fieldnorm},
                           termination=term, problem=None,
                           meta={"messages_total": messages,
                                 "messages_per_round": 2 * len(net.edges),
                                 "rounds": counter["evals"],
                                 "packing": "x, z, y, lam1, lam2 per agent"})

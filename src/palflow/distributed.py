"""Consensus problems on graphs: the decentralized flow, its forward Euler
discretization, and a synchronous message-passing simulator."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from . import flow
from .linops import BlockOperator, LinearOperator, _entries, _sorted_csr, vec
from .problem import (FieldAssembly, NonsmoothBlock, PrimalDualState, SaddleProblem,
                      SmoothBlock, _check_positive)
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
    layout every other function reads: ``adjacency`` (the symmetric CSR
    adjacency matrix, with sorted indices), ``neighbors`` (its rows' column
    lists), ``x_dim`` (the common local dimension), ``z_dims``, ``z_slices``
    (each agent's slice of the stacked ``z``, and of the local part of the
    multiplier) and ``slices`` (each agent's ``x, z, y, lam1, lam2`` slices
    of the packed state, see ``pack_agents``). :meth:`field`'s
    :class:`FieldAssembly` (:attr:`_field_ops`) is built on its first call,
    not here: most networks are only ever assembled centrally."""

    k: int
    edges: List[Tuple[int, int]]
    agents: List[AgentData]
    adjacency: sp.csr_matrix = field(init=False, repr=False, compare=False)
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
        # both directions of every edge, by row and then by column
        rc = np.array(self.edges + [(j, i) for i, j in self.edges], dtype=int).reshape(-1, 2)
        self.adjacency = adj = _sorted_csr(rc[:, 0], rc[:, 1], np.ones(len(rc)),
                                           (self.k, self.k))
        self.neighbors = [adj.indices[a:b].tolist() for a, b in zip(adj.indptr, adj.indptr[1:])]
        # breadth-first search from vertex 0; ``order`` grows while it is read
        order, seen = [0], {0}
        for v in order:
            new = [w for w in self.neighbors[v] if w not in seen]
            seen.update(new)
            order += new
        if len(order) != self.k:
            raise ValueError("network must be connected")
        dims = {a.f.dim for a in self.agents}
        if len(dims) != 1:
            raise ValueError("consensus requires a common local dimension")
        self.x_dim = d = dims.pop()
        if any(a.C.in_dim != d for a in self.agents):
            raise ValueError("each local map C must act on the common local dimension")
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

    @cached_property
    def _field_ops(self) -> FieldAssembly:
        """:meth:`field`'s :class:`FieldAssembly`, with ``q = 0``: the network
        hands it the agents' blocks (an agent's x slice of the packed state,
        which x leads, also indexes ``x``) and the residual rows ``[L 0; C
        -I]`` over the ``(x, z)`` slice and ``[I C^T; 0 -I]`` over ``[t;
        s]``, so its forward matrix is ``[M 0; L 0; C -I]`` and its backward
        matrix ``-[M^T I C^T; 0 0 -I]``.

        ``L = kron(D - adjacency, I_d)`` is the Laplacian and ``C`` the block
        diagonal of the local maps; ``t = L x / mu + lam1`` and ``s = (C x -
        z) / mu + lam2``, and a z row's one ``+1`` adds ``s`` onto ``(prox(v)
        - v) / mu`` to the bit. Both are CSR built from index arrays, each
        row's entries in column order (the stored ones of ``C``): entry for
        entry the sorted stacks of scipy's ``kron``, ``block_diag``,
        ``hstack`` and ``vstack``, at a fraction of their cost."""
        d = self.x_dim
        kd, nz = self.k * d, sum(self.z_dims)
        # the (row, column, value) entries of C
        C = []
        for a, zsl, cols in zip(self.agents, self.z_slices, np.arange(kd).reshape(self.k, d)):
            r, c, v = _entries(a.C.matrix)
            C.append((zsl.start + r, cols[c], v))
        Cr, Cc, Cv = [np.concatenate(e) for e in zip(*C)]
        # the Laplacian's: -1 per neighbor and the degree on the diagonal, kron I_d
        adj, e = self.adjacency, np.arange(d)
        deg = np.diff(adj.indptr)
        linked = np.flatnonzero(deg)
        Lr = (np.concatenate([np.repeat(np.arange(self.k), deg), linked])[:, None] * d + e).ravel()
        Lc = (np.concatenate([adj.indices, linked])[:, None] * d + e).ravel()
        Lv = np.repeat(np.concatenate([-adj.data, deg[linked].astype(float)]), d)
        zr, xr, shape = np.arange(nz), np.arange(kd), (kd + nz, kd + nz)
        rows = _sorted_csr(np.concatenate([Lr, kd + Cr, kd + zr]),
                           np.concatenate([Lc, Cc, kd + zr]),
                           np.concatenate([Lv, Cv, np.full(nz, -1.0)]), shape)
        back_rows = _sorted_csr(np.concatenate([xr, Cc, kd + zr]),
                                np.concatenate([xr, kd + Cr, kd + zr]),
                                np.concatenate([np.ones(kd), Cv, np.full(nz, -1.0)]), shape)
        return FieldAssembly([(sl[0], a.f) for a, sl in zip(self.agents, self.slices)],
                             [(zsl, a.C.out_shape, a.g)
                              for a, zsl in zip(self.agents, self.z_slices)],
                             rows, back_rows, np.zeros(kd + nz))

    def field(self, u: np.ndarray, alpha: float, mu: float,
              out: Optional[np.ndarray] = None) -> np.ndarray:
        """Every agent's derivative of the packed state ``u`` (``pack_agents``
        order), packed alike, written into ``out`` if given, which must not
        overlap ``u``: :attr:`_field_ops`' assembly. Agent ``i`` reads only
        its own state and its neighbors' ``x``."""
        return self._field_ops._assemble(u, mu, alpha, True, out)

    def switching(self, mu: float) -> Optional[flow.ProxSwitching]:
        """The switching functions of :meth:`field`'s prox plan at penalty
        ``mu``, or ``None`` where no agent's ``g`` is l1, nuclear or a
        group lasso."""
        ops = self._field_ops
        return flow.ProxSwitching.of(ops.z_plan, ops.m, ops.m + ops.n, lambda: mu)


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
    """Per-agent view of :meth:`Network.field`: each agent's derivatives,
    from its local state and its neighbors' ``x`` values."""
    return unpack_agents(net, net.field(pack_agents(states), alpha, mu))


class DivergenceError(RuntimeError):
    def __init__(self, iteration: int):
        super().__init__(f"iterates diverged (norm above 1e12) at iteration {iteration}")
        self.iteration = iteration


def run_discrete(net: Network, init: Sequence[AgentState], eta: float,
                 alpha: float, mu: float, T_iters: int) -> flow.Trajectory:
    """Synchronous discrete algorithm: ``T_iters`` forward Euler steps of size
    ``eta`` on the decentralized field, each round broadcasting ``x`` to
    neighbors once. Returns the packed iterates at ``t = k·eta``; an iterate
    of norm 1e12 or more raises :class:`DivergenceError` with its step (0
    for the first, or for a start already that large)."""
    if not isinstance(T_iters, (int, np.integer)) or T_iters < 1:
        raise ValueError(f"T_iters must be a whole number of iterations, at least 1, "
                         f"got {T_iters!r}")
    _check_positive(eta=eta, alpha=alpha, mu=mu)
    cfg = flow.IntegratorConfig(method="euler", h=eta, t_end=T_iters * eta,
                                max_steps=T_iters)
    traj = flow.integrate_ode(lambda t, y, out=None: net.field(y, alpha, mu, out),
                              pack_agents(init), cfg,
                              event=lambda t, y, f: 1e12 - np.linalg.norm(y))
    if traj.termination == "event":
        raise DivergenceError(max(traj.meta["steps"] - 1, 0))
    return traj


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
    """Integrate the decentralized field; every field evaluation the stepper
    makes is one synchronous round carrying ``x`` across each edge in both
    directions, so ``rounds`` is the run's ``n_evals``. The adaptive method
    aims each step at the next l1 or group kink of the agents' proxes and
    retries a rejected attempt at the first l1 or nuclear kink
    (:meth:`Network.switching`), as
    :func:`flow.integrate` does on the assembled problem;
    ``meta["kink_caps"]`` and ``meta["kink_cuts"]`` count these."""
    _check_positive(alpha=alpha, mu=mu)
    traj = flow.integrate_ode(lambda t, y, out=None: net.field(y, alpha, mu, out),
                              pack_agents(init), cfg, switching=net.switching(mu))
    rounds = traj.meta["n_evals"]
    traj.meta.update(messages_total=2 * len(net.edges) * rounds,
                     messages_per_round=2 * len(net.edges), rounds=rounds,
                     packing="x, z, y, lam1, lam2 per agent")
    return traj

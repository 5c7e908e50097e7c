"""Problem container, KKT residual, assumption checks, and GES certificates."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, List, NamedTuple, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .linops import (BlockOperator, SingularExtremes, TOL_RANK, _checked,
                     block_diagonal, csr_product, is_identity, range_basis,
                     singular_extremes, range_contained, vec, unvec)
from .prox import ProximableFunction, moreau_value, prox_l1


class AssumptionError(RuntimeError):
    """A structural assumption required by a certificate does not hold."""


@dataclass
class SmoothBlock:
    """Convex smooth block with declared Lipschitz and strong convexity
    constants (never estimated); ``kind`` and ``meta`` name its form and
    data, as for :class:`ProximableFunction`."""

    shape: tuple
    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    lipschitz: float = 0.0
    strong_convexity: float = 0.0
    kind: str = "custom"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.shape = tuple(np.atleast_1d(self.shape))

    @property
    def dim(self) -> int:
        return int(np.prod(self.shape, dtype=int))

    @classmethod
    def quadratic(cls, H: np.ndarray, c: Optional[np.ndarray] = None) -> "SmoothBlock":
        """``(1/2) x^T H x + c^T x`` for symmetric PSD ``H``."""
        H = np.asarray(H, dtype=float)
        _check_finite(H=H)
        if (H.ndim != 2 or H.shape[0] != H.shape[1]
                or np.max(np.abs(H - H.T)) > 1e-12 * np.max(np.abs(H))):
            raise ValueError("H must be a symmetric square matrix")
        c = np.zeros(H.shape[0]) if c is None else np.asarray(c, dtype=float)
        _check_finite(c=c)
        if c.shape != (H.shape[0],):
            raise ValueError(f"c must be a vector of {H.shape[0]} entries, got shape {c.shape}")
        eigs = np.linalg.eigvalsh(H)
        return cls(shape=(H.shape[0],),
                   value=lambda x: 0.5 * x @ H @ x + c @ x,
                   grad=lambda x: H @ x + c,
                   lipschitz=float(eigs[-1]),
                   strong_convexity=float(max(eigs[0], 0.0)))

    @classmethod
    def least_squares(cls, M: np.ndarray, h: np.ndarray) -> "SmoothBlock":
        """``(1/2) ||M x - h||^2``, of kind ``"least_squares"`` with ``M`` and
        ``h`` in ``meta``.

        The gradient is ``M^T (M x - h)`` through the ``csr_product`` of ``M``
        and of ``M^T``, built on its first call. A :class:`BlockPlan` gives a
        run of adjacent least-squares blocks one such product pair, on their
        block diagonal, which equals these separate calls to the bit."""
        M = np.asarray(M, dtype=float)
        h = np.asarray(h, dtype=float)
        _check_finite(M=M, h=h)
        if M.ndim != 2:
            raise ValueError(f"M must be a matrix, got shape {M.shape}")
        if h.shape != (M.shape[0],):
            raise ValueError(f"h must be a vector of {M.shape[0]} entries, got shape {h.shape}")
        s = np.linalg.svd(M, compute_uv=False)
        smin = float(s[-1]) if M.shape[0] >= M.shape[1] else 0.0
        ls = _LeastSquares([M], [h])
        return cls(shape=(M.shape[1],),
                   value=lambda x: 0.5 * float(np.sum((M @ x - h) ** 2)),
                   # csr_product reads x unchecked
                   grad=lambda x: ls.grad(_checked(x, (M.shape[1],))),
                   lipschitz=float(s[0]) ** 2,
                   strong_convexity=smin ** 2,
                   kind="least_squares", meta={"M": M, "h": h})


def _check_finite(**arrays):
    for name, a in arrays.items():
        if not np.all(np.isfinite(a)):
            raise ValueError(f"{name} must be finite")


def _check_positive(**values):
    for name, v in values.items():
        if not 0 < v < np.inf:      # NaN fails it too
            raise ValueError(f"{name} must be finite and positive, got {v!r}")


class _LeastSquares:
    """The gradient ``M^T (M x - h)`` of ``(1/2) ||M x - h||^2`` for the block
    diagonal ``M`` of ``Ms`` and the stack ``h`` of ``hs``: one
    ``csr_product`` of ``M`` and one of ``M^T``, built on the first call. A
    row of either holds only its own block's entries, summed in column order
    from 0.0, so the gradient of a run of blocks is their separate gradients
    to the bit."""

    def __init__(self, Ms, hs):
        self.Ms, self.hs = Ms, hs

    @cached_property
    def _products(self):
        M = block_diagonal(self.Ms)
        return csr_product(M), csr_product(M.T.tocsr()), np.concatenate(self.hs)

    def grad(self, x: np.ndarray) -> np.ndarray:
        M, Mt, h = self._products
        return Mt(M(x) - h)


@dataclass
class NonsmoothBlock:
    g: ProximableFunction
    shape: tuple

    def __post_init__(self):
        self.shape = tuple(np.atleast_1d(self.shape))

    @property
    def dim(self) -> int:
        return int(np.prod(self.shape, dtype=int))


@dataclass
class PrimalDualState:
    """State ``p = (x, z, y, lam)``; ``y`` mirrors the ``z`` block shapes and
    ``lam`` lives in the flat constraint space."""

    x: List[np.ndarray]
    z: List[np.ndarray]
    y: List[np.ndarray]
    lam: np.ndarray

    def copy(self) -> "PrimalDualState":
        return PrimalDualState([a.copy() for a in self.x], [a.copy() for a in self.z],
                               [a.copy() for a in self.y], self.lam.copy())


@dataclass
class SaddleProblem:
    """Instance of ``min f(x) + g(z)  s.t.  Ex + Fz = q``.

    Block operators ``E`` and ``F`` are column-partitioned conformably with
    the smooth and nonsmooth blocks; ``mu`` is the augmented Lagrangian
    penalty and ``alpha`` the dual time constant.
    """

    smooth_blocks: List[SmoothBlock]
    nonsmooth_blocks: List[NonsmoothBlock]
    E: BlockOperator
    F: BlockOperator
    q: np.ndarray
    mu: float = 1.0
    alpha: float = 1.0
    name: str = ""

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        _check_positive(mu=self.mu, alpha=self.alpha)
        if not np.all(np.isfinite(self.q)):
            raise ValueError("q must be finite")
        if self.E.p != self.F.p or self.E.p != self.q.size:
            raise ValueError("E, F, and q must share the codomain dimension")
        if [b.shape for b in self.smooth_blocks] != list(self.E.in_shapes):
            raise ValueError("E columns do not match the smooth block shapes")
        if [b.shape for b in self.nonsmooth_blocks] != list(self.F.in_shapes):
            raise ValueError("F columns do not match the nonsmooth block shapes")

    # -- dimensions -------------------------------------------------------
    @property
    def p(self) -> int:
        return self.E.p

    # summed once: the blocks are fixed at construction
    @cached_property
    def m(self) -> int:
        return sum(b.dim for b in self.smooth_blocks)

    @cached_property
    def n(self) -> int:
        return sum(b.dim for b in self.nonsmooth_blocks)

    @cached_property
    def state_dim(self) -> int:
        return self.m + 2 * self.n + self.p

    @property
    def x_shapes(self):
        return [b.shape for b in self.smooth_blocks]

    @property
    def z_shapes(self):
        return [b.shape for b in self.nonsmooth_blocks]

    # -- declared constants ----------------------------------------------
    @property
    def L_f(self) -> float:
        return max((b.lipschitz for b in self.smooth_blocks), default=0.0)

    @property
    def m_f(self) -> float:
        """Strong convexity of the strongly convex smooth part (0 if none)."""
        sc = [b.strong_convexity for b in self.smooth_blocks if b.strong_convexity > 0]
        return min(sc) if sc else 0.0

    @property
    def m_g(self) -> float:
        """Strong convexity of the strongly convex nonsmooth part (0 if none)."""
        sc = [b.g.strong_convexity for b in self.nonsmooth_blocks if b.g.strong_convexity > 0]
        return min(sc) if sc else 0.0

    def lipschitz_xz(self) -> float:
        """Upper bound on the Lipschitz constant of the primal gradient of the
        proximal augmented Lagrangian: ``L_f + (1/mu)(1 + sigma_max^2([E F]))``."""
        smax2 = self.kernel.singular_extremes.sigma_max ** 2
        return self.L_f + (1.0 + smax2) / self.mu

    # -- evaluation -------------------------------------------------------
    def f_value(self, x: Sequence[np.ndarray]) -> float:
        return sum(b.value(xi) for b, xi in zip(self.smooth_blocks, x))

    def f_grad(self, x: Sequence[np.ndarray]) -> List[np.ndarray]:
        return [np.asarray(b.grad(xi), dtype=float) for b, xi in zip(self.smooth_blocks, x)]

    def g_value(self, z: Sequence[np.ndarray]) -> float:
        return sum(b.g(zi) for b, zi in zip(self.nonsmooth_blocks, z))

    def prox_g(self, blocks: Sequence[np.ndarray]) -> List[np.ndarray]:
        return [b.g.prox(self.mu, v) for b, v in zip(self.nonsmooth_blocks, blocks)]

    def objective(self, x: Sequence[np.ndarray], z: Sequence[np.ndarray]) -> float:
        return self.f_value(x) + self.g_value(z)

    def constraint_residual(self, x, z) -> np.ndarray:
        return self.E.apply(list(x)) + self.F.apply(list(z)) - self.q

    # -- state packing (x blocks, z blocks, y blocks, lam; column-major) --
    def pack(self, s: PrimalDualState) -> np.ndarray:
        parts = [vec(a) for a in s.x] + [vec(a) for a in s.z] + [vec(a) for a in s.y]
        parts.append(np.asarray(s.lam, dtype=float))
        return np.concatenate(parts) if parts else np.empty(0)

    def unpack(self, flat: np.ndarray) -> PrimalDualState:
        flat = np.asarray(flat, dtype=float)
        b = [unvec(flat[sl], sh) for sl, sh in self._layout]
        k, j = len(self.smooth_blocks), len(self.nonsmooth_blocks)
        return PrimalDualState(b[:k], b[k:k + j], b[k + j:-1], b[-1])

    @cached_property
    def _layout(self):
        """``(slice, shape)`` of each x, z and y block and of lam in the flat
        state."""
        shapes = self.x_shapes + 2 * self.z_shapes + [(self.p,)]
        return list(zip(_slices(shapes), shapes))

    def zero_state(self) -> PrimalDualState:
        return PrimalDualState([np.zeros(sh) for sh in self.x_shapes],
                               [np.zeros(sh) for sh in self.z_shapes],
                               [np.zeros(sh) for sh in self.z_shapes],
                               np.zeros(self.p))

    def random_state(self, rng: np.random.Generator, scale: float = 1.0) -> PrimalDualState:
        return PrimalDualState([scale * rng.standard_normal(sh) for sh in self.x_shapes],
                               [scale * rng.standard_normal(sh) for sh in self.z_shapes],
                               [scale * rng.standard_normal(sh) for sh in self.z_shapes],
                               scale * rng.standard_normal(self.p))

    # -- assembled matrices ----------------------------------------------
    def _EF_dense(self) -> np.ndarray:
        return np.hstack([self.E.dense(), self.F.dense()])

    @cached_property
    def kernel(self) -> "FieldKernel":
        """The problem compiled for the flat state; built on first use."""
        return FieldKernel(self)


def _slices(shapes) -> List[slice]:
    """Consecutive slices of a flat array holding blocks of these shapes."""
    offs = np.cumsum([0] + [int(np.prod(sh, dtype=int)) for sh in shapes])
    return [slice(a, b) for a, b in zip(offs[:-1], offs[1:])]


def _fold_order(EF: sp.csr_matrix, E_mats, F_mats) -> Optional[np.ndarray]:
    """The order of ``EF``'s stored entries in which one product sums every
    row as ``BlockOperator`` does, or ``None`` where no order does: rules
    (a)-(c) of :class:`FieldKernel`, read off the stored entries of the
    ``p``-row CSR column blocks ``E_mats`` and ``F_mats`` of ``EF``."""
    p, n_E, mats = EF.shape[0], len(E_mats), E_mats + F_mats
    counts = np.array([np.diff(M.indptr) for M in mats],
                      dtype=int).reshape(len(mats), p)   # (blocks, rows)
    for c in (counts[:n_E], counts[n_E:]):
        many = c > 1
        if np.any(many.sum(axis=0) > 1) or np.any(np.cumsum(c > 0, axis=0)[many] > 2):
            return None
    tot_E, tot_F = counts[:n_E].sum(axis=0), counts[n_E:].sum(axis=0)
    if not np.all((tot_E <= 1) | (tot_F <= 1)):
        return None
    row = np.repeat(np.arange(p), np.diff(EF.indptr))
    block = np.searchsorted(np.cumsum([M.shape[1] for M in mats]), EF.indices, side="right")
    # E's side goes last where it holds one entry and F more
    last = (block >= n_E) ^ ((tot_E == 1) & (tot_F > 1))[row]
    # lexsort is stable: a side's blocks, and each block's entries, keep
    # column order behind its many-entry block
    return np.lexsort((counts[block, row] == 1, last, row))


class BlockPlan:
    """The per-block calls of a field on a flat vector, planned once from
    each block's ``(slice, shape, function)``; the slices lie end to end
    from 0. ``grad`` calls smooth blocks' gradients, ``prox`` nonsmooth
    functions' proxes, each into its block's slice of the output.

    A run of adjacent functions of kind ``"l1"`` makes one call: the soft
    threshold at the per-entry level ``w * mu``, where ``w`` repeats each
    block's ``meta["weight"]`` over its entries (``w`` itself, only read,
    where ``mu`` is 1). That holds the same doubles as each block's
    ``weight * mu``, and ``prox_l1`` acts entry by entry, so the run equals
    its blocks' calls to the bit. A run of adjacent blocks of
    kind ``"least_squares"`` shares one block-diagonal product pair
    ``M^T (M x - h)``, built on its first call, which likewise equals its
    blocks' gradients to the bit. Any other 1-D block is called on its
    slice; a matrix-shaped one on its column-major reshape. ``l1_index``
    and ``l1_weight`` hold the positions of every l1 run's entries and
    their weights, or ``None`` where there is no l1 run. ``nuclear`` lists
    each matrix-shaped block of kind ``"nuclear"`` as ``(slice, shape,
    meta["weight"])``, and ``groups`` each 1-D block of kind
    ``"group_lasso"`` as ``(slice, meta["partition"])``.
    """

    def __init__(self, blocks):
        # (slice, per-entry l1 weights, None, None) for a run of l1 blocks,
        # (slice, None, None, its gradient) for a run of least-squares blocks,
        # (slice, None, matrix shape or None, function) for any other block
        self.runs = []
        for sl, shape, fn in blocks:
            kind = getattr(fn, "kind", None)
            prev = self.runs[-1] if self.runs else (None,) * 4
            if kind == "l1":
                w = np.full(sl.stop - sl.start, float(fn.meta["weight"]))
                if prev[1] is not None:
                    self.runs.pop()
                    sl, w = slice(prev[0].start, sl.stop), np.concatenate([prev[1], w])
                self.runs.append((sl, w, None, None))
            elif kind == "least_squares":
                Ms, hs = [fn.meta["M"]], [fn.meta["h"]]
                if isinstance(prev[3], _LeastSquares):
                    self.runs.pop()
                    sl, Ms, hs = slice(prev[0].start, sl.stop), prev[3].Ms + Ms, prev[3].hs + hs
                self.runs.append((sl, None, None, _LeastSquares(Ms, hs)))
            else:
                self.runs.append((sl, None, tuple(shape) if len(shape) > 1 else None, fn))
        self.dim = self.runs[-1][0].stop if self.runs else 0
        l1 = [(np.arange(sl.start, sl.stop), w) for sl, w, _, _ in self.runs if w is not None]
        self.l1_index = np.concatenate([i for i, _ in l1]) if l1 else None
        self.l1_weight = np.concatenate([w for _, w in l1]) if l1 else None
        self.nuclear = [(sl, shape, float(g.meta["weight"])) for sl, _, shape, g in self.runs
                        if shape is not None and getattr(g, "kind", None) == "nuclear"]
        self.groups = [(sl, g.meta["partition"]) for sl, _, shape, g in self.runs
                       if shape is None and getattr(g, "kind", None) == "group_lasso"]
        # a lone run fused here returns its own fresh array, uncopied; any
        # other lone block is copied, as its function may return a view
        lone = self.runs[0] if len(self.runs) == 1 else (None,) * 4
        self._lone_l1 = lone[1]
        self._lone_ls = lone[3] if isinstance(lone[3], _LeastSquares) else None

    def grad(self, x: np.ndarray) -> np.ndarray:
        if self._lone_ls is not None:
            return self._lone_ls.grad(x)
        out = np.empty(self.dim)
        for sl, _, shape, b in self.runs:
            out[sl] = (b.grad(x[sl]) if shape is None else
                       np.ravel(b.grad(x[sl].reshape(shape, order="F")), order="F"))
        return out

    def prox(self, mu: float, v: np.ndarray) -> np.ndarray:
        # at a unit mu the levels are the stored weights, which prox_l1 reads
        if self._lone_l1 is not None:
            return prox_l1(self._lone_l1 if mu == 1.0 else self._lone_l1 * mu, v)
        out = np.empty(self.dim)
        for sl, w, shape, g in self.runs:
            if w is not None:
                out[sl] = prox_l1(w if mu == 1.0 else w * mu, v[sl])
            elif shape is None:
                out[sl] = g.prox(mu, v[sl])
            else:
                out[sl] = np.ravel(g.prox(mu, v[sl].reshape(shape, order="F")), order="F")
        return out


class FieldKernel:
    """The proximal augmented Lagrangian, its gradient, the flow field and
    the KKT residual, evaluated on the flat state of a :class:`SaddleProblem`
    (packing order: x blocks, z blocks, y blocks, lam).

    The column blocks of ``[E F]`` are stacked side by side into the sorted
    CSR matrix ``EF`` over the contiguous ``(x, z)`` slice; ``EFt``, its
    transpose, gives both adjoints in one product. The residual
    ``E x + F z - q`` must equal ``BlockOperator``'s to the last bit, even
    where ``Ex`` and ``q`` cancel. That sums each block's entries of a row
    from 0.0 in column order, folds the E blocks' sums in block order, then
    the F blocks', and adds the two folds; a CSR product folds each row's
    stored entries from 0.0 in the order they are stored. As ``a + S == S +
    a``, one product can add the same doubles when every row meets (a) among
    the E blocks with an entry in the row, at most one stores more than one
    there, and it is the first or second of them, (b) likewise among the F
    blocks, and (c) if both sides have entries in the row, one side has
    exactly one in total. The product then stores each row in fold order: on
    each side the many-entry block first, then the side's other blocks in
    block order; the side with one entry in total last; each block's entries
    in column order. A fold step adding a one-entry
    block's sum ``0.0 + a x`` adds the same double as the product's ``+ a
    x``, a block with no entry adds 0.0, and a row sum is never -0.0. Stored
    zeros count as entries. Such a kernel forms the residual as that one
    product: the network lasso (a consensus row holds one ±1 per agent, a
    measurement row ``C_i``'s row, then one -1), PCP (E empty, identity F
    blocks), covariance completion and the sparse group lasso (a measurement
    row holds one entry of E1, then E2's many entries of ``T``, which go
    first). Any other keeps the block diagonal ``blocks`` of the column
    blocks, whose one product gives every ``E_i x_i`` and ``F_j z_j``, summed
    in block order: a row with more than one entry on both sides (as dense
    E and F blocks give), two many-entry blocks on one side or one third
    among them, and a square identity ``EF``, whose product returns its
    input, -0.0 entries included. Each product is bound once by
    ``csr_product``. The smooth gradients and the proxes run through one
    :class:`BlockPlan` each, which fuses adjacent l1 blocks into one soft
    threshold. ``mu`` and ``alpha`` are read from the problem at each call;
    where one of them is 1 (``SaddleProblem``'s default), the passes that
    would multiply or divide by it are skipped, to the same bits: ``a * 1.0``
    and ``a / 1.0`` are ``a`` for every double, signed zeros and infinities
    included, and ``a + b`` is ``b + a``. Where μ is 1 the l1 levels are the
    plan's stored weights, which are only read, and ``kkt(u, f)`` reads views
    of ``f``. :meth:`field` writes into an ``out`` it is handed.
    """

    def __init__(self, prob: SaddleProblem):
        self.prob = prob
        self.m, self.n, self.p = prob.m, prob.n, prob.p
        E_mats = [op.matrix for op in prob.E.blocks]
        F_mats = [op.matrix for op in prob.F.blocks]
        mats = E_mats + F_mats or [sp.csr_matrix((self.p, 0))]
        self.EF = sp.hstack(mats, format="csr")
        self.EF.sort_indices()
        self.EFt = self.EF.T.tocsr()
        # ``[E F]^T v`` on the ``(x, z)`` slice
        self._adjoint = csr_product(self.EFt)
        order = None if is_identity(self.EF) else _fold_order(self.EF, E_mats, F_mats)
        if order is not None:
            self.blocks = None
            self._product = csr_product(sp.csr_matrix(
                (self.EF.data[order], self.EF.indices[order], self.EF.indptr),
                shape=self.EF.shape))
        else:
            self.blocks = block_diagonal(mats)
            self._parts = csr_product(self.blocks)
            self.n_E, self.n_blocks = len(E_mats), len(mats)
        x_slices, z_slices = _slices(prob.x_shapes), _slices(prob.z_shapes)
        self.x_blocks = list(zip(x_slices, prob.smooth_blocks))
        self.z_blocks = list(zip(z_slices, prob.nonsmooth_blocks))
        self._bound_share = 1.0 - 4 * (prob.state_dim + 2) * np.finfo(float).eps
        self.x_plan = BlockPlan(zip(x_slices, prob.x_shapes, prob.smooth_blocks))
        self.z_plan = BlockPlan(zip(z_slices, prob.z_shapes,
                                    [b.g for b in prob.nonsmooth_blocks]))

    def _residual(self, xz: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """``E x + F z - q``, into ``out`` if given."""
        if self.blocks is None:
            return np.subtract(self._product(xz), self.prob.q, out=out)
        parts = self._parts(xz).reshape(self.n_blocks, self.p)
        out = parts[:self.n_E].sum(axis=0, out=out)
        out += parts[self.n_E:].sum(axis=0)
        out -= self.prob.q
        return out

    def value(self, u: np.ndarray) -> float:
        """Value of the proximal augmented Lagrangian."""
        m, n, mu = self.m, self.n, self.prob.mu
        x, z, y, lam = u[:m], u[m:m + n], u[m + n:m + 2 * n], u[m + 2 * n:]
        v = z + mu * y
        f = sum(b.value(x[sl].reshape(b.shape, order="F")) for sl, b in self.x_blocks)
        envelope = sum(moreau_value(b.g, mu, v[sl].reshape(b.shape, order="F"))
                       for sl, b in self.z_blocks)
        r = self._residual(u[:m + n])
        return (f + envelope + np.sum((r + mu * lam) ** 2) / (2.0 * mu)
                - 0.5 * mu * np.sum(y ** 2) - 0.5 * mu * np.sum(lam ** 2))

    def _assemble(self, u: np.ndarray, field: bool,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
        """The flat gradient, or with ``field`` the flow field, written into
        one output slice by slice (``out`` if given). The field's sign flip
        and α scaling go into the writes: ``-(a + b)`` is ``(-a) - b`` and
        ``-(a - b)`` is ``b - a`` to the bit, so both equal the gradient's
        entries negated or scaled. A unit μ or α costs no pass."""
        m, n, mu = self.m, self.n, self.prob.mu
        k = m + n
        z, y, lam = u[m:k], u[k:k + n], u[k + n:]
        if out is None:
            out = np.empty_like(u)
        gx, gz, gy, r = out[:m], out[m:k], out[k:k + n], out[k + n:]
        self._residual(u[:k], out=r)
        if mu == 1.0:
            shift, v = r + lam, y + z
        else:
            shift = r / mu
            shift += lam
            v = mu * y
            v += z
        at = self._adjoint(shift)
        pv = self.z_plan.prox(mu, v)
        np.subtract(z, pv, out=gy)
        if field:
            np.negative(self.x_plan.grad(u[:m]), out=gx)
            np.subtract(pv, v, out=gz)
            if mu != 1.0:
                gz /= mu
            out[:k] -= at
            if self.prob.alpha != 1.0:
                out[k:] *= self.prob.alpha
        else:
            gx[:] = self.x_plan.grad(u[:m])
            np.subtract(v, pv, out=gz)
            if mu != 1.0:
                gz /= mu
            out[:k] += at
        return out

    def gradient(self, u: np.ndarray) -> np.ndarray:
        """Flat partial gradients ``(gx, gz, gy, glam)``."""
        return self._assemble(u, field=False)

    def field(self, u: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Primal-descent dual-ascent field ``(-gx, -gz, a*gy, a*glam)``,
        written into ``out`` if given, which must not overlap ``u``."""
        return self._assemble(u, field=True, out=out)

    def kkt(self, u: np.ndarray, f: Optional[np.ndarray] = None) -> float:
        """Norm of the stacked KKT violations; see :func:`kkt_residual`.

        Given ``f = (f_x, f_z, f_y, f_lam)``, the field at ``u``, they are
        read off it with one adjoint product, equal up to rounding:
        ``r = f_lam / a``, ``z - prox(z + mu y) = f_y / a``,
        ``grad f + E^T lam = -f_x - E^T r / mu`` and
        ``y + F^T lam = -f_z - (f_y / a) / mu - F^T r / mu``.
        """
        m, n, mu = self.m, self.n, self.prob.mu
        k = m + n
        if f is None:
            z, y, lam = u[m:k], u[k:k + n], u[k + n:]
            at = self._adjoint(lam)
            r = self._residual(u[:k])
            return float(np.sqrt(np.sum((self.x_plan.grad(u[:m]) + at[:m]) ** 2)
                                 + np.sum((y + at[m:]) ** 2)
                                 + np.sum((z - self.z_plan.prox(mu, z + mu * y)) ** 2)
                                 + np.sum(r ** 2)))
        alpha = self.prob.alpha
        # views of f where alpha or mu is 1, which are only read
        r, d = f[k + n:], f[k:k + n]
        if alpha != 1.0:
            r, d = r / alpha, d / alpha
        # -(the two stationarity violations), summed into the adjoint; a new
        # array, as an identity's adjoint returns its input
        g = self._adjoint(r if mu == 1.0 else r / mu) + f[:k]
        g[m:] += d if mu == 1.0 else d / mu
        return float(np.sqrt(g @ g + d @ d + r @ r))

    def kkt_bound(self, f: np.ndarray) -> float:
        """A lower bound on ``kkt(u, f)`` from the field ``f`` at ``u``:
        ``||(f_y, f_lam)|| / a``, the norm of two of its three terms, in one
        dot product over the contiguous tail of ``f``, less a share
        ``4 (size + 2) eps`` of itself, which covers the rounding of the dot
        products on either side."""
        tail = f[self.m + self.n:]
        return math.sqrt(tail.dot(tail)) / self.prob.alpha * self._bound_share

    @cached_property
    def range_basis(self) -> np.ndarray:
        """Orthonormal basis of the range of ``[E F]``; computed once."""
        return range_basis(self.prob._EF_dense())

    @cached_property
    def singular_extremes(self) -> SingularExtremes:
        """Extreme nonzero singular values of ``[E F]``; computed once."""
        return singular_extremes(self.prob._EF_dense())


def kkt_residual(prob: SaddleProblem, s: PrimalDualState) -> float:
    """Euclidean norm of the stacked first-order optimality violations.

    Stationarity in ``x``, the multiplier identity ``y = -F^T lam``, the prox
    form of ``y in dg(z)``, and primal feasibility; zero exactly on the
    saddle set.
    """
    return prob.kernel.kkt(prob.pack(s))


# ---------------------------------------------------------------------------
# assumption checks

class Assumption4Result(NamedTuple):
    holds: bool
    I: tuple
    J: tuple


def _submatrix(prob: SaddleProblem, I: Sequence[int], J: Sequence[int]) -> np.ndarray:
    cols = [prob.E.blocks[i].dense() for i in I] + [prob.F.blocks[j].dense() for j in J]
    return np.hstack(cols) if cols else np.zeros((prob.p, 0))


def check_assumption4(prob: SaddleProblem) -> Assumption4Result:
    """Full column rank of ``[E_I F_J]`` assembled from the blocks whose
    declared strong convexity is zero; singular values count as zero below
    ``TOL_RANK`` times the largest, as in ``range_basis``."""
    I = tuple(i for i, b in enumerate(prob.smooth_blocks) if b.strong_convexity == 0.0)
    J = tuple(j for j, b in enumerate(prob.nonsmooth_blocks) if b.g.strong_convexity == 0.0)
    A = _submatrix(prob, I, J)
    if A.shape[1] == 0:
        return Assumption4Result(True, I, J)
    if A.shape[1] > A.shape[0]:
        return Assumption4Result(False, I, J)
    s = np.linalg.svd(A, compute_uv=False)
    holds = bool(s[-1] > TOL_RANK * s[0])
    return Assumption4Result(holds, I, J)


def check_assumption5(prob: SaddleProblem) -> bool:
    """Range containment ``R(F) subseteq R(E)``."""
    return range_contained(prob.F.dense(), prob.E.dense())


# ---------------------------------------------------------------------------
# GES certificate

@dataclass
class GesCertificate:
    m_xz: float
    alpha_bar2: float
    M2: float
    rho2: float
    c1: float
    c2: float
    c3: float
    L_xz: float
    empty_set_convention: bool = False
    notes: dict = field(default_factory=dict)


def ges_certificate(prob: SaddleProblem) -> GesCertificate:
    """Strong convexity modulus, admissible time-constant range, and the
    exponential envelope constants for a certified instance.

    Raises :class:`AssumptionError` when the required rank or range
    conditions fail or ``mu * m_g > 1``.
    """
    holds4, I, J = check_assumption4(prob)
    if not holds4:
        raise AssumptionError("assumption 4 fails: [E_I F_J] is not full column rank")
    if not check_assumption5(prob):
        raise AssumptionError("assumption 5 fails: R(F) is not contained in R(E)")
    mu = prob.mu
    m_g = prob.m_g
    if mu * m_g > 1.0 + 1e-12:
        raise AssumptionError(f"certificate requires mu * m_g <= 1 (got {mu * m_g:.3g})")
    if prob.smooth_blocks and prob.L_f == 0.0 and any(
            np.any(prob.E.blocks[i].dense()) for i in range(len(prob.smooth_blocks))):
        raise AssumptionError("L_f not declared on the smooth blocks")

    m_f = prob.m_f
    if m_f > 0 and m_g > 0:
        m_fg = min(m_f, m_g)
    else:
        m_fg = max(m_f, m_g)

    sEF = prob.kernel.singular_extremes
    empty_convention = False
    if m_fg == 0.0:
        m_xz = sEF.sigma_min ** 2 / mu
    elif not I and not J:
        # All blocks strongly convex: the submatrix formula degenerates, fall
        # back to the per-block strong convexity of the primal gradient map.
        parts = [b.strong_convexity for b in prob.smooth_blocks]
        parts += [b.g.strong_convexity / (1.0 + mu * b.g.strong_convexity)
                  for b in prob.nonsmooth_blocks]
        m_xz = min(parts)
        empty_convention = True
    else:
        Ic = [i for i in range(len(prob.smooth_blocks)) if i not in I]
        Jc = [j for j in range(len(prob.nonsmooth_blocks)) if j not in J]
        sIJ = singular_extremes(_submatrix(prob, I, J))
        s_comp = singular_extremes(_submatrix(prob, Ic, Jc))
        m_xz = m_fg * sIJ.sigma_min ** 2 / (m_fg * mu + 4.0 * s_comp.sigma_max ** 2)

    L_f = prob.L_f
    L_xz = prob.lipschitz_xz()
    c1 = (L_xz / 2.0 + 1.0) * max(1.0, mu)
    sE = singular_extremes(prob.E.dense())
    lam_term = 2.0 * L_f ** 2 / sE.sigma_min ** 2 if (L_f > 0 and sE.sigma_min > 0) else 0.0
    c2 = max(lam_term, 1.0 / mu ** 2)
    sF = singular_extremes(prob.F.dense())
    c3 = (2.0 / mu ** 2) * max(1.0, sF.sigma_max ** 2, mu ** 2 * sF.sigma_max ** 2)
    alpha_bar2 = 0.5 * m_xz ** 2 / (sEF.sigma_max ** 2 + 4.0)
    a = prob.alpha
    M2 = (2.0 * c1 + 1.0) / a
    rho2 = min(0.5, a, a * m_xz) / ((2.0 * c1 + 1.0) * (c2 + 1.0) * (c3 + 1.0))

    return GesCertificate(m_xz=m_xz, alpha_bar2=alpha_bar2, M2=M2, rho2=rho2,
                          c1=c1, c2=c2, c3=c3, L_xz=L_xz,
                          empty_set_convention=empty_convention,
                          notes={"I": I, "J": J, "alpha": a,
                                 "sigma_max_EF": sEF.sigma_max,
                                 "L_xz_bound": "L_f + (1 + sigma_max^2([E F])) / mu"})


# ---------------------------------------------------------------------------
# declared-constant verification

def verify_declared_constants(prob: SaddleProblem, rng: np.random.Generator,
                              samples: int = 100, scale: float = 1.0) -> bool:
    """Sample random pairs and warn when a declared Lipschitz or strong
    convexity constant is violated. Returns True when all checks pass."""
    ok = True
    for idx, blk in enumerate(prob.smooth_blocks):
        for _ in range(samples):
            u = scale * rng.standard_normal(blk.shape)
            v = scale * rng.standard_normal(blk.shape)
            du = vec(np.asarray(blk.grad(u)) - np.asarray(blk.grad(v)))
            dv = vec(u - v)
            nv = float(np.linalg.norm(dv))
            if np.linalg.norm(du) > blk.lipschitz * nv * (1 + 1e-8):
                warnings.warn(f"smooth block {idx}: declared Lipschitz constant violated")
                ok = False
                break
            if du @ dv < blk.strong_convexity * nv ** 2 * (1 - 1e-8):
                warnings.warn(f"smooth block {idx}: declared strong convexity violated")
                ok = False
                break
    return ok

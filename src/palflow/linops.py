"""Linear operator abstraction with the spectral and range queries used elsewhere.

Operators map vector- or matrix-shaped arrays to vector- or matrix-shaped
arrays. Vectorization is column-major (``order='F'``) throughout the project
and matrix-shaped variables carry the trace inner product, so ``adjoint`` is
always taken with respect to ``<U, V> = tr(U^T V)``.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
import scipy.sparse as sp

# Relative threshold under which singular values count as zero.  Matches the
# integrator's relative tolerance so rank decisions are not finer than
# trajectory accuracy.
TOL_RANK = 1e-9


def vec(u: np.ndarray) -> np.ndarray:
    """Column-major vectorization of a vector or matrix."""
    return np.asarray(u, dtype=float).ravel(order="F")


def unvec(v: np.ndarray, shape: tuple) -> np.ndarray:
    return np.asarray(v, dtype=float).reshape(shape, order="F")


class SingularExtremes(NamedTuple):
    sigma_max: float
    sigma_min: float

    @property
    def is_zero(self) -> bool:
        return self.sigma_max == 0.0


class LinearOperator:
    """A bounded linear map given by an ``apply``/``adjoint`` pair.

    Parameters
    ----------
    in_shape, out_shape : tuple
        Shapes of domain and codomain arrays; ``(n,)`` for vectors,
        ``(r, c)`` for matrices.
    apply, adjoint : callable
        The forward map and its adjoint with respect to the (trace) inner
        product.
    dense : ndarray, optional
        Materialized matrix acting on vectorized inputs. Built lazily from
        basis vectors when not supplied.
    matrix : callable, optional
        Zero-argument function returning the CSR matrix that defines the
        operator on vectorized inputs (see :attr:`matrix`); ``None`` for
        matrix-free operators.
    """

    def __init__(self, in_shape, out_shape, apply: Callable, adjoint: Callable,
                 dense: Optional[np.ndarray] = None, matrix=None):
        self.in_shape = tuple(in_shape)
        self.out_shape = tuple(out_shape)
        self._apply = apply
        self._adjoint = adjoint
        self._dense = None if dense is None else np.asarray(dense, dtype=float)
        self._matrix = matrix

    @property
    def in_dim(self) -> int:
        return int(np.prod(self.in_shape, dtype=int))

    @property
    def out_dim(self) -> int:
        return int(np.prod(self.out_shape, dtype=int))

    @property
    def matrix(self):
        """The defining CSR matrix, or ``None`` for a matrix-free operator.
        Built when asked for, so that constructing an operator stays cheap."""
        return None if self._matrix is None else self._matrix()

    def apply(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape != self.in_shape:
            raise ValueError(f"expected input of shape {self.in_shape}, got {u.shape}")
        return np.asarray(self._apply(u), dtype=float)

    def adjoint(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != self.out_shape:
            raise ValueError(f"expected input of shape {self.out_shape}, got {v.shape}")
        return np.asarray(self._adjoint(v), dtype=float)

    def dense(self) -> np.ndarray:
        """Materialize the operator as a matrix acting on vec'd inputs.

        Computed once from canonical basis vectors and cached.
        """
        if self._dense is None:
            cols = np.empty((self.out_dim, self.in_dim))
            e = np.zeros(self.in_dim)
            for j in range(self.in_dim):
                e[j] = 1.0
                cols[:, j] = vec(self.apply(unvec(e, self.in_shape)))
                e[j] = 0.0
            self._dense = cols
        return self._dense

    @classmethod
    def from_matrix(cls, A: np.ndarray) -> "LinearOperator":
        """The operator of the matrix ``A``, applied through the CSR forms of
        ``A`` and ``A^T``."""
        A = np.atleast_2d(np.asarray(A, dtype=float))

        @cache
        def csr(transpose: bool):
            return sp.csr_matrix(A.T if transpose else A)

        return cls((A.shape[1],), (A.shape[0],), lambda u: csr(False) @ u,
                   lambda v: csr(True) @ v, dense=A, matrix=lambda: csr(False))

    @classmethod
    def identity(cls, shape) -> "LinearOperator":
        shape = tuple(np.atleast_1d(shape))
        return cls(shape, shape, lambda u: u, lambda v: v,
                   matrix=lambda: sp.identity(int(np.prod(shape, dtype=int)), format="csr"))

    @classmethod
    def zero(cls, in_shape, out_shape) -> "LinearOperator":
        in_shape, out_shape = tuple(np.atleast_1d(in_shape)), tuple(np.atleast_1d(out_shape))
        return cls(in_shape, out_shape,
                   lambda u: np.zeros(out_shape), lambda v: np.zeros(in_shape),
                   matrix=lambda: sp.csr_matrix((int(np.prod(out_shape, dtype=int)),
                                                 int(np.prod(in_shape, dtype=int)))))


def lyapunov_operator(A: np.ndarray) -> LinearOperator:
    """The map ``X -> A X + X A^T`` on square matrices, with adjoint
    ``V -> A^T V + V A``."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    return LinearOperator((n, n), (n, n),
                          lambda X: A @ X + X @ A.T,
                          lambda V: A.T @ V + V @ A)


def masked_congruence(B: np.ndarray, C: np.ndarray) -> LinearOperator:
    """The map ``X -> (B X B^T) o C`` with Hadamard mask ``C``; adjoint is
    ``V -> B^T (V o C) B``."""
    B = np.asarray(B, dtype=float)
    C = np.asarray(C, dtype=float)
    n = B.shape[1]
    p = B.shape[0]
    return LinearOperator((n, n), (p, p),
                          lambda X: (B @ X @ B.T) * C,
                          lambda V: B.T @ (V * C) @ B)


def flatten_output(op: LinearOperator) -> LinearOperator:
    """Compose with column-major vectorization of the codomain."""
    if len(op.out_shape) == 1:
        return op
    return LinearOperator(op.in_shape, (op.out_dim,),
                          lambda u: vec(op.apply(u)),
                          lambda v: op.adjoint(unvec(v, op.out_shape)),
                          dense=op._dense, matrix=op._matrix)


def vstack(ops: Sequence[LinearOperator]) -> LinearOperator:
    """Stack operators sharing a domain into one with concatenated (vec'd)
    codomain."""
    ops = [flatten_output(op) for op in ops]
    in_shape = ops[0].in_shape
    if any(op.in_shape != in_shape for op in ops):
        raise ValueError("vstack requires a common domain shape")
    offs = np.cumsum([0] + [op.out_dim for op in ops])
    p = int(offs[-1])

    def apply(u):
        return np.concatenate([op.apply(u) for op in ops])

    def adjoint(v):
        out = np.zeros(in_shape)
        for op, a, b in zip(ops, offs[:-1], offs[1:]):
            out = out + op.adjoint(v[a:b])
        return out

    explicit = all(op._matrix is not None for op in ops)
    return LinearOperator(in_shape, (p,), apply, adjoint,
                          matrix=(lambda: sp.vstack([op.matrix for op in ops], format="csr"))
                          if explicit else None)


class BlockOperator:
    """Column-partitioned operator ``[A_1 ... A_k]`` acting on a list of
    blocks, with a shared flat codomain of dimension ``p``.

    ``apply`` of the concatenation equals the sum of per-block applies.
    """

    def __init__(self, blocks: Sequence[LinearOperator], p: Optional[int] = None):
        self.blocks = [flatten_output(b) for b in blocks]
        if self.blocks:
            dims = {b.out_dim for b in self.blocks}
            if len(dims) != 1:
                raise ValueError("all column blocks must share the codomain dimension")
            self.p = dims.pop()
            if p is not None and p != self.p:
                raise ValueError("declared codomain dimension disagrees with blocks")
        else:
            if p is None:
                raise ValueError("empty BlockOperator needs an explicit codomain dimension")
            self.p = int(p)

    @property
    def in_shapes(self):
        return [b.in_shape for b in self.blocks]

    @property
    def in_dim(self) -> int:
        return sum(b.in_dim for b in self.blocks)

    def apply(self, blocks: Sequence[np.ndarray]) -> np.ndarray:
        if len(blocks) != len(self.blocks):
            raise ValueError("block count mismatch")
        out = np.zeros(self.p)
        for op, u in zip(self.blocks, blocks):
            out += op.apply(np.asarray(u, dtype=float))
        return out

    def adjoint(self, v: np.ndarray) -> list:
        return [op.adjoint(v) for op in self.blocks]

    def dense(self) -> np.ndarray:
        if not self.blocks:
            return np.zeros((self.p, 0))
        return np.hstack([b.dense() for b in self.blocks])


def singular_extremes(op: LinearOperator) -> SingularExtremes:
    """Largest and smallest nonzero singular values of a materializable
    operator.

    Singular values below ``TOL_RANK * sigma_max`` are treated as zero. The
    zero operator yields ``(0, 0)`` (flagged through ``is_zero``).
    """
    A = op.dense() if isinstance(op, LinearOperator) else np.atleast_2d(np.asarray(op, dtype=float))
    if A.size == 0:
        return SingularExtremes(0.0, 0.0)
    s = np.linalg.svd(A, compute_uv=False)
    smax = float(s[0])
    if smax == 0.0:
        return SingularExtremes(0.0, 0.0)
    nz = s[s > TOL_RANK * smax]
    return SingularExtremes(smax, float(nz[-1]))


def range_basis(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the range of the matrix ``A``, one column per
    singular value above ``TOL_RANK * sigma_max``; no columns when ``A`` is
    empty or all zero."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.size == 0 or not np.any(A):
        return np.zeros((A.shape[0], 0))
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    return U[:, :int(np.sum(s > TOL_RANK * s[0]))]


def range_contained(F: LinearOperator, E: LinearOperator) -> bool:
    """Whether ``R(F)`` is contained in ``R(E)``.

    Each column of the dense form of ``F`` is tested by its least-squares
    residual against ``R(E)``, at most ``TOL_RANK`` times the column norm.
    """
    Fd, Ed = F.dense(), E.dense()
    if Fd.shape[0] != Ed.shape[0]:
        raise ValueError("operators must share the codomain dimension")
    if Fd.size == 0 or not np.any(Fd):
        return True
    Ur = range_basis(Ed)
    if Ur.shape[1] == 0:
        return False
    for j in range(Fd.shape[1]):
        col = Fd[:, j]
        nrm = np.linalg.norm(col)
        if nrm == 0.0:
            continue
        resid = col - Ur @ (Ur.T @ col)
        if np.linalg.norm(resid) > TOL_RANK * nrm:
            return False
    return True


def null_projection(op: LinearOperator, v: np.ndarray) -> np.ndarray:
    """Orthogonal projection of ``v`` onto ``N(op^T)``, the orthogonal
    complement of the range of ``op``."""
    A = op.dense()
    v = np.asarray(v, dtype=float)
    if v.shape != (A.shape[0],):
        raise ValueError(f"expected a vector of dimension {A.shape[0]}, got shape {v.shape}")
    Ur = range_basis(A)
    return v - Ur @ (Ur.T @ v)

"""Linear operator abstraction with the spectral and range queries used elsewhere.

Operators map vector- or matrix-shaped arrays to vector- or matrix-shaped
arrays, and each is defined by one matrix acting on vectorized inputs.
Vectorization is column-major (``order='F'``) throughout the project and
matrix-shaped variables carry the trace inner product, so ``adjoint`` is
always taken with respect to ``<U, V> = tr(U^T V)``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
import scipy.sparse as sp
# the kernel ``A @ x`` calls for a CSR matrix and a vector (scipy's private
# module; ``tests/test_linops.py`` pins it)
from scipy.sparse._sparsetools import csr_matvec

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
    """A bounded linear map, defined by its matrix acting on vec'd inputs.

    Parameters
    ----------
    in_shape, out_shape : tuple
        Shapes of domain and codomain arrays; ``(n,)`` for vectors,
        ``(r, c)`` for matrices.
    matrix : callable
        Zero-argument function returning the matrix in its natural form (a
        dense array or a sparse matrix); called once, on first use, so that
        constructing an operator stays cheap.

    ``apply`` and ``adjoint`` are the products of the CSR form of that matrix
    and of its transpose with the vec'd input; the adjoint is thereby taken
    with respect to the (trace) inner product.
    """

    def __init__(self, in_shape, out_shape, matrix: Callable):
        self.in_shape = tuple(in_shape)
        self.out_shape = tuple(out_shape)
        self._build = matrix

    @property
    def in_dim(self) -> int:
        return int(np.prod(self.in_shape, dtype=int))

    @property
    def out_dim(self) -> int:
        return int(np.prod(self.out_shape, dtype=int))

    @cached_property
    def _natural(self):
        return self._build()

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        """The defining matrix as CSR, each row's column indices sorted so that
        products sum a row in the same order as matrices stacked from it."""
        M = sp.csr_matrix(self._natural)
        M.sort_indices()
        return M

    @cached_property
    def _matrix_t(self) -> sp.csr_matrix:
        return self.matrix.T.tocsr()

    def apply(self, u: np.ndarray) -> np.ndarray:
        return unvec(self.matrix @ vec(_checked(u, self.in_shape)), self.out_shape)

    def adjoint(self, v: np.ndarray) -> np.ndarray:
        return unvec(self._matrix_t @ vec(_checked(v, self.out_shape)), self.in_shape)

    def dense(self) -> np.ndarray:
        """The matrix as a dense array."""
        M = self._natural
        return M.toarray() if sp.issparse(M) else M

    @classmethod
    def from_matrix(cls, A: np.ndarray) -> "LinearOperator":
        """The operator of the matrix ``A`` on vectors."""
        A = np.atleast_2d(np.asarray(A, dtype=float))
        return cls((A.shape[1],), (A.shape[0],), lambda: A)

    @classmethod
    def identity(cls, shape) -> "LinearOperator":
        shape = tuple(np.atleast_1d(shape))
        return cls(shape, shape,
                   lambda: sp.identity(int(np.prod(shape, dtype=int)), format="csr"))

    @classmethod
    def zero(cls, in_shape, out_shape) -> "LinearOperator":
        in_shape, out_shape = tuple(np.atleast_1d(in_shape)), tuple(np.atleast_1d(out_shape))
        return cls(in_shape, out_shape,
                   lambda: sp.csr_matrix((int(np.prod(out_shape, dtype=int)),
                                          int(np.prod(in_shape, dtype=int)))))


def csr_product(A: sp.csr_matrix) -> Callable[[np.ndarray], np.ndarray]:
    """The product ``x -> A @ x`` of the CSR matrix ``A``, bound once.

    It adds ``A @ x`` into a zeroed output (:func:`csr_add_product`), exactly
    as ``A @ x`` does, without the operator's dispatch and checks, so ``x``
    must be a vector of ``A``'s column count.
    """
    add, n_row = csr_add_product(A), A.shape[0]
    return lambda x: add(x, np.zeros(n_row))


def csr_add_product(A: sp.csr_matrix) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The product ``(x, out) -> out + A @ x`` of the CSR matrix ``A``, added
    into ``out`` in place and returned: row ``i`` starts from ``out[i]`` and
    adds the products of its stored entries with ``x``, in stored order
    (``csr_matvec`` itself). ``x`` must be a vector of ``A``'s column count,
    ``out`` a float vector of its row count that does not overlap ``x``."""
    n_row, n_col = A.shape
    indptr, indices = A.indptr, A.indices
    data = np.asarray(A.data, dtype=float)

    def product(x: np.ndarray, out: np.ndarray) -> np.ndarray:
        csr_matvec(n_row, n_col, indptr, indices, data, x, out)
        return out

    return product


def _sorted_csr(rows, cols, vals, shape, by_row=False) -> sp.csr_matrix:
    """The CSR matrix of the entries ``(rows, cols, vals)``, no two at one
    place, each row's in column order; with ``by_row``, a stable sort by
    row keeps each row's entries in the order handed."""
    order = np.argsort(rows, kind="stable") if by_row else np.lexsort((cols, rows))
    # scipy's index type, handed to it, spares its scan of the index arrays
    idx = np.int32 if max(*shape, len(vals)) < 2 ** 31 else np.int64
    indptr = np.searchsorted(rows[order], np.arange(shape[0] + 1)).astype(idx)
    return sp.csr_matrix((vals[order], cols[order].astype(idx), indptr), shape=shape)


def _entries(A: sp.csr_matrix):
    """The rows, columns and values of ``A``'s stored entries, in stored order."""
    ptr = A.indptr
    return np.repeat(np.arange(A.shape[0]), ptr[1:] - ptr[:-1]), A.indices, A.data


def block_diagonal(mats) -> sp.csr_matrix:
    """The block-diagonal CSR matrix of ``mats`` (dense or sparse), holding
    each block's stored entries (all of a dense block's) with each row's
    column indices sorted: a row of its ``csr_product`` sums only its own
    block's entries, in column order from 0.0, exactly as the product of
    that block alone does."""
    M = sp.block_diag(mats, format="csr")
    M.sort_indices()
    return M


def _checked(u: np.ndarray, shape: tuple) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != shape:
        raise ValueError(f"expected input of shape {shape}, got {u.shape}")
    return u


def lyapunov_operator(A: np.ndarray) -> LinearOperator:
    """The map ``X -> A X + X A^T`` on square matrices, the Kronecker sum
    ``I (x) A + A (x) I`` on ``vec X``."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    return LinearOperator((n, n), (n, n),
                          lambda: sp.kron(sp.identity(n), A) + sp.kron(A, sp.identity(n)))


def masked_congruence(B: np.ndarray, C: np.ndarray) -> LinearOperator:
    """The map ``X -> (B X B^T) o C`` with Hadamard mask ``C``, the matrix
    ``diag(vec C) (B (x) B)`` on ``vec X``."""
    B = np.asarray(B, dtype=float)
    C = np.asarray(C, dtype=float)
    n = B.shape[1]
    p = B.shape[0]
    return LinearOperator((n, n), (p, p), lambda: sp.diags(vec(C)) @ sp.kron(B, B))


def vstack(ops: Sequence[LinearOperator]) -> LinearOperator:
    """Stack operators sharing a domain into one with concatenated (vec'd)
    codomain."""
    in_shape = ops[0].in_shape
    if any(op.in_shape != in_shape for op in ops):
        raise ValueError("vstack requires a common domain shape")
    return LinearOperator(in_shape, (sum(op.out_dim for op in ops),),
                          lambda: sp.vstack([op.matrix for op in ops], format="csr"))


class BlockOperator:
    """Column-partitioned operator ``[A_1 ... A_k]`` acting on a list of
    blocks, with a shared flat codomain of dimension ``p``.

    ``apply`` of the concatenation equals the sum of per-block applies.
    """

    def __init__(self, blocks: Sequence[LinearOperator], p: Optional[int] = None):
        self.blocks = list(blocks)
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

    def apply(self, blocks: Sequence[np.ndarray]) -> np.ndarray:
        if len(blocks) != len(self.blocks):
            raise ValueError("block count mismatch")
        out = np.zeros(self.p)
        for op, u in zip(self.blocks, blocks):
            out += vec(op.apply(u))
        return out

    def adjoint(self, v: np.ndarray) -> list:
        return [op.adjoint(unvec(v, op.out_shape)) for op in self.blocks]

    def dense(self) -> np.ndarray:
        if not self.blocks:
            return np.zeros((self.p, 0))
        return np.hstack([b.dense() for b in self.blocks])


def singular_extremes(A: np.ndarray) -> SingularExtremes:
    """Largest and smallest nonzero singular values of the matrix ``A``.

    Singular values below ``TOL_RANK * sigma_max`` are treated as zero. The
    zero operator yields ``(0, 0)`` (flagged through ``is_zero``).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
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


def range_contained(F: np.ndarray, E: np.ndarray) -> bool:
    """Whether ``R(F)`` is contained in ``R(E)`` for matrices ``F`` and ``E``.

    Each column of ``F`` is tested by its least-squares residual against
    ``R(E)``, at most ``TOL_RANK`` times the column norm.
    """
    Fd = np.atleast_2d(np.asarray(F, dtype=float))
    Ed = np.atleast_2d(np.asarray(E, dtype=float))
    if Fd.shape[0] != Ed.shape[0]:
        raise ValueError("F and E must have the same number of rows")
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


def null_projection(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Orthogonal projection of ``v`` onto ``N(A^T)``, the orthogonal
    complement of the range of the matrix ``A``."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    v = np.asarray(v, dtype=float)
    if v.shape != (A.shape[0],):
        raise ValueError(f"expected a vector of dimension {A.shape[0]}, got shape {v.shape}")
    Ur = range_basis(A)
    return v - Ur @ (Ur.T @ v)

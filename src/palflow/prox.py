"""Proximal operators and Moreau envelopes for the nonsmooth blocks.

Every nonsmooth block is represented by a :class:`ProximableFunction` pairing
a value oracle with a prox oracle ``prox(mu, v) = argmin_w g(w) +
(1/2 mu) ||w - v||^2``. Moreau envelopes and their gradients are derived from
the prox, so indicator functions need no subgradient machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List

import numpy as np


_SMALLEST = np.finfo(float).smallest_subnormal
_LARGEST = np.finfo(float).max


def _norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=float)))


@dataclass
class GroupPartition:
    """Disjoint index groups covering ``{0..n-1}`` with per-group weights and
    an optional elementwise l1 weight.

    Construction also sets ``n``, the size of the index range, and lays the
    groups end to end for the vectorised group norms: ``order`` is the
    concatenated group indices, ``live`` marks the non-empty groups, and
    ``sizes`` and ``starts`` are their lengths and offsets in ``order``.
    For the prox it stores ``live_weights``, the non-empty groups' weights,
    and ``group_of``, the index among the non-empty groups of the group
    holding each entry of the range.
    """

    groups: List[np.ndarray]
    weights: np.ndarray
    eta: float = 0.0

    def __post_init__(self):
        groups = [np.asarray(g) for g in self.groups]
        if not all(np.all(np.isfinite(g) & (np.floor(g) == g)) for g in groups):
            raise ValueError("group indices must be integers")
        self.groups = [g.astype(int) for g in groups]
        self.weights = np.asarray(self.weights, dtype=float)
        if len(self.weights) != len(self.groups):
            raise ValueError("one weight per group required")
        if not np.all((self.weights > 0) & (self.weights < np.inf)):
            raise ValueError(f"group weights must be finite and positive, got {self.weights}")
        if not 0 <= self.eta < np.inf:
            raise ValueError(f"eta must be finite and nonnegative, got {self.eta!r}")
        sizes = np.array([len(g) for g in self.groups], dtype=int)
        self.n = int(sizes.sum())
        self.order = (np.concatenate(self.groups) if self.groups
                      else np.empty(0, dtype=int))
        if not np.array_equal(np.sort(self.order), np.arange(self.n)):
            raise ValueError("groups must form a partition of the index range")
        self.live = sizes > 0
        self.sizes = sizes[self.live]
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.live_weights = self.weights[self.live]
        self.group_of = np.empty(self.n, dtype=int)
        self.group_of[self.order] = np.repeat(np.arange(len(self.sizes)), self.sizes)

    def group_norms(self, v: np.ndarray) -> np.ndarray:
        """Euclidean norm of ``v`` over each non-empty group, in group order."""
        u = v[self.order]
        return np.sqrt(np.add.reduceat(u * u, self.starts))

    @classmethod
    def uniform(cls, n: int, num_groups: int, weight: float = 1.0, eta: float = 0.0) -> "GroupPartition":
        if n % num_groups:
            raise ValueError("dimension must be divisible by the group count")
        w = n // num_groups
        groups = [np.arange(h * w, (h + 1) * w) for h in range(num_groups)]
        return cls(groups, np.full(num_groups, weight), eta)


@dataclass
class ProximableFunction:
    """Closed proper convex function with an explicit prox.

    ``value`` may return ``inf`` for indicator functions; ``prox`` takes the
    penalty ``mu`` first. ``strong_convexity`` is declared, not estimated.
    """

    value: Callable[[np.ndarray], float]
    prox: Callable[[float, np.ndarray], np.ndarray]
    kind: str = "custom"
    strong_convexity: float = 0.0
    meta: dict = field(default_factory=dict)

    def __call__(self, w: np.ndarray) -> float:
        return float(self.value(np.asarray(w, dtype=float)))


# ---------------------------------------------------------------------------
# elementary prox maps

def prox_l1(mu, v: np.ndarray) -> np.ndarray:
    """Entrywise soft threshold at level ``mu``: one level for every entry,
    or an array of one level per entry of ``v``; computed in one temporary
    as ``max(|v| - mu, 0) * sign(v)``, so an entry cut to zero is -0.0 where
    ``v`` is negative and 0.0 elsewhere."""
    v = np.asarray(v, dtype=float)
    a = np.abs(v)
    a -= mu
    # numpy returns a scalar, not an array to write into, for a 0-d ``v``
    a = np.maximum(a, 0.0, out=a if v.ndim else None)
    a *= np.sign(v)
    return a


def prox_group_lasso(mu: float, part: GroupPartition, v: np.ndarray) -> np.ndarray:
    """Soft threshold by ``eta * mu`` (when ``eta > 0``) followed by per-group
    block shrinkage by ``t = weight * mu``: each entry of the thresholded
    ``z`` is multiplied by its group's ``1 - t / max(||z_g||, t)``. For a
    finite level that is exactly 0.0 where ``||z_g|| <= t``, so such a group
    maps to zeros signed as ``z``, and exactly ``1 - t / ||z_g||``
    elsewhere. A level that underflows to 0.0 is raised to the smallest
    positive double, which keeps a zero-norm group at zero (``0 / 0`` would
    give NaN) and scales any other group by exactly 1.0, as the level 0.0
    does: a nonzero norm is at least the square root of that double. A
    level that overflows to inf is lowered to the largest double, so a
    group of finite norm maps to zeros (``inf / inf`` would give NaN). A
    finite level keeps its bits; at ``mu = 1`` the weights are the levels."""
    v = np.asarray(v, dtype=float)
    if v.size != part.n:
        raise ValueError(f"expected {part.n} entries for the partition, got {v.size}")
    z = prox_l1(part.eta * mu, v) if part.eta > 0 else v
    if mu == 1.0:
        t = part.live_weights           # finite and positive, and only read
    else:
        # w·mu may underflow to 0 only for mu < 1, overflow only for mu > 1
        t = part.live_weights * mu
        if mu < 1.0:
            np.maximum(t, _SMALLEST, out=t)
        else:
            np.minimum(t, _LARGEST, out=t)
    scale = np.maximum(part.group_norms(z), t)
    np.divide(t, scale, out=scale)
    np.subtract(1.0, scale, out=scale)
    return z * scale[part.group_of]


# Largest sigma_max / mu for which prox_nuclear shrinks through the Gram
# matrix. Forming X^T X squares the condition number: the eigenvalues near
# mu^2 carry an error of about eps * sigma_max^2, so the output's error
# relative to ||X|| grows like eps * sigma_max / mu. Accepting an error of
# about 1e-13 gives 1e-13 / eps, about 450; beyond it the thin SVD is used.
# (With ten singular values within 1e-9 of mu, the largest entry error
# measured just under the guard was 6e-14 of sigma_max.)
_GRAM_MAX_RATIO = 1e-13 / np.finfo(float).eps

# Below this level the sum of fourth powers in ``keeps_none`` may underflow.
_TINY_4RT = np.finfo(float).tiny ** 0.25


def gram(X: np.ndarray):
    """The smaller Gram matrix of ``X`` (``X X^T`` when it is wide, ``X^T X``
    otherwise), and whether ``X`` is wide."""
    wide = X.shape[0] < X.shape[1]
    return (X @ X.T if wide else X.T @ X), wide


def keeps_none(G: np.ndarray, mu: float) -> bool:
    """Whether no eigenvalue of the Gram matrix ``G`` exceeds ``mu^2``, by the
    bound ``sqrt(||G G||_F) = (sum lambda_i^4)^(1/4) >= lambda_max``, taken
    ``1 + 1e-10`` times over to cover its rounding. False where the bound
    does not show it: where it is larger or not finite, or where ``mu^2``
    is below the fourth root of the smallest normal double, so that ``sum
    lambda_i^4`` could underflow. ``G G`` is not formed where ``sum
    lambda_i^2 / sum lambda_i = ||G||_F^2 / tr G``, a lower bound on
    ``lambda_max``, already exceeds ``mu^2``."""
    level = mu * mu
    if not (level >= _TINY_4RT and np.vdot(G, G) <= level * G.trace() < np.inf):
        return False
    GG = G @ G
    return np.sqrt(np.sqrt(np.vdot(GG, GG))) * (1 + 1e-10) <= level


def prox_nuclear(mu: float, X: np.ndarray) -> np.ndarray:
    """Singular value shrinkage ``U (S - mu)_+ V^T``.

    ``X`` is zero when ``||X||_F <= mu``, which bounds every singular value,
    or when :func:`keeps_none` bounds every eigenvalue of the Gram matrix
    ``X^T X`` (``X X^T`` when ``X`` is wide) by ``mu^2``. Otherwise ``V``
    and ``S^2`` come from its ``eigh``, and the result is ``X V_k diag(1 -
    mu / s_k) V_k^T`` over ``s_k > mu``, with no ``U`` formed. Above
    ``_GRAM_MAX_RATIO``, or when the Gram matrix would overflow, the thin SVD
    gives it instead. A non-finite entry raises ``np.linalg.LinAlgError``.
    """
    X = np.asarray(X, dtype=float)
    nrm = np.linalg.norm(X)
    if nrm <= mu:
        return np.zeros_like(X)
    if np.isfinite(nrm):
        G, wide = gram(X)
        # tr G = ||X||_F^2 <= min(X.shape) lambda_max, so where it exceeds
        # that many mu^2 some singular value is kept: a free test first
        if nrm * nrm <= min(X.shape) * mu * mu and keeps_none(G, mu):
            return np.zeros_like(X)
        w, V = np.linalg.eigh(G)
        if np.sqrt(w[-1]) <= _GRAM_MAX_RATIO * mu:
            keep = w > mu * mu
            Vk = V[:, keep]
            P = (Vk * (1.0 - mu / np.sqrt(w[keep]))) @ Vk.T
            return P @ X if wide else X @ P
    elif not np.all(np.isfinite(X)):
        raise np.linalg.LinAlgError("non-finite entry in the nuclear prox's input")
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    return (U * np.maximum(s - mu, 0.0)) @ Vt


def prox_indicator_orthant(sign: str, v: np.ndarray) -> np.ndarray:
    """Entrywise clamp onto the nonnegative or nonpositive orthant
    (mu-independent projection)."""
    v = np.asarray(v, dtype=float)
    if sign == "nonneg":
        return np.maximum(v, 0.0)
    if sign == "nonpos":
        return np.minimum(v, 0.0)
    raise ValueError("sign must be 'nonneg' or 'nonpos'")


def prox_frobenius_ball_masked(radius: float, mask: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Projection onto ``{X : ||X o mask||_F <= radius}``; entries off the
    mask pass through. When the masked part vanishes the formula's limit is
    the identity."""
    X = np.asarray(X, dtype=float)
    mask = np.asarray(mask, dtype=float)
    if mask.shape != X.shape:
        raise ValueError("mask shape must match the input")
    masked = X * mask
    nrm = np.linalg.norm(masked)
    if nrm == 0.0:
        return X.copy()
    return X * (1.0 - mask) + min(1.0, radius / nrm) * masked


# ---------------------------------------------------------------------------
# ProximableFunction constructors

# Slack when evaluating indicator feasibility at prox outputs; projections are
# exact only up to floating point.
_INDICATOR_TOL = 1e-9


def _weight(weight) -> float:
    """A penalty weight as a float; a negative or non-finite one is refused."""
    weight = float(weight)
    if not (np.isfinite(weight) and weight >= 0):
        raise ValueError(f"penalty weight must be finite and nonnegative, got {weight}")
    return weight


def l1(weight: float = 1.0) -> ProximableFunction:
    """``weight * ||w||_1``; its prox is the soft threshold at ``weight * mu``."""
    weight = _weight(weight)
    return ProximableFunction(
        value=lambda w: weight * float(np.sum(np.abs(w))),
        prox=lambda mu, v: prox_l1(weight * mu, v),
        kind="l1", meta={"weight": weight})


def group_lasso(part: GroupPartition) -> ProximableFunction:
    def value(w):
        w = np.asarray(w, dtype=float)
        return float(part.eta * np.sum(np.abs(w))
                     + part.live_weights @ part.group_norms(w))

    return ProximableFunction(
        value=value,
        prox=lambda mu, v: prox_group_lasso(mu, part, v),
        kind="group_lasso", meta={"partition": part})


def nuclear(weight: float = 1.0) -> ProximableFunction:
    weight = _weight(weight)
    return ProximableFunction(
        value=lambda W: weight * float(np.sum(np.linalg.svd(W, compute_uv=False))),
        prox=lambda mu, v: prox_nuclear(weight * mu, v),
        kind="nuclear", meta={"weight": weight})


def indicator_orthant(sign: str) -> ProximableFunction:
    def value(w):
        w = np.asarray(w, dtype=float)
        viol = np.max(-w, initial=0.0) if sign == "nonneg" else np.max(w, initial=0.0)
        scale = 1.0 + float(np.max(np.abs(w), initial=0.0))
        return 0.0 if viol <= _INDICATOR_TOL * scale else np.inf

    return ProximableFunction(
        value=value,
        prox=lambda mu, v: prox_indicator_orthant(sign, v),
        kind=f"indicator_{sign}", meta={"sign": sign})


def frobenius_ball_masked(radius: float, mask: np.ndarray) -> ProximableFunction:
    if not radius >= 0:
        raise ValueError(f"ball radius must be nonnegative, got {radius}")
    mask = np.asarray(mask, dtype=float)

    def value(W):
        nrm = np.linalg.norm(np.asarray(W, dtype=float) * mask)
        return 0.0 if nrm <= radius * (1.0 + _INDICATOR_TOL) + _INDICATOR_TOL else np.inf

    return ProximableFunction(
        value=value,
        prox=lambda mu, v: prox_frobenius_ball_masked(radius, mask, v),
        kind="frobenius_ball_masked", meta={"radius": radius, "mask": mask})


def zero() -> ProximableFunction:
    return ProximableFunction(
        value=lambda w: 0.0,
        prox=lambda mu, v: np.array(v, dtype=float, copy=True),
        kind="zero")


# ---------------------------------------------------------------------------
# Moreau envelope

def moreau_value(g: ProximableFunction, mu: float, v: np.ndarray) -> float:
    """``g(prox(v)) + (1/2 mu) ||prox(v) - v||^2``."""
    if not 0 < mu < np.inf:         # NaN fails it too
        raise ValueError(f"mu must be finite and positive, got {mu!r}")
    p = g.prox(mu, v)
    gv = g(p)
    if not np.isfinite(gv):
        raise ValueError("value oracle is infinite at the prox output; prox and value disagree")
    return gv + _norm(p - np.asarray(v, dtype=float)) ** 2 / (2.0 * mu)


def moreau_grad(g: ProximableFunction, mu: float, v: np.ndarray) -> np.ndarray:
    """``(1/mu) (v - prox(v))``; 1/mu-Lipschitz even for nondifferentiable g."""
    if not 0 < mu < np.inf:         # NaN fails it too
        raise ValueError(f"mu must be finite and positive, got {mu!r}")
    v = np.asarray(v, dtype=float)
    return (v - g.prox(mu, v)) / mu


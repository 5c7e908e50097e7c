"""Proximal augmented Lagrangian, its gradient field, and ODE integration."""

from __future__ import annotations

import csv
import inspect
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .problem import PrimalDualState, SaddleProblem, _check_positive
from .prox import gram, keeps_none


def __getattr__(name):
    # palbench's tracer still looks up ``flow.solve_ivp``, which no run in
    # src/ calls; imported on that lookup only, and removed with the tracer's
    # scipy rows (ROADMAP, item 1)
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class FlowError(RuntimeError):
    pass


def pal_value(prob: SaddleProblem, s: PrimalDualState) -> float:
    """Value of the proximal augmented Lagrangian at the state."""
    return float(prob.kernel.value(prob.pack(s)))


def pal_gradient(prob: SaddleProblem, s: PrimalDualState):
    """Partial gradients ``(gx, gz, gy, glam)`` of the proximal augmented
    Lagrangian; ``gx``, ``gz``, ``gy`` are block lists, ``glam`` is flat."""
    g = prob.unpack(prob.kernel.gradient(prob.pack(s)))
    return g.x, g.z, g.y, g.lam


def vector_field(prob: SaddleProblem, s: PrimalDualState) -> PrimalDualState:
    """Primal-descent dual-ascent field ``(-gx, -gz, a*gy, a*glam)``."""
    return prob.unpack(prob.kernel.field(prob.pack(s)))


def blockwise_field(prob: SaddleProblem, s: PrimalDualState) -> PrimalDualState:
    """Per-block form of the field: the multiplier derivative first, then the
    dual blocks, then the primal blocks reusing those derivatives."""
    a, mu = prob.alpha, prob.mu
    lam_dot = a * prob.constraint_residual(s.x, s.z)
    shift = s.lam + lam_dot / (a * mu)
    Et = prob.E.adjoint(shift)
    Ft = prob.F.adjoint(shift)
    prox_out = prob.prox_g([zj + mu * yj for zj, yj in zip(s.z, s.y)])
    y_dot = [a * (zj - pj) for zj, pj in zip(s.z, prox_out)]
    z_dot = [-(yj + yd / (a * mu)) - f for yj, yd, f in zip(s.y, y_dot, Ft)]
    x_dot = [-g - e for g, e in zip(prob.f_grad(s.x), Et)]
    return PrimalDualState(x_dot, z_dot, y_dot, lam_dot)


class FlowField:
    """Flat-state ODE right-hand side of the flow; given ``out``, which must
    not overlap ``flat``, the field is written into it and returned."""

    def __init__(self, prob: SaddleProblem):
        self.prob = prob

    def __call__(self, t: float, flat: np.ndarray,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
        return self.prob.kernel.field(flat, out)


class _Tableau(NamedTuple):
    """A Butcher tableau; an adaptive one adds error weights and dense output."""
    C: np.ndarray
    A: np.ndarray
    B: np.ndarray
    E: Optional[np.ndarray] = None
    P: Optional[np.ndarray] = None

    @property
    def adaptive(self) -> bool:
        return self.E is not None


# The integration methods, by the name ``IntegratorConfig.method`` takes.
METHODS = {
    "euler": _Tableau(np.array([0]), np.zeros((1, 0)), np.array([1.0])),
    "rk4": _Tableau(np.array([0, 1/2, 1/2, 1]),
                    np.array([[0, 0, 0], [1/2, 0, 0], [0, 1/2, 0], [0, 0, 1]]),
                    np.array([1/6, 1/3, 1/3, 1/6])),
    # Dormand–Prince 5(4), scipy's RK45 tableau as it writes it
    "rk45": _Tableau(
        np.array([0, 1/5, 3/10, 4/5, 8/9, 1]),
        np.array([
            [0, 0, 0, 0, 0],
            [1/5, 0, 0, 0, 0],
            [3/40, 9/40, 0, 0, 0],
            [44/45, -56/15, 32/9, 0, 0],
            [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
            [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]]),
        np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84]),
        np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40]),
        # dense output, with the optimal c_6 of Shampine (1986)
        np.array([
            [1, -8048581381/2820520608, 8663915743/2820520608,
             -12715105075/11282082432],
            [0, 0, 0, 0],
            [0, 131558114200/32700410799, -68118460800/10900136933,
             87487479700/32700410799],
            [0, -1754552775/470086768, 14199869525/1410260304,
             -10690763975/1880347072],
            [0, 127303824393/49829197408, -318862633887/49829197408,
             701980252875 / 199316789632],
            [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
            [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])),
}


@dataclass
class IntegratorConfig:
    method: str = "rk45"            # a key of METHODS
    h: Optional[float] = None       # fixed-step size
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    t_end: float = 10.0
    stop_kkt: Optional[float] = None
    max_steps: int = 10_000_000
    record_stride: int = 1

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        positive = ["t_end", "rel_tol", "abs_tol"]
        if not METHODS[self.method].adaptive:
            if self.h is None:
                raise ValueError("fixed-step methods need a step h")
            positive.append("h")
        if self.stop_kkt is not None:
            positive.append("stop_kkt")
        _check_positive(**{name: getattr(self, name) for name in positive})
        for name in ("max_steps", "record_stride"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise ValueError(f"{name} must be an integer of at least 1, got {v!r}")


@dataclass
class Trajectory:
    """Time-stamped state sequence with per-sample diagnostics."""

    times: np.ndarray
    states: np.ndarray              # shape (len(times), state_dim), packing order
    diagnostics: dict
    termination: str
    problem: Optional[SaddleProblem] = None
    meta: dict = field(default_factory=dict)

    def state(self, i: int) -> PrimalDualState:
        return self.problem.unpack(self.states[i])

    def final_state(self) -> PrimalDualState:
        return self.state(len(self.times) - 1)

    def to_csv(self, path, extra_columns: Optional[dict] = None) -> None:
        cols = {"t": self.times}
        cols.update(self.diagnostics)
        if extra_columns:
            cols.update(extra_columns)
        names = list(cols)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(names)
            for i in range(len(self.times)):
                w.writerow([f"{cols[c][i]:.17g}" for c in names])

    def states_to_binary(self, path) -> None:
        """Full state snapshots as little-endian float64 in packing order."""
        with open(path, "wb") as fh:
            fh.write(np.ascontiguousarray(self.states, dtype="<f8").tobytes())


def _rms(v: np.ndarray) -> float:
    # np.linalg.norm's arithmetic on a vector, without its dispatch
    return math.sqrt(v.dot(v)) / v.size ** 0.5


def _prox_rank(G: np.ndarray, level: float) -> int:
    """The count of eigenvalues of the Gram matrix ``G`` above ``level^2``:
    the rank of the nuclear prox at ``level``; 0 where ``G`` is not
    finite."""
    if keeps_none(G, level) or not np.isfinite(G).all():
        return 0
    return int(np.count_nonzero(np.linalg.eigvalsh(G) > level * level))


class ProxSwitching:
    """The switching functions of a prox plan's kinks: of its l1 entries
    (``BlockPlan.l1_index`` and ``l1_weight``) and of its nuclear-norm
    blocks (``BlockPlan.nuclear``), whose ``z`` and ``y`` lie at ``z_start``
    and ``y_start`` of the flat state. ``mu()`` gives the penalty, read at
    each call. :meth:`of` is ``None`` for a plan with neither.

    - l1 entry ``i`` of weight ``w_i``: ``s_i = |z_i + mu y_i| - mu w_i``;
      its soft threshold is zero where ``s_i <= 0``.
    - A nuclear block of weight ``c``, with ``V`` its part of ``z + mu y``
      as a column-major matrix: its prox keeps the singular values above
      ``mu c``, so the field has a kink where the rank of the prox changes.
      With ``w_i`` the eigenvectors of the smaller Gram matrix of ``V`` at an
      attempt's start (``eigh``, as ``prox_nuclear`` takes it), ``r_i =
      ||V w_i||^2 - (mu c)^2`` (``V^T w_i`` where ``V`` is wide) is positive
      at the start on exactly the eigenvalues the prox keeps, and follows
      ``sigma_i^2 - (mu c)^2`` to first order in the step.

    :meth:`next_crossing` predicts the next l1 kink from the field at a
    step's start; :meth:`first_crossing` finds the first kink of either kind
    on a rejected attempt's interpolant."""

    GRID = 64       # intervals of the crossing search on ``[0, 1]``
    # a predicted crossing within this fraction of the step is the kink the
    # last step landed on
    LANDED = 1e-3
    _X = np.linspace(0.0, 1.0, GRID + 1)
    # (x, x², x³, x⁴) at x = g / GRID, one column per grid point g = 0..GRID
    _POWERS = _X ** np.arange(1, 5)[:, None]
    # x^(j + l) for j, l = 0..4 (row 5 j + l), likewise
    _GRAM_POWERS = _X ** np.add.outer(np.arange(5), np.arange(5)).reshape(25, 1)

    def __init__(self, plan, z_start: int, y_start: int, mu: Callable[[], float]):
        self.mu, self.z = mu, None
        if plan.l1_index is not None:
            self.z, self.y = plan.l1_index + z_start, plan.l1_index + y_start
            self.w = plan.l1_weight
        self.nuclear = [(slice(sl.start + z_start, sl.stop + z_start),
                         slice(sl.start + y_start, sl.stop + y_start), shape, c)
                        for sl, shape, c in plan.nuclear]

    @classmethod
    def of(cls, plan, z_start: int, y_start: int,
           mu: Callable[[], float]) -> Optional[ProxSwitching]:
        return (None if plan.l1_index is None and not plan.nuclear
                else cls(plan, z_start, y_start, mu))

    def next_crossing(self, y: np.ndarray, f: np.ndarray, h: float) -> float:
        """The first-order time to the next l1 kink from ``y``, where the
        field is ``f``: the least ``tau_i = -s_i / s'_i`` above ``LANDED·h``
        over the entries moving toward their kink (``s_i s'_i < 0``), with
        ``s'_i = sign(v_i)·(f_{z,i} + mu f_{y,i})`` and ``v_i = z_i + mu y_i``;
        ``inf`` where there is none. An entry whose ``v_i'`` is zero is not
        moving: its ``tau_i`` is NaN, which no comparison keeps. Nuclear
        blocks are not predicted: their rate would take an ``eigh`` per
        step."""
        if self.z is None:
            return math.inf
        mu = self.mu()
        # a unit mu costs no pass: 1.0 * a is a
        if mu == 1.0:
            v, level, rate = y[self.z] + y[self.y], self.w, f[self.z] + f[self.y]
        else:
            v, level = y[self.z] + mu * y[self.y], mu * self.w
            rate = f[self.z] + mu * f[self.y]
        # -s_i / s'_i = (the level on v_i's side - v_i) / v_i'
        gap = np.copysign(level, v)
        gap -= v
        rate[rate == 0] = math.nan
        gap /= rate
        return float(gap[gap > self.LANDED * h].min(initial=math.inf))

    def first_crossing(self, y0: np.ndarray, y1: np.ndarray, K: np.ndarray,
                       P: np.ndarray, h: float) -> float:
        """The first ``x`` in ``(0, 1]`` at which a switching function changes
        sign on the attempt's quartic interpolant ``y0 + h·(K^T P)·(x, x²,
        x³, x⁴)`` (stages ``K``, dense-output weights ``P``); 1 where none
        does. The l1 entries searched are those whose signs at ``y0`` and
        ``y1`` differ, and a nuclear block is searched only where its prox's
        rank differs there. Each is evaluated on ``GRID + 1`` points in one
        product, and the earliest interval whose ends lie on either side is
        interpolated linearly: exact for a linear function, and off by at
        most ``GRID^-2 / 8 · max|s''| / min|s'|`` on that interval for a
        smooth one."""
        mu = self.mu()
        x = 1.0 if self.z is None else self._l1_crossing(mu, y0, y1, K, P, h)
        for block in self.nuclear:
            x = min(x, self._nuclear_crossing(block, mu, y0, y1, K, P, h))
        return x

    def _l1_crossing(self, mu, y0, y1, K, P, h) -> float:
        level = mu * self.w
        v0 = y0[self.z] + mu * y0[self.y]
        out0 = np.abs(v0) > level
        flip = np.flatnonzero(out0 != (np.abs(y1[self.z] + mu * y1[self.y]) > level))
        if not flip.size:
            return 1.0
        kv = K[:, self.z[flip]] + mu * K[:, self.y[flip]]
        s = np.dot(kv.T.dot(P) * h, self._POWERS)       # (entries, GRID + 1)
        s += v0[flip, None]
        np.abs(s, out=s)
        s -= level[flip, None]
        return self._first_sign_change(s)

    def _nuclear_crossing(self, block, mu, y0, y1, K, P, h) -> float:
        zs, ys, shape, c = block
        level = c * mu
        v0 = y0[zs] + mu * y0[ys]
        G0 = gram(v0.reshape(shape, order="F"))[0]
        if _prox_rank(G0, level) == _prox_rank(
                gram((y1[zs] + mu * y1[ys]).reshape(shape, order="F"))[0], level):
            return 1.0
        return self._first_sign_change(self.rank_margins(block, mu, v0, G0, K, P, h))

    def rank_margins(self, block, mu: float, v0: np.ndarray, G0: np.ndarray,
                     K: np.ndarray, P: np.ndarray, h: float) -> np.ndarray:
        """``r_i`` of the nuclear ``block`` on the grid, one row per
        eigenvector, from the block's part ``v0`` of ``z + mu y`` at the
        attempt's start and its Gram matrix ``G0``. ``V(x)`` is ``V_0 +
        sum_j x^j V_j`` with ``V_j`` the block's rows of ``h·K^T P``, so
        ``||V(x) w_i||^2`` is the degree-8 polynomial ``p^T M_i p`` in ``p =
        (1, x, .., x⁴)``, with ``M_i`` the 5×5 Gram matrix of the ``V_j
        w_i``; its constant term is the eigenvalue itself, as the prox
        compares it."""
        zs, ys, shape, c = block
        level = c * mu
        lam, W = np.linalg.eigh(G0)
        C = np.empty((5, v0.size))
        C[0] = v0
        np.dot(P.T, K[:, zs] + mu * K[:, ys], out=C[1:])
        C[1:] *= h
        # row j of C is V_j in column-major order, so this reshape reads V_j^T
        Vt = C.reshape(5, shape[1], shape[0])
        A = Vt @ W if shape[0] < shape[1] else Vt.transpose(0, 2, 1) @ W
        B = A.transpose(2, 0, 1)                        # (eigenvectors, 5, rows)
        M = B @ B.transpose(0, 2, 1)
        M[:, 0, 0] = lam
        r = M.reshape(len(lam), 25) @ self._GRAM_POWERS
        r -= level * level
        return r

    def _first_sign_change(self, s: np.ndarray) -> float:
        """The first ``x`` at which a row of grid values ``s`` leaves the side
        of zero it starts on, interpolated linearly; 1 where none does."""
        pos = s > 0
        crossed = pos != pos[:, :1]
        # the grid point x = 0 is on the start's side, so j >= 1 where found
        j = crossed.argmax(axis=1)
        rows = np.flatnonzero(crossed[np.arange(len(s)), j])
        if not rows.size:
            return 1.0
        j = j[rows]
        left, right = s[rows, j - 1], s[rows, j]
        return float(np.min(j - 1 + left / (left - right))) / self.GRID


def _takes_out(fun: Callable) -> bool:
    """Whether ``fun`` takes an ``out`` argument to write its value into."""
    try:
        return "out" in inspect.signature(fun).parameters
    except (TypeError, ValueError):     # no signature to read
        return False


def _copied_into_out(fun: Callable) -> Callable:
    """``fun(t, y)`` as ``fun(t, y, out)``: its value copied into ``out``."""
    def into(t, y, out):
        out[...] = fun(t, y)
    return into


class _RungeKutta:
    """Explicit Runge–Kutta steps of ``y' = fun(t, y)`` from ``t = 0`` by the
    tableau of ``cfg.method`` (Hairer, Nørsett & Wanner, *Solving ODEs I*,
    §II.1, §II.4). ``step()`` makes one accepted step of ``(t, y)`` and sets
    ``done`` at ``t_end``; ``f``, the field there, is evaluated on first use
    and is the next first stage; ``nfev`` counts the calls of ``fun``. A
    fixed-step run steps to ``t = k·h`` for ``n = ceil(t_end / h)`` steps, or
    ``n - 1`` when ``(n - 1)·h`` already reaches ``t_end``. The ``adaptive``
    Dormand–Prince 5(4) is step for step scipy's ``RK45`` (initial step,
    step-size control, dense output); its last stage is the next ``f``,
    ``rejected`` counts the attempts thrown away, and a step below the float
    spacing is a :class:`FlowError`. Given ``switching`` (a
    :class:`ProxSwitching`), a step's first attempt is shortened to the l1
    kink that ``next_crossing`` predicts from the field held at its start
    (no evaluation) when that is shorter than the step and not below the
    minimum step; ``kink_caps`` counts these. A prediction is taken again
    once the run has covered half the time to it, or ``HOLD`` steps of the
    step it was taken for, whichever comes first. A rejected attempt that
    carries an l1 entry across its kink, or changes the rank of a nuclear
    block's prox, is retried at the first crossing on its own interpolant
    when that step is shorter than the controller's and not below the
    minimum step; ``kink_cuts`` counts these retries. An accepted step whose
    length a kink set (a cap or a cut) proposes at least the step the kink
    displaced, not the controller's smaller or unchanged one (Gear &
    Østerby 1984; Enright et al. 1988). With no ``switching`` its runs equal
    ``solve_ivp``'s to the bit.

    A step's arithmetic runs in work arrays made once: the stage inputs, the
    error scale and the weighted error in place, each product formed in
    scipy's order, ``(K·a)·h + y``, so the values are scipy's to the bit.
    Each stage is written into its row of ``K``: a ``fun`` that takes an
    ``out`` argument is called as ``fun(t, y, out)`` and writes the field
    there; any other is called as ``fun(t, y)`` and its value copied into
    the row. ``fun`` is handed these arrays and must not keep them. The
    field held at an accepted Dormand–Prince state is the last row of ``K``,
    copied into the first row once when the next step begins, so it survives
    that step's rejected attempts and no attempt copies it again. The new
    state is written into a spare array that, once accepted, becomes ``y``
    and is replaced by a fresh one, so a state is never written again."""

    EXPONENT = -1 / 5       # -1 / (error estimator order + 1)
    # a kink prediction is taken again once half the time to the kink, or
    # this many steps, has passed: a far one need not be taken every step
    HOLD = 8

    def __init__(self, fun: Callable, y0: np.ndarray, cfg: IntegratorConfig,
                 switching: Optional[ProxSwitching] = None):
        self._fun = fun if _takes_out(fun) else _copied_into_out(fun)
        self.t_end, self.switching = cfg.t_end, switching
        tab = METHODS[cfg.method]
        self.B, self.E, self.P, self.adaptive = tab.B, tab.E, tab.P, tab.adaptive
        self.t, self.y, self._f = 0.0, y0, None
        self.done, self.nfev, self.rejected = False, 0, 0
        self.kink_cuts = self.kink_caps = 0
        self._predict_at = 0.0
        # the stages (and Dormand–Prince's field at the new state), read
        # and written through views made once
        self.K = K = np.empty((len(tab.B) + self.adaptive, y0.size))
        self._first, self._last = K[0], K[-1]
        self._rows = [(K[s], K[:s].T, tab.A[s, :s], tab.C[s]) for s in range(1, len(tab.C))]
        self._KB = K[:len(tab.B)].T
        self._work, self._y_new = np.empty(y0.size), np.empty(y0.size)
        if self.adaptive:
            floor = 100 * np.finfo(float).eps
            if cfg.rel_tol < floor:
                warnings.warn(f"rel_tol {cfg.rel_tol:g} is below 100 machine "
                              f"epsilons; using {floor:g}", stacklevel=3)
            self.rtol, self.atol = max(cfg.rel_tol, floor), cfg.abs_tol
            self.h_abs, self._scale = None, np.empty(y0.size)
        else:
            self.h, self.k = cfg.h, 0
            self.n_steps = int(np.ceil(cfg.t_end / cfg.h))
            self.n_steps -= (self.n_steps - 1) * cfg.h >= cfg.t_end

    def fun(self, t, y, out: np.ndarray) -> None:
        """A counted call of the field at ``(t, y)``, written into ``out``."""
        self.nfev += 1
        self._fun(t, y, out)

    @property
    def f(self) -> np.ndarray:
        if self._f is None:
            self.fun(self.t, self.y, self._first)
            self._f = self._first
        return self._f

    def _stages(self, t: float, y: np.ndarray, h: float) -> np.ndarray:
        """The stages of a step of ``h`` into ``K``, the first being the
        held field in ``K[0]``, and ``y + h·Σ b_i k_i`` into the spare array,
        which is returned."""
        dy, y_new = self._work, self._y_new
        f = self.f
        if f is self._last:
            # the field an accepted step left in the last row, moved once:
            # the attempts write only the later rows
            self._first[...] = f
            self._f = f = self._first
        if not self._rows:
            # forward Euler: the one-stage sum is f itself
            np.multiply(f, h, out=y_new)
        else:
            for row, Ks, a, c in self._rows:
                np.dot(Ks, a, out=dy)
                dy *= h
                dy += y
                self.fun(t + c * h, dy, row)
            np.dot(self._KB, self.B, out=y_new)
            y_new *= h
        y_new += y
        return y_new

    def _accept(self) -> np.ndarray:
        """The spare array as the new state; a fresh one takes its place."""
        y, self._y_new = self._y_new, np.empty_like(self._y_new)
        return y

    def _initial_step(self) -> float:
        """Hairer, Nørsett & Wanner's starting step (§II.4), as scipy's
        ``select_initial_step``."""
        y0, f0 = self.y, self.f
        scale = self.atol + np.abs(y0) * self.rtol
        d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, self.t_end)
        f1 = self._last
        self.fun(h0, y0 + h0 * f0, f1)
        d2 = _rms((f1 - f0) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 5)
        return min(100 * h0, h1, self.t_end)

    def step(self) -> None:
        if not self.adaptive:
            self._stages(self.t, self.y, self.h)
            self.y = self._accept()
            self.k += 1
            self.t, self._f = self.k * self.h, None
            self.done = self.k == self.n_steps
            return
        if self.h_abs is None:
            self.h_abs = self._initial_step()
        t, y, K = self.t, self.y, self.K
        err, scale = self._work, self._scale
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = min_step if self.h_abs < min_step else self.h_abs
        rejected = False
        kink = None     # the controller's step a kink displaced, while it holds
        if self.switching is not None and t >= self._predict_at:
            cap = self.switching.next_crossing(y, self.f, h_abs)
            self._predict_at = t + min(cap / 2, self.HOLD * h_abs)
            if min_step <= cap < min(h_abs, self.t_end - t):
                kink, h_abs = h_abs, cap
                self.kink_caps += 1
        while True:
            if h_abs < min_step:
                raise FlowError("stiff/failed: Required step size is less than "
                                "spacing between numbers.")
            t_new = min(t + h_abs, self.t_end)
            h = t_new - t
            h_abs = abs(h)
            y_new = self._stages(t, y, h)
            self.fun(t + h, y_new, self._last)
            # atol + max(|y|, |y_new|)·rtol, and the error (K·e)·h / scale
            np.abs(y, out=err)
            np.abs(y_new, out=scale)
            np.maximum(err, scale, out=scale)
            scale *= self.rtol
            scale += self.atol
            np.dot(K.T, self.E, out=err)
            err *= h
            err /= scale
            error = _rms(err)
            if error < 1:
                break
            h_next = h_abs * max(0.2, 0.9 * error ** self.EXPONENT)
            kink = None
            if self.switching is not None:
                cut = h_abs * self.switching.first_crossing(y, y_new, K, self.P, h)
                if min_step <= cut < h_next:
                    kink, h_next = h_next, cut
                    self.kink_cuts += 1
            h_abs = h_next
            rejected = True
            self.rejected += 1
        # grow by at most 10, and not at all right after a rejection; a step
        # a kink set is followed by at least the step it displaced
        factor = 10 if error == 0 else min(10, 0.9 * error ** self.EXPONENT)
        h_abs *= min(1, factor) if rejected else factor
        self.h_abs = h_abs if kink is None else max(h_abs, kink)
        self.t_old, self.y_old = t, y
        self.t, self.y, self._f = t_new, self._accept(), self._last
        self.done = t_new >= self.t_end

    def dense_output(self) -> _DenseStep:
        return _DenseStep(self.t_old, self.t, self.y_old, self.K.T.dot(self.P))


class _DenseStep:
    """The quartic interpolant of one Dormand–Prince step, as scipy's
    ``RkDenseOutput``: ``h·Q·(x, x², x³, x⁴) + y_old`` at ``x = (t - t_old)/h``,
    for a scalar ``t`` or a vector of them (one column each)."""

    def __init__(self, t_old: float, t: float, y_old: np.ndarray, Q: np.ndarray):
        self.t_old, self.h, self.y_old, self.Q = t_old, t - t_old, y_old, Q

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t)
        x = (t - self.t_old) / self.h
        p = np.cumprod(np.tile(x, 4)) if t.ndim == 0 else np.cumprod(np.tile(x, (4, 1)), axis=0)
        y = self.h * np.dot(self.Q, p)
        y += self.y_old if y.ndim == 1 else self.y_old[:, None]
        return y


class _DenseSolution:
    """The dense output of a run: the step pieces ``pieces`` between the
    times ``ends``, looked up as scipy's ``OdeSolution`` does (a time on a
    step's end takes the earlier step; one outside takes the nearest), so
    its values equal ``solve_ivp``'s ``sol`` to the bit."""

    def __init__(self, ends, pieces):
        self.ends, self.pieces = np.asarray(ends), pieces

    def _piece(self, t):
        return np.clip(np.searchsorted(self.ends, t) - 1, 0, len(self.pieces) - 1)

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t)
        if t.ndim == 0:
            return self.pieces[self._piece(t)](t)
        # each run of sorted times on one piece in one call, as scipy does
        order = np.argsort(t)
        ts = t[order]
        seg = self._piece(ts)
        cuts = np.flatnonzero(np.diff(seg)) + 1
        ys = np.hstack([self.pieces[g[0]](tg)
                        for g, tg in zip(np.split(seg, cuts), np.split(ts, cuts))])
        return ys[:, np.argsort(order)]


def _brentq(f: Callable, xa: float, xb: float, xtol: float, rtol: float,
            maxiter: int = 100) -> float:
    """A root of ``f`` in the bracket ``[xa, xb]`` by Brent's method (Brent,
    *Algorithms for Minimization without Derivatives*, 1973, ch. 4), step
    for step scipy's C ``brentq``, so the root is the same double. A bracket
    whose ends have one sign, and a NaN value, raise ``ValueError``."""

    def value(x: float) -> float:
        fx = float(f(x))
        if np.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry     # a good short step
            else:
                spre = scur = sbis          # bisect
        else:
            spre = scur = sbis              # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur}")


def integrate_ode(fun: Callable, y0: np.ndarray, cfg: IntegratorConfig,
                  event: Optional[Callable] = None, field: Optional[Callable] = None,
                  dense: bool = False,
                  switching: Optional[ProxSwitching] = None) -> Trajectory:
    """Integrate a generic flat ODE with the method ``cfg.method`` names.

    Returns a :class:`Trajectory` with no problem attached, with a
    ``field_norm`` column, the termination (``"t_end"``, ``"event"`` or
    ``"max_steps"``, which caps the accepted steps) and ``meta`` with
    ``n_evals`` (the stepper's calls of ``fun``), ``steps``, ``rejected``,
    ``kink_cuts`` and ``kink_caps``. The adaptive method shortens a step's
    first attempt to the next l1 kink ``switching`` predicts from the field
    at its start, and retries a rejected attempt at the first l1 or
    nuclear-norm kink it locates on its interpolant, where that is the
    shorter step; the step after either is at least the one the kink
    displaced (see :class:`_RungeKutta`). With no ``switching`` it equals
    ``solve_ivp``'s ``RK45`` to the bit, and ``kink_cuts`` and
    ``kink_caps`` are 0. A non-finite ``y0`` is a ``ValueError``, a
    non-finite field there or state later a :class:`FlowError`. Only every
    ``record_stride``-th accepted step and the last are held. A sample's
    field norm is the field the stepper holds there; where it holds none (an
    event's end point, the last fixed-step sample) it is ``field(t, y)``,
    uncounted, which defaults to ``fun``. The ``event`` is called as ``event(t, y, f)`` and stops the
    run where it reaches zero or below, before the first step if it is there
    at ``t = 0``; ``f`` is the field the stepper holds at ``y`` (after an
    accepted adaptive step, its last stage), or ``None`` where it holds none:
    at ``t = 0``, at fixed-step states and at the points of the root search.
    The adaptive method locates the crossing on the step's dense output by
    Brent's method, as ``solve_ivp`` does. With ``dense`` (adaptive method
    only), ``meta["dense"]`` interpolates every accepted step's dense output
    (a :class:`_DenseSolution`, absent for a run stopped at its start).

    ``fun`` is called as ``fun(t, y)`` and returns the field, or, where it
    takes an ``out`` argument (``fun(t, y, out=None)``, as
    :class:`FlowField` does), writes it into ``out``, the stepper's stage
    row, and no array is allocated or copied per evaluation; every call is
    counted either way. ``fun`` and ``event`` must not keep the arrays they
    are handed: the stepper writes its stage inputs, its stages and the
    field it holds into arrays it reuses.
    """
    y0 = np.asarray(y0, dtype=float)
    if not np.all(np.isfinite(y0)):
        raise ValueError("every entry of the initial state y0 must be finite")
    stepper = _RungeKutta(fun, y0, cfg, switching)
    if dense and not stepper.adaptive:
        raise ValueError("dense output needs the adaptive method rk45")
    field = field or fun
    term = "event" if event is not None and event(0.0, y0, None) <= 0 else None
    f0 = field(0.0, y0) if term else stepper.f
    if not np.all(np.isfinite(f0)):
        # an adaptive step size would be NaN, and never fall below the minimum
        raise FlowError("the field at the start is not finite")
    # The kept states share one buffer that grows in place (for large
    # buffers, realloc moves pages rather than copying them), so a run holds
    # its samples once: no list of them next to their stacked copy.
    states = np.empty((64, y0.size))
    states[0] = y0
    times, norms = [0.0], [np.linalg.norm(f0)]
    ends, pieces, steps = [0.0], [], 0
    while term is None:
        stepper.step()
        steps += 1
        t, y = stepper.t, stepper.y
        if not np.isfinite(y).all():
            raise FlowError("non-finite state encountered")
        # stepper._f: the field it holds at y, if any
        hit = event is not None and event(t, y, stepper._f) <= 0
        located = hit and stepper.adaptive
        sol = stepper.dense_output() if dense or located else None
        if hit:
            term = "event"
            if located:
                tol = 4 * np.finfo(float).eps
                t = _brentq(lambda s: event(s, sol(s), None), stepper.t_old, t, tol, tol)
                y = sol(t)
        elif stepper.done:
            term = "t_end"
        elif steps == cfg.max_steps:
            term = "max_steps"
        if dense:
            pieces.append(sol)
            ends.append(t)
        if term is None and steps % cfg.record_stride:
            continue
        if len(times) == len(states):
            # no view of the buffer exists, so it may move
            states.resize((len(states) * 5 // 4, y0.size), refcheck=False)
        states[len(times)] = y
        times.append(t)
        # the field at an accepted state is at hand: the adaptive step's last
        # stage, or the first stage of the fixed-step method's next step
        at_hand = term is None or (stepper.adaptive and term != "event")
        norms.append(np.linalg.norm(stepper.f if at_hand else field(t, y)))
    states.resize((len(times), y0.size), refcheck=False)
    meta = {"n_evals": stepper.nfev, "steps": steps, "rejected": stepper.rejected,
            "kink_cuts": stepper.kink_cuts, "kink_caps": stepper.kink_caps}
    if pieces:
        meta["dense"] = _DenseSolution(ends, pieces)
    return Trajectory(np.array(times), states, {"field_norm": np.array(norms)}, term,
                      meta=meta)


def integrate(prob: SaddleProblem, s0: PrimalDualState, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the primal-dual flow from ``s0``.

    Terminates on ``t_end``; on ``stop_kkt``, once the KKT residual is at or
    below it (located by the adaptive integrator's event search; a start
    already there returns at once); or on ``max_steps``. The reason is
    recorded. Where the stepper holds the field ``f`` at a state, the stop
    event first tries the lower bound ``kernel.kkt_bound(f)``, one dot
    product: where it exceeds ``stop_kkt`` the event returns that positive
    gap, and otherwise the residual read off the field, ``kernel.kkt(y, f)``
    less ``stop_kkt``. Only the event's sign decides a stop, and the root
    search evaluates the residual in full, so the bound moves no stop. The
    ``kkt_residual`` column is ``kernel.kkt`` at every kept sample. Where
    the z blocks hold an l1 run or a nuclear-norm block, the adaptive
    method aims each step at the next l1 kink and retries a rejected
    attempt at the first kink of their proxes (``integrate_ode``'s
    ``switching``).
    """
    k = prob.kernel
    event = None
    if cfg.stop_kkt is not None:
        stop = cfg.stop_kkt

        def event(t, y, f):
            if f is not None:
                gap = k.kkt_bound(f) - stop
                if gap > 0:
                    return gap
            return k.kkt(y, f) - stop

    traj = integrate_ode(FlowField(prob), prob.pack(s0), cfg, event=event,
                         field=lambda t, y: k.field(y),
                         switching=ProxSwitching.of(k.z_plan, k.m, k.m + k.n,
                                                    lambda: prob.mu))
    if traj.termination == "event":
        traj.termination = "stop_kkt"
    kkt = [prob.kernel.kkt(u) for u in traj.states]
    traj.diagnostics = {"kkt_residual": np.array(kkt), **traj.diagnostics}
    traj.problem = prob
    traj.meta.update(method=cfg.method, alpha=prob.alpha,
                     packing="x-blocks, z-blocks, y-blocks, lam (column-major)")
    return traj

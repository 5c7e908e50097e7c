import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import reference_prox_nuclear, same_doubles
from palflow import prox
from palflow.prox import (GroupPartition, moreau_grad, moreau_value,
                          prox_frobenius_ball_masked, prox_group_lasso,
                          prox_indicator_orthant, prox_l1, prox_nuclear)


# -- soft threshold ----------------------------------------------------------

def test_l1_zero_input():
    assert np.array_equal(prox_l1(1.0, np.zeros(3)), np.zeros(3))


def test_l1_frozen_values():
    assert np.allclose(prox_l1(0.5, np.array([2.0, -0.3])), [1.5, 0.0])
    assert np.allclose(prox_l1(2.0, np.array([-5.0])), [-3.0])


def test_l1_level_per_entry_is_each_entrys_threshold(rng):
    v = rng.standard_normal(6)
    levels = np.array([0.1, 0.1, 0.5, 0.5, 0.5, 2.0])
    want = np.concatenate([prox_l1(0.1, v[:2]), prox_l1(0.5, v[2:5]), prox_l1(2.0, v[5:])])
    assert np.array_equal(prox_l1(levels, v), want)


def _soft_threshold(mu, v):
    """The soft threshold written out in its textbook form."""
    return np.sign(v) * np.maximum(np.abs(v) - mu, 0.0)


def test_l1_signed_zeros_and_entries_at_the_level():
    v = np.array([0.0, -0.0, 0.5, -0.5, 0.7, -0.7, 0.2, -0.2])
    got = prox_l1(0.5, v)
    assert same_doubles(got, _soft_threshold(0.5, v))
    # +-0 and +-0.5 cut to 0.0 except where v < 0; +-0.7 keep their sign
    assert np.array_equal(np.signbit(got), [False, False, False, True,
                                            False, True, False, True])
    assert np.array_equal(got[4:6], [0.7 - 0.5, -(0.7 - 0.5)])
    # a zero level passes every entry through, -0.0 as 0.0
    assert same_doubles(prox_l1(0.0, v), _soft_threshold(0.0, v))


def test_l1_per_entry_levels_to_the_bit(rng):
    v = np.concatenate([[0.0, -0.0, 0.3, -0.3, 1.25, -1.25], rng.standard_normal(30)])
    levels = np.concatenate([[0.3, 0.3, 0.3, 0.3, 1.25, 1.25],
                             rng.choice([0.0, 0.1, 0.5, 2.0], size=30)])
    assert same_doubles(prox_l1(levels, v), _soft_threshold(levels, v))
    assert same_doubles(prox_l1(levels.reshape(6, 6), v.reshape(6, 6)),
                         _soft_threshold(levels, v).reshape(6, 6))


def test_l1_scalar_input():
    assert prox_l1(1.0, 3.0) == 2.0
    assert same_doubles(np.asarray(prox_l1(1.0, -0.5)), np.asarray(-0.0))


@pytest.mark.parametrize("make", [
    lambda: prox.l1(-1.0), lambda: prox.l1(np.inf), lambda: prox.l1(np.nan),
    lambda: prox.nuclear(-1.0), lambda: prox.nuclear(np.inf), lambda: prox.nuclear(np.nan),
    lambda: prox.frobenius_ball_masked(-1.0, np.ones((2, 2))),
    lambda: prox.frobenius_ball_masked(np.nan, np.ones((2, 2)))],
    ids=["l1_negative", "l1_inf", "l1_nan", "nuclear_negative", "nuclear_inf",
         "nuclear_nan", "ball_negative", "ball_nan"])
def test_constructors_refuse_negative_or_nonfinite_weights(make):
    # a negative l1 weight once made a "prox" that expands: [0.5, -2] -> [1.5, -3]
    with pytest.raises(ValueError):
        make()


def test_constructors_accept_zero_weights():
    v = np.array([0.5, -2.0])
    assert np.array_equal(prox.l1(0).prox(1.0, v), v)
    assert prox.l1(0).meta["weight"] == 0.0
    assert np.array_equal(prox.nuclear(0.0).prox(1.0, np.diag(v)), np.diag(v))
    assert np.array_equal(prox.frobenius_ball_masked(0.0, np.eye(2)).prox(1.0, np.ones((2, 2))),
                          np.ones((2, 2)) - np.eye(2))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 6), st.floats(0.01, 5.0))
def test_l1_matches_scalar_argmin(seed, mu):
    rng = np.random.default_rng(seed)
    v = 5.0 * rng.standard_normal(4)
    p = prox_l1(mu, v)
    # golden-section search on each scalar subproblem
    for vi, pi in zip(v, p):
        lo, hi = vi - 2 * mu - 1, vi + 2 * mu + 1
        phi = (np.sqrt(5) - 1) / 2
        f = lambda w: mu * abs(w) + 0.5 * (w - vi) ** 2
        a, b = lo, hi
        for _ in range(200):
            c, d = b - phi * (b - a), a + phi * (b - a)
            if f(c) < f(d):
                b = d
            else:
                a = c
        # the flat quadratic bottom limits golden-section resolution
        assert pi == pytest.approx((a + b) / 2, abs=1e-6)


# -- group shrinkage ---------------------------------------------------------

def test_group_lasso_single_group():
    part = GroupPartition([np.arange(2)], [1.0])
    out = prox_group_lasso(1.0, part, np.array([3.0, 4.0]))
    assert np.allclose(out, [2.4, 3.2])


@pytest.mark.parametrize("name,weights,eta", [
    ("weights", [np.nan, 1.0], 0.0), ("weights", [1.0, np.inf], 0.0),
    ("weights", [0.0, 1.0], 0.0), ("eta", [1.0, 1.0], np.nan),
    ("eta", [1.0, 1.0], np.inf), ("eta", [1.0, 1.0], -0.5)])
def test_group_partition_rejects_nonfinite_numbers(name, weights, eta):
    with pytest.raises(ValueError, match=name):
        GroupPartition([np.arange(2), np.arange(2, 4)], weights, eta)


def test_group_lasso_dead_zone():
    part = GroupPartition([np.arange(3)], [2.0])
    v = np.array([0.5, 0.5, 0.5])   # norm below weight * mu
    assert np.allclose(prox_group_lasso(1.0, part, v), 0.0)


def test_group_lasso_vanishing_weight_is_identity():
    part = GroupPartition([np.arange(2)], [1e-15])
    v = np.array([1.0, 2.0])
    assert np.allclose(prox_group_lasso(1.0, part, v), v, atol=1e-12)


def test_group_lasso_with_elementwise_stage():
    part = GroupPartition([np.arange(2)], [1.0], eta=0.5)
    v = np.array([3.0, 4.0])
    thr = prox_l1(0.5, v)                     # (2.5, 3.5)
    nrm = np.linalg.norm(thr)
    assert np.allclose(prox_group_lasso(1.0, part, v), (1 - 1 / nrm) * thr)


def test_group_partition_validation():
    with pytest.raises(ValueError):
        GroupPartition([np.arange(2)], [1.0, 2.0])
    with pytest.raises(ValueError):
        GroupPartition([np.arange(2)], [-1.0])
    with pytest.raises(ValueError, match="partition"):
        GroupPartition([np.array([0, 1]), np.array([1, 2])], [1.0, 1.0])
    with pytest.raises(ValueError, match="partition"):
        GroupPartition([np.array([0, 2])], [1.0])
    # indices are not truncated: 0.5 and 1.9 once made the group [0, 1]
    for groups in ([[0.5, 1.9], [2.2]], [[0, np.nan], [2]], [[0, 1], [np.inf]]):
        with pytest.raises(ValueError, match="integers"):
            GroupPartition(groups, [1.0, 1.0])
    part = GroupPartition([[0.0, 1.0], [2.0]], [1.0, 1.0])
    assert [g.tolist() for g in part.groups] == [[0, 1], [2]]


def _group_lasso_loop(mu, part, v):
    """The per-group loop form of the prox, kept as the reference."""
    z = prox_l1(part.eta * mu, v) if part.eta > 0 else v.copy()
    out = np.empty_like(z)
    for idx, w in zip(part.groups, part.weights):
        blk = z[idx]
        nrm = np.linalg.norm(blk)
        out[idx] = 0.0 if nrm <= w * mu else (1.0 - w * mu / nrm) * blk
    return out


def _group_lasso_masked(mu, part, v):
    """The vectorised form with a mask and a scatter, kept as the reference
    the mask-free prox equals to the bit."""
    z = prox_l1(part.eta * mu, v) if part.eta > 0 else v
    nrm = part.group_norms(z)
    t = part.weights[part.live] * mu
    scale = np.zeros_like(nrm)
    shrink = nrm > t
    scale[shrink] = 1.0 - t[shrink] / nrm[shrink]
    out = np.empty_like(z)
    out[part.order] = z[part.order] * np.repeat(scale, part.sizes)
    return out


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6), st.floats(0.1, 3.0))
@example(0, 1.0)                                  # the levels are the weights
@example(1, 1.0)
def test_group_lasso_matches_loop_form(seed, mu):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    labels = rng.integers(0, int(rng.integers(1, 8)), size=n)
    # non-contiguous groups from a random labelling, plus empty groups
    groups = [np.flatnonzero(labels == k) for k in range(labels.max() + 3)]
    part = GroupPartition(groups, 0.1 + rng.random(len(groups)),
                          eta=float(rng.choice([0.0, 0.4])))
    v = 2.0 * rng.standard_normal(n)
    v[groups[0]] *= 1e-3                      # one group in the dead zone
    ref = _group_lasso_loop(mu, part, v)
    out = prox_group_lasso(mu, part, v)
    assert np.max(np.abs(out - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))
    assert same_doubles(out, _group_lasso_masked(mu, part, v))
    value = part.eta * np.sum(np.abs(v)) + sum(
        w * np.linalg.norm(v[idx]) for idx, w in zip(part.groups, part.weights))
    assert prox.group_lasso(part)(v) == pytest.approx(value, rel=1e-14)


@pytest.mark.parametrize("case", ["norm_at_level", "zero_groups", "eta_cuts", "sgl"])
def test_group_lasso_is_the_masked_form_to_the_bit(case, rng):
    """Groups at the kink, of zeros of either sign, and of entries the
    elementwise stage cuts to -0.0 map as the masked form maps them, value
    and sign bit."""
    if case == "norm_at_level":      # ||(-3, 4)|| = 5 = 2.5 * 2 exactly
        part, mu = GroupPartition([np.arange(2), np.arange(2, 4)], [2.5, 1.0]), 2.0
        v = np.array([-3.0, 4.0, -3.0, 4.0])
    elif case == "zero_groups":
        part, mu = GroupPartition([np.arange(2), np.arange(2, 4), np.arange(4, 6)],
                                  [1.0, 1.0, 0.5]), 0.7
        v = np.array([0.0, 0.0, -0.0, -0.0, 0.0, -2.0])
    elif case == "eta_cuts":         # -0.2 and -0.05 are cut to -0.0
        part, mu = GroupPartition([np.array([0, 3, 4]), np.array([1, 2])], [0.3, 0.4],
                                  eta=0.25), 1.0
        v = np.array([-0.2, -0.05, 0.1, 3.0, -1.5])
    else:                            # sgl's partition, groups on either side of the kink
        part, mu = GroupPartition.uniform(200, 10, weight=0.8, eta=0.1), 1.3
        v = rng.standard_normal(200) * np.repeat(10.0 ** rng.uniform(-1.5, 0.5, 10), 20)
    out = prox_group_lasso(mu, part, v)
    assert same_doubles(out, _group_lasso_masked(mu, part, v))
    if case == "norm_at_level":
        assert same_doubles(out[:2], np.array([-0.0, 0.0]))
        assert np.all(out[2:] != 0.0)
    elif case == "zero_groups":
        assert same_doubles(out[:4], np.array([0.0, 0.0, -0.0, -0.0]))
    elif case == "eta_cuts":
        assert same_doubles(out[:2], np.array([-0.0, -0.0]))
    else:
        assert 0 < np.count_nonzero(out) < 200


def test_group_lasso_level_underflowing_to_zero():
    """Where ``weight * mu`` underflows to 0.0, a group whose norm is 0.0 (of
    zeros, or of entries whose squares underflow) maps to zeros signed as
    its input, with no NaN from ``0 / 0``, and any other group passes
    through, as in the masked form."""
    part = GroupPartition([np.arange(2), np.arange(2, 4), np.arange(4, 6)], [1e-300] * 3)
    mu = 1e-30
    assert part.weights[0] * mu == 0.0
    v = np.array([0.0, -0.0, 1e-200, -1e-200, 1.0, -2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = prox_group_lasso(mu, part, v)
    assert same_doubles(out, _group_lasso_masked(mu, part, v))
    assert same_doubles(out, np.array([0.0, -0.0, 0.0, -0.0, 1.0, -2.0]))


def test_group_lasso_level_overflowing_to_inf():
    """Where ``weight * mu`` overflows to inf, the level is the largest
    double: a group of finite norm maps to zeros signed as its input, as in
    the masked form, not to NaN from ``inf / inf``. numpy warns of the
    overflow in the multiply; the output is what is asserted."""
    part = GroupPartition([np.arange(2)], [1e300])
    v = np.array([3.0, -4.0])
    with np.errstate(over="ignore"):
        out = prox_group_lasso(1e10, part, v)
        want = _group_lasso_masked(1e10, part, v)
    assert same_doubles(out, want)
    assert same_doubles(out, np.array([0.0, -0.0]))


def test_group_lasso_rejects_wrong_length():
    part = GroupPartition([np.arange(2), np.arange(2, 4)], [1.0, 1.0])
    assert part.n == 4
    with pytest.raises(ValueError, match="4 entries"):
        prox_group_lasso(1.0, part, np.ones(3))


# -- singular value shrinkage ------------------------------------------------

def test_nuclear_diagonal():
    out = prox_nuclear(2.0, np.diag([3.0, 1.0]))
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)


def test_nuclear_zero():
    assert np.allclose(prox_nuclear(1.0, np.zeros((3, 2))), 0.0)


def test_nuclear_small_rank_one_vanishes():
    rng = np.random.default_rng(0)
    u, v = rng.standard_normal(3), rng.standard_normal(4)
    X = np.outer(u, v)
    mu = np.linalg.norm(u) * np.linalg.norm(v) + 0.1
    assert np.allclose(prox_nuclear(mu, X), 0.0, atol=1e-12)


# The Gram-matrix route's error relative to sigma_max grows like eps *
# sigma_max / mu; its guard keeps it near 1e-13, the tolerance of every
# comparison with the SVD reference below unless a test says otherwise.
GRAM_TOL = 1e-13


def _spectrum(rng, shape, s):
    """A ``shape`` matrix with singular values ``s`` and random vectors."""
    m, n = shape
    U = np.linalg.qr(rng.standard_normal((m, len(s))))[0]
    V = np.linalg.qr(rng.standard_normal((n, len(s))))[0]
    return (U * s) @ V.T


def _gap(mu, X):
    """Largest entry of ``prox_nuclear - reference`` over ``sigma_max(X)``."""
    diff = prox_nuclear(mu, X) - reference_prox_nuclear(mu, X)
    return np.max(np.abs(diff), initial=0.0) / np.linalg.norm(X, 2)


def _eigh_route(mu, X):
    """``prox_nuclear``'s Gram route, with no shortcut before its ``eigh``."""
    wide = X.shape[0] < X.shape[1]
    w, V = np.linalg.eigh(X @ X.T if wide else X.T @ X)
    keep = w > mu * mu
    Vk = V[:, keep]
    P = (Vk * (1.0 - mu / np.sqrt(w[keep]))) @ Vk.T
    return P @ X if wide else X @ P


def test_nuclear_zero_shortcut_is_exact_and_factors_nothing(rng, monkeypatch):
    """Neither a Frobenius norm at or below ``mu`` nor a spectral bound at or
    below ``mu^2`` factors anything, and both return what the factoring
    routes return, +0.0 entries: the bound's cases have a singular value
    just under ``mu``, a Frobenius norm above it, and entries of one sign."""
    mu = 0.7
    below = mu * np.array([1 - 1e-6, 1e-2, 1e-3])
    spectral = [(mu, sign * _spectrum(rng, shape, below))
                for shape in [(5, 3), (3, 5), (4, 4), (40, 40)] for sign in (1, -1)]
    # near rank one with every entry negative
    A = np.outer(rng.uniform(1, 2, 6), rng.uniform(1, 2, 4)) + 0.5 * rng.uniform(0, 1, (6, 4))
    spectral += [(mu, -A * (mu * (1 - 1e-4) / np.linalg.norm(A, 2)))]
    assert all(np.linalg.norm(X) > mu for mu, X in spectral)
    eigh_outs = [_eigh_route(mu, X) for mu, X in spectral]
    factored = []
    for name in ("svd", "eigh"):
        def counting(a, *args, _fn=getattr(np.linalg, name), **kwargs):
            factored.append(a)
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    X = rng.standard_normal((5, 3))
    cases = [(np.linalg.norm(X), X), (2.0 * np.linalg.norm(X), X),
             (1.0, np.zeros((4, 4))), (0.5, np.array([[0.5]]))]
    outs = [prox_nuclear(m, A) for m, A in cases + spectral]
    assert factored == []
    # just above the level the bound does not hold, and eigh runs
    X = _spectrum(rng, (5, 3), mu * np.array([1 + 1e-6, 1e-2, 1e-3]))
    assert prox_nuclear(mu, X).any() and len(factored) == 1
    for (m, A), out in zip(cases, outs):
        assert out.shape == A.shape
        assert np.array_equal(out, reference_prox_nuclear(m, A))    # exact
    for want, out in zip(eigh_outs, outs[len(cases):]):
        assert same_doubles(out, want) and not np.signbit(out).any()


def test_keeps_none_bounds_the_largest_eigenvalue(rng):
    """``keeps_none`` holds only where every eigenvalue is at most ``mu^2``,
    and on a one-term spectrum just under it; a non-finite Gram matrix, or
    one whose ``G G`` or sum of fourth powers underflows to zero at a level
    below its largest eigenvalue, is not shown empty."""
    for _ in range(50):
        X = _spectrum(rng, (6, 4), rng.uniform(0.0, 1.0, 4))
        G = prox.gram(X)[0]
        mu = rng.uniform(0.3, 1.2)
        if prox.keeps_none(G, mu):
            assert np.linalg.eigvalsh(G)[-1] <= mu * mu
    G = prox.gram(_spectrum(rng, (6, 4), np.array([1 - 1e-8, 0.0, 0.0, 0.0])))[0]
    assert prox.keeps_none(G, 1.0) and not prox.keeps_none(G, 1 - 1e-7)
    assert not prox.keeps_none(np.full((2, 2), np.nan), 1.0)
    assert not prox.keeps_none(np.full((2, 2), np.inf), 1.0)
    assert not prox.keeps_none(1e-170 * np.eye(2), 1e-90)
    # just above the underflow guard the bound still shows a small spectrum
    assert prox.keeps_none(0.5e-70 * np.eye(10), 1e-35)
    # at mu^2 in [1e-150, 1e-100] the spectrum (2, 0.5 × 10) mu^2 passes the
    # ||G||_F^2 <= mu^2 tr G test and its sum of fourth powers underflows to
    # zero, yet one singular value is kept, as on the eigh route
    for mu in (1e-50, 1e-75):
        s = mu * np.sqrt(np.r_[2.0, np.full(10, 0.5)])
        X, G = np.diag(s), np.diag(s * s)
        assert np.vdot(G, G) <= mu * mu * G.trace() and np.vdot(G @ G, G @ G) == 0.0
        assert not prox.keeps_none(G, mu)
        out = prox_nuclear(mu, X)
        assert out[0, 0] > 0 and np.array_equal(out, _eigh_route(mu, X))
    assert prox.gram(np.ones((2, 3)))[1] and not prox.gram(np.ones((3, 2)))[1]


@pytest.mark.parametrize("ratio", [6.0, 60.0, 440.0])
@pytest.mark.parametrize("shape", [(40, 40), (30, 12), (12, 30)])
def test_nuclear_spectrum_clustered_at_mu(rng, ratio, shape):
    """Ten singular values within 1e-9 of mu, up to sigma_max / mu just
    under the guard; tolerance ``GRAM_TOL`` relative to sigma_max."""
    mu = 0.7
    k = min(shape)
    for _ in range(5):
        s = mu * rng.uniform(0.2, ratio, k)
        s[0] = mu * ratio
        s[1:11] = mu * (1.0 + rng.uniform(-1e-9, 1e-9, 10))
        assert _gap(mu, _spectrum(rng, shape, s)) <= GRAM_TOL


@pytest.mark.parametrize("shape,rank", [((20, 20), 5), ((25, 8), 3), ((8, 25), 3),
                                        ((10, 10), 1)])
def test_nuclear_rank_deficient(rng, shape, rank):
    """Exact zero singular values; tolerance ``GRAM_TOL`` relative to
    sigma_max."""
    X = _spectrum(rng, shape, rng.uniform(0.1, 20.0, rank))
    assert np.linalg.matrix_rank(X) == rank
    assert _gap(0.5, X) <= GRAM_TOL


@pytest.mark.parametrize("shape", [(7, 7), (9, 4), (4, 9), (1, 6), (6, 1), (1, 1)])
def test_nuclear_wide_tall_and_vector_shapes(rng, shape):
    """Tolerance ``GRAM_TOL`` relative to sigma_max; the shapes take both
    Gram matrices and the 1 x 1 one."""
    for mu in (0.1, 1.0, 3.0):
        X = 2.0 * rng.standard_normal(shape)
        assert prox_nuclear(mu, X).shape == shape
        assert _gap(mu, X) <= GRAM_TOL


@pytest.mark.parametrize("scale", [1e-8, 1e-4, 1.0, 1e4, 1e8])
def test_nuclear_scaled_inputs(rng, scale):
    """Scaling ``X`` and ``mu`` together scales the prox and keeps the Gram
    route; scaling ``X`` alone at fixed ``mu`` crosses the zero shortcut
    and the guard. Tolerance ``GRAM_TOL`` relative to sigma_max."""
    X = rng.standard_normal((12, 9))
    mu = 0.3 * np.linalg.norm(X, 2)
    assert _gap(scale * mu, scale * X) <= GRAM_TOL
    assert _gap(mu, scale * X) <= GRAM_TOL


def test_nuclear_above_guard_is_the_svd_bit_for_bit(rng):
    """Past the guard on sigma_max / mu the prox is the reference exactly;
    so are inputs whose squares overflow the Gram matrix."""
    ratio = 2.0 * prox._GRAM_MAX_RATIO
    for shape in [(40, 40), (15, 6), (6, 15)]:
        s = np.geomspace(ratio, 1e-3, min(shape))
        X = _spectrum(rng, shape, s)
        assert np.array_equal(prox_nuclear(1.0, X), reference_prox_nuclear(1.0, X))
    with np.errstate(over="ignore", invalid="ignore"):
        X = 1e200 * rng.standard_normal((5, 4))
        assert np.array_equal(prox_nuclear(1e199, X), reference_prox_nuclear(1e199, X))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nuclear_nonfinite_input_raises(bad):
    X = np.eye(3)
    X[1, 2] = bad
    with pytest.raises(np.linalg.LinAlgError):
        prox_nuclear(0.5, X)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 10 ** 6),
       st.floats(1e-3, 1e2), st.floats(1e-3, 1e3))
def test_nuclear_matches_reference(m, n, seed, mu, scale):
    """Random shapes up to 8 x 8 and penalties; tolerance ``GRAM_TOL``
    relative to sigma_max."""
    X = scale * np.random.default_rng(seed).standard_normal((m, n))
    assert _gap(mu, X) <= GRAM_TOL


# -- orthant projection ------------------------------------------------------

def test_orthant_values():
    assert np.allclose(prox_indicator_orthant("nonpos", np.array([-1.0, 2.0])),
                       [-1.0, 0.0])
    v = np.array([0.5, 2.0])
    assert np.allclose(prox_indicator_orthant("nonneg", v), v)
    assert np.allclose(prox_indicator_orthant("nonpos", np.zeros(2)), 0.0)
    with pytest.raises(ValueError):
        prox_indicator_orthant("bad", v)


# -- masked ball projection --------------------------------------------------

def test_masked_ball_inside_is_identity():
    X = np.eye(2)
    assert np.allclose(prox_frobenius_ball_masked(5.0, np.ones((2, 2)), X), X)


def test_masked_ball_radial_scaling():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((3, 3))
    X *= 10.0 / np.linalg.norm(X)
    out = prox_frobenius_ball_masked(5.0, np.ones((3, 3)), X)
    assert np.allclose(out, X / 2.0)


def test_masked_ball_degenerate_mask():
    X = np.array([[0.0, 7.0], [0.0, 0.0]])
    mask = np.array([[1.0, 0.0], [0.0, 0.0]])   # masked part of X vanishes
    assert np.allclose(prox_frobenius_ball_masked(0.1, mask, X), X)


def test_masked_ball_off_mask_passthrough():
    X = np.array([[3.0, 100.0], [0.0, 0.0]])
    mask = np.array([[1.0, 0.0], [0.0, 0.0]])
    out = prox_frobenius_ball_masked(1.0, mask, X)
    assert out[0, 1] == pytest.approx(100.0)
    assert out[0, 0] == pytest.approx(1.0)


# -- Moreau envelope ---------------------------------------------------------

def test_moreau_value_abs():
    assert moreau_value(prox.l1(1.0), 1.0, np.array([2.0])) == pytest.approx(1.5)


def test_moreau_value_zero_function():
    assert moreau_value(prox.zero(), 2.0, np.array([3.0, -1.0])) == pytest.approx(0.0)


def test_moreau_value_feasible_indicator():
    g = prox.indicator_orthant("nonneg")
    assert moreau_value(g, 1.0, np.array([1.0, 2.0])) == pytest.approx(0.0)


def test_moreau_grad_abs():
    assert moreau_grad(prox.l1(1.0), 1.0, np.array([2.0])) == pytest.approx(1.0)


def test_moreau_grad_dead_zone():
    g = prox.l1(1.0)
    v = np.array([0.4])
    assert moreau_grad(g, 1.0, v) == pytest.approx(v / 1.0)


def test_moreau_grad_zero_function():
    assert np.allclose(moreau_grad(prox.zero(), 1.5, np.array([2.0, 3.0])), 0.0)


def test_moreau_rejects_nonpositive_mu():
    # a NaN mu once passed the check: moreau_grad returned NaNs, moreau_value
    # blamed the prox, and an infinite mu gave the value 0
    for mu in (0.0, -1.0, np.nan, np.inf):
        for moreau in (moreau_value, moreau_grad):
            with pytest.raises(ValueError, match="^mu must be finite and positive"):
                moreau(prox.l1(1.0), mu, np.array([1.0]))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 6), st.floats(0.1, 3.0))
def test_moreau_grad_is_lipschitz(seed, mu):
    rng = np.random.default_rng(seed)
    g = prox.l1(0.8)
    u, v = rng.standard_normal(5), rng.standard_normal(5)
    lhs = np.linalg.norm(moreau_grad(g, mu, u) - moreau_grad(g, mu, v))
    assert lhs <= np.linalg.norm(u - v) / mu * (1 + 1e-10)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6), st.floats(0.1, 3.0))
def test_firm_nonexpansiveness_all_kinds(seed, mu):
    rng = np.random.default_rng(seed)
    part = GroupPartition([np.arange(3), np.arange(3, 6)], [0.7, 1.2], eta=0.3)
    kinds = [
        (prox.l1(0.9), (6,)),
        (prox.group_lasso(part), (6,)),
        (prox.nuclear(1.1), (3, 4)),
        (prox.indicator_orthant("nonpos"), (5,)),
        (prox.frobenius_ball_masked(1.5, (rng.random((3, 3)) < 0.7).astype(float)), (3, 3)),
        (prox.zero(), (4,)),
    ]
    for g, shape in kinds:
        u = 3.0 * rng.standard_normal(shape)
        v = 3.0 * rng.standard_normal(shape)
        pu, pv = g.prox(mu, u), g.prox(mu, v)
        lhs = float(np.sum((pu - pv) ** 2))
        rhs = float(np.sum((u - v) * (pu - pv)))
        assert lhs <= rhs + 1e-10 * (1 + abs(rhs))

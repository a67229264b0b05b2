"""Special functions used by the closed-form capacity expressions.

Where scipy.special computes the exact quantity, this module calls it and
adds only the domain check the callers rely on:

  * the Gaussian Q-function and its inverse, Qinv(p) = -ndtri(p)
  * the exponential integral Ei on the negative axis (scipy's expi)
  * the Beta function (scipy's beta: within 2.3 eps of the exact value at
    every integer pair of a pool of up to 40 users)

expint_ladders builds and seeds the float I_s(eta) = e^eta E_s(eta)
ladders of both users' closed forms, every seed of a call by one
tricomi_u call; power_moments gives the strong split's head, the power
moments of (1 + c x)^-m on [0, x0].

tricomi_u gives U(1, b, z) = e^z E_s(z), s = 2 - b, in float64 for arrays
of b and z that broadcast.  It picks each element's route from its (s, z)
alone: scipy's expn at integer 0 <= s <= 50 below z = 32; from z = 0.5 up
and at s >= 20 the continued fraction of E_s, one array pass for all such
elements.  It refuses the rest, s < 0 and non-integer s < 20 below
z = 0.5, which no closed form seeds at: the weak ladders seed at integer
orders, the strong split's tail at s >= 0 from z = d + x0 > 0.5 up.
Over the tests' seed box expn is within 4.6 units of 2^-52 relative and
the fraction within 1.3.

Every function here is pure and thread-safe.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

_SQRT2 = math.sqrt(2.0)
_EPS = 2.0 ** -52
# tricomi_u's routes: scipy's expn at integer orders up to _EXPN_ORDER
# (its asymptotic branch above is up to 17 ulps off) below eta = _EXPN_ETA;
# the continued fraction from eta = _CF_ETA up and at s >= _CF_ORDER (below
# s = 20 Steed's method needs at most 190 steps from eta = 0.5 up, but 232
# at eta = 0.4 and 822 at 0.1)
_EXPN_ORDER, _EXPN_ETA, _CF_ORDER, _CF_ETA = 50.0, 32.0, 20.0, 0.5
# power_moments' hyp2f1 limit in Y; scipy's error allowed, 4x its worst
_HYP2F1_Y, _BETAINC_REL, _HYP2F1_REL = 10.0, 1e-13, 1e-13


class ConvergenceError(RuntimeError):
    """An adaptive scheme failed to reach its tolerance."""


class InsufficientDataError(ValueError):
    """Not enough qualifying data points for a statistical fit."""


# ---------------------------------------------------------------------------
# Gaussian Q-function
# ---------------------------------------------------------------------------

def gaussian_q(x: float) -> float:
    """Upper-tail probability Q(x) of the standard normal distribution."""
    return 0.5 * math.erfc(x / _SQRT2)


def gaussian_q_inv(p: float) -> float:
    """Inverse Gaussian Q-function: the x with Q(x) = p, for p in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"gaussian_q_inv requires 0 < p < 1, got {p}")
    return -float(special.ndtri(p))


# ---------------------------------------------------------------------------
# Exponential integral
# ---------------------------------------------------------------------------

def exp_integral_ei(x: float) -> float:
    """Exponential integral Ei(x) for strictly negative arguments.

    Below x ~ -700 the value underflows to zero; that is returned silently
    since |Ei| < 1e-306 there.
    """
    if x >= 0.0:
        raise ValueError(f"exp_integral_ei requires x < 0, got {x}")
    return float(special.expi(x))


def tricomi_u(a: float, b, z):
    """Tricomi's U(1, b, z) = e^z E_s(z), s = 2 - b, for z > 0 and real b,
    in float64: a float for a float b and z, else an array of the shape
    they broadcast to.  Only a = 1 is implemented, the case every capacity
    moment reduces to.  Each element takes the route of its own (s, z)
    (module docstring), so it equals its one-element call; an element that
    has no route is refused, naming its s and z.
    """
    if a != 1.0:
        raise ValueError(f"tricomi_u requires a = 1, got a={a}")
    s, etas = np.broadcast_arrays(2.0 - np.asarray(b, dtype=float),
                                  np.asarray(z, dtype=float))
    if not np.all(np.isfinite(s)):
        raise ValueError(f"tricomi_u requires a finite b, got b={b}")
    if not np.all((etas > 0.0) & (etas < math.inf)):
        raise ValueError(f"tricomi_u requires finite z > 0, got z={z}")
    expn = (s == np.floor(s)) & (s >= 0.0) & (s <= _EXPN_ORDER) & (
        etas < _EXPN_ETA)
    cf = ~expn & (s >= 0.0) & ((etas >= _CF_ETA) | (s >= _CF_ORDER))
    if (rest := ~(expn | cf)).any():
        raise ValueError(
            f"tricomi_u requires s = 2 - b >= 0, and z >= {_CF_ETA} at a "
            f"non-integer s < {_CF_ORDER}, got s={s[rest][0]}, "
            f"z={etas[rest][0]}")
    values = np.empty(s.shape)
    # math.exp, not np.exp: they differ in the last bit on some etas
    values[expn] = special.expn(s[expn].astype(int), etas[expn]) * [
        math.exp(eta) for eta in etas[expn].tolist()]
    values[cf] = _fraction(s[cf], etas[cf], _EPS / 16)
    return float(values) if values.ndim == 0 else values


@np.errstate(all="ignore")
def _fraction(s, eta, tol):
    """The continued fraction of e^eta E_s(eta), as
    1 / (b_0 + a_1 / (b_1 + a_2 / ...)) with b_i = eta + s + 2i and
    a_i = -i (s - 1 + i), for arrays of float s >= 0 and eta.

    Steed's method sums the convergents' steps until one is below tol
    relative to the sum, which sets each element's depth; the value is the
    fraction at that depth evaluated from the bottom up, within about an
    ulp, where the running sum drifts by up to 7.  The elements step
    together but each stops at its own depth, so each equals its
    one-element call.
    """
    c, s1 = eta + s, s - 1.0
    b = c + 2.0
    d = 1.0 / b
    step = -s * d
    total = c + step        # the convergents of 1 / I stay positive
    depths, live = np.ones(c.shape, dtype=int), np.ones(c.shape, dtype=bool)
    depth = 1
    while (live := live & ~(np.abs(step) <= tol * total)).any():
        depth += 1
        if depth > 10_000:
            i = np.argmax(live)
            raise ConvergenceError(f"E_s fraction unconverged at s={s[i]}, "
                                   f"eta={eta[i]}")
        depths += live
        b += 2.0
        d = 1.0 / (b - depth * (s1 + depth) * d)
        step *= b * d - 1.0
        total += step
    h = c + 2 * depths
    for i in range(depth, 0, -1):
        h = np.where(i <= depths, c + 2 * (i - 1) - i * (s1 + i) / h, h)
    return 1.0 / h


def expint_ladders(etas, s_max: int, s0=0.0) -> np.ndarray:
    """I_{s0+k} = int_0^inf e^{-eta v} (1+v)^{-(s0+k)} dv for k = 0 .. s_max,
    one float ladder (a row) per eta of a sequence, at one s0 or one per eta.

    The three-term recurrence I_{s+1} = (1 - eta I_s)/s holds for real s and
    is stable upward for s > eta and downward below, so each ladder is
    seeded at s0 + k0 with k0 ~ ceil(eta - s0) + 1 and run in the stable
    direction on each side.  One tricomi_u call makes every seed.  A call
    with more ladders than rungs runs the recurrence in numpy columns
    across its ladders, else ladder by ladder in Python floats; both make
    each rung by the same float operations.
    """
    etas, s0 = np.broadcast_arrays(np.asarray(etas, dtype=float), s0)
    k0 = np.clip(np.ceil(etas - s0) + 1.0, 0, s_max).astype(int)
    run = _ladder_columns if etas.size > s_max + 1 else _ladder_rows
    return run(etas, s0, k0, tricomi_u(1.0, 2.0 - (s0 + k0), etas), s_max)


def _ladder_rows(etas, s0, k0, seeds, s_max):
    """expint_ladders' recurrence, ladder by ladder in Python floats."""
    ladders = []
    for eta, s, k0, seed in zip(*(x.tolist() for x in (etas, s0, k0, seeds))):
        rungs = [seed]
        for k in range(k0 - 1, -1, -1):
            rungs.append((1 - (s + k) * rungs[-1]) / eta)
        rungs.reverse()
        for k in range(k0, s_max):
            rungs.append((1 - eta * rungs[-1]) / (s + k))
        ladders.append(rungs)
    return np.array(ladders)


@np.errstate(divide="ignore", invalid="ignore")
def _ladder_columns(etas, s0, k0, seeds, s_max):
    """expint_ladders' recurrence, one rung of every ladder per numpy step;
    the rungs a ladder would make in its other direction, which may divide
    by s0 + k = 0, are dropped."""
    rungs = np.zeros((s_max + 1, etas.size))
    rungs[k0, np.arange(etas.size)] = seeds
    for k in range(k0.max() - 1, -1, -1):
        rungs[k] = np.where(k < k0, (1 - (s0 + k) * rungs[k + 1]) / etas,
                            rungs[k])
    for k in range(k0.min(), s_max):
        rungs[k + 1] = np.where(k >= k0, (1 - etas * rungs[k]) / (s0 + k),
                                rungs[k + 1])
    return rungs.T


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def power_moments(m0, rows: int, k_max: int, c: float, x0: float):
    """ln P and a bound on P's relative error, P[j, k] = int_0^x0 x^k
    (1 + c x)^-m dx = c^-(k+1) B_t0(k+1, b), m = m0 + 2j > 0, b = m - k - 1,
    t0 = c x0 / Y, Y = 1 + c x0, j < rows, k <= k_max <= 50.  Where b > 0,
    c^-(k+1) B(k+1, b) betainc(k+1, b, t0), ln B by the ratios k / b from
    B(1, m - 1); else x0^(k+1) Y^-m 2F1(m, 1; k+2; t0) / (k+1) (DLMF 8.17.8)
    by hyp2f1 below Y = _HYP2F1_Y, and above, where it is up to 1.2e-11 off
    at an integer m, by S(k) = (Y - k S(k-1)) / (-b (Y - 1)) (by parts) from
    betainc's last cell, the closed form at k = 0 or at b = 0 t0^-m (ln Y -
    sum_{i<m} t0^i / i).  The bound adds all rounding and scipy's error.
    An array m0 adds a leading axis, one slice per m0, each equal to its
    float call: cells with b > 0 never read the b <= 0 branch taken."""
    y, ln_y = 1.0 + c * x0, math.log1p(c * x0)
    t0, ln_c = c * x0 / y, math.log(c)
    m = np.asarray(m0)[..., None, None] + 2.0 * np.arange(rows)[:, None]
    k = np.arange(k_max + 1.0)
    pos = (b := m - k - 1.0) > 0.0
    steps = np.log(np.where(pos, np.concatenate(
        [1.0 / (m - 1.0), k[1:] / b[..., 1:]], axis=-1), 1.0))
    ln_i = np.zeros(b.shape)        # read on the b > 0 cells only
    ln_i[pos] = np.log(special.betainc(np.broadcast_to(k + 1.0, b.shape)[pos],
                                       b[pos], t0))
    logs = np.cumsum(steps, axis=-1) + ln_i - (k + 1.0) * ln_c
    sens = np.exp(np.minimum((k + 1.0) * (math.log(t0) - ln_c) - logs
                             - (b - 1.0) * ln_y, 700.0))    # t0 f(t0) / I
    errs = _BETAINC_REL + _EPS * (4.0 * (sens + np.abs(ln_i) + (k + 1.0) * abs(
        ln_c) + 4.0) + np.cumsum(np.abs(steps) + 2.0, axis=-1))
    shift = m * ln_y - (k + 1.0) * math.log(x0)     # ln(Y^m / x0^(k+1))
    if y < _HYP2F1_Y or pos.all():
        mm, kk = (x[~pos] for x in np.broadcast_arrays(m, k))
        s, e_s = np.ones(b.shape), _HYP2F1_REL + 4.0 * _EPS * y
        s[~pos] = special.hyp2f1(mm, 1.0, kk + 2.0, t0) / (kk + 1.0)
    else:
        part = np.concatenate(([0.0], np.cumsum(t0 ** k[1:] / k[1:])))
        part = part[np.clip(m - 1.0, 0, k_max).astype(int)]
        given = pos | (b == 0.0) | (k == 0.0)
        alpha = np.where(pos, np.exp(logs + shift), np.where(
            b == 0.0, t0 ** -m * (ln_y - part),
            y * np.expm1((m - 1.0) * ln_y) / ((y - 1.0) * (m - 1.0))))
        e_a = np.where(pos, errs + 2.0 * _EPS * (np.abs(logs) + np.abs(
            shift)), 4.0 * _EPS * np.where(b == 0.0, (m + 2.0) * (
                ln_y + part) / (ln_y - part), 1.0 + np.abs((m - 1.0) * ln_y)))
        # S(k) = alpha_k + beta_k S(k-1) from each row's last given cell
        alpha = np.where(given, alpha, y / (-b * (y - 1.0))) * ~(
            given & np.roll(given, -1, axis=-1) & (k < k_max))
        scale = np.cumprod(np.where(given, 1.0, k / (b * (y - 1.0))), axis=-1)
        s = scale * np.cumsum(alpha / scale, axis=-1)
        e_s = np.abs(scale / s) * np.cumsum(np.abs(alpha / scale) * (
            np.where(given, e_a, 0.0) + (6 * k_max + 8) * _EPS), axis=-1)
    logs = np.where(pos, logs, np.log(s) - shift)
    return logs, np.where(pos, errs, e_s + 2.0 * _EPS * (
        np.abs(logs) + np.abs(shift)))


# ---------------------------------------------------------------------------
# Beta function
# ---------------------------------------------------------------------------

def beta_fn(a: float, b: float) -> float:
    """Beta function B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b) for a, b > 0."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"beta_fn requires positive arguments, got ({a}, {b})")
    return float(special.beta(a, b))

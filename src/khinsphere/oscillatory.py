"""Asymptotic tail integration for oscillatory Bessel-type integrands.

The integrals here all have the shape  int_T^inf  A(t) t^mu e^(i omega t) dt
with A a truncated power series in 1/t coming from the large-argument
(Hankel) expansion of J_nu, J_nu(t) ~ sqrt(2/(pi t)) Re[W(t) e^(i chi)] with
W = P + iQ = sum_m i^m a_m(nu) t^(-m) (DLMF 10.17), integrated term by term.  The
power integrals E(mu, omega, T) = int_T^inf t^mu e^(i omega t) dt are closed-form
power tails at omega = 0, the integration-by-parts (IBP) expansion where
|omega| T >= 40, and Gauss panels up to |omega| t = 40 in between.  Two consumers:

* ``tail_abs_pow``:  int_T^inf |jj_1(t)|^s t^(p-1) dt, in v = t + phi(t) with
  W = M e^(i phi): a smooth amplitude v^mu sum_j e_j v^(-j), one fixed table for
  every mode, times |cos(v - 3pi/4)|^s = c_0 + sum_m c_m cos(2 m theta).  The
  c_0 part, the slow one that defeats truncation for p near 3s/2, is closed;
  the rest takes one integration by parts over every mode at once.
* ``tail_product``:  int_T^inf prod_k jj_nu(a_k t) t^(p-1) dt, via the
  sign-vector expansion of a product of cosines; resonant sign patterns
  (sum of +-a_k near zero) produce the slowly decaying non-oscillatory part.
  The 2^(n-1) pattern series are built together by doubling, which costs
  n - 1 steps of two Toeplitz-matrix products, and all their power
  integrals come from one array pass (``_exp_tails``): one block of IBP
  terms for every pattern with |omega| T >= 40 and one panel grid for every
  near-resonant pattern.  It stops each IBP series relative to its first term.

Series are represented as float/complex arrays c with c[j] the coefficient
of t^(-j), truncated at ORDER (2 ORDER in 1/v for the amplitude table);
further axes, where present, index a batch of series.
"""
from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .specfun import _jj_norm_const, gamma

ORDER = 8  # highest power of 1/t kept in the asymptotic series
_TAIL_S_MAX = 141.0  # largest s the |jj_1|^s tail kernel (abs_cos_fourier, tail_abs_pow) supports

_IBP_MIN_PHASE = 40.0  # use integration by parts when |omega| T exceeds this
_IBP_REL = 1e-18  # an IBP series stops at a term below this fraction of its first
_IBP_CAP = 200  # terms at most in one IBP series
_IBP_K = np.arange(_IBP_CAP, dtype=float)
_K = np.arange(ORDER + 1.0)[:, None]  # tail_abs_pow's amplitude index k, as a column
_2K_1, _TWO_M = 2.0 * _K - 1.0, np.arange(4.0, 162.0, 2.0)[:, None]  # 2k - 1; 2m, m = 2..80
_REACH = 1e-14  # a tail_abs_pow lane whose terms turn above this fraction of its c_0 part raises
_RESONANT = 1e-13  # a pattern frequency below this counts as 0
_PANEL_BLOCK = 4096  # panels per block of _panel_quad
_BLOCK_BYTES = 1 << 17  # per-p temporaries: glibc's default mmap threshold, so RSS stays put


# ----------------------------------------------------------------------------
# truncated power-series helpers (index = power of the series variable: 1/t
# for the tails here, t^2 for the small-t heads in quad)
# ----------------------------------------------------------------------------

def series_mul(a: np.ndarray, b: np.ndarray, order: int = ORDER) -> np.ndarray:
    """Truncated product of the series a and b; either may carry trailing batch axes.

    The batch axes trail so that a[i] is a scalar for one series and a
    contiguous row for a batch, which keeps both cases fast.  The batch axes
    of a and b broadcast against each other.
    """
    batch = np.broadcast_shapes(a.shape[1:], b.shape[1:])
    out = np.zeros((order + 1,) + batch, dtype=np.result_type(a, b))
    b = b.reshape(b.shape[:1] + (1,) * (len(batch) - b.ndim + 1) + b.shape[1:])
    for i in range(min(len(a), order + 1)):
        hi = min(len(b), order + 1 - i)
        out[i:i + hi] += a[i] * b[:hi]
    return out


# ----------------------------------------------------------------------------
# Hankel expansion of J_nu:
#   J_nu(t) ~ sqrt(2/(pi t)) Re[W(t) e^(i chi)],  chi = t - nu pi/2 - pi/4,
#   W = P + iQ ~ sum_m i^m a_m(nu) t^(-m),
#   a_m(nu) = prod_{j=1..m} (4 nu^2 - (2j-1)^2) / (m! 8^m).
# ----------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _hankel_w(nu: float) -> tuple[np.ndarray, complex]:
    """(W, C): W_m = i^m a_m(nu), m = 0..ORDER, its vanishing parts +0.0, and the
    constant C with jj_nu(x) ~ Re[C W(x) x^(-nu-1/2) e^(ix)]."""
    a = [1.0]
    for m in range(1, ORDER + 1):
        a.append(a[-1] * (4.0 * nu * nu - (2 * m - 1) ** 2) / (8.0 * m))
    w = np.asarray(a) * np.array([1, 1j, -1, -1j])[np.arange(ORDER + 1) % 4] + 0.0  # -0.0 -> +0.0
    norm = _jj_norm_const(nu) * math.sqrt(2.0 / math.pi)
    return w, norm * cmath.exp(-1j * (nu * math.pi / 2.0 + math.pi / 4.0))


# ----------------------------------------------------------------------------
# E(mu, omega, T) = int_T^inf t^mu e^(i omega t) dt  (mu < -1 for omega = 0)
# ----------------------------------------------------------------------------

def power_tail(mu, T: float):
    """E(mu, 0, T) = -T^(mu+1)/(mu+1) for a scalar or an array of mu < -1, and T > 0."""
    if not (np.all(np.asarray(mu) < -1.0) and T > 0.0):  # NaN too
        raise DomainError(f"power tail needs mu < -1 and T > 0, got mu={mu}, T={T}")
    return -(T ** (mu + 1.0)) / (mu + 1.0)


@lru_cache(maxsize=8)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def _panel_rule(edges: np.ndarray, order: int = 16) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on the panels [edges[i], edges[i+1]], one row a panel,
    with the weights (one row) and the panel half-widths (one column)."""
    x, w = _leggauss(order)
    a, b = edges[:-1], edges[1:]
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    return mid + half * x[None, :], w[None, :], half


def _panel_quad(f, edges: np.ndarray, block: int = _PANEL_BLOCK):
    """24-point Gauss-Legendre sum of f over the panels [edges[i], edges[i+1]].

    The panels are evaluated in blocks of at most ``block``, so memory stays
    bounded however many there are, and the block sums are added up.
    Returns an unreduced numpy sum, so f may be real or complex valued.
    """
    n = len(edges) - 1
    if n > block:
        return sum(_panel_quad(f, edges[lo:lo + block + 1], block)
                   for lo in range(0, n, block))
    nodes, w, half = _panel_rule(edges, 24)
    vals = f(nodes.ravel()).reshape(nodes.shape)
    return np.sum(vals * w * half)


def _ibp_series(mu, x) -> np.ndarray:
    """sum_k i^(k+1) c_k, c_0 = 1, c_(k+1) = c_k (mu-k)/x, for mu < 0 and |x| >= 40
    broadcast together: the IBP expansion E(mu, omega, T) = e^(ix) T^mu/omega sum_k ...
    at x = omega T.

    A lane stops after the term k where the series turns (|mu-k| > |x|, k >= 1)
    or where c_(k+1) falls below _IBP_REL of its first term, so tiny integrals
    keep their digits; |c_k| decreases up to the turn.  All lanes run as one
    cumulative-product block.  The slowest lane, of largest |mu| and smallest
    |x|, bounds every lane's |c_k|, so the block ends where its |c_k| falls
    below _IBP_REL; where that never happens, at 50 + 1.5 max|mu| terms (at
    most _IBP_CAP), in which every lane with |x| >= 40 and 0 < -mu <= 160 was
    measured to stop.

    Each lane's real and imaginary parts are summed in the order k = 0, 1, ...,
    outside BLAS, and a stopped lane's later terms are exact zeros: so a lane's
    value is the same bits whichever lanes share its block, and however deep
    the block runs.
    """
    shape = np.broadcast_shapes(np.shape(mu), np.shape(x))
    mu_slow = np.min(mu)
    slow = np.abs(np.cumprod((mu_slow - _IBP_K[:-1]) / np.min(np.abs(x))))  # |c_1|, |c_2|, ...
    below = np.flatnonzero(slow < _IBP_REL)
    size = int(below[0]) + 1 if len(below) else min(_IBP_CAP, math.ceil(50.0 - 1.5 * mu_slow))
    k = _IBP_K[:size].reshape((size,) + (1,) * len(shape))
    c = np.empty((size,) + shape)
    c[0] = 1.0
    np.cumprod((mu - k[:-1]) / x, axis=0, out=c[1:])
    turn = np.maximum(np.floor(np.abs(x) + mu) + 1.0, 1.0)  # the first k >= 1 with k - mu > |x|
    c *= (k <= turn) & (np.abs(c) >= _IBP_REL)
    c[1::4] *= -1.0  # i^(k+1) = i, -1, -i, 1 for k = 0, 1, 2, 3 (mod 4)
    c[2::4] *= -1.0
    return _sum_in_order(c[1::2], shape) + 1j * _sum_in_order(c[0::2], shape)


def _sum_in_order(rows: np.ndarray, shape: tuple) -> np.ndarray:
    """rows[0] + rows[1] + ..., added one row at a time in every lane of the given shape."""
    if not len(rows):
        return np.zeros(shape)
    total = rows[0].copy()
    for row in rows[1:]:
        total += row
    return total


def _near_resonant(mu0: float, w: np.ndarray, T: float, beyond: complex) -> np.ndarray:
    """E(mu0 - j, w_k, T) for j = 0..ORDER (rows) and every 0 < w_k < 40/T (columns).

    In u = w t, E(mu0, w, T) = T^mu0/w J(U), U = w T, J(U) = int_U^inf (u/U)^mu0 e^(iu) du.
    One grid of 24-point panels on [min U, 40], growing as u -> min(1.3 u, u + pi/2, 40),
    serves every lane: a lane adds its own first panel [U, next edge], the later panels
    and ``beyond`` = int_40^inf (u/40)^mu0 e^(iu) du, each piece in units of its left
    end's u^mu0 and rescaled to U^mu0 by a factor <= 1.  The downward recurrence
    E(mu-1) = (-T^mu e^(iwT) - iw E(mu)) / mu, stable for w < |mu|, gives the rest.
    """
    U = w * T
    u0, top = float(U.min()), math.pi / 0.6  # 1.3 u <= u + pi/2 up to u = top
    geo = u0 * 1.3 ** np.arange(math.floor(math.log(top / u0, 1.3)) + 2 if u0 <= top else 1)
    steps = np.arange(1.0, math.ceil((_IBP_MIN_PHASE - geo[-1]) / (math.pi / 2.0)))
    edges = np.concatenate([geo, geo[-1] + steps * (math.pi / 2.0), [_IBP_MIN_PHASE]])
    cell = np.searchsorted(edges, U, side="right") - 1  # edges[cell] <= U < edges[cell + 1]
    left = np.concatenate([edges[:-1], U])  # the grid panels, then each lane's first
    half = 0.5 * (np.concatenate([edges[1:], edges[cell + 1]]) - left)
    x, gw = _leggauss(24)
    nodes = (left + half)[:, None] + half[:, None] * x
    pieces = ((nodes / left[:, None]) ** mu0 * np.exp(1j * nodes)) @ gw * half
    grid = np.append(pieces[:len(edges) - 1], beyond)  # grid[i] in units of edges[i]^mu0
    later = np.arange(len(edges)) > cell[:, None]
    rest = np.where(later, edges / U[:, None], np.inf) ** mu0 @ grid  # inf^mu0 = 0
    e0 = T**mu0 / w * (pieces[len(edges) - 1:] + rest)
    # E_j = a_j E_(j-1) + b_j, j = 1..ORDER, as E_j = A_j (E_0 + sum_(i<=j) b_i/A_i), A_j = a_1..a_j
    m = mu0 - np.arange(ORDER)[:, None]
    a = np.cumprod(-1j * w / m, axis=0)
    b = -(T**m) * np.exp(1j * U) / m
    return np.concatenate([e0[None], a * (e0 + np.cumsum(b / a, axis=0))])


def _exp_tails(mu0: float, omega: np.ndarray, T: float) -> np.ndarray:
    """E(mu0 - j, omega_k, T) for j = 0..ORDER (rows) and every omega_k (columns).

    By x = |omega| T: x >= 40 takes the IBP expansion, |omega| below 1e-13 the
    power tail (which needs mu0 < -1), and 0 < x < 40 ``_near_resonant``.
    One ``_ibp_series`` call serves every IBP lane, (mu0 - j, omega T) for
    each j and IBP pattern, and _near_resonant's int_40^inf.
    """
    w = np.abs(omega)
    mu = mu0 - np.arange(ORDER + 1.0)[:, None]
    out = np.empty((ORDER + 1, len(w)), dtype=complex)
    ibp = w * T >= _IBP_MIN_PHASE
    near = ~ibp & (w >= _RESONANT)
    if not (ibp | near).all():
        out[:, ~(ibp | near)] = power_tail(mu, T)
    oi = omega[ibp]
    series = _ibp_series(mu, np.append(oi * T, _IBP_MIN_PHASE))
    out[:, ibp] = np.exp(1j * oi * T) * T**mu / oi * series[:, :-1]
    if near.any():
        e = _near_resonant(mu0, w[near], T, cmath.exp(1j * _IBP_MIN_PHASE) * series[0, -1])
        out[:, near] = np.where(omega[near] < 0.0, e.conj(), e)
    return out


def exp_power_tail(mu: float, omega: float, T: float) -> complex:
    """int_T^inf t^mu e^(i omega t) dt for mu < 0, and mu < -1 when omega ~ 0: the
    one-lane case of the kernel behind ``tail_product``, for finite mu, finite omega and
    finite T > 0.  Any other input, NaN or -inf too, raises DomainError."""
    if not (-math.inf < mu < 0.0 and math.isfinite(omega) and 0.0 < T < math.inf):
        raise DomainError(f"exp_power_tail needs finite mu < 0, finite omega, 0 < T < inf: "
                          f"{mu}, {omega}, {T}")
    if abs(omega) < _RESONANT:
        return complex(power_tail(mu, T))
    if omega < 0:
        return exp_power_tail(mu, -omega, T).conjugate()
    return complex(_exp_tails(mu, np.array([omega]), T)[0, 0])


# ----------------------------------------------------------------------------
# Fourier coefficients of |cos(theta)|^s = sum_m c_m(s) cos(2 m theta)
# ----------------------------------------------------------------------------

def abs_cos_fourier(s: float, m_max: int) -> np.ndarray:
    """c_0 .. c_m_max, c_m = Gamma(s+1) / (2^(s-1) Gamma(1+s/2+m) Gamma(1+s/2-m)) for m >= 1.

    c_0 is the closed form; the rest come from the ratio recurrence
    c_m = c_(m-1) (s/2-m+1)/(s/2+m), with the factor doubled at m = 1.  For
    even s the factor vanishes at m = s/2+1, so every later c_m is exactly 0.
    Supported for s <= _TAIL_S_MAX (141); above, DomainError.
    """
    if s > _TAIL_S_MAX:
        raise DomainError(f"the |jj_1|^s tail kernel supports s <= {_TAIL_S_MAX:g}, got s={s}")
    h = s / 2.0
    m = np.arange(1, m_max + 1)
    ratio = (h - m + 1.0) / (h + m)
    ratio[:1] *= 2.0
    c0 = gamma(s + 1.0) / (2.0**s * gamma(h + 1.0) ** 2)
    return np.concatenate([[c0], ratio]).cumprod()


# ----------------------------------------------------------------------------
# tails
# ----------------------------------------------------------------------------

def _in_blocks(fn, p: np.ndarray, per_p: int) -> np.ndarray:
    """fn over blocks of p whose len x per_p float temporaries stay within _BLOCK_BYTES, joined."""
    step = max(1, _BLOCK_BYTES // (8 * per_p))
    blocks = [fn(p[lo:lo + step]) for lo in range(0, len(p), step)]
    return np.concatenate(blocks) if blocks else np.empty(0)


def _distinct(s: np.ndarray) -> tuple[list, np.ndarray]:
    """The distinct values of the 1-d array s, sorted, as floats, and the index of each
    element among them (not np.unique, which imports numpy.ma)."""
    values = sorted(set(s.tolist()))
    return values, np.array(values).searchsorted(s)


def _series_log(g: np.ndarray) -> np.ndarray:
    """log of the series g, g[0] = 1, from g f' = g'."""
    f = np.zeros_like(g)
    for n in range(1, len(g)):
        f[n] = g[n] - np.dot(np.arange(1, n) * f[1:n], g[n - 1:0:-1]) / n
    return f


@lru_cache(maxsize=1)
def _amplitude_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(E, a, b): tail_abs_pow's amplitude is v^mu sum_k e_k v^(-2k), k <= ORDER, with
    e_k = sum_i E[k, i] mu^a_i s^b_i / (a_i! b_i!).  In x = 1/t, v = t h(x), h = 1 + x phi;
    as x = h(x)/v, Lagrange-Buermann gives e_k = [x^2k] h^(2k-1-mu) M^s, so E[k, i] =
    [x^2k] h^(2k-1) (-log h)^a_i (log M)^b_i, with W = _hankel_w(1.0) zero past x^ORDER.
    The series are even (kept in x^2) and both logs start at x^2, so a + b <= k."""
    w = np.zeros(2 * ORDER + 1, dtype=complex)
    w[:ORDER + 1] = _hankel_w(1.0)[0]
    log_w = _series_log(w)
    h = np.append(1.0, log_w.imag[1::2])
    neg_log_h, pa, pb = -_series_log(h), [np.eye(1, ORDER + 1)[0]], [np.eye(1, ORDER + 1)[0]]
    for _ in range(ORDER):
        pa.append(np.convolve(pa[-1], neg_log_h)[:ORDER + 1])
        pb.append(np.convolve(pb[-1], log_w.real[0::2])[:ORDER + 1])
    a, b = np.array([(i, j) for i in range(ORDER + 1) for j in range(ORDER + 1 - i)]).T
    prods = series_mul(np.array(pa)[a].T, np.array(pb)[b].T)  # column i: (-log h)^a_i (log M)^b_i
    table, h_pow, h2 = [prods[0]], h, np.convolve(h, h)  # h_pow = h^(2k-1), from k = 1
    for k in range(1, ORDER + 1):
        table.append(h_pow[:k + 1] @ prods[k::-1])
        h_pow = np.convolve(h_pow, h2)[:ORDER + 1]
    return np.array(table), a, b


def tail_abs_pow(p, s, T: float, tol: float = 1e-12):
    """int_T^inf |jj_1(t)|^s t^(p-1) dt via the Hankel expansion of J_1, for scalar
    p and s (a float back) or every (p, s) of arrays that broadcast together (an
    array of their shape back).

    With W = M e^(i phi), jj_1 = sqrt(8/pi) t^(-3/2) M cos(theta), theta = v - 3pi/4,
    v = t + phi(t), and |cos theta|^s = c_0 + sum_m c_m cos(2 m theta); in v the
    amplitude is t^mu M^s dt/dv = b(v) = v^mu sum_j e_j v^(-j), mu = p - 1 - 3s/2.  The
    integral is (8/pi)^(s/2) [c_0 sum_j e_j v_T^(mu-j+1) / (j-1-mu)
    + sum_n (-1)^n b^(n-1)(v_T) G_n(theta_T)], one integration by parts over every mode
    at once, with G_n = sum_(1<=m<=last) c_m cos(2 m theta - n pi/2) / (2m)^n.  A lane's
    last mode is the first m >= 2 whose bound (8/pi)^(s/2) |c_m| T^mu / (2m) is below
    tol/10 (m = 80 at most); its n series stops where a bound of its terms is below
    1e-18 of its c_0 part, or where they turn.  Every sum runs in order in each lane,
    outside BLAS, with exact zeros past the lane's stop, so a lane's bits do not depend
    on its call; F sends all its lanes through one call.  (8/pi)^(s/2) T^mu scales the
    sum as one exp.  Every lane of s in [1, 141] in reach is within 1e-14 of a per-mode
    reference carried to 2 ORDER in 1/t (tests/test_oscillatory.py).

    Reach: a lane whose n terms turn before they fall below 1e-14 of its c_0 part raises
    DomainError, naming the first such lane; at F's T ~ 47.9 that starts near |mu| = 30,
    as |mu| nears 2 v_T, and F's lanes keep |mu| < 10.  So do T outside 20 <= T < inf,
    NaN, p >= 3s/2 or mu rounding to -1 or above (as at p = s = 1e-300), an infinite p
    or s and s > _TAIL_S_MAX (141); an empty p gives an empty array.
    """
    if not _IBP_MIN_PHASE <= 2.0 * T < math.inf:  # NaN too
        raise DomainError(f"tail_abs_pow needs T >= {_IBP_MIN_PHASE / 2.0:g} and T < inf, "
                          f"got T={T}")
    pa, sa = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(s, dtype=float))
    pf, sf = pa.ravel(), sa.ravel()
    with np.errstate(invalid="ignore"):  # inf - inf, named below
        mu = pf - 1.0 - 1.5 * sf
    if not (pf.size and (np.isfinite(pf) & (sf <= _TAIL_S_MAX) & (pf < 1.5 * sf) & (mu < -1.0)).all()):
        if not (np.isfinite(pa).all() and np.isfinite(s).all()):
            raise DomainError(f"tail_abs_pow needs finite p and s, got p={p!r}, s={s!r}")
        if np.any(np.asarray(s) > _TAIL_S_MAX):  # an empty p too
            raise DomainError(f"the |jj_1|^s tail kernel supports s <= {_TAIL_S_MAX:g}, got s={s!r}")
        diverges = (pf >= 1.5 * sf) | (mu >= -1.0)
        if diverges.any():
            k = np.argmax(diverges)
            raise DomainError(f"tail diverges: p={pa.flat[k]} >= 3s/2={1.5 * sa.flat[k]}, or "
                              f"p - 1 - 3s/2 = {mu[k]} is not below -1 in floats")
    out = np.empty(pa.size)
    if pa.size:
        s_set, at = _distinct(sf)
        prefs = np.array([(8.0 / math.pi) ** (x / 2.0) for x in s_set])
        cms = np.array([abs_cos_fourier(x, 80) for x in s_set]).T  # for even s, 0 past s/2
        v, table = _mode_table(float(T))[:2]
        # (8/pi)^(s/2) T^mu as one exp, then (v/T)^mu
        scale = np.exp(mu * math.log(T) + np.array([math.log(x) for x in prefs])[at])
        scale *= np.exp(mu * math.log1p((v - T) / T))
        lanes = np.argsort(at, kind="stable")  # the lanes of one s together: few s a block
        with np.errstate(over="ignore", invalid="ignore"):  # a lane far out of reach
            out[lanes] = scale[lanes] * _in_blocks(
                lambda k: _tail_lanes(mu[k], sf[k], at[k], cms, prefs, T, tol),
                lanes, (ORDER + 1) * (len(_amplitude_table()[1]) + table.shape[1]) + 6 * table.shape[1])
        if np.isnan(out).any():
            k = np.argmax(np.isnan(out))
            raise DomainError(f"tail_abs_pow(p={pa.flat[k]}, s={sa.flat[k]}) is out of reach: its "
                              f"terms turn at T={T} before they fall below {_REACH:g} of the "
                              f"c_0 part, as p - 1 - 3s/2 = {mu[k]} is too far below -1")
    return float(out[0]) if pa.ndim == 0 else out.reshape(pa.shape)


@lru_cache(maxsize=4)
def _mode_table(T: float) -> tuple:
    """What every lane of tail_abs_pow at T shares: v_T; Re(e^(2 i m theta_T) i^n) / (2m)^n for
    m = 0..80 (rows, 0 at m = 0) and n = 1..2 v_T + 2 (columns, at most _IBP_CAP), where every
    lane's terms have turned; then, for ``_tail_lanes``, the steps 0, 1, ... of q, v_T^(-2k),
    n as a column with 0.5^n and 0.25^n, and the rows 2k + n - 1 of q that term n reads."""
    v = T + cmath.phase(complex(_hankel_w(1.0)[0] @ T ** -np.arange(ORDER + 1.0)))
    n, m = np.arange(1, min(_IBP_CAP, int(2.0 * v) + 2) + 1), np.arange(81)[:, None]
    phases = (np.exp(2j * (v - 0.75 * math.pi) * m) * np.array([1, 1j, -1, -1j])[n % 4]).real
    return (v, phases * np.divide(0.5, m, out=np.zeros(m.shape), where=m > 0) ** n,
            np.arange(len(n) + 2.0 * ORDER - 1.0)[:, None], v ** (-2.0 * _K), n[:, None],
            0.5 ** n[:, None], 0.25 ** n[:, None], 2 * np.arange(ORDER + 1)[:, None] + n - 1)


def _last_modes(mu: np.ndarray, abs_c: np.ndarray, prefs: np.ndarray, T: float,
                tol: float) -> np.ndarray:
    """The last mode of each lane mu = p - 1 - 3s/2, with |c_m| of its s a column of abs_c (rows
    m = 0..80), pref = (8/pi)^(s/2): the first m >= 2 whose bound pref |c_m| T^mu / (2m) is below
    tol/10, else 80.  The bound falls with m, as |c_m| does: so 2 plus the count at or above."""
    return np.minimum(2 + (prefs * abs_c[2:] * T ** mu / _TWO_M >= 0.1 * tol).sum(axis=0), 80)


def _tail_lanes(mu: np.ndarray, s: np.ndarray, at: np.ndarray, cms: np.ndarray,
                prefs: np.ndarray, T: float, tol: float) -> np.ndarray:
    """tail_abs_pow in units of v^mu (8/pi)^(s/2) for a block of lanes mu, s, with their
    column at of cms, the c_m (rows) of each s, and of prefs, its (8/pi)^(s/2); NaN for a
    lane out of reach."""
    v, table, steps, v_pow, n, half_n, quarter_n, rows = _mode_table(T)
    amp, a, b = _amplitude_table()
    c, depth = cms[:, at], table.shape[1]
    abs_c = np.abs(c)
    last = _last_modes(mu, abs_c, prefs[at], T, tol)
    top = int(last.max()) + 1  # the modes that any lane sums
    # q[i] = mu (mu-1) ... (mu-i+1) / v^i, mu^a / a! and s^b / b!, from one cumprod
    x = np.ones((3, len(steps) + 1, len(mu)))
    x[0, 1:] = (mu - steps) / v
    x[1:, 1:ORDER + 1] = np.array((mu, s))[:, None] / _K[1:]
    q, mu_pow, s_pow = np.multiply.accumulate(x, axis=1, out=x)[0], x[1, :ORDER + 1], x[2, :ORDER + 1]
    e = np.add.accumulate(amp[:, :, None] * (mu_pow[a] * s_pow[b]), axis=1)[:, -1]
    e *= v_pow  # e_k v^(-2k)
    c_0 = c[0] * v * np.add.accumulate(e / (_2K_1 - mu), axis=0)[-1]
    # a bound of term n: its k = 0 part q[n-1] times sum_(m<=last) |c_m| (2m)^-n
    rest = np.add.accumulate(abs_c[:top], axis=0)
    rest = rest[last, np.arange(len(mu))] - rest[1]  # sum_(2<=m<=last) |c_m|
    bound = np.abs(q[:depth]) * (abs_c[1] * half_n + rest * quarter_n)
    abs_c_0 = np.abs(c_0)
    stop = bound < _IBP_REL * abs_c_0  # stop[i]: the terms n <= i are summed
    stop[1:] |= bound[1:] > bound[:-1]
    count = np.argmax(stop, axis=0)
    reached = stop.any(axis=0) & ((bound < _REACH * abs_c_0) & (n <= count + 1)).any(axis=0)
    # term n, b^(n-1)(v) / v^mu = sum_k e_k v^(-2k) q[n-1+2k] / q[2k], summed over k in order
    size = max(int(count.max()), 1)
    d = np.add.accumulate((e / q[0:2 * ORDER + 1:2])[:, None] * q[rows[:, :size]], axis=0)[-1]
    # (-1)^n G_n(theta_T): each lane's running sum over m = 1..last of its s, in order
    s_cols, col = _distinct(at)
    sums = np.add.accumulate(cms[:top, s_cols, None] * table[:top, None, :size], axis=0)[last, col].T
    osc = np.add.accumulate(d * sums * (n[:size] <= count), axis=0)[-1]
    return np.where(reached, c_0 + osc, np.nan)


def tail_product(amps, nu: float, p: float, T: float) -> float:
    """int_T^inf prod_k jj_nu(a_k t) t^(p-1) dt via sign-vector expansion.

    Each factor is Re[C_k W_k(t) t^(-nu-1/2) e^(i a_k t)]; the product over k
    expands into 2^(n-1) conjugate-paired terms with frequencies sum(+-a_k).
    The sign patterns are built by doubling: factor 0 enters with sign +, and
    factor k turns the P patterns so far into 2P, the first half multiplied
    by conj(C_k W_k) and the second by C_k W_k.  That is n - 1 steps of two
    products with W_k's Toeplitz matrix, then the power integrals of every
    pattern from one ``_exp_tails`` call.  A NaN or infinite amplitude, nu,
    p or T raises DomainError.
    """
    a = np.asarray(amps, dtype=float)
    if not np.all(np.isfinite(np.append(a, [nu, p, T]))):
        raise DomainError(f"tail_product needs finite inputs, got {amps!r}, {nu}, {p}, {T}")
    n = len(a)
    mu0 = p - 1.0 - n * (nu + 0.5)
    if mu0 >= -1.0:
        raise DomainError("tail_product: integral not absolutely convergent")
    w0, c0 = _hankel_w(float(nu))
    consts = c0 * a ** (-(nu + 0.5))
    j = np.arange(ORDER + 1)
    ws = w0[:, None] * a ** -j[:, None]  # column k: factor k's W(a_k t)
    # multiplying a series by W(a_k t) is a product with its lower-triangular Toeplitz matrix
    toe = np.where((j[:, None] >= j)[..., None], ws[j[:, None] - j], 0.0)

    amp, ser, omega = consts[:1], ws[:, :1], a[:1]
    for k in range(1, n):
        amp = np.concatenate([amp * consts[k].conjugate(), amp * consts[k]])
        ser = np.concatenate([toe[:, :, k].conj() @ ser, toe[:, :, k] @ ser], axis=1)
        omega = np.concatenate([omega - a[k], omega + a[k]])

    per_pattern = (ser * _exp_tails(mu0, omega, T)).sum(axis=0)
    return float((per_pattern @ amp).real * 2.0 ** (1 - n))

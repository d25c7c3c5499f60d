"""Asymptotic tail integration for oscillatory Bessel-type integrands.

The integrals here all have the shape  int_T^inf  A(t) t^mu e^(i omega t) dt
with A a truncated power series in 1/t coming from the large-argument
(Hankel) expansion of J_nu, J_nu(t) ~ sqrt(2/(pi t)) Re[W(t) e^(i chi)] with
W = P + iQ = sum_m i^m a_m(nu) t^(-m) (DLMF 10.17), integrated term by term.  The
power integrals E(mu, omega, T) = int_T^inf t^mu e^(i omega t) dt are closed-form
power tails at omega = 0, the integration-by-parts (IBP) expansion where
|omega| T >= 40, and Gauss panels up to |omega| t = 40 in between.  Two consumers:

* ``tail_abs_pow``:  int_T^inf |jj_1(t)|^s t^(p-1) dt, via the Fourier
  expansion of |cos theta|^s; writing W = M e^(i phi), the m-th term carries
  M^s e^(2 i m phi) = W^(s/2+m) conj(W)^(s/2-m).  The m = 0 term is the slow
  non-oscillatory part: it is why truncating at any feasible T and bounding
  the remainder fails when p is close to 3s/2.  Every (p, s) lane of one
  call is summed at once, over the modes its p needs, built per call with no
  cache, as array operations over modes x powers of 1/t x lanes: closed-form
  power tails for m = 0 and, since omega T = 2 m T >= 40, the IBP expansion
  for the others.  F sends all its lanes, of every s, through one call.
* ``tail_product``:  int_T^inf prod_k jj_nu(a_k t) t^(p-1) dt, via the
  sign-vector expansion of a product of cosines; resonant sign patterns
  (sum of +-a_k near zero) produce the slowly decaying non-oscillatory part.
  The 2^(n-1) pattern series are built together by doubling, which costs
  n - 1 steps of two Toeplitz-matrix products, and all their power
  integrals come from one array pass (``_exp_tails``): one block of IBP
  terms for every pattern with |omega| T >= 40 and one panel grid for every
  near-resonant pattern.  Both stop each IBP series relative to its first term.

Series are represented as float/complex arrays c with c[j] the coefficient
of t^(-j), truncated at ORDER; further axes, where present, index a batch of
series.
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
_IBP_GROUP = 64  # (m, lane) pairs of F's tail below which an octave of m joins the next call
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


def series_pow(a: np.ndarray, exponent, order: int = ORDER) -> np.ndarray:
    """(series with a[0] = 1) ** exponent, by Miller's recurrence.

    An array of exponents adds its shape as trailing batch axes; a scalar
    exponent runs as a one-lane batch.  a is one series for every lane, or one
    column a lane when it is 2-d (a 1-d array of exponents, one per column).
    Each lane does the same arithmetic as the scalar call with its series and
    exponent.  A NaN or infinite exponent raises DomainError.
    """
    exponent = np.asarray(exponent, dtype=float)
    if not np.all(np.isfinite(exponent)):
        raise DomainError(f"series_pow needs a finite exponent, got {exponent!r}")
    lanes = exponent.reshape(-1)
    out = np.zeros((order + 1, lanes.size), dtype=np.result_type(a, lanes))
    out[0] = 1.0
    n = min(order, len(a) - 1)
    j = np.arange(1, n + 1)[:, None]
    # coef[k - 1, j - 1] = (exponent j - (k - j)) a_j, for every step k at once
    steps = np.arange(1, order + 1)[:, None, None]
    coef = (lanes * j - (steps - j)) * np.reshape(a[1:n + 1], (n, -1))
    for k in range(1, order + 1):
        # the j terms of step k, added in the order j = 1, 2, ... in every lane:
        # add.accumulate is sequential, where add.reduce would pair up a lone lane
        terms = coef[k - 1, :k] * out[k - 1::-1][:n]
        np.divide(np.add.accumulate(terms)[-1], k, out=out[k])
    return out.reshape((order + 1,) + exponent.shape)


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
    return np.cumprod(np.concatenate([[c0], ratio]))


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


def tail_abs_pow(p, s, T: float, tol: float = 1e-12):
    """int_T^inf |jj_1(t)|^s t^(p-1) dt via the Hankel expansion of J_1, for scalar
    p and s (a float back) or every (p, s) of arrays that broadcast together (an
    array of their shape back).

    With W = P + iQ = M e^(i phi) from the Hankel series,
    jj_1 = sqrt(8/pi) t^(-3/2) M(t) cos(chi + phi(t)), chi = t - 3 pi/4, so
    |jj_1|^s = (8/pi)^(s/2) t^(-3s/2) sum_m c_m Re[W^(s/2+m) conj(W)^(s/2-m)
    e^(2 i m chi)], integrated term by term.  The m = 0 term, M^s with no
    oscillation, is exactly the slow part that makes naive truncation
    infeasible for p near 3s/2, so it is always kept.  Each (p, s) stops after
    the first m >= 2 whose bound (8/pi)^(s/2) |c_m| T^mu / (2m) is below tol/10,
    and at m = 80 at the latest; each call builds only the modes up to the
    largest last mode of each s, with no cache.  The scalars of one s,
    (8/pi)^(s/2) and its log, are taken once per distinct s with Python's pow and
    math.log; one plan serves every lane, and the lanes x modes x powers of 1/t
    block is evaluated as array operations, in blocks of bounded memory.  A
    lane's value does not depend on which lanes share its call.  F sends all
    its lanes, of every s, through one call.

    Every mode m >= 1 has omega T = 2 m T >= 40, so its power integrals take
    the IBP expansion, in units of T^mu: (8/pi)^(s/2) T^mu scales the sum as one
    exp, so no intermediate is subnormal where the result is not.  A T outside
    20 <= T < inf raises DomainError, and so do NaN, p >= 3s/2 or mu rounding
    to -1 or above, as at p = s = 1e-300 (naming the first such element), an
    infinite p or s and s > _TAIL_S_MAX (141); an empty p gives an empty array.
    Near s = 1 with p near 3s/2, where the modes decay slowest, F with this
    tail at F's tol of 1e-10 was at most 2.2e-11 off an mpmath oracle, at
    (p, s) = (1.5, 1.05) and (1.57, 1.05) (tests/test_quad.py).
    """
    if not _IBP_MIN_PHASE <= 2.0 * T < math.inf:  # NaN too
        raise DomainError(f"tail_abs_pow needs T >= {_IBP_MIN_PHASE / 2.0:g} and T < inf, "
                          f"got T={T}")
    pa, sa = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(s, dtype=float))
    if not (np.all(np.isfinite(pa)) and np.all(np.isfinite(s))):
        raise DomainError(f"tail_abs_pow needs finite p and s, got p={p!r}, s={s!r}")
    if np.any(np.asarray(s) > _TAIL_S_MAX):  # an empty p too
        raise DomainError(f"the |jj_1|^s tail kernel supports s <= {_TAIL_S_MAX:g}, got s={s!r}")
    mu = pa.ravel() - 1.0 - 1.5 * sa.ravel()
    diverges = (pa.ravel() >= 1.5 * sa.ravel()) | (mu >= -1.0)
    if diverges.any():
        k = np.argmax(diverges)
        raise DomainError(f"tail diverges: p={pa.flat[k]} >= 3s/2={1.5 * sa.flat[k]}, or "
                          f"p - 1 - 3s/2 = {mu[k]} is not below -1 in floats")
    out = np.empty(pa.size)
    if pa.size:
        s_set, at = _distinct(sa.ravel())
        prefs = [(8.0 / math.pi) ** (x / 2.0) for x in s_set]
        last, cms, col0, sers = _abs_pow_plan(mu, s_set, at, T, tol, prefs)
        log_pref = np.array([math.log(x) for x in prefs])[at]
        # the lanes by decreasing last mode, so the lanes of a block need about as many modes
        by_last = np.argsort(-last, kind="stable")
        out[by_last] = _in_blocks(
            lambda k: _abs_pow_block(mu[k], last[k], col0[at[k]], cms[:, at[k]], log_pref[k], T, sers),
            by_last, (ORDER + 1) * (int(last.max()) + 1))
    return float(out[0]) if pa.ndim == 0 else out.reshape(pa.shape)


def _abs_pow_plan(mu: np.ndarray, s_set: list, at: np.ndarray, T: float, tol: float,
                  prefs: list) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The plan of the lanes mu = p - 1 - 3s/2, s = s_set[at] and pref = (8/pi)^(s/2) of s_set.

    Returns each lane's last mode; c_m for m = 0..(largest last), one column a
    distinct s, 0 past its nonzero ones; for each distinct s, the column of its
    m = 0 series; and the series of W^(s/2+m) conj(W)^(s/2-m) e^(-3im pi/2),
    one column for each distinct s and each m up to its lanes' largest last,
    built together: one batched power of W and one batched product.
    """
    cms = np.zeros((81, len(s_set)))
    n_modes = np.empty(len(s_set), dtype=int)
    for i, x in enumerate(s_set):
        c = abs_cos_fourier(x, 80)
        zero = np.flatnonzero(c == 0.0)  # even s: the Fourier series is a finite sum
        n_modes[i] = zero[0] if len(zero) else len(c)
        cms[:n_modes[i], i] = c[:n_modes[i]]
    mcol = np.arange(len(cms))[:, None]
    pref = np.asarray(prefs)

    def last_modes(k):  # the first m >= 2 whose bound is below tol/10, else the last nonzero
        # (the bound's m = 0 row divides by 1, not 0, and is never read)
        a = at[k]
        bound = pref[a] * np.abs(cms[:, a]) * T ** mu[k] / (2.0 * np.maximum(mcol, 1))
        small = (mcol >= 2) & (mcol < n_modes[a]) & (bound < 0.1 * tol)
        return np.where(small.any(axis=0), np.argmax(small, axis=0), n_modes[a] - 1)

    last = _in_blocks(last_modes, np.arange(len(mu)), len(cms))
    top = np.zeros(len(s_set), dtype=int)
    np.maximum.at(top, at, last)
    counts = top + 1
    col0 = np.cumsum(counts) - counts
    m = np.arange(counts.sum()) - np.repeat(col0, counts)
    half = np.repeat([x / 2.0 for x in s_set], counts)

    def mode_series(c):  # one row a column c; series_pow's steps hold 2 ORDER^2 complex a row,
        # a block of them at most 2 _BLOCK_BYTES: every mode of one s in one block
        powers = series_pow(_hankel_w(1.0)[0], np.concatenate([half[c] + m[c], half[c] - m[c]]))
        ser = series_mul(powers[:, :len(c)], np.conj(powers[:, len(c):]))
        return (ser * np.array([1, 1j, -1, -1j])[m[c] % 4]).T  # e^(-3im pi/2) = i^m

    sers = _in_blocks(mode_series, np.arange(len(m)), 2 * ORDER * ORDER).T
    return last, cms[:top.max() + 1], col0, sers


def _abs_pow_block(mu: np.ndarray, last: np.ndarray, col0: np.ndarray, cms: np.ndarray,
                   log_pref: np.ndarray, T: float, sers: np.ndarray) -> np.ndarray:
    """tail_abs_pow for a 1-d block of lanes: mu = p - 1 - 3s/2, the last mode, the column of
    the m = 0 series in sers, c_m (one column a lane) and log (8/pi)^(s/2)."""
    # per mode and lane: sum_j Re[ser_j E(mu - j, 2m, T)] / T^mu, summed over j in order
    j = np.arange(ORDER + 1.0)[:, None]
    per_mode = np.zeros((int(last.max()) + 1, len(mu)))
    per_mode[0] = np.add.accumulate(sers[:, col0].real * (-T ** (1.0 - j) / (mu - j + 1.0)))[-1]
    mi, pi = np.nonzero(np.arange(1, len(per_mode))[:, None] <= last)  # the (m, lane) pairs, by m
    mi += 1
    omega = 2.0 * mi
    # one IBP call per octave of m, which runs as deep as its slowest lane, and an octave of
    # fewer than _IBP_GROUP pairs joins the next: a lane's bits do not depend on its group
    # (grouping by a predicted depth was measured slower)
    cuts = [0]
    for c in np.searchsorted(mi, [2, 4, 8, 16, 32, 64]).tolist():
        if c - cuts[-1] >= _IBP_GROUP:
            cuts.append(c)
    cuts.append(len(mi))
    series = np.concatenate([_ibp_series(mu[pi[a:b]] - j, omega[a:b] * T)
                             for a, b in zip(cuts[:-1], cuts[1:]) if b > a], axis=1)
    tails = np.exp(1j * omega * T) / omega * T**-j * series
    per_mode[mi, pi] = np.add.accumulate((sers[:, col0[pi] + mi] * tails).real)[-1]
    # sum over modes in order (the modes beyond each lane's last add exact zeros), then scale
    # by pref T^mu as one exp: at s = 141, p = 23.51, T^mu alone is subnormal
    scale = np.exp(mu * math.log(T) + log_pref)
    return scale * np.add.accumulate(cms[:len(per_mode)] * per_mode)[-1]


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

"""Asymptotic tail integration for oscillatory Bessel-type integrands.

The integrals here all have the shape  int_T^inf  A(t) t^mu e^(i omega t) dt
with A a truncated power series in 1/t coming from the large-argument
(Hankel) expansion of J_nu, J_nu(t) ~ sqrt(2/(pi t)) Re[W(t) e^(i chi)] with
W = P + iQ (DLMF 10.17), integrated term by term.  The power integrals
E(mu, omega, T) = int_T^inf t^mu e^(i omega t) dt are closed-form power tails
at omega = 0, the integration-by-parts (IBP) expansion where |omega| T >= 40,
and Gauss panels up to |omega| t = 40 in between.  Two consumers:

* ``tail_abs_pow``:  int_T^inf |jj_1(t)|^s t^(p-1) dt, via the Fourier
  expansion of |cos theta|^s; writing W = M e^(i phi), the m-th term carries
  M^s e^(2 i m phi) = W^(s/2+m) conj(W)^(s/2-m).  The m = 0 term is the slow
  non-oscillatory part: it is why truncating at any feasible T and bounding
  the remainder fails when p is close to 3s/2.  Every p of one s is summed
  at once, as array operations over modes x powers of 1/t x p: closed-form
  power tails for m = 0 and, since omega T = 2 m T >= 40, the IBP expansion
  (``_ibp_series``) for every other mode.
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
_I_RE = np.array([0.0, -1.0, 0.0, 1.0])[np.arange(_IBP_CAP) % 4]  # Re i^(k+1), k = 0, 1, ...
_I_IM = np.array([1.0, 0.0, -1.0, 0.0])[np.arange(_IBP_CAP) % 4]  # Im i^(k+1)
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
    exponent runs as a one-lane batch.  Each lane does the same arithmetic as
    the scalar call with its exponent.
    """
    exponent = np.asarray(exponent, dtype=float)
    lanes = exponent.reshape(-1)
    out = np.zeros((order + 1, lanes.size), dtype=np.result_type(a, lanes))
    out[0] = 1.0
    n = min(order, len(a) - 1)
    j = np.arange(1, n + 1)[:, None]
    # coef[k - 1, j - 1] = (exponent j - (k - j)) a_j, for every step k at once
    coef = (lanes * j - (np.arange(1, order + 1)[:, None, None] - j)) * a[1:n + 1, None]
    for k in range(1, order + 1):
        # the j terms of step k, added in the order j = 1, 2, ... in every lane:
        # add.accumulate is sequential, where add.reduce would pair up a lone lane
        terms = coef[k - 1, :k] * out[k - 1::-1][:n]
        np.divide(np.add.accumulate(terms)[-1], k, out=out[k])
    return out.reshape((order + 1,) + exponent.shape)


# ----------------------------------------------------------------------------
# Hankel expansion of J_nu:
#   J_nu(t) ~ sqrt(2/(pi t)) [P(t) cos chi - Q(t) sin chi],
#   chi = t - nu pi/2 - pi/4,
#   P ~ sum (-1)^k a_{2k} t^(-2k),  Q ~ sum (-1)^k a_{2k+1} t^(-2k-1),
#   a_m(nu) = prod_{j=1..m} (4 nu^2 - (2j-1)^2) / (m! 8^m).
# ----------------------------------------------------------------------------

@lru_cache(maxsize=32)
def hankel_pq(nu: float) -> tuple[np.ndarray, np.ndarray]:
    a = [1.0]
    for m in range(1, ORDER + 1):
        a.append(a[-1] * (4.0 * nu * nu - (2 * m - 1) ** 2) / (8.0 * m))
    p = np.zeros(ORDER + 1)
    q = np.zeros(ORDER + 1)
    for m in range(ORDER + 1):
        if m % 2 == 0:
            p[m] = (-1.0) ** (m // 2) * a[m]
        else:
            q[m] = (-1.0) ** ((m - 1) // 2) * a[m]
    return p, q


# ----------------------------------------------------------------------------
# E(mu, omega, T) = int_T^inf t^mu e^(i omega t) dt  (mu < -1 for omega = 0)
# ----------------------------------------------------------------------------

def power_tail(mu, T: float):
    """E(mu, 0, T) = -T^(mu+1)/(mu+1) for a scalar or an array of mu < -1."""
    if np.any(np.asarray(mu) >= -1.0):
        raise DomainError(f"power tail diverges for mu={mu} >= -1")
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


def _panel_quad(f, edges: np.ndarray, order: int = 16, block: int = _PANEL_BLOCK):
    """Gauss-Legendre sum of f over the panels [edges[i], edges[i+1]].

    The panels are evaluated in blocks of at most ``block``, so memory stays
    bounded however many there are, and the block sums are added up.
    Returns an unreduced numpy sum, so f may be real or complex valued.
    """
    n = len(edges) - 1
    if n > block:
        return sum(_panel_quad(f, edges[lo:lo + block + 1], order, block)
                   for lo in range(0, n, block))
    nodes, w, half = _panel_rule(edges, order)
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
    c = c.reshape(size, -1)
    return (_I_RE[:size] @ c + 1j * (_I_IM[:size] @ c)).reshape(shape)


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
    one-lane case of the kernel behind ``tail_product``."""
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

@lru_cache(maxsize=256)
def _abs_pow_setup(s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The modes m = 0, 1, ... with nonzero c_m, their c_m, and the series of
    W^(s/2+m) conj(W)^(s/2-m) e^(-3im pi/2), one column a mode.

    The series of all modes are built together: one batched power of W and
    one batched product.
    """
    w = _hankel_w(1.0)[0]
    cms = abs_cos_fourier(s, 80)
    zero = np.flatnonzero(cms == 0.0)  # even s: the Fourier series is a finite sum
    m = np.arange(zero[0] if len(zero) else len(cms))
    powers = series_pow(w, np.concatenate([s / 2.0 + m, s / 2.0 - m]))
    sers = series_mul(powers[:, :len(m)], np.conj(powers[:, len(m):]))
    sers *= np.array([1, 1j, -1, -1j])[m % 4]  # e^(-3im pi/2) = i^m
    return m, cms[m], sers


def _in_blocks(fn, p: np.ndarray, per_p: int) -> np.ndarray:
    """fn over blocks of p whose len x per_p float temporaries stay within _BLOCK_BYTES, joined."""
    step = max(1, _BLOCK_BYTES // (8 * per_p))
    return np.concatenate([fn(p[lo:lo + step]) for lo in range(0, len(p), step)])


def tail_abs_pow(p, s: float, T: float, tol: float = 1e-12):
    """int_T^inf |jj_1(t)|^s t^(p-1) dt via the Hankel expansion of J_1, for a
    scalar p (a float back) or every p of a 1-d array (an array back) at one s.

    With W = P + iQ = M e^(i phi) from the Hankel series,
    jj_1 = sqrt(8/pi) t^(-3/2) M(t) cos(chi + phi(t)), chi = t - 3 pi/4, so
    |jj_1|^s = (8/pi)^(s/2) t^(-3s/2) sum_m c_m Re[W^(s/2+m) conj(W)^(s/2-m)
    e^(2 i m chi)], integrated term by term.  The m = 0 term, M^s with no
    oscillation, is exactly the slow part that makes naive truncation
    infeasible for p near 3s/2, so it is always kept.  Each p stops after the
    first m >= 2 whose bound (8/pi)^(s/2) |c_m| T^mu / (2m) is below tol/10,
    and at m = 80 at the latest.  The modes x powers of 1/t x p block is
    evaluated as array operations, p in blocks of bounded memory.

    Every mode m >= 1 has omega T = 2 m T >= 40, so its power integrals take
    the IBP expansion, in units of T^mu: (8/pi)^(s/2) T^mu scales the sum as one
    exp, so no intermediate is subnormal where the result is not.  T < 20 raises
    DomainError, and so do p >= 3s/2 (naming the first such element) and
    s > _TAIL_S_MAX (141).  Near s = 1 with p near 3s/2, where the modes decay
    slowest, F with this tail at F's tol of 1e-10 was at most 2.2e-11 off an
    mpmath oracle, at (p, s) = (1.5, 1.05) and (1.57, 1.05) (tests/test_quad.py).
    """
    if 2.0 * T < _IBP_MIN_PHASE:
        raise DomainError(f"tail_abs_pow needs T >= {_IBP_MIN_PHASE / 2.0:g}, got T={T}")
    pa = np.asarray(p, dtype=float)
    diverges = pa >= 1.5 * s
    if diverges.any():
        raise DomainError(f"tail diverges: p={pa.flat[np.argmax(diverges)]} >= 3s/2={1.5 * s}")
    modes = _abs_pow_setup(s)
    out = _in_blocks(lambda pb: _abs_pow_block(pb, s, T, tol, *modes), pa.reshape(-1),
                     (ORDER + 1) * len(modes[0]))
    return float(out[0]) if pa.ndim == 0 else out


def _abs_pow_block(p: np.ndarray, s: float, T: float, tol: float, ms: np.ndarray,
                   cms: np.ndarray, sers: np.ndarray) -> np.ndarray:
    """tail_abs_pow for a 1-d block of p, with _abs_pow_setup(s) given."""
    mu = p - 1.0 - 1.5 * s
    pref = (8.0 / math.pi) ** (s / 2.0)
    mcol = ms[:, None]
    # the last mode of each p: the first m >= 2 whose bound is below tol/10, else the last
    # (the bound's m = 0 row divides by 1, not 0, and is never read)
    bound = pref * np.abs(cms)[:, None] * T**mu / (2.0 * np.maximum(mcol, 1))
    small = (mcol >= 2) & (bound < 0.1 * tol)
    last = np.where(small.any(axis=0), np.argmax(small, axis=0), len(ms) - 1)
    # per mode and p: sum_j Re[ser_j E(mu - j, 2m, T)] / T^mu, summed over j in order
    j = np.arange(ORDER + 1.0)[:, None]
    per_mode = np.zeros((len(ms), len(p)))
    per_mode[0] = np.add.accumulate(sers[:, :1].real * (-T ** (1.0 - j) / (mu - j + 1.0)))[-1]
    mi, pi = np.nonzero(mcol[1:] <= last)  # the (m, p) pairs, sorted by m
    mi += 1
    omega = 2.0 * ms[mi]
    # one IBP block per octave of m: a block runs as deep as its lowest m needs
    cuts = np.searchsorted(mi, [1, 2, 4, 8, 16, 32, 64, math.inf])
    series = np.concatenate([_ibp_series(mu[pi[a:b]] - j, omega[a:b] * T)
                             for a, b in zip(cuts[:-1], cuts[1:]) if b > a], axis=1)
    tails = np.exp(1j * omega * T) / omega * T**-j * series
    per_mode[mi, pi] = np.add.accumulate((sers[:, mi] * tails).real)[-1]
    # sum over modes in order (the modes beyond each p's last add exact zeros), then scale
    # by pref T^mu as one exp: at s = 141, p = 23.51, T^mu alone is subnormal
    scale = np.exp(mu * math.log(T) + math.log(pref))
    return scale * np.add.accumulate(cms[:, None] * per_mode)[-1]


@lru_cache(maxsize=32)
def _hankel_w(nu: float) -> tuple[np.ndarray, complex]:
    """(W, C): the series W = P + iQ of J_nu's Hankel expansion and the constant
    C with jj_nu(x) ~ Re[C W(x) x^(-nu-1/2) e^(ix)]."""
    pser, qser = hankel_pq(nu)
    norm = _jj_norm_const(nu) * math.sqrt(2.0 / math.pi)
    return pser + 1j * qser, norm * cmath.exp(-1j * (nu * math.pi / 2.0 + math.pi / 4.0))


def tail_product(amps, nu: float, p: float, T: float) -> float:
    """int_T^inf prod_k jj_nu(a_k t) t^(p-1) dt via sign-vector expansion.

    Each factor is Re[C_k W_k(t) t^(-nu-1/2) e^(i a_k t)]; the product over k
    expands into 2^(n-1) conjugate-paired terms with frequencies sum(+-a_k).
    The sign patterns are built by doubling: factor 0 enters with sign +, and
    factor k turns the P patterns so far into 2P, the first half multiplied
    by conj(C_k W_k) and the second by C_k W_k.  That is n - 1 steps of two
    products with W_k's Toeplitz matrix, then the power integrals of every
    pattern from one ``_exp_tails`` call.
    """
    a = np.asarray(amps, dtype=float)
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

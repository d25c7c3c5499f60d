"""Asymptotic tail integration for oscillatory Bessel-type integrands.

The integrals here all have the shape  int_T^inf  A(t) t^mu e^(i omega t) dt
with A a truncated power series in 1/t coming from the large-argument
(Hankel) expansion of J_nu, J_nu(t) ~ sqrt(2/(pi t)) Re[W(t) e^(i chi)] with
W = P + iQ (DLMF 10.17).  ``_series_tail`` sums such a series term by term.
Two consumers:

* ``tail_abs_pow``:  int_T^inf |jj_1(t)|^s t^(p-1) dt, via the Fourier
  expansion of |cos theta|^s; writing W = M e^(i phi), the m-th term carries
  M^s e^(2 i m phi) = W^(s/2+m) conj(W)^(s/2-m).  The m = 0 term is the slow
  non-oscillatory part: it is why truncating at any feasible T and bounding
  the remainder fails when p is close to 3s/2.  Every p of one s is summed
  at once, as array operations over modes x powers of 1/t x p: closed-form
  power tails for m = 0 and, since omega T = 2 m T >= 40, the IBP expansion
  for every other mode, lane by lane with the scalar loop's arithmetic.
* ``tail_product``:  int_T^inf prod_k jj_nu(a_k t) t^(p-1) dt, via the
  sign-vector expansion of a product of cosines; resonant sign patterns
  (sum of +-a_k near zero) produce the slowly decaying non-oscillatory part.
  The 2^(n-1) pattern series are built together by doubling, which costs
  n - 1 steps of two batched series products, then one scalar tail per
  pattern (``_series_tail``): the pattern frequencies take every branch of
  ``exp_power_tail``, and an array IBP was measured slower than the scalar
  loop there.

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
from .specfun import gamma

ORDER = 8  # highest power of 1/t kept in the asymptotic series
_TAIL_S_MAX = 141.0  # largest s the |jj_1|^s tail kernel (abs_cos_fourier, tail_abs_pow) supports

_IBP_MIN_PHASE = 40.0  # use integration by parts when |omega| T exceeds this
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
def hankel_pq(nu: float, order: int = ORDER) -> tuple[np.ndarray, np.ndarray]:
    a = [1.0]
    for m in range(1, order + 1):
        a.append(a[-1] * (4.0 * nu * nu - (2 * m - 1) ** 2) / (8.0 * m))
    p = np.zeros(order + 1)
    q = np.zeros(order + 1)
    for m in range(order + 1):
        if m % 2 == 0:
            p[m] = (-1.0) ** (m // 2) * a[m]
        else:
            q[m] = (-1.0) ** ((m - 1) // 2) * a[m]
    return p, q


# ----------------------------------------------------------------------------
# E(mu, omega, T) = int_T^inf t^mu e^(i omega t) dt  (mu < -1 for omega = 0)
# ----------------------------------------------------------------------------

def power_tail(mu: float, T: float) -> float:
    if mu >= -1.0:
        raise DomainError(f"power tail diverges for mu={mu} >= -1")
    return -(T ** (mu + 1.0)) / (mu + 1.0)


def _exp_tail_ibp(mu: float, omega: float, T: float) -> complex:
    """IBP expansion, reliable when |omega| T is large."""
    phase = cmath.exp(1j * omega * T)
    coef = 1j * T**mu / omega
    total = 0j
    prev = math.inf
    for k in range(200):
        total += coef
        coef *= 1j * (mu - k) / omega / T
        mag = abs(coef)
        if mag < 1e-18 * max(1.0, abs(total)):
            break
        if mag > prev:  # asymptotic series turned; remainder ~ first omitted
            break
        prev = mag
    return phase * total


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


def _exp_tail_numeric(mu: float, omega: float, T: float) -> complex:
    """Quadrature on [T, L] with omega L ~ large, then IBP beyond L."""
    w = abs(omega)
    L = _IBP_MIN_PHASE / w
    edges = [T]
    t = T
    while t < L:
        t = min(t * 1.30, t + math.pi / (2.0 * w), L)
        edges.append(t)
    main = _panel_quad(lambda x: x**mu * np.exp(1j * omega * x), np.asarray(edges), order=24)
    return complex(main + _exp_tail_ibp(mu, omega, L))


def exp_power_tail(mu: float, omega: float, T: float) -> complex:
    """int_T^inf t^mu e^(i omega t) dt; needs mu < -1 when omega ~ 0."""
    if abs(omega) < 1e-13:
        return complex(power_tail(mu, T))
    if omega < 0:
        return exp_power_tail(mu, -omega, T).conjugate()
    if omega * T >= _IBP_MIN_PHASE:
        return _exp_tail_ibp(mu, omega, T)
    return _exp_tail_numeric(mu, omega, T)


def _series_tail(ser: np.ndarray, mu0: float, omega: float, T: float) -> complex:
    """sum_j ser[j] int_T^inf t^(mu0-j) e^(i omega t) dt."""
    if abs(omega) < 1e-13 or abs(omega) * T >= _IBP_MIN_PHASE:
        return sum(ser[j] * exp_power_tail(mu0 - j, omega, T) for j in range(ORDER + 1))
    # one numeric evaluation at the top exponent, then the downward
    # recurrence E(mu-1) = (-T^mu e^(i omega T) - i omega E(mu)) / mu,
    # which is stable when |omega| < |mu|
    base = exp_power_tail(mu0, omega, T)
    total = ser[0] * base
    phase = cmath.exp(1j * omega * T)
    for j in range(1, ORDER + 1):
        mu_prev = mu0 - j + 1.0
        base = (-(T**mu_prev) * phase - 1j * omega * base) / mu_prev
        total += ser[j] * base
    return total


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
    g_top, g_half = gamma(np.array([s + 1.0, h + 1.0])).tolist()
    c0 = g_top / (2.0**s * g_half**2)
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
    pser, qser = hankel_pq(1.0)
    w = pser + 1j * qser
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


def _ibp_sums(mu: np.ndarray, omega: np.ndarray, T: float) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of _exp_tail_ibp(mu, omega, T) / e^(i omega T), elementwise.

    The k-th IBP term is i^(k+1) g_k with g_0 = T^mu / omega and
    g_(k+1) = g_k (mu-k)/omega/T, so each lane keeps one real number and adds
    it to the real or the imaginary sum by k mod 4: the same floating-point
    steps as the scalar loop, stopped by its rules (1e-18 of the running sum,
    or the asymptotic series turning).  Finished lanes leave the arrays.
    """
    g = T**mu / omega
    re, im = np.zeros_like(g), np.zeros_like(g)
    out_re, out_im = np.empty_like(g), np.empty_like(g)
    live, prev = np.arange(len(g)), np.full_like(g, math.inf)
    for k in range(200):
        if k % 4 == 0:
            im += g
        elif k % 4 == 1:
            re -= g
        elif k % 4 == 2:
            im -= g
        else:
            re += g
        g = g * ((mu - k) / omega / T)
        mag = np.abs(g)
        done = (mag < 1e-18 * np.maximum(1.0, np.hypot(re, im))) | (mag > prev)
        if done.any():
            out = live[done]
            out_re[out], out_im[out] = re[done], im[done]
            keep = ~done
            live, g, mu, omega, re, im, mag = (x[keep] for x in (live, g, mu, omega, re, im, mag))
            if not len(live):
                break
        prev = mag
    out_re[live], out_im[live] = re, im
    return out_re, out_im


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
    the IBP expansion; T < 20 raises DomainError.  So do p >= 3s/2 (naming the
    first such element) and s > _TAIL_S_MAX (141).  tol does not hold
    everywhere: for s <= 1.3 and p near 3s/2 the 80-mode cap leaves errors up
    to 4.7e-9.
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
    # per mode and p: sum_j Re[ser_j E(mu - j, 2m, T)], summed over j in order
    j = np.arange(ORDER + 1.0)[:, None]
    per_mode = np.zeros((len(ms), len(p)))
    e = mu - j + 1.0
    per_mode[0] = np.add.accumulate(sers[:, :1].real * (-(T**e) / e))[-1]  # m = 0: power tails
    mi, pi = np.nonzero(mcol[1:] <= last)
    mi += 1
    omega = 2.0 * ms[mi]
    lanes = (ORDER + 1, len(mi))  # (j, (m, p) pair)
    re, im = _ibp_sums((mu[pi] - j).ravel(), np.broadcast_to(omega, lanes).ravel(), T)
    re, im = re.reshape(lanes), im.reshape(lanes)
    cos, sin = np.cos(omega * T), np.sin(omega * T)  # the IBP phase e^(i omega T)
    e_re, e_im = cos * re - sin * im, cos * im + sin * re
    ser = sers[:, mi]
    per_mode[mi, pi] = np.add.accumulate(ser.real * e_re - ser.imag * e_im)[-1]
    # sum over modes in order; the modes beyond each p's last add exact zeros
    return np.add.accumulate((pref * cms)[:, None] * per_mode)[-1]


def tail_product(amps, nu: float, p: float, T: float) -> float:
    """int_T^inf prod_k jj_nu(a_k t) t^(p-1) dt via sign-vector expansion.

    Each factor is Re[C_k W_k(t) t^(-nu-1/2) e^(i a_k t)]; the product over k
    expands into 2^(n-1) conjugate-paired terms with frequencies sum(+-a_k).
    The sign patterns are built by doubling: factor 0 enters with sign +, and
    factor k turns the P patterns so far into 2P, the first half multiplied
    by conj(C_k W_k) and the second by C_k W_k.  That is n - 1 steps of two
    batched series products, then 2^(n-1) scalar tails.
    """
    amps = [float(a) for a in amps]
    n = len(amps)
    mu0 = p - 1.0 - n * (nu + 0.5)
    if mu0 >= -1.0:
        raise DomainError("tail_product: integral not absolutely convergent")
    pser, qser = hankel_pq(nu)
    norm = 2.0**nu * float(gamma(nu + 1.0)) * math.sqrt(2.0 / math.pi)
    phase0 = cmath.exp(-1j * (nu * math.pi / 2.0 + math.pi / 4.0))
    w0 = pser + 1j * qser
    consts = [norm * a ** (-(nu + 0.5)) * phase0 for a in amps]
    ws = [w0 * np.array([a ** (-j) for j in range(ORDER + 1)]) for a in amps]

    amp, ser, omega = np.array(consts[:1]), ws[0][:, None], np.array(amps[:1])
    for c, w, a in zip(consts[1:], ws[1:], amps[1:]):
        amp = np.concatenate([amp * c.conjugate(), amp * c])
        ser = np.concatenate([series_mul(ser, np.conj(w)), series_mul(ser, w)], axis=1)
        omega = np.concatenate([omega - a, omega + a])

    total = 0.0
    for c, row, om in zip(amp.tolist(), ser.T, omega.tolist()):
        total += (c * _series_tail(row, mu0, om, T)).real
    return float(total * 2.0 ** (1 - n))

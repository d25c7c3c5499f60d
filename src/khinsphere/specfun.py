"""Scalar special functions: gamma family, normalized Bessel functions, Gauss 2F1.

Everything here is pure and array-capable (numpy broadcasting); scalar inputs
give scalar outputs. The normalized Bessel function ``jj(nu, t)`` is
2^nu Gamma(nu+1) t^(-nu) J_nu(t), the characteristic function of a vector
uniform on the unit sphere S^(d-1) at radius t, with nu = d/2 - 1.  It has
one evaluator on one switch: a power series where t < max(5, nu) and, above,
Cephes' large-argument J0/J1 with forward recurrence, stable there as t > nu.
jj_1' = -(t/4) jj_2 (DLMF 10.6.6) comes from the same evaluator.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DivergenceError, DomainError, PoleError

__all__ = [
    "gamma",
    "log_gamma",
    "digamma",
    "trigamma",
    "pochhammer",
    "jj",
    "jj1",
    "jj1_prime",
    "hyp2f1",
    "HYP2F1_RTOL",
    "jnu_zeros",
]

# hyp2f1: relative accuracy on all of [0, 1] (see its docstring); each series is
# summed at an argument x <= 1/2 and cut where c_j 2^-j falls below
# _SERIES_CUT times its largest term
HYP2F1_RTOL = 1e-13
_SERIES_CUT = 1e-18
# hyp2f1's parameter-only set-up is cached per parameter set; a Monte Carlo
# batch or a verifier grid reuses a handful of sets, each a few KB
_SETUP_CACHE = 32

# Lanczos approximation of log_gamma, g = 7, 9 terms.
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _as_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _maybe_scalar(arr, scalar):
    return float(arr) if scalar else arr


def _horner(cs, x):
    """sum_k cs[k] x^k for coefficients cs in ascending order."""
    acc = np.full_like(x, cs[-1])
    for c in cs[-2::-1]:
        acc *= x
        acc += c
    return acc


def _lanczos_log(x):
    """log Gamma(x) by the Lanczos sum, for finite x >= 0.5, a float or an array."""
    z = x - 1.0
    acc = _LANCZOS[0]
    for i, c in enumerate(_LANCZOS[1:], start=1):
        acc = acc + c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return 0.5 * math.log(2.0 * math.pi) + (z + 0.5) * np.log(t) - t + np.log(acc)


def _gamma1(x: float) -> float:
    try:
        return math.gamma(x)
    except OverflowError:  # |Gamma(x)| above the largest float: x > 171.62 or x next to 0
        return math.copysign(math.inf, x)


def gamma(x):
    """Gamma function on the real line (poles at nonpositive integers): math.gamma elementwise.

    Gamma(x) exceeds the largest float for x > 171.62 and is inf there,
    without a warning.  A NaN raises DomainError.
    """
    if isinstance(x, float):  # np.float64 too: the array set-up costs 100 times math.gamma
        if x != x:
            raise DomainError(f"gamma is undefined at {x!r}")
        if x <= 0.0 and (math.isinf(x) or x == math.floor(x)):  # math.floor(-inf) raises
            raise PoleError(f"gamma pole at nonpositive integer in {x!r}")
        return _gamma1(x)
    arr, scalar = _as_array(x)
    if np.isnan(arr).any():
        raise DomainError(f"gamma is undefined at NaN, in {x!r}")
    if np.any((arr <= 0) & (arr == np.floor(arr))):
        raise PoleError(f"gamma pole at nonpositive integer in {x!r}")
    if scalar:
        return _gamma1(float(arr))
    return np.fromiter(map(_gamma1, arr.ravel().tolist()), float, arr.size).reshape(arr.shape)


def log_gamma(x):
    """log Gamma(x) for x > 0, stable for large x; log Gamma(inf) = inf.

    The Lanczos sum on x >= 1/2; below, log Gamma(x+1) - log x, taken as
    -log(x / Gamma(x+1)) with Gamma(x+1) in [0.88, 1] from gamma.  It stays
    on Lanczos rather than math.lgamma because a switch would move last bits
    (by up to 3e-15 relative on the q_star scan lattice) in constants, verify
    and the goldens.  Speed no longer decides it: the q_star scans read about
    22k points a pass from shared tables, which Lanczos builds 3-4 times
    faster than math.lgamma elementwise, but the rest of asymptotic_check
    makes small calls, and over all of it math.lgamma was about 15% faster.
    A float (np.float64 too) takes a scalar path that sums the same series
    in Python floats, about 20 times faster than a 0-d array; it takes its
    logs with np.log, not math.log, which differs in the last bit on about 2
    points in 10^4, so both paths agree bit for bit.
    """
    if isinstance(x, float):
        if not x > 0.0:  # NaN too
            raise DomainError(f"log_gamma requires x > 0, got {x!r}")
        x = float(x)  # np.float64 arithmetic costs 10 times a float's
        if x < 0.5:
            return float(-np.log(x / _gamma1(x + 1.0)))
        return float(_lanczos_log(x)) if x < math.inf else math.inf
    arr, scalar = _as_array(x)
    if scalar:
        return log_gamma(float(arr))
    if not np.all(arr > 0):
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    big = (arr >= 0.5) & (arr < math.inf)
    if np.all(big):
        return _lanczos_log(arr)
    out = np.full_like(arr, math.inf)  # left at inf where x = inf
    small = arr < 0.5
    xs = arr[small]
    out[small] = -np.log(xs / gamma(xs + 1.0))
    out[big] = _lanczos_log(arr[big])
    return out


# Bernoulli numbers B_2 .. B_14 for the psi asymptotic series.
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)


def _shift_up(arr, term):
    """(x, s): a copy of arr shifted up by 1 until >= 8, where the asymptotic series of
    digamma and trigamma has ~1e-16 error, and s, the sum of term(x) over the steps."""
    arr = arr.copy()
    out = np.zeros_like(arr)
    while True:
        small = arr < 8.0
        if not np.any(small):
            return arr, out
        out[small] += term(arr[small])
        arr[small] += 1.0


def digamma(x):
    """psi(x) = (log Gamma)'(x) for x > 0."""
    arr, scalar = _as_array(x)
    if not np.all(arr > 0):  # NaN too
        raise DomainError(f"digamma requires x > 0, got {x!r}")
    arr, out = _shift_up(arr, lambda x: -1.0 / x)
    # sum B_{2n}/(2n x^{2n}) by Horner in 1/x^2
    inv2 = 1.0 / (arr * arr)
    acc = _horner([b / (2.0 * n) for n, b in enumerate(_BERNOULLI, start=1)], inv2)
    acc *= inv2
    out += np.log(arr) - 0.5 / arr - acc
    return _maybe_scalar(out, scalar)


def trigamma(x):
    """psi'(x) for x > 0."""
    arr, scalar = _as_array(x)
    if not np.all(arr > 0):  # NaN too
        raise DomainError(f"trigamma requires x > 0, got {x!r}")
    arr, out = _shift_up(arr, lambda x: 1.0 / (x * x))
    inv2 = 1.0 / (arr * arr)
    acc = _horner(_BERNOULLI, inv2)
    acc *= inv2 / arr
    out += 1.0 / arr + 0.5 * inv2 + acc
    return _maybe_scalar(out, scalar)


def pochhammer(x, k: int):
    """Rising factorial (x)_k = x (x+1) ... (x+k-1), with (x)_0 = 1."""
    if k < 0 or k != int(k):
        raise DomainError(f"pochhammer requires integer k >= 0, got {k!r}")
    arr, scalar = _as_array(x)
    out = np.ones_like(arr)
    for j in range(int(k)):
        out = out * (arr + j)
    return _maybe_scalar(out, scalar)


# ----------------------------------------------------------------------------
# Bessel J0 / J1 at large argument: Cephes' Hankel P/Q form, degree 6/6 and
# 7/7 rationals in z = (5/x)^2, accurate for x > 5 (within 2.5e-16 of mpmath
# on [5, 10]).  jj reaches it at t >= max(5, nu); below, jj is its power series.
# Coefficients are in ascending powers; a monic denominator ends in its 1.0.
# ----------------------------------------------------------------------------

_SQ2OPI = 7.9788456080286535587989e-1

_PP0 = (9.99999999999999997821e-1, 5.30324038235394892183e0, 8.74716500199817011941e0,
        5.44725003058768775090e0, 1.23953371646414299388e0, 8.28352392107440799803e-2,
        7.96936729297347051624e-4)
_PQ0 = (1.00000000000000000218e0, 5.30605288235394617618e0, 8.76190883237069594232e0,
        5.47097740330417105182e0, 1.25352743901058953537e0, 8.56288474354474431428e-2,
        9.24408810558863637013e-4)
_QP0 = (-6.05014350600728481186e0, -5.14105326766599330220e1, -1.47077505154951170175e2,
        -1.77681167980488050595e2, -9.32060152123768231369e1, -1.95539544257735972385e1,
        -1.28252718670509318512e0, -1.13663838898469149931e-2)
_QQ0 = (2.42005740240291393179e2, 2.06209331660327847417e3, 5.93072701187316984827e3,
        7.24046774195652478189e3, 3.88240183605401609683e3, 8.56430025976980587198e2,
        6.43178256118178023184e1, 1.0)

_PP1 = (1.00000000000000000254e0, 5.21451598682361504063e0, 8.42404590141772420927e0,
        5.11207951146807644818e0, 1.12719608129684925192e0, 7.31397056940917570436e-2,
        7.62125616208173112003e-4)
_PQ1 = (9.99999999999999997461e-1, 5.20982848682361821619e0, 8.39985554327604159757e0,
        5.07386386128601488557e0, 1.10514232634061696926e0, 6.88455908754495404082e-2,
        5.71323128072548699714e-4)
_QP1 = (2.52070205858023719784e1, 2.11688757100572135698e2, 5.97489612400613639965e2,
        7.10856304998926107277e2, 3.66779609360150777800e2, 7.58238284132545283818e1,
        4.98213872951233449420e0, 5.10862594750176621635e-2)
_QQ1 = (3.36093607810698293419e2, 2.82619278517639096600e3, 7.99704160447350683650e3,
        9.56231892404756170795e3, 4.98641058337653607651e3, 1.05644886038262816351e3,
        7.42373277035675149943e1, 1.0)

# order nu -> (P numerator, P denominator, Q numerator, Q denominator, phase (2 nu + 1) pi/4)
_HANKEL_PQ = ((_PP0, _PQ0, _QP0, _QQ0, 7.85398163397448309616e-1),
              (_PP1, _PQ1, _QP1, _QQ1, 2.35619449019234492885))


def _bessel_j01(nu: int, x):
    """J_nu(x) for nu in {0, 1} and x > 5, array input."""
    pp, pq, qp, qq, phase = _HANKEL_PQ[nu]
    w = 5.0 / x
    z = w * w
    p = _horner(pp, z) / _horner(pq, z)
    q = _horner(qp, z) / _horner(qq, z)
    q *= w
    del w, z  # as long as x: freed before the last temporaries, which set product_moment's peak
    xn = x - phase
    return _SQ2OPI * (p * np.cos(xn) - q * np.sin(xn)) / np.sqrt(x)


def _bessel_j_order(nu: float, t):
    """J_nu(t) for t >= max(5, nu) via forward recurrence, stable while the order
    stays below t (DLMF 10.74(iv)); nu a multiple of 1/2."""
    if nu in (0.0, 1.0):
        return _bessel_j01(int(nu), t)
    if nu == int(nu):
        jm, jp = _bessel_j01(0, t), _bessel_j01(1, t)
        k = 1.0
    else:
        # J_{-1/2}, J_{1/2}
        amp = np.sqrt(2.0 / (math.pi * t))
        jm, jp = amp * np.cos(t), amp * np.sin(t)
        k = 0.5
    while k < nu:
        jm, jp = jp, (2.0 * k / t) * jp - jm
        k += 1.0
    return jp


@lru_cache(maxsize=64)
def _jj_series_coeffs(nu: float, n_terms: int = 48) -> tuple:
    """Coefficients c_k of jj_nu(t) = sum c_k t^(2k)."""
    cs = [1.0]
    for k in range(1, n_terms):
        cs.append(-cs[-1] / (4.0 * k * (nu + k)))
    return tuple(cs)


def _jj_vec(nu: float, t):
    """jj_nu on t >= 0, array input: the series where t < max(5, nu), else the recurrence."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    lo = t < max(5.0, nu)
    if np.any(lo):
        out[lo] = _horner(_jj_series_coeffs(nu), t[lo] * t[lo])
    hi = ~lo
    if np.any(hi):
        th = t[hi]
        jn = _bessel_j_order(nu, th)
        out[hi] = _jj_norm_const(nu) * th ** (-nu) * jn
    return out


@lru_cache(maxsize=32)
def _jj_norm_const(nu: float) -> float:
    return float(2.0**nu * gamma(nu + 1.0))


def jj1(t):
    """jj_1(t) = 2 J1(t)/t, the d=4 characteristic function; array-capable."""
    return jj(1.0, t)


def jj1_prime(t):
    """d/dt jj_1(t) = -(t/4) jj_2(t) = -2 J2(t)/t, from DLMF 10.6.6,
    (t^-nu J_nu)' = -t^-nu J_(nu+1); within 3e-16 of mpmath on [0, 30]."""
    arr, scalar = _as_array(t)
    if np.any(arr < 0):
        raise DomainError("jj1_prime requires t >= 0")
    return _maybe_scalar(-(arr / 4.0) * _jj_vec(2.0, arr), scalar)


def jj(nu: float, t):
    """Normalized Bessel jj_nu(t) = 2^nu Gamma(nu+1) t^(-nu) J_nu(t).

    A fixed 48-term power series where t < max(5, nu), for every order, and
    beyond it large-argument J0/J1 with forward recurrence; scalar and array
    input share this one evaluator.  Orders are the sphere family
    nu = d/2 - 1, i.e. multiples of 1/2.  Against mpmath: within 2e-15 absolute
    for nu <= 9, about 1e-14 up to nu = 30, and worse beyond, as the series
    cancels near t = nu (1e-12 at nu = 50).
    """
    if nu < 0:
        raise DomainError(f"jj requires nu >= 0, got {nu}")
    if 2.0 * nu != round(2.0 * nu):
        raise DomainError(f"jj supports half-integer orders only, got nu={nu}")
    arr, scalar = _as_array(t)
    if np.any(arr < 0):
        raise DomainError("jj requires t >= 0")
    return _maybe_scalar(_jj_vec(nu, arr), scalar)


def _nonpos_int(x: float) -> bool:
    return x <= 0 and x == round(x)


@lru_cache(maxsize=2 * _SETUP_CACHE, typed=True)
def _ratio_coeffs(p1: float, p2: float, q1: float, q2: float, n_max: int | None = None) -> np.ndarray:
    """c_j = prod_{i<j} (p1+i)(p2+i) / ((q1+i)(q2+i)), j = 0, 1, ...

    With ``n_max`` the list stops after c_n_max (a terminating series).  Else
    it stops once c_j 2^-j is below _SERIES_CUT of the largest such term and
    the ratio is below 3/2, so that the rest, summed at x <= 1/2, is smaller
    still; the ratio tends to 1, so the list is always finite.  Cached, so
    the array is read-only.
    """
    cs = [1.0]
    big = 1.0
    j = 0
    while n_max is None or j < n_max:
        r = (p1 + j) * (p2 + j) / ((q1 + j) * (q2 + j))
        cs.append(cs[-1] * r)
        j += 1
        term = abs(cs[-1]) * 0.5**j
        if not math.isfinite(term):
            raise DomainError(f"hyp2f1 series terms overflow for parameters {p1}, {p2}; {q1}, {q2}")
        big = max(big, term)
        if n_max is None and term < _SERIES_CUT * big and abs(r) < 1.5:
            break
    out = np.asarray(cs)
    out.setflags(write=False)
    return out


def _exprel(z):
    """expm1(z)/z, with the limit 1 at z = 0."""
    nz = np.where(z == 0.0, 1.0, z)
    return np.where(z == 0.0, 1.0, np.expm1(nz) / nz)


def _log1p_rel(u):
    """log1p(u)/u, with the limit 1 at u = 0."""
    nz = np.where(u == 0.0, 1.0, u)
    return np.where(u == 0.0, 1.0, np.log1p(nz) / nz)


def _lgamma_slopes(x0, h, n: int):
    """(log|Gamma(x+h)| - log|Gamma(x)|)/h and the sign of Gamma(x+h)/Gamma(x).

    Row i is at x = x0[i] + j, j < n, with step h[i]; |h| <= 1, and no x or
    x+h may be a pole.  At h = 0 the slope is digamma(x), for x of either
    sign.  The Stirling series is differenced at x0 + k >= 10 and carried
    down by Gamma(x+1) = x Gamma(x); every difference goes through
    log1p/expm1, so nothing cancels as h -> 0.
    """
    x0, h = np.asarray(x0, dtype=float)[:, None], np.asarray(h, dtype=float)[:, None]
    k = max(n - 1, math.ceil(10.0 - x0.min()))
    xs = x0 + np.arange(k)
    u = h / xs
    near = np.abs(u) < 0.5
    # the slope of log|x|: (log|x+h| - log|x|)/h; |u| >= 1/2 only where h != 0
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(near, _log1p_rel(np.where(near, u, 0.0)) / xs, np.log(np.abs(1.0 + u)) / h)
    x = x0 + k
    r = _log1p_rel(h / x)  # log1p(h/x) x/h
    # Stirling: sum_i B_2i/(2i(2i-1)) ((x+h)^(1-2i) - x^(1-2i))/h
    i = np.arange(1, len(_BERNOULLI) + 1)
    bern = np.asarray(_BERNOULLI) / (2.0 * i) * x ** (-2.0 * i) * _exprel((1 - 2 * i) * np.log1p(h / x))
    top = (x - 0.5) / x * r + np.log(x + h) - 1.0 - r * bern.sum(axis=1, keepdims=True)
    pad = np.zeros((len(x0), 1))
    below = np.hstack([np.cumsum(step[:, ::-1], axis=1)[:, ::-1], pad])[:, :n]
    sign = np.hstack([np.cumprod(np.sign(1.0 + u)[:, ::-1], axis=1)[:, ::-1], pad + 1.0])[:, :n]
    return top - below, sign


@lru_cache(maxsize=_SETUP_CACHE, typed=True)
def _near_one_setup(a: float, b: float, c: float):
    """The parameter-only part of _hyp2f1_near_one for c-a-b >= -1/2.

    Returns (m, eps, h, head, k, cs, cs_nu), the arrays read-only: the
    regular head is h * sum_j head_j w^j (m > 0 only), and the paired terms
    are k w^m sum_j w^j (cs_j (w^eps - 1)/eps + cs_nu_j w^eps).
    """
    s = math.fsum((c, -a, -b))  # exact c-a-b, which may be tiny
    m = round(s)
    eps = s - m
    ca, cb = c - a, c - b  # = b + m + eps and a + m + eps
    pre = math.gamma(c) / (math.gamma(ca) * math.gamma(cb))
    h, head = 0.0, None
    if m > 0:  # the first m terms of the series in w are regular
        h, head = pre * math.gamma(m + eps), _ratio_coeffs(a, b, 1.0 - m - eps, 1.0, n_max=m - 1)
    # paired terms: K w^m sum_j c_j w^j (sigma_j w^eps e^(eps mu_j) - 1)/eps
    cs = _ratio_coeffs(a + m, b + m, 1.0 - eps, m + 1.0)
    slope, sgn = _lgamma_slopes((cb - eps, ca - eps, m + 1.0, 1.0), (eps, eps, eps, -eps), len(cs))
    mu = slope[0] + slope[1] - slope[2] - slope[3]
    sign = sgn[0] * sgn[1]
    with np.errstate(over="ignore"):
        # (sigma e^(eps mu) - 1)/eps; the sign can flip only when eps != 0
        nu = np.where(sign > 0, mu * _exprel(eps * mu),
                      -(np.exp(eps * mu) + 1.0) / (eps if eps else 1.0))
    k = -((-1) ** m) * pre * math.gamma(1.0 + eps) * (pochhammer(a, m) * pochhammer(b, m)
                                                     / math.factorial(m))
    cs_nu = cs * nu
    cs_nu.setflags(write=False)
    return m, eps, h, head, k, cs, cs_nu


def _hyp2f1_near_one(a: float, b: float, c: float, w):
    """2F1(a, b; c; 1-w) for 0 < w <= 1/2, non-terminating: DLMF 15.8.4 in 1-z.

    With c-a-b = m + eps, m the nearest integer, the terms of the two series of
    15.8.4 that carry w^(m+j) are paired.  The 1/eps of Gamma(+-eps) is
    cancelled analytically, each pair being written through divided
    differences of log Gamma in eps (_lgamma_slopes) and expm1.  The result is
    one formula, as accurate at eps = 1e-9 as at eps = 1/2, and at eps = 0 it
    is the logarithmic case 15.8.10 with its digamma terms.  Everything that
    depends on (a, b, c) alone comes from _near_one_setup's cache.
    """
    s = math.fsum((c, -a, -b))
    if round(s) < 0:  # Euler's transformation makes c-a-b positive
        return w**s * _hyp2f1_near_one(c - a, c - b, c, w)
    m, eps, h, head, k, cs, cs_nu = _near_one_setup(a, b, c)
    # k w^m (e sum cs_j w^j + w^eps sum cs_nu_j w^j), e = (w^eps - 1)/eps,
    # in place, so that few arrays of len(w) are alive at once
    e = np.log(w)
    e *= _exprel(eps * e)
    tail = _horner(cs, w)
    tail *= e
    e = w**eps
    e *= _horner(cs_nu, w)
    tail += e
    e = w**m
    e *= k
    tail *= e
    out = np.zeros_like(w)
    if m > 0:
        out += h * _horner(head, w)
    out += tail
    return out


def hyp2f1(a: float, b: float, c: float, t):
    """Gauss hypergeometric 2F1(a,b;c;t) on 0 <= t <= 1; array-capable in t.

    - t <= 1/2: the power series in t, cut at a fixed length.
    - 1/2 < t < 1: the connection formula in w = 1-t (DLMF 15.8.4), written
      so that it holds uniformly as c-a-b approaches an integer and reduces
      to the logarithmic case 15.8.10 at an integer (_hyp2f1_near_one).
    - a or b a nonpositive integer: the polynomial, on all of [0, 1]; c-a or
      c-b one: (1-t)^(c-a-b) times a polynomial (Euler's transformation).
    - t = 1: the Gauss sum Gamma(c)Gamma(c-a-b)/(Gamma(c-a)Gamma(c-b)),
      which requires c-a-b > 0 (DivergenceError otherwise).

    Every series has a length fixed by (a, b, c), so nothing iterates to
    convergence.  For the sphere-family parameters a = -q/2,
    b = (-q-d+2)/2, c = d/2 with 2 <= d <= 8 and -(d-1) < q <= 8 the
    relative error is below HYP2F1_RTOL = 1e-13 on all of [0, 1],
    including c-a-b within 1e-9 of an integer (checked against mpmath up to
    t = 1 - 1e-12).  Scalar t returns a float.

    What depends on (a, b, c) alone (the series coefficients of both
    branches, and the 1 - t branch's log-Gamma slopes, pair weights and
    prefactors) is computed once per parameter set and kept, read-only, in a
    small bounded cache (_SETUP_CACHE sets), so repeated calls with the same
    parameters, such as the chunks of a Monte Carlo scoring, pay it once.
    The values do not depend on whether the cache was warm.
    """
    if not all(math.isfinite(x) for x in (a, b, c)):
        raise DomainError(f"hyp2f1 parameters must be finite, got a={a}, b={b}, c={c}")
    if _nonpos_int(c):
        raise PoleError(f"hyp2f1 parameter pole: c={c}")
    arr, scalar = _as_array(t)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise DomainError(f"hyp2f1 implemented for t in [0,1], got {t}")
    s = math.fsum((c, -a, -b))  # exact c-a-b, which may be tiny
    for p1, p2 in ((a, b), (b, a)):
        if _nonpos_int(p1):
            return _maybe_scalar(_horner(_ratio_coeffs(p1, p2, c, 1.0, n_max=round(-p1)), arr), scalar)
    for p1, p2 in ((c - a, c - b), (c - b, c - a)):
        if _nonpos_int(p1):
            if s < 0 and np.any(arr == 1.0):
                raise DivergenceError(f"hyp2f1 diverges at t=1 when c-a-b={s} < 0")
            poly = _horner(_ratio_coeffs(p1, p2, c, 1.0, n_max=round(-p1)), arr)
            return _maybe_scalar((1.0 - arr) ** s * poly, scalar)
    # each branch gathers its t by index (take) and scatters by index (put),
    # which costs a fraction of boolean-mask indexing on large arrays
    flat, out = arr.ravel(), np.empty(arr.shape)
    lo, one = np.flatnonzero(flat <= 0.5), np.flatnonzero(flat == 1.0)
    hi = np.flatnonzero((flat > 0.5) & (flat < 1.0))
    if len(one) and s <= 0:
        raise DivergenceError(f"hyp2f1 diverges at t=1 when c-a-b={s} <= 0")
    if len(lo):
        out.put(lo, _horner(_ratio_coeffs(a, b, c, 1.0), flat.take(lo)))
    try:
        if len(one):
            out.put(one, math.gamma(c) * math.gamma(s) / (math.gamma(c - a) * math.gamma(c - b)))
        if len(hi):
            with np.errstate(over="raise"):
                out.put(hi, _hyp2f1_near_one(a, b, c, 1.0 - flat.take(hi)))
    except (OverflowError, FloatingPointError) as exc:
        raise DomainError(f"hyp2f1 gamma factors overflow for a={a}, b={b}, c={c}") from exc
    return _maybe_scalar(out, scalar)


def _bisect(f, a, b, tol: float):
    """(a, b, steps): every bracket [a_i, b_i] bisected at once, one f(lanes, t) call a step.

    A lane keeps the half whose ends differ in sign and stops at an exact
    zero z (the bracket ends as [z, z], that step not counted), at width tol,
    or when its midpoint equals an end: it is one float wide.  Each lane is
    the one a bisection of it alone would give; the inputs are not changed.
    """
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    sign_a = np.sign(f(np.arange(a.size), a))
    steps = np.zeros(a.size, dtype=int)
    lanes = np.flatnonzero(b - a > tol)
    while lanes.size:
        mid = 0.5 * (a[lanes] + b[lanes])
        inside = (mid != a[lanes]) & (mid != b[lanes])
        lanes, mid = lanes[inside], mid[inside]
        if not lanes.size:
            break
        fm = f(lanes, mid)
        zero = fm == 0.0
        left = np.sign(fm) == sign_a[lanes]
        a[lanes] = np.where(zero | left, mid, a[lanes])
        b[lanes] = np.where(zero | ~left, mid, b[lanes])
        steps[lanes] += ~zero
        lanes = lanes[~zero & (b[lanes] - a[lanes] > tol)]
    return a, b, steps


def jnu_zeros(nu: float, t_max: float) -> np.ndarray:
    """Positive zeros of J_nu (equivalently of jj_nu) up to t_max, ascending; each
    bisected (_bisect) from a sign change on a grid 1/4 apart to one float wide."""
    return np.asarray(_jnu_zeros_cached(float(nu), math.ceil(t_max)))


@lru_cache(maxsize=32)
def _jnu_zeros_cached(nu: float, t_cap: int) -> tuple:
    step = 0.25
    grid = np.arange(step, t_cap + step, step)
    vals = _jj_vec(nu, grid)
    on_grid = grid[:-1][vals[:-1] == 0.0]
    i = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
    a, b, _ = _bisect(lambda lanes, t: _jj_vec(nu, t), grid[i], grid[i + 1], 0.0)
    zeros = np.sort(np.concatenate([on_grid, 0.5 * (a + b)]))
    return tuple(float(z) for z in zeros if z <= t_cap)

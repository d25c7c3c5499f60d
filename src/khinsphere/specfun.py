"""Special functions: gamma family, normalized Bessel functions, Gauss 2F1.

Every function is pure and array-capable (numpy broadcasting); scalar inputs
give scalar outputs.  Gamma and log Gamma are math.gamma and math.lgamma
elementwise.  The normalized Bessel function ``jj(nu, t)`` is
2^nu Gamma(nu+1) t^(-nu) J_nu(t), the characteristic function of a vector
uniform on the unit sphere S^(d-1) at radius t, with nu = d/2 - 1.  It has
one evaluator on one switch: a power series where t < max(5, nu) and, above,
Cephes' large-argument J0/J1 with forward recurrence, stable there as t > nu.
jj_1' = -(t/4) jj_2 (DLMF 10.6.6) comes from the same evaluator.
"""
from __future__ import annotations

import contextlib
import math
import operator
import sys
from functools import lru_cache, reduce

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
_POCHHAMMER_K_MAX = 10_000  # largest k of pochhammer, checked before any product
_ZEROS_T_MAX = 1e4  # largest t_max of jnu_zeros, checked before the grid is built
# hyp2f1's parameter-only set-up is cached per parameter set; a Monte Carlo
# batch or a verifier grid reuses a handful of sets, each a few KB
_SETUP_CACHE = 32


def _as_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _maybe_scalar(arr, scalar):
    return float(arr) if scalar else arr


def _horner(cs, x):
    """sum_k cs[k] x^k for coefficients cs in ascending order.  With cs[k] of shape (rows, 1),
    one pass sums rows of series at one x; row i gets exactly the steps of a pass of its own."""
    acc = np.full(np.broadcast(cs[-1], x).shape, cs[-1])
    for c in cs[-2::-1]:
        acc *= x
        acc += c
    return acc


def _gamma1(x: float) -> float:
    try:
        return math.gamma(x)
    except OverflowError:  # |Gamma(x)| above the largest float: x > 171.62 or x next to 0
        return math.copysign(math.inf, x)


def gamma(x):
    """Gamma function on the real line (poles at nonpositive integers): math.gamma elementwise.

    Gamma(x) exceeds the largest float for x > 171.62 and is inf there,
    gamma(inf) = inf included, without a warning.  A NaN raises DomainError.
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
    """log Gamma(x) for x > 0: math.lgamma elementwise.

    log Gamma(x) exceeds the largest float for x > 2.56e305 and is inf there,
    log_gamma(inf) = inf included, without a warning.  x <= 0 and NaN raise
    DomainError.  A scalar input returns a float.
    """
    if isinstance(x, float):  # np.float64 too: the array set-up costs 30 times math.lgamma's
        if not x > 0.0:  # NaN too
            raise DomainError(f"log_gamma requires x > 0, got {x!r}")
        try:
            return math.lgamma(x)
        except OverflowError:  # log Gamma(x) above the largest float: x > 2.56e305
            return math.inf
    arr, scalar = _as_array(x)
    if not np.all(arr > 0):
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    try:  # the builtin itself: a Python wrapper per element cost 10-30% more on 12k points
        out = np.fromiter(map(math.lgamma, arr.ravel().tolist()), float, arr.size)
    except OverflowError:
        out = np.fromiter(map(log_gamma, arr.ravel().tolist()), float, arr.size)
    return _maybe_scalar(out.reshape(arr.shape), scalar)


def _power_product(powers, gammas=(), coeff=None):
    """prod b^e over powers (b > 0, or 0 with e >= 0) times prod Gamma(x), x > 0, times coeff: the
    closed forms' one float-range rule; the inputs broadcast.  Where every factor is a normal
    float, the product as written, left to right and coeff last, with no numpy call for float
    input; elsewhere, lane by lane, one exp of the sum of the factors' logs and of coeff's
    binary exponent, times coeff's mantissa.  Beyond the largest float it is +-inf, below the
    normal ones 0 or subnormal, and it never warns."""
    floats = all(type(x) is float for pair in powers for x in pair)
    with contextlib.nullcontext() if floats else np.errstate(all="ignore"):
        try:
            factors = [b ** e for b, e in powers]
        except OverflowError:  # a float power above the largest float
            factors = [math.inf]
        factors += [gamma(x) for x in gammas]
        val = reduce(operator.mul, factors if coeff is None else factors + [coeff])
        normal = reduce(operator.and_, [(sys.float_info.min <= f) & (f < math.inf) for f in factors])
    if normal if type(normal) is bool else normal.all():  # a bool for float factors
        return val
    with np.errstate(all="ignore"):
        logs = sum(e * np.log(b) for b, e in powers) + sum(log_gamma(x) for x in gammas)
        mantissa, exponent = np.frexp(1.0 if coeff is None else coeff)
        out = np.exp(logs) if coeff is None else np.exp(logs + exponent * math.log(2.0)) * mantissa
        out = np.where(normal, val, out)
    return float(out) if out.ndim == 0 else out


def _in_range(value, name: str, **inputs):
    """value, a float if it is one number, where it is finite; else DomainError "name(inputs) is
    out of reach: above the largest float", quoting array inputs at the first lane not finite."""
    if type(value) is float and math.isfinite(value):
        return value
    ok = np.isfinite(value)
    if ok.all():
        return value if ok.ndim else float(value)
    at = int(np.argmin(ok))
    quoted = (np.broadcast_to(x, ok.shape).flat[at] if isinstance(x, np.ndarray) and x.ndim else x
              for x in inputs.values())
    args = ", ".join(f"{k}={x}" for k, x in zip(inputs, quoted))
    raise DomainError(f"{name}({args}) is out of reach: above the largest float")


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
    """Rising factorial (x)_k = x (x+1) ... (x+k-1), (x)_0 = 1, for integer 0 <= k <= 10^4
    (_POCHHAMMER_K_MAX); a larger k, checked before any product, and a NaN x raise DomainError."""
    if not (0 <= k <= _POCHHAMMER_K_MAX and k == int(k)):  # NaN and inf too
        raise DomainError(f"pochhammer requires integer 0 <= k <= {_POCHHAMMER_K_MAX}, got {k!r}")
    arr, scalar = _as_array(x)
    if not np.all(arr == arr):  # NaN
        raise DomainError(f"pochhammer is undefined at NaN, in {x!r}")
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
    """d/dt jj_1(t) = -(t/4) jj_2(t) = -2 J2(t)/t, from DLMF 10.6.6, for a float or an array
    of finite t >= 0 (jj's check); within 3e-16 of mpmath on [0, 30]."""
    return -(t / 4.0) * jj(2.0, t)


def _check_order(nu: float) -> None:
    if not (0.0 <= nu < math.inf and 2.0 * nu == round(2.0 * nu)):  # NaN too
        raise DomainError(f"jj's order must be a multiple of 1/2 with nu >= 0, got nu={nu}")


def jj(nu: float, t):
    """Normalized Bessel jj_nu(t) = 2^nu Gamma(nu+1) t^(-nu) J_nu(t).

    A fixed 48-term power series where t < max(5, nu), for every order, and
    beyond it large-argument J0/J1 with forward recurrence; scalar and array
    input share this one evaluator.  Orders are the sphere family nu = d/2 - 1,
    multiples of 1/2, and t is finite and >= 0; any other nu or t (NaN and inf
    too) raises DomainError.  Against mpmath: within 2e-15 absolute for nu <= 9,
    about 1e-14 up to nu = 30, and worse beyond, as the series cancels near
    t = nu (1e-12 at nu = 50).
    """
    _check_order(nu)
    arr, scalar = _as_array(t)
    if not np.all((arr >= 0.0) & (arr < math.inf)):  # NaN too
        raise DomainError(f"jj requires finite t >= 0, got {t!r}")
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

    Returns (m, eps, h, head, k, rows), the arrays read-only: the regular
    head is h * sum_j head_j w^j (m > 0 only), and the paired terms are
    k w^m sum_j w^j (cs_j (w^eps - 1)/eps + cs_nu_j w^eps), with cs and cs_nu
    stacked as _horner's rows, rows[j] = ((cs_j,), (cs_nu_j,)).
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
    rows = np.stack((cs, cs * nu), axis=1)[:, :, None]
    rows.setflags(write=False)
    return m, eps, h, head, k, rows


def _hyp2f1_near_one(a: float, b: float, c: float, w):
    """2F1(a, b; c; 1-w) for 0 < w <= 1/2, non-terminating: DLMF 15.8.4 in 1-z.

    With c-a-b = m + eps, m the nearest integer, the terms of the two series of
    15.8.4 that carry w^(m+j) are paired.  The 1/eps of Gamma(+-eps) is
    cancelled analytically, each pair being written through divided
    differences of log Gamma in eps (_lgamma_slopes) and expm1.  The result is
    one formula, as accurate at eps = 1e-9 as at eps = 1/2, and at eps = 0 it
    is the logarithmic case 15.8.10 with its digamma terms.  Everything that
    depends on (a, b, c) alone comes from _near_one_setup's cache.  The paired
    series cs and cs_nu are two rows of one Horner pass over the 1-D w.
    """
    s = math.fsum((c, -a, -b))
    if round(s) < 0:  # Euler's transformation makes c-a-b positive
        return w**s * _hyp2f1_near_one(c - a, c - b, c, w)
    m, eps, h, head, k, rows = _near_one_setup(a, b, c)
    # k w^m (e sum cs_j w^j + w^eps sum cs_nu_j w^j), e = (w^eps - 1)/eps,
    # in place, so that few arrays of len(w) are alive at once
    e = np.log(w)
    e *= _exprel(eps * e)
    tail, nu_sum = _horner(rows, w)
    tail *= e
    nu_sum *= w**eps
    tail += nu_sum
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
      to the logarithmic case 15.8.10 at an integer (_hyp2f1_near_one); its
      two paired series share one Horner pass, half the numpy calls of two.
    - a or b a nonpositive integer: the polynomial, on all of [0, 1]; c-a or c-b one:
      (1-t)^(c-a-b) times a polynomial (Euler), by _power_product; DomainError above range.
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
    for p1, p2, power in ((a, b, 0.0), (b, a, 0.0), (c - a, c - b, s), (c - b, c - a, s)):
        if _nonpos_int(p1):
            if power < 0 and np.any(arr == 1.0):
                raise DivergenceError(f"hyp2f1 diverges at t=1 when c-a-b={s} < 0")
            with np.errstate(all="ignore"):
                poly = _horner(_ratio_coeffs(p1, p2, c, 1.0, n_max=round(-p1)), arr)
            out = poly if power == 0.0 else _power_product(((1.0 - arr, s),), coeff=poly)
            return _in_range(out, "hyp2f1", a=a, b=b, c=c, t=arr)  # a float for a scalar t
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
    """Positive zeros of J_nu (equivalently of jj_nu) up to ceil(t_max), ascending; each
    bisected (_bisect) from a sign change on a grid 1/4 apart to one float wide.  nu is one of
    jj's orders and t_max <= 10^4 (_ZEROS_T_MAX), both checked first, else DomainError."""
    _check_order(nu)
    if not t_max <= _ZEROS_T_MAX:  # NaN too
        raise DomainError(f"jnu_zeros requires t_max <= {_ZEROS_T_MAX:g}, got {t_max}")
    nu, t_cap = float(nu), math.ceil(t_max)
    grid = np.arange(0.25, t_cap + 0.25, 0.25)
    vals = jj(nu, grid)
    on_grid = grid[:-1][vals[:-1] == 0.0]
    i = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
    a, b, _ = _bisect(lambda lanes, t: _jj_vec(nu, t), grid[i], grid[i + 1], 0.0)
    zeros = np.sort(np.concatenate([on_grid, 0.5 * (a + b)]))
    return zeros[zeros <= t_cap]

"""The section-3 integral functionals and the product-Bessel moment integral.

F(p,s) = int_0^inf |jj_1(t)|^s t^(p-1) dt takes one route for every s: on
jj_1's first arch, in u = t sqrt(s), a power-series head on u <= 1/2 (it
handles the t^(p-1) singularity exactly) and Gauss-Legendre panels graded
toward the zero j_1,1 sqrt(s); fixed panels graded toward the zeros of J_1
up to T ~ 47, built once; all panels summed in logs; and beyond T the
asymptotic Watson-expansion tail from ``oscillatory``, summed to 1e-10
absolute and dropped where Watson's envelope bounds it below 1e-13 of F.
Where the tail is needed and s > 141, F raises DomainError.  Per distinct
s, F sums every p of that s as array operations.  No error estimate is
returned.

G, U, H, G_tilde and H_tilde are closed forms (or differences with F) that
take arrays as well.  The same pattern evaluates E|sum a_k xi_k|^(-p)
through the product formula.  There the panels are sized by the integrand's
bandwidth sum_k a_k (width 32/sum_k a_k, where the 24-point Gauss-Legendre
remainder is below 5.6e-18 of the half-width, graded by 1.5 from t = 1 up
to that width), all factors are evaluated in one call per block of panels,
and there are at most 200,000 panels (ToleranceError beyond).  The panels
stop early, and the asymptotic tail is skipped, where an explicit
Bessel-envelope bound puts everything beyond below 1e-13 of the result.

The one-sided bounds on F behind Tables 2-3 (``table2_log_bound``,
``table3_scaled_bound``) and interpolation~ follow the paper's hand
computations (endpoint-max Riemann sums on the monotone range, midpoint sums
with a derivative constant, envelope tails); the table bounds are
quasi-certified: evaluated in double precision with a cumulative-rounding
inflation rather than directed rounding.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import oscillatory as osc
from .constants import D, MomentQuery, normalizers
from .errors import ConvergenceError, DivergenceError, DomainError, ToleranceError
from .oscillatory import (_PANEL_BLOCK, _TAIL_S_MAX, _in_blocks, _panel_quad, _panel_rule,
                          series_pow)
from .specfun import gamma, jj1_prime, jnu_zeros, _jj_norm_const, _jj_series_coeffs, _jj_vec

__all__ = [
    "IntegralParams",
    "F",
    "G",
    "H",
    "U",
    "G_tilde",
    "H_tilde",
    "product_moment",
    "table2_log_bound",
    "table3_scaled_bound",
]

_J11 = 3.831705970207512  # the first zero of J_1: the end of jj_1's first arch
_HEAD_U = 0.5  # F's series head covers u = t sqrt(s) <= this
_HEAD_TERMS = 12  # terms of F's head series in u^2: at u = 1/2 the 13th is below 1e-25
_GRADE_LEVELS = 10  # F's panels next to a zero of J_1 shrink this many times toward it,
_GRADE_RATIO = 0.25  # by this ratio each time
_REL_CUT = 1e-13  # F drops a tail below this fraction of F
_LOG_FLOAT_MAX = 709.0  # just below the log of the largest float
_TAIL_START = 46.0  # F's panels end at the first zero of J_1 at or beyond this
_TAIL_TOL = 1e-10  # absolute tolerance of F's asymptotic tail
_MAX_PANELS = 200_000  # product_moment's panel budget
# product_moment's panel width times the bandwidth Omega = sum_k a_k.  The 24-point
# Gauss-Legendre remainder on a panel of half-width h (DLMF 3.5(v)) is at most
# 8.9e-76 (Omega h)^48 h for a factor e^(i Omega t); at Omega h = 16 that is 5.6e-18 h.
_PANEL_OMEGA_H = 32.0
_PANEL_GROWTH = 1.5  # ratio of consecutive panel edges near t = 1 in product_moment
_CUT_REL = 1e-13  # product_moment's dropped tail, relative to the Jensen floor |a|^(-p)
_HEAD_PRODUCT_TERMS = 48  # terms of product_moment's head series in t^2
_M_S83 = 100  # subdivisions per unit of the s = 8/3 bounds (Table 2, interpolation~)
_M_S13 = 200  # subdivisions per unit of the s = 1.3 bound (Table 3)


@dataclass(frozen=True)
class IntegralParams:
    """(p, s) for the F/G/H/U family: two floats, or arrays that broadcast together.

    Arrays evaluate elementwise, as the scalar calls would; an element outside
    the domain raises the error its scalar call raises.
    """

    p: float | np.ndarray
    s: float | np.ndarray

    def __post_init__(self) -> None:
        if np.ndim(self.p) or np.ndim(self.s):
            object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
            object.__setattr__(self, "s", np.asarray(self.s, dtype=float))
        p, s = self.p, self.s
        _require(np.isfinite(p) & np.isfinite(s), DomainError,
                 "p and s must be finite, got p={p}, s={s}", p, s)
        _require(p > 0, DomainError, "p must be positive, got {p}", p, s)
        _require(s >= 1, DomainError, "s must be >= 1, got {s}", p, s)


def _require(ok, error: type, message: str, p, s) -> None:
    """Raise error, quoting the first (p, s) element where ok fails, if any does."""
    ok = np.asarray(ok)
    if not np.all(ok):
        ok, p, s = np.broadcast_arrays(ok, p, s)
        i = int(np.argmin(ok))
        raise error(message.format(p=p.flat[i], s=s.flat[i]))


# ----------------------------------------------------------------------------
# panel machinery
# ----------------------------------------------------------------------------

def _graded_edges(a: float, b: float) -> np.ndarray:
    """Edges on [a, b] graded toward both ends: _GRADE_RATIO^k of the width from
    each end, k = _GRADE_LEVELS..1, and the midpoint."""
    fracs = [0.0] + [_GRADE_RATIO**k for k in range(_GRADE_LEVELS, 0, -1)] + [0.5]
    fracs += [1.0 - f for f in reversed(fracs[:-1])]
    return a + (b - a) * np.asarray(fracs)


def _series_head(b: np.ndarray, p, a0: float):
    """int_0^a0 sum_k b[k] t^(2k) t^(p-1) dt, integrated term by term; p may be an array."""
    e = 2 * np.arange(len(b)) + np.asarray(p, dtype=float)[..., None]
    return np.sum(b * a0**e / e, axis=-1)


@lru_cache(maxsize=512)
def _arch_head_coeffs(s: float) -> np.ndarray:
    """The series of jj_1(u/sqrt(s))^s in u^2."""
    c = np.asarray(_jj_series_coeffs(1.0, _HEAD_TERMS)) / s ** np.arange(_HEAD_TERMS)
    return series_pow(c, s, _HEAD_TERMS - 1)


def _arch_head(p, s: float):
    """int_0^(1/2) jj_1(u/sqrt(s))^s u^(p-1) du, F's head in u = t sqrt(s), integrated
    term by term; p may be an array."""
    return _series_head(_arch_head_coeffs(s), p, _HEAD_U)


@lru_cache(maxsize=1)
def _middle_plan() -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """F's panels on [j_1,1, T], which neither p nor s changes: log t, log|jj_1| and
    log(w half) at the nodes, flat, and T.

    The panels are graded toward each zero of J_1 in [j_1,1, T], and T is the
    first zero at or beyond _TAIL_START.
    """
    zs = jnu_zeros(1.0, _TAIL_START + 4.5)
    T = float(zs[zs >= _TAIL_START][0])
    pts = zs[zs <= T]
    edges = np.concatenate([_graded_edges(lo, hi)[:-1] for lo, hi in zip(pts[:-1], pts[1:])]
                           + [[T]])
    nodes, w, half = _panel_rule(edges)
    return (np.log(nodes).ravel(), np.log(np.abs(_jj_vec(1.0, nodes))).ravel(),
            np.log(w * half).ravel(), T)


def _arch_panels(s: float) -> tuple[np.ndarray, np.ndarray]:
    """F's panels on jj_1's first arch beyond the head, u in [1/2, u1], u1 = j_1,1 sqrt(s):
    log t and s log jj_1 + log(w half) at the nodes, flat, in t = u/sqrt(s).

    The panels are about 1/2 wide in u.  The last is graded toward u1, where
    jj_1^s ~ (j_1,1 - t)^s: it is split at u1 - L _GRADE_RATIO^k,
    k = 1.._GRADE_LEVELS, L its width.
    """
    u1 = _J11 * math.sqrt(s)
    edges = np.linspace(_HEAD_U, u1, math.ceil(2.0 * (u1 - _HEAD_U)) + 1)
    grade = u1 - (u1 - edges[-2]) * _GRADE_RATIO ** np.arange(1.0, _GRADE_LEVELS + 1.0)
    un, uw, uh = _panel_rule(np.concatenate([edges[:-1], grade, [u1]]), order=24)
    log_root_s = 0.5 * math.log(s)
    log_g = s * np.log(_jj_vec(1.0, un / math.sqrt(s))) + (np.log(uw * uh) - log_root_s)
    return (np.log(un) - log_root_s).ravel(), log_g.ravel()


def F(params: IntegralParams):
    """F(p, s) = int_0^inf |jj_1(t)|^s t^(p-1) dt, finite for p < 3s/2.

    One route for every s.  On jj_1's first arch, t <= j_1,1, the variable
    is u = t sqrt(s), where jj_1(u/sqrt(s))^s ~ e^(-u^2/8): a series head on
    u <= 1/2, then Gauss panels about 1/2 wide, the last graded toward the
    zero u = j_1,1 sqrt(s).  On [j_1,1, T] come fixed panels graded toward
    each zero of J_1, T ~ 47.  All panels are summed in logs, scaled by their
    largest term, so large p neither overflows nor underflows.  Beyond T,
    |jj_1(t)| <= C t^(-3/2) with C = sqrt(8/pi) (T^2/(T^2-1))^(1/4) (Watson
    13.74, as in ``_bessel_envelope``), so the tail is at most
    C^s T^(p-3s/2) / (3s/2-p).  It is dropped where that is at most 1e-13 of
    the rest, and otherwise taken from one ``tail_abs_pow`` call for all
    such p of one s.

    The work that depends only on s is done once per distinct s of
    ``params``, and the sums for all p of that s as array operations.
    Returns a float for scalar params, else an array of their broadcast shape.

    F raises DomainError where it exceeds the float range, and where s > 141
    and the tail is needed: the tail's Fourier coefficients overflow there.
    That is a band just below p = 3s/2: 3s/2 - p below about 8 at s = 150,
    5 at s = 500 and 0.3 at s = 1000.  F is never inf or nan.
    """
    p, s = np.broadcast_arrays(params.p, params.s)
    _require(p < 1.5 * s, DivergenceError, "F diverges for p={p} >= 3s/2={s}", p, 1.5 * s)
    pf, sf = p.ravel(), s.ravel()
    out = np.empty(pf.shape)
    for s_val in sorted(set(sf.tolist())):  # not np.unique, which imports numpy.ma
        at = sf == s_val
        out[at] = _F_at_s(pf[at], float(s_val))
    return float(out[0]) if p.ndim == 0 else out.reshape(p.shape)


def _F_at_s(p: np.ndarray, s: float) -> np.ndarray:
    """F at one s for every p of a 1-d array: the head, all panels in one log sum, the tail."""
    log_t_mid, log_jj_mid, log_wh_mid, T = _middle_plan()
    log_t_arch, log_g_arch = _arch_panels(s)
    log_panels = _log_panel_sum(np.concatenate([log_g_arch, s * log_jj_mid + log_wh_mid]),
                                np.concatenate([log_t_arch, log_t_mid]), p)
    head = _arch_head(p, s)  # 0 where it underflows
    log_head = np.log(head, out=np.full(len(p), -np.inf), where=head > 0.0)
    log_main = np.logaddexp(log_head - 0.5 * p * math.log(s), log_panels)

    c_env = math.sqrt(8.0 / math.pi) * (T * T / (T * T - 1.0)) ** 0.25
    log_tail_bound = s * math.log(c_env) + (p - 1.5 * s) * math.log(T) - np.log(1.5 * s - p)
    need_tail = log_tail_bound - log_main > math.log(_REL_CUT)
    _require((log_main < _LOG_FLOAT_MAX) & ~(need_tail & (s > _TAIL_S_MAX)), DomainError,
             "F(p={p}, s={s}) is out of reach: beyond the float range, or the tail is needed"
             " and s > 141", p, s)
    # the head is added outside the logs: a round trip through them costs |log F| ulps
    vals = head * s ** (-0.5 * p) + np.exp(log_panels)
    if need_tail.any():
        vals[need_tail] += osc.tail_abs_pow(p[need_tail], s, T, tol=_TAIL_TOL)
    return vals


def _log_panel_sum(log_g: np.ndarray, log_t: np.ndarray, p: np.ndarray) -> np.ndarray:
    """log sum_i e^(log_g[i] + (p-1) log_t[i]) for each p, each sum scaled by its largest term."""
    def block(pb):
        log_f = np.multiply.outer(pb - 1.0, log_t)
        log_f += log_g
        scale = np.max(log_f, axis=1, keepdims=True)
        log_f -= scale
        return np.log(np.sum(np.exp(log_f, out=log_f), axis=1)) + scale[:, 0]
    return _in_blocks(block, p, len(log_t))


def G(params: IntegralParams):
    """G(p, s) = int_0^inf e^(-s t^2/8) t^(p-1) dt = s^(-p/2) 2^(3p/2-1) Gamma(p/2)."""
    p, s = params.p, params.s
    return s ** (-p / 2.0) * 2.0 ** (1.5 * p - 1.0) * gamma(p / 2.0)


def H(params: IntegralParams):
    """H(p, s) = G(p, s) - F(p, s), defined for 0 < p < 3, s > 1, p < 3s/2."""
    p, s = params.p, params.s
    _require((p < 3.0) & (s > 1.0), DomainError,
             "H requires 0 < p < 3 and s > 1, got IntegralParams(p={p}, s={s})", p, s)
    return G(params) - F(params)


def U(params: IntegralParams):
    """The explicit upper envelope of F built from the two jj_1 bounds."""
    p, s = params.p, params.s
    _require(p < 1.5 * s, DivergenceError, "U has a pole at p = 3s/2; got p={p}, s={s}", p, s)
    first = 4.0**p * (2.0 * math.pi * math.sqrt(15.0)) ** (-s / 2.0) / (1.5 * s - p)
    h = p / 2.0  # Gamma(h + 2) = Gamma(h) h (h+1), and Gamma(h + 4) on from it
    rise = h * (h + 1.0)
    second = G(params) * (1.0 - rise / (6.0 * s) + rise * (h + 2.0) * (h + 3.0) / (72.0 * s * s))
    return first + second


def G_tilde(params: IntegralParams):
    """G~(p, s) = s^(-p/2) 2^(3p/2-1) Gamma(p/2) D(p); equals F(p,2) at s=2."""
    p = params.p
    _require((2.0 <= p) & (p < 3.0), DomainError, "G_tilde requires 2 <= p < 3, got {p}",
             p, params.s)
    return G(params) * D(p)


def H_tilde(params: IntegralParams):
    """H~(p, s) = G~(p, s) - F(p, s); vanishes identically at s = 2."""
    p, s = params.p, params.s
    _require((2.0 <= p) & (p < 3.0) & (s > 1.0), DomainError,
             "H_tilde requires 2 <= p < 3 and s > 1, got IntegralParams(p={p}, s={s})", p, s)
    return G_tilde(params) - F(params)


# ----------------------------------------------------------------------------
# product-Bessel negative moment
# ----------------------------------------------------------------------------

def product_moment(query: MomentQuery) -> float:
    """E|sum a_k xi_k|^(-p) via kappa_{p,d} int prod_k jj_(d/2-1)(|a_k| t) t^(p-1) dt.

    Requires q = -p with 0 < p < d and absolute convergence p < n(d-1)/2, n the
    number of weights above 1e-12 |a|; otherwise a ConvergenceError asks the
    caller to fall back to Monte Carlo.  The weights below are dropped, except
    where p > d - 2 and exactly two remain, within 1e-6 |a| of each other: then
    every nonzero weight counts, as xi_1 + xi_2 has density ~|v|^(d-2) at 0 and
    a weight eps |a| moves the moment by O(eps^(d-1-p)): at (4, 2.9, (1, 1, 1e-13))
    the pair alone gives 6.6226, 4.6% above Monte Carlo's 6.3290 +- 0.00004.
    There the panels reach 25/eps and raise ToleranceError.

    The integral is a series head on [0, 1], Gauss panels up to T, and the
    sign-pattern tail beyond T = max(46, nu^2/2, 25/a_min) (weights scaled to |a| = 1).
    The panels are sized by the integrand's bandwidth: its frequencies are at
    most Omega = sum_k a_k, and a panel of width 32/Omega spans at most 16
    radians of every factor on each side of its centre.  There the 24-point
    Gauss-Legendre remainder (DLMF 3.5(v)) of a factor e^(i Omega t) is at
    most 8.9e-76 (Omega h)^48 h = 5.6e-18 h, h the half-width.  From t = 1
    the panels grow by half their left end until they reach that width,
    which keeps the branch point of t^(p-1) at 0 far from each of them;
    beyond, they are even.  All n factors are evaluated in one
    ``_jj_vec`` call per block of panels, with n x panels per block within
    one block of ``_panel_quad``.
    When ``_envelope_cut`` finds a smaller T_env at which an explicit bound on
    everything beyond is at most 1e-13/kappa, the panels end at T_env and that
    rest is dropped.  By Jensen the result is at least |a|^(-p), so the
    dropped part is below 1e-13 of it, a priori.  More than 200,000 panels
    raise ToleranceError.

    The tail's Hankel expansion holds only for t >> nu^2, nu = d/2 - 1 (DLMF
    10.17), hence nu^2/2 (from d = 22).  For weights (1, b), b in {1, 0.95, 0.7,
    0.3, 0.05}, p in {0.5, 1, 2, 3.5} and even d in [12, 62] the result is within
    6.4e-14 of the 2F1 (T = max(46, 25/a_min) gave 2.4e-9 at d = 40, 8.0e-2 at
    d = 62).  Near p = n(d-1)/2 it degrades from d ~ 12 whatever T: (1, 0.7) at
    d = 16, p = 13.5 is 2.1e-7 off.
    """
    d, p = query.d, -query.q
    if not 0.0 < p < d:
        raise DomainError(f"product_moment needs q = -p with 0 < p < d, got q={query.q}")
    norm = query.norm
    amps = sorted((abs(a) / norm for a in query.coeffs if abs(a) > 1e-12 * norm), reverse=True)
    if len(amps) == 2 and p > d - 2 and amps[0] - amps[1] <= 1e-6:  # next to an equal pair
        amps = sorted((abs(a) / norm for a in query.coeffs if a != 0.0), reverse=True)
    n = len(amps)
    if n == 1:
        return float(norm ** (-p))  # single sphere vector: |a xi| = |a|
    if p >= n * (d - 1) / 2.0:
        raise ConvergenceError(
            f"integral not absolutely convergent: p={p} >= n(d-1)/2={n * (d - 1) / 2.0};"
            " use the hypergeometric route (n=2) or Monte Carlo"
        )
    nu = d / 2.0 - 1.0
    kappa = normalizers(p, d).kappa
    a0 = 1.0
    T_full = max(46.0, 0.5 * nu * nu, 25.0 / amps[-1])
    T_env = _envelope_cut(amps, nu, p, _CUT_REL / kappa)
    cut = T_env < T_full
    T = max(T_env, a0) if cut else T_full
    head = _head_product(amps, nu, p, a0)
    col = np.asarray(amps)[:, None]

    def integrand(t):
        return t ** (p - 1.0) * np.prod(_jj_vec(nu, col * t), axis=0)

    edges = _moment_edges(a0, T, _PANEL_OMEGA_H / sum(amps))
    middle = _panel_quad(integrand, edges, order=24, block=max(1, _PANEL_BLOCK // n))
    tail = 0.0 if cut else osc.tail_product(amps, nu, p, T)
    return float(kappa * (head + middle + tail) * norm ** (-p))


def _moment_edges(a0: float, T: float, width: float) -> np.ndarray:
    """product_moment's panel edges on [a0, T]: panels [t, 1.5 t] from a0 while
    their width t/2 is below ``width``, then even panels of at most ``width``.
    Raises ToleranceError beyond _MAX_PANELS panels."""
    graded = [a0]
    while graded[-1] < T and graded[-1] * (_PANEL_GROWTH - 1.0) < width:
        graded.append(graded[-1] * _PANEL_GROWTH)
    start = graded.pop()
    if start >= T:
        return np.asarray(graded + [T])
    n_panels = len(graded) + math.ceil((T - start) / width)
    if n_panels > _MAX_PANELS:
        raise ToleranceError(f"panel budget exceeded: {n_panels} > {_MAX_PANELS}")
    return np.concatenate([graded, np.linspace(start, T, n_panels - len(graded) + 1)])


@lru_cache(maxsize=32)
def _bessel_envelope(nu: float) -> tuple[float, float]:
    """(C, x0) with |jj_nu(x)| <= C x^(-nu-1/2) for every x >= x0, nu >= 0.

    Source: Watson, A Treatise on the Theory of Bessel Functions (2nd ed.,
    1944), section 13.74, from Nicholson's formula for J_nu^2 + Y_nu^2:
    (x^2 - nu^2)^(1/2) (J_nu^2 + Y_nu^2) increases to 2/pi for x > nu > 1/2,
    and x (J_nu^2 + Y_nu^2) does for |nu| < 1/2 (it is 2/pi at nu = 1/2).
    So, with jj_nu(x) = 2^nu Gamma(nu+1) x^(-nu) J_nu(x):
    * nu > 1/2: J_nu(x)^2 <= (2/pi) (x^2 - nu^2)^(-1/2), and for x >= x0 = 2 nu
      the factor (x^2/(x^2 - nu^2))^(1/4) is at most (4/3)^(1/4);
    * 0 <= nu <= 1/2: J_nu(x)^2 <= 2/(pi x) for all x > 0, so x0 = 0.
    At nu = 1 this is the envelope of the paper's jj_1 tail bounds (Tables 2-3, interpolation~).
    """
    c = _jj_norm_const(nu) * math.sqrt(2.0 / math.pi)
    if nu <= 0.5:
        return c, 0.0
    return c * (4.0 / 3.0) ** 0.25, 2.0 * nu


def _envelope_cut(amps, nu: float, p: float, tol: float) -> float:
    """Smallest T at which an explicit bound on the tail of product_moment's integral is <= tol.

    The tail is int_T^inf prod_k |jj_nu(a_k t)| t^(p-1) dt, with ``amps``
    sorted in decreasing order.  For each j, the j largest factors take the
    envelope C (a_k t)^(-nu-1/2) of ``_bessel_envelope``, valid once
    a_j T >= x0, and the others |jj_nu| <= 1 (DLMF 10.14.4, nu >= -1/2).  The
    bound is then K_j T^(-e_j) / e_j with e_j = j (nu+1/2) - p > 0 and
    K_j = prod_(k<=j) C a_k^(-nu-1/2), which equals tol at
    log T_j = (log K_j - log e_j - log tol) / e_j; T_j is raised to x0/a_j.
    Returns min_j T_j, or inf when no j qualifies (T_j beyond e^700).  The
    work is in logs: K_j itself can overflow.
    """
    c, x0 = _bessel_envelope(nu)
    log_t, log_k = math.inf, 0.0
    for j, a in enumerate(amps, start=1):
        log_k += math.log(c) - (nu + 0.5) * math.log(a)
        e = j * (nu + 0.5) - p
        if e > 0.0:
            lt = (log_k - math.log(e) - math.log(tol)) / e
            if x0 > 0.0:
                lt = max(lt, math.log(x0 / a))
            log_t = min(log_t, lt)
    return math.exp(log_t) if log_t < 700.0 else math.inf


def _head_product(amps, nu: float, p: float, a0: float) -> float:
    base = np.asarray(_jj_series_coeffs(nu, _HEAD_PRODUCT_TERMS))
    prod = np.zeros(_HEAD_PRODUCT_TERMS)
    prod[0] = 1.0
    for a in amps:
        scaled = base * (a * a) ** np.arange(_HEAD_PRODUCT_TERMS)
        prod = np.convolve(prod, scaled)[:_HEAD_PRODUCT_TERMS]
    return _series_head(prod, p, a0)


# ----------------------------------------------------------------------------
# certified (one-sided) bounds on F: Tables 2-3 and interpolation~
# ----------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _abs_jj1_grid(lo: float, hi: float, m: int) -> np.ndarray:
    k = np.arange(int(round((hi - lo) * m)) + 1)
    return np.abs(_jj_vec(1.0, lo + k / m))


@lru_cache(maxsize=8)
def _abs_jj1_midgrid(lo: float, hi: float, m: int) -> np.ndarray:
    k = np.arange(int(round((hi - lo) * m)))
    return np.abs(_jj_vec(1.0, lo + (k + 0.5) / m))


def _riemann_monotone(p: float, s: float, lo: float, hi: float, m: int) -> float:
    """Endpoint-max Riemann upper bound; valid where jj_1 is monotone (<= 5.13)."""
    vals = _abs_jj1_grid(lo, hi, m) ** s
    sup_j = np.maximum(vals[:-1], vals[1:])
    k = np.arange(len(sup_j))
    tl, tr = lo + k / m, lo + (k + 1) / m
    sup_t = np.maximum(tl ** (p - 1.0), tr ** (p - 1.0))
    return float(np.sum(sup_j * sup_t) / m)


def _midpoint_deriv(p: float, s: float, lo: float, hi: float, m: int, dsup: float) -> float:
    """Midpoint Riemann sum plus dsup/(2m) times (hi - lo) lo^(p-1); valid for p <= 1."""
    vals = _abs_jj1_midgrid(lo, hi, m) ** s
    k = np.arange(len(vals))
    tl = lo + k / m
    sup_t = np.maximum(tl ** (p - 1.0), (lo + (k + 1) / m) ** (p - 1.0))
    main = float(np.sum(vals * sup_t) / m)
    return main + dsup / (2.0 * m) * ((hi - lo) * lo ** (p - 1.0))


@lru_cache(maxsize=4)
def _deriv_sup_abs_pow(s: float) -> float:
    """Sampled max of |d/dt |jj_1(t)|^s| on [5, 10], times 1.05; not a bound.

    No certificate uses it.  It backs the test that the paper's 0.06 (Table 3,
    s = 1.3) sits above the sampled sup, until a rigorous enclosure of that
    constant replaces the test.
    """
    t = np.linspace(5.0, 10.0, 8001)
    vals = s * np.abs(_jj_vec(1.0, t)) ** (s - 1.0) * np.abs(jj1_prime(t))
    return float(np.max(vals) * 1.05)


def _s83_head_riemann(p: float) -> float:
    """Bound on int_0^5 |jj_1|^(8/3) t^(p-1) dt, p >= 0.8: 1/(0.8 m^p) on [0, 1/m], then Riemann."""
    m = _M_S83
    return 1.0 / (0.8 * m**p) + _riemann_monotone(p, 8.0 / 3.0, 1.0 / m, 5.0, m)


def _table2_F_upper(p: float) -> float:
    """Table 2's bound on F(p, 8/3), 0.8 <= p <= 2: the tail from t0 = 5 uses p <= 2."""
    if not 0.8 <= p <= 2.0:
        raise DomainError(f"the Table 2 bound needs 0.8 <= p <= 2, got p={p}")
    tail = 2.0 / (3.0 ** (2.0 / 3.0) * 5.0 ** (8.0 / 3.0) * math.pi ** (4.0 / 3.0)) * 5.0**p
    return (_s83_head_riemann(p) + tail) * (1.0 + 2e-16 * 500)  # 2e-16 per subinterval


def _tilde_F_upper(p: float) -> float:
    """interpolation~'s bound on F(p, 8/3), 2 <= p <= 3: the tail from t0 = 5 is p-uniform."""
    tail = ((8.0 / math.pi) ** (4.0 / 3.0) * (25.0 / 24.0) ** (2.0 / 3.0)
            * 5.0 ** (p - 4.0) / (4.0 - p))
    return _s83_head_riemann(p) + tail


def _table3_F_upper(p: float) -> float:
    """Table 3's bound on F(p, 1.3), 0 < p <= 1/4: polynomial head, Riemann to 5, then midpoint
    with the paper's derivative constant 0.06 to 10, and the tail from t0 = 10."""
    if not 0.0 < p <= 0.25:
        raise DomainError(f"the Table 3 bound needs 0 < p <= 1/4, got p={p}")
    m = _M_S13
    head = 1.0 / p - 13.0 / (80.0 * (p + 2.0)) + 377.0 / (38400.0 * 4.0)
    c4 = (2.0 ** (53.0 / 20.0)
          / (11.0 ** (13.0 / 40.0) * 5.0 ** (3.0 / 10.0) * (3.0 * math.pi) ** (13.0 / 20.0)))
    bound = (head + _riemann_monotone(p, 1.3, 1.0, 5.0, m)
             + _midpoint_deriv(p, 1.3, 5.0, 10.0, m, 0.06) + c4 * 10.0**p / 34.0)
    return bound * (1.0 + 2e-16 * 2000)  # 2e-16 per subinterval


def table2_log_bound(p: float) -> float:
    """log of the certified bound on e^(p/6) 2^(1-p) F(p, 8/3): convex in p."""
    return math.log(_table2_F_upper(p)) + p / 6.0 + (1.0 - p) * math.log(2.0)


def table3_scaled_bound(p: float) -> float:
    """p times the certified bound on F(p, 1.3): convex in p, value 1 at 0+."""
    return p * _table3_F_upper(p)

"""The section-3 integral functionals and the product-Bessel moment integral.

F(p,s) = int_0^inf |jj_1(t)|^s t^(p-1) dt is evaluated in three pieces:
a power-series head on [0,1] (handles the t^(p-1) singularity exactly),
Gauss-Legendre panels between consecutive zeros of J_1 with grading toward
the zeros (|jj_1|^s has limited smoothness there for non-even s), and the
asymptotic Watson-expansion tail from ``oscillatory``.  The split point and
the tail tolerance are fixed: the panels end at the first zero of J_1 at or
beyond t = 46 and the tail is summed to 1e-10 absolute.  No error estimate
is returned.  The same pattern evaluates E|sum a_k xi_k|^(-p) through the
product formula, with at most 200,000 panels (ToleranceError beyond).  There
the panels stop early, and the asymptotic tail is skipped, where an explicit
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
from .oscillatory import _panel_quad, series_pow
from .specfun import gamma, jj1_prime, jnu_zeros, _jj_series_coeffs, _jj_vec

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

_GAUSSIAN_REGIME_S = 64.0  # above this, |jj_1|^s is treated in the CLT scaling
_TAIL_START = 46.0  # F's panels end at the first zero of J_1 at or beyond this
_TAIL_TOL = 1e-10  # absolute tolerance of F's asymptotic tail
_MAX_PANELS = 200_000  # product_moment's panel budget
_CUT_REL = 1e-13  # product_moment's dropped tail, relative to the Jensen floor |a|^(-p)
_M_S83 = 100  # subdivisions per unit of the s = 8/3 bounds (Table 2, interpolation~)
_M_S13 = 200  # subdivisions per unit of the s = 1.3 bound (Table 3)


@dataclass(frozen=True)
class IntegralParams:
    """(p, s) pair for the F/G/H/U family."""

    p: float
    s: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p) and math.isfinite(self.s)):
            raise DomainError(f"p and s must be finite, got p={self.p}, s={self.s}")
        if not self.p > 0:
            raise DomainError(f"p must be positive, got {self.p}")
        if not self.s >= 1:
            raise DomainError(f"s must be >= 1, got {self.s}")


# ----------------------------------------------------------------------------
# panel machinery
# ----------------------------------------------------------------------------

def _graded_edges(a: float, b: float, levels: int = 10, ratio: float = 0.25) -> np.ndarray:
    fracs = [0.0] + [ratio**k for k in range(levels, 0, -1)] + [0.5]
    fracs += [1.0 - f for f in reversed(fracs[:-1])]
    return a + (b - a) * np.asarray(fracs)


@lru_cache(maxsize=512)
def _abs_pow_head_coeffs(s: float, n_terms: int) -> np.ndarray:
    return series_pow(np.asarray(_jj_series_coeffs(1.0, n_terms)), s, n_terms - 1)


def _series_head(b: np.ndarray, p: float, a0: float) -> float:
    """int_0^a0 sum_k b[k] t^(2k) t^(p-1) dt, integrated term by term."""
    k = np.arange(len(b))
    return float(np.sum(b * a0 ** (2 * k + p) / (2 * k + p)))


def _head_abs_pow(p: float, s: float, a0: float = 1.0, n_terms: int = 56) -> float:
    """int_0^a0 jj_1(t)^s t^(p-1) dt by termwise integration (jj_1 > 0 there)."""
    return _series_head(_abs_pow_head_coeffs(s, n_terms), p, a0)


def _zero_split_points(t_cut: float) -> tuple[np.ndarray, float]:
    zs = jnu_zeros(1.0, t_cut + 4.5)
    T = float(zs[zs >= t_cut][0]) if np.any(zs >= t_cut) else float(zs[-1])
    inner = zs[(zs > 1.0) & (zs < T)]
    return inner, T


def F(params: IntegralParams) -> float:
    """F(p, s) = int_0^inf |jj_1(t)|^s t^(p-1) dt, finite for p < 3s/2."""
    p, s = params.p, params.s
    if p >= 1.5 * s:
        raise DivergenceError(f"F diverges for p={p} >= 3s/2={1.5 * s}")
    if s > _GAUSSIAN_REGIME_S:
        return _F_gaussian_regime(p, s)
    inner, T = _zero_split_points(_TAIL_START)
    head = _head_abs_pow(p, s)
    pts = np.concatenate([[1.0], inner, [T]])
    edges = np.concatenate([_graded_edges(lo, hi)[:-1] for lo, hi in zip(pts[:-1], pts[1:])]
                           + [[T]])
    f = lambda t: np.abs(_jj_vec(1.0, t)) ** s * t ** (p - 1.0)
    middle = float(_panel_quad(f, edges))
    tail = osc.tail_abs_pow(p, s, T, tol=_TAIL_TOL)
    return head + middle + tail


def _F_gaussian_regime(p: float, s: float) -> float:
    """F for very large s via u = t sqrt(s); the integrand is then ~ e^(-u^2/8).

    jj_1(u/sqrt(s)) stays within the first positive arch on the effective
    support, so s*log(jj_1) is well defined; everything beyond u = 22
    (and the oscillatory region) is below e^(-60) and is dropped.
    """
    n_terms = 30
    # jj_1(u/sqrt(s))^s as a series in u^2
    c = np.asarray(_jj_series_coeffs(1.0, n_terms)) / s ** np.arange(n_terms)
    u0 = 0.5
    head = _series_head(series_pow(c, s, n_terms - 1), p, u0)

    def integrand(u):
        t = u / math.sqrt(s)
        return np.exp(s * np.log(_jj_vec(1.0, t))) * u ** (p - 1.0)

    edges = np.linspace(u0, 22.0, 44)
    middle = float(_panel_quad(integrand, edges, order=24))
    return s ** (-p / 2.0) * (head + middle)


def G(params: IntegralParams) -> float:
    """G(p, s) = int_0^inf e^(-s t^2/8) t^(p-1) dt = s^(-p/2) 2^(3p/2-1) Gamma(p/2)."""
    p, s = params.p, params.s
    if p <= 0 or s <= 0:
        raise DomainError(f"G requires p, s > 0, got {params}")
    return s ** (-p / 2.0) * 2.0 ** (1.5 * p - 1.0) * gamma(p / 2.0)


def H(params: IntegralParams) -> float:
    """H(p, s) = G(p, s) - F(p, s), defined for 0 < p < 3, s > 1, p < 3s/2."""
    p, s = params.p, params.s
    if not (0.0 < p < 3.0 and s > 1.0):
        raise DomainError(f"H requires 0 < p < 3 and s > 1, got {params}")
    return G(params) - F(params)


def U(params: IntegralParams) -> float:
    """The explicit upper envelope of F built from the two jj_1 bounds."""
    p, s = params.p, params.s
    if p >= 1.5 * s:
        raise DivergenceError(f"U has a pole at p = 3s/2; got p={p}, s={s}")
    first = 4.0**p * (2.0 * math.pi * math.sqrt(15.0)) ** (-s / 2.0) / (1.5 * s - p)
    second = 2.0 ** (1.5 * p - 1.0) * s ** (-p / 2.0) * (
        gamma(p / 2.0) - gamma(p / 2.0 + 2.0) / (6.0 * s)
        + gamma(p / 2.0 + 4.0) / (72.0 * s * s)
    )
    return first + second


def G_tilde(params: IntegralParams) -> float:
    """G~(p, s) = s^(-p/2) 2^(3p/2-1) Gamma(p/2) D(p); equals F(p,2) at s=2."""
    p, s = params.p, params.s
    if not 2.0 <= p < 3.0:
        raise DomainError(f"G_tilde requires 2 <= p < 3, got {p}")
    return G(params) * D(p)


def H_tilde(params: IntegralParams) -> float:
    """H~(p, s) = G~(p, s) - F(p, s); vanishes identically at s = 2."""
    p, s = params.p, params.s
    if not (2.0 <= p < 3.0 and s > 1.0):
        raise DomainError(f"H_tilde requires 2 <= p < 3 and s > 1, got {params}")
    return G_tilde(params) - F(params)


# ----------------------------------------------------------------------------
# product-Bessel negative moment
# ----------------------------------------------------------------------------

def product_moment(query: MomentQuery) -> float:
    """E|sum a_k xi_k|^(-p) via kappa_{p,d} int prod_k jj_(d/2-1)(|a_k| t) t^(p-1) dt.

    Requires q = -p with 0 < p < d and absolute convergence p < n(d-1)/2
    (n = number of nonzero coefficients); otherwise a ConvergenceError asks
    the caller to fall back to the hypergeometric route (n=2) or Monte Carlo.

    The integral is a series head on [0, 1], Gauss panels up to T, and the
    sign-pattern tail beyond T = max(46, 25/a_min) (weights scaled to |a| = 1).
    When ``_envelope_cut`` finds a smaller T_env at which an explicit bound on
    everything beyond is at most 1e-13/kappa, the panels end at T_env and that
    rest is dropped.  By Jensen the result is at least |a|^(-p), so the
    dropped part is below 1e-13 of it, a priori.  More than 200,000 panels
    raise ToleranceError.
    """
    d, p = query.d, -query.q
    if not 0.0 < p < d:
        raise DomainError(f"product_moment needs q = -p with 0 < p < d, got q={query.q}")
    norm = query.norm
    amps = sorted((abs(a) / norm for a in query.coeffs if abs(a) > 1e-12 * norm), reverse=True)
    n = len(amps)
    if n == 1:
        return float(norm ** (-p))  # single sphere vector: |a xi| = |a|
    if p >= n * (d - 1) / 2.0:
        raise ConvergenceError(
            f"integral not absolutely convergent: p={p} >= n(d-1)/2={n * (d - 1) / 2.0};"
            " use the hypergeometric route (n=2) or Monte Carlo"
        )
    nu = d / 2.0 - 1.0
    a_min, a_max = amps[-1], amps[0]
    kappa = normalizers(p, d).kappa
    a0 = 1.0
    T_full = max(46.0, 25.0 / a_min)
    T_env = _envelope_cut(amps, nu, p, _CUT_REL / kappa)
    cut = T_env < T_full
    T = max(T_env, a0) if cut else T_full
    head = _head_product(amps, nu, p, a0)

    def integrand(t):
        acc = t ** (p - 1.0)
        for a in amps:
            acc = acc * _jj_vec(nu, a * t)
        return acc

    width = min(2.0, math.pi / (2.0 * a_max))
    n_panels = int(math.ceil((T - a0) / width))
    if n_panels > _MAX_PANELS:
        raise ToleranceError(f"panel budget exceeded: {n_panels} > {_MAX_PANELS}")
    edges = np.linspace(a0, T, n_panels + 1)
    middle = _panel_quad(integrand, edges, order=24)
    tail = 0.0 if cut else osc.tail_product(amps, nu, p, T)
    return float(kappa * (head + middle + tail) * norm ** (-p))


def _bessel_envelope(nu: float) -> tuple[float, float] | None:
    """(C, x0) with |jj_nu(x)| <= C x^(-nu-1/2) for every x >= x0; None for nu < 0.

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
    if nu < 0.0:
        return None
    c = 2.0**nu * float(gamma(nu + 1.0)) * math.sqrt(2.0 / math.pi)
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
    Returns min_j T_j, or inf when no j qualifies (nu < 0, or T_j beyond
    e^700).  The work is in logs: K_j itself can overflow.
    """
    env = _bessel_envelope(nu)
    if env is None:
        return math.inf
    c, x0 = env
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


def _head_product(amps, nu: float, p: float, a0: float, n_terms: int = 48) -> float:
    base = np.asarray(_jj_series_coeffs(nu, n_terms))
    prod = np.zeros(n_terms)
    prod[0] = 1.0
    for a in amps:
        scaled = base * (a * a) ** np.arange(n_terms)
        prod = np.convolve(prod, scaled)[:n_terms]
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

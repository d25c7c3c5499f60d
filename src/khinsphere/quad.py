"""The section-3 integral functionals and the product-Bessel moment integral.

F(p,s) = int_0^inf |jj_1(t)|^s t^(p-1) dt takes one route for every s: on
jj_1's first arch, in u = t sqrt(s), a power-series head on u <= 1/2 (it
handles the t^(p-1) singularity exactly) and Gauss-Legendre panels graded
toward the zero j_1,1 sqrt(s); fixed panels graded toward the zeros of J_1
up to T ~ 47, built once; all panels summed in logs; and beyond T the
asymptotic Watson-expansion tail from ``oscillatory``, summed to 1e-10
absolute and dropped where Watson's envelope bounds it below 1e-13 of F.
Where the tail is needed and s > 141, F raises DomainError.  F takes every
(p, s) of a call as one lane of one array pass: the head and panels run per
distinct s and the tail is one call for every lane.  No error estimate is
returned.

G, U, H, G_tilde and H_tilde are closed forms (or differences with F) that
take arrays as well.  The same pattern evaluates E|sum a_k xi_k|^(-p)
through the product formula, except where one weight dominates: there
product_moment sums the 2F1 series over the exact even moments of the others.
Elsewhere the panels are sized by the integrand's
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
from .constants import D, MomentQuery, _even_moments, normalizers
from .errors import ConvergenceError, DivergenceError, DomainError, ToleranceError
from .oscillatory import (_PANEL_BLOCK, _TAIL_S_MAX, _in_blocks, _panel_quad, _panel_rule,
                          _series_log)
from .specfun import (_in_range, _jj_norm_const, _jj_series_coeffs, _jj_vec, _power_product,
                      jnu_zeros)

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

_HEAD_U = 0.5  # F's series head covers u = t sqrt(s) <= this
_HEAD_TERMS = 12  # terms of F's head series in u^2: at u = 1/2 the 13th is below 1e-25
_GRADE_LEVELS = 10  # F's panels next to a zero of J_1 shrink this many times toward it,
_GRADE_RATIO = 0.25  # by this ratio each time
_REL_CUT = 1e-13  # a dropped tail is at most this fraction of the result (F, product_moment)
_LOG_FLOAT_MAX = 709.0  # just below the log of the largest float
_TAIL_START = 46.0  # F's panels end at the first J_1 zero past this; product_moment's tail, past it
_TAIL_TOL = 1e-10  # absolute tolerance of F's asymptotic tail
# product_moment's sign-pattern tail starts at t >= this times nu^2.  The Hankel term m of
# J_nu(t) is about (4 nu^2/(8t))^m/m! of the first while 2m - 1 < 2 nu: at t = 4 nu^2 the
# first one dropped, m = ORDER + 1 = 9, is about 8^-9/9! = 2e-14 of it (at nu^2/2, 1/9! = 2.8e-6)
_TAIL_NU2 = 4.0
_MAX_PANELS = 200_000  # panel budget of product_moment, and of F's first arch
# product_moment's panel width times the bandwidth Omega = sum_k a_k.  The 24-point
# Gauss-Legendre remainder on a panel of half-width h (DLMF 3.5(v)) is at most
# 8.9e-76 (Omega h)^48 h for a factor e^(i Omega t); at Omega h = 16 that is 5.6e-18 h.
_PANEL_OMEGA_H = 32.0
_PANEL_GROWTH = 1.5  # ratio of consecutive panel edges near t = 1 in product_moment
_HEAD_PRODUCT_TERMS = 48  # terms of product_moment's head series in t^2
_RHO_MAX = 0.3  # product_moment sums the series where sum_(k>=2) a_k <= this a_1 (break-even)
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
        if not np.asarray((0 < p) & (p < math.inf) & (1 <= s) & (s < math.inf)).all():  # NaN too
            _require(np.isfinite(p) & np.isfinite(s), DomainError,
                     "p and s must be finite, got p={p}, s={s}", p, s)
            _require(p > 0, DomainError, "p must be positive, got {p}", p, s)
            _require(s >= 1, DomainError, "s must be >= 1, got {s}", p, s)


def _require(ok, error: type, message: str, p, s) -> None:
    """Raise error, quoting the first (p, s) element where ok fails, if any does."""
    if not np.asarray(ok).all():
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
    return (b * a0**e / e).sum(axis=-1)


@lru_cache(maxsize=1)
def _head_table() -> np.ndarray:
    """B[k, m]: the u^(2k) coefficient of jj_1(u/sqrt(s))^s is sum_m B[k, m] s^(-m), for every s.

    With L the log of jj_1's series in t^2, jj_1(u/sqrt(s))^s = exp(s L(u^2/s)), whose term
    (s L(u^2/s))^n / n! puts L^n[k] / n! at u^(2k) s^(n-k): so B[k, k-n] = L^n[k] / n!.  The
    coefficients of L are all negative (its roots are the zeros of J_1), so each sum of L^n
    has terms of one sign."""
    log_c = _series_log(np.asarray(_jj_series_coeffs(1.0, _HEAD_TERMS)))
    powers = [np.eye(1, _HEAD_TERMS)[0]]  # L^n / n!, n = 0, 1, ..., cut at u^(2 _HEAD_TERMS - 2)
    for n in range(1, _HEAD_TERMS):
        powers.append(np.convolve(powers[-1], log_c)[:_HEAD_TERMS] / n)
    k, m = np.indices((_HEAD_TERMS, _HEAD_TERMS))
    return np.tril(np.array(powers)[np.maximum(k - m, 0), k])  # B[k, m] = 0 for m > k


def _arch_head_coeffs(s_vals: list) -> np.ndarray:
    """The series of jj_1(u/sqrt(s))^s in u^2 for each s of s_vals, one row an s: the rows of
    ``_head_table`` against s^(-m), summed in the order m = 0, 1, ... in every row."""
    terms = np.asarray(s_vals, dtype=float)[:, None, None] ** -np.arange(_HEAD_TERMS) * _head_table()
    return np.add.accumulate(terms, axis=-1)[..., -1]


@lru_cache(maxsize=1)
def _middle_plan() -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
    """F's panels on [j_1,1, T], which neither p nor s changes: log t, log|jj_1| and
    log(w half) at the nodes, flat, then the ends T and j_1,1 (F's one source of each).

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
            np.log(w * half).ravel(), T, float(zs[0]))


def _arch_panel_count(s):
    """How many panels ``_arch_panels(s)`` takes, for a float or an array s."""
    return np.ceil(2.0 * (_middle_plan()[4] * np.sqrt(s) - _HEAD_U)) + _GRADE_LEVELS


def _arch_panels(s: float) -> tuple[np.ndarray, np.ndarray]:
    """F's panels on jj_1's first arch beyond the head, u in [1/2, u1], u1 = j_1,1 sqrt(s):
    log t and s log jj_1 + log(w half) at the nodes, flat, in t = u/sqrt(s).

    The panels are about 1/2 wide in u.  The last is graded toward u1, where
    jj_1^s ~ (j_1,1 - t)^s: it is split at u1 - L _GRADE_RATIO^k,
    k = 1.._GRADE_LEVELS, L its width.
    """
    u1, n = _middle_plan()[4] * math.sqrt(s), int(_arch_panel_count(s)) - _GRADE_LEVELS
    edges = np.arange(float(n)) * ((u1 - _HEAD_U) / n) + _HEAD_U  # linspace's, without u1
    grade = u1 - (u1 - edges[-1]) * _GRADE_RATIO ** np.arange(1.0, _GRADE_LEVELS + 1.0)
    un, uw, uh = _panel_rule(np.concatenate([edges, grade, [u1]]), order=24)
    log_root_s = 0.5 * math.log(s)
    log_jj = np.log(_jj_vec(1.0, un.ravel() / math.sqrt(s)))
    return np.log(un.ravel()) - log_root_s, s * log_jj + (np.log(uw * uh).ravel() - log_root_s)


def F(params: IntegralParams):
    """F(p, s) = int_0^inf |jj_1(t)|^s t^(p-1) dt, finite for p < 3s/2.

    One route for every s.  On jj_1's first arch, t <= j_1,1, the variable
    is u = t sqrt(s), where jj_1(u/sqrt(s))^s ~ e^(-u^2/8): a series head on
    u <= 1/2, its 12 coefficients in u^2 read at 1/s from one fixed table of
    polynomials (``_head_table``), then Gauss panels about 1/2 wide, the last
    graded toward the zero u = j_1,1 sqrt(s).  On [j_1,1, T] come fixed panels
    graded toward each zero of J_1, T ~ 47.  All panels are summed in logs, scaled by their
    largest term, so large p neither overflows nor underflows.  Beyond T,
    |jj_1(t)| <= C t^(-3/2) with C = sqrt(8/pi) (T^2/(T^2-1))^(1/4), Watson's
    envelope ``_bessel_envelope(1, T)``, so the tail is at most
    C^s T^(p-3s/2) / (3s/2-p).  It is dropped where that is at most 1e-13 of
    the rest, and otherwise taken from one ``tail_abs_pow`` call for every
    (p, s) that needs it; those keep |p - 1 - 3s/2| < 10, well in its reach.

    Every (p, s) of ``params`` is one lane of one array pass, and each lane's
    value is the same bits as its scalar call: the head and panels run once
    per distinct s (``_head_and_panels``), as a row's length sets its
    rounding, and the tail is one ``tail_abs_pow`` call for every lane.
    Returns a float for scalar params, else an array of their broadcast shape.

    F raises DomainError where it exceeds the float range, and where s > 141
    and the tail is needed: the tail's Fourier coefficients overflow there.
    That is a band just below p = 3s/2: 3s/2 - p below about 8 at s = 150,
    5 at s = 500 and 0.3 at s = 1000.  It raises DomainError as well where
    s is above about 6.8e8, whose first arch would need more than 200,000
    panels (_MAX_PANELS); at s = 6.81e8, F(1, s) takes 0.4 s and lifts the
    peak RSS to 257 MB on a 2-core Xeon.  Each error names the first such
    (p, s) in array order.  F is never inf or nan.
    """
    p, s = np.broadcast_arrays(params.p, params.s)
    _require(p < 1.5 * s, DivergenceError, "F diverges for p={p} >= 3s/2={s}", p, 1.5 * s)
    pf, sf = p.ravel(), s.ravel()
    _require(_arch_panel_count(sf) <= _MAX_PANELS, DomainError, "F(p={p}, s={s}) is out of reach:"
             f" its first arch needs more than {_MAX_PANELS} panels", pf, sf)
    s_set, at = osc._distinct(sf)
    T = _middle_plan()[3]
    head, log_panels = _head_and_panels(pf, s_set, at)  # the head is 0 where it underflows
    log_head = np.log(head, out=np.full(len(pf), -np.inf), where=head > 0.0)
    log_s = np.array([math.log(x) for x in s_set])[at]  # math.log: np.log may differ by an ulp
    log_main = np.logaddexp(log_head - 0.5 * pf * log_s, log_panels)

    c_env = _bessel_envelope(1.0, T)
    log_tail_bound = sf * math.log(c_env) + (pf - 1.5 * sf) * math.log(T) - np.log(1.5 * sf - pf)
    need_tail = log_tail_bound - log_main > math.log(_REL_CUT)
    _require((log_main < _LOG_FLOAT_MAX) & ~(need_tail & (sf > _TAIL_S_MAX)), DomainError,
             "F(p={p}, s={s}) is out of reach: beyond the float range, or the tail is needed"
             " and s > 141", pf, sf)
    # the head is added outside the logs: a round trip through them costs |log F| ulps
    vals = head * sf ** (-0.5 * pf) + np.exp(log_panels)
    if need_tail.any():
        vals[need_tail] += osc.tail_abs_pow(pf[need_tail], sf[need_tail], T, _TAIL_TOL)
    return float(vals[0]) if p.ndim == 0 else vals.reshape(p.shape)


def _head_and_panels(p: np.ndarray, s_set: list,
                     at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F's head and the log of its panel sum on [1/(2 sqrt(s)), T], the first arch beyond the
    head and then [j_1,1, T], for each lane p of s = s_set[at].

    The head coefficients of every s come from one product with ``_head_table``; then each
    s in turn sums the head series and the panels of its lanes (its first arch, then
    ``_middle_plan``'s), as a row's length sets its rounding.
    """
    log_t_mid, log_jj_mid, log_wh_mid = _middle_plan()[:3]
    head, log_panels = np.empty(len(p)), np.empty(len(p))
    for k, (s, coeffs) in enumerate(zip(s_set, _arch_head_coeffs(s_set))):
        lanes = at == k
        head[lanes] = _series_head(coeffs, p[lanes], _HEAD_U)
        log_t, log_g = _arch_panels(s)
        log_panels[lanes] = _log_panel_sum(np.concatenate([log_g, s * log_jj_mid + log_wh_mid]),
                                           np.concatenate([log_t, log_t_mid]), p[lanes])
    return head, log_panels


def _log_panel_sum(log_g: np.ndarray, log_t: np.ndarray, p: np.ndarray) -> np.ndarray:
    """log sum_i e^(log_g[i] + (p-1) log_t[i]) for each p, each sum scaled by its largest term."""
    def block(pb):
        log_f = np.multiply.outer(pb - 1.0, log_t)
        log_f += log_g
        scale = log_f.max(axis=1, keepdims=True)
        log_f -= scale
        return np.log(np.exp(log_f, out=log_f).sum(axis=1)) + scale[:, 0]
    return _in_blocks(block, p, len(log_t))


def _g(p, s):
    """G's closed form s^(-p/2) 2^(3p/2-1) Gamma(p/2), through _power_product's float-range rule."""
    return _power_product(((s, -p / 2.0), (2.0, 1.5 * p - 1.0)), (p / 2.0,))


def G(params: IntegralParams):
    """G(p, s) = int_0^inf e^(-s t^2/8) t^(p-1) dt = s^(-p/2) 2^(3p/2-1) Gamma(p/2).

    A factor that leaves the normal floats, as Gamma(p/2) for p > 343.2 or s^(-p/2) at
    (300, 250), sends the product to logs (_power_product): G(800, 600) = 7.57e115.  A
    value above the largest float, as at (300, 2) and (2000, 1334), raises DomainError."""
    return _in_range(_g(params.p, params.s), "G", p=params.p, s=params.s)


def H(params: IntegralParams):
    """H(p, s) = G(p, s) - F(p, s), defined for 0 < p < 3, s > 1, p < 3s/2."""
    p, s = params.p, params.s
    _require((p < 3.0) & (s > 1.0), DomainError,
             "H requires 0 < p < 3 and s > 1, got IntegralParams(p={p}, s={s})", p, s)
    return G(params) - F(params)


def U(params: IntegralParams):
    """The explicit upper envelope of F built from the two jj_1 bounds; its power products
    take G's float-range rule, and a value above the largest float raises DomainError."""
    p, s = params.p, params.s
    _require(p < 1.5 * s, DivergenceError, "U has a pole at p = 3s/2; got p={p}, s={s}", p, s)
    first = _power_product(((4.0, p), (2.0 * math.pi * math.sqrt(15.0), -s / 2.0)))
    h = p / 2.0  # Gamma(h + 2) = Gamma(h) h (h+1), and Gamma(h + 4) on from it
    rise = h * (h + 1.0)
    with np.errstate(all="ignore"):
        val = first / (1.5 * s - p) + _g(p, s) * (1.0 - rise / (6.0 * s)
                                                  + rise * (h + 2.0) * (h + 3.0) / (72.0 * s * s))
    return _in_range(val, "U", p=p, s=s)


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
    There the panels would reach 25/eps, and past 200,000 of them raise ToleranceError.
    Every route scales by |a|^(-p) through _power_product: DomainError above the float range.

    Where one weight dominates, rho = sum_(k>=2) a_k / a_1 <= _RHO_MAX = 0.3, there is
    no integral: with A = a_1 and v the sum of the other weighted vectors (|v| <= rho A),
    averaging the 2F1 of ``_two_coeff_moment`` (DLMF 15.2.1) over v gives
    E|V|^(-p) = A^(-p) sum_(k<=K) c_k E|v|^(2k)/A^(2k), c_k = (p/2)_k (b)_k/((d/2)_k k!),
    b = (p-d+2)/2, E|v|^(2k) exact from ``constants._even_moments``, summed by ``math.fsum``.
    K = max(2, ceil(log(1e-17)/(2 log rho)), ceil(-b)), 17 at rho = 0.3 while d - p <= 36.
    From k = -b on |c_(k+1)| <= |c_k|, so the dropped terms are at most
    |c_K| rho^(2K+2)/(1 - rho^2) <= 1e-18 |c_K| of A^(-p), and the moment is at least
    A^(-p) (1 + rho^2)^(-p/2).  Without ceil(-b), where the c_k first grow, (1, 0.3) at
    (d, p) = (150, 45), (200, 100) and (400, 200) was 2.8e-13, 2.1e-10 and 2.2e-3 off the
    2F1; with it 4.0e-16, 1.2e-15 and 1.2e-14 (at (1000, 500) the terms cancel: 3.6e-8, 2.9 s).
    ``_even_moments`` is pure Python, O(n K^3), so _RHO_MAX is the measured break-even with
    the panels: per call on a 2-core Xeon at d = 4, p = 1.5 with 2, 3 and 6 weights,
    0.22/0.45/1.15 ms against 0.37/0.44/0.89 ms at rho = 0.3, 0.42/0.83/2.22 against
    0.51/0.39/0.85 at 0.4.

    Every other input goes to the quadrature: a series head on [0, 1], Gauss
    panels up to T, and the sign-pattern tail beyond T = max(46, 4 nu^2, 25/a_min)
    (weights scaled to |a| = 1).  It raises DomainError where kappa_{p,d} leaves the float
    range: kappa is 0 at (d, p) = (300, 150) and (344, 1), NaN at (400, 1) and (360, 2).
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
    10.17), hence 4 nu^2 (_TAIL_NU2; above 46 from d = 9).  For weights (1, b),
    b in {1, 0.95, 0.7, 0.3, 0.05}, p in {0.5, 1, 2, 3.5} and even d in [12, 62]
    the result is within 6.4e-14 of the 2F1 (T = max(46, 25/a_min) gave 2.4e-9 at
    d = 40, 8.0e-2 at d = 62).  Near p = n(d-1)/2, with b in {1, 0.95},
    p = f (d-1) for f in {0.5, 0.6, 0.8, 0.9, 0.95, 0.99}, even d in [6, 62] and
    d in {7, 9, 15, 31}, it is within 7.5e-14 for d <= 31 and about 1e-11 for
    d >= 32 (a start at nu^2/2 gave 1.5e-4 and 1.0e-4); (1, 0.7) is 3.9e-15 off at
    (d, p) = (16, 13.5) and 2.1e-15 at (22, 18.9) (2.1e-7 and 1.4e-4 at nu^2/2).
    b <= 0.3 takes the series, within 1e-12 of the 2F1 on both grids.
    """
    d, p = query.d, -query.q
    if not 0.0 < p < d:
        raise DomainError(f"product_moment needs q = -p with 0 < p < d, got q={query.q}")
    norm = query.norm
    amps = sorted((abs(a) / norm for a in query.coeffs if abs(a) > 1e-12 * norm), reverse=True)
    if len(amps) == 2 and p > d - 2 and amps[0] - amps[1] <= 1e-6:  # next to an equal pair
        amps = sorted((abs(a) / norm for a in query.coeffs if a != 0.0), reverse=True)
    n = len(amps)
    if n == 1:  # single sphere vector: |a xi| = |a|
        return _in_range(_power_product(((norm, -p),)), "E|sum a_k xi_k|^q", **vars(query))
    if p >= n * (d - 1) / 2.0:
        raise ConvergenceError(
            f"integral not absolutely convergent: p={p} >= n(d-1)/2={n * (d - 1) / 2.0};"
            " use the hypergeometric route (n=2) or Monte Carlo"
        )
    rho = math.fsum(amps[1:]) / amps[0]
    if rho <= _RHO_MAX:
        val = _power_product(((amps[0] * norm, -p),), coeff=_dominant_series(d, p, amps, rho))
        return _in_range(val, "E|sum a_k xi_k|^q", **vars(query))
    nu = d / 2.0 - 1.0
    kappa = normalizers(p, d).kappa
    if not 0.0 < kappa < math.inf:  # NaN too
        raise DomainError(f"product_moment's quadrature needs 0 < kappa < inf, got {kappa} at d={d}")
    a0 = 1.0
    T_full = max(_TAIL_START, _TAIL_NU2 * nu * nu, 25.0 / amps[-1])
    T_env = _envelope_cut(amps, nu, p, _REL_CUT / kappa)
    cut = T_env < T_full
    T = max(T_env, a0) if cut else T_full
    head = _head_product(amps, nu, p, a0)
    col = np.asarray(amps)[:, None]

    def integrand(t):
        return t ** (p - 1.0) * np.prod(_jj_vec(nu, col * t), axis=0)

    edges = _moment_edges(a0, T, _PANEL_OMEGA_H / sum(amps))
    middle = _panel_quad(integrand, edges, block=max(1, _PANEL_BLOCK // n))
    tail = 0.0 if cut else osc.tail_product(amps, nu, p, T)
    val = _power_product(((norm, -p),), coeff=kappa * (head + middle + tail))
    return _in_range(val, "E|sum a_k xi_k|^q", **vars(query))


def _dominant_series(d: int, p: float, amps, rho: float) -> float:
    """E|xi_1 + v|^(-p), v = sum_(k>=2) (a_k/a_1) xi_k, as product_moment's series in E|v|^(2k)."""
    alpha, beta, gam = p / 2.0, (p - d + 2.0) / 2.0, d / 2.0
    K = max(2, math.ceil(math.log(1e-17) / (2.0 * math.log(rho))), math.ceil(-beta))
    terms, c = [], 1.0
    for k, m in enumerate(_even_moments(d, [a / amps[0] for a in amps[1:]], K)):
        terms.append(c * m)
        c *= (alpha + k) * (beta + k) / ((gam + k) * (k + 1))
    return math.fsum(terms)


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


def _bessel_envelope(nu: float, x0: float) -> float:
    """C with |jj_nu(x)| <= C x^(-nu-1/2) for every x >= x0, nu >= 0 (x0 > nu for nu > 1/2).

    Source: Watson, A Treatise on the Theory of Bessel Functions (2nd ed.,
    1944), section 13.74, from Nicholson's formula for J_nu^2 + Y_nu^2:
    (x^2 - nu^2)^(1/2) (J_nu^2 + Y_nu^2) increases to 2/pi for x > nu > 1/2,
    and x (J_nu^2 + Y_nu^2) does for |nu| < 1/2 (it is 2/pi at nu = 1/2).
    So, with jj_nu(x) = 2^nu Gamma(nu+1) x^(-nu) J_nu(x) and c = 2^nu Gamma(nu+1) sqrt(2/pi):
    * nu > 1/2: J_nu(x)^2 <= (2/pi) (x^2 - nu^2)^(-1/2), and (x^2/(x^2 - nu^2))^(1/4)
      falls in x, so C = c (x0^2/(x0^2 - nu^2))^(1/4), c (4/3)^(1/4) at x0 = 2 nu;
    * 0 <= nu <= 1/2: J_nu(x)^2 <= 2/(pi x) for all x > 0, so C = c for any x0.
    At nu = 1 this is the envelope of the paper's jj_1 tail bounds (Tables 2-3,
    interpolation~), and at x0 = T that of F's tail.
    """
    c = _jj_norm_const(nu) * math.sqrt(2.0 / math.pi)
    if nu <= 0.5:
        return c
    return c * (x0 * x0 / (x0 * x0 - nu * nu)) ** 0.25


def _envelope_cut(amps, nu: float, p: float, tol: float) -> float:
    """Smallest T at which an explicit bound on the tail of product_moment's integral is <= tol.

    The tail is int_T^inf prod_k |jj_nu(a_k t)| t^(p-1) dt, with ``amps``
    sorted in decreasing order.  For each j, the j largest factors take the
    envelope C (a_k t)^(-nu-1/2) of ``_bessel_envelope`` at x0 = 2 nu (x0 = 0
    for nu <= 1/2), valid once a_j T >= x0, and the others |jj_nu| <= 1
    (DLMF 10.14.4, nu >= -1/2).  The bound is then K_j T^(-e_j) / e_j with
    e_j = j (nu+1/2) - p > 0 and K_j = prod_(k<=j) C a_k^(-nu-1/2), which
    equals tol at log T_j = (log K_j - log e_j - log tol) / e_j; T_j is
    raised to x0/a_j.  Returns min_j T_j, or inf when no j qualifies (T_j
    beyond e^700).  The work is in logs: K_j itself can overflow.
    """
    x0 = 2.0 * nu if nu > 0.5 else 0.0
    c = _bessel_envelope(nu, x0)
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
def _abs_jj1_grid(lo: float, hi: float, m: int, offset: float) -> np.ndarray:
    """|jj_1| at lo + (k + offset)/m, k = 0..(hi - lo) m: the grid at offset 0, midpoints at 1/2."""
    k = np.arange(int(round((hi - lo) * m)) + 1)
    return np.abs(_jj_vec(1.0, lo + (k + offset) / m))


def _sup_weighted_sum(vals: np.ndarray, p: float, lo: float, m: int) -> float:
    """sum_k vals[k] max(t_k^(p-1), t_(k+1)^(p-1)) / m, t_k = lo + k/m: the sup of t^(p-1)
    on each cell [t_k, t_(k+1)] weighted by the cell's value of the other factor."""
    k = np.arange(len(vals))
    sup_t = np.maximum((lo + k / m) ** (p - 1.0), (lo + (k + 1) / m) ** (p - 1.0))
    return float(np.sum(vals * sup_t) / m)


def _riemann_monotone(p: float, s: float, lo: float, hi: float, m: int) -> float:
    """Endpoint-max Riemann upper bound; valid where jj_1 is monotone (<= 5.13)."""
    vals = _abs_jj1_grid(lo, hi, m, 0.0) ** s
    return _sup_weighted_sum(np.maximum(vals[:-1], vals[1:]), p, lo, m)


def _midpoint_deriv(p: float, s: float, lo: float, hi: float, m: int, dsup: float) -> float:
    """Midpoint Riemann sum plus dsup/(2m) times (hi - lo) lo^(p-1); valid for p <= 1."""
    main = _sup_weighted_sum(_abs_jj1_grid(lo, hi, m, 0.5)[:-1] ** s, p, lo, m)
    return main + dsup / (2.0 * m) * ((hi - lo) * lo ** (p - 1.0))


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

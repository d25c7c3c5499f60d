"""Grid and tangent-chord verifiers for the computational lemmas.

Each verifier evaluates a family of inequalities on a deterministic grid and
returns a VerificationReport whose min_margin is the smallest verified gap.
Verification here is evidence-grade floating point, not proof-grade; default
regions clip 1e-3 away from points where an inequality degenerates to
equality (gamma poles, the s=2 line where H~ vanishes, the (2,2) corner
where H vanishes at the phase transition).  On the boundaries p = d-2
(two-coefficient bounds) and p = d-4 (bisubharmonicity) the inequality
becomes an identity, which is checked instead.  Only the region verifiers
(H, H~, U < G, the inductive base) take a grid, two integer sizes >= 1
(else DomainError); the other grid sizes are module constants.  The
interpolation verifiers (Tables 2-3, interpolation~) compare tangent lines,
each built by ``_tangent``, with the one-sided bounds on F that ``quad``
constructs at fixed subdivision counts.

Every verifier gives its evidence in one form, checks handed to
``_make_report``: a check is a pair (point columns, margins) whose columns
broadcast against its margins.  A grid passes its mesh arrays, as in
((p, s), H(IntegralParams(p, s))), and each certificate its coordinates and
one margin.  Only the two witnesses become tuples of floats.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .constants import D, _check_dim, _two_coeff_2f1
from .errors import ConvergenceError, DivergenceError, DomainError
from .quad import (
    G,
    G_tilde,
    H,
    H_tilde,
    IntegralParams,
    U,
    _M_S13,
    _M_S83,
    _tilde_F_upper,
    table2_log_bound,
    table3_scaled_bound,
)
from .specfun import digamma, gamma, log_gamma

__all__ = [
    "VerificationReport",
    "PhiFunction",
    "verify_H_regions",
    "verify_H_tilde_region",
    "verify_U_less_G",
    "verify_ind_base",
    "verify_two_coeff_bounds",
    "verify_bisubharmonic",
    "verify_small_lemmas",
    "verify_table2",
    "verify_table3",
    "verify_interpolation_tilde",
    "h_sign_chart",
    "EULER_GAMMA",
]

EULER_GAMMA = 0.5772156649015329

_N_GRID = 200  # grid size of the two-coefficient, bisubharmonic and small-lemma checks
_BISUB_DELTAS = (0.1, 1.0, 10.0)


@dataclass(frozen=True)
class VerificationReport:
    lemma_id: str
    region: str
    grid: tuple[int, ...]
    passed: bool
    min_margin: float
    witnesses: tuple[tuple[tuple[float, ...], float], ...]

    def __post_init__(self) -> None:
        if self.passed != (self.min_margin > 0):
            raise ValueError("passed must hold exactly when min_margin > 0")

    def to_dict(self) -> dict:
        return {
            "lemma_id": self.lemma_id,
            "region": self.region,
            "grid": list(self.grid),
            "passed": self.passed,
            "min_margin": self.min_margin,
            "witnesses": [
                {"point": list(pt), "margin": mg} for pt, mg in self.witnesses
            ],
        }


def _make_report(lemma_id: str, region: str, grid: tuple[int, ...],
                 *checks: tuple[tuple, float | np.ndarray]) -> VerificationReport:
    """The report of every check: min_margin and its min/max witnesses.

    A check is a pair (columns, margins): margins a float or an array, and
    columns the point's coordinates, each a float or an array that
    broadcasts against margins.  A grid check passes its mesh arrays, a
    certificate its coordinates and one margin.  Points count in check
    order, and in C order within a check, so a tie goes to the first; only
    the two witness points become tuples of floats.
    """
    flat = [np.asarray(m, dtype=float).ravel() for _, m in checks]
    margins = np.concatenate(flat)
    if not np.all(np.isfinite(margins)):
        raise ConvergenceError(f"{lemma_id}: non-finite margin encountered")

    def witness(i: int) -> tuple[tuple[float, ...], float]:
        for (columns, m), f in zip(checks, flat):  # find the check of point i
            if i < f.size:
                break
            i -= f.size
        shape = np.shape(m)
        at = np.unravel_index(i, shape)
        return (tuple(float(np.broadcast_to(c, shape)[at] if isinstance(c, np.ndarray) else c)
                      for c in columns), float(f[i]))

    i_min, i_max = int(np.argmin(margins)), int(np.argmax(margins))
    witnesses = [witness(i_min)]
    if i_max != i_min:
        witnesses.append(witness(i_max))
    mm = float(margins[i_min])
    return VerificationReport(lemma_id=lemma_id, region=region, grid=grid,
                              passed=mm > 0, min_margin=mm, witnesses=tuple(witnesses))


@dataclass(frozen=True)
class PhiFunction:
    """phi_p(x) = (1+x)^(-p/2) and its reflection about (1, phi_p(1)).

    The reflected function satisfies Phi_p <= phi_p everywhere (convexity of
    phi_p) and is the strengthened right-hand side in the induction.
    """

    p: float

    def __post_init__(self) -> None:
        if not self.p > 0:
            raise DomainError(f"PhiFunction requires p > 0, got {self.p}")

    def phi(self, x):
        return (1.0 + np.asarray(x, dtype=float)) ** (-self.p / 2.0)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if not np.all(x >= 0):  # NaN too
            raise DomainError("Phi_p is defined for x >= 0")
        # the reflected branch is only used for x <= 1; clamp its argument so
        # the unused lane of np.where stays finite for x > 3
        reflected = 2.0 * self.phi(1.0) - self.phi(np.maximum(2.0 - x, 0.0))
        out = np.where(x >= 1.0, self.phi(x), reflected)
        return float(out) if out.ndim == 0 else out


def _tangent(R: Callable, r_prime: Callable, v: float) -> Callable[[float], float]:
    """R's tangent line at v, u -> R(v) + R'(v) (u - v); ConvergenceError if either is not finite."""
    rv, slope = R(v), r_prime(v)
    if not (math.isfinite(rv) and math.isfinite(slope)):
        raise ConvergenceError(f"tangent construction failed at v={v}")
    return lambda u: rv + slope * (u - v)


def _tangent_margins(R: Callable[[float], float], r_prime: Callable[[float], float],
                     L: Callable[[float], float],
                     edges: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """On each piece [u0, u1] of edges, R's tangent at the midpoint minus L at u0 and at u1."""
    left, right = [], []
    for u0, u1 in zip(edges[:-1], edges[1:]):
        ell = _tangent(R, r_prime, 0.5 * (u0 + u1))
        left.append(ell(u0) - L(u0))
        right.append(ell(u1) - L(u1))
    return np.asarray(left, dtype=float), np.asarray(right, dtype=float)


# ----------------------------------------------------------------------------
# integral-inequality regions
# ----------------------------------------------------------------------------

def verify_H_regions(grid: tuple[int, int] = (60, 60)) -> VerificationReport:
    """H(p,s) > 0 on (a) p in (0,2], s in [2,12] and (b) p in (0,1/4], s in [1.3,12].

    The corner (2,2) of region (a) is clipped: H(2,2) = 0 exactly (it is the
    phase transition, F(2,2) = G(2,2) = 2), so the strict inequality starts
    1e-3 inside.
    """
    np_, ns = _check_grid(grid)
    pa, sa = _mesh(np.geomspace(1e-3, 2.0, np_), np.geomspace(2.0, 12.0, ns))
    keep = ~((pa > 2.0 - 1e-3) & (sa < 2.0 + 1e-3))
    pb, sb = _mesh(np.geomspace(1e-3, 0.25, np_), np.geomspace(1.3, 12.0, ns))
    p, s = np.concatenate([pa[keep], pb]), np.concatenate([sa[keep], sb])
    region = ("(a) p in [1e-3, 2], s in [2, 12] minus the (2,2) corner; "
              "(b) p in [1e-3, 1/4], s in [1.3, 12]")
    return _make_report("H_regions", region, grid, ((p, s), H(IntegralParams(p, s))))


def verify_H_tilde_region(grid: tuple[int, int] = (60, 60)) -> VerificationReport:
    """H~(p,s) > 0 on p in (2,3), s in [2,12]; H~(.,2) = 0, so s starts at 2+1e-3."""
    np_, ns = _check_grid(grid)
    p, s = _mesh(2.0 + np.geomspace(1e-3, 1.0 - 1e-3, np_),
                 np.concatenate([[2.0 + 1e-3], np.geomspace(2.0 + 1e-2, 12.0, ns - 1)]))
    region = "p in [2+1e-3, 3-1e-3], s in [2+1e-3, 12]"
    return _make_report("H_tilde_region", region, grid, ((p, s), H_tilde(IntegralParams(p, s))))


def _check_grid(grid: tuple[int, int]) -> tuple[int, int]:
    """grid itself, if it is two integer sizes >= 1; else DomainError."""
    if not (len(grid) == 2 and all(isinstance(n, (int, np.integer)) and n >= 1 for n in grid)):
        raise DomainError(f"grid must be two integers >= 1, got {grid!r}")
    return grid


def _mesh(ps: np.ndarray, ss: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (p, s) pair, p the outer loop: the two coordinates as flat arrays."""
    p, s = np.meshgrid(ps, ss, indexing="ij")
    return p.ravel(), s.ravel()


_UG_CASES = {
    "i": (0.25, 1.7, -0.015, 0.34, 0.041),
    "ii": (0.8, 2.0, -0.02, 0.39, 0.049),
    "iii": (2.0, 8.0 / 3.0, -0.029, 0.47, 0.032),
}

_LOG_A = 0.5 * math.log(2.0 * math.pi) + 0.25 * math.log(15.0)


def _dlog_D(p: float) -> float:
    """d/dp log D(p), from one digamma call."""
    a, b, c = digamma(np.array([3.0 - p, 2.0 - p / 2.0, 3.0 - p / 2.0]))
    return float(-a + b + 0.5 * c)


def _ug_A(p: float, s: float) -> float:
    return 2.0 ** (-p / 2.0) * (1.5 * s - p) * (12.0 * s - (p / 2.0 + 2.0) * (p / 2.0 + 3.0)) / 144.0


def verify_U_less_G(case: str, grid: tuple[int, int] = (50, 50)) -> VerificationReport:
    """U < G on the three lemma regions, or U < G~ for case "tilde".

    For cases i-iii the report also reproduces the monotonicity certificate:
    the partial-derivative bounds of f = log(A_k a^s) - log(s^(p/2+2)/Gamma(p/2+2))
    and the corner values, checked against the printed floors.
    """
    _check_grid(grid)
    if case == "tilde":
        return _verify_U_less_G_tilde(grid)
    if case not in _UG_CASES:
        raise DomainError(f"case must be one of i, ii, iii, tilde; got {case!r}")
    pk, sk, dp_floor, ds_floor, corner_floor = _UG_CASES[case]
    p, s = _mesh(np.geomspace(1e-3, pk, grid[0]), np.geomspace(sk, 12.0, grid[1]))
    # certificate pieces (floors from the monotonicity proof)
    ak = _ug_A(pk, sk)
    dp_bound = -0.5 * math.log(sk) + 0.5 * digamma(pk / 2.0 + 2.0)
    ds_bound = _LOG_A - (pk / 2.0 + 2.0) / sk
    corner = sk * _LOG_A + math.log(ak) - (pk / 2.0 + 2.0) * math.log(sk) + log_gamma(pk / 2.0 + 2.0)
    region = f"case {case}: p in (0, {pk}], s in [{sk}, 12] with derivative/corner certificate"
    return _make_report(f"U_less_G_{case}", region, grid,
                        ((p, s), G(IntegralParams(p, s)) - U(IntegralParams(p, s))),
                        ((pk, sk, 1.0), dp_floor - dp_bound), ((pk, sk, 2.0), ds_bound - ds_floor),
                        ((pk, sk, 3.0), corner - corner_floor))


def _verify_U_less_G_tilde(grid: tuple[int, int]) -> VerificationReport:
    b = 2.0 * math.exp(-8.0 / 3.0 * _LOG_A) * (8.0 / 3.0) ** 2

    def L(p: float) -> float:
        return b * (16.0 / 3.0) ** (p / 2.0) / (4.0 - p) + (p / 2.0 + 2.0) * (p / 2.0 + 3.0) / 36.0

    def R(p: float) -> float:
        return 0.88 * (8.0 / 3.0) ** 2 * (D(p) - 1.0) + 8.0 / 9.0

    def Rp(p: float) -> float:
        return 0.88 * (8.0 / 3.0) ** 2 * D(p) * _dlog_D(p)

    p, s = _mesh(2.0 + np.geomspace(1e-3, 1.0 - 1e-3, grid[0]),
                 np.geomspace(8.0 / 3.0, 12.0, grid[1]))
    # the paper's two tangents with their printed difference floors
    floors = ((2.0, 2.0, 0.017), (2.0, 2.5, 0.076), (2.5, 2.5, 1.19), (2.5, 3.0, 3.77))
    region = "case tilde: p in (2,3), s in [8/3, 12] with the two tangent certificates"
    return _make_report("U_less_G_tilde", region, grid,
                        ((p, s), G_tilde(IntegralParams(p, s)) - U(IntegralParams(p, s))),
                        *(((v, u), (_tangent(R, Rp, v)(u) - L(u)) - floor)
                          for v, u, floor in floors))


# ----------------------------------------------------------------------------
# inductive base and small lemmas
# ----------------------------------------------------------------------------

def verify_ind_base(grid: tuple[int, int] = (200, 200)) -> VerificationReport:
    """The two-point inductive-base inequality on (q, t) in [1/8, 1] x [0, 1].

    h_q(t) = Gamma(2-q) (2 - ((3-t)/2)^(-q)) - (1 - q(1-q)/2 t - q^2(1-q^2)/12 t^2)
    vanishes at (q,t) = (1,1), so the q-axis is clipped at 1 - 1e-3; the
    proof's sub-certificates (concavity floor 0.3175, tangent margins
    0.0005 / 0.0003, the -0.124 bound, and part (B) on all of [0,1]) follow
    the grid, one check each.
    """
    nq, nt = _check_grid(grid)
    q = np.linspace(0.125, 1.0 - 1e-3, nq)[:, None]  # a column and a row: the mesh broadcasts
    t = np.linspace(0.0, 1.0, nt)
    R = gamma(2.0 - q) * (2.0 - ((3.0 - t) / 2.0) ** (-q))  # Gamma once per q row
    poly = 1.0 - q * (1.0 - q) / 2.0 * t - q**2 * (1.0 - q**2) / 12.0 * t**2

    # concavity floor: Gamma(2-q) - (3/2)^(q+1) q(1-q) > 0.3175 on (0,1)
    qg = np.linspace(1e-3, 1.0 - 1e-3, 400)
    conc = gamma(2.0 - qg) - 1.5 ** (qg + 1.0) * qg * (1.0 - qg)
    i = int(np.argmin(conc))

    # part (A): tangent of g(q) = log Gamma(2-q) at q = 1/8 versus f
    def g(q):
        return log_gamma(2.0 - q)

    def f(q):
        return -math.log(2.0) - math.log(1.0 - 0.5 * (2.0 / 3.0) ** q)

    ell = _tangent(g, lambda q: -digamma(2.0 - q), 0.125)

    # part (B): log Gamma(2-q) + q(1-q)/2 + q^2(1-q^2)/12 >= 0 on all of [0,1]
    qb = np.linspace(0.0, 1.0, 402)[1:-1]
    fb = log_gamma(2.0 - qb) + qb * (1.0 - qb) / 2.0 + qb**2 * (1.0 - qb**2) / 12.0
    j = int(np.argmin(fb))

    region = "q in [1/8, 1-1e-3], t in [0, 1]; plus concavity/tangent/part-(B) certificates"
    return _make_report("ind_base", region, grid, ((q, t), R - poly),
                        ((qg[i], -1.0), conc[i] - 0.3175),
                        ((0.125, -2.0), ell(0.125) - f(0.125) - 0.0005),
                        ((0.35, -2.0), ell(0.35) - f(0.35) - 0.0003),
                        ((0.35, -3.0), -0.124 - f(0.35)), ((qb[j], -4.0), fb[j]))


def verify_two_coeff_bounds(d: int, p: float) -> VerificationReport:
    """Two-coefficient moment versus its quadratic and min-type bounds.

    For d=4, 0 < p <= 2: 2F1(p/2,(p-2)/2;2;t) <= 1 - p(2-p)/8 t - p^2(4-p^2)/192 t^2.
    For 0 < p <= d-2: the moment is <= 1 and nonincreasing in t (fp allowance
    1e-13 on the monotonicity differences).  At p = d-2 the moment is
    identically 1 (degenerate boundary), so there "<= 1" is checked as
    |moment - 1| <= 1e-13 and the differences vanish.
    """
    _check_dim(d)
    if not 0.0 < p <= d - 2:
        raise DomainError(f"requires 0 < p <= d-2, got p={p}, d={d}")
    degenerate = abs(p - (d - 2.0)) < 1e-12
    ts = np.linspace(1e-3, 1.0 - 1e-3, _N_GRID)
    mvals = _two_coeff_2f1(d, -p, ts)
    checks = []  # ((t, tag), margins): the quadratic bound, "<= 1", then monotonicity
    if d == 4 and p <= 2.0:
        # the gap is O(p^2 t^3); below double resolution for tiny p, hence the
        # 1e-15 rounding allowance
        quad_bound = 1.0 - p * (2.0 - p) / 8.0 * ts - p**2 * (4.0 - p**2) / 192.0 * ts**2
        checks.append(((ts, 0.0), quad_bound - mvals + 1e-15))
    checks.append(((ts, 1.0), 1e-13 - np.abs(1.0 - mvals) if degenerate else 1.0 - mvals))
    checks.append(((ts[:-1], 2.0), mvals[:-1] - mvals[1:] + 1e-13))
    tag = " (degenerate boundary p=d-2)" if degenerate else ""
    region = f"d={d}, p={p}, t in [1e-3, 1-1e-3]{tag}"
    return _make_report("two_coeff_bounds", region, (_N_GRID,), *checks)


def verify_bisubharmonic(d: int, p: float) -> VerificationReport:
    """Sign pattern of the radial quartic A|x|^4 + B|x|^2 + C for 0 < p < d-4.

    A = (p-d+2)(p-d+4) > 0 and B^2 - 4AC = 8 delta^2 (d+2)(p+4)(p-d+4) < 0,
    so the quartic has no real root; at p = d-4 the discriminant vanishes
    (degenerate boundary) and only positivity of the quartic is asserted.
    """
    _check_dim(d)
    if d < 5:
        raise DomainError(f"requires d >= 5, got {d}")
    if not 0.0 < p <= d - 4.0:
        raise DomainError(f"requires 0 < p <= d-4, got p={p}")
    degenerate = abs(p - (d - 4.0)) < 1e-12
    checks = []
    A = (p - d + 2.0) * (p - d + 4.0)
    xs = np.linspace(0.0, 10.0, _N_GRID)
    for delta in _BISUB_DELTAS:
        B = 2.0 * delta * (d + 2.0) * (-p + d - 4.0)
        C = delta**2 * d * (d + 2.0)
        disc = B * B - 4.0 * A * C
        formula = 8.0 * delta**2 * (d + 2.0) * (p + 4.0) * (p - d + 4.0)
        scale = max(abs(disc), abs(formula), 1.0)
        quartic = A * xs**4 + B * xs**2 + C
        i = int(np.argmin(quartic))
        checks += [((delta, 0.0), 1e-9 * scale - abs(disc - formula)), ((delta, xs[i]), quartic[i])]
        if not degenerate:
            checks += [((delta, 1.0), A), ((delta, 2.0), -disc)]
    tag = " (degenerate boundary p=d-4)" if degenerate else ""
    region = f"d={d}, p={p}, deltas={_BISUB_DELTAS}, |x| in [0, 10]{tag}"
    return _make_report("bisubharmonic", region, (_N_GRID,), *checks)


def verify_small_lemmas() -> VerificationReport:
    """(13/20)^q < Gamma(2-q); extended midpoint concavity of Phi_p; the
    projection chain a1^(-p) <= (13/10)^(p/2) <= 2^(p/2) Gamma(2-p/2)."""
    qs = np.linspace(1e-3, 2.0 - 1e-3, _N_GRID)
    fp0 = EULER_GAMMA - 1.0 - math.log(13.0 / 20.0)

    # midpoint concavity is non-strict: reflection pairs a+ = 2 - a- give exact
    # equality, so the margins carry a 1e-14 rounding allowance
    ams = np.linspace(0.0, 0.98, 25)
    am = np.repeat(ams, 25)
    ap = np.linspace(ams + 0.02, 2.0 - ams, 25, axis=1).ravel()  # row i: a+ for a- = ams[i]
    mid = 0.5 * (am + ap)
    keep = mid <= 1.0
    am, ap, mid = am[keep], ap[keep], mid[keep]

    def concavity(p):
        phi = PhiFunction(p)
        return (p, am, ap), phi(mid) - 0.5 * (phi(am) + phi(ap)) + 1e-14

    ps = np.linspace(1e-3, 0.25, 100)
    a1 = math.sqrt(10.0 / 13.0) * (1.0 + 1e-9)
    region = "Gamma lower bound on (0,2); Phi_p midpoint concavity; projection chain p in (0, 1/4]"
    return _make_report("small_lemmas", region, (_N_GRID,),
                        ((qs, 0.0), gamma(2.0 - qs) - 0.65**qs), ((0.0, 0.0), fp0 - 0.007),
                        *(concavity(p) for p in (0.3, 1.0, 2.5)),
                        ((ps, -1.0), 2.0 ** (ps / 2.0) * gamma(2.0 - ps / 2.0) - 1.3 ** (ps / 2.0)),
                        ((ps, -2.0), 1.3 ** (ps / 2.0) - a1 ** (-ps)))


# ----------------------------------------------------------------------------
# interpolation lemmas: certified bounds against tangent lines (Tables 2 and 3)
# ----------------------------------------------------------------------------

TABLE2_EDGES = tuple(0.8 + 0.1 * i for i in range(13))
TABLE2_FLOORS_LEFT = (1, 5, 8, 9, 10, 12, 13, 14, 14, 15, 15, 15)
TABLE2_FLOORS_RIGHT = (4, 8, 9, 10, 11, 13, 14, 14, 15, 15, 15, 14)

TABLE3_EDGES = (0.02, 0.05, 0.1, 0.15, 0.2, 0.23, 0.25)
TABLE3_FLOORS_LEFT = (0.7, 1, 3, 4, 5, 3)
TABLE3_FLOORS_RIGHT = (2, 3, 4, 3, 3, 2)

_T3_LOG_C = 2.0 / 17.0 + 1.5 * math.log(2.0) - 0.5 * math.log(1.7)


def table2_margins() -> tuple[np.ndarray, np.ndarray]:
    """Endpoint margins 1e3 (ell_i - L) of the s=8/3 interpolation bound."""
    left, right = _tangent_margins(lambda v: log_gamma(v / 2.0), lambda v: 0.5 * digamma(v / 2.0),
                                   table2_log_bound, TABLE2_EDGES)
    return 1e3 * left, 1e3 * right


def _table3_R(p: float) -> float:
    return math.exp(_T3_LOG_C * p) * gamma(p / 2.0 + 1.0)


def _table3_Rp(p: float) -> float:
    return _table3_R(p) * (_T3_LOG_C + 0.5 * digamma(p / 2.0 + 1.0))


def table3_margins() -> tuple[np.ndarray, np.ndarray, float]:
    """Endpoint margins 1e4 of the s=1.3 bound, plus the p<=0.02 tangent margin."""
    left, right = _tangent_margins(_table3_R, _table3_Rp,
                                   table3_scaled_bound, TABLE3_EDGES)
    rp0 = _T3_LOG_C - 0.5 * EULER_GAMMA  # R(0)=1, R'(0)
    ell0_margin = 1.0 + rp0 * 0.02 - table3_scaled_bound(0.02)
    return 1e4 * left, 1e4 * right, float(ell0_margin)


def _floor_checks(left, right, offset: int) -> list:
    """One check a side of (values, floors) pairs: points (row + offset, side), margins
    value - floor."""
    return [((np.arange(len(values)) + float(offset), float(side)), values - np.asarray(floors))
            for side, (values, floors) in enumerate((left, right))]


def verify_table2() -> VerificationReport:
    """Computed tangent margins meet the printed (1e-3-scaled) floors."""
    left, right = table2_margins()
    return _make_report("table2", f"12 subintervals of [0.8, 2], m={_M_S83}", (12,),
                        *_floor_checks((left, TABLE2_FLOORS_LEFT), (right, TABLE2_FLOORS_RIGHT), 0))


def verify_table3() -> VerificationReport:
    """Computed tangent margins meet the printed (1e-4-scaled) floors, and the
    p <= 0.02 tangent margin exceeds 1e-5."""
    left, right, ell0 = table3_margins()
    return _make_report("table3", f"6 subintervals of [0.02, 0.25] plus ell_0, m={_M_S13}", (6,),
                        *_floor_checks((left, TABLE3_FLOORS_LEFT), (right, TABLE3_FLOORS_RIGHT), 1),
                        ((0.02, 2.0), ell0 - 1e-5))


def verify_interpolation_tilde() -> VerificationReport:
    """F(p, 8/3) < e^(-p/6) G~(p, 2) for 2 < p < 3 via the two-tangent scheme.

    Checks the certified bound values L(2) < 0.35, L(2.5) < 0.56, L(3) < 0.96
    and the tangent values r1(2) > 0.359, r1(2.5) > 0.58, r2(3) > 1.48.
    """
    def R(p: float) -> float:
        # log(e^(-p/6) G~(p,2)); only evaluated at p = 2, 2.5 where D is finite
        return -p / 6.0 + (p - 1.0) * math.log(2.0) + log_gamma(p / 2.0) + math.log(D(p))

    def Rp(p: float) -> float:
        return -1.0 / 6.0 + math.log(2.0) + 0.5 * digamma(p / 2.0) + _dlog_D(p)

    r1, r2 = _tangent(R, Rp, 2.0), _tangent(R, Rp, 2.5)
    caps = ((2.0, 0.35), (2.5, 0.56), (3.0, 0.96))
    floors = ((r1, 2.0, 0.359), (r1, 2.5, 0.58), (r2, 3.0, 1.48))
    chain = ((r1, 2.0), (r1, 2.5), (r2, 2.5), (r2, 3.0))  # tangents beat the bound at the ends
    return _make_report("interpolation_tilde", "p in [2, 3], two tangents at 2 and 2.5", (2,),
                        *(((p, 0.0), cap - math.log(_tilde_F_upper(p))) for p, cap in caps),
                        *(((p, 1.0), fn(p) - floor) for fn, p, floor in floors),
                        *(((p, 2.0), fn(p) - math.log(_tilde_F_upper(p))) for fn, p in chain))


def h_sign_chart(points: Sequence[tuple[float, float]]) -> list[dict]:
    """Record sign(H) at arbitrary (p, s) points; no pass/fail claim is made.

    Where F diverges (p >= 3s/2), H = -inf and the sign is recorded as -1.
    The convergent points are evaluated together, grouped by s.
    """
    p, s = np.array(points, dtype=float).reshape(len(points), 2).T
    conv = p < 1.5 * s
    vals = np.where(conv, 0.0, -math.inf)
    if conv.any():
        vals[conv] = H(IntegralParams(p[conv], s[conv]))
    for i in (~conv).nonzero()[0]:
        try:
            H(IntegralParams(p[i], s[i]))  # H's domain check; inside it, F diverges
        except DivergenceError:
            pass
    return [{"p": pt[0], "s": pt[1], "H": v, "sign": int(sign)}
            for pt, v, sign in zip(points, vals.tolist(), np.sign(vals).tolist())]

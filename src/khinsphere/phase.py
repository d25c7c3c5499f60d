"""Phase-transition machinery: the crossing point of c_two and c_inf.

For each dimension d the two candidate extremizers exchange roles at the
unique root q_d* of c_{d,2}(q) = c_{d,inf}(q).  Everything is evaluated in
log space (log_gamma) so that dimensions up to 60 and roots exponentially
close to -(d-1) remain representable.  The roots of many dimensions are
found together: each d is scanned for its bracket, then one bisection
(specfun._bisect) halves every bracket per step.  Both take the sign of
log c_two - log c_inf as sign(h) sign(q), with h in h_tilde's x form,
x = (q + d - 1)/2, which holds for every d >= 1.  q_star(d) is the batch's
one-dimension case, and the scan has no entry point of its own: q_star
raises unless d's scan finds exactly one bracket.

The scans share their log Gamma values.  d's grid, 0.01 apart in q, is
x_left + j/200 in x, and the three log Gamma arguments of the x form lie on
the lattice x_left + k/200.  A call builds one table per left edge, as long
as its largest d needs, and keeps none: the 188k grid points of d = 5..60
take log Gamma at 22,600 points, in two tables.  The tests check every grid
point's sign for d = 1..160 against the q form, h_d / q.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import _check_dim, c_inf, c_two
from .errors import DomainError, MultipleRootsError, NoBracketError, ToleranceError
from .specfun import _bisect, digamma, log_gamma, trigamma
from .verify import VerificationReport, _make_report

__all__ = [
    "PhaseTransitionResult",
    "h_d",
    "h_tilde",
    "q_star",
    "verify_appendix_claims",
    "asymptotic_check",
]


_MAX_RESIDUAL = 1e-10  # |c_two - c_inf| accepted at a reported root
_APPENDIX_GRID = 400  # grid size of the h_tilde claims
_FIT_RANGE = (20, 60)  # dimensions fitted by asymptotic_check
_SLOPE_TOL_REL = 0.15  # relative tolerance on the fitted decay slope


@dataclass(frozen=True)
class PhaseTransitionResult:
    d: int
    q_star: float
    bracket: tuple[float, float]
    residual: float
    iterations: int

    def __post_init__(self) -> None:
        lo, hi = self.bracket
        if not lo < self.q_star < hi:
            raise ValueError("root must lie strictly inside its bracket")
        if not (self.residual <= _MAX_RESIDUAL):
            raise ValueError(f"residual {self.residual} exceeds {_MAX_RESIDUAL:g}")
        if self.d > 1 and not -(self.d - 1) < self.q_star < 2:
            raise ValueError("root outside (-(d-1), 2)")


def h_d(d, q) -> float:
    """log(c_{d,2}(q)^q) - log(c_{d,inf}(q)^q); opposite sign to c2-cinf for q<0.

    d and q broadcast against each other.  A float q takes log_gamma's
    float path for each of the four log Gamma terms.  A non-finite d or q
    raises DomainError.
    """
    qa = q if isinstance(q, float) else np.asarray(q, dtype=float)
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(qa))):
        raise DomainError(f"h_d requires finite d and q, got d={d!r}, q={q!r}")
    val = (-qa * math.log(2.0) + qa / 2.0 * np.log(d)
           + 2.0 * log_gamma(d / 2.0) + log_gamma(d + qa - 1.0)
           - 2.0 * log_gamma((d + qa) / 2.0) - log_gamma(d + qa / 2.0 - 1.0))
    return float(val) if np.ndim(val) == 0 else val


def h_tilde(d: int, x) -> float:
    """h_d rewritten through x = (q + d - 1)/2 in (0, (d-1)/2), all in log space."""
    _check_dim(d)
    if d < 2:
        raise DomainError(f"h_tilde requires d >= 2, got {d}")
    xa = x if isinstance(x, float) else np.asarray(x, dtype=float)  # a float: log_gamma's float path
    if not np.all((xa > 0) & (xa <= (d - 1) / 2.0)):
        raise DomainError(f"h_tilde requires 0 < x <= (d-1)/2, got {x!r}")
    val = _h_at(d, xa)
    return float(val) if np.ndim(val) == 0 else val


def _h_at(d: int, x):
    """h_tilde's x form at x, a float (log_gamma's float path) or an array, unchecked."""
    return _h_x(x, *_h_x_consts(d), *(log_gamma(x + s) for s in (0.0, 0.5, (d - 1.0) / 2.0)))


def _h_x_consts(d: int) -> tuple[float, float]:
    """(log d, the x-free term) of h_tilde's x form, on float paths."""
    log_d = math.log(d)
    return log_d, ((d - 2.0) * math.log(2.0) + 2.0 * log_gamma(d / 2.0)
                   - 0.5 * math.log(math.pi) - (d - 1.0) / 2.0 * log_d)


def _h_x(x, log_d, const, lg_x, lg_half, lg_shift):
    """h_tilde's formula from _h_x_consts(d) and log Gamma at x, x + 1/2, x + (d-1)/2."""
    return x * log_d + lg_x - lg_half - lg_shift + const


def _left_edge(d: int) -> float | None:
    """x = (q + d - 1)/2 at the left edge of d's scan, or None if there is none.

    The root approaches -(d-1) exponentially fast, so the left edge must
    adapt: walk x = 5e-4 / 4^k toward 0, down to 4.8e-10, until h q < 0 there
    (left of the root), one scalar h a step, on log_gamma's float path (about
    1.2 steps a d over 5..60).  For d = 1, q = 2x > 0 and h < 0 at 5e-4.
    A d that is not a positive integer raises DomainError.
    """
    _check_dim(d)
    x_left = 5e-4
    while (2.0 * x_left - (d - 1)) * _h_at(d, x_left) >= 0:
        if x_left <= 1e-9:
            return None
        x_left /= 4.0
    return x_left


_LATTICE_STEPS = 200  # lattice points per unit of x: the grid's 0.01 in q


def _lattices(ds) -> list[tuple[float, np.ndarray] | None]:
    """(x_left, table) for each d of ds, or None without a left edge (_left_edge): one table
    log_gamma(x_left + k/200) per edge, of 200 (D+1) entries for D its largest d, as a d
    reads its grid, at most 100 (d+1) points, and the grid shifted by 100 (d-1)."""
    edges, top = [_left_edge(d) for d in ds], {}
    for d, x_left in zip(ds, edges):
        top[x_left] = max(top.get(x_left, 0), d)
    tables = {x: log_gamma(x + np.arange(_LATTICE_STEPS * (d + 1)) / _LATTICE_STEPS)
              for x, d in top.items() if x is not None}
    return [None if x is None else (x, tables[x]) for x in edges]


def _lattice_signs(d: int, lattice) -> tuple[np.ndarray, np.ndarray]:
    """(qs, signs): d's scan grid and the sign of log c_two - log c_inf on it.

    The grid is qs = -(d-1) + 2 x_left + 0.01 j up to 2 (1e-3 + 0.01 j for
    d = 1), x_left + j/200 in x, so the three log Gamma columns of h_tilde's
    x form are slices, at offsets 0, 100 and 100 (d-1), of the table of d's
    left edge: lattice is d's (x_left, table) of _lattices.  The sign is
    sign(h) sign(q).  The grid runs to q < 2, x up to (d+1)/2, past h_tilde's
    domain check, so its formula is taken directly.  Without a left edge
    (lattice None) both are empty.
    """
    if lattice is None:
        return np.empty(0), np.empty(0)
    x_left, table = lattice
    qs = np.arange(-(d - 1) + 2.0 * x_left, 2.0 - 1e-3, 0.01)
    n, half = qs.size, _LATTICE_STEPS // 2
    h = _h_x(x_left + np.arange(n) / _LATTICE_STEPS, *_h_x_consts(d),
             *(table[k:k + n] for k in (0, half, half * (d - 1))))
    keep = np.abs(qs) > 1e-6  # skip the removable singularity at q = 0
    return qs[keep], (np.sign(h) * np.sign(qs))[keep]


def _sign_changes(d: int, lattice) -> list[tuple[float, float]]:
    """The brackets where d's scan signs change, from d's lattice of _lattices."""
    qs, sgn = _lattice_signs(d, lattice)
    idx = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
    return [(float(qs[i]), float(qs[i + 1])) for i in idx]


def q_star(d: int, tol: float = 1e-12) -> PhaseTransitionResult:
    """The unique solution of c_{d,2}(q) = c_{d,inf}(q), by scan + bisection.

    For d = 1 the scan runs over (0, 2) (the two-point constant involves a
    vanishing sum for q <= 0); a single sign change is required, otherwise
    the uniqueness asserted by the phase-transition proposition would fail.
    This is the one-dimension case of the batched solver `_q_star_batch`.

    Reach: at the default tol every d <= 79 succeeds.  For 80 <= d <= 145
    most d (63 of the 66) raise ToleranceError: the root nears -(d-1), where
    c_two - c_inf is steep, so a bracket at tol, or one float wide, leaves
    a residual above 1e-10 (d = 80: 1.1e-10, d = 145: 1.0e-6).  A smaller
    tol rescues some (d = 80 and 100 at 1e-13); for others (d = 120, 140,
    145) the bracket becomes one float wide first, and the message says
    so.  From d = 146 the root lies left of x = (q + d - 1)/2 = 1e-9, where
    the scan's left edge stops, so NoBracketError is raised, with no scan
    grid built.  A tol not in (0, inf), NaN too, raises DomainError.
    """
    return _q_star_batch([d], tol)[0]


def _q_star_batch(ds, tol: float = 1e-12) -> list[PhaseTransitionResult]:
    """q_star for every d of ds, with one bisection over all of them at once.

    Each d is scanned for its own bracket (_sign_changes) from the table of
    its left edge, one for all d on the edge (_lattices).  Then specfun._bisect
    halves every bracket in the same step, on the scan's formula: the sign of
    log c_two - log c_inf is sign(h) sign(q), with h in h_tilde's x form,
    x = (q + d - 1)/2, and one log_gamma call a step on x, x + 1/2 and
    x + (d-1)/2 stacked over the lanes still open.  A lane stops at an exact
    zero, at width tol or when its bracket is one float wide, so each root
    is the one a bisection of its d alone would give.  The error raised is
    the one a loop of single solves over ds, in order, would raise first,
    except that every d is checked before any scan: an invalid d raises
    DomainError even after a d without a bracket.
    """
    if not 0.0 < tol < math.inf:  # NaN too
        raise DomainError(f"tol must be positive and finite, got {tol}")
    ds = list(ds)
    brackets: list[tuple[float, float]] = []
    scan_error = None
    for d, lattice in zip(ds, _lattices(ds)):
        found = _sign_changes(d, lattice)
        if len(found) != 1:
            scan_error = (MultipleRootsError(f"multiple sign changes for d={d}: {found}") if found
                          else NoBracketError(f"no sign change found for d={d}"))
            break  # the dimensions after it cannot raise first
        brackets.append(found[0])
    results = []
    if brackets:
        dd = np.array(ds[:len(brackets)])
        shift = dd - 1.0
        log_d, const = np.array([_h_x_consts(d) for d in dd.tolist()]).T

        def ratio_sign(lanes, q):
            x = (q + shift[lanes]) / 2.0
            lgs = log_gamma(np.stack((x, x + 0.5, x + shift[lanes] / 2.0)))
            return np.sign(_h_x(x, log_d[lanes], const[lanes], *lgs)) * np.sign(q)

        a, b, iterations = _bisect(ratio_sign, *np.array(brackets, dtype=float).T, tol)
        roots = 0.5 * (a + b)
        residuals = np.abs(c_two(dd, roots) - c_inf(dd, roots))
        for d, bracket, root, residual, n, lo, hi in zip(
                ds, brackets, roots.tolist(), residuals.tolist(), iterations.tolist(),
                a.tolist(), b.tolist()):
            if not residual <= _MAX_RESIDUAL:
                hint = ("the residual bound is out of reach at float resolution"
                        if root in (lo, hi) else "use a smaller tol")
                raise ToleranceError(f"q_star(d={d}, tol={tol}): residual {residual:.3e} above "
                                     f"{_MAX_RESIDUAL:g}; {hint}")
            results.append(PhaseTransitionResult(d=d, q_star=root, bracket=bracket,
                                                 residual=residual, iterations=n))
    if scan_error is not None:
        raise scan_error
    return results


def verify_appendix_claims(d: int) -> VerificationReport:
    """The three h_tilde claims plus their printed sub-certificates.

    Claim 1: h_tilde'' > 0.06 on (0, 1), with the analytic floor 5 - pi^2/2.
    Claim 2: h_tilde' > 0 on (1, (d-1)/2), with f > 0.003 on (1, 1.07).
    Claim 3: h_tilde(1/2) < 0, with the Stirling-chain values f'(5/2) < -0.1
    and f(5/2) < -0.04.  Also h_d'(0) > 0 by one-sided differences.
    """
    _check_dim(d)
    if d < 5:
        raise DomainError(f"appendix claims require d >= 5, got {d}")
    shifts = np.array([[0.0], [0.5], [(d - 1) / 2.0]])  # each grid's shifts, one call a grid
    x2 = np.linspace(1e-3, 1.0 - 1e-3, _APPENDIX_GRID)
    h2 = np.subtract.reduce(trigamma(x2 + shifts))  # psi'(x) - psi'(x + 1/2) - psi'(x + (d-1)/2)
    i2 = int(np.argmin(h2))
    x1 = np.linspace(1.0 + 1e-6, (d - 1) / 2.0 - 1e-9, _APPENDIX_GRID)
    psi = digamma(x1 + shifts)
    h1 = math.log(d) + psi[0] - psi[1] - psi[2]
    i1 = int(np.argmin(h1))
    xf = np.linspace(1.0 + 1e-9, 1.07, 50)
    psi = digamma(xf + shifts[:2])
    fvals = np.log(1.0 + 0.5 / xf) + 0.25 / xf - (psi[1] - psi[0])
    i_f = int(np.argmin(fvals))
    fprime_52 = math.log(2.0) - 1.0 + 0.2  # f'(u) = log 2 - 1 + 1/(2u) at u = 5/2
    f_52 = math.log(math.sqrt(2.0 * math.pi) * 2.0**1.5 * math.exp(-2.5 + 1.0 / 30.0) * math.sqrt(2.5))
    eps = 1e-6
    region = f"d={d}: claims 1-3 with printed floors, plus h_d'(0) > 0"
    return _make_report("appendix_claims", region, (_APPENDIX_GRID,),
                        ((1.0, x2[i2]), h2[i2] - 0.06),
                        ((1.0, -1.0), 5.0 - math.pi**2 / 2.0 - 0.06),  # analytic floor of the claim
                        ((2.0, x1[i1]), h1[i1]), ((2.0, xf[i_f]), fvals[i_f] - 0.003),
                        ((3.0, 0.5), -h_tilde(d, 0.5)), ((3.0, 2.5), -0.1 - fprime_52),
                        ((3.0, -2.5), -0.04 - f_52),
                        ((4.0, 0.0), h_d(d, eps) / eps), ((4.0, -0.0), h_d(d, -eps) / (-eps)))


def asymptotic_check(d_range) -> VerificationReport:
    """Decay rate of alpha_d = (q_d* + d - 1)/2 against the predicted exponent.

    Fits log(alpha_d) - log(d) ~ slope * d + const over the dimensions of
    d_range in [20, 60] and passes when the slope is within 15% of
    -(1 - log 2)/2; also records that alpha_d < 1/2 for every d >= 10 in the
    range.
    """
    d_range = sorted(int(d) for d in d_range)
    if any(d < 5 or d > 60 for d in d_range):
        raise DomainError("asymptotic check supports 5 <= d <= 60")
    target = -(1.0 - math.log(2.0)) / 2.0
    alphas = {r.d: (r.q_star + r.d - 1.0) / 2.0 for r in _q_star_batch(d_range, tol=1e-12)}
    lo, hi = _FIT_RANGE
    fit_ds = [d for d in d_range if lo <= d <= hi]
    if len(fit_ds) < 3:
        raise DomainError("need at least 3 dimensions inside the fit range")
    ys = np.array([math.log(alphas[d]) - math.log(d) for d in fit_ds])
    xs = np.array(fit_ds, dtype=float)
    slope, _ = np.polyfit(xs, ys, 1)
    late = [d for d in d_range if d >= 10]
    alpha = np.array([alphas[d] for d in late], dtype=float)
    region = (f"d in {d_range[0]}..{d_range[-1]}, fit on [{lo}, {hi}]; "
              f"slope={slope:.5f} vs target={target:.5f}")
    return _make_report("appendix_asymptotics", region, (len(d_range),),
                        ((slope, target), _SLOPE_TOL_REL - abs(slope / target - 1.0)),
                        ((np.array(late, dtype=float), alpha), 0.5 - alpha))

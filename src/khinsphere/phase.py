"""Phase-transition machinery: the crossing point of c_two and c_inf.

For each dimension d the two candidate extremizers exchange roles at the
unique root q_d* of c_{d,2}(q) = c_{d,inf}(q).  Everything is evaluated in
log space (log_gamma) so that dimensions up to 60 and roots exponentially
close to -(d-1) remain representable.  The roots of many dimensions are
found together: each d is scanned for its bracket, then one bisection
(specfun._bisect) halves every bracket per step.  Both take the sign of
log c_two - log c_inf as sign(h) sign(q), with h in h_tilde's x form,
x = (q + d - 1)/2, which holds for every d >= 1.  q_star(d) is the batch's
one-dimension case.

The scans share their log Gamma values.  d's grid, 0.01 apart in q, is
x_left + j/200 in x, and the three log Gamma arguments of the x form lie on
the lattice x_left + k/200.  Every d with the same left edge reads them from
one lazily built table: the 188k grid points of d = 5..60 take log Gamma at
26k points, in two tables.  The tests check every grid point's sign for
d = 1..160 against the q form, h_d / q.
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
    "scan_sign_changes",
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
    float path for each of the four log Gamma terms.
    """
    qa = q if isinstance(q, float) else np.asarray(q, dtype=float)
    val = (-qa * math.log(2.0) + qa / 2.0 * np.log(d)
           + 2.0 * log_gamma(d / 2.0) + log_gamma(d + qa - 1.0)
           - 2.0 * log_gamma((d + qa) / 2.0) - log_gamma(d + qa / 2.0 - 1.0))
    return float(val) if np.ndim(val) == 0 else val


def h_tilde(d: int, x) -> float:
    """h_d rewritten through x = (q + d - 1)/2 in (0, (d-1)/2), all in log space."""
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


def _left_edge(d: int) -> float:
    """x = (q + d - 1)/2 at the left edge of d's scan.

    The root approaches -(d-1) exponentially fast, so the left edge must
    adapt: walk x = 5e-4 / 4^k toward 0 until h q < 0 there (left of the
    root), one scalar h a step, on log_gamma's float path (about 1.2 steps
    a d over 5..60).  For d = 1, q = 2x > 0 and h < 0 at 5e-4: no step.
    """
    x_left = 5e-4
    while x_left > 1e-9 and (2.0 * x_left - (d - 1)) * _h_at(d, x_left) >= 0:
        x_left /= 4.0
    return x_left


_LATTICE_STEPS = 200  # lattice points per unit of x: the grid's 0.01 in q
_LATTICE_CHUNK = 2000  # a table grows by whole chunks, about 10 dimensions each
# log_gamma(x_left + k/200) for k < len, one table per left edge.  The walk of
# _left_edge gives at most 11 edges (two for d <= 60), and a table grows only
# when a larger d asks, to the 200 d + 200 points that d needs, rounded up to
# a whole chunk.
_LATTICE_LOG_GAMMA: dict[float, np.ndarray] = {}


def _lattice_log_gamma(x_left: float, n: int) -> np.ndarray:
    """log_gamma(x_left + k/200) for k < n (the table may be longer), built lazily.

    A larger d extends the table by the entries it lacks, up to a whole
    chunk, so that a scan over ascending d extends it about once in 10
    dimensions (one extension a d cost 2-4 ms more over d = 5..60).
    log_gamma is elementwise, so each entry is the one a single call over
    all k would give.
    """
    table = _LATTICE_LOG_GAMMA.get(x_left, np.empty(0))
    if table.size < n:
        k = np.arange(table.size, -(-n // _LATTICE_CHUNK) * _LATTICE_CHUNK)
        table = _LATTICE_LOG_GAMMA[x_left] = np.concatenate(
            (table, log_gamma(x_left + k / _LATTICE_STEPS)))
    return table


def _scan_signs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(qs, signs): d's scan grid and the sign of log c_two - log c_inf on it.

    The grid is qs = -(d-1) + 2 x_left + 0.01 j up to 2 (1e-3 + 0.01 j for
    d = 1), x_left + j/200 in x, so the three log Gamma columns of h_tilde's
    x form are slices, at offsets 0, 100 and 100 (d-1), of one table per left
    edge, shared by every d with that edge.  The sign is sign(h) sign(q).
    The grid runs to q < 2, that is x up to (d+1)/2, past h_tilde's domain
    check, so its formula is taken directly.
    """
    x_left = _left_edge(d)
    qs = np.arange(-(d - 1) + 2.0 * x_left, 2.0 - 1e-3, 0.01)
    n, half = qs.size, _LATTICE_STEPS // 2
    table = _lattice_log_gamma(x_left, n + half * (d - 1))
    h = _h_x(x_left + np.arange(n) / _LATTICE_STEPS, *_h_x_consts(d),
             *(table[k:k + n] for k in (0, half, half * (d - 1))))
    keep = np.abs(qs) > 1e-6  # skip the removable singularity at q = 0
    return qs[keep], (np.sign(h) * np.sign(qs))[keep]


def scan_sign_changes(d: int) -> list[tuple[float, float]]:
    """Brackets where c_two - c_inf changes sign over the standard scan grid.

    One sign a grid point (_scan_signs), for every d from a log Gamma table
    shared by the dimensions with the same left edge.
    """
    _check_dim(d)
    qs, sgn = _scan_signs(d)
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
    the scan's left edge stops, so NoBracketError is raised.  A tol not in
    (0, inf), NaN too, raises DomainError.
    """
    return _q_star_batch([d], tol)[0]


def _q_star_batch(ds, tol: float = 1e-12) -> list[PhaseTransitionResult]:
    """q_star for every d of ds, with one bisection over all of them at once.

    Each d is scanned for its own bracket, by one scan_sign_changes call a d;
    the scans read log Gamma from the tables they share (_lattice_log_gamma).
    Then specfun._bisect halves every bracket in the same step, on the
    scan's formula: the sign of log c_two - log c_inf is sign(h) sign(q), with
    h in h_tilde's x form, x = (q + d - 1)/2, and one log_gamma call a step
    on x, x + 1/2 and x + (d-1)/2 stacked over the lanes still open.  A lane
    stops at an exact zero, at width tol or when its bracket is one float
    wide, so each root is the one a bisection of its d alone would give.
    The error raised is the one a loop of single solves over ds, in order,
    would raise first.
    """
    if not 0.0 < tol < math.inf:  # NaN too
        raise DomainError(f"tol must be positive and finite, got {tol}")
    ds = list(ds)
    brackets: list[tuple[float, float]] = []
    scan_error = None
    for d in ds:
        found = scan_sign_changes(d)
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
    if d < 5:
        raise DomainError(f"appendix claims require d >= 5, got {d}")
    points: list[tuple[float, ...]] = []
    margins: list[float] = []

    xs = np.linspace(1e-3, 1.0 - 1e-3, _APPENDIX_GRID)
    h2 = trigamma(xs) - trigamma(xs + 0.5) - trigamma(xs + (d - 1) / 2.0)
    i = int(np.argmin(h2))
    points.append((1.0, float(xs[i])))
    margins.append(float(h2[i]) - 0.06)
    points.append((1.0, -1.0))
    margins.append(5.0 - math.pi**2 / 2.0 - 0.06)  # analytic floor of the claim

    xs = np.linspace(1.0 + 1e-6, (d - 1) / 2.0 - 1e-9, _APPENDIX_GRID)
    h1 = math.log(d) + digamma(xs) - digamma(xs + 0.5) - digamma(xs + (d - 1) / 2.0)
    i = int(np.argmin(h1))
    points.append((2.0, float(xs[i])))
    margins.append(float(h1[i]))
    xf = np.linspace(1.0 + 1e-9, 1.07, 50)
    fvals = np.log(1.0 + 0.5 / xf) + 0.25 / xf - (digamma(xf + 0.5) - digamma(xf))
    i = int(np.argmin(fvals))
    points.append((2.0, float(xf[i])))
    margins.append(float(fvals[i]) - 0.003)

    points.append((3.0, 0.5))
    margins.append(-h_tilde(d, 0.5))
    fprime_52 = math.log(2.0) - 1.0 + 0.2  # f'(u) = log 2 - 1 + 1/(2u) at u = 5/2
    points.append((3.0, 2.5))
    margins.append(-0.1 - fprime_52)
    f_52 = math.log(math.sqrt(2.0 * math.pi) * 2.0**1.5 * math.exp(-2.5 + 1.0 / 30.0) * math.sqrt(2.5))
    points.append((3.0, -2.5))
    margins.append(-0.04 - f_52)

    eps = 1e-6
    points.append((4.0, 0.0))
    margins.append(h_d(d, eps) / eps)
    points.append((4.0, -0.0))
    margins.append(h_d(d, -eps) / (-eps))

    region = f"d={d}: claims 1-3 with printed floors, plus h_d'(0) > 0"
    return _make_report("appendix_claims", region, (_APPENDIX_GRID,), points, margins)


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
    points: list[tuple[float, ...]] = []
    margins: list[float] = []
    lo, hi = _FIT_RANGE
    fit_ds = [d for d in d_range if lo <= d <= hi]
    if len(fit_ds) < 3:
        raise DomainError("need at least 3 dimensions inside the fit range")
    ys = np.array([math.log(alphas[d]) - math.log(d) for d in fit_ds])
    xs = np.array(fit_ds, dtype=float)
    slope, _ = np.polyfit(xs, ys, 1)
    points.append((float(slope), target))
    margins.append(_SLOPE_TOL_REL - abs(slope / target - 1.0))
    for d in d_range:
        if d >= 10:
            points.append((float(d), alphas[d]))
            margins.append(0.5 - alphas[d])
    region = (f"d in {d_range[0]}..{d_range[-1]}, fit on [{lo}, {hi}]; "
              f"slope={slope:.5f} vs target={target:.5f}")
    return _make_report("appendix_asymptotics", region, (len(d_range),), points, margins)

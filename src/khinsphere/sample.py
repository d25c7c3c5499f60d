"""Monte Carlo machinery: sphere sampling and heavy-tail-aware moment checks.

The sampling experiments are artifact plumbing (the underlying results are
theorems); they provide statistical cross-checks of the quadrature and
closed-form routes.  The RNG is Philox (counter-based) so that streams are
reproducible: identical seed and configuration give bit-identical results.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import C2, C_infty, MomentQuery
from .errors import DomainError
from .quad import QuadratureConfig, product_moment
from .specfun import hyp2f1

__all__ = [
    "SampleStats",
    "KhinchinEntry",
    "KhinchinReport",
    "BallSphereReport",
    "sample_sphere",
    "estimate_moment",
    "estimate_moments",
    "check_khinchin",
    "ball_sphere_identity",
    "polydisc_slice_volume",
    "normal_isf",
]

_CHUNK = 1 << 17
_MOM_BLOCKS = 64
# efficiency factor of the median of (asymptotically normal) block means
_MEDIAN_FACTOR = math.sqrt(math.pi / 2.0)


@dataclass(frozen=True)
class SampleStats:
    n_samples: int
    estimate: float
    std_error: float
    method: str
    seed: int

    def __post_init__(self) -> None:
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")
        if self.method not in ("plain-mean", "median-of-means"):
            raise ValueError(f"unknown method {self.method!r}")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed)))


def sample_sphere(d: int, size: int | None = None, rng: np.random.Generator | None = None,
                  seed: int = 0) -> np.ndarray:
    """Uniform points on S^(d-1): normalized standard Gaussians.

    Returns shape (d,) for size=None, else (size, d).
    """
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    gen = rng if rng is not None else _rng(seed)
    n = 1 if size is None else int(size)
    x = gen.standard_normal((n, d))
    norms = np.linalg.norm(x, axis=1)
    bad = norms < 1e-150
    while np.any(bad):  # probability-zero degenerate draws
        x[bad] = gen.standard_normal((int(bad.sum()), d))
        norms[bad] = np.linalg.norm(x[bad], axis=1)
        bad = norms < 1e-150
    x /= norms[:, None]
    return x[0] if size is None else x


def _abs_sums(d: int, coeffs, n: int, gen: np.random.Generator) -> np.ndarray:
    """|sum_k a_k xi_k| for n independent draws, in fixed-size chunks."""
    coeffs = np.asarray(coeffs, dtype=float)
    k = len(coeffs)
    out = np.empty(n)
    done = 0
    while done < n:
        m = min(_CHUNK, n - done)
        x = gen.standard_normal((m, k, d))
        x /= np.linalg.norm(x, axis=2)[:, :, None]
        s = np.einsum("k,mkd->md", coeffs, x)
        out[done:done + m] = np.linalg.norm(s, axis=1)
        done += m
    return out


def _stats_from_values(vals: np.ndarray, method: str, seed: int) -> SampleStats:
    n = len(vals)
    if method == "plain-mean":
        est = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(n))
    else:
        nb = _MOM_BLOCKS
        if n < 8 * nb:
            raise DomainError(f"median-of-means needs at least {8 * nb} samples")
        block = n // nb
        means = vals[: nb * block].reshape(nb, block).mean(axis=1)
        est = float(np.median(means))
        # widened error: the median of skewed block means is biased toward the
        # bulk, so the observed median-mean gap is added to the normal term
        se = float(_MEDIAN_FACTOR * np.std(means, ddof=1) / math.sqrt(nb)
                   + abs(float(np.mean(means)) - est))
    return SampleStats(n_samples=n, estimate=est, std_error=se, method=method, seed=seed)


def estimate_moment(query: MomentQuery, n_samples: int, seed: int = 0,
                    method: str = "auto") -> SampleStats:
    """Monte Carlo estimate of E|sum a_k xi_k|^q.

    The plain mean needs 2q > -(d-1) for a finite variance; otherwise the
    estimator switches to median of means over 64 blocks (and warns).
    """
    return estimate_moments(query.d, query.coeffs, [query.q], n_samples, seed, method)[0]


def estimate_moments(d: int, coeffs, qs, n_samples: int, seed: int = 0,
                     method: str = "auto") -> list[SampleStats]:
    """Estimates of E|sum a_k xi_k|^q for several q on shared samples."""
    if method not in ("auto", "plain-mean", "median-of-means"):
        raise DomainError(f"unknown method {method!r}")
    if n_samples < 2:
        raise DomainError(f"need at least 2 samples for a standard error, got {n_samples}")
    qs = [float(q) for q in qs]
    for q in qs:
        MomentQuery(d, q, tuple(coeffs))  # validates domain
    vals = _abs_sums(d, coeffs, n_samples, _rng(seed))
    out = []
    for q in qs:
        meth = method
        if method == "auto":
            meth = "plain-mean" if 2.0 * q > -(d - 1.0) else "median-of-means"
        elif method == "plain-mean" and 2.0 * q <= -(d - 1.0):
            warnings.warn(f"plain mean has infinite variance at q={q}, d={d}",
                          RuntimeWarning, stacklevel=2)
        out.append(_stats_from_values(vals**q, meth, seed))
    return out


def normal_isf(alpha: float) -> float:
    """z with P(N(0,1) > z) = alpha: bisection on erfc, then Newton polish."""
    if not 0.0 < alpha < 0.5:
        raise DomainError("normal_isf needs 0 < alpha < 1/2")
    lo, hi = 0.0, 40.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if 0.5 * math.erfc(mid / math.sqrt(2.0)) > alpha:
            lo = mid
        else:
            hi = mid
    z = 0.5 * (lo + hi)
    for _ in range(4):
        tail = 0.5 * math.erfc(z / math.sqrt(2.0))
        pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        z += (tail - alpha) / pdf
    return z


@dataclass(frozen=True)
class KhinchinEntry:
    coeffs: tuple[float, ...]
    estimate: float
    std_error: float
    bound: float
    margin_sigma: float
    route: str
    violated: bool


@dataclass(frozen=True)
class KhinchinReport:
    p: float
    constant: float
    threshold_sigma: float
    entries: tuple[KhinchinEntry, ...]
    n_violations: int
    passed: bool


def check_khinchin(d: int, p: float, coeff_sets, n_samples: int, seed: int = 0) -> KhinchinReport:
    """Check E|sum a_k xi_k|^(-p) <= C(p) (sum a_k^2)^(-p/2) at d=4.

    C(p) is C_infty for p <= 2 and C2 for p > 2.  Two-coefficient sets use the
    exact hypergeometric route; the rest are Monte Carlo with the base 4-sigma
    threshold Bonferroni-widened across the batch.
    """
    if d != 4:
        raise DomainError("the sharp-constant check is stated for d = 4")
    if not 0.0 < p < 3.0:
        raise DomainError(f"requires 0 < p < 3, got {p}")
    const = C_infty(p) if p <= 2.0 else C2(p)
    n_comp = max(1, len(coeff_sets))
    base_alpha = 0.5 * math.erfc(4.0 / math.sqrt(2.0))
    threshold = normal_isf(base_alpha / n_comp)
    entries = []
    for i, coeffs in enumerate(coeff_sets):
        coeffs = tuple(float(a) for a in coeffs)
        norm2 = sum(a * a for a in coeffs)
        bound = const * norm2 ** (-p / 2.0)
        nz = [abs(a) for a in coeffs if a != 0.0]
        if len(nz) == 1:
            est, se, route = nz[0] ** (-p), 0.0, "exact"
        elif len(nz) == 2:
            hi, lo = max(nz), min(nz)
            t = (lo / hi) ** 2
            est = hi ** (-p) * hyp2f1(p / 2.0, (p - 2.0) / 2.0, 2.0, t)
            se, route = 0.0, "hypergeometric"
        else:
            stats = estimate_moment(MomentQuery(d, -p, coeffs), n_samples, seed=seed + i)
            est, se, route = stats.estimate, stats.std_error, stats.method
        if route in ("exact", "hypergeometric"):
            violated = est > bound * (1.0 + 1e-9) + 1e-12
            margin_sigma = math.inf if est <= bound else -math.inf
        else:
            margin_sigma = (bound - est) / se if se > 0 else math.inf
            violated = margin_sigma < -threshold
        entries.append(KhinchinEntry(coeffs=coeffs, estimate=est, std_error=se,
                                     bound=bound, margin_sigma=margin_sigma,
                                     route=route, violated=violated))
    n_viol = sum(e.violated for e in entries)
    return KhinchinReport(p=p, constant=const, threshold_sigma=threshold,
                          entries=tuple(entries), n_violations=n_viol,
                          passed=n_viol == 0)


@dataclass(frozen=True)
class BallSphereReport:
    d: int
    q: float
    ratio: float
    expected: float
    sigma: float
    z: float
    passed: bool


def ball_sphere_identity(d: int, q: float, coeffs, n_samples: int, seed: int = 0) -> BallSphereReport:
    """Ratio E|sum a_k U_k|^q / E|sum a_k xi_k|^q against (d-2)/(d-2+q).

    U_k are uniform on the unit ball B^(d-2), obtained by projecting
    S^(d-1)-uniform vectors to their first d-2 coordinates.
    """
    if d < 3:
        raise DomainError(f"requires d >= 3, got {d}")
    if not q > -(d - 2):
        raise DomainError(f"requires q > -(d-2), got q={q}")
    if q == 0:
        raise DomainError("q = 0 is out of scope")
    coeffs = np.asarray(coeffs, dtype=float)
    k = len(coeffs)
    gen = _rng(seed)

    sphere_vals = _abs_sums(d, coeffs, n_samples, gen) ** q

    ball_vals = np.empty(n_samples)
    done = 0
    while done < n_samples:
        m = min(_CHUNK, n_samples - done)
        x = gen.standard_normal((m, k, d))
        x /= np.linalg.norm(x, axis=2)[:, :, None]
        u = x[:, :, : d - 2]  # projection of the sphere is uniform on the ball
        s = np.einsum("k,mkd->md", coeffs, u)
        ball_vals[done:done + m] = np.linalg.norm(s, axis=1) ** q
        done += m

    mb, ms = float(np.mean(ball_vals)), float(np.mean(sphere_vals))
    sb = float(np.std(ball_vals, ddof=1) / math.sqrt(n_samples))
    ss = float(np.std(sphere_vals, ddof=1) / math.sqrt(n_samples))
    ratio = mb / ms
    sigma = abs(ratio) * math.sqrt((sb / mb) ** 2 + (ss / ms) ** 2)
    expected = (d - 2.0) / (d - 2.0 + q)
    z = (ratio - expected) / sigma
    return BallSphereReport(d=d, q=q, ratio=ratio, expected=expected, sigma=sigma,
                            z=z, passed=abs(z) <= 4.0)


def polydisc_slice_volume(a, cfg: QuadratureConfig | None = None) -> float:
    """vol_{2n-2}(D^n cut by the hyperplane orthogonal to a) = pi^(n-1) E|sum a_k xi_k|^(-2).

    a must be a unit vector in R^n; a single nonzero entry gives exactly
    pi^(n-1) (the minimal section).
    """
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise DomainError(f"direction must be finite, got {a.tolist()}")
    n = len(a)
    norm = float(np.linalg.norm(a))
    if abs(norm - 1.0) > 1e-9:
        raise DomainError(f"direction must be a unit vector, got |a| = {norm}")
    nz = int(np.sum(np.abs(a) > 1e-12))
    if nz <= 1:
        return math.pi ** (n - 1)
    query = MomentQuery(4, -2.0, tuple(a))
    moment = product_moment(query, cfg or QuadratureConfig())
    return math.pi ** (n - 1) * moment

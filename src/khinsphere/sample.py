"""Monte Carlo machinery: sphere sampling and Rao-Blackwellised moment estimates.

The sampling experiments are artifact plumbing (the underlying results are
theorems); they provide statistical cross-checks of the quadrature and
closed-form routes.  The RNG is Philox (counter-based) so that streams are
reproducible: identical seed and configuration give bit-identical results.

Moments E|sum a_k xi_k|^q are estimated by conditioning on every vector but
the one with the largest weight A (Rao-Blackwellisation, Casella & Robert
1996).  By rotation invariance, given v = the sum of the others,
E[|v + A xi|^q | v] is the two-coefficient moment of (|v|, A), a bounded
2F1 value for every q > -(d-1).  Each sample thus has finite variance, and
the plain mean with its CLT standard error holds on the whole domain.  The
scores then take control variates (Lavenberg & Welch, Management Science
27(3), 1981): the powers u, u^2 of u = (|v|/A)^2, whose means are exact
(E|v|^(2k) from the radial chain's even moments), regressed out on the same
samples.  On unit sets of 3 to 6 weights at d = 4 that cuts the variance
by a factor of 4 to 900, with no extra draw and no extra 2F1 call.

Only norms of sums are ever needed, so no vector is drawn: the radial chain
adds one weighted vector at a time through |v + a xi|^2 = |v|^2 + a^2 +
2a|v|x, where the cosine x between xi and v is independent of v and, by
Archimedes' projection, distributed as the first coordinate of a uniform
point in B^(d-2): x = 2 Beta((d-1)/2, (d-1)/2) - 1.  A vector thus costs
two uniforms (Ulrich's form of the symmetric Beta; G. Ulrich, JRSS C 33(2),
1984), not d normals and a norm.

check_khinchin runs its sampled sets concurrently, one thread a set, up to
the number of usable CPUs.  Each set draws from its own generator, and numpy
releases the interpreter lock in its fills and ufuncs, so every result is
the same whatever the scheduling or the core count; peak memory covers up
to that many sets in flight, each scored _CHUNK samples at a time.
"""
from __future__ import annotations

import math
import os
import statistics
import threading
from dataclasses import dataclass

import numpy as np

from .constants import C2, C_infty, MomentQuery
from .errors import DomainError
from .quad import product_moment
from .specfun import HYP2F1_RTOL, hyp2f1

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

# samples a pass of the cosine draws and of the 2F1 scoring holds at once;
# check_khinchin keeps up to one set a usable CPU in flight
_CHUNK = 1 << 15
# control variates u^j - E u^j, j = 1.._CV_TERMS, of estimate_moments
_CV_TERMS = 2


@dataclass(frozen=True)
class SampleStats:
    """One Monte Carlo estimate.  method "plain-mean": the mean of the Rao-Blackwellised
    scores after their control-variate adjustment, with a CLT standard error from the
    residuals (see estimate_moments); the label tells it from the median-of-means that
    once served the heavy-tailed moments."""

    n_samples: int
    estimate: float
    std_error: float
    method: str
    seed: int

    def __post_init__(self) -> None:
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")
        if self.method != "plain-mean":
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
    if size is not None and size < 0:
        raise DomainError(f"size must be >= 0, got {size}")
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


def _sin2_pi_offset(gen: np.random.Generator, n: int) -> np.ndarray:
    """n draws of cos^2(pi V) = sin^2(pi (V - 1/2)), V uniform on [0, 1).

    V - 1/2 is exact for the generator's multiples of 2^-53, so the sine
    form keeps its relative accuracy next to V = 1/2, where cos(pi V) would
    take the rounding error of pi V as its whole value.
    """
    c = gen.random(n)
    c -= 0.5
    c *= np.pi
    np.sin(c, out=c)
    c *= c
    return c


def _cosine_betas(gen: np.random.Generator, d: int, n: int) -> np.ndarray:
    """n draws of B = (1 + x)/2, x the cosine between a uniform vector on S^(d-1) and a fixed axis.

    By Archimedes' projection x is distributed as the first coordinate of a
    uniform point in the ball B^(d-2), with density proportional to
    (1 - x^2)^((d-3)/2) on [-1, 1]; so B ~ Beta((d-1)/2, (d-1)/2).  At d = 1
    the sphere S^0 is {-1, 1} and B is 0 or 1 with equal odds.

    For d >= 2, B comes from two uniforms U and V by Ulrich's form of the
    symmetric Beta (G. Ulrich, "Computer generation of distributions on the
    m-sphere", JRSS C 33(2), 1984): x = R cos(2 pi V) is the first
    coordinate of a point of the unit disc with angle 2 pi V and radius
    R = sqrt(1 - u), u = U^(2/(d-2)), or u = 0 at d = 2.  B is summed as
    u/(2(1 + R)) + R cos^2(pi V), two nonnegative terms, so it keeps its
    relative accuracy near 0.  All U come first, then the V a chunk at a
    time, so the temporaries stay small and the stream does not depend on
    the chunk size.
    """
    if d == 1:
        return gen.integers(0, 2, n).astype(float)
    if d == 2:
        return _sin2_pi_offset(gen, n)
    b = gen.random(n)
    if d != 4:
        np.power(b, 2.0 / (d - 2), out=b)
    for i in range(0, n, _CHUNK):
        u = b[i:i + _CHUNK]  # a view: B overwrites u in place
        c = _sin2_pi_offset(gen, len(u))
        r = 1.0 - u
        np.sqrt(r, out=r)
        c *= r
        r += 1.0
        r *= 2.0
        u /= r
        u += c
    return b


def _abs_sums(d: int, weights, n: int, gen: np.random.Generator) -> np.ndarray:
    """|sum_k w_k xi_k| for n independent draws of xi_k uniform on S^(d-1): the radial chain.

    Each w_k is a scalar or an array of n per-draw weights; by the symmetry
    of xi_k only |w_k| matters.  The chain starts at |w_1| and adds each
    further vector through its cosine x = 2B - 1 to the partial sum v (see
    the module docstring): |v + w xi|^2 = ((|v| - w) + 2wB)^2 + 4w^2 B(1 - B).
    Both terms are nonnegative, so the update keeps its relative accuracy
    when |v| = w, where |v| + wx alone would cancel.
    """
    if len(weights) == 0:
        return np.zeros(n)
    r = np.abs(weights[0]) + np.zeros(n)
    for w in weights[1:]:
        w = np.abs(w)
        b = _cosine_betas(gen, d, n)
        # in place, as the arrays hold every draw: r <- sqrt(((r - w) + 2wb)^2 + 4w^2 b(1 - b))
        r -= w
        r += 2.0 * w * b
        r *= r
        b *= 1.0 - b
        b *= 4.0 * w * w
        r += b
        np.sqrt(r, out=r)
    return r


def _two_coeff_moment(d: int, q: float, a, b):
    """E|a xi_1 + b xi_2|^q = M^q 2F1(-q/2, (-q-d+2)/2; d/2; (m/M)^2), M = max(|a|,|b|), m = min.

    Array-capable in a and b; finite for q > -(d-1), where the 2F1 at 1 is a Gauss sum.
    """
    a, b = np.abs(a), np.abs(b)
    hi, t = np.maximum(a, b), np.minimum(a, b)
    t /= hi
    t *= t  # (m/M)^2, in place, as the Monte Carlo scoring holds a chunk of samples
    f = hyp2f1(-q / 2.0, (-q - d + 2.0) / 2.0, d / 2.0, t)
    hi **= q
    hi *= f
    return hi


def estimate_moment(query: MomentQuery, n_samples: int, seed: int = 0) -> SampleStats:
    """Monte Carlo estimate of E|sum a_k xi_k|^q (Rao-Blackwellised, with control variates; see
    estimate_moments)."""
    return estimate_moments(query.d, query.coeffs, [query.q], n_samples, seed)[0]


def _even_moments(d: int, weights, K: int) -> list[float]:
    """E|v|^(2k) for k = 0..K, v = sum_j w_j xi_j with xi_j uniform on S^(d-1).

    The radial chain in moments: adding b xi to v gives |v + b xi|^2 =
    (|v|^2 + b^2) + 2b|v|x, with the cosine x independent of v (see
    _abs_sums), its odd moments 0 and E x^(2i) = (1/2)_i/(d/2)_i.  So
    E|v + b xi|^(2k) = sum over i, l of C(k, 2i) C(k - 2i, l) (4b^2)^i E x^(2i)
    b^(2(k - 2i - l)) E|v|^(2(l + i)): positive terms only, nothing cancels.
    No weights give 1, 0, ..., 0.
    """
    ex = [1.0]
    for i in range(1, K // 2 + 1):
        ex.append(ex[-1] * (i - 0.5) / (0.5 * d + i - 1))
    m = [1.0] + [0.0] * K
    for w in weights:
        b2 = float(w) ** 2
        m = [math.fsum(math.comb(k, 2 * i) * math.comb(k - 2 * i, l) * (4.0 * b2) ** i * ex[i]
                       * b2 ** (k - 2 * i - l) * m[l + i]
                       for i in range(k // 2 + 1) for l in range(k - 2 * i + 1))
             for k in range(K + 1)]
    return m


def estimate_moments(d: int, coeffs, qs, n_samples: int, seed: int = 0) -> list[SampleStats]:
    """Estimates of E|sum a_k xi_k|^q for several q on shared samples.

    Each sample draws |v|, the norm of the sum of every weighted vector but
    the one with the largest weight A, and scores the exact conditional
    moment given v, g = _two_coeff_moment(d, q, |v|, A).  |v| comes from the
    radial chain (_abs_sums): one cosine x ~ 2 Beta((d-1)/2, (d-1)/2) - 1 per
    vector after the first, by Archimedes' projection, drawn from two
    uniforms (_cosine_betas), so n nonzero weights cost 2(n - 2) uniforms
    per sample.

    The scores then take k = min(_CV_TERMS, n_samples - 2) control variates
    x_j = u^j - E u^j, u = (|v|/A)^2, whose means are exact (_even_moments).
    beta is fitted by least squares on the same samples (Lavenberg & Welch,
    Management Science 27(3), 1981), the estimate is mean(g) - beta.mean(x),
    and the standard error sqrt(RSS/(n - 1 - k))/sqrt(n), from the residual
    sum of squares, floored by the 2F1's relative accuracy: with two
    coefficients every sample scores the same value.  The method stays
    "plain-mean": a plain mean, of the adjusted scores g - beta.x, with a
    CLT standard error.

    A column constant on the samples, or collinear with the ones before it,
    is dropped and not counted in k.  With one or two nonzero weights |v| is
    constant, and n_samples = 2 takes no column, so both give the plain mean
    of the scores and its CLT standard error.  The sums run a chunk at a
    time, with g pivoted at its first chunk's mean, and without BLAS, so
    every estimate is bit-identical whatever the thread count.
    """
    if n_samples < 2:
        raise DomainError(f"need at least 2 samples for a standard error, got {n_samples}")
    qs = [float(q) for q in qs]
    for q in qs:
        MomentQuery(d, q, tuple(coeffs))  # validates domain
    coeffs = np.asarray(coeffs, dtype=float)
    top = int(np.argmax(np.abs(coeffs)))
    big = abs(coeffs[top])
    others = np.delete(coeffs, top)
    r = _abs_sums(d, others[others != 0.0], n_samples, _rng(seed))
    k = min(_CV_TERMS, n_samples - 2)
    eu = _even_moments(d, others / big, k)  # E u^j
    n = n_samples
    out = []
    for q in qs:
        # over rows x_1..x_k, g: plain sums, and cross sums with g pivoted to h = g - pivot
        sums, cross, pivot = [0.0] * (k + 1), np.zeros((k + 1, k + 1)), None
        for i in range(0, n, _CHUNK):
            g = _two_coeff_moment(d, q, big, r[i:i + _CHUNK])
            if pivot is None:
                pivot = float(np.mean(g))
            u = r[i:i + _CHUNK] / big
            u *= u
            rows = [u ** j - eu[j] for j in range(1, k + 1)] + [g]
            for a in range(k + 1):
                sums[a] += float(np.sum(rows[a]))
            g -= pivot
            for a in range(k + 1):
                for b in range(a, k + 1):
                    np.multiply(rows[a], rows[b], out=u)
                    cross[a, b] += float(np.sum(u))
        # centre the cross sums, then sweep out one column at a time (Gauss-Jordan):
        # mean[k] becomes mean(g) - beta.mean(x) and c[k, k] the residual sum of squares
        cross += np.triu(cross, 1).T
        mean = np.array(sums) / n
        dev = mean.copy()
        dev[k] -= pivot
        c = cross - n * np.multiply.outer(dev, dev)
        used = 0
        for j in range(k):
            if c[j, j] <= 1e-10 * cross[j, j]:  # constant, or collinear with the columns before
                continue
            used += 1
            f = c[j + 1:, j] / c[j, j]
            mean[j + 1:] -= f * mean[j]
            c[j + 1:, j + 1:] -= np.multiply.outer(f, c[j, j + 1:])
        est = float(mean[k])
        se = math.hypot(math.sqrt(max(c[k, k], 0.0) / (n - 1 - used)) / math.sqrt(n),
                        HYP2F1_RTOL * abs(est))
        out.append(SampleStats(n_samples=n, estimate=est, std_error=se,
                               method="plain-mean", seed=seed))
    return out


def normal_isf(alpha: float) -> float:
    """z with P(N(0,1) > z) = alpha, for 0 < alpha < 1/2."""
    if not 0.0 < alpha < 0.5:
        raise DomainError("normal_isf needs 0 < alpha < 1/2")
    return -statistics.NormalDist().inv_cdf(alpha)


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


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _map_threads(fn, jobs: list) -> list:
    """[fn(*job) for job in jobs] on min(len(jobs), usable CPUs) threads, the caller's included.

    Jobs are handed out in order; the first failed job in list order has its
    error re-raised here, once every thread has stopped.
    """
    results, errors = [None] * len(jobs), [None] * len(jobs)
    todo, lock = iter(range(len(jobs))), threading.Lock()

    def work() -> None:
        while True:
            with lock:
                i = next(todo, None)
            if i is None:
                return
            try:
                results[i] = fn(*jobs[i])
            except Exception as exc:  # re-raised in the caller below
                errors[i] = exc

    threads = [threading.Thread(target=work) for _ in range(min(len(jobs), _usable_cpus()) - 1)]
    for t in threads:
        t.start()
    try:
        work()
    finally:
        for t in threads:
            t.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def check_khinchin(d: int, p: float, coeff_sets, n_samples: int, seed: int = 0) -> KhinchinReport:
    """Check E|sum a_k xi_k|^(-p) <= C(p) (sum a_k^2)^(-p/2) at d=4.

    C(p) is C_infty for p <= 2 and C2 for p > 2.  Sets with one or two
    nonzero weights use the exact and the hypergeometric route; such an entry
    is violated when it exceeds the bound by more than 1e-9 relative plus
    1e-12, and its margin_sigma is then -inf, else +inf.  The rest are
    Rao-Blackwellised Monte Carlo with control variates (estimate_moment),
    set i on its own stream seed + i, with the base 4-sigma threshold
    Bonferroni-widened across the batch.  The sampled
    sets run concurrently on min(their number, usable CPUs) threads, so peak
    memory covers that many sets in flight; each entry is bit-identical
    whatever the scheduling or the core count, and entries are judged in set
    order.  A failed set's error is re-raised here.
    """
    if d != 4:
        raise DomainError("the sharp-constant check is stated for d = 4")
    if not 0.0 < p < 3.0:
        raise DomainError(f"requires 0 < p < 3, got {p}")
    const = C_infty(p) if p <= 2.0 else C2(p)
    n_comp = max(1, len(coeff_sets))
    base_alpha = 0.5 * math.erfc(4.0 / math.sqrt(2.0))
    threshold = normal_isf(base_alpha / n_comp)
    queries = [MomentQuery(d, -p, coeffs) for coeffs in coeff_sets]  # finite weights, not all zero
    nzs = [[abs(a) for a in query.coeffs if a != 0.0] for query in queries]
    sampled = [i for i, nz in enumerate(nzs) if len(nz) > 2]
    stats = dict(zip(sampled, _map_threads(estimate_moment,
                                           [(queries[i], n_samples, seed + i) for i in sampled])))
    entries = []
    for i, (query, nz) in enumerate(zip(queries, nzs)):
        coeffs = query.coeffs
        norm2 = sum(a * a for a in coeffs)
        bound = const * norm2 ** (-p / 2.0)
        if len(nz) == 1:
            est, se, route = nz[0] ** (-p), 0.0, "exact"
        elif len(nz) == 2:
            est, se, route = float(_two_coeff_moment(d, -p, *nz)), 0.0, "hypergeometric"
        else:
            est, se, route = stats[i].estimate, stats[i].std_error, stats[i].method
        if route in ("exact", "hypergeometric"):
            violated = est > bound * (1.0 + 1e-9) + 1e-12
            margin_sigma = -math.inf if violated else math.inf
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

    U_k are uniform on the unit ball B^(d-2), xi_k uniform on S^(d-1); the
    identity is Archimedes' projection (the first d-2 coordinates of xi are
    uniform on B^(d-2)).  Both sums come from the radial chain: U_k = rho_k
    theta_k with rho_k = V_k^(1/(d-2)), V_k uniform on [0, 1], and theta_k
    uniform on S^(d-3), so the ball chain runs with weights a_k rho_k and
    the cosine of S^(d-3), which at d = 3 is -1 or 1.
    """
    if d < 3:
        raise DomainError(f"requires d >= 3, got {d}")
    if not q > -(d - 2):
        raise DomainError(f"requires q > -(d-2), got q={q}")
    if n_samples < 2:
        raise DomainError(f"need at least 2 samples for a standard error, got {n_samples}")
    coeffs = MomentQuery(d, q, coeffs).coeffs  # q = 0, non-finite or all-zero weights raise
    gen = _rng(seed)
    sphere_vals = _abs_sums(d, coeffs, n_samples, gen) ** q
    radii = gen.random((len(coeffs), n_samples)) ** (1.0 / (d - 2))
    ball_vals = _abs_sums(d - 2, [a * rho for a, rho in zip(coeffs, radii)], n_samples, gen) ** q

    mb, ms = float(np.mean(ball_vals)), float(np.mean(sphere_vals))
    sb = float(np.std(ball_vals, ddof=1) / math.sqrt(n_samples))
    ss = float(np.std(sphere_vals, ddof=1) / math.sqrt(n_samples))
    ratio = mb / ms
    sigma = abs(ratio) * math.sqrt((sb / mb) ** 2 + (ss / ms) ** 2)
    expected = (d - 2.0) / (d - 2.0 + q)
    z = (ratio - expected) / sigma
    return BallSphereReport(d=d, q=q, ratio=ratio, expected=expected, sigma=sigma,
                            z=z, passed=abs(z) <= 4.0)


def polydisc_slice_volume(a) -> float:
    """vol_{2n-2}(D^n cut by the hyperplane orthogonal to a) = pi^(n-1) E|sum a_k xi_k|^(-2).

    a must be a unit vector in R^n; a single nonzero entry gives exactly
    pi^(n-1) (the minimal section).  Two nonzero entries take the terminating
    2F1 of _two_coeff_moment, pi^(n-1)/max|a_k|^2 (Newton's theorem), with no
    quadrature.
    """
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise DomainError(f"direction must be finite, got {a.tolist()}")
    n = len(a)
    norm = float(np.linalg.norm(a))
    if abs(norm - 1.0) > 1e-9:
        raise DomainError(f"direction must be a unit vector, got |a| = {norm}")
    nz = a[np.abs(a) > 1e-12]
    if len(nz) <= 1:
        return math.pi ** (n - 1)
    if len(nz) == 2:
        return math.pi ** (n - 1) * float(_two_coeff_moment(4, -2.0, *nz))
    query = MomentQuery(4, -2.0, tuple(a))
    return math.pi ** (n - 1) * product_moment(query)

"""Monte Carlo machinery: Rao-Blackwellised moment estimates from the radial chain.

The sampling experiments are artifact plumbing (the underlying results are
theorems); they provide statistical cross-checks of the quadrature and
closed-form routes.  The RNG is Philox (counter-based) so that streams are
reproducible: identical seed and configuration give bit-identical results.

Moments E|sum a_k xi_k|^q are estimated by conditioning on every vector but
the one with the largest weight A (Rao-Blackwellisation, Casella & Robert
1996).  By rotation invariance, given v = the sum of the others,
E[|v + A xi|^q | v] is the two-coefficient moment of (|v|, A), a bounded
2F1 value for every q > -(d-1).  Each score thus has finite variance, and
the plain mean with its CLT standard error holds on the whole domain.  The
last cosine of the chain behind v is stratified: each partial sum takes
_STRATA scores, one from each of as many equal-width strata of the
cosine's angle, each weighted by the angle's density over the uniform one,
so the cusp of the score at |v| = A is resolved per partial sum rather than
sampled (Cochran, Sampling Techniques, ch. 5).  The group means then take
control variates (Lavenberg & Welch, Management Science 27(3), 1981): the
weighted powers mean(omega u^i), i = 0, 1, 2, of u = (|v|/A)^2, whose
means are exact (E|v|^(2k) from the radial chain's even moments), regressed
out on the same groups.  On unit sets of 3 to 6 weights at d = 4 the two
together cut the variance per score below the plain mean's by a median
factor of 2200 at q = -0.5, 320 at q = -1.5 and 31 at q = -2.5, with no
extra 2F1 call.  Both exact moments are imported from constants.

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

from .constants import C2, C_infty, MomentQuery, _closed_moment, _even_moments, _two_coeff_moment
from .errors import DomainError
from .quad import product_moment
from .specfun import HYP2F1_RTOL, _in_range, _power_product

__all__ = [
    "SampleStats",
    "KhinchinEntry",
    "KhinchinReport",
    "BallSphereReport",
    "estimate_moment",
    "check_khinchin",
    "ball_sphere_identity",
    "polydisc_slice_volume",
    "normal_isf",
]

# samples a pass of the cosine draws and of the 2F1 scoring holds at once;
# check_khinchin keeps up to one set a usable CPU in flight
_CHUNK = 1 << 15
# control variates mean(omega u^j) - E u^j, j = 0.._CV_TERMS, of estimate_moment
_CV_TERMS = 2
# equal-width strata of the angle of each partial sum's last cosine in estimate_moment
_STRATA = 8


@dataclass(frozen=True)
class SampleStats:
    """One Monte Carlo estimate.  method "plain-mean": the mean of the stratified groups of
    Rao-Blackwellised scores after their control-variate adjustment, with a CLT standard
    error from the residuals (see estimate_moment); the label tells it from the
    median-of-means that once served the heavy-tailed moments.  n_samples is the number of
    2F1 scores taken, the requested number rounded down to whole groups."""

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


def _add_vector(r, w, b, bb) -> None:
    """r <- |v + w xi| in place, from r = |v| and the cosine x = 2B - 1 between xi and v.

    |v + w xi|^2 = ((|v| - w) + 2wB)^2 + 4w^2 B(1 - B): both terms are
    nonnegative, so the update keeps its relative accuracy when |v| = w,
    where |v| + wx alone would cancel.  b holds B and bb holds B(1 - B);
    both are overwritten.
    """
    bb *= 4.0 * w * w
    b *= 2.0 * w
    r -= w
    r += b
    r *= r
    r += bb
    np.sqrt(r, out=r)


def _abs_sums(d: int, weights, n: int, gen: np.random.Generator) -> np.ndarray:
    """|sum_k w_k xi_k| for n independent draws of xi_k uniform on S^(d-1): the radial chain.

    Each w_k is a scalar or an array of n per-draw weights; by the symmetry
    of xi_k only |w_k| matters.  The chain starts at |w_1| and adds each
    further vector through its cosine to the partial sum (_add_vector), a
    chunk of _CHUNK draws at a time, with B(1 - B) in one chunk-sized buffer
    that every step reuses.
    """
    if len(weights) == 0:
        return np.zeros(n)
    r = np.zeros(n)
    r += np.abs(weights[0])
    buf = np.empty(min(n, _CHUNK))
    for w in weights[1:]:
        w = np.abs(w)
        b = _cosine_betas(gen, d, n)
        for i in range(0, n, _CHUNK):
            bi = b[i:i + _CHUNK]
            bb = buf[:len(bi)]
            np.subtract(1.0, bi, out=bb)
            bb *= bi
            _add_vector(r[i:i + _CHUNK], w if np.ndim(w) == 0 else w[i:i + _CHUNK], bi, bb)
        del b  # before the next draw, so that the chain holds one draw at a time
    return r


def _last_step(d: int, r, w, v):
    """r[:, j] <- |v + w xi_j| in place, the cosine of xi_j in stratum j of m; returns the weights.

    r holds one row of m copies of |v| per uniform V.  Stratum j takes the
    angle theta_j = pi (j + V)/m and the cosine -cos(theta_j), so
    B_j = sin^2(theta_j/2), and 1 - B_j = cos^2(theta_j/2) is the square of
    sin(pi (m - j - V)/(2m)).  With delta = pi/(2m), both sines, sin(j delta + V delta)
    and sin((m-1-j) delta + (1-V) delta), come by angle addition from the sin(k delta),
    k = 0..m, and the sin and cos of V delta and (1 - V) delta (1 - V is exact for the
    generator's multiples of 2^-53): four trigonometric calls per V, not 2m.  Every
    product is nonnegative, so both keep their relative accuracy.  The angle of
    the cosine has density sin^(d-2)(theta)/I_(d-2) on [0, pi], I_k the
    Wallis integral of sin^k, so the score at theta_j takes the weight
    omega_j = pi sin^(d-2)(theta_j)/I_(d-2)
    = sqrt(pi) Gamma(d/2)/Gamma((d-1)/2) sin^(d-2)(theta_j), whose mean
    over [0, pi] is 1.
    """
    m = r.shape[1]
    kappa = 1.0 if d % 2 == 0 else 0.5 * math.pi  # pi/I_(d-2), by I_k = I_(k-2) (k-1)/k
    for k in range(2 + d % 2, d - 1, 2):
        kappa *= k / (k - 1.0)
    delta = 0.5 * np.pi / m
    t = np.sin(delta * np.arange(m + 1))  # sin(j delta), and cos(j delta) = t[m - j]
    alpha, beta = v[:, None] * delta, (1.0 - v[:, None]) * delta
    s = np.cos(alpha) * t[:-1]
    omega = np.sin(alpha) * t[:0:-1]
    s += omega
    c = np.cos(beta) * t[-2::-1]
    np.multiply(np.sin(beta), t[1:], out=omega)
    c += omega
    np.multiply(s, c, out=omega)
    omega *= 2.0
    omega **= d - 2
    omega *= kappa
    s *= s
    c *= c
    c *= s
    _add_vector(r, w, s, c)
    return omega


def estimate_moment(query: MomentQuery, n_samples: int, seed: int = 0) -> SampleStats:
    """Monte Carlo estimate of E|sum a_k xi_k|^q: Rao-Blackwellised, stratified, with control
    variates.  The draws, strata and control-variate columns do not depend on q, so calls
    that differ only in q share their samples.

    Every score is the exact conditional moment given the sum v of every
    weighted vector but the one with the largest weight A:
    g = _two_coeff_moment(d, q, |v|, A).  |v| comes from the radial chain
    (_abs_sums), one cosine per vector after the first, drawn from two
    uniforms (_cosine_betas).

    The chain's last cosine is stratified (Cochran, Sampling Techniques,
    ch. 5).  With b the largest of the other weights, the chain runs over the
    rest for N = n_samples // m partial sums w, m = _STRATA.  Each w takes
    one uniform V and m angles theta_j = pi (j + V)/m, one in each of m
    equal strata of [0, pi]: the score g_j at |w + b xi_j|, xi_j at the
    angle theta_j, takes the weight omega_j = sqrt(pi) Gamma(d/2)/
    Gamma((d-1)/2) sin^(d-2)(theta_j), the angle's density over the uniform
    one (_last_step).  The group score G = mean_j(omega_j g_j) is unbiased
    for E[g | w] and resolves the cusp of g at |v| = A per partial sum.
    n_samples counts 2F1 scores; N m are taken, and
    SampleStats.n_samples reports that number.  m = 1, one score a group
    with weight 1 and the last cosine drawn by the chain, is the degenerate
    case: at d = 1, with at most one nonzero other weight, or with
    n_samples < 2 m.

    The group scores take control variates (Lavenberg & Welch, Management
    Science 27(3), 1981), the columns X_i = mean_j(omega_j u_j^i) - E u^i,
    i = 0.._CV_TERMS, u = (|v|/A)^2, with exact means (_even_moments).
    Column 0 is mean(omega) - 1: at odd d the weights vary, and G with them.
    The columns are centred and made orthogonal one after another (modified
    Gram-Schmidt).  A column whose sum of squares is then at most 1e-10 of
    its raw values' is dropped and not counted in k: a constant column, one
    collinear with those before it, or one at rounding level, as mean(omega)
    is at even d, where the strata integrate sin^(d-2) exactly.  At most
    N - 2 columns are kept.  The estimate is mean(G) - beta.mean(X), beta
    fitted by least squares on the same groups; the standard error is
    sqrt(RSS/(N - 1 - k))/sqrt(N), with the residuals summed directly in a
    second pass over the kept group arrays, floored by the 2F1's relative
    accuracy: with two coefficients every score is the same value.  The
    method stays "plain-mean": a plain mean, of the adjusted group scores,
    with a CLT standard error.  The scores are taken _CHUNK at a time and no
    sum uses BLAS, so every estimate is bit-identical whatever the thread
    count.

    The chain runs on the weights over c of MomentQuery._scaled_norm (1 where
    sum a_k^2 is a normal float), and estimate and standard error are scaled back
    by c^q through _power_product: DomainError above the largest float.
    """
    if n_samples < 2:
        raise DomainError(f"need at least 2 samples for a standard error, got {n_samples}")
    d, q, scale = query.d, query.q, query._scaled_norm()[0]
    coeffs = np.asarray(query.coeffs, dtype=float) / scale
    top = int(np.argmax(np.abs(coeffs)))
    big = abs(coeffs[top])
    others = np.delete(coeffs, top)
    nz = np.sort(np.abs(others[others != 0.0]))
    m = _STRATA if d > 1 and len(nz) > 1 and n_samples >= 2 * _STRATA else 1
    n = n_samples // m
    gen = _rng(seed)
    w = _abs_sums(d, nz[:len(nz) - (m > 1)], n, gen)
    v = gen.random(n) if m > 1 else None
    eu = _even_moments(d, others / big, _CV_TERMS)  # E u^i
    raw = np.empty((_CV_TERMS + 1, n))  # mean_j(omega_j u_j^i) of each group
    gs = np.empty(n)
    step = _CHUNK // m
    for i in range(0, n, step):
        rows = slice(i, i + step)
        if m > 1:
            r = np.repeat(w[rows, None], m, axis=1)
            omega = _last_step(d, r, nz[-1], v[rows])
        else:
            r = w[rows, None]
            omega = np.ones_like(r)
        u = r / big
        u *= u
        p = omega.copy()
        for k in range(_CV_TERMS + 1):
            raw[k, rows] = np.mean(p, axis=1)
            p *= u
        del u, p  # before the 2F1 scoring, which holds several chunk-sized arrays
        g = _two_coeff_moment(d, q, big, r)
        g *= omega
        gs[rows] = np.mean(g, axis=1)
    cols = []  # (z, sum of squares, mean of X) of each kept column, orthogonal to those before
    for k in range(_CV_TERMS + 1):
        mean = float(np.mean(raw[k]))
        z = raw[k] - mean
        mean -= eu[k]
        for zc, ss, mc in cols:
            f = float(np.sum(zc * z)) / ss
            z -= f * zc
            mean -= f * mc
        ss = float(np.sum(z * z))
        if ss > 1e-10 * float(np.sum(raw[k] * raw[k])) and len(cols) < n - 2:
            cols.append((z, ss, mean))
    # scores past the float range give inf or NaN here, unwarned, for the one check below
    with np.errstate(over="ignore", invalid="ignore"):
        est = float(np.mean(gs))
        e = gs - est
        for z, ss, mean in cols:
            f = float(np.sum(z * e)) / ss
            e -= f * z
            est -= f * mean
        rss = float(np.sum(e * e))
    se = math.hypot(math.sqrt(rss / (n - 1 - len(cols))) / math.sqrt(n), HYP2F1_RTOL * abs(est))
    est, se = (_in_range(_power_product(((scale, q),), coeff=x), "E|sum a_k xi_k|^q", **vars(query))
               for x in (est, se))
    return SampleStats(n_samples=n * m, estimate=est, std_error=se, method="plain-mean", seed=seed)


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
    """Check E|sum a_k xi_k|^(-p) <= C(p) |a|^(-p) at d=4, |a| = MomentQuery.norm.

    C(p) is C_infty for p <= 2 and C2 for p > 2, and the bound takes |a|^(-p)
    through _power_product.  Sets with one or two
    nonzero weights, however small, take the exact or the hypergeometric route
    of constants._closed_moment; such an entry is violated when it exceeds the
    bound by more than 1e-9 relative plus 1e-12, and its margin_sigma is then
    -inf, else +inf.  The rest are Rao-Blackwellised Monte Carlo, with the last
    cosine stratified and with control variates (estimate_moment), n_samples
    2F1 scores each, set i on its own stream seed + i, with the base 4-sigma
    threshold Bonferroni-widened across the batch.  The sampled sets run
    concurrently on min(their number, usable CPUs) threads, so peak memory
    covers that many sets in flight; each entry is bit-identical whatever the
    scheduling or the core count, and entries are judged in set order.  A
    failed set's error is re-raised here.
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
    closed = [_closed_moment(query) for query in queries]
    sampled = [i for i, c in enumerate(closed) if c is None]
    stats = dict(zip(sampled, _map_threads(estimate_moment,
                                           [(queries[i], n_samples, seed + i) for i in sampled])))
    entries = []
    for i, (query, c) in enumerate(zip(queries, closed)):
        coeffs = query.coeffs
        bound = _power_product(((query.norm, -p),), coeff=const)
        if c is not None:
            est, route = c
            se = 0.0
            violated = est > bound * (1.0 + 1e-9) + 1e-12
            margin_sigma = -math.inf if violated else math.inf
        else:
            est, se, route = stats[i].estimate, stats[i].std_error, stats[i].method
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
    the cosine of S^(d-3), which at d = 3 is -1 or 1.  DomainError where |sum|^q
    leaves the float range (q = 700).  Where both standard errors are 0, as when q
    is so small that every |sum|^q rounds to 1, z is 0 if the ratio equals the
    expected value and +-inf, a failure, otherwise.
    """
    if d < 3:
        raise DomainError(f"requires d >= 3, got {d}")
    if not q > -(d - 2):
        raise DomainError(f"requires q > -(d-2), got q={q}")
    if n_samples < 2:
        raise DomainError(f"need at least 2 samples for a standard error, got {n_samples}")
    query = MomentQuery(d, q, coeffs)  # q = 0, non-finite or all-zero weights raise
    scale = query._scaled_norm()[0]
    coeffs = [a / scale for a in query.coeffs]  # the ratio is scale-free
    gen = _rng(seed)
    with np.errstate(over="ignore"):  # |sum|^q above the largest float raises DomainError
        sphere_vals = _abs_sums(d, coeffs, n_samples, gen) ** q
        radii = gen.random((len(coeffs), n_samples)) ** (1.0 / (d - 2))
        ball_vals = _abs_sums(d - 2, [a * rho for a, rho in zip(coeffs, radii)], n_samples, gen) ** q
    _in_range(max(sphere_vals.max(), ball_vals.max()), "ball_sphere_identity", d=d, q=q)

    mb, ms = float(np.mean(ball_vals)), float(np.mean(sphere_vals))
    sb = float(np.std(ball_vals, ddof=1) / math.sqrt(n_samples))
    ss = float(np.std(sphere_vals, ddof=1) / math.sqrt(n_samples))
    ratio = mb / ms
    sigma = abs(ratio) * math.sqrt((sb / mb) ** 2 + (ss / ms) ** 2)
    expected = (d - 2.0) / (d - 2.0 + q)
    gap = ratio - expected
    z = gap / sigma if sigma > 0.0 else (0.0 if gap == 0.0 else math.copysign(math.inf, gap))
    return BallSphereReport(d=d, q=q, ratio=ratio, expected=expected, sigma=sigma,
                            z=z, passed=abs(z) <= 4.0)


def polydisc_slice_volume(a) -> float:
    """vol_{2n-2}(D^n cut by the hyperplane orthogonal to a) = pi^(n-1) E|sum a_k xi_k|^(-2).

    a must be a unit vector in R^n.  One or two nonzero entries, however small,
    take the closed route of constants._closed_moment: a unit entry gives exactly
    pi^(n-1) (the minimal section), and two entries the terminating 2F1,
    pi^(n-1)/max|a_k|^2 (Newton's theorem).  More take product_moment.
    """
    query = MomentQuery(4, -2.0, tuple(np.asarray(a, dtype=float)))  # finite, not all zero
    if abs(query.norm - 1.0) > 1e-9:
        raise DomainError(f"direction must be a unit vector, got |a| = {query.norm}")
    closed = _closed_moment(query)
    n = len(query.coeffs)
    return math.pi ** (n - 1) * (product_moment(query) if closed is None else closed[0])

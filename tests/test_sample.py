import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khinsphere import sample as S
from khinsphere.constants import C2, MomentQuery
from khinsphere.errors import DomainError
from khinsphere.quad import product_moment
from khinsphere.specfun import HYP2F1_RTOL

KS_CRITICAL_1PCT = 1.628  # Kolmogorov-Smirnov critical value, alpha = 0.01


class TestSampleSphere:
    @given(st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=200))
    @settings(max_examples=25, deadline=None)
    def test_unit_norm(self, d, n):
        v = S.sample_sphere(d, n, seed=7)
        assert np.max(np.abs(np.linalg.norm(v, axis=1) - 1.0)) < 1e-12

    def test_d1_rademacher(self):
        v = S.sample_sphere(1, 100_000, seed=3).ravel()
        assert set(np.unique(v)) <= {-1.0, 1.0}
        assert abs(np.mean(v)) < 4.0 / math.sqrt(100_000)

    def test_d4_first_coordinate_ks(self):
        # density of the first coordinate is proportional to (1-u^2)^(1/2);
        # CDF(u) = 1/2 + (u sqrt(1-u^2) + arcsin u)/pi
        n = 100_000
        u = np.sort(S.sample_sphere(4, n, seed=5)[:, 0])
        cdf = 0.5 + (u * np.sqrt(1.0 - u**2) + np.arcsin(u)) / math.pi
        emp_hi = np.arange(1, n + 1) / n
        emp_lo = np.arange(0, n) / n
        ks = max(np.max(np.abs(emp_hi - cdf)), np.max(np.abs(cdf - emp_lo)))
        assert ks < KS_CRITICAL_1PCT / math.sqrt(n)

    def test_single_vector_shape(self):
        v = S.sample_sphere(3, seed=1)
        assert v.shape == (3,)

    def test_negative_size_rejected(self):
        with pytest.raises(DomainError, match="size"):
            S.sample_sphere(3, -1)


# CDF of the cosine x between a uniform vector on S^(d-1) and a fixed axis;
# the density is proportional to (1 - x^2)^((d-3)/2).  d = 2 (the arcsine law)
# and d = 4 take the sampler's two special branches, the rest its power branch
COSINE_CDF = {
    2: lambda x: 0.5 + np.arcsin(x) / math.pi,
    3: lambda x: 0.5 * (1.0 + x),
    4: lambda x: 0.5 + (x * np.sqrt(1.0 - x**2) + np.arcsin(x)) / math.pi,
    5: lambda x: (2.0 + 3.0 * x - x**3) / 4.0,
    6: lambda x: 0.5 + (2.0 * x * (1.0 - x**2) ** 1.5 / 3.0 + x * np.sqrt(1.0 - x**2)
                        + np.arcsin(x)) / math.pi,
}


class FixedUniforms:
    """A stand-in generator whose random(n) hands out the next n of fixed values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.used = 0

    def random(self, n):
        out = self.values[self.used:self.used + n].copy()
        self.used += n
        assert len(out) == n
        return out


TINY = 2.0**-53  # the generator's smallest positive uniform
# (U, V) giving B near 0 (V near 1/2), near 1 (V near 0 or 1) and in between
BETA_UV = [(TINY, 0.5), (TINY, 0.5 + 2.0**-30), (2.0**-40, 0.5 - 2.0**-27),
           (1e-3, 0.5 + 2.0**-20), (TINY, 2.0**-30), (2.0**-40, 1.0 - TINY), (TINY, 0.0),
           (0.3, 0.7), (1.0 - TINY, 0.25), (0.999, 0.5)]


class TestRadialChain:
    @pytest.mark.parametrize("d", sorted(COSINE_CDF))
    def test_cosine_ks(self, d):
        n = 100_000
        x = np.sort(2.0 * S._cosine_betas(S._rng(5), d, n) - 1.0)
        cdf = COSINE_CDF[d](x)
        emp_hi = np.arange(1, n + 1) / n
        emp_lo = np.arange(0, n) / n
        ks = max(np.max(np.abs(emp_hi - cdf)), np.max(np.abs(cdf - emp_lo)))
        assert ks < KS_CRITICAL_1PCT / math.sqrt(n)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 8])
    def test_cosine_betas_relative_accuracy(self, d):
        # B = u/(2(1 + R)) + R cos^2(pi V) at 30 digits from the same (U, V);
        # near 0 a cancelling (1 + R cos(2 pi V))/2 or an inexact pi V would lose
        # most digits.  U^(2/(d-2)) with a rounded exponent costs up to 1.4e-15
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        us, vs = zip(*BETA_UV)
        draws = vs if d == 2 else us + vs
        got = S._cosine_betas(FixedUniforms(draws), d, len(BETA_UV))
        for (u_, v_), b in zip(BETA_UV, got):
            u = mpmath.mpf(0) if d == 2 else mpmath.mpf(u_) ** (mpmath.mpf(2) / (d - 2))
            r = mpmath.sqrt(1 - u)
            exact = float(u / (2 * (1 + r)) + r * mpmath.cospi(mpmath.mpf(v_)) ** 2)
            assert b == pytest.approx(exact, rel=4e-15, abs=0.0)

    def test_cosine_d8_two_sample_ks(self):
        n = 100_000
        x = np.sort(2.0 * S._cosine_betas(S._rng(5), 8, n) - 1.0)
        y = np.sort(S.sample_sphere(8, n, seed=6)[:, 0])
        grid = np.concatenate([x, y])
        counts = np.searchsorted(x, grid, side="right") - np.searchsorted(y, grid, side="right")
        ks = np.max(np.abs(counts)) / n
        assert ks < KS_CRITICAL_1PCT * math.sqrt(2.0 / n)

    def test_equal_weights_exact(self, monkeypatch):
        # |v| = w and cosine x = 2B - 1: |v + w xi|^2 = 2w^2 (1 + x) = 4 w^2 B,
        # which the update keeps to rounding even as x -> -1
        b = np.array([1e-12, 1e-6, 0.25, 0.5, 1.0 - 1e-9])
        monkeypatch.setattr(S, "_cosine_betas", lambda gen, d, n: b.copy())
        r = S._abs_sums(4, [0.7, -0.7], len(b), None)
        assert r == pytest.approx(1.4 * np.sqrt(b), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("d, q", [(3, -1.5), (3, -0.5), (4, -2.5), (4, -1.0),
                                      (5, -3.5), (5, -1.5), (8, -6.5), (8, -3.0)])
    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_matches_product_moment(self, d, q, n):
        a = np.linspace(1.0, 0.5, n)
        query = MomentQuery(d, q, tuple(a / np.linalg.norm(a)))
        st_ = S.estimate_moment(query, 100_000, seed=60 + n)
        assert abs(st_.estimate - product_moment(query)) < 4.0 * st_.std_error

    @pytest.mark.parametrize("coeffs", [(1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1.0)])
    def test_equal_weights_finite(self, coeffs):
        qs = [-2.5, -1.0, 2.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = S.estimate_moments(4, coeffs, qs, 100_000, seed=3)
        # E|S|^2 = sum a_k^2
        exact = [product_moment(MomentQuery(4, q, coeffs)) for q in qs[:2]] + [float(len(coeffs))]
        for st_, ex in zip(stats, exact):
            assert math.isfinite(st_.estimate) and math.isfinite(st_.std_error)
            assert abs(st_.estimate - ex) < 4.0 * st_.std_error


class TestEstimateMoment:
    def test_unit_vector_exact(self):
        st_ = S.estimate_moment(MomentQuery(4, -1.0, (1.0,)), 50_000, seed=2)
        assert st_.estimate == pytest.approx(1.0, abs=4.0 * st_.std_error + 1e-12)

    def test_extremizer_within_4_sigma(self):
        a = 1.0 / math.sqrt(2.0)
        st_ = S.estimate_moment(MomentQuery(4, -2.5, (a, a)), 400_000, seed=4)
        # two coefficients: every sample scores the exact moment, so the
        # standard error is the 2F1 accuracy floor
        assert st_.std_error <= 2.0 * HYP2F1_RTOL * st_.estimate
        assert abs(st_.estimate - C2(2.5)) < 4.0 * st_.std_error

    def test_matches_quadrature_n10(self):
        q = MomentQuery(4, -1.0, tuple([1.0 / math.sqrt(10.0)] * 10))
        st_ = S.estimate_moment(q, 300_000, seed=6)
        assert abs(st_.estimate - product_moment(q)) < 4.0 * st_.std_error

    def test_reproducible(self):
        q = MomentQuery(4, -1.5, (0.6, 0.8))
        a = S.estimate_moment(q, 100_000, seed=11)
        b = S.estimate_moment(q, 100_000, seed=11)
        assert a == b  # bit-identical

    @pytest.mark.parametrize("n_samples", [0, 1])
    def test_rejected_before_sampling(self, n_samples, monkeypatch):
        def no_draws(*args):
            raise AssertionError("samples drawn before validation")

        monkeypatch.setattr(S, "_cosine_betas", no_draws)
        # three nonzero weights, so that the radial chain draws one cosine
        with pytest.raises(DomainError):
            S.estimate_moments(4, (0.6, 0.6, 0.5), [1.0], n_samples)
        with pytest.raises(AssertionError, match="drawn"):  # the patched draw is the one used
            S.estimate_moments(4, (0.6, 0.6, 0.5), [1.0], 2)

    @pytest.mark.parametrize("n, rel_se", [(3, 1e-3), (4, 2.2e-3), (5, 3e-3), (6, 3.7e-3)])
    def test_rao_blackwell_heavy_tail(self, n, rel_se):
        # q = -2.5 at d = 4: |S|^q has infinite variance, the conditional 2F1
        # value a bounded one, so the CLT error is honest and small.  The
        # bounds are the plain mean's medians over seeds 0..29 (0.70e-3,
        # 1.91e-3, 2.66e-3 and 3.23e-3 for n = 3..6) with some room; with the
        # control variates the medians are 0.39e-3, 0.90e-3, 1.01e-3 and
        # 1.15e-3, every seed within 2% of them
        a = np.linspace(1.0, 0.5, n)
        q = MomentQuery(4, -2.5, tuple(a / np.linalg.norm(a)))
        st_ = S.estimate_moment(q, 50_000, seed=40 + n)
        assert st_.method == "plain-mean"
        assert st_.std_error <= rel_se * st_.estimate
        assert abs(st_.estimate - product_moment(q)) < 4.0 * st_.std_error

    def test_two_coeff_moment_matches_check_khinchin_route(self):
        # one helper scores both the n = 2 route and each Rao-Blackwell sample
        r = np.array([0.2, 0.7, 0.9995, 1.0, 1.3])
        vals = S._two_coeff_moment(4, -2.5, 1.0, r)
        for ri, v in zip(r, vals):
            entry = S.check_khinchin(4, 2.5, [(1.0, float(ri))], 10).entries[0]
            assert entry.route == "hypergeometric" and entry.estimate == v

    def test_norm_monotonicity_shared_samples(self):
        # ||S||_q nondecreasing in q, on shared samples
        d, coeffs = 4, (0.5, 0.5, math.sqrt(0.5))
        qs = [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]
        stats = S.estimate_moments(d, coeffs, qs, 200_000, seed=9)
        norms = [s.estimate ** (1.0 / q) for s, q in zip(stats, qs)]
        sigma = [abs(s.std_error * n / (q * s.estimate)) for s, q, n in zip(stats, qs, norms)]
        for i in range(len(qs) - 1):
            assert norms[i] <= norms[i + 1] + 4.0 * (sigma[i] + sigma[i + 1])

    def test_jensen_floor(self):
        # E|sum a_k xi_k|^-2 >= 1 for unit coefficient vectors
        rng = np.random.default_rng(123)
        for _ in range(5):
            a = rng.standard_normal(4)
            a /= np.linalg.norm(a)
            st_ = S.estimate_moment(MomentQuery(4, -2.0, tuple(a)), 150_000, seed=21)
            assert st_.estimate >= 1.0 - 4.0 * st_.std_error

    def test_schur_direction_positive_q(self):
        # among two-coefficient splits (x, 1-x), the even split minimizes
        # E|sum|^q for q in (0,2)
        q = 1.0
        base = S.estimate_moments(4, (math.sqrt(0.5), math.sqrt(0.5)), [q], 200_000, seed=31)[0]
        for x in (0.65, 0.8, 0.95):
            other = S.estimate_moments(4, (math.sqrt(x), math.sqrt(1 - x)), [q], 200_000, seed=32)[0]
            assert base.estimate <= other.estimate + 4.0 * (base.std_error + other.std_error)


def _exact_even_moments_d3(weights, K):
    """E|V|^(2k), k = 0..K, at d = 3, in exact rationals: by Archimedes the first coordinate of
    V is X = sum w_j U_j, U_j uniform on [-1, 1], and E|V|^(2k) = (2k + 1) E X^(2k)."""
    mx = [Fraction(1)] + [Fraction(0)] * (2 * K)  # E X^m of the partial sum
    for w in map(Fraction, weights):
        mx = [sum(math.comb(m, j) * w**j * mx[m - j] / (j + 1) for j in range(0, m + 1, 2))
              for m in range(2 * K + 1)]
    return [(2 * k + 1) * mx[2 * k] for k in range(K + 1)]


class TestEvenMoments:
    WEIGHTS = ((0.3, 0.7, 1.1), (1.0, 1.0), (0.5, 0.25, 0.125, 1.0, 0.75), (2.0e-3, 1.0, 3.0))

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 8])
    @pytest.mark.parametrize("w", WEIGHTS)
    def test_second_moment_is_sum_of_squares(self, d, w):
        assert S._even_moments(d, w, 1)[1] == pytest.approx(math.fsum(x * x for x in w),
                                                            rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("d", range(1, 9))
    @pytest.mark.parametrize("w", WEIGHTS)
    def test_fourth_moment_identity(self, d, w):
        # E|V|^4 = (sum w^2)^2 + (4/d) sum_(j<l) w_j^2 w_l^2, as E x^2 = 1/d; exact rationals
        w2 = [Fraction(x) ** 2 for x in w]
        exact = sum(w2) ** 2 + Fraction(4, d) * sum(w2[j] * w2[l] for j in range(len(w2))
                                                    for l in range(j + 1, len(w2)))
        assert S._even_moments(d, w, 2)[2] == pytest.approx(float(exact), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("w", [(1.0, 0.5), (0.75, 0.5, 0.25), (1.0, 0.625, 0.375, 0.125),
                                   (1.0, 1.0, 1.0, 1.0, 1.0, 1.0), (0.5,)])
    def test_archimedes_d3(self, w):
        # dyadic weights, so the float weights are the rationals of the oracle
        got = S._even_moments(3, w, 4)
        for k, exact in enumerate(_exact_even_moments_d3(w, 4)):
            assert got[k] == pytest.approx(float(exact), rel=2e-16 * (k + 1), abs=0.0)

    def test_no_weights_and_one(self):
        assert S._even_moments(4, (), 3) == [1.0, 0.0, 0.0, 0.0]
        assert S._even_moments(5, (0.7,), 3) == [1.0, 0.7**2, (0.7**2) ** 2, (0.7**2) ** 3]
        assert S._even_moments(5, (0.0, 0.7), 2) == S._even_moments(5, (0.7,), 2)


class TestControlVariates:
    def test_standard_errors_honest(self):
        # z against the quadrature over 150 seeded entries: the fitted beta and the
        # residual degrees of freedom leave the standard error calibrated
        rng = np.random.default_rng(2023)
        zs = []
        for i in range(150):
            d = int(rng.choice([3, 4, 5, 8]))
            coeffs = tuple(rng.uniform(0.2, 1.0, int(rng.integers(3, 7))))
            q = MomentQuery(d, -rng.uniform(0.05, 0.95) * (d - 1), coeffs)
            st_ = S.estimate_moment(q, 20_000, seed=i)
            zs.append((st_.estimate - product_moment(q)) / st_.std_error)
        zs = np.array(zs)
        assert abs(zs.mean()) < 0.3
        assert 0.8 <= zs.std(ddof=1) <= 1.2
        assert np.abs(zs).max() < 4.5

    @pytest.mark.parametrize("p", [0.5, 1.5, 2.5])
    def test_gain_over_plain_mean(self, p):
        # the plain mean of the same Rao-Blackwellised scores, from the same draws
        d, n_samples = 4, 50_000
        rng = np.random.default_rng(int(10 * p))
        for n in range(3, 7):
            coeffs = rng.uniform(0.5, 1.0, n)
            coeffs /= np.linalg.norm(coeffs)
            st_ = S.estimate_moments(d, coeffs, [-p], n_samples, seed=n)[0]
            top = int(np.argmax(coeffs))
            r = S._abs_sums(d, np.delete(coeffs, top), n_samples, S._rng(n))
            g = S._two_coeff_moment(d, -p, coeffs[top], r)
            assert st_.std_error ** 2 * 3.0 <= np.var(g, ddof=1) / n_samples

    def test_two_samples_give_plain_mean(self):
        d, q, coeffs = 4, -1.5, (0.5, 0.6, 0.7)
        st_ = S.estimate_moments(d, coeffs, [q], 2, seed=5)[0]
        g = S._two_coeff_moment(d, q, 0.7, S._abs_sums(d, np.array([0.5, 0.6]), 2, S._rng(5)))
        est = float(np.mean(g))
        se = math.hypot(float(np.std(g, ddof=1)) / math.sqrt(2), HYP2F1_RTOL * abs(est))
        assert (st_.estimate, st_.std_error) == (est, se)  # bit for bit

    def test_three_samples_finite_se(self):
        st_ = S.estimate_moments(4, (0.5, 0.6, 0.7), [-1.5], 3, seed=5)[0]
        assert math.isfinite(st_.estimate)
        assert math.isfinite(st_.std_error) and st_.std_error > 0.0

    def test_two_weights_at_the_floor(self):
        # |v| is constant, so both columns drop and every sample scores the exact moment
        st_ = S.estimate_moment(MomentQuery(4, -1.5, (0.6, 0.8)), 100_000, seed=3)
        exact = float(S._two_coeff_moment(4, -1.5, 0.6, 0.8))
        assert st_.std_error <= 2.0 * HYP2F1_RTOL * st_.estimate
        assert abs(st_.estimate - exact) < 4.0 * st_.std_error
        # integer arguments are taken as floats: 1^-2 times 2F1(1, 0; 2; 1)
        assert S._two_coeff_moment(4, -2, 1, 1) == S._two_coeff_moment(4, -2.0, 1.0, 1.0) == 1.0

    @pytest.mark.parametrize("q", [-0.5, 1.0])
    def test_collinear_columns_d1(self, q):
        # at d = 1, |v| = |b +- c| takes two values, so u^2 is affine in u and the score
        # a function of u: the second column drops and the first leaves no residual
        w = (1.0, 0.7, 0.4)
        exact = np.mean([abs(1.0 + s * 0.7 + t * 0.4) ** q for s in (-1, 1) for t in (-1, 1)])
        st_ = S.estimate_moment(MomentQuery(1, q, w), 20_000, seed=1)
        assert abs(st_.estimate - exact) <= st_.std_error <= 2.0 * HYP2F1_RTOL * exact

    @pytest.mark.parametrize("d", [3, 4, 8])
    def test_q2_residual_vanishes(self, d):
        # E[|v + A xi|^2 | v] = A^2 (1 + u) is linear in the first column, so the estimate is
        # sum a^2 within the se floor; the residual sum of squares, a difference of sums of
        # squares, vanishes to sqrt(machine epsilon) of the plain mean's
        coeffs, n_samples = (0.9, 0.5, 0.4, 0.3), 50_000
        st_ = S.estimate_moments(d, coeffs, [2.0], n_samples, seed=d)[0]
        norm2 = math.fsum(a * a for a in coeffs)
        assert abs(st_.estimate - norm2) <= HYP2F1_RTOL * norm2
        g = S._two_coeff_moment(d, 2.0, 0.9, S._abs_sums(d, np.array(coeffs[1:]), n_samples,
                                                         S._rng(d)))
        assert st_.std_error <= 1e-7 * float(np.std(g, ddof=1)) / math.sqrt(n_samples)



def _z_scores(entries, n_samples):
    """(estimate - product_moment)/std_error of estimate_moment for each (query, seed)."""
    return np.array([(st_.estimate - product_moment(q)) / st_.std_error
                     for q, seed in entries
                     for st_ in [S.estimate_moment(q, n_samples, seed=seed)]])


class TestStrata:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_weights_average_to_one(self, d):
        # omega is the angle's density over the uniform one: its mean over V is 1.  Each
        # stratum maps V to an arc of [0, pi] where sin^(d-2) is analytic, so 24
        # Gauss-Legendre nodes in V integrate it to rounding.  At even d the m equally
        # spaced angles integrate the trigonometric polynomial sin^(d-2) exactly for every V
        x, wts = np.polynomial.legendre.leggauss(24)
        v = 0.5 * (x + 1.0)
        omega = S._last_step(d, np.zeros((len(v), S._STRATA)), 1.0, v)
        assert abs(0.5 * np.dot(wts, omega.mean(axis=1)) - 1.0) <= 1e-14
        if d % 2 == 0:
            assert np.max(np.abs(omega.mean(axis=1) - 1.0)) <= 1e-14

    def test_last_step_matches_chain_update(self):
        # the stratified step is the chain's own update at the cosine -cos(theta_j)
        v = np.array([0.0, 0.3, 0.999])
        r = np.repeat(np.array([[0.4], [0.7], [1.3]]), S._STRATA, axis=1)
        S._last_step(4, r, 0.7, v)
        theta = np.pi * (np.arange(S._STRATA) + v[:, None]) / S._STRATA
        w = np.array([[0.4], [0.7], [1.3]])
        direct = np.sqrt(w**2 + 0.49 - 2.0 * 0.7 * w * np.cos(theta))
        assert r == pytest.approx(direct, rel=1e-13, abs=1e-15)

    def test_scores_taken(self):
        # n_samples counts 2F1 scores: whole groups of _STRATA, or one a group when m = 1
        coeffs = (0.5, 0.6, 0.7, 0.8)
        assert S.estimate_moments(4, coeffs, [-1.0], 1001, seed=1)[0].n_samples == 1000
        assert S.estimate_moments(4, coeffs, [-1.0], 15, seed=1)[0].n_samples == 15
        assert S.estimate_moments(1, coeffs, [-0.5], 1001, seed=1)[0].n_samples == 1001

    def test_near_exact_fit_calibrated(self):
        # three weights with the other two summing below A: the chain's partial sum is
        # constant, every group score and column a smooth function of V, and the fit near
        # exact.  A residual sum of squares taken as a difference of sums once gave z = 15
        # at the first input, and a normal-equation solve z = 25 at the third
        cases = [(3, -0.588950260534853, (0.24469704131566525, 0.25325531209419516,
                                          0.549695683100917)),
                 (3, -1.5, (1.0, 0.5, 0.3)),
                 (5, -2.94, (0.355, 0.923, 0.455)),
                 (5, -3.5, (1.0, 0.6, 0.3))]
        zs = _z_scores([(MomentQuery(d, q, c), seed) for d, q, c in cases for seed in range(10)],
                       20_000)
        assert np.abs(zs).max() < 4.5
        assert zs.std(ddof=1) <= 1.5

    def test_unbiased(self):
        # the stratified, weighted group scores and their fitted control variates add no
        # bias that 200 estimates can see
        q = MomentQuery(4, -2.5, (1.0, 0.8, 0.6, 0.5))
        ests = np.array([S.estimate_moment(q, 20_000, seed=s).estimate for s in range(200)])
        se = ests.std(ddof=1) / math.sqrt(len(ests))
        assert abs(ests.mean() - product_moment(q)) < 3.0 * se

    @pytest.mark.parametrize("d", [4, 8])
    def test_standard_errors_honest_even_d(self, d):
        # at even d mean(omega) is 1 to rounding; kept as a column, it inflated z's sd at
        # d = 8 to 1.4 over these entries
        rng = np.random.default_rng(2025 + d)
        entries = [(MomentQuery(d, -rng.uniform(0.05, 0.95) * (d - 1),
                                tuple(rng.uniform(0.2, 1.0, int(rng.integers(3, 7))))), i)
                   for i in range(150)]
        zs = _z_scores(entries, 20_000)
        assert abs(zs.mean()) < 0.3
        assert 0.8 <= zs.std(ddof=1) <= 1.2
        assert np.abs(zs).max() < 4.5


class TestStrataEnds:
    """_last_step's B_j = s_j^2 and 1 - B_j = c_j^2 where V is at the ends of [0, 1) and at
    1/2, against 40 digits: each within 8 ulp relative."""

    @pytest.mark.parametrize("d", [3, 4, 8])
    def test_against_mpmath(self, d, monkeypatch):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        v = np.array([0.0, 2.0**-53, 1e-12, 0.5, 1.0 - 1e-12, 1.0 - 2.0**-53])
        seen = {}  # _last_step hands _add_vector B_j and B_j (1 - B_j) = s_j^2 c_j^2

        def spy(r, w, b, bb):
            seen.update(b=b.copy(), bb=bb.copy())

        monkeypatch.setattr(S, "_add_vector", spy)
        m = S._STRATA
        S._last_step(d, np.ones((len(v), m)), 1.0, v)
        tol = 8.0 * 2.0**-52
        for i, vi in enumerate(v):
            for j in range(m):
                half = mpmath.pi * (j + mpmath.mpf(float(vi))) / (2 * m)
                exact_b, exact_c = mpmath.sin(half) ** 2, mpmath.cos(half) ** 2
                b, bb = mpmath.mpf(float(seen["b"][i, j])), mpmath.mpf(float(seen["bb"][i, j]))
                assert abs(b - exact_b) <= tol * exact_b, (vi, j)
                assert abs(bb - exact_b * exact_c) <= tol * exact_b * exact_c, (vi, j)
                if b > 0:  # 1 - B_j itself; B_0 = 0 exactly at V = 0
                    assert abs(bb / b - exact_c) <= tol * exact_c, (vi, j)


class TestSteinhausCrossCheck:
    def test_d2_product_moment_vs_mc(self):
        # d=2 (Steinhaus): the nu=0 quadrature route against sampling
        a = 1.0 / math.sqrt(3.0)
        q = MomentQuery(2, -0.8, (a, a, a))
        quad_val = product_moment(q)
        st_ = S.estimate_moment(q, 300_000, seed=55)
        assert abs(st_.estimate - quad_val) < 4.0 * st_.std_error

    def test_d6_product_moment_vs_mc(self):
        # nu = 2 factors
        q = MomentQuery(6, -2.0, (0.8, 0.6))
        quad_val = product_moment(q)
        st_ = S.estimate_moment(q, 300_000, seed=56)
        assert abs(st_.estimate - quad_val) < 4.0 * st_.std_error


# two-coefficient queries with t = (min/max)^2 within 1e-5 of 1, as drawn by
# the moment-query benchmark stream (perfbench, seeds 301-305)
NEAR_EQUAL_PAIRS = [
    (3, 0.24601314603188307, (-1.0434211227721533, 1.0434196041886625)),
    (8, 6.107463367223437, (-0.42695720400851317, 0.4269583397460826)),
    (3, 0.08200222014042241, (-0.6929564543008707, -0.6929574183082614)),
    (3, 0.13022012139482333, (0.4115704062401689, 0.4115700374620885)),
    (8, 6.180485011193718, (-2.478587921076043, 2.478582017706091)),
    (3, 0.12117018459569556, (-0.35229504684291757, 0.3522944406542794)),
    (8, 6.421990568304108, (1.3260651980893639, 1.326062378165428)),
    (3, 0.2039974846584304, (0.3665512476289186, 0.3665518953743609)),
    (3, 0.25693940562709666, (1.5124044135619756, -1.512399430499298)),
    (3, 0.25766259273761594, (0.8961113984997467, 0.8961106119058132)),
    (3, 0.0825040267669322, (-2.5622232401647387, 2.5622205515685095)),
    (8, 6.177417332611166, (-2.6428277628691754, 2.64283805217962)),
    (3, 0.07647688170423822, (2.389974264365634, -2.389976232201989)),
    (8, 6.5957439272435066, (-2.455096843673543, 2.4550995363289774)),
]


class TestNearEqualPairs:
    @pytest.mark.parametrize("d,p,coeffs", NEAR_EQUAL_PAIRS)
    def test_routes_match_mpmath(self, d, p, coeffs):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        hi, lo = sorted(mpmath.mpf(abs(a)) for a in coeffs)[::-1]
        p_ = mpmath.mpf(p)
        exact = float(hi ** (-p_) * mpmath.hyp2f1(p_ / 2, (p_ - d + 2) / 2, mpmath.mpf(d) / 2, (lo / hi) ** 2))
        assert float(S._two_coeff_moment(d, -p, *coeffs)) == pytest.approx(exact, rel=2e-13,
                                                                           abs=0.0)
        # the quadrature's own error reaches 2.3e-13 at d = 8, p = 6.6
        assert product_moment(MomentQuery(d, -p, coeffs)) == pytest.approx(exact, rel=5e-13,
                                                                           abs=0.0)

    def test_tiny_weight_law(self):
        # the law behind product_moment's equal-pair rule: at (4, 2.9) a third weight eps takes
        # O(eps^(d-1-p)) = O(eps^0.1) off the pair's moment, so 1000 eps doubles the deficit
        pair = float(S._two_coeff_moment(4, -2.9, 1.0, 1.0))
        deficit = [pair - S.estimate_moment(MomentQuery(4, -2.9, (1.0, 1.0, eps)), 200_000,
                                            seed=3).estimate for eps in (1e-13, 1e-10)]
        assert deficit[1] / deficit[0] == pytest.approx(10.0 ** 0.3, rel=0.01)


class TestKhinchin:
    def test_extremizer_equality(self):
        a = 1.0 / math.sqrt(2.0)
        rep = S.check_khinchin(4, 2.5, [(a, a)], 10_000, seed=1)
        entry = rep.entries[0]
        assert entry.route == "hypergeometric"
        assert entry.estimate == pytest.approx(entry.bound, rel=1e-9)
        assert rep.passed

    @pytest.mark.parametrize("p", [2.1, 2.5, 2.9])
    def test_exact_margin_follows_violated(self, p):
        # at the extremal pair the 2F1 value can round above the bound (at p = 2.9 by
        # 4e-15) inside the 1e-9 allowance; the margin is -inf only for a violation
        a = 1.0 / math.sqrt(2.0)
        rep = S.check_khinchin(4, p, [(a, a), (0.6, 0.8)], 100, seed=1)
        for e in rep.entries:
            assert e.route == "hypergeometric"
            assert (e.margin_sigma == -math.inf) == e.violated

    def test_clt_regime(self):
        # 50 equal coefficients: the moment is within 2% of the Gaussian limit
        from khinsphere.constants import C_infty
        n50 = tuple([1.0 / math.sqrt(50.0)] * 50)
        rep = S.check_khinchin(4, 1.0, [n50], 400_000, seed=8)
        entry = rep.entries[0]
        assert entry.estimate == pytest.approx(C_infty(1.0), rel=0.02)
        assert rep.passed

    def test_random_batch_no_violations(self):
        rng = np.random.default_rng(77)
        sets = []
        for _ in range(10):
            n = int(rng.integers(2, 7))
            a = rng.standard_normal(n)
            sets.append(tuple(a / np.linalg.norm(a)))
        for p in (0.5, 1.5, 2.5):
            rep = S.check_khinchin(4, p, sets, 100_000, seed=17)
            assert rep.n_violations == 0
            assert rep.threshold_sigma >= 4.0

    def test_domain(self):
        with pytest.raises(DomainError):
            S.check_khinchin(5, 1.0, [(1.0,)], 1000)
        for coeffs in ((math.nan,), (math.inf, 1.0), (0.0, 0.0), ()):
            with pytest.raises(DomainError):
                S.check_khinchin(4, 1.0, [coeffs], 1000)

    # 1, 2, 3, 4 and 6 nonzero weights; the zero in (0.6, 0.0, 0.8) leaves two
    MIXED = [(1.0,), (0.6, 0.0, 0.8), (0.6, 0.8), (0.5, 0.5, math.sqrt(0.5)),
             (0.5, 0.5, 0.5, 0.5), tuple([1.0 / math.sqrt(6.0)] * 6)]

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    @pytest.mark.parametrize("p", [0.5, 2.5])
    def test_sampled_sets_match_serial(self, p, cpus, monkeypatch):
        # the sampled sets run concurrently; each entry is the one estimate_moment gives alone
        started = []

        class CountedThread(S.threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(S, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(S.threading, "Thread", CountedThread)
        rep = S.check_khinchin(4, p, self.MIXED, 2000, seed=5)
        assert [e.route for e in rep.entries] == ["exact", "hypergeometric", "hypergeometric"] + [
            "plain-mean"] * 3
        for i, (coeffs, e) in enumerate(zip(self.MIXED, rep.entries)):
            if e.route == "plain-mean":
                alone = S.estimate_moment(MomentQuery(4, -p, coeffs), 2000, seed=5 + i)
                assert (e.estimate, e.std_error) == (alone.estimate, alone.std_error)
        assert len(started) == min(3, cpus) - 1  # the calling thread is one of the workers
        assert all(not t.is_alive() for t in started)

    def test_worker_error_reraised(self, monkeypatch):
        # n_samples = 1 fails in every sampled set; the caller gets the workers' DomainError
        monkeypatch.setattr(S, "_usable_cpus", lambda: 2)
        done = []

        def call():
            with pytest.raises(DomainError, match="at least 2 samples"):
                S.check_khinchin(4, 1.5, [(0.6, 0.6, 0.5), (0.5, 0.5, 0.5, 0.5)], 1)
            done.append(True)

        t = S.threading.Thread(target=call)
        t.start()
        t.join(timeout=60.0)
        assert not t.is_alive() and done == [True]

    def test_map_threads_stress(self, monkeypatch):
        # more workers than cores and a short switch interval: every job runs once, in
        # its slot, and the shared hyp2f1 cache gives each thread the serial values
        from khinsphere import specfun
        monkeypatch.setattr(S, "_usable_cpus", lambda: 8)
        ts = np.linspace(0.0, 1.0 - 1e-9, 257)
        params = [(p / 2.0, (p - 2.0) / 2.0, 2.0) for p in (0.5, 1.5, 2.5, 1.0, 2.9)]
        calls = []

        def job(i):
            calls.append(i)
            return specfun.hyp2f1(*params[i % len(params)], ts)

        specfun._ratio_coeffs.cache_clear()
        specfun._near_one_setup.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = S._map_threads(job, [(i,) for i in range(200)])
        finally:
            sys.setswitchinterval(interval)
        assert sorted(calls) == list(range(200))
        serial = [specfun.hyp2f1(*a, ts) for a in params]
        assert all(np.array_equal(v, serial[i % len(params)]) for i, v in enumerate(out))

    def test_tiny_weights_count(self):
        # every nonzero weight counts: (1, 1e-13) and (1, 0, 1e-300) are pairs, and
        # (1, 1, 1e-13), whose pair alone is 4.6% off, is sampled
        sets = [(1.0, 1e-13), (1.0, 0.0, 1e-300), (1.0, 1.0, 1e-13)]
        rep = S.check_khinchin(4, 2.9, sets, 2000, seed=1)
        assert [e.route for e in rep.entries] == ["hypergeometric"] * 2 + ["plain-mean"]
        assert rep.entries[0].estimate == 1.0 and rep.entries[1].estimate == 1.0

    def test_near_equal_pair(self):
        # a near-equal pair: t = 0.9999^2, next to the 2F1 branch point at t = 1
        entry = S.check_khinchin(4, 2.5, [(1.0, 0.9999)], 1000).entries[0]
        assert entry.route == "hypergeometric"
        assert entry.estimate == pytest.approx(product_moment(MomentQuery(4, -2.5, (1.0, 0.9999))),
                                               rel=1e-9)
        assert not entry.violated


class TestBallSphere:
    def test_d4_qm1(self):
        a = 1.0 / math.sqrt(2.0)
        rep = S.ball_sphere_identity(4, -1.0, (a, a), 200_000, seed=13)
        assert rep.expected == pytest.approx(2.0)
        assert rep.passed

    def test_d5_q2(self):
        rep = S.ball_sphere_identity(5, 2.0, (0.3, 0.9), 200_000, seed=14)
        assert rep.expected == pytest.approx(0.6)
        assert rep.passed

    @pytest.mark.parametrize("q", [-0.4, 1.0])
    def test_d3(self, q):
        # B^1 = [-1, 1]: the ball chain's cosine of S^0 is -1 or 1
        rep = S.ball_sphere_identity(3, q, (0.6, 0.8), 200_000, seed=15)
        assert rep.expected == pytest.approx(1.0 / (1.0 + q))
        assert rep.passed

    @pytest.mark.parametrize("n_samples", [0, 1])
    def test_too_few_samples_rejected(self, n_samples):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="at least 2 samples"):
                S.ball_sphere_identity(4, -1.0, (0.6, 0.8), n_samples)

    def test_q_zero_rejected(self):
        with pytest.raises(DomainError):
            S.ball_sphere_identity(4, 0.0, (1.0,), 1000)

    def test_degenerate_weights_rejected(self):
        for coeffs in ((0.0, 0.0), (math.inf, 1.0), (math.nan, 1.0), ()):
            with pytest.raises(DomainError):
                S.ball_sphere_identity(4, -1.0, coeffs, 1000)

    def test_q_too_negative(self):
        with pytest.raises(DomainError):
            S.ball_sphere_identity(4, -2.0, (1.0,), 1000)

    def test_zero_sigma(self):
        # at q = 1e-17 every |sum|^q rounds to 1 and both standard errors are 0 (a bare
        # ZeroDivisionError once); the ratio equals the expected 2/(2 + q) = 1, so z = 0
        rep = S.ball_sphere_identity(4, 1e-17, (1.0, 0.5), 1000)
        assert (rep.sigma, rep.ratio, rep.expected, rep.z, rep.passed) == (0.0, 1.0, 1.0, 0.0, True)


class TestPolydisc:
    def test_axis_direction(self):
        # the minimal section, to the bit, also with a 1e-13 partner (Newton's theorem)
        for a in ([1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0, 0.0], [-1.0],
                  [0.0, 0.0, 0.0, 0.0, -1.0], [1.0, 1e-13]):
            assert S.polydisc_slice_volume(a) == math.pi ** (len(a) - 1)

    def test_diagonal_two(self):
        a = [1.0 / math.sqrt(2.0)] * 2
        assert S.polydisc_slice_volume(a) == pytest.approx(2.0 * math.pi, abs=1e-7)

    def test_random_directions_in_bounds(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 4):
            for _ in range(6):
                a = rng.standard_normal(n)
                a /= np.linalg.norm(a)
                vol = S.polydisc_slice_volume(a)
                assert math.pi ** (n - 1) - 1e-9 <= vol <= 2.0 * math.pi ** (n - 1) + 1e-9

    def test_two_entries_tiny_weight(self):
        # Newton's theorem: pi / max|a_k|^2, where the quadrature's panel budget ran out
        a = np.array([1.0, 1e-6]) / math.hypot(1.0, 1e-6)
        vol = S.polydisc_slice_volume(a)
        assert type(vol) is float
        assert vol == pytest.approx(math.pi * (1.0 + 1e-12), rel=1e-15, abs=0.0)

    def test_two_entries_match_product_moment(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            a = rng.standard_normal(2)
            a /= np.linalg.norm(a)
            pm = product_moment(MomentQuery(4, -2.0, tuple(a)))
            assert S.polydisc_slice_volume(a) == pytest.approx(math.pi * pm, rel=1e-12, abs=0.0)

    def test_three_entries_one_tiny(self):
        # product_moment drops the 5e-13 entry; at p = 2, d = 4 it moves the volume by O(eps)
        vol = S.polydisc_slice_volume((0.6, 0.8, 5e-13))
        assert vol == pytest.approx(math.pi ** 2 / 0.64, rel=1e-14, abs=0.0)

    def test_requires_unit_vector(self):
        with pytest.raises(DomainError):
            S.polydisc_slice_volume([1.0, 1.0])
        with pytest.raises(DomainError, match="finite"):
            S.polydisc_slice_volume([math.nan, 1.0])


class TestNormalIsf:
    def test_values(self):
        # Phi^-1 checks: P(Z > 1.6448536...) = 0.05
        assert S.normal_isf(0.05) == pytest.approx(1.6448536269514722, abs=1e-9)
        assert S.normal_isf(0.5 * math.erfc(4.0 / math.sqrt(2.0))) == pytest.approx(4.0, abs=1e-9)

    @pytest.mark.parametrize("alpha, z", [(0.025, 1.9599639845400543), (0.005, 2.575829303548901),
                                          (1e-3, 3.0902323061678136)])
    def test_fixed_quantiles(self, alpha, z):
        # z correctly rounded from 40 digits
        assert S.normal_isf(alpha) == pytest.approx(z, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.4, 0.1, 1e-3, 1e-6, 1e-12, 1e-20])
    def test_against_mpmath_erfinv(self, alpha):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(60):
            z = mp.sqrt(2) * mp.erfinv(1 - 2 * mp.mpf(alpha))
        assert S.normal_isf(alpha) == pytest.approx(float(z), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.7, -0.1])
    def test_outside_domain(self, alpha):
        with pytest.raises(DomainError):
            S.normal_isf(alpha)

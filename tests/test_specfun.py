import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khinsphere import specfun
from khinsphere.errors import DivergenceError, DomainError, PoleError
from khinsphere.specfun import (
    HYP2F1_RTOL,
    digamma,
    gamma,
    hyp2f1,
    jj,
    jj1,
    jj1_prime,
    jnu_zeros,
    log_gamma,
    pochhammer,
    trigamma,
)

EULER_GAMMA = 0.5772156649015329

# minimum of Gamma on (0, inf), to 19 digits
GAMMA_MIN_X = 1.46163214496836226
GAMMA_MIN_VALUE = 0.885603194410888689


# float.hex of jnu_zeros(nu, 51), recorded from a fixed 80-step bisection of every
# bracket; the bisection that stops one float wide must reproduce them bit for bit
JNU_ZEROS_51 = {
    0.0: (
        "0x1.33d152e971b40p+1", "0x1.6148f5b2c2e46p+2", "0x1.14eb56cccdecap+3",
        "0x1.79544008272b6p+3", "0x1.ddca13ef271d2p+3", "0x1.212313f8a19f6p+4",
        "0x1.5362dd173f792p+4", "0x1.85a3b930156dep+4", "0x1.b7e54a5fd5f12p+4",
        "0x1.ea27591cbbed2p+4", "0x1.0e34e13a66fe6p+5", "0x1.275637a9619ecp+5",
        "0x1.4077a7ed6293ap+5", "0x1.59992c65d0d8cp+5", "0x1.72bac0f810810p+5",
        "0x1.8bdc6293f0656p+5",
    ),
    1.0: (
        "0x1.ea75575af6f08p+1", "0x1.c0ff5f3b47250p+2", "0x1.458d0d0bdfc2ap+3",
        "0x1.aa5baf310e5a2p+3", "0x1.0787b360508c4p+4", "0x1.39da8e7416ca4p+4",
        "0x1.6c294e3d4d8acp+4", "0x1.9e7570dcea106p+4", "0x1.d0bfcf471fcccp+4",
        "0x1.018476e6b2bf0p+5", "0x1.1aa890dc5e97cp+5", "0x1.33cc523d5cb68p+5",
        "0x1.4cefcf1734b62p+5", "0x1.661315d6b1340p+5", "0x1.7f36312028ad6p+5",
    ),
    3.0: (
        "0x1.9854928f8b728p+2", "0x1.385a4d2dd8aaap+3", "0x1.a07c863952408p+3",
        "0x1.03935140a54f0p+4", "0x1.368cf6fb005d6p+4", "0x1.6952dc440cb82p+4",
        "0x1.9bf87da516d9ep+4", "0x1.ce889ad415ae2p+4", "0x1.0084d156bc698p+5",
        "0x1.19bfd671b7618p+5", "0x1.32f6ba407ace0p+5", "0x1.4c2a6f13163f8p+5",
        "0x1.655ba24774bcep+5", "0x1.7e8ad339822dap+5", "0x1.97b8619976818p+5",
    ),
}


class TestGamma:
    def test_half_integer(self):
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), abs=1e-14)

    def test_minimum(self):
        assert abs(gamma(GAMMA_MIN_X) - GAMMA_MIN_VALUE) < 1e-12

    def test_factorial(self):
        assert gamma(3.0) == pytest.approx(2.0, abs=1e-14)
        assert gamma(6.0) == pytest.approx(120.0, rel=1e-14, abs=0.0)

    def test_pole(self):
        for x in (0.0, -1.0, -7.0):
            with pytest.raises(PoleError):
                gamma(x)

    @pytest.mark.parametrize("x", [0.0, -0.0, -1.0, -0.5, 2.5, 171.7, math.inf, -math.inf,
                                   math.nan, np.float64(-3.0), np.float64(0.1)])
    def test_float_path_matches_array_path(self, x):
        # a float skips the array set-up; a 0-d array takes the array path
        def outcome(arg):
            try:
                return gamma(arg)
            except Exception as exc:
                return type(exc)

        fast, slow = outcome(x), outcome(np.array(x))
        if isinstance(slow, type):
            assert fast is slow
        else:
            assert type(fast) is float and fast.hex() == slow.hex()

    @pytest.mark.parametrize("x", [math.nan, np.array([2.0, math.nan, 3.0])])
    def test_nan(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                gamma(x)

    def test_negative_argument(self):
        # Gamma(-0.5) = -2 sqrt(pi)
        assert gamma(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-13, abs=0.0)

    @given(st.floats(min_value=0.1, max_value=30.0))
    @settings(max_examples=60, deadline=None)
    def test_recurrence(self, x):
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12, abs=0.0)

    def test_vectorized(self):
        xs = np.array([0.5, 1.0, 3.0])
        np.testing.assert_allclose(gamma(xs), [math.sqrt(math.pi), 1.0, 2.0], rtol=1e-13)

    def test_against_math_gamma_up_to_overflow(self):
        xs = np.linspace(0.5, 171.6, 20001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = gamma(xs)
            assert [gamma(float(x)) for x in xs[::50]] == got[::50].tolist()
            assert gamma(171.7) == math.inf and gamma(1000.0) == math.inf
        assert got.tolist() == [math.gamma(x) for x in xs]

    def test_bitwise_math_gamma(self):
        # on [0.5, 171.6] and at negative non-integers, scalar and array alike
        xs = np.concatenate([np.linspace(0.5, 171.6, 997), np.linspace(-170.75, -0.25, 683)])
        xs = xs[xs != np.round(xs)]
        expected = [math.gamma(x) for x in xs]
        assert gamma(xs).tolist() == expected
        assert [gamma(float(x)) for x in xs] == expected
        assert all(type(gamma(float(x))) is float for x in xs[::100])
        assert gamma(xs.reshape(2, -1)).tolist() == np.reshape(expected, (2, -1)).tolist()

    def test_negative_beyond_split(self):
        # far out on the negative axis, Gamma(-150.5) = -4.5e-264
        assert gamma(-150.5) == math.gamma(-150.5)

    def test_against_mpmath_on_negative_axis(self):
        mpmath = pytest.importorskip("mpmath")
        xs = np.linspace(-20.5, -0.01, 2051)
        xs = xs[xs != np.round(xs)]
        got = gamma(xs)
        with mpmath.workdps(30):
            for x, g in zip(xs.tolist(), got.tolist()):
                assert g == pytest.approx(float(mpmath.gamma(x)), rel=1e-15, abs=0.0)


class TestLogGamma:
    def test_float_path_equals_array_path_bit_for_bit(self):
        # every path is math.lgamma, for a float, an np.float64, a 0-d array and an array
        rng = np.random.default_rng(11)
        xs = np.concatenate([[1e-9, 0.49, 0.5, 1.0, 2.0, 171.6], rng.uniform(0.5, 10.0, 4000),
                             np.exp(rng.uniform(math.log(1e-9), math.log(1e6), 8000))])
        ref = np.array([math.lgamma(x) for x in xs.tolist()]).view(np.int64)
        assert np.array_equal(log_gamma(xs).view(np.int64), ref)
        assert np.array_equal(log_gamma(xs.reshape(6, -1)).ravel().view(np.int64), ref)
        for wrap in (float, np.float64, np.array):
            got = np.array([log_gamma(wrap(x)) for x in xs.tolist()])
            assert np.array_equal(got.view(np.int64), ref), wrap

    def test_against_mpmath(self):
        # seeded points over [1e-9, 1e300], within 2e-15 max(1, |log Gamma|) of 30 digits
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(34)
        xs = np.concatenate([np.exp(rng.uniform(math.log(1e-9), math.log(1e300), 1000)),
                             rng.uniform(1e-9, 20.0, 1000)])
        got = log_gamma(xs)
        with mpmath.workdps(30):
            for x, g in zip(xs.tolist(), got.tolist()):
                exact = float(mpmath.loggamma(x))
                assert g == pytest.approx(exact, abs=2e-15 * max(1.0, abs(exact)), rel=0.0), x

    @pytest.mark.parametrize("x", [2.6e305, 1e308, sys.float_info.max])
    def test_overflow_is_inf_without_warning(self, x):
        # log Gamma(x) is above the largest float from x = 2.56e305
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_gamma(x) == math.inf
            assert log_gamma(np.float64(x)) == math.inf
            assert log_gamma(np.array([2.0, x])).tolist() == [0.0, math.inf]

    @pytest.mark.parametrize("wrap", [float, np.float64, lambda v: np.array([2.0, v])])
    def test_infinity_and_nan(self, wrap):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = log_gamma(wrap(math.inf))
            assert np.ravel(got)[-1] == math.inf
            with pytest.raises(DomainError):
                log_gamma(wrap(math.nan))

    def test_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert log_gamma(2.0) == pytest.approx(0.0, abs=1e-14)
        assert log_gamma(0.5) == pytest.approx(0.5723649429247001, abs=1e-13)

    def test_against_mpmath_below_half(self):
        # below 1/2, log Gamma(x+1) - log x: within 3.6e-15 of mpmath from x = 1e-9 on
        mpmath = pytest.importorskip("mpmath")
        xs = np.concatenate([np.geomspace(1e-9, 0.4999, 300), np.linspace(0.001, 0.4999, 300)])
        got = log_gamma(xs)
        with mpmath.workdps(30):
            for x, g in zip(xs.tolist(), got.tolist()):
                assert g == pytest.approx(float(mpmath.loggamma(x)), abs=3.6e-15, rel=0.0)

    def test_matches_gamma(self):
        for x in np.geomspace(0.05, 100.0, 50):
            assert math.exp(log_gamma(x)) == pytest.approx(gamma(x), rel=1e-12, abs=0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-1.5)


class TestDigamma:
    def test_euler(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-12)

    def test_at_10_series_oracle(self):
        # psi(10) = -gamma + sum_{k=1}^{9} 1/k, summed directly
        oracle = -EULER_GAMMA + sum(1.0 / k for k in range(1, 10))
        assert digamma(10.0) == pytest.approx(oracle, abs=1e-12)
        assert digamma(10.0) <= math.log(10.0) - 1.0 / 20.0

    def test_recurrence_grid(self):
        xs = np.geomspace(0.1, 100.0, 60)
        np.testing.assert_allclose(digamma(xs + 1.0) - digamma(xs), 1.0 / xs,
                                   rtol=0, atol=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            digamma(-0.3)

    @pytest.mark.parametrize("x", [math.nan, np.array([2.0, math.nan, 3.0])])
    def test_nan(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                digamma(x)


class TestTrigamma:
    def test_basel(self):
        assert trigamma(1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-12, abs=0.0)

    def test_recurrence(self):
        for x in (0.3, 1.7, 9.5):
            assert trigamma(x) - trigamma(x + 1.0) == pytest.approx(1.0 / x**2, rel=1e-10)

    @pytest.mark.parametrize("x", [math.nan, np.array([2.0, math.nan, 3.0])])
    def test_nan(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                trigamma(x)


class TestPochhammer:
    def test_examples(self):
        assert pochhammer(2.5, 0) == 1.0
        assert pochhammer(1.0, 5) == 120.0
        assert pochhammer(0.5, 2) == 0.75

    def test_negative_k(self):
        with pytest.raises(DomainError):
            pochhammer(1.0, -1)

    def test_largest_k(self):
        # k = 10^6 looped for 1.2 s to return inf with a warning, and k = 10^8 ran past 5 s
        with np.errstate(over="ignore"):
            assert pochhammer(0.5, specfun._POCHHAMMER_K_MAX) == math.inf
        for k in (10_001, 10**6, 10**8):
            with pytest.raises(DomainError, match="k <= 10000"):
                pochhammer(0.5, k)

    def test_infinite_k(self):
        # int(inf) raised a bare OverflowError
        with pytest.raises(DomainError):
            pochhammer(1.0, math.inf)

    @pytest.mark.parametrize("x", [math.nan, np.array([1.0, math.nan])], ids=["float", "array"])
    def test_nan_is_domain_error(self, x):
        with pytest.raises(DomainError):
            pochhammer(x, 2)

    @pytest.mark.parametrize("p", [0.3, 1.0, 2.7])
    def test_duplication(self, p):
        # (p/2)_{2k} 2^{-2k} = (p/4)_k ((p+2)/4)_k
        for k in range(21):
            lhs = pochhammer(p / 2.0, 2 * k) * 2.0 ** (-2 * k)
            rhs = pochhammer(p / 4.0, k) * pochhammer((p + 2.0) / 4.0, k)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=0.0)


class TestJJ:
    def test_at_zero(self):
        assert jj(1.0, 0.0) == 1.0

    def test_half_integer_closed_form(self):
        # jj_{1/2}(t) = sin t / t
        assert abs(jj(0.5, math.pi)) < 1e-13
        for t in (0.3, 2.0, 7.7, 30.0):
            assert jj(0.5, t) == pytest.approx(math.sin(t) / t, abs=1e-13)

    def test_first_zero_of_j1(self):
        # locate the first zero by bisection of the series-evaluated jj_1
        a, b = 3.5, 4.0
        fa = jj(1.0, a)
        for _ in range(60):
            m = 0.5 * (a + b)
            if (jj(1.0, m) > 0) == (fa > 0):
                a = m
            else:
                b = m
        root = 0.5 * (a + b)
        assert abs(jj(1.0, 3.8317059702)) < 1e-9
        assert root == pytest.approx(3.8317059702075123, abs=1e-19 + 1e-12)

    def test_zeros_table(self):
        zs = jnu_zeros(1.0, 50.0)
        assert zs[0] == pytest.approx(3.8317059702075123, abs=1e-11)
        assert zs[1] == pytest.approx(7.015586669815619, abs=1e-10)
        # spacing approaches pi
        assert np.all(np.abs(np.diff(zs)[5:] - math.pi) < 0.05)
        # jj_(1/2)(t) = sin(t)/t: the zeros are k pi
        assert np.max(np.abs(jnu_zeros(0.5, 50.0) - math.pi * np.arange(1, 16))) < 1e-12

    def test_bounded_by_one(self):
        t = np.linspace(0.0, 100.0, 20001)
        assert np.max(np.abs(jj1(t))) <= 1.0 + 1e-15

    def test_envelope_exponential(self):
        # |jj_1(t)| <= exp(-t^2/8 - t^4/384) on [0, 4]
        t = np.linspace(0.0, 4.0, 10000)
        margin = np.exp(-t**2 / 8.0 - t**4 / 384.0) - np.abs(jj1(t))
        assert np.min(margin) >= 0.0

    def test_envelope_watson(self):
        # |jj_1(t)| <= sqrt(8/pi) t^-1 (t^2-1)^(-1/4) on t >= 1
        t = np.linspace(1.01, 100.0, 5000)
        bound = math.sqrt(8.0 / math.pi) / t * (t * t - 1.0) ** -0.25
        assert np.min(bound - np.abs(jj1(t))) >= 0.0

    def test_crossover_continuity(self):
        # the series below max(5, nu) and the recurrence above meet continuously: the
        # step across the switch is the slope's, jj_nu' = -t/(2(nu+1)) jj_(nu+1)
        eps = 1e-9
        for nu, edge in ((0.0, 5.0), (1.0, 5.0), (3.0, 5.0), (9.5, 9.5), (19.5, 19.5)):
            slope = -edge / (2.0 * (nu + 1.0)) * jj(nu + 1.0, edge)
            step = jj(nu, edge + eps) - jj(nu, edge - eps)
            assert step == pytest.approx(2.0 * eps * slope, rel=0, abs=2e-14), nu

    def test_series_vs_large_branch(self):
        # the two evaluation routes agree where both are valid (jj_1 is the kernel above t = 5)
        from khinsphere.specfun import _bessel_j01, _horner, _jj_series_coeffs
        t = np.linspace(6.0, 11.9, 200)
        series = _horner(_jj_series_coeffs(1.0), t * t)
        cephes = 2.0 * _bessel_j01(1, t) / t
        np.testing.assert_allclose(series, cephes, rtol=0, atol=5e-13)

    def test_integer_orders_recurrence_consistency(self):
        # 2nu/t jj-based recurrence: J_{nu+1} = 2nu/t J_nu - J_{nu-1},
        # rewritten for jj via jj_nu = 2^nu Gamma(nu+1) t^-nu J_nu
        t = 15.0
        for nu in (1.0, 2.0, 3.0):
            jnum1 = jj(nu - 1.0, t) / (2.0 ** (nu - 1) * gamma(nu) * t ** -(nu - 1))
            jnu = jj(nu, t) / (2.0**nu * gamma(nu + 1) * t**-nu)
            jnup1 = jj(nu + 1.0, t) / (2.0 ** (nu + 1) * gamma(nu + 2) * t ** -(nu + 1))
            assert jnup1 == pytest.approx(2.0 * nu / t * jnu - jnum1, abs=1e-13)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5, 2.0])
    def test_scalar_matches_mpmath(self, nu):
        # scalar input, up to and past the switch at t = 5
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for t in np.linspace(0.0, 12.4, 249):
                x = mpmath.mpf(float(t))
                exact = 1 if t == 0 else 2**nu * mpmath.gamma(nu + 1) * x**-nu * mpmath.besselj(nu, x)
                assert abs(jj(nu, float(t)) - float(exact)) <= 2e-15

    @staticmethod
    def _assert_matches_mpmath(nu, ts, tol):
        mpmath = pytest.importorskip("mpmath")
        got = jj(nu, ts)
        with mpmath.workdps(30):
            norm = 2**mpmath.mpf(nu) * mpmath.gamma(nu + 1)
            for t, g in zip(ts, got):
                x = mpmath.mpf(float(t))
                exact = 1 if t == 0 else norm * x**-nu * mpmath.besselj(nu, x)
                assert g == pytest.approx(float(exact), rel=0, abs=tol)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    def test_low_orders_match_mpmath(self, nu):
        # both sides of the switch at t = 5
        self._assert_matches_mpmath(nu, np.concatenate([np.linspace(0.0, 30.0, 601), [5.0]]), 2e-15)

    @pytest.mark.parametrize("nu", [9.5, 19.5, 29.5])
    def test_high_orders_match_mpmath(self, nu):
        # the switch is at t = nu, below which the forward recurrence is unstable
        ts = np.concatenate([np.linspace(0.0, nu + 30.0, 401), [nu, 2.0 * nu]])
        self._assert_matches_mpmath(nu, ts, 2e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            jj(1.0, -1.0)
        with pytest.raises(DomainError):
            jj(-1.0, 1.0)

    @pytest.mark.parametrize("nu", [0.3, 2.7, -1.0])
    def test_zeros_need_a_sphere_order(self, nu):
        # jnu_zeros(0.3, 12) gave 2.854, 6.283, 9.425 where J_0.3's zeros are 2.854,
        # 5.982, 9.119, and nu = -1 divided by zero; jj's order check now raises
        with pytest.raises(DomainError):
            jnu_zeros(nu, 12.0)

    @pytest.mark.parametrize("nu,t_max", [(0.0, 1e300), (0.0, 1e8), (-1.0, 1e8), (1e-300, 1e8)])
    def test_zeros_checked_before_the_grid(self, nu, t_max, monkeypatch):
        # t_max = 1e300 raised a bare ValueError and 1e8 asked for a 2.98 GiB grid, whatever nu
        monkeypatch.setattr(specfun.np, "arange", None)  # a grid built first would fail here
        with pytest.raises(DomainError):
            jnu_zeros(nu, t_max)

    def test_zeros_at_the_largest_t_max(self):
        zs = jnu_zeros(0.5, specfun._ZEROS_T_MAX)
        assert len(zs) == 3183 and zs[-1] == pytest.approx(3183 * math.pi, rel=1e-14)

    def test_prime_matches_mpmath(self):
        # jj_1' = -(t/4) jj_2 = -2 J2(t)/t, across jj_2's switch to the recurrence at t = 5
        mpmath = pytest.importorskip("mpmath")
        ts = np.concatenate([np.linspace(0.0, 30.0, 601), [4.99, 5.0, 9.91, 10.0, 12.0]])
        got = jj1_prime(ts)
        with mpmath.workdps(30):
            for t, g in zip(ts, got):
                x = mpmath.mpf(float(t))
                exact = 0.0 if t == 0 else float(-2 * mpmath.besselj(2, x) / x)
                assert g == pytest.approx(exact, rel=0, abs=1e-15)
                assert jj1_prime(float(t)) == g

    @pytest.mark.parametrize("nu", [0, 1])
    def test_large_argument_kernel_matches_mpmath(self, nu):
        mpmath = pytest.importorskip("mpmath")
        from khinsphere.specfun import _bessel_j01
        ts = np.linspace(5.0, 500.0, 991)
        got = _bessel_j01(nu, ts)
        with mpmath.workdps(30):
            for t, g in zip(ts, got):
                assert g == pytest.approx(float(mpmath.besselj(nu, mpmath.mpf(float(t)))), rel=0,
                                          abs=2e-15)

    def test_prime(self):
        # central difference cross-check of jj_1'
        for t in (0.5, 2.0, 8.0, 20.0):
            h = 1e-6
            fd = (jj1(t + h) - jj1(t - h)) / (2.0 * h)
            assert jj1_prime(t) == pytest.approx(fd, abs=5e-9)


    def test_zeros_pinned_bits(self):
        for nu, hexes in JNU_ZEROS_51.items():
            assert [z.hex() for z in jnu_zeros(nu, 51.0).tolist()] == list(hexes), nu


def _step_at(root):
    """f(lanes, t) = -1 left of root[lane], +1 from it on: no zero, a float-wide stop."""
    root = np.asarray(root, dtype=float)
    return lambda lanes, t: np.where(t < root[lanes], -1.0, 1.0)


class TestBisect:
    def test_exact_zero_ends_as_point(self):
        # 0.5 at the first step, 0.25 at the second; the zero's step is not counted
        for z, steps in ((0.5, 0), (0.25, 1)):
            a, b, n = specfun._bisect(lambda lanes, t: t - z, [0.0], [1.0], 1e-12)
            assert (a[0], b[0], n[0]) == (z, z, steps)

    def test_stops_at_tol(self):
        a, b, n = specfun._bisect(lambda lanes, t: t - 1.0 / 3.0, [0.0], [1.0], 1e-3)
        assert n[0] == 10 and b[0] - a[0] == 2.0**-10
        assert a[0] < 1.0 / 3.0 < b[0]

    def test_stops_one_float_wide(self):
        # the sign changes at the float pi: the bracket ends as [pi-, pi] after 51 halvings
        a, b, n = specfun._bisect(_step_at([math.pi]), [3.0], [4.0], 0.0)
        assert (a[0], b[0]) == (np.nextafter(math.pi, 0.0), math.pi)
        assert n[0] == 51

    def test_within_tol_takes_no_step(self):
        a0, b0 = np.array([0.0, 1.0]), np.array([1e-4, 1.0 + 1e-4])
        a, b, n = specfun._bisect(lambda lanes, t: t - 5e-5 - lanes, a0, b0, 1e-3)
        assert a.tolist() == a0.tolist() and b.tolist() == b0.tolist()
        assert n.tolist() == [0, 0]
        assert a is not a0 and b is not b0

    def test_lanes_equal_solo_runs(self):
        # exact zeros (0.25 at the second step), float-wide stops and stops at tol, mixed
        roots = [0.25, math.pi, 1.0 / 3.0, -7.7, 1e-9]
        lo, hi = np.array([0.0, 3.0, 0.0, -8.0, -1.0]), np.array([1.0, 4.0, 1.0, -7.0, 1.0])

        def line(rs):
            return lambda lanes, t: t - np.asarray(rs)[lanes]

        for make in (_step_at, line):
            for tol in (0.0, 1e-9, 0.3):
                a, b, n = specfun._bisect(make(roots), lo, hi, tol)
                for i, root in enumerate(roots):
                    solo = specfun._bisect(make([root]), lo[i:i + 1], hi[i:i + 1], tol)
                    assert (a[i], b[i], n[i]) == tuple(x[0] for x in solo), (tol, i)
        a, b, n = specfun._bisect(line(roots), lo, hi, 0.0)
        assert (a[0], b[0], n[0]) == (0.25, 0.25, 1)


class TestJJOrderZero:
    def test_matches_j0(self):
        # jj_0 = J0; first zero of J0
        assert abs(jj(0.0, 2.404825557695773)) < 1e-10
        assert jj(0.0, 0.0) == 1.0
        # large-argument branch spot value: J0(30) via the recurrence-free path
        assert jj(0.0, 30.0) == pytest.approx(-0.08636798358104556, abs=1e-12)


class TestPochhammerSplit:
    @given(st.floats(min_value=0.1, max_value=5.0), st.integers(min_value=0, max_value=8),
           st.integers(min_value=0, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_split_identity(self, x, k, m):
        # (x)_{k+m} = (x)_k (x+k)_m
        lhs = pochhammer(x, k + m)
        rhs = pochhammer(x, k) * pochhammer(x + k, m)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=0.0)


class TestHyp2f1:
    def test_at_zero(self):
        assert hyp2f1(0.3, -0.7, 2.0, 0.0) == 1.0

    @pytest.mark.parametrize("a", [0.5, -1.45])
    def test_terminating_above_the_largest_float(self, a):
        # c - b = -998: (1 - t)^(c-a-b) = 0.3^-998.5 overflowed and the value read -inf, where
        # it is +3.79e517 (a = 0.5) and +7.42e510 (a = -1.45)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (0.7, np.array([0.1, 0.7])):
                with pytest.raises(DomainError, match="above the largest float"):
                    hyp2f1(a, 1000.0, 2.0, t)

    def test_log_closed_form(self):
        # 2F1(1,1;2;t) = -log(1-t)/t
        assert hyp2f1(1.0, 1.0, 2.0, 0.5) == pytest.approx(2.0 * math.log(2.0), abs=1e-10)

    def test_gauss_summation_d4_p1(self):
        # Gamma(2)Gamma(2)/(Gamma(1.5)Gamma(2.5)) = 8/(3 pi)
        val = hyp2f1(0.5, -0.5, 2.0, 1.0)
        expected = gamma(2.0) * gamma(2.0) / (gamma(1.5) * gamma(2.5))
        assert val == pytest.approx(expected, rel=1e-13, abs=0.0)
        assert val == pytest.approx(8.0 / (3.0 * math.pi), rel=1e-13, abs=0.0)

    def test_parameter_pole(self):
        with pytest.raises(PoleError):
            hyp2f1(0.5, 0.5, -1.0, 0.3)

    @pytest.mark.parametrize("t", [0.3, 0.999, 1.0 - 1e-9])
    def test_log_closed_form_near_one(self, t):
        # 2F1(1,1;3;t) = 2((1-t)log(1-t) + t)/t^2: c-a-b = 1, the logarithmic case
        w = 1.0 - t
        expected = 2.0 * (w * math.log(w) + t) / t**2
        assert hyp2f1(1.0, 1.0, 3.0, t) == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_terminating_is_exact(self):
        # d=4, q=-2 and d=3, q=-1: b = 0, the series is the constant 1
        for d, q in ((4, -2.0), (3, -1.0)):
            vals = hyp2f1(-q / 2.0, (-q - d + 2.0) / 2.0, d / 2.0, np.linspace(0.0, 1.0, 101))
            assert np.all(vals == 1.0)
        # a = -2: the polynomial 1 - 2bt/c + b(b+1)t^2/(c(c+1)) = (1 - t)(1 - 5t) on all of
        # [0, 1]; the factored form, since 1 - 6t + 5t^2 rounds to -1.7e-16 at t = 0.2
        for t in (0.2, 0.9, 1.0):
            assert hyp2f1(-2.0, 1.5, 0.5, t) == pytest.approx((1.0 - t) * (1.0 - 5.0 * t), rel=1e-15,
                                                              abs=0.0)

    def test_array_matches_scalar(self):
        ts = np.array([0.0, 0.2, 0.5, 0.5000001, 0.9, 0.9999, 1.0 - 1e-12, 1.0])
        for a, b, c in ((1.25, 0.25, 2.0), (0.5, -0.5, 2.0), (1.0, 0.5, 2.5)):
            vals = hyp2f1(a, b, c, ts)
            assert vals.shape == ts.shape
            assert all(v == hyp2f1(a, b, c, float(t)) for v, t in zip(vals, ts))
            assert isinstance(hyp2f1(a, b, c, 0.7), float)

    # (a, b, c) and whether c-a-b > 0: generic, the log case (m = 2, eps = 0), Euler's
    # transformation inside the 1/2 < t < 1 branch (c-a-b < 0), a terminating series
    # (a = -2), and an Euler polynomial (c-b = -1, so (1-t)^(1/2) times a polynomial)
    BRANCH_PARAMS = [((1.25, 0.25, 2.0), True), ((0.25, -0.25, 2.0), True),
                     ((1.5, 0.5, 1.2), False), ((-2.0, 1.5, 0.5), True), ((-1.5, 3.0, 2.0), True)]

    @pytest.mark.parametrize("params,finite_at_one", BRANCH_PARAMS)
    def test_mixed_branches_match_scalar_cold_and_warm(self, params, finite_at_one):
        ts = [0.0, 0.25, 0.5, math.nextafter(0.5, 1.0), 0.9, 1.0 - 1e-12] + [1.0] * finite_at_one
        ts = np.array(ts)

        def cold(t):
            specfun._ratio_coeffs.cache_clear()
            specfun._near_one_setup.cache_clear()
            return hyp2f1(*params, t)

        arr_cold, one_cold = cold(ts), [cold(float(t)) for t in ts]
        arr_warm, one_warm = hyp2f1(*params, ts), [hyp2f1(*params, float(t)) for t in ts]
        assert arr_cold.tobytes() == arr_warm.tobytes() == np.array(one_cold).tobytes()
        assert np.array(one_warm).tobytes() == arr_warm.tobytes()

    def test_cached_setup_is_read_only(self):
        a, b, c = 1.25, 0.25, 2.0
        hyp2f1(a, b, c, np.array([0.3, 0.9]))
        assert not specfun._ratio_coeffs(a, b, c, 1.0).flags.writeable
        m, eps, h, head, k, rows = specfun._near_one_setup(a, b, c)
        assert not rows.flags.writeable
        head = specfun._near_one_setup(0.25, -0.25, 2.0)[3]  # m = 2: a regular head
        assert head is not None and not head.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rows[0] = 2.0

    def test_divergence_at_one(self):
        with pytest.raises(DivergenceError):
            hyp2f1(1.5, 1.0, 2.0, 1.0)  # c - a - b = -0.5

    def test_domain(self):
        with pytest.raises(DomainError):
            hyp2f1(0.5, 0.5, 2.0, 1.5)
        with pytest.raises(DomainError):
            hyp2f1(0.5, 0.5, 2.0, np.array([0.2, math.nan]))
        with pytest.raises(DomainError, match="finite"):
            hyp2f1(math.nan, 0.5, 2.0, 0.3)
        for t in (0.3, 0.9):
            with pytest.raises(DomainError, match="overflow"):
                hyp2f1(800.3, 800.6, 1.5, t)

    @pytest.mark.parametrize("p,direction", [(0.5, -1), (1.5, -1), (2.3, 1), (2.8, 1)])
    def test_monotone_in_t(self, p, direction):
        # d=4 series coefficients share a sign: decreasing for p in (0,2),
        # increasing for p in (2,3)
        ts = np.linspace(0.01, 0.95, 40)
        vals = [hyp2f1(p / 2.0, (p - 2.0) / 2.0, 2.0, float(t)) for t in ts]
        diffs = np.diff(vals) * direction
        assert np.all(diffs > 0)

    @given(st.floats(min_value=0.1, max_value=2.9), st.floats(min_value=0.0, max_value=0.8))
    @settings(max_examples=40, deadline=None)
    def test_kummer_quadratic_transform(self, p, t):
        # (1+t)^(-p/2) 2F1(p/4,(p+2)/4; 2; 4t/(1+t)^2) = 2F1(p/2,(p-2)/2; 2; t)
        lhs = (1.0 + t) ** (-p / 2.0) * hyp2f1(p / 4.0, (p + 2.0) / 4.0, 2.0, 4.0 * t / (1.0 + t) ** 2)
        rhs = hyp2f1(p / 2.0, (p - 2.0) / 2.0, 2.0, t)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def _sphere_params(d, q):
    return -q / 2.0, (-q - d + 2.0) / 2.0, d / 2.0


_NEAR_ONE = [0.0, 0.2, 0.5, 0.5000001, 0.7, 0.9, 0.99, 0.999, 1.0 - 1e-5, 1.0 - 1e-7,
             1.0 - 1e-9, 1.0 - 1e-12]


def _hyp2f1_grid():
    """(d, q) over the sphere family: generic q, the log cases, the terminating
    cases and c-a-b = d-1+q within 1e-3, 1e-6, 1e-9 of an integer."""
    cases = [(4, -1.0), (2, 1.0), (4, -2.0), (3, -1.0)]
    for d in (2, 3, 4, 5, 8):
        cases += [(d, q) for q in np.linspace(-(d - 1) + 0.07, 8.0, 7)]
        for m in (1, 2, 3, 7):
            for gap in (1e-3, -1e-3, 1e-6, -1e-6, 1e-9, -1e-9):
                cases.append((d, m + gap - (d - 1)))
    return cases


class TestHyp2f1Mpmath:
    @pytest.mark.parametrize("d,q", _hyp2f1_grid())
    def test_matches_mpmath(self, d, q):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        a, b, c = _sphere_params(d, q)
        ts = np.array(_NEAR_ONE + ([1.0] if c - a - b > 0 else []))
        vals = hyp2f1(a, b, c, ts)
        for t, v in zip(ts, vals):
            ref = float(mpmath.hyp2f1(a, b, c, float(t)))
            assert abs(v - ref) <= HYP2F1_RTOL * abs(ref), (t, v, ref)
            assert v == hyp2f1(a, b, c, float(t))

    # outside the sphere family: c-a <= 1/2 (Gamma ratios change sign along
    # the series), c-a-b < 0 (Euler's transformation), c-a a nonpositive
    # integer (a polynomial times (1-t)^(c-a-b)), c-a-b = 0
    @pytest.mark.parametrize("a,b,c", [(1.5, 0.5, 1.2), (2.5, -0.5, 1.0), (0.3, 0.7, 0.5),
                                       (2.2, 1.3, 1.7), (2.5, 1.0, 0.5), (0.75, 1.25, 2.0)])
    def test_general_parameters(self, a, b, c):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        for t in _NEAR_ONE:
            ref = float(mpmath.hyp2f1(a, b, c, t))
            assert hyp2f1(a, b, c, t) == pytest.approx(ref, rel=HYP2F1_RTOL)


def _horner_1d(cs, x):
    acc = np.full_like(x, cs[-1])
    for c in cs[-2::-1]:
        acc *= x
        acc += c
    return acc


def _near_one_two_passes(a, b, c, w):
    """_hyp2f1_near_one's formula with cs and cs_nu summed by a Horner pass each."""
    s = math.fsum((c, -a, -b))
    if round(s) < 0:
        return w**s * _near_one_two_passes(c - a, c - b, c, w)
    m, eps, h, head, k, rows = specfun._near_one_setup(a, b, c)
    cs, cs_nu = rows[:, 0, 0], rows[:, 1, 0]
    e = np.log(w)
    e *= specfun._exprel(eps * e)
    tail = _horner_1d(cs, w)
    tail *= e
    e = w**eps
    e *= _horner_1d(cs_nu, w)
    tail += e
    e = w**m
    e *= k
    tail *= e
    out = np.zeros_like(w)
    if m > 0:
        out += h * _horner_1d(head, w)
    out += tail
    return out


# the d = 4 sphere family at the p of the Monte Carlo check, and c-a-b within 1e-9 of an
# integer (the logarithmic case), on both sides, with a regular head (m > 0) and with
# Euler's transformation (m < 0)
_PAIRED_PARAMS = ([_sphere_params(4, q) for q in (-0.5, -1.5, -2.5, -2.9)]
                  + [(1.25, 0.75 - gap, 2.0) for gap in (1e-9, -1e-9, 0.0)]
                  + [(0.5, 0.5 - gap, 2.0) for gap in (1e-9, -1e-9)]
                  + [(1.5, 1.5 + gap, 2.0) for gap in (1e-9, -1e-9)])


class TestPairedHorner:
    """The paired series of the 1 - t branch, summed as two rows of one Horner pass, keep
    the bits of a pass each."""

    @pytest.mark.parametrize("a,b,c", _PAIRED_PARAMS)
    def test_array_bit_identical(self, a, b, c):
        rng = np.random.default_rng(38)
        w = np.concatenate([0.5 - 0.5 * rng.random(5000),  # (0, 1/2]
                            0.5 * np.exp(rng.uniform(math.log(1e-15), 0.0, 5000))])
        got = specfun._hyp2f1_near_one(a, b, c, w)
        assert got.tobytes() == _near_one_two_passes(a, b, c, w).tobytes()

    @pytest.mark.parametrize("a,b,c", _PAIRED_PARAMS)
    def test_scalar_and_0d_bit_identical(self, a, b, c):
        for t in (0.51, 0.7, 0.9995, 1.0 - 1e-9):
            ref = _near_one_two_passes(a, b, c, np.array([1.0 - t]))[0]
            assert hyp2f1(a, b, c, t).hex() == ref.hex()
            assert hyp2f1(a, b, c, np.array(t)).hex() == ref.hex()


@pytest.mark.parametrize("call", [
    lambda: jj(1.0, math.nan),
    lambda: jj(1.0, np.array([1.0, math.nan])),
    lambda: jj(1.0, math.inf),
    lambda: jj(math.nan, 1.0),
    lambda: jj(math.inf, 1.0),
    lambda: jj1(math.nan),
    lambda: jj1_prime(math.nan),
    lambda: jj1_prime(np.array([1.0, math.inf])),
    lambda: jnu_zeros(1.0, math.nan),
    lambda: jnu_zeros(1.0, math.inf),
    lambda: jnu_zeros(math.nan, 12.0),
], ids=["jj-t", "jj-t-array", "jj-t-inf", "jj-nu", "jj-nu-inf", "jj1", "jj1_prime",
        "jj1_prime-inf", "jnu_zeros-t_max", "jnu_zeros-t_max-inf", "jnu_zeros-nu"])
def test_bessel_non_finite_input_is_domain_error(call):
    with pytest.raises(DomainError):
        call()

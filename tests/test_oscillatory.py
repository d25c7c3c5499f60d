import cmath
import functools
import itertools
import math

import numpy as np
import pytest

from khinsphere import oscillatory as osc
from khinsphere.errors import DomainError
from khinsphere.specfun import gamma, jj1, jnu_zeros


def brute_exp_tail(mu, om, T):
    """Fine-panel quadrature to a large L plus the (certifiably tiny) IBP rest."""
    L_target = max(400.0, 200.0 / abs(om))
    x, w = np.polynomial.legendre.leggauss(40)
    total = 0j
    L = T
    while L < L_target:
        nxt = min(max(L * 1.25, L + 0.05), L + math.pi / (2 * abs(om)), L_target)
        mid, half = (L + nxt) / 2, (nxt - L) / 2
        nodes = mid + half * x
        total += np.sum(nodes**mu * np.exp(1j * om * nodes) * w) * half
        L = nxt
    return total + _ibp_ref(mu, om, L)


def _ibp_sum_ref(mu, x):
    """sum_k i^(k+1) c_k, c_0 = 1, c_(k+1) = c_k (mu-k)/x, term by term: the series of the
    IBP expansion E(mu, om, T) = e^(ix) T^mu/om sum_k ..., x = om T large.

    It stops where the series turns, or at a term below 1e-18 of the first term.
    """
    term, total, prev = 1j, 0j, math.inf
    for k in range(200):
        total += term
        term *= 1j * (mu - k) / x
        mag = abs(term)
        if mag < 1e-18 or mag > prev:
            break
        prev = mag
    return total


def _ibp_ref(mu, om, T):
    """The IBP expansion of int_T^inf t^mu e^(i om t) dt, om T large."""
    return cmath.exp(1j * om * T) * T**mu / om * _ibp_sum_ref(mu, om * T)


def _exp_tail_ref(mu, om, T):
    """int_T^inf t^mu e^(i om t) dt for one (mu, om, T): the power tail at om ~ 0,
    IBP at |om| T >= 40, else 24-point panels growing by min(1.3 t, t + pi/(2|om|))
    up to L = 40/|om|, then IBP beyond L."""
    if abs(om) < 1e-13:
        return complex(-(T ** (mu + 1.0)) / (mu + 1.0))
    if om < 0:
        return _exp_tail_ref(mu, -om, T).conjugate()
    if om * T >= 40.0:
        return _ibp_ref(mu, om, T)
    L = 40.0 / om
    edges = [T]
    while edges[-1] < L:
        edges.append(min(edges[-1] * 1.3, edges[-1] + math.pi / (2.0 * om), L))
    x, w = np.polynomial.legendre.leggauss(24)
    a, b = np.array(edges[:-1])[:, None], np.array(edges[1:])[:, None]
    nodes = (a + b) / 2 + (b - a) / 2 * x
    main = np.sum(nodes**mu * np.exp(1j * om * nodes) * w * (b - a) / 2)
    return complex(main) + _ibp_ref(mu, om, L)


def _series_tail_ref(ser, mu0, om, T):
    """sum_j ser[j] int_T^inf t^(mu0-j) e^(i om t) dt, one scalar tail per j, except
    for 0 < |om| T < 40: there one tail at mu0 and the downward recurrence
    E(mu-1) = (-T^mu e^(i om T) - i om E(mu)) / mu."""
    if abs(om) < 1e-13 or abs(om) * T >= 40.0:
        return sum(ser[j] * _exp_tail_ref(mu0 - j, om, T) for j in range(len(ser)))
    base = _exp_tail_ref(mu0, om, T)
    total = ser[0] * base
    phase = cmath.exp(1j * om * T)
    for j in range(1, len(ser)):
        mu_prev = mu0 - j + 1.0
        base = (-(T**mu_prev) * phase - 1j * om * base) / mu_prev
        total += ser[j] * base
    return total


CASES = [(-2.0, 2.0, 46.0), (-1.5, 3.0, 46.0), (-4.0, 0.05, 46.0), (-2.2, 0.004, 50.0),
         (-1.05, 2.0, 46.0), (-3.7, 24.0, 46.0), (-2.0, 0.3, 46.0), (-1.02, 0.02, 46.0)]


class TestExpPowerTail:
    @pytest.mark.parametrize("mu,om,T", CASES)
    def test_against_brute_quadrature(self, mu, om, T):
        got = osc.exp_power_tail(mu, om, T)
        ref = brute_exp_tail(mu, om, T)
        assert abs(got - ref) < 1e-13 * max(1.0, abs(ref))

    @pytest.mark.parametrize("mu,om,T", CASES)
    def test_recurrence_identity(self, mu, om, T):
        # d/dt[t^mu e^(i om t)] integrated: E(mu-1) = (-T^mu e^(i om T) - i om E(mu)) / mu
        lhs = osc.exp_power_tail(mu - 1.0, om, T)
        rhs = (-(T**mu) * cmath.exp(1j * om * T) - 1j * om * osc.exp_power_tail(mu, om, T)) / mu
        assert abs(lhs - rhs) < 1e-14

    def test_zero_frequency(self):
        assert osc.exp_power_tail(-2.0, 0.0, 10.0) == pytest.approx(0.1, abs=1e-15)

    def test_negative_frequency_conjugate(self):
        e = osc.exp_power_tail(-2.0, 1.3, 30.0)
        assert osc.exp_power_tail(-2.0, -1.3, 30.0) == pytest.approx(e.conjugate(), abs=1e-16)

    @pytest.mark.parametrize("mu,om,T", [(-9.000272328201687, 0.4163, 69.61968716408978),
                                         (-20.0, 2.0, 47.9)])
    def test_tiny_tails_against_mpmath(self, mu, om, T):
        # integrals of size 6e-17 (the panels, then IBP beyond u = 40) and 1.2e-34 (IBP),
        # at +-om: they need the IBP stop relative to the first term; one at 1e-18
        # absolute is 1.3e-2 and 0.21 off
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            ref = complex(mpmath.quadosc(lambda x: x**mu * mpmath.expj(om * x), [T, mpmath.inf],
                                         omega=om))
        assert abs(osc.exp_power_tail(mu, om, T) - ref) <= 1e-9 * abs(ref)
        assert abs(osc.exp_power_tail(mu, -om, T) - ref.conjugate()) <= 1e-9 * abs(ref)

    @pytest.mark.parametrize("mu", -np.geomspace(0.01, 160.0, 60))
    def test_ibp_block_holds_every_series(self, mu):
        # the terms each IBP series takes under the scalar rules (stop after term k when
        # |c_(k+1)| < 1e-18 or, for k >= 1, |c_(k+1)| > |c_k|) fit in the block of
        # 50 + 1.5|mu| terms that _ibp_series falls back to, over x >= 40
        x = np.concatenate([np.linspace(40.0, 400.0, 721), np.geomspace(400.0, 1e7, 50)])
        c = np.cumprod((mu - np.arange(osc._IBP_CAP)[:, None]) / x, axis=0)  # row k: c_(k+1)
        stop = np.abs(c) < 1e-18
        stop[1:] |= np.abs(c[1:]) > np.abs(c[:-1])
        assert stop.any(axis=0).all()
        assert np.argmax(stop, axis=0).max() < math.ceil(50.0 - 1.5 * mu)


def _ibp_full_block(mu, x):
    """_ibp_series over a block of 50 + 1.5 max|mu| terms, whatever the slowest lane, with
    the same masks."""
    mu, x = (a.ravel() for a in np.broadcast_arrays(mu, x))
    size = math.ceil(50.0 - 1.5 * mu.min())
    k = np.arange(size, dtype=float)[:, None]
    c = np.cumprod(np.concatenate([np.ones((1, mu.size)), (mu - k[:-1]) / x]), axis=0)
    turn = np.maximum(np.floor(np.abs(x) + mu) + 1.0, 1.0)
    c *= (k <= turn) & (np.abs(c) >= 1e-18)
    i_re = np.array([0.0, -1.0, 0.0, 1.0])[np.arange(size) % 4]
    i_im = np.array([1.0, 0.0, -1.0, 0.0])[np.arange(size) % 4]
    return i_re @ c + 1j * (i_im @ c)


class TestIbpSeries:
    T = 47.90146088705  # about where F's panels end

    @pytest.mark.parametrize("mu_lo", [-10.0, -20.0, -40.0, -80.0, -150.0, -220.0])
    def test_depth_matches_full_block_in_F_regime(self, mu_lo):
        # F's lanes: (j, (m, p) pair), mu = p - 1 - 3s/2 - j from -1 down to mu_lo, x = 2 m T
        rng = np.random.default_rng(int(-mu_lo))
        mu = rng.uniform(mu_lo + osc.ORDER, -1.0, 60) - np.arange(osc.ORDER + 1.0)[:, None]
        x = 2.0 * self.T * rng.integers(1, 81, 60)
        self._check(mu, x)

    @pytest.mark.parametrize("seed", range(8))
    def test_depth_matches_full_block_in_tail_product_regime(self, seed):
        # _exp_tails' lanes: a column of mu0 - j and a row of |x| >= 40 of both signs
        rng = np.random.default_rng(100 + seed)
        mu0 = -(10.0 ** rng.uniform(-2.0, math.log10(160.0 - osc.ORDER)))
        mu = mu0 - np.arange(osc.ORDER + 1.0)[:, None]
        x = rng.choice([-1.0, 1.0], 30) * np.geomspace(40.0, 10.0 ** rng.uniform(2.0, 5.0), 30)
        self._check(mu, x)

    @staticmethod
    def _check(mu, x):
        got = osc._ibp_series(mu, x)
        assert got.shape == np.broadcast_shapes(mu.shape, x.shape)
        np.testing.assert_allclose(got.ravel(), _ibp_full_block(mu, x), rtol=1e-15, atol=0.0)


class TestHankel:
    def test_leading_coefficients_nu1(self):
        p, q = osc.hankel_pq(1.0)
        # a_1 = 3/8, a_2 = -15/128, a_3 = 105/1024 with alternating signs folded in
        assert p[0] == 1.0
        assert q[1] == pytest.approx(3.0 / 8.0)
        assert p[2] == pytest.approx(15.0 / 128.0)
        assert q[3] == pytest.approx(-105.0 / 1024.0)

    def test_expansion_matches_jj1(self):
        # sqrt(8/pi) t^(-3/2) (P cos chi - Q sin chi) reproduces jj_1 at large t
        p, q = osc.hankel_pq(1.0)
        for t in (30.0, 60.0, 120.0):
            v = 1.0 / t
            P = sum(p[j] * v**j for j in range(len(p)))
            Q = sum(q[j] * v**j for j in range(len(q)))
            chi = t - 0.75 * math.pi
            approx = math.sqrt(8.0 / math.pi) * t**-1.5 * (P * math.cos(chi) - Q * math.sin(chi))
            assert approx == pytest.approx(float(jj1(t)), abs=3e-13)


class TestAbsCosFourier:
    def test_even_s_finite(self):
        c2, c4 = osc.abs_cos_fourier(2.0, 2), osc.abs_cos_fourier(4.0, 3)
        assert c2[0] == pytest.approx(0.5)
        assert c2[1] == pytest.approx(0.5)
        assert c2[2] == 0.0
        assert c4[3] == 0.0

    @pytest.mark.parametrize("s", [1.0, 1.3, 2.5, 3.7])
    def test_series_reconstructs_abs_cos(self, s):
        thetas = np.linspace(0.0, math.pi, 70)
        cs = osc.abs_cos_fourier(s, 199)
        series = np.full_like(thetas, cs[0])
        for m in range(1, 200):
            series += cs[m] * np.cos(2 * m * thetas)
        assert np.max(np.abs(series - np.abs(np.cos(thetas)) ** s)) < 5e-4

    @pytest.mark.parametrize("s", [1.0, 1.05, 1.3, 2.5, 8.0 / 3.0, 3.7, 12.0, 64.0])
    def test_against_mpmath(self, s):
        # c_0 = Gamma(s+1) / (2^s Gamma(s/2+1)^2) and, for m >= 1,
        # c_m = Gamma(s+1) / (2^(s-1) Gamma(1+s/2+m) Gamma(1+s/2-m)); rgamma is 0
        # at the poles, where c_m vanishes for even s
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            ms, h = mpmath.mpf(s), mpmath.mpf(s) / 2
            top = mpmath.gamma(ms + 1) / mpmath.mpf(2) ** (ms - 1)
            refs = [top / 2 * mpmath.rgamma(h + 1) ** 2]
            refs += [top * mpmath.rgamma(1 + h + m) * mpmath.rgamma(1 + h - m) for m in range(1, 81)]
            got = osc.abs_cos_fourier(s, 80)
            for c, ref in zip(got, refs):
                assert abs(c - ref) <= 1e-13 * abs(ref)


    def test_s_above_limit_is_domain_error(self):
        with pytest.raises(DomainError, match="s <= 141"):
            osc.abs_cos_fourier(200.0, 80)
        with pytest.raises(DomainError, match="s <= 141"):
            osc.tail_abs_pow(1.0, 200.0, 46.0)
        assert osc.abs_cos_fourier(141.0, 80)[0] > 0.0


def _quad_between(p, s, T1, T2):
    from khinsphere.quad import _graded_edges, _panel_quad
    zs = jnu_zeros(1.0, T2 + 1.0)
    pts = [T1] + [float(z) for z in zs if T1 < z < T2] + [T2]
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        total += _panel_quad(lambda t: np.abs(jj1(t)) ** s * t ** (p - 1.0),
                             _graded_edges(lo, hi))
    return total


def _head_s2(p):
    """int_0^1 jj_1(t)^2 t^(p-1) dt, from the exact square of jj_1's series
    sum_k (-1)^k (t/2)^(2k) / (k! (k+1)!), integrated term by term."""
    k = np.arange(30)
    c = np.array([(-0.25) ** j / (math.factorial(j) * math.factorial(j + 1)) for j in k])
    return float(np.sum(np.convolve(c, c)[:30] / (2 * k + p)))


def _tail_product_by_sign(amps, nu, p, T):
    """The sign-vector expansion one pattern at a time, with 1-d series products
    and one scalar series tail (``_series_tail_ref``, relative IBP stop) a pattern."""
    n = len(amps)
    mu0 = p - 1.0 - n * (nu + 0.5)
    pser, qser = osc.hankel_pq(nu)
    norm = 2.0**nu * float(gamma(nu + 1.0)) * math.sqrt(2.0 / math.pi)
    phase0 = cmath.exp(-1j * (nu * math.pi / 2.0 + math.pi / 4.0))
    consts = [norm * a ** (-(nu + 0.5)) * phase0 for a in amps]
    ws = [(pser + 1j * qser) * np.array([a ** (-j) for j in range(osc.ORDER + 1)]) for a in amps]
    total = 0.0
    for tail_signs in itertools.product((1, -1), repeat=n - 1):
        amp, ser, omega = 1.0 + 0j, np.eye(1, osc.ORDER + 1, dtype=complex)[0], 0.0
        for sign, c, w, a in zip((1,) + tail_signs, consts, ws, amps):
            amp *= c if sign > 0 else c.conjugate()
            ser = osc.series_mul(ser, w if sign > 0 else np.conj(w))
            omega += sign * a
        total += (amp * _series_tail_ref(ser, mu0, omega, T)).real
    return total * 2.0 ** (1 - n)


def _tail_product_case(n, nu):
    rng = np.random.default_rng(1000 * n + int(2 * nu))
    amps = sorted(rng.uniform(0.1, 1.0, n), reverse=True)
    p = rng.uniform(0.05, 0.98) * n * (nu + 0.5)
    return amps, p, max(46.0, 25.0 / amps[-1]), rng


class TestSeriesMul:
    @staticmethod
    def _double_sum(a, b, order):
        out = np.zeros(order + 1, dtype=np.result_type(a, b))
        for i in range(min(len(a), order + 1)):
            for j in range(min(len(b), order + 1 - i)):
                out[i + j] += a[i] * b[j]
        return out

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("la,lb,order",
                             [(9, 9, 8), (4, 9, 8), (9, 3, 8), (12, 12, 8), (6, 6, 5)])
    def test_1d_equals_double_sum(self, dtype, la, lb, order):
        rng = np.random.default_rng(la * 100 + lb * 10 + order)
        a, b = rng.standard_normal((2, la)), rng.standard_normal((2, lb))
        a, b = (a[0] + 1j * a[1], b[0] + 1j * b[1]) if dtype is complex else (a[0], b[0])
        got = osc.series_mul(a, b, order)
        assert got.shape == (order + 1,) and got.dtype == np.dtype(dtype)
        np.testing.assert_allclose(got, self._double_sum(a, b, order), rtol=1e-15, atol=0.0)

    def test_batched_equals_columns(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((9, 64)) + 1j * rng.standard_normal((9, 64))
        b = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        got = osc.series_mul(a, b)
        assert got.shape == a.shape
        for col, ref_col in zip(got.T, a.T):
            np.testing.assert_allclose(col, osc.series_mul(ref_col, b), rtol=1e-15, atol=0.0)


    @pytest.mark.parametrize("a_batch", [False, True])
    def test_batched_b_equals_columns(self, a_batch):
        rng = np.random.default_rng(11)
        b = rng.standard_normal((9, 5)) + 1j * rng.standard_normal((9, 5))
        a = rng.standard_normal((9, 5)) + 1j * rng.standard_normal((9, 5))
        a = a if a_batch else a[:, 0]
        got = osc.series_mul(a, b)
        assert got.shape == (9, 5)
        for k in range(5):
            assert np.array_equal(got[:, k], osc.series_mul(a[:, k] if a_batch else a, b[:, k]))


class TestSeriesPow:
    @pytest.mark.parametrize("kind", ["hankel", "jj_head"])
    def test_array_exponents_equal_scalar_calls(self, kind):
        if kind == "hankel":
            pser, qser = osc.hankel_pq(1.0)
            a, order = pser + 1j * qser, osc.ORDER
        else:
            from khinsphere.specfun import _jj_series_coeffs
            a, order = np.asarray(_jj_series_coeffs(1.0, 56)), 55
        exps = np.array([-40.3, -2.0, -0.5, 0.0, 0.65, 1.0, 2.5, 5.65, 81.0])
        got = osc.series_pow(a, exps, order)
        assert got.shape == (order + 1, len(exps))
        for k, e in enumerate(exps):
            assert np.array_equal(got[:, k], osc.series_pow(a, float(e), order))


@functools.lru_cache(maxsize=None)
def _abs_pow_setup_by_mode(s):
    """_abs_pow_setup one Fourier mode at a time, with scalar series powers."""
    pser, qser = osc.hankel_pq(1.0)
    w = pser + 1j * qser
    terms = []
    for m, cm in enumerate(osc.abs_cos_fourier(s, 80)):
        if cm == 0.0:
            break
        ser = osc.series_mul(osc.series_pow(w, s / 2.0 + m),
                             np.conj(osc.series_pow(w, s / 2.0 - m)))
        terms.append((m, float(cm), ser * 1j**m))
    return terms


class TestAbsPowSetup:
    @pytest.mark.parametrize("s", [1.05, 1.3, 2.0, 2.5, 4.0, 11.3])
    def test_batched_equals_mode_by_mode(self, s):
        ms, cms, sers = osc._abs_pow_setup(s)
        ref = _abs_pow_setup_by_mode(s)
        assert len(ms) == len(cms) == sers.shape[1] == len(ref)
        assert len(ref) == (s / 2 + 1 if s in (2.0, 4.0) else 81)
        assert sers.shape[0] == osc.ORDER + 1
        for m, cm, ser, (m_ref, cm_ref, ser_ref) in zip(ms, cms, sers.T, ref):
            assert (m, cm) == (m_ref, cm_ref)
            assert np.array_equal(ser, ser_ref)


def _tail_abs_pow_by_mode(p, s, T, tol=1e-12):
    """tail_abs_pow one p and one Fourier mode at a time, with scalar power tails and IBP
    series.  As in the kernel, the power integrals are taken in units of T^mu, and the sum
    is scaled by (8/pi)^(s/2) T^mu as one exp at the end: at s = 141, p = 23.51, T^mu
    alone is subnormal."""
    mu = p - 1.0 - 1.5 * s
    pref = (8.0 / math.pi) ** (s / 2.0)
    total = 0.0
    for m, cm, ser in _abs_pow_setup_by_mode(s):
        if m == 0:
            e = [-T ** (1.0 - j) / (mu - j + 1.0) for j in range(len(ser))]
        else:
            e = [cmath.exp(2j * m * T) / (2.0 * m) * T**-j * _ibp_sum_ref(mu - j, 2.0 * m * T)
                 for j in range(len(ser))]
        total += cm * sum(ser[j] * e[j] for j in range(len(ser))).real
        if m >= 2 and pref * abs(cm) * T**mu / (2.0 * m) < 0.1 * tol:
            break
    return math.exp(mu * math.log(T) + math.log(pref)) * total


# 15 s from 1 to 141, the largest s the tail supports, with even s where the
# Fourier sum is finite, and 19 p from 0.01 to within 1e-4 of 3s/2
S_GRID = [1.0, 1.05, 1.3, 1.37, 1.7, 2.0, 2.5, 8.0 / 3.0, 4.0, 11.3, 25.0, 64.0, 70.5, 100.0,
          141.0]


def _p_grid(s):
    return np.linspace(0.01, 1.5 * s - 1e-4, 19)


class TestTailAbsPowArray:
    T = 47.90146088705  # about where F's panels end

    @pytest.mark.parametrize("s", S_GRID)
    def test_matches_per_p_reference(self, s):
        ps = _p_grid(s)
        got = osc.tail_abs_pow(ps, s, self.T, tol=1e-10)
        ref = np.array([_tail_abs_pow_by_mode(float(p), s, self.T, tol=1e-10) for p in ps])
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))

    @pytest.mark.parametrize("s", [1.3, 2.0, 100.0])
    def test_scalar_p_is_a_float_equal_to_its_array_element(self, s):
        ps = _p_grid(s)
        got = osc.tail_abs_pow(ps, s, self.T)
        for k in (0, 7, 18):
            one = osc.tail_abs_pow(float(ps[k]), s, self.T)
            assert type(one) is float
            assert one == got[k]

    def test_blocks_do_not_change_values(self):
        ps = np.linspace(0.01, 1.95, 301)  # several blocks of p at s = 1.3
        got = osc.tail_abs_pow(ps, 1.3, self.T)
        assert np.array_equal(got[250:], osc.tail_abs_pow(ps[250:], 1.3, self.T))

    def test_divergent_element_is_named(self):
        with pytest.raises(DomainError, match=r"p=3\.5 >= 3s/2=3"):
            osc.tail_abs_pow(np.array([1.0, 3.5, 2.9, 4.0]), 2.0, self.T)
        with pytest.raises(DomainError, match="s <= 141"):
            osc.tail_abs_pow(np.array([1.0, 2.0]), 150.0, self.T)

    def test_short_T_is_domain_error(self):
        with pytest.raises(DomainError, match="T >= 20"):
            osc.tail_abs_pow(1.0, 2.0, 10.0)

    @pytest.mark.parametrize("s", [1.37, 8.0 / 3.0, 70.5, 141.0])
    def test_F_routes_match_per_p_tails(self, s, monkeypatch):
        # F with its array tail and with the per-p reference tail
        from khinsphere.quad import F, IntegralParams
        ps = _p_grid(s)
        got = F(IntegralParams(ps, s))

        def per_p(p, s, T, tol):
            return np.array([_tail_abs_pow_by_mode(float(pk), s, T, tol) for pk in p])
        monkeypatch.setattr(osc, "tail_abs_pow", per_p)
        ref = F(IntegralParams(ps, s))
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))


class TestTails:
    @pytest.mark.parametrize("p", [0.1, 0.5, 1.0, 2.0, 2.5, 2.9, 2.99])
    def test_abs_pow_matches_closed_form_s2(self, p):
        # tail = F(p,2) - int_0^T, with F(p,2) in closed form
        zs = jnu_zeros(1.0, 48.0)
        T = float(zs[-1])
        closed = 2.0 ** (p - 1) * gamma(p / 2) * gamma(3 - p) / (gamma(2 - p / 2) ** 2 * gamma(3 - p / 2))
        head_to_T = closed - osc.tail_abs_pow(p, 2.0, T)
        direct = _head_s2(p) + _quad_between(p, 2.0, 1.0, T)
        assert head_to_T == pytest.approx(direct, abs=2e-12 * max(1.0, closed))

    @pytest.mark.parametrize("p,s", [(0.2, 1.3), (1.5, 2.5), (2.7, 2.05), (2.0, 8.0 / 3.0),
                                     (2.9, 2.001), (0.25, 1.7), (0.4, 1.4), (2.6, 2.2)])
    def test_abs_pow_T_stability(self, p, s):
        zs = jnu_zeros(1.0, 100.0)
        T1 = float(zs[zs > 45][0])
        T2 = float(zs[zs > 90][0])
        lhs = osc.tail_abs_pow(p, s, T1)
        rhs = _quad_between(p, s, T1, T2) + osc.tail_abs_pow(p, s, T2)
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, lhs))

    @pytest.mark.parametrize("p", [0.3, 1.2, 2.5, 2.9, 5.5])
    def test_product_equals_abs_pow_for_two_unit_factors(self, p):
        # prod of n jj_1 factors == |jj_1|^n for even n: two independent
        # expansions; n >= 4 also exercises the m >= 2 Fourier terms, and
        # n = 12 the largest sign-pattern batch the benchmark builds
        T = 46.3
        for n in (2, 4, 6, 8, 12):
            if p < 1.5 * n:
                lhs = osc.tail_product([1.0] * n, 1.0, p, T)
                rhs = osc.tail_abs_pow(p, float(n), T)
                assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))

    def test_product_resonant_vs_brute(self):
        # near-resonant frequencies exercise the numeric-base path
        amps = [0.7, 0.699]
        p, nu, T = 1.5, 1.0, 60.0
        from khinsphere.specfun import _jj_vec
        x, w = np.polynomial.legendre.leggauss(32)
        total = 0.0
        L, step = T, 0.9
        while L < 24000.0:
            nxt = min(L + step, 24000.0)
            mid, half = (L + nxt) / 2, (nxt - L) / 2
            nodes = mid + half * x
            vals = nodes ** (p - 1.0)
            for a in amps:
                vals = vals * _jj_vec(nu, a * nodes)
            total += float(np.sum(vals * w) * half)
            L = nxt
            step = min(step * 1.02, 2.0)
        got = osc.tail_product(amps, nu, p, T)
        # brute remainder beyond 24000: envelope ~ t^-3 * t^(p-1) integral ~ 6e-7
        assert got == pytest.approx(total, abs=2e-6)

    @pytest.mark.parametrize("nu", [0.5, 1.0, 1.5, 3.0])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_product_matches_sign_by_sign(self, n, nu):
        amps, p, T, _ = _tail_product_case(n, nu)
        ref = _tail_product_by_sign(amps, nu, p, T)
        assert osc.tail_product(amps, nu, p, T) == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("nu", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("p", [0.5, 2.0])
    def test_product_all_branches_in_one_call(self, nu, p):
        # dyadic weights, so that one call meets every branch: the pattern
        # 1 + 2^-10 - 1 - 1/2 + (1/2 - 2^-10) is exactly 0 (the power tail), flipping the
        # last two signs gives 2^-9 (near resonance, |omega| T = 0.09), and the other six
        # patterns have |omega| T >= 40 (IBP)
        amps, T = [1.0 + 2.0**-10, 1.0, 0.5, 0.5 - 2.0**-10], 46.0
        omega = np.array([amps[0]])
        for a in amps[1:]:
            omega = np.concatenate([omega - a, omega + a])
        x = np.abs(omega) * T
        assert np.sum(omega == 0.0) == 1 and np.sum((0.0 < x) & (x < 40.0)) == 1
        assert np.sum(x >= 40.0) == 6
        ref = _tail_product_by_sign(amps, nu, p, T)
        assert osc.tail_product(amps, nu, p, T) == pytest.approx(ref, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("nu", [0.5, 1.0, 1.5, 3.0])
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_product_symmetric_in_amps(self, n, nu):
        # factor 0 is the one held at sign +, so a permutation changes every
        # pattern's series and frequency but not the sum.  The patterns cancel
        # (the n = 8 sums are 1e-3 to 1e-2 of the envelope integral), so
        # rounding is bounded by the envelope int_T^inf prod_k |C_k| t^(mu0)
        # dt, not by the sum itself
        amps, p, T, rng = _tail_product_case(n, nu)
        mu0 = p - 1.0 - n * (nu + 0.5)
        norm = 2.0**nu * float(gamma(nu + 1.0)) * math.sqrt(2.0 / math.pi)
        envelope = norm**n * math.prod(amps) ** (-(nu + 0.5)) * T ** (mu0 + 1.0) / -(mu0 + 1.0)
        ref = osc.tail_product(amps, nu, p, T)
        for _ in range(3):
            got = osc.tail_product(list(rng.permutation(amps)), nu, p, T)
            assert got == pytest.approx(ref, rel=1e-13, abs=1e-14 * envelope)

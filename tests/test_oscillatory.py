import cmath
import functools
import itertools
import math
import re
import warnings

import numpy as np
import pytest

from khinsphere import oscillatory as osc
from khinsphere.errors import DomainError
from khinsphere.specfun import gamma, jj1, jnu_zeros

# float.hex of (Re W_m, Im W_m), m = 0..8, of _hankel_w(nu)[0], recorded from the P + iQ
# form it replaced; a part that vanishes is +0.0
HANKEL_W_HEX = {
    0.0: (
        ('0x1.0000000000000p+0', '0x0.0p+0'), ('0x0.0p+0', '-0x1.0000000000000p-3'),
        ('-0x1.2000000000000p-4', '0x0.0p+0'), ('0x0.0p+0', '0x1.2c00000000000p-4'),
        ('0x1.cb60000000000p-4', '0x0.0p+0'), ('0x0.0p+0', '-0x1.d11e000000000p-3'),
        ('-0x1.251ee80000000p-1', '0x0.0p+0'), ('0x0.0p+0', '0x1.ba4c598000000p+0'),
        ('0x1.84bd1aa980000p+2', '0x0.0p+0'),
    ),
    0.5: (
        ('0x1.0000000000000p+0', '0x0.0p+0'), ('0x0.0p+0', '0x0.0p+0'),
        ('0x0.0p+0', '0x0.0p+0'), ('0x0.0p+0', '0x0.0p+0'),
        ('0x0.0p+0', '0x0.0p+0'), ('0x0.0p+0', '0x0.0p+0'),
        ('0x0.0p+0', '0x0.0p+0'), ('0x0.0p+0', '0x0.0p+0'),
        ('0x0.0p+0', '0x0.0p+0'),
    ),
    1.0: (
        ('0x1.0000000000000p+0', '0x0.0p+0'), ('0x0.0p+0', '0x1.8000000000000p-2'),
        ('0x1.e000000000000p-4', '0x0.0p+0'), ('0x0.0p+0', '-0x1.a400000000000p-4'),
        ('-0x1.2750000000000p-3', '0x0.0p+0'), ('0x0.0p+0', '0x1.1c3d000000000p-2'),
        ('0x1.5a6a580000000p-1', '0x0.0p+0'), ('0x0.0p+0', '-0x1.fe58188000000p+0'),
        ('-0x1.b8920d2680000p+2', '0x0.0p+0'),
    ),
    1.5: (
        ('0x1.0000000000000p+0', '0x0.0p+0'), ('0x0.0p+0', '0x1.0000000000000p+0'),
        ('0x0.0p+0', '0x0.0p+0'), ('0x0.0p+0', '0x0.0p+0'),
        ('0x0.0p+0', '0x0.0p+0'), ('0x0.0p+0', '0x0.0p+0'),
        ('0x0.0p+0', '0x0.0p+0'), ('0x0.0p+0', '0x0.0p+0'),
        ('0x0.0p+0', '0x0.0p+0'),
    ),
    3.0: (
        ('0x1.0000000000000p+0', '0x0.0p+0'), ('0x0.0p+0', '0x1.1800000000000p+2'),
        ('-0x1.d880000000000p+2', '0x0.0p+0'), ('0x0.0p+0', '-0x1.b120000000000p+1'),
        ('-0x1.5fea000000000p+0', '0x0.0p+0'), ('0x0.0p+0', '0x1.8be7400000000p+0'),
        ('0x1.5e8a160000000p+1', '0x0.0p+0'), ('0x0.0p+0', '-0x1.a043fa2000000p+2'),
        ('-0x1.33522fa9a0000p+4', '0x0.0p+0'),
    ),
    9.5: (
        ('0x1.0000000000000p+0', '0x0.0p+0'), ('0x0.0p+0', '0x1.6800000000000p+5'),
        ('-0x1.ef00000000000p+9', '0x0.0p+0'), ('0x0.0p+0', '-0x1.b120000000000p+13'),
        ('0x1.07ef800000000p+17', '0x0.0p+0'), ('0x0.0p+0', '0x1.cde3200000000p+19'),
        ('-0x1.20adf40000000p+22', '0x0.0p+0'), ('0x0.0p+0', '-0x1.eee1100000000p+23'),
        ('0x1.06e7908000000p+25', '0x0.0p+0'),
    ),
}


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

    @pytest.mark.parametrize("block", [9, 16, 100, 729])
    def test_lane_alone_equals_lane_in_block(self, block):
        # each lane is summed in order and its stopped terms are exact zeros, so its bits
        # depend neither on the lanes beside it nor on how deep their block runs
        rng = np.random.default_rng(block)
        mu, x = rng.uniform(-30.0, -1.0, block), rng.uniform(40.0, 3000.0, block)
        got = osc._ibp_series(mu, x)
        alone = [osc._ibp_series(mu[i:i + 1], x[i:i + 1])[0] for i in range(block)]
        assert np.array_equal(got, alone)

    @staticmethod
    def _check(mu, x):
        got = osc._ibp_series(mu, x)
        assert got.shape == np.broadcast_shapes(mu.shape, x.shape)
        np.testing.assert_allclose(got.ravel(), _ibp_full_block(mu, x), rtol=1e-15, atol=0.0)


class TestHankel:
    def test_leading_coefficients_nu1(self):
        w = osc._hankel_w(1.0)[0]
        p, q = w.real, w.imag
        # a_1 = 3/8, a_2 = -15/128, a_3 = 105/1024 with alternating signs folded in
        assert p[0] == 1.0
        assert q[1] == pytest.approx(3.0 / 8.0)
        assert p[2] == pytest.approx(15.0 / 128.0)
        assert q[3] == pytest.approx(-105.0 / 1024.0)

    @pytest.mark.parametrize("nu", sorted(HANKEL_W_HEX))
    def test_pinned_bits(self, nu):
        # signed zeros included: float.hex tells +0.0 from -0.0
        w = osc._hankel_w(nu)[0]
        assert [(z.real.hex(), z.imag.hex()) for z in w.tolist()] == list(HANKEL_W_HEX[nu])

    def test_expansion_matches_jj1(self):
        # sqrt(8/pi) t^(-3/2) (P cos chi - Q sin chi) reproduces jj_1 at large t
        w = osc._hankel_w(1.0)[0]
        p, q = w.real, w.imag
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
    w0 = osc._hankel_w(nu)[0]
    norm = 2.0**nu * float(gamma(nu + 1.0)) * math.sqrt(2.0 / math.pi)
    phase0 = cmath.exp(-1j * (nu * math.pi / 2.0 + math.pi / 4.0))
    consts = [norm * a ** (-(nu + 0.5)) * phase0 for a in amps]
    ws = [w0 * np.array([a ** (-j) for j in range(osc.ORDER + 1)]) for a in amps]
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


def series_pow(a, exponent, order):
    """b = a ** exponent for a series a with a[0] = 1, b_0..b_order, by Miller's recurrence
    k b_k = sum_j (exponent j - (k - j)) a_j b_(k-j): the tests' reference series power."""
    out = np.zeros(order + 1, dtype=np.result_type(a, float))
    out[0] = 1.0
    for k in range(1, order + 1):
        j = np.arange(1, min(k, len(a) - 1) + 1)
        out[k] = np.sum((exponent * j - (k - j)) * a[j] * out[k - j]) / k
    return out


@functools.lru_cache(maxsize=None)
def _abs_pow_setup_by_mode(s):
    """Every nonzero Fourier mode of s, (m, c_m, series), one at a time with scalar series
    powers carried to 2 ORDER in 1/t, W zero-padded past ORDER: the reference for
    tail_abs_pow, with no phase-truncation error (at ORDER, the e^(2imphi) series of mode
    m = 80 dropped about 2e-5 of it)."""
    order = 2 * osc.ORDER
    w = np.zeros(order + 1, dtype=complex)
    w[:osc.ORDER + 1] = osc._hankel_w(1.0)[0]
    terms = []
    for m, cm in enumerate(osc.abs_cos_fourier(s, 80)):
        if cm == 0.0:
            break
        ser = osc.series_mul(series_pow(w, s / 2.0 + m, order),
                             np.conj(series_pow(w, s / 2.0 - m, order)), order)
        terms.append((m, float(cm), ser * 1j**m))
    return terms


def _last_mode_by_mode(p, s, T, tol):
    """The last Fourier mode that tail_abs_pow sums for p: the first m >= 2 whose bound is
    below tol/10, else 80, as _tail_abs_pow_by_mode stops (for even s, at a zero mode
    past s/2, or at the last nonzero one, which give the same sum)."""
    mu = p - 1.0 - 1.5 * s
    pref = (8.0 / math.pi) ** (s / 2.0)
    for m, cm in enumerate(osc.abs_cos_fourier(s, 80)):
        if m >= 2 and pref * abs(cm) * T**mu / (2.0 * m) < 0.1 * tol:
            break
    return m


def _mode_term(m, n, T):
    """Re(e^(2 i m theta) i^n) / (2m)^n, theta = v_T - 3 pi/4, with Python's cos and sin:
    mode m's part of (-1)^n G_n(theta_T) of tail_abs_pow, per unit c_m."""
    w = osc._hankel_w(1.0)[0]
    theta = T + cmath.phase(sum(complex(w[j]) * T**-j for j in range(len(w)))) - 0.75 * math.pi
    x = 2.0 * m * theta
    return (math.cos(x), -math.sin(x), -math.cos(x), math.sin(x))[n % 4] / (2.0 * m) ** n


class TestAbsPowSetup:
    """The set-up of tail_abs_pow's sum over modes: c_m, each lane's last mode and the
    table of Re(e^(2 i m theta) i^n) / (2m)^n over modes m and IBP terms n."""

    @pytest.mark.parametrize("s", [1.05, 1.3, 2.0, 2.5, 4.0, 11.3])
    def test_batched_equals_mode_by_mode(self, s):
        # p just below 3s/2 and tol 0: no bound is below tol/10, so every mode is summed
        T = 47.90146088705
        mu = np.array([1.5 * s - 1e-4 - 1.0 - 1.5 * s])
        cms = np.array([osc.abs_cos_fourier(s, 80)]).T
        last = osc._last_modes(mu, np.abs(cms), np.array([(8.0 / math.pi) ** (s / 2.0)]), T, 0.0)
        ref = _abs_pow_setup_by_mode(s)
        assert len(ref) == (s / 2 + 1 if s in (2.0, 4.0) else 81)
        assert list(last) == [80]
        assert list(cms[:len(ref), 0]) == [cm for _, cm, _ in ref]
        assert not cms[len(ref):].any()
        v, table = osc._mode_table(T)[:2]
        assert not table[0].any()
        for m in (1, 2, 7, 80):  # the phase 2 m theta is rounded apart: up to 7e-13 at m = 80
            ref_row = [_mode_term(m, n, T) for n in range(1, 13)]
            scale = (2.0 * m) ** -np.arange(1.0, 13.0)
            assert np.all(np.abs(table[m, :12] - ref_row) <= 1e-12 * scale)

    @pytest.mark.parametrize("s", [1.05, 1.3, 2.0, 2.5, 11.3, 141.0])
    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    def test_plan_builds_modes_up_to_the_largest_last(self, s, tol):
        # each lane's last mode, alone and among the lanes of its call
        T = 47.90146088705
        ps = np.linspace(0.01, 1.5 * s - 1e-4, 19)
        mu = ps - 1.0 - 1.5 * s
        abs_c = np.abs(osc.abs_cos_fourier(s, 80))[:, None]
        pref = np.array([(8.0 / math.pi) ** (s / 2.0)])
        last = osc._last_modes(mu, abs_c, pref, T, tol)
        assert list(last) == [_last_mode_by_mode(float(p), s, T, tol) for p in ps]
        for k in (0, 9, 18):
            assert osc._last_modes(mu[k:k + 1], abs_c, pref, T, tol)[0] == last[k]


def _tail_abs_pow_by_mode(p, s, T, tol=1e-12):
    """tail_abs_pow one p and one Fourier mode at a time, with scalar power tails and IBP
    series, carried to 2 ORDER in 1/t.  As in the kernel, the power integrals are taken in
    units of T^mu, and the sum is scaled by (8/pi)^(s/2) T^mu as one exp at the end: at
    s = 141, p = 23.51, T^mu alone is subnormal."""
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


# tail_abs_pow(_p_grid(s), s, TestTailAbsPowArray.T, tol=1e-10) as float.hex, one lane at a
# time, None where the lane is out of reach (DomainError).  Re-recorded when the kernel
# began to integrate by parts in v = t + phi(t) over every mode at once: CHANGES.md lists
# the old and new hex of each entry.
TAIL_PINS = {
    1.05: [
        "0x1.9255b60fbe184p-10", "0x1.2a2e229bbd7b5p-9", "0x1.bb82e1395e91cp-9",
        "0x1.4b2175b10993bp-8", "0x1.f0a895ff36ab4p-8", "0x1.766003c9f643ep-7",
        "0x1.1be0dd607ed08p-6", "0x1.b1861d5d53a54p-6", "0x1.4dc8e884e041bp-5",
        "0x1.039653e2143fap-4", "0x1.98cfbf6fd22abp-4", "0x1.4704402f33ab5p-3",
        "0x1.0b08e51b75415p-2", "0x1.c0907f900ef31p-2", "0x1.88704b391a2b2p-1",
        "0x1.6e35c09c629c8p+0", "0x1.8069e84da2b2dp+1", "0x1.0ce955f47bd7ep+3",
        "0x1.3ff8d9bfcf006p+13",
    ],
    2.0: [
        "0x1.0deeb8b15b013p-18", "0x1.0fc75f8526cebp-17", "0x1.12960b17c0a88p-16",
        "0x1.16823021dd68ap-15", "0x1.1bbf0b7e48ee7p-14", "0x1.22902353db463p-13",
        "0x1.2b500928c8539p-12", "0x1.367acbf5597afp-11", "0x1.44beaef31515ap-10",
        "0x1.5718052e321e9p-9", "0x1.6f01f1cd436c3p-8", "0x1.8ed0f148e787ep-7",
        "0x1.ba67ea0e059b3p-6", "0x1.f8c67e2eaa3c5p-5", "0x1.2bf660a4f606cp-3",
        "0x1.7c42fa6bdea8bp-2", "0x1.0f2432114de60p+0", "0x1.01b9bfaf5abadp+2",
        "0x1.8dbbc297a0b73p+13",
    ],
    2.5: [
        "0x1.b63188702ccedp-23", "0x1.0334cf33ccfa5p-21", "0x1.33b85bfaef21ep-20",
        "0x1.6ebe2399a5065p-19", "0x1.b70863d6b594ep-18", "0x1.08217fb6fb492p-16",
        "0x1.3fb37519364bap-15", "0x1.85aa084ead67bp-14", "0x1.dee3f520948acp-13",
        "0x1.293e345e8adadp-11", "0x1.759996447d024p-10", "0x1.dd04ea3dd81dcp-9",
        "0x1.36df9e31d5a12p-7", "0x1.a0c353b562e23p-6", "0x1.22fe9cbaf9ef2p-4",
        "0x1.b170349f47aadp-3", "0x1.6b22db9152abcp-1", "0x1.95942df7f15e0p+1",
        "0x1.cbe1b8f0f35a0p+13",
    ],
    141.0: [None] * 16 + [
        "0x1.41f2cef00c325p-45", "0x1.01440475fa613p+22", "0x1.5fcbd50b5200cp+104",
    ],
}


def _lanes(s, T, tol=1e-10, ps=None):
    """tail_abs_pow of each p of ps (_p_grid(s)), one call a lane, None where out of reach."""
    out = []
    for p in _p_grid(s) if ps is None else ps:
        try:
            out.append(osc.tail_abs_pow(float(p), s, T, tol=tol))
        except DomainError as err:
            assert "out of reach" in str(err)
            out.append(None)
    return out


class TestTailAbsPowArray:
    T = 47.90146088705  # about where F's panels end

    @pytest.mark.parametrize("s", S_GRID)
    def test_matches_per_p_reference(self, s):
        # the reach ends between mu = -31 and -29.5 (at -30.8 to -29.9 over S_GRID): every
        # lane above is in reach, every lane below raises, and every lane in reach is within
        # 1e-14 of the per-mode reference carried to 2 ORDER, mu = -29.5 too
        ps = np.append(_p_grid(s), 1.5 * s - 28.5)
        got = _lanes(s, self.T, ps=ps)
        mus = ps - 1.0 - 1.5 * s
        assert all(g is not None for g, mu in zip(got, mus) if mu >= -29.5)
        assert all(g is None for g, mu in zip(got, mus) if mu < -31.0)
        for p, g in zip(ps, got):
            if g is not None:
                ref = _tail_abs_pow_by_mode(float(p), s, self.T, tol=1e-10)
                assert abs(g - ref) <= 1e-14 * abs(ref)
        reach = np.array([g is not None for g in got])
        assert np.array_equal(osc.tail_abs_pow(ps[reach], s, self.T, tol=1e-10),
                              np.array([g for g in got if g is not None]))

    @pytest.mark.parametrize("s", [1.3, 2.0, 100.0])
    def test_scalar_p_is_a_float_equal_to_its_array_element(self, s):
        # the array call takes the lanes in reach; a lane out of reach (k = 0 and 7 at
        # s = 100) raises as a scalar call
        ps = _p_grid(s)
        reach = np.array([g is not None for g in _lanes(s, self.T, tol=1e-12)])
        got = np.full(len(ps), np.nan)
        got[reach] = osc.tail_abs_pow(ps[reach], s, self.T)
        for k in (0, 7, 18):
            if not reach[k]:
                with pytest.raises(DomainError, match="out of reach"):
                    osc.tail_abs_pow(float(ps[k]), s, self.T)
                continue
            one = osc.tail_abs_pow(float(ps[k]), s, self.T)
            assert type(one) is float
            assert one == got[k]
        assert reach.all() == (s < 100.0)

    @pytest.mark.parametrize("s", sorted(TAIL_PINS))
    def test_pinned_bits(self, s):
        got = _lanes(s, self.T)
        assert [None if v is None else float(v).hex() for v in got] == TAIL_PINS[s]

    def test_out_of_reach_lane_is_named(self):
        ps = _p_grid(141.0)[14:]  # mu = -48 and -36.2 are out of reach, -24.5 and above in
        with pytest.raises(DomainError, match=r"p=176\.25\d*, s=141\.0\) is out of reach"):
            osc.tail_abs_pow(ps[::-1], 141.0, self.T)

    def test_blocks_do_not_change_values(self):
        ps = np.linspace(0.01, 1.95, 301)  # several blocks of p at s = 1.3
        got = osc.tail_abs_pow(ps, 1.3, self.T)
        assert np.array_equal(got[250:], osc.tail_abs_pow(ps[250:], 1.3, self.T))

    def test_array_s_equals_one_call_per_s(self):
        # lanes of several s in one call, in mixed order, each the bits of its own s's call
        # over its lanes in reach; each lane out of reach (16 at s = 141) raises in that
        # mixed batch and is named
        ss = [1.05, 2.0, 2.5, 11.3, 141.0]
        ps, s = np.concatenate([_p_grid(x) for x in ss]), np.repeat(ss, 19)
        reach = np.array([g is not None for x in ss for g in _lanes(x, self.T)])
        order = np.random.default_rng(3).permutation(len(ps))
        order = order[reach[order]]
        got = osc.tail_abs_pow(ps[order], s[order], self.T, tol=1e-10)
        ref = np.full(len(ps), np.nan)
        for x in ss:
            at = np.flatnonzero(reach & (s == x))
            ref[at] = osc.tail_abs_pow(ps[at], x, self.T, tol=1e-10)
        assert np.array_equal(got, ref[order])
        assert np.count_nonzero(~reach) == 16
        for k in np.flatnonzero(~reach):
            batch = np.insert(order, len(order) // 2, k)
            with pytest.raises(DomainError, match=re.escape(f"p={ps[k]}, s={s[k]}) is out")):
                osc.tail_abs_pow(ps[batch], s[batch], self.T, tol=1e-10)

    def test_p_and_s_broadcast(self):
        ps = _p_grid(1.3)[:, None]
        got = osc.tail_abs_pow(ps, np.array([1.3, 2.0]), self.T)
        assert got.shape == (19, 2)
        assert np.array_equal(got[:, 1], osc.tail_abs_pow(ps[:, 0], 2.0, self.T))

    def test_divergent_element_is_named(self):
        with pytest.raises(DomainError, match=r"p=3\.5 >= 3s/2=3"):
            osc.tail_abs_pow(np.array([1.0, 3.5, 2.9, 4.0]), 2.0, self.T)
        with pytest.raises(DomainError, match=r"p=3\.5 >= 3s/2=3\.0"):
            osc.tail_abs_pow(np.array([1.0, 3.5, 4.0]), np.array([2.0, 2.0, 1.0]), self.T)
        with pytest.raises(DomainError, match="s <= 141"):
            osc.tail_abs_pow(np.array([1.0, 2.0]), 150.0, self.T)
        with pytest.raises(DomainError, match="s <= 141"):
            osc.tail_abs_pow(np.array([]), 150.0, self.T)

    @pytest.mark.parametrize("T", [20.0, 47.90146088705, 1e6])
    def test_p_next_to_3s_2_at_tiny_s(self, T):
        # p - 1 - 3s/2 rounds to -1 at p = s = 1e-300: a divide-by-zero warning, then a bare
        # ValueError, as no lane had a mode m >= 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="is not below -1"):
                osc.tail_abs_pow(1e-300, 1e-300, T)

    def test_small_s_keeps_its_bits(self):
        # 0x1.1e3eac5a0ba23p+1 before the kernel integrated by parts in v over every mode
        assert osc.tail_abs_pow(0.1, 0.2, self.T).hex() == "0x1.1e3eac5a0f800p+1"

    def test_short_T_is_domain_error(self):
        with pytest.raises(DomainError, match="T >= 20"):
            osc.tail_abs_pow(1.0, 2.0, 10.0)

    def test_empty_p_gives_empty_array(self):
        got = osc.tail_abs_pow(np.array([]), 2.0, 47.0)
        assert isinstance(got, np.ndarray) and got.shape == (0,)

    @pytest.mark.parametrize("s", [1.37, 8.0 / 3.0, 70.5, 141.0])
    def test_F_routes_match_per_p_tails(self, s, monkeypatch):
        # F with its array tail and with the per-p reference tail
        from khinsphere.quad import F, IntegralParams
        ps = _p_grid(s)
        got = F(IntegralParams(ps, s))

        calls = []

        def per_lane(p, s, T, tol):  # F's tail call: one lane per (p, s)
            calls.append(len(p))
            return np.array([_tail_abs_pow_by_mode(float(pk), float(sk), T, tol)
                             for pk, sk in zip(p, s)])
        monkeypatch.setattr(osc, "tail_abs_pow", per_lane)
        ref = F(IntegralParams(ps, s))
        assert calls and np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))


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


@pytest.mark.parametrize("call", [
    lambda: osc.tail_abs_pow(math.nan, 2.0, 47.0),
    lambda: osc.tail_abs_pow(np.array([1.0, math.nan]), 2.0, 47.0),
    lambda: osc.tail_abs_pow(-math.inf, 2.0, 47.0),
    lambda: osc.tail_abs_pow(1.0, 2.0, math.nan),
    lambda: osc.tail_abs_pow(1.0, 2.0, math.inf),
    lambda: osc.tail_abs_pow(1.0, math.nan, 47.0),
    lambda: osc.tail_abs_pow(np.array([]), math.inf, 47.0),
    lambda: osc.exp_power_tail(math.nan, 1.0, 47.0),
    lambda: osc.exp_power_tail(-2.0, math.nan, 47.0),
    lambda: osc.exp_power_tail(-2.0, 1.0, math.nan),
    lambda: osc.exp_power_tail(-math.inf, 1.0, 47.0),
    lambda: osc.exp_power_tail(-math.inf, 0.0, 47.0),
    lambda: osc.power_tail(math.nan, 47.0),
    lambda: osc.power_tail(-2.0, math.nan),
    lambda: osc.power_tail(np.array([-2.0, math.nan]), 47.0),
    lambda: osc.tail_product([1.0, 0.5], 1.0, math.nan, 47.0),
    lambda: osc.tail_product([1.0, 0.5], 1.0, 1.0, math.nan),
    lambda: osc.tail_product([1.0, math.nan], 1.0, 1.0, 47.0),
], ids=["tail_abs_pow-p", "tail_abs_pow-p-array", "tail_abs_pow-p-inf", "tail_abs_pow-T",
        "tail_abs_pow-T-inf",
        "tail_abs_pow-s", "tail_abs_pow-s-inf",
        "exp_power_tail-mu", "exp_power_tail-omega", "exp_power_tail-T",
        "exp_power_tail-mu-inf", "exp_power_tail-mu-inf-resonant", "power_tail",
        "power_tail-T", "power_tail-array", "tail_product-p", "tail_product-T",
        "tail_product-amps"])
def test_non_finite_input_is_domain_error(call):
    with pytest.raises(DomainError):
        call()

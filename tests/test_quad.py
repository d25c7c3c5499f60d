import math
import warnings

import numpy as np
import pytest

from khinsphere import oscillatory as osc
from khinsphere import quad
from khinsphere.constants import C2, MomentQuery, normalizers
from khinsphere.errors import DivergenceError, DomainError, ToleranceError
from khinsphere.oscillatory import _panel_quad
from khinsphere.quad import (
    _M_S13,
    _M_S83,
    _REL_CUT,
    _bessel_envelope,
    _envelope_cut,
    _head_product,
    _middle_plan,
    _moment_edges,
    _table2_F_upper,
    _table3_F_upper,
    _tilde_F_upper,
    F,
    G,
    G_tilde,
    H,
    H_tilde,
    IntegralParams,
    U,
    product_moment,
    table2_log_bound,
    table3_scaled_bound,
)
from khinsphere.sample import _two_coeff_moment
from khinsphere.specfun import _jj_vec, gamma, hyp2f1, jj1_prime
from khinsphere.verify import verify_H_regions, verify_H_tilde_region

IP = IntegralParams


def F2_closed(p):
    """F(p,2) = 2^(p-1) Gamma(p/2) Gamma(3-p) / (Gamma(2-p/2)^2 Gamma(3-p/2))."""
    return (2.0 ** (p - 1) * gamma(p / 2) * gamma(3 - p)
            / (gamma(2 - p / 2) ** 2 * gamma(3 - p / 2)))


def gaussian_quad_oracle(p, s):
    """Brute quadrature of int_0^inf e^(-s t^2/8) t^(p-1) dt."""
    ks = np.arange(60)
    fact = np.cumprod(np.concatenate([[1.0], np.arange(1, 60)]))
    head = float(np.sum((-s / 8.0) ** ks / fact * 0.5 ** (2 * ks + p) / (2 * ks + p)))
    x, w = np.polynomial.legendre.leggauss(40)
    edges = np.linspace(0.5, 40.0 / math.sqrt(s) + 5.0, 200)
    a, b = edges[:-1], edges[1:]
    mid, half = 0.5 * (a + b)[:, None], 0.5 * (b - a)[:, None]
    nodes = mid + half * x[None, :]
    vals = np.exp(-s * nodes**2 / 8.0) * nodes ** (p - 1.0)
    return head + float(np.sum(vals * w[None, :] * half))


class TestF:
    def test_example_values(self):
        assert F(IP(1.0, 2.0)) == pytest.approx(16.0 / (3.0 * math.pi), abs=1e-10)
        assert F(IP(2.0, 2.0)) == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("p", [0.05, 0.3, 0.9, 1.5, 2.2, 2.7, 2.95])
    def test_closed_form_s2(self, p):
        f = F(IP(p, 2.0))
        assert f == pytest.approx(F2_closed(p), abs=1e-10 * max(1, F2_closed(p)))
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            q = mp.mpf(p)
            exact = (2 ** (q - 1) * mp.gamma(q / 2) * mp.gamma(3 - q)
                     / (mp.gamma(2 - q / 2) ** 2 * mp.gamma(3 - q / 2)))
        assert f == pytest.approx(float(exact), rel=2e-15, abs=0.0)

    def test_divergence(self):
        with pytest.raises(DivergenceError):
            F(IP(2.0, 1.2))

    def test_large_s_gaussian_limit(self):
        # s^(p/2) F(p, s) -> int_0^inf e^(-t^2/8) t^(p-1) dt = 2^(3p/2-1) Gamma(p/2), times
        # 1 - p(p+2)/(24 s) + O(s^-2): log jj_1(x) = -x^2/8 - x^4/384 + O(x^6), and E u^4 =
        # 16 p(p+2) under e^(-u^2/8) u^(p-1).  The residual times s^2 is at most 0.017 for
        # s <= 1e5; at s = 1e6 the residual is 1.1e-12, F's rounding
        for s in (1e3, 1e4, 1e5, 1e6):
            for p in (0.5, 1.0, 2.0):
                ratio = s ** (p / 2) * F(IP(p, s)) / (2.0 ** (1.5 * p - 1.0) * gamma(p / 2))
                assert abs(ratio - (1.0 - p * (p + 2.0) / (24.0 * s))) <= 0.05 / s**2 + 2e-12, (p, s)

    def test_holder_interpolation(self):
        # F(p,s) <= F(p,2)^((8-3s)/2) F(p,8/3)^((3s-6)/2) for s in [2, 8/3]
        for p in (1.0, 1.5):
            f2 = F(IP(p, 2.0))
            f83 = F(IP(p, 8.0 / 3.0))
            for s in np.linspace(2.0, 8.0 / 3.0, 9):
                bound = f2 ** ((8.0 - 3.0 * s) / 2.0) * f83 ** ((3.0 * s - 6.0) / 2.0)
                assert F(IP(p, float(s))) <= bound + 1e-8


def _raised(fn, params):
    """(error class, message) that fn(params) raises, or None."""
    try:
        fn(params)
    except (DomainError, DivergenceError) as exc:
        return type(exc), str(exc)
    return None


class TestBatch:
    @pytest.mark.parametrize("s", [1.05, 1.3, 2.0, 8.0 / 3.0, 12.0, 70.0])
    def test_F_batch_equals_scalar_calls(self, s):
        ps = np.array([1e-3, 0.05, 0.3, 1.0, 1.5, 0.5 * s, 0.9 * 1.5 * s, 1.5 * s * (1.0 - 1e-8)])
        got = F(IP(ps, s))
        assert got.shape == ps.shape
        for p, v in zip(ps, got):
            assert v == F(IP(float(p), s))

    def test_F_groups_by_s_and_keeps_shape(self):
        p, s = np.meshgrid([0.2, 1.0, 1.9], [1.3, 2.0, 70.0], indexing="ij")
        got = F(IP(p, s))
        assert got.shape == (3, 3)
        for i in range(3):
            for j in range(3):
                assert got[i, j] == F(IP(float(p[i, j]), float(s[i, j])))
        assert isinstance(F(IP(1.0, 2.0)), float)

    @pytest.mark.parametrize("fn", [F, H, H_tilde])
    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_empty_input_gives_empty_array(self, fn, shape):
        got = fn(IP(np.full(shape, 2.5), np.full(shape, 3.0)))
        assert isinstance(got, np.ndarray) and got.shape == shape and got.dtype == float

    @pytest.mark.parametrize("verifier",[verify_H_regions, verify_H_tilde_region])
    def test_F_on_region_mesh_equals_scalar_calls(self, verifier, monkeypatch):
        # the 12 x 12 mesh of the lemma sweep: 12-23 distinct s in one F call
        calls = []

        def recording_F(params):
            calls.append((params, F(params)))
            return calls[-1][1]
        monkeypatch.setattr(quad, "F", recording_F)
        verifier((12, 12))
        (params, got), = calls
        assert len(set(params.s.tolist())) >= 12
        for p, s, v in zip(params.p, params.s, got):
            assert v == F(IP(float(p), float(s)))

    def test_out_of_reach_names_first_element_in_array_order(self):
        # both need the tail with s > 141; the first in array order has the larger s
        with pytest.raises(DomainError) as scalar:
            F(IP(224.0, 150.0))
        with pytest.raises(DomainError) as batch:
            F(IP(np.array([224.0, 217.0]), np.array([150.0, 145.0])))
        assert str(batch.value) == str(scalar.value)

    @pytest.mark.parametrize("fn, bad", [
        (F, (2.0, 1.2)), (H, (3.5, 4.0)), (H, (2.0, 1.2)), (U, (3.0, 2.0)),
        (G_tilde, (1.5, 2.0)), (H_tilde, (2.5, 1.0)), (H_tilde, (3.2, 4.0)),
    ])
    def test_out_of_domain_element_raises_scalar_error(self, fn, bad):
        ps, ss = np.array([2.5, bad[0], 2.2]), np.array([4.0, bad[1], 5.0])
        expected = _raised(fn, IP(*bad))
        assert expected is not None
        assert _raised(fn, IP(ps, ss)) == expected

    def test_params_element_raises_scalar_error(self):
        for p, s in ((-1.0, 2.0), (1.0, 0.5), (1.0, math.nan), (math.inf, 2.0)):
            with pytest.raises(DomainError) as scalar:
                IP(p, s)
            with pytest.raises(DomainError) as batch:
                IP(np.array([1.0, p]), np.array([2.0, s]))
            assert str(batch.value) == str(scalar.value)

    @pytest.mark.parametrize("fn, p_lo, s_lo", [(G, 1e-3, 1.0), (U, 1e-3, 1.0), (H, 1e-3, 1.3),
                                                 (G_tilde, 2.0, 1.0), (H_tilde, 2.0, 1.3)])
    def test_closed_forms_broadcast(self, fn, p_lo, s_lo):
        # numpy's array power is not libm's pow, and H = G - F cancels: not bit for bit
        p, s = np.meshgrid(np.geomspace(p_lo, 2.95, 7), np.geomspace(s_lo, 12.0, 5), indexing="ij")
        keep = p < 1.5 * s
        got = fn(IP(p[keep], s[keep]))
        ref = np.array([fn(IP(float(a), float(b))) for a, b in zip(p[keep], s[keep])])
        scale = np.abs(ref) if fn not in (H, H_tilde) else G(IP(p[keep], s[keep]))
        assert np.all(np.abs(got - ref) <= 1e-14 * scale)


def _F_mpmath(p, s, n_zeros=30):
    """F by mpmath: quadrature up to the n_zeros-th zero T of J_1, then the rest
    from the Fourier modes of |cos|^s beyond T.

    The head is int_0^1 t^(p-1) (|jj_1|^s - 1) dt + 1/p, so that no quadrature
    meets the t^(p-1) singularity.  Beyond T, |jj_1|^s t^(p-1) ~ (8/pi)^(s/2)
    t^a M^s |cos theta|^s with a = p - 1 - 3s/2, M^s ~ 1 + 3s/(16 t^2) and
    |cos theta|^s = sum_m c_m cos(2 m theta).  The mode m = 0 gives power
    tails.  A mode m >= 1, integrated by parts twice from a zero T of J_1
    (where sin(2 m theta) = 0 and cos(2 m theta) = (-1)^m), gives
    -(-1)^m a T^(a-1) / (4 m^2), up to O(T^(a-3)).
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(20):
        p, s = mp.mpf(p), mp.mpf(s)

        def abs_pow(t):
            return abs(2 * mp.besselj(1, t) / t) ** s

        head = mp.quad(lambda t: t ** (p - 1) * (abs_pow(t) - 1), [0, 1]) + 1 / p
        pts = [mp.mpf(1)] + [mp.besseljzero(1, k) for k in range(1, n_zeros + 1)]
        body = mp.quad(lambda t: abs_pow(t) * t ** (p - 1), pts)
        T, a = pts[-1], p - 1 - 3 * s / 2
        c0 = mp.gamma(s + 1) / (2**s * mp.gamma(s / 2 + 1) ** 2)
        cm = (mp.gamma(s + 1) * mp.rgamma(s / 2 + 1 + m) * mp.rgamma(s / 2 + 1 - m) / 2 ** (s - 1)
              for m in range(1, 400))
        modes = mp.fsum((-1) ** m * c / m**2 for m, c in enumerate(cm, start=1))
        rest = (c0 * (T ** (a + 1) / (-a - 1) + 3 * s / 16 * T ** (a - 1) / (1 - a))
                - a * T ** (a - 1) / 4 * modes)
        return float(head + body + (8 / mp.pi) ** (s / 2) * rest)


class TestAgainstMpmath:
    @pytest.mark.parametrize("p, s", [(16.0, 64.0), (10.0, 40.0)])
    def test_moderate_s(self, p, s):
        # moderate p and s up to 64, where a direct panel sum was 1.6e-11 off at (16, 64);
        # abs=0.0, since approx's default abs of 1e-12 would pass that
        assert F(IP(p, s)) == pytest.approx(_F_mpmath(p, s), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("p, s, n_zeros", [(1e-3, 4.0, 30), (0.05, 1.3, 60), (0.5, 6.1, 30)])
    def test_small_p(self, p, s, n_zeros):
        # at s = 1.3 the rest beyond T decays only as T^(-3.9): 60 zeros keep it below 1e-14
        assert F(IP(p, s)) == pytest.approx(_F_mpmath(p, s, n_zeros), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("p, s", [(0.5, 1.0), (1.5, 1.05), (1.57, 1.05), (1.9, 1.3)])
    def test_near_s_one(self, p, s):
        # s near 1 with p near 3s/2, where the tail's modes decay slowest: F holds its
        # 1e-10 absolute tail tolerance (1.7e-11 off at most with 120 zeros, 2.2e-11 with 400)
        assert F(IP(p, s)) == pytest.approx(_F_mpmath(p, s, 120), abs=1e-10, rel=0.0)


class TestLargeS:
    @pytest.mark.parametrize("p, s", [(90.0, 64.5), (95.0, 70.0), (0.97 * 150.0, 100.0)])
    def test_against_mpmath(self, p, s):
        # the large-s route used to drop everything beyond u = t sqrt(s) = 22:
        # 1.2e-4 too low at (90, 64.5), 1.4e-5 at (95, 70), 0.28 at (145.5, 100)
        assert F(IP(p, s)) == pytest.approx(_F_mpmath(p, s), rel=1e-12, abs=0.0)

    def test_integer_s(self):
        # s ** arange(n) in the large-s head overflowed int64 for an integer s
        assert F(IP(1, 200)) == F(IP(1.0, 200.0))

    @pytest.mark.parametrize("s", [1e20, 1e300])
    def test_huge_s_is_domain_error(self, s):
        # the first arch takes ceil(2 (j_1,1 sqrt(s) - 1/2)) + 10 panels: under a 2 GiB
        # address-space limit F raised MemoryError at s = 1e20 (one array of 571 GiB), and at
        # 1e300 a bare ValueError after an overflow warning in the head coefficients
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="first arch needs more than 200000 panels"):
                F(IP(1.0, s))

    def test_huge_s_bound_is_the_panel_budget(self):
        # s above about 6.8e8 needs more panels than product_moment's budget; 1e8 stays in reach
        assert quad._arch_panel_count(6.81e8) <= quad._MAX_PANELS < quad._arch_panel_count(6.82e8)
        with pytest.raises(DomainError):
            F(IP(1.0, 6.82e8))
        assert math.isfinite(F(IP(1.0, 1e8)))

    def test_huge_s_names_first_element_in_array_order(self):
        with pytest.raises(DomainError) as scalar:
            F(IP(2.0, 1e12))
        with pytest.raises(DomainError) as batch:
            F(IP(np.array([1.0, 2.0, 1.0]), np.array([2.0, 1e12, 1e20])))
        assert str(batch.value) == str(scalar.value)

    def test_finite_or_domain_error_up_to_s_1000(self):
        for s in np.geomspace(1.0, 1000.0, 25):
            for frac in (1e-3, 0.1, 0.5, 0.9, 0.97, 0.99, 0.999, 1.0 - 1e-6):
                p = frac * 1.5 * float(s)
                try:
                    v = F(IP(p, float(s)))
                except DomainError:
                    assert s > 141.0 and frac > 0.96, (p, s)
                    continue
                assert math.isfinite(v) and v > 0.0, (p, s, v)


class TestHead:
    @pytest.mark.parametrize("p,s", [(0.2, 1.4), (0.05, 2.0), (1.0, 3.0), (0.25, 1.7)])
    def test_series_head_vs_substitution_oracle(self, p, s):
        # int_0^(1/2) g(u) u^(p-1) du = (2^(-p)/p) int_0^1 g(v^(1/p)/2) dv with
        # g(u) = jj_1(u/sqrt(s))^s; for these p the power 1/p is an integer, so
        # the substituted integrand is smooth and plain panels nail it
        from khinsphere.quad import _HEAD_U, _arch_head_coeffs, _panel_quad, _series_head
        from khinsphere.specfun import jj1

        def smooth(v):
            return jj1(0.5 * v ** (1.0 / p) / math.sqrt(s)) ** s * 0.5**p / p

        oracle = _panel_quad(smooth, np.linspace(0.0, 1.0, 80))
        head = _series_head(_arch_head_coeffs([s])[0], p, _HEAD_U)
        assert head == pytest.approx(oracle, rel=1e-11)

    def test_head_table_matches_series_power(self):
        # the head's closed-form table against a series power of jj_1's own series, each s
        # alone, and each row of one call for every s the same bits as its call alone
        from test_oscillatory import series_pow

        from khinsphere.quad import _HEAD_TERMS, _arch_head_coeffs
        from khinsphere.specfun import _jj_series_coeffs
        s_vals = [1.0, 1.05, 2.0, 3.58, 12.0, 141.0, 1e4, 6.8e8]
        rows = _arch_head_coeffs(s_vals)
        for s, row in zip(s_vals, rows):
            c = np.asarray(_jj_series_coeffs(1.0, _HEAD_TERMS)) / s ** np.arange(_HEAD_TERMS)
            assert row[:6] == pytest.approx(series_pow(c, s, 5), rel=1e-13, abs=0.0), s
            assert np.array_equal(row, _arch_head_coeffs([s])[0])


class TestG:
    def test_examples(self):
        assert G(IP(2.0, 2.0)) == pytest.approx(2.0, abs=1e-14)
        assert G(IP(1.0, 2.0)) == pytest.approx(math.sqrt(math.pi), abs=1e-13)
        assert G(IP(0.5, 8.0)) == pytest.approx(8.0**-0.25 * 2.0**-0.25 * gamma(0.25),
                                                rel=1e-13, abs=0.0)
        assert G(IP(0.5, 8.0)) == pytest.approx(1.8128049541109542, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p,s", [(2.0, 2.0), (1.0, 2.0), (0.5, 8.0), (2.9, 3.3)])
    def test_against_quadrature_oracle(self, p, s):
        assert G(IP(p, s)) == pytest.approx(gaussian_quad_oracle(p, s), abs=1e-10)

    def test_s_scaling_identity(self):
        for p, s in ((0.7, 3.3), (2.1, 1.6)):
            assert G(IP(p, s)) == pytest.approx(s ** (-p / 2.0) * G(IP(p, 1.0)), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("p,s", [(300.0, 250.0), (343.0, 300.0)])
    def test_value_where_s_power_underflows(self, p, s):
        # s^(-p/2) underflows before the other factors meet it: G read 0.0, and U read
        # 2.9e5 and 3.5e-4 where F is 3.3e29 and 4.2e30
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            exact = float(mpmath.mpf(s) ** (-p / 2) * mpmath.mpf(2) ** (1.5 * p - 1)
                          * mpmath.gamma(p / 2))
        as_array = G(IP(np.array([1.0, p]), np.array([2.0, s])))
        assert G(IP(p, s)) == pytest.approx(exact, rel=1e-13, abs=0.0)
        assert as_array[1] == pytest.approx(exact, rel=1e-13, abs=0.0)
        assert as_array[0] == G(IP(1.0, 2.0))
        f = F(IP(p, s))
        assert U(IP(p, s)) >= f
        assert U(IP(np.array([p]), np.array([s])))[0] >= f

    @pytest.mark.parametrize("p,s", [(300.0, 2.0), (250.0, 1.0)])
    def test_value_above_float_range(self, p, s):
        # G(300, 2) was inf; U is past its pole there
        with pytest.raises(DomainError, match=rf"G\(p={p}, s={s}\) is out of reach"):
            G(IP(p, s))


def _mp_g_u(p, s):
    """G(p, s) and U(p, s) in mpmath at 30 digits, as floats."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        p, s = mpmath.mpf(p), mpmath.mpf(s)
        h = p / 2
        g = s ** (-h) * mpmath.mpf(2) ** (1.5 * p - 1) * mpmath.gamma(h)
        first = mpmath.mpf(4) ** p * (2 * mpmath.pi * mpmath.sqrt(15)) ** (-s / 2) / (1.5 * s - p)
        u = first + g * (1 - h * (h + 1) / (6 * s) + h * (h + 1) * (h + 2) * (h + 3) / (72 * s * s))
        return float(g), float(u)


class TestFloatRange:
    """Where a factor of G or U leaves the float range but the value does not, the value is
    taken in logs: F at (800, 600) is 4.43e96, G 7.57e115 and U 7.25e118."""

    # G and U raised DomainError at the first three: Gamma(p/2) overflows there, 4^p too at
    # (800, 600), and s^(-p/2) underflows at (400, 600) and (300, 250).  The log path's error,
    # about |e ln b| 2^-53 for each power b^e, was 1.17e-13 at (400, 600) and (800, 600) against
    # mpmath.  A float p with an array s, or the reverse, mixes 0-d and 1-d factors
    @pytest.mark.parametrize("fn", [G, U], ids=["G", "U"])
    @pytest.mark.parametrize("p,s", [(800.0, 600.0), (400.0, 600.0), (344.0, 300.0),
                                     (300.0, 250.0)])
    def test_scalar_and_array(self, fn, p, s):
        exact = dict(zip((G, U), _mp_g_u(p, s)))[fn]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scalar = fn(IP(p, s))
            lanes = fn(IP(np.array([1.0, p, 2.0]), np.array([2.0, s, 2.0])))
            mixed = [fn(IP(p, np.array([s]))), fn(IP(np.array([p]), s))]
        assert scalar == pytest.approx(exact, rel=2e-13, abs=0.0)
        assert lanes[1] == scalar and lanes[0] == fn(IP(1.0, 2.0))
        assert [x.shape for x in mixed] == [(1,), (1,)] and mixed[0][0] == mixed[1][0] == scalar
        assert U(IP(p, s)) >= F(IP(p, s))

    # log G is 788 at (2000, 1334) and 807 at (300, 2), where U is past its pole
    @pytest.mark.parametrize("fn,p,s", [(G, 2000.0, 1334.0), (U, 2000.0, 1334.0), (G, 300.0, 2.0)],
                             ids=["G-2000-1334", "U-2000-1334", "G-300-2"])
    def test_value_above_float_range(self, fn, p, s):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=rf"\(p={p}, s={s}\) is out of reach"):
                fn(IP(p, s))
            with pytest.raises(DomainError, match=rf"\(p={p}, s={s}\) is out of reach"):
                fn(IP(np.array([1.0, p, 2.0]), np.array([2.0, s, 2.0])))
            with pytest.raises(DomainError, match=rf"\(p={p}, s={s}\) is out of reach"):
                fn(IP(p, np.array([s])))
            with pytest.raises(DomainError, match=rf"\(p={p}, s={s}\) is out of reach"):
                fn(IP(np.array([p]), s))


class TestH:
    def test_value_1_2(self):
        expected = math.sqrt(math.pi) - 16.0 / (3.0 * math.pi)
        assert H(IP(1.0, 2.0)) == pytest.approx(expected, abs=1e-10)
        assert expected == pytest.approx(0.0748, abs=5e-4)

    def test_positive_spots(self):
        assert H(IP(1.5, 3.0)) > 0
        assert H(IP(0.1, 1.3)) > 0

    def test_corollary_38(self):
        # int |jj_1|^2 t^(p-1) <= 2^(p-1) Gamma(p/2), i.e. H(p,2) >= 0 on (0,2]
        for p in np.linspace(0.05, 2.0, 25):
            f = F(IP(float(p), 2.0))
            assert f <= 2.0 ** (p - 1.0) * gamma(p / 2.0) + 1e-10


class TestU:
    @pytest.mark.parametrize("p,s", [(1.0, 2.0), (2.5, 3.0), (0.2, 1.5)])
    def test_upper_bounds_F(self, p, s):
        assert F(IP(p, s)) < U(IP(p, s))

    def test_finite_at_1_2(self):
        assert math.isfinite(U(IP(1.0, 2.0)))

    def test_pole(self):
        with pytest.raises(DivergenceError):
            U(IP(3.0, 2.0))
        # blows up approaching p = 3s/2
        assert U(IP(2.999, 2.0)) > 1e2


class TestGTilde:
    def test_at_2_2(self):
        assert G_tilde(IP(2.0, 2.0)) == pytest.approx(2.0, abs=1e-13)

    def test_equals_F_at_s2(self):
        assert G_tilde(IP(2.5, 2.0)) == pytest.approx(F(IP(2.5, 2.0)), abs=1e-8)

    def test_s_scaling(self):
        assert G_tilde(IP(2.5, 4.0)) == pytest.approx(G_tilde(IP(2.5, 2.0)) * 2.0 ** (-1.25),
                                                      rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            G_tilde(IP(1.5, 2.0))


class TestHTilde:
    @pytest.mark.parametrize("p", [2.1, 2.5, 2.9])
    def test_vanishes_at_s2(self, p):
        assert abs(H_tilde(IP(p, 2.0))) < 1e-7

    def test_positive_spots(self):
        assert H_tilde(IP(2.5, 3.0)) > 0
        assert H_tilde(IP(2.9, 2.01)) > 0


def _cut_queries(count=10):
    """Seeded queries on which product_moment's envelope cut fires: n = 3..12,
    d in {3, 4, 5, 8}, weights in [0.5, 1], every other one with a single weight
    1e-3..1e-1 times the largest."""
    rng = np.random.default_rng(20231)
    out = []
    while len(out) < count:
        d, n = int(rng.choice([3, 4, 5, 8])), int(rng.integers(3, 13))
        w = rng.uniform(0.5, 1.0, n)
        if len(out) % 2:
            w[rng.integers(n)] = 10.0 ** rng.uniform(-3.0, -1.0) * w.max()
        p = rng.uniform(0.05, 0.97) * (d - 1)
        amps = sorted(w / np.linalg.norm(w), reverse=True)
        kappa = normalizers(p, d).kappa
        if _envelope_cut(amps, d / 2.0 - 1.0, p, _REL_CUT / kappa) < max(46.0, 25.0 / amps[-1]):
            out.append(MomentQuery(d, -p, tuple(w)))
    return out


def _small_weight_queries(count=24):
    """Seeded queries with n = 2..6, d in {3, 4, 5, 8}, weights in [0.2, 1] and
    one of them 1e-4..1e-1 times the largest.

    Left out: p > (n-1)(d-1)/2 + 1/2.  There t^(p-1) times the n-1 large
    factors decays slower than t^(-3/2) out to t ~ 1/a_min, so the panels and
    the tail cancel pieces far larger than the result.  The two rules then
    differ by the rounding noise of their nodes, up to 5e-8 (d = 8) and 5e-10
    (d = 5), and for n = 2 both are further off the 2F1 value, through the
    tail they share.
    """
    rng = np.random.default_rng(20241)
    out = []
    while len(out) < count:
        d, n = int(rng.choice([3, 4, 5, 8])), int(rng.integers(2, 7))
        w = rng.uniform(0.2, 1.0, n)
        w[rng.integers(n)] = 10.0 ** rng.uniform(-4.0, -1.0) * w.max()
        p = rng.uniform(0.05, 0.97) * (d - 1)
        if p <= (n - 1) * (d - 1) / 2.0 + 0.5:
            out.append(MomentQuery(d, -p, tuple(w)))
    return out


def _product_moment_quarter_period(query):
    """product_moment with its earlier panel rule, the reference for the
    bandwidth-sized one: even panels of a quarter period of the largest
    weight, min(2, pi/(2 a_max)), from 1 to T, and one _jj_vec call per
    factor.  The head, the envelope cut and the tail are product_moment's."""
    d, p = query.d, -query.q
    norm = query.norm
    amps = sorted((abs(a) / norm for a in query.coeffs if abs(a) > 1e-12 * norm), reverse=True)
    nu, kappa = d / 2.0 - 1.0, normalizers(p, d).kappa
    T_full = max(46.0, 25.0 / amps[-1])
    T_env = _envelope_cut(amps, nu, p, _REL_CUT / kappa)
    cut = T_env < T_full
    T = max(T_env, 1.0) if cut else T_full

    def integrand(t):
        acc = t ** (p - 1.0)
        for a in amps:
            acc = acc * _jj_vec(nu, a * t)
        return acc

    n_panels = math.ceil((T - 1.0) / min(2.0, math.pi / (2.0 * amps[0])))
    middle = _panel_quad(integrand, np.linspace(1.0, T, n_panels + 1))
    tail = 0.0 if cut else osc.tail_product(amps, nu, p, T)
    return float(kappa * (_head_product(amps, nu, p, 1.0) + middle + tail) * norm ** (-p))


class TestProductMoment:
    def test_single_unit_vector(self):
        assert product_moment(MomentQuery(4, -1.0, (1.0,))) == 1.0

    def test_extremizer_matches_C2(self):
        a = 1.0 / math.sqrt(2.0)
        val = product_moment(MomentQuery(4, -2.5, (a, a)))
        assert val == pytest.approx(C2(2.5), abs=1e-8)

    def test_two_coeff_matches_hypergeometric(self):
        val = product_moment(MomentQuery(4, -1.0, (1.0, math.sqrt(0.5))))
        assert val == pytest.approx(hyp2f1(0.5, -0.5, 2.0, 0.5), abs=1e-7)

    def test_homogeneity(self):
        v1 = product_moment(MomentQuery(4, -1.5, (0.6, 0.8)))
        v2 = product_moment(MomentQuery(4, -1.5, (1.2, 1.6)))
        assert v2 == pytest.approx(v1 * 2.0**-1.5, rel=1e-10)

    def test_kappa_F_identity(self):
        # E|xi_1+xi_2|^(-p) = kappa F(p,2) = 2^(-p/2) C2(p)
        for p in (0.5, 1.0, 1.5, 2.0, 2.5):
            kappa = normalizers(p, 4).kappa
            assert kappa * F(IP(p, 2.0)) == pytest.approx(2.0 ** (-p / 2.0) * C2(p), abs=1e-8)

    def test_single_coefficient_beyond_fourier_threshold(self):
        # n=1 with p >= (d-1)/2: the Fourier integral is not absolutely
        # convergent, but |a xi| = |a| makes the moment exact
        assert product_moment(MomentQuery(4, -2.0, (2.0, 0.0))) == pytest.approx(0.25, abs=1e-14)

    def test_convergence_guard(self):
        # the guard itself (p >= n(d-1)/2 for n >= 2) is unreachable through
        # MomentQuery, whose invariant q > -(d-1) already excludes it; n=1
        # bypasses the integral entirely, so no ConvergenceError can surface
        a = 1.0 / math.sqrt(2.0)
        assert product_moment(MomentQuery(4, -2.99, (a, a))) > 0

    @pytest.mark.parametrize("d,coeffs,rel", [
        pytest.param(3, (1.0, 0.3, 0.2, 0.1), 1e-12, id="d3"),
        pytest.param(4, (1.0, 0.5, 0.5), 1e-12, id="d4"),
        pytest.param(5, (1.0, 0.6, 0.3), 1e-12, id="d5"),
        pytest.param(6, (1.0, 0.5, 0.3, 0.2), 1e-12, id="d6"),
        pytest.param(8, (1.0, 0.5, 0.4), 1e-12, id="d8"),
        pytest.param(8, (1.0, 0.2, 0.2, 0.2), 1e-12, id="d8-four"),
        pytest.param(8, (1.0, 0.05, 0.05), 1e-9, id="d8-small-weight"),
        *[pytest.param(d, (1.0,) + (0.99 / (n - 1),) * (n - 1), 1e-12, id=f"d{d}-n{n}")
          for n in (12, 20, 32) for d in (3, 4, 8)],
        pytest.param(3, (1.0, 0.3, 0.2, 0.2, 0.2, 1e-8), 1e-12, id="d3-tiny-weight"),
        pytest.param(4, (1.0, 0.4, 0.3, 0.2, 1e-8), 1e-12, id="d4-tiny-weight"),
        pytest.param(8, (1.0, 0.3, 0.3, 1e-8), 1e-12, id="d8-tiny-weight"),
        pytest.param(4, (1.0, 0.6, 0.3, 1e-8), 1e-12, id="d4-budget"),
        pytest.param(3, (1.0, 0.5, 1e-5), 1e-12, id="d3-budget"),
    ])
    def test_newton_harmonic_moment(self, d, coeffs, rel):
        # |x|^(2-d) is harmonic (Newton's theorem): the mean of |y + a_1 xi_1|^(2-d)
        # over xi_1 is max(|y|, a_1)^(2-d), and |y| <= a_2 + ... + a_n <= a_1
        val = product_moment(MomentQuery(d, 2.0 - d, coeffs))
        assert val == pytest.approx(coeffs[0] ** (2.0 - d), rel=rel)

    def test_two_coeff_near_convergence_edge(self):
        # d = 8, n = 2, p just below n(d-1)/2 = 7, weight ratio 2.7e-3: the sign-pattern
        # tail's per-pattern integrals are tiny, and an IBP stop at 1e-18 absolute
        # leaves it 1.07e-3 off the 2F1 value
        d, p, a, b = 8, 6.312086216129032, -0.007106736291156288, -2.6792541602425355
        val = product_moment(MomentQuery(d, -p, (a, b)))
        assert val == pytest.approx(float(_two_coeff_moment(d, -p, a, b)), rel=1e-8)

    @pytest.mark.parametrize("d,p", [(3, 1.9), (4, 2.9), (5, 3.9), (8, 6.9), (4, 2.5), (5, 3.5)])
    def test_tiny_weight_next_to_equal_pair_raises(self, d, p):
        # xi_1 + xi_2 has density ~|v|^(d-2) at 0, so for p > d - 2 a weight eps moves the
        # moment by O(eps^(d-1-p)): the (1, 1) value alone is 4.6% high at (4, 2.9).  Every
        # weight counts there, and the panels exceed their budget.
        with pytest.raises(ToleranceError):
            product_moment(MomentQuery(d, -p, (1.0, 1.0, 1e-13)))

    @pytest.mark.parametrize("d,p,pair", [(4, 1.5, (1.0, 1.0)), (4, 2.0, (1.0, 1.0)),
                                          (4, 2.9, (1.0, 0.9))])
    def test_tiny_weight_dropped_where_harmless(self, d, p, pair):
        # p <= d - 2, or a pair 0.1 apart: the 1e-13 weight moves the moment by under 1e-13
        val = product_moment(MomentQuery(d, -p, (*pair, 1e-13)))
        assert val == pytest.approx(float(_two_coeff_moment(d, -p, *pair)), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("d", range(12, 63, 2))
    def test_high_d_matches_two_coeff(self, d):
        # the tail's Hankel expansion holds only for t >> nu^2, so it starts at 4 nu^2 from
        # d = 9 on; starting at 46 left d = 40 2.4e-9 and d = 62 8.0e-2 off the 2F1
        for b in (1.0, 0.95, 0.7, 0.3, 0.05):
            for p in (0.5, 1.0, 2.0, 3.5):
                exact = float(_two_coeff_moment(d, -p, 1.0, b))
                assert product_moment(MomentQuery(d, -p, (1.0, b))) == pytest.approx(
                    exact, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("d", [*range(6, 31, 2), 7, 9, 15, 31])
    def test_near_convergence_edge_matches_two_coeff(self, d):
        # p up to 0.99 (d-1), just below n(d-1)/2: a tail start at nu^2/2 left these up to
        # 1.5e-4 off the 2F1 (d = 22); at 4 nu^2 they are within 7.5e-14
        for b in (1.0, 0.95):
            for f in (0.5, 0.6, 0.8, 0.9, 0.95, 0.99):
                p = f * (d - 1)
                exact = float(_two_coeff_moment(d, -p, 1.0, b))
                assert product_moment(MomentQuery(d, -p, (1.0, b))) == pytest.approx(
                    exact, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("d", [22, 40, 62])
    def test_high_d_two_coeff_against_mpmath(self, d):
        # the reference of test_high_d_matches_two_coeff, at 40 digits (worst 7.8e-16)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for b in (1.0, 0.95, 0.7, 0.3, 0.05):
                for p in (0.5, 1.0, 2.0, 3.5):
                    pm = mpmath.mpf(p)
                    ref = mpmath.hyp2f1(pm / 2, (pm - d + 2) / 2, mpmath.mpf(d) / 2, mpmath.mpf(b) ** 2)
                    assert float(_two_coeff_moment(d, -p, 1.0, b)) == pytest.approx(
                        float(ref), rel=1e-14, abs=0.0)

    def test_d3_two_coeff_matches_hypergeometric(self):
        # nu = 1/2 factors
        val = product_moment(MomentQuery(3, -0.8, (1.0, 0.7)))
        expected = hyp2f1(0.4, (0.8 - 1.0) / 2.0, 1.5, 0.49)
        assert val == pytest.approx(expected, abs=1e-7)

    @pytest.mark.parametrize("query", [
        pytest.param(q, id=f"q{i}-d{q.d}-n{len(q.coeffs)}") for i, q in enumerate(_cut_queries())])
    def test_dropped_tail_within_bound(self, query):
        # the piece the envelope cut drops, recomputed the uncut way: panels
        # from T_env to the asymptotic start, then the sign-pattern tail there
        d, p = query.d, -query.q
        norm = query.norm
        amps = sorted((abs(a) / norm for a in query.coeffs), reverse=True)
        nu, kappa = d / 2.0 - 1.0, normalizers(p, d).kappa
        T_env = _envelope_cut(amps, nu, p, _REL_CUT / kappa)
        T_asym = max(46.0, 25.0 / amps[-1])
        assert T_env < T_asym

        def integrand(t):
            return t ** (p - 1.0) * np.prod([_jj_vec(nu, a * t) for a in amps], axis=0)

        def panels(lo, hi):
            n = math.ceil((hi - lo) / min(2.0, math.pi / (2.0 * amps[0])))
            return float(_panel_quad(integrand, np.linspace(lo, hi, n + 1)))

        tail = osc.tail_product(amps, nu, p, T_asym)
        dropped = panels(T_env, T_asym) + tail
        assert abs(dropped) <= _REL_CUT / kappa
        uncut = _head_product(amps, nu, p, 1.0) + panels(1.0, T_asym) + tail
        val = product_moment(query) + kappa * dropped * norm ** (-p)
        assert val == pytest.approx(kappa * uncut * norm ** (-p), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("query", [
        *[pytest.param(q, id=f"cut{i}-d{q.d}-n{len(q.coeffs)}") for i, q in enumerate(_cut_queries())],
        *[pytest.param(q, id=f"small{i}-d{q.d}-n{len(q.coeffs)}")
          for i, q in enumerate(_small_weight_queries())]])
    def test_matches_quarter_period_rule(self, query):
        expected = _product_moment_quarter_period(query)
        assert product_moment(query) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_panel_edges(self):
        # graded by 1.5 from a0 while narrower than width, then even at <= width
        edges = _moment_edges(1.0, 100.0, 6.0)
        assert edges[0] == 1.0 and edges[-1] == 100.0
        widths = np.diff(edges)
        assert np.all(widths > 0) and np.all(widths <= 6.0 + 1e-12)
        # 1.5^6 / 2 < 6 <= 1.5^7 / 2: seven graded panels end at 1.5^7
        assert np.array_equal(edges[:8], 1.5 ** np.arange(8))
        assert np.allclose(widths[7:], widths[-1])
        assert list(_moment_edges(1.0, 2.0, 6.0)) == [1.0, 1.5, 2.0]
        assert list(_moment_edges(1.0, 1.0, 6.0)) == [1.0]
        with pytest.raises(ToleranceError):
            _moment_edges(1.0, 1e7, 6.0)


# weights (1, 1e-5): the panels ran to 25/a_min = 2.5e6, where t^(p-1) overflowed to NaN
_OVERFLOW_INPUTS = [(52, 50.49), (54, 50.35), (54, 52.47), (56, 49.5), (56, 52.25), (56, 54.45),
                    (58, 51.3), (58, 54.15), (58, 56.43), (60, 53.1), (60, 56.05), (60, 58.41),
                    (62, 54.9), (62, 57.95), (62, 60.39)]

# one dominant weight, where the panels and the tail cancelled pieces far larger than the
# result: the quadrature gave -235.58, 0.2561, 1.0630, 1.0009009, 0.99999998251, -467.04,
# -3.45e7, -2.70e32 and 229.59 for values within 2% of 1
_DOMINANT_PAIRS = [(8, 6.9, 1e-5), (8, 6.5, 1e-5), (7, 5.9, 1e-5), (6, 4.9, 1e-5), (4, 2.9, 1e-5),
                   (22, 18.9, 0.05), (30, 26.1, 0.05), (62, 60.39, 0.05), (62, 60.39, 0.3)]

# E|V|^(-p) for three weights as a 1-D integral over the angle phi between the two largest:
# |a1 xi1 + a2 xi2|^2 = (a1 - a2)^2 + 4 a1 a2 sin^2(phi/2), phi with density c_d sin^(d-2) phi,
# and the 2F1 moment of that radius with a3; mpmath 1.3.0 at 30 digits (45 digits agree)
_THREE_WEIGHT_VALUES = [(8, 6.9, (1.0, 1e-5, 1e-5), "1.00000000007762500001127"),
                        (8, 6.986, (1.0, 1.4e-5, 1.9e-5), "1.000000000239795323349813"),
                        (5, 3.9, (1.0, 1e-7, 2e-7), "1.00000000000001755")]


def _three_weight_integral(mpmath, d, p, weights):
    a1, a2, a3 = (mpmath.mpf(a) for a in sorted(weights, reverse=True))
    d, p = mpmath.mpf(d), mpmath.mpf(p)
    c_d = mpmath.gamma(d / 2) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma((d - 1) / 2))

    def integrand(phi):
        r = mpmath.sqrt((a1 - a2) ** 2 + 4 * a1 * a2 * mpmath.sin(phi / 2) ** 2)
        big, small = max(r, a3), min(r, a3)
        return (c_d * mpmath.sin(phi) ** (d - 2) * big ** -p
                * mpmath.hyp2f1(p / 2, (p - d + 2) / 2, d / 2, (small / big) ** 2))

    kink = (a3 - (a1 - a2)) * (a3 + (a1 - a2)) / (4 * a1 * a2)  # sin^2(phi/2) where r = a3
    cuts = [0, 2 * mpmath.asin(mpmath.sqrt(kink)), mpmath.pi] if 0 < kink < 1 else [0, mpmath.pi]
    return mpmath.quad(integrand, cuts)


class TestKappaRange:
    """The quadrature's normalizer kappa_(p,d) leaves the float range at high d."""

    # kappa underflows to 0 at the first two (a bare ZeroDivisionError once), and its
    # Gammas overflow at the last two (NaN returned, without an error, once)
    @pytest.mark.parametrize("d,p", [(300, 150.0), (344, 1.0), (400, 1.0), (360, 2.0)])
    def test_kappa_out_of_range_raises(self, d, p):
        with pytest.raises(DomainError, match="kappa"):
            product_moment(MomentQuery(d, -p, (1.0, 0.5)))

    def test_kappa_in_range_near_the_edge(self):
        # kappa = 1.6e-130 at (150, 75): the guard lets it through to the quadrature
        assert 0.0 < normalizers(75.0, 150).kappa < 1e-100
        assert math.isfinite(product_moment(MomentQuery(150, -75.0, (1.0, 0.5))))


class TestWeightScale:
    """E|sum a_k xi_k|^(-p) = |a|^(-p) times the moment at unit norm, on every route, where
    sum a_k^2 leaves the normal floats too: it underflowed to 0 (a bare ZeroDivisionError)
    or overflowed (every weight dropped, a ConvergenceError)."""

    # one weight, a dominant one (the series) and three equal ones (the quadrature)
    @pytest.mark.parametrize("unit", [(1.0,), (1.0, 0.01, 0.01), (1.0, 1.0, 1.0)])
    @pytest.mark.parametrize("scale", [1e-160, 1e-100, 1e200])
    def test_homogeneous(self, unit, scale):
        mpmath = pytest.importorskip("mpmath")
        at_unit = product_moment(MomentQuery(4, -1.5, unit))
        norm = mpmath.sqrt(mpmath.fsum(mpmath.mpf(a) ** 2 for a in unit))
        got = product_moment(MomentQuery(4, -1.5, tuple(a * scale for a in unit)))
        assert got == pytest.approx(float(at_unit * (norm * scale) ** -1.5 * norm ** 1.5),
                                    rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("coeffs", [(1e-300,), (1e-300, 1e-300), (1e-300, 1e-302, 1e-302)])
    def test_above_the_largest_float(self, coeffs):
        with pytest.raises(DomainError, match="above the largest float"):
            product_moment(MomentQuery(4, -1.5, coeffs))

    def test_underflow(self):
        assert product_moment(MomentQuery(4, -1.5, (1e300, 1e300, 1e300))) == 0.0


class TestDominantSeries:
    """sum_(k>=2) a_k <= 0.3 a_1: product_moment sums the 2F1 series in E|v|^(2k)."""

    @pytest.mark.parametrize("d,p", _OVERFLOW_INPUTS)
    def test_overflow_inputs_match_two_coeff(self, d, p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = product_moment(MomentQuery(d, -p, (1.0, 1e-5)))
        assert val == pytest.approx(float(_two_coeff_moment(d, -p, 1.0, 1e-5)), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("d,p,b", _DOMINANT_PAIRS)
    def test_dominant_pair_matches_two_coeff(self, d, p, b):
        val = product_moment(MomentQuery(d, -p, (1.0, b)))
        assert val == pytest.approx(float(_two_coeff_moment(d, -p, 1.0, b)), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("d", [*range(6, 63, 2), 7, 9, 15, 31])
    def test_high_d_grid_matches_two_coeff(self, d):
        # the grid of test_near_convergence_edge_matches_two_coeff with the small weights
        for b in (0.3, 0.05, 1e-5):
            for f in (0.5, 0.6, 0.8, 0.9, 0.95, 0.99):
                p = f * (d - 1)
                exact = float(_two_coeff_moment(d, -p, 1.0, b))
                assert product_moment(MomentQuery(d, -p, (1.0, b))) == pytest.approx(
                    exact, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("d,p,weights,value", _THREE_WEIGHT_VALUES)
    def test_three_weights_match_recorded_integral(self, d, p, weights, value):
        assert product_moment(MomentQuery(d, -p, weights)) == pytest.approx(
            float(value), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("d,p,weights,value", _THREE_WEIGHT_VALUES)
    def test_recorded_integral_against_mpmath(self, d, p, weights, value):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            assert abs(_three_weight_integral(mpmath, d, p, weights) - mpmath.mpf(value)) < 1e-22

    @pytest.mark.parametrize("d,p,weights,bits", [
        (4, 1.5, (1.0, 0.3001), "0x1.fb96b6f4d64b9p-1"),
        (4, 2.5, (1.0, 0.2, 0.1001), "0x1.020eb50be60bep+0"),
        (8, 6.0, (1.0, 0.1, 0.1, 0.1001), "0x1.000000000009ep+0"),
    ])
    def test_just_above_rho_max_keeps_quadrature_bits(self, d, p, weights, bits, monkeypatch):
        def no_series(*args):
            raise AssertionError("the series ran above _RHO_MAX")

        monkeypatch.setattr(quad, "_dominant_series", no_series)
        assert product_moment(MomentQuery(d, -p, weights)).hex() == bits

    def test_rho_max_takes_series(self, monkeypatch):
        calls = []
        series = quad._dominant_series
        monkeypatch.setattr(quad, "_dominant_series", lambda *a: calls.append(a) or series(*a))
        val = product_moment(MomentQuery(4, -1.5, (1.0, 0.3)))
        assert len(calls) == 1 and calls[0][3] == quad._RHO_MAX
        assert val == pytest.approx(float(_two_coeff_moment(4, -1.5, 1.0, 0.3)), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("d,p", [(150, 45.0), (200, 100.0), (400, 200.0)])
    def test_high_order_coefficients_counted(self, d, p):
        # below k = -beta the coefficients of the series grow: K = 17 from rho alone left
        # (150, 45), (200, 100) and (400, 200) 2.8e-13, 2.1e-10 and 2.2e-3 off the 2F1
        val = product_moment(MomentQuery(d, -p, (1.0, 0.3)))
        assert val == pytest.approx(float(_two_coeff_moment(d, -p, 1.0, 0.3)), rel=1e-12, abs=0.0)


class TestEnvelope:
    @pytest.mark.parametrize("nu,x0", [
        *[pytest.param(nu, 2.0 * nu if nu > 0.5 else 0.0, id=repr(nu))
          for nu in (0.0, 0.5, 1.0, 1.5, 3.0)],
        pytest.param(1.0, _middle_plan()[3], id="1.0-F-tail")])
    def test_envelope_bounds_jj(self, nu, x0):
        # the inequality _envelope_cut rests on, |jj_nu(x)| <= C x^(-nu-1/2) for x >= x0,
        # at its x0 = 2 nu (0 for nu <= 1/2), and F's tail bound at nu = 1, x0 = T ~ 47.9
        mpmath = pytest.importorskip("mpmath")
        c = _bessel_envelope(nu, x0)
        x = np.linspace(max(x0, 1e-3), 3000.0, 600_001)
        ratio = np.abs(_jj_vec(nu, x)) * x ** (nu + 0.5) / c
        assert ratio.max() <= 1.0 + 1e-12
        # in mpmath: the first 20 units of the grid, and every local maximum
        # of the ratio on it, where the envelope is tightest
        peaks = np.flatnonzero((ratio[1:-1] >= ratio[:-2]) & (ratio[1:-1] >= ratio[2:])) + 1
        norm = mpmath.mpf(2) ** nu * mpmath.gamma(nu + 1)
        for t in np.concatenate([x[:4000:10], x[peaks]]):
            t = mpmath.mpf(t)
            assert abs(norm * mpmath.besselj(nu, t)) * mpmath.sqrt(t) <= c


class TestCertified:
    @pytest.mark.parametrize("p,s,m,plan", [
        (1.0, 8.0 / 3.0, 100, "table2"),
        (1.9, 8.0 / 3.0, 100, "table2"),
        (0.2, 1.3, 200, "table3"),
        (0.02, 1.3, 200, "table3"),
    ])
    def test_upper_bound_holds(self, p, s, m, plan):
        # the public forms the tables print: log(e^(p/6) 2^(1-p) F) and p F,
        # built with m subdivisions per unit
        f = F(IP(p, s))
        if plan == "table2":
            assert _M_S83 == m
            assert table2_log_bound(p) >= math.log(f) + p / 6.0 + (1.0 - p) * math.log(2.0)
        else:
            assert _M_S13 == m
            assert table3_scaled_bound(p) >= p * f

    @pytest.mark.parametrize("upper,s,ps", [
        (_table2_F_upper, 8.0 / 3.0, np.linspace(0.8, 2.0, 25)),
        (_table3_F_upper, 1.3, np.geomspace(1e-3, 0.25, 25)),
        (_tilde_F_upper, 8.0 / 3.0, np.linspace(2.0, 2.99, 25)),
    ], ids=["table2", "table3", "interpolation_tilde"])
    def test_upper_bound_holds_on_p_range(self, upper, s, ps):
        # smallest relative slacks: 1.1e-2 (Table 2), 8.6e-6 (Table 3),
        # 3.6e-2 (interpolation~, 3.5e-2 in log)
        for p in ps:
            assert upper(p) > F(IP(p, s))

    def test_plan_domains(self):
        with pytest.raises(DomainError):
            table2_log_bound(0.5)
        with pytest.raises(DomainError):
            table3_scaled_bound(0.5)

    def test_derivative_sup_below_paper_constant(self):
        # the sampled max of |d/dt |jj_1|^1.3| on [5, 10], times 1.05, stays below the
        # 0.06 of Table 3's midpoint scheme; a sampled max, not a rigorous enclosure
        s, t = 1.3, np.linspace(5.0, 10.0, 8001)
        deriv = s * np.abs(_jj_vec(1.0, t)) ** (s - 1.0) * np.abs(jj1_prime(t))
        assert float(np.max(deriv) * 1.05) < 0.06


class TestEq23:
    def test_exponential_inequality(self):
        # e^(-p(s-2)/4) <= s^(-p/2) 2^(p/2) for s >= 2, p > 0
        for p in np.linspace(0.1, 3.0, 12):
            for s in np.linspace(2.0, 12.0, 30):
                assert math.exp(-p * (s - 2.0) / 4.0) <= s ** (-p / 2.0) * 2.0 ** (p / 2.0) + 1e-15


T_TAIL = quad._middle_plan()[3]
NAN = math.nan
# each invalid input, alone and in a batch whose first bad lane is not lane 0, with the error
# class and message the entry checks give
ENTRY_ERRORS = [
    (lambda: IP(NAN, 2.0), DomainError, "p and s must be finite, got p=nan, s=2.0"),
    (lambda: IP(0.0, 2.0), DomainError, "p must be positive, got 0.0"),
    (lambda: IP(1.0, 0.5), DomainError, "s must be >= 1, got 0.5"),
    (lambda: IP(np.array([1.0, 0.5, -1.0, NAN]), np.array([2.0, 2.0, 0.5, 2.0])), DomainError,
     "p and s must be finite, got p=nan, s=2.0"),
    (lambda: IP(np.array([1.0, 0.5, -1.0, 2.0]), np.array([2.0, 0.5, 2.0, 2.0])), DomainError,
     "p must be positive, got -1.0"),
    (lambda: IP(np.array([1.0, 0.5, 1.0]), np.array([2.0, 2.0, 0.9])), DomainError,
     "s must be >= 1, got 0.9"),
    (lambda: F(IP(3.0, 2.0)), DivergenceError, "F diverges for p=3.0 >= 3s/2=3.0"),
    (lambda: F(IP(np.array([1.0, 2.0, 3.5, 4.0]), 2.0)), DivergenceError,
     "F diverges for p=3.5 >= 3s/2=3.0"),
    (lambda: F(IP(224.0, 150.0)), DomainError, "F(p=224.0, s=150.0) is out of reach: beyond the"
     " float range, or the tail is needed and s > 141"),
    (lambda: F(IP(np.array([1.0, 224.0, 239.0]), np.array([2.0, 150.0, 160.0]))), DomainError,
     "F(p=224.0, s=150.0) is out of reach: beyond the float range, or the tail is needed and s > 141"),
    (lambda: H(IP(3.0, 2.5)), DomainError, "H requires 0 < p < 3 and s > 1, got IntegralParams(p=3.0, s=2.5)"),
    (lambda: H(IP(1.0, 1.0)), DomainError, "H requires 0 < p < 3 and s > 1, got IntegralParams(p=1.0, s=1.0)"),
    (lambda: H(IP(np.array([1.0, 2.0, 3.5]), 3.0)), DomainError,
     "H requires 0 < p < 3 and s > 1, got IntegralParams(p=3.5, s=3.0)"),
    (lambda: H(IP(np.array([1.0, 2.0, 2.9]), np.array([2.0, 1.2, 1.5]))), DivergenceError,
     "F diverges for p=2.0 >= 3s/2=1.7999999999999998"),
    (lambda: osc.tail_abs_pow(NAN, 2.0, T_TAIL), DomainError,
     "tail_abs_pow needs finite p and s, got p=nan, s=2.0"),
    (lambda: osc.tail_abs_pow(3.0, 2.0, T_TAIL), DomainError,
     "tail diverges: p=3.0 >= 3s/2=3.0, or p - 1 - 3s/2 = -1.0 is not below -1 in floats"),
    (lambda: osc.tail_abs_pow(1.0, 150.0, T_TAIL), DomainError,
     "the |jj_1|^s tail kernel supports s <= 141, got s=150.0"),
    (lambda: osc.tail_abs_pow(np.array([1.0, 0.5, NAN]), 2.0, T_TAIL), DomainError,
     "tail_abs_pow needs finite p and s, got p=array([1. , 0.5, nan]), s=2.0"),
    (lambda: osc.tail_abs_pow(np.array([1.0, 0.5, 3.5, 4.0]), 2.0, T_TAIL), DomainError,
     "tail diverges: p=3.5 >= 3s/2=3.0, or p - 1 - 3s/2 = -0.5 is not below -1 in floats"),
    (lambda: osc.tail_abs_pow(1.0, np.array([2.0, 2.0, 150.0]), T_TAIL), DomainError,
     "the |jj_1|^s tail kernel supports s <= 141, got s=array([  2.,   2., 150.])"),
]


@pytest.mark.parametrize("call,error,message", ENTRY_ERRORS)
def test_entry_check_names_the_first_bad_lane(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


class TestTypes:
    def test_integral_params_validation(self):
        for p, s in ((-1.0, 2.0), (1.0, 0.5), (1.0, math.inf), (1.0, math.nan),
                     (math.inf, 2.0), (math.nan, 2.0)):
            with pytest.raises(DomainError):
                IP(p, s)

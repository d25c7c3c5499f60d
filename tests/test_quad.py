import math

import numpy as np
import pytest

from khinsphere import oscillatory as osc
from khinsphere.constants import C2, MomentQuery, normalizers
from khinsphere.errors import DivergenceError, DomainError, ToleranceError
from khinsphere.oscillatory import _panel_quad
from khinsphere.quad import (
    _CUT_REL,
    _M_S13,
    _M_S83,
    _bessel_envelope,
    _envelope_cut,
    _head_product,
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
from khinsphere.specfun import _jj_vec, gamma, hyp2f1

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
        # s^(p/2) F(p, s) -> int_0^inf e^(-t^2/8) t^(p-1) dt = 2^(3p/2-1) Gamma(p/2)
        s = 1e4
        limit = 2.0 ** (3 * 0.25 - 1.0) * gamma(0.25)
        assert s**0.25 * F(IP(0.5, s)) == pytest.approx(limit, abs=1e-3)

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
        from khinsphere.quad import _arch_head, _panel_quad
        from khinsphere.specfun import jj1

        def smooth(v):
            return jj1(0.5 * v ** (1.0 / p) / math.sqrt(s)) ** s * 0.5**p / p

        oracle = _panel_quad(smooth, np.linspace(0.0, 1.0, 80), order=24)
        assert _arch_head(p, s) == pytest.approx(oracle, rel=1e-11)


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
        if _envelope_cut(amps, d / 2.0 - 1.0, p, _CUT_REL / kappa) < max(46.0, 25.0 / amps[-1]):
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
    T_env = _envelope_cut(amps, nu, p, _CUT_REL / kappa)
    cut = T_env < T_full
    T = max(T_env, 1.0) if cut else T_full

    def integrand(t):
        acc = t ** (p - 1.0)
        for a in amps:
            acc = acc * _jj_vec(nu, a * t)
        return acc

    n_panels = math.ceil((T - 1.0) / min(2.0, math.pi / (2.0 * amps[0])))
    middle = _panel_quad(integrand, np.linspace(1.0, T, n_panels + 1), order=24)
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
        # the tail's Hankel expansion holds only for t >> nu^2, so it starts at nu^2/2 from
        # d = 22 on; starting at 46 left d = 40 2.4e-9 and d = 62 8.0e-2 off the 2F1
        for b in (1.0, 0.95, 0.7, 0.3, 0.05):
            for p in (0.5, 1.0, 2.0, 3.5):
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
        T_env = _envelope_cut(amps, nu, p, _CUT_REL / kappa)
        T_asym = max(46.0, 25.0 / amps[-1])
        assert T_env < T_asym

        def integrand(t):
            return t ** (p - 1.0) * np.prod([_jj_vec(nu, a * t) for a in amps], axis=0)

        def panels(lo, hi):
            n = math.ceil((hi - lo) / min(2.0, math.pi / (2.0 * amps[0])))
            return float(_panel_quad(integrand, np.linspace(lo, hi, n + 1), order=24))

        tail = osc.tail_product(amps, nu, p, T_asym)
        dropped = panels(T_env, T_asym) + tail
        assert abs(dropped) <= _CUT_REL / kappa
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


class TestEnvelope:
    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5, 3.0])
    def test_envelope_bounds_jj(self, nu):
        # the inequality _envelope_cut rests on: |jj_nu(x)| <= C x^(-nu-1/2) for x >= x0
        mpmath = pytest.importorskip("mpmath")
        c, x0 = _bessel_envelope(nu)
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
        # sup_{[5,10]} |d/dt |jj_1|^1.3| is re-derived numerically and must
        # stay below the 0.06 used by the midpoint scheme
        from khinsphere.quad import _deriv_sup_abs_pow
        assert _deriv_sup_abs_pow(1.3) < 0.06


class TestEq23:
    def test_exponential_inequality(self):
        # e^(-p(s-2)/4) <= s^(-p/2) 2^(p/2) for s >= 2, p > 0
        for p in np.linspace(0.1, 3.0, 12):
            for s in np.linspace(2.0, 12.0, 30):
                assert math.exp(-p * (s - 2.0) / 4.0) <= s ** (-p / 2.0) * 2.0 ** (p / 2.0) + 1e-15


class TestTypes:
    def test_integral_params_validation(self):
        for p, s in ((-1.0, 2.0), (1.0, 0.5), (1.0, math.inf), (1.0, math.nan),
                     (math.inf, 2.0), (math.nan, 2.0)):
            with pytest.raises(DomainError):
                IP(p, s)

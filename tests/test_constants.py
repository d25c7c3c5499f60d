import math

import numpy as np
import pytest

from khinsphere.constants import (
    C2,
    C_infty,
    D,
    MomentQuery,
    _closed_moment,
    _two_coeff_moment,
    best_constant_status,
    c_inf,
    c_two,
    normalizers,
)
from khinsphere.errors import DomainError, PoleError
from khinsphere.phase import h_tilde, q_star, verify_appendix_claims
from khinsphere.sample import ball_sphere_identity
from khinsphere.specfun import gamma, hyp2f1
from khinsphere.verify import verify_bisubharmonic, verify_two_coeff_bounds


class TestCTwo:
    def test_q2_is_one(self):
        for d in range(1, 11):
            assert c_two(d, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_d4_neg2(self):
        assert c_two(4, -2.0) == pytest.approx(2.0 ** -0.5, abs=1e-14)

    def test_d3_q1_gauss_sum_oracle(self):
        # ||(xi_1+xi_2)/sqrt(2)||_1 at d=3 from the 2F1 Gauss summation
        oracle = hyp2f1(-0.5, -1.0, 1.5, 1.0) / math.sqrt(2.0)
        assert c_two(3, 1.0) == pytest.approx(oracle, abs=1e-10)
        assert c_two(3, 1.0) == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, abs=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            c_two(4, 0.0)
        with pytest.raises(DomainError):
            c_two(4, -3.0)
        with pytest.raises(DomainError):
            c_two(4, 2.5)
        for q in (math.nan, np.array([1.0, math.nan])):
            with pytest.raises(DomainError, match="finite"):
                c_two(4, q)


class TestCInf:
    def test_q2_is_one(self):
        for d in range(1, 11):
            assert c_inf(d, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_d4_neg2(self):
        assert c_inf(4, -2.0) == pytest.approx(2.0 ** -0.5, abs=1e-14)

    def test_d1_q1(self):
        # first absolute moment of a standard Gaussian
        assert c_inf(1, 1.0) == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            c_inf(3, -3.0)
        with pytest.raises(DomainError):
            c_inf(4, 0.0)
        for q in (math.nan, math.inf):
            with pytest.raises(DomainError, match="finite"):
                c_inf(4, q)


class TestC2Function:
    def test_at_two(self):
        assert C2(2.0) == pytest.approx(2.0, abs=1e-13)

    def test_small_p_limit(self):
        assert C2(1e-9) == pytest.approx(1.0, abs=1e-7)

    def test_defining_identity(self):
        # C2(p) = c_{4,2}(-p)^(-p)
        for p in (0.5, 1.7, 2.5):
            assert C2(p) == pytest.approx(c_two(4, -p) ** (-p), rel=1e-12, abs=0.0)

    def test_frozen_value(self):
        assert C2(2.5) == pytest.approx(3.7431185026040411, rel=1e-13, abs=0.0)

    def test_pole(self):
        with pytest.raises(DomainError):
            C2(3.0)
        with pytest.raises(PoleError):
            C2(3.0 - 1e-13)


class TestCInfty:
    def test_values(self):
        assert C_infty(2.0) == pytest.approx(2.0, abs=1e-13)
        assert C_infty(1e-9) == pytest.approx(1.0, abs=1e-7)
        assert C_infty(0.5) == pytest.approx(1.0929556960610713, rel=1e-13, abs=0.0)
        assert C_infty(0.5) == pytest.approx(2.0**0.25 * gamma(1.75), rel=1e-14, abs=0.0)

    def test_selection_ordering(self):
        # the worst case is Gaussian below p=2 and two-point above
        for p in np.linspace(0.02, 1.98, 100):
            assert C2(p) < C_infty(p)
        for p in np.linspace(2.02, 2.98, 100):
            assert C2(p) > C_infty(p)
        assert C2(2.0) == pytest.approx(C_infty(2.0), abs=1e-13)


class TestNormalizers:
    def test_kappa_example(self):
        assert normalizers(2.0, 4).kappa == pytest.approx(0.5, abs=1e-14)

    def test_kappa_is_K_times_sphere_area(self):
        for p, d in ((0.5, 3), (1.5, 4), (2.5, 6)):
            ns = normalizers(p, d)
            area = 2.0 * math.pi ** (d / 2.0) / gamma(d / 2.0)
            assert ns.kappa == pytest.approx(ns.K * area, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
    def test_beta_d3(self, p):
        # d=3 marginal of <e1, xi> is uniform on [-1,1]:
        # 1/beta = int_0^1 t^(-p) dt = 1/(1-p), checked by brute quadrature
        # (substitution t = v^4 removes the endpoint singularity)
        vs = (np.arange(200000) + 0.5) / 200000
        brute = float(np.mean(vs ** (-4.0 * p) * 4.0 * vs**3))
        beta = normalizers(p, 3).beta
        assert 1.0 / beta == pytest.approx(1.0 / (1.0 - p), rel=1e-12, abs=0.0)
        assert 1.0 / beta == pytest.approx(brute, rel=1e-6)

    @pytest.mark.parametrize("p,d", [(0.3, 1), (0.5, 3), (0.999, 4), (1.0, 4), (1.5, 4),
                                     (2.5, 6), (7.25, 10)])
    def test_equal_to_scalar_gamma_formulas(self, p, d):
        # one array gamma call gives the bits of the scalar calls it replaces
        ns = normalizers(p, d)
        assert ns.K == (2.0 ** (-p) * math.pi ** (-d / 2.0) * gamma((d - p) / 2.0)
                        / gamma(p / 2.0))
        assert ns.kappa == (2.0 ** (1.0 - p) * gamma((d - p) / 2.0)
                            / (gamma(d / 2.0) * gamma(p / 2.0)))
        if p < 1.0:
            assert ns.beta == (math.sqrt(math.pi) * gamma((d - p) / 2.0)
                               / (gamma((1.0 - p) / 2.0) * gamma(d / 2.0)))
        else:
            assert ns.beta is None

    def test_beta_d1(self):
        assert normalizers(0.5, 1).beta == pytest.approx(1.0, abs=1e-13)

    def test_beta_outside_domain_is_none(self):
        assert normalizers(1.5, 4).beta is None

    def test_all_positive_on_domain(self):
        for d in (2, 3, 4, 6, 10):
            for p in np.linspace(0.05, d - 0.05, 25):
                ns = normalizers(float(p), d)
                assert ns.K > 0 and ns.kappa > 0
                if p < 1.0:
                    assert ns.beta > 0

    def test_domain(self):
        with pytest.raises(DomainError):
            normalizers(4.0, 4)

    @pytest.mark.parametrize("p,d", [(1.0, 400), (0.5, 400), (2.0, 360)])
    def test_non_finite_constant_raises(self, p, d):
        # K = inf and kappa = NaN (and beta = NaN at p = 0.5) were returned without an error
        with pytest.raises(DomainError, match="kappa"):
            normalizers(p, d)

    def test_kappa_underflow_is_a_value(self):
        # Gamma(d/2) alone overflows: kappa is 0, which product_moment rejects itself
        ns = normalizers(1.0, 344)
        assert ns.kappa == 0.0 and math.isfinite(ns.K)


class TestD:
    def test_at_two(self):
        assert D(2.0) == pytest.approx(1.0, abs=1e-13)

    def test_legendre_duplication(self):
        # D(p) = 2^(2x-1) Gamma(x) / (sqrt(pi) Gamma(x+1/2) Gamma(x+3/2)), x = (3-p)/2
        for p in (2.1, 2.5, 2.9):
            x = (3.0 - p) / 2.0
            alt = 2.0 ** (2 * x - 1) * gamma(x) / (math.sqrt(math.pi) * gamma(x + 0.5) * gamma(x + 1.5))
            assert D(p) == pytest.approx(alt, rel=1e-12, abs=0.0)

    def test_pole_guard(self):
        with pytest.raises(PoleError):
            D(3.0 - 1e-13)
        with pytest.raises(DomainError):
            D(1.9)

    def test_log_convex_increasing(self):
        ps = np.linspace(2.0, 3.0 - 1e-6, 200)
        logd = np.log([D(float(p)) for p in ps])
        first = np.diff(logd)
        assert np.all(first > 0)
        second = np.diff(first)
        assert np.all(second >= -1e-10)


class TestMomentQuery:
    def test_validation(self):
        q = MomentQuery(4, -2.5, (1.0, 1.0))
        assert q.norm == pytest.approx(math.sqrt(2.0))
        with pytest.raises(DomainError):
            MomentQuery(4, -3.5, (1.0,))
        with pytest.raises(DomainError):
            MomentQuery(4, 0.0, (1.0,))
        with pytest.raises(DomainError):
            MomentQuery(4, -1.0, (0.0, 0.0))
        with pytest.raises(DomainError):
            MomentQuery(0, -1.0, (1.0,))
        for d, q, coeffs in [(1, math.nan, (1.0,)), (4, math.inf, (1.0,)),
                             (4, -1.0, (math.nan, 1.0)), (4, -1.0, (1.0, -math.inf))]:
            with pytest.raises(DomainError, match="finite"):
                MomentQuery(d, q, coeffs)


class TestNorm:
    @pytest.mark.parametrize("coeffs", [(0.6, 0.8), (1.0, 2.5e-4), (3.0, -1e-200, 7.5), (1e150,)])
    def test_summed_as_it_stands_in_the_normal_range(self, coeffs):
        assert MomentQuery(4, -1.0, coeffs).norm == math.sqrt(sum(a * a for a in coeffs))

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e300])
    def test_scaled_by_the_largest_weight_elsewhere(self, scale):
        # sum a_k^2 underflowed to 0 (a bare ZeroDivisionError in product_moment) or
        # overflowed to inf (every weight dropped)
        norm = MomentQuery(4, -1.0, (scale, -scale, 0.0, scale)).norm
        assert norm == pytest.approx(math.sqrt(3.0) * scale, rel=1e-15)

    def test_above_the_largest_float(self):
        with pytest.raises(DomainError, match="norm is above the largest float"):
            MomentQuery(4, -1.0, (1.5e308, 1.5e308)).norm


class TestClosedMoment:
    def test_routes_by_nonzero_weights(self):
        assert _closed_moment(MomentQuery(4, -2.5, (0.0, -0.5))) == (0.5 ** -2.5, "exact")
        pair = _closed_moment(MomentQuery(4, -2.5, (0.6, 0.0, -0.8)))
        assert pair == (float(_two_coeff_moment(4, -2.5, 0.6, 0.8)), "hypergeometric")
        assert _closed_moment(MomentQuery(4, -2.5, (0.6, 0.8, 1e-300))) is None

    def test_tiny_weight_counts(self):
        # no cut: a 1e-13 partner makes a pair, whose moment at d = 4, q = -2 is
        # 1/max^2 exactly (Newton's theorem)
        assert _closed_moment(MomentQuery(4, -2.0, (1.0, 1e-13))) == (1.0, "hypergeometric")
        assert _closed_moment(MomentQuery(4, -2.0, (-2.0, 1e-13))) == (0.25, "hypergeometric")

    @pytest.mark.parametrize("q,coeffs", [(-1.5, (1e-300, 1e-300)), (2.0, (1e300, 1.0)),
                                          (-1.5, (1e-300,))])
    def test_above_the_largest_float(self, q, coeffs):
        # the first two returned inf with an overflow warning
        with pytest.raises(DomainError, match="above the largest float"):
            _closed_moment(MomentQuery(4, q, coeffs))

    def test_power_in_logs_where_it_alone_leaves_the_range(self):
        # M^q = 1e-320 is subnormal, the 2F1 7.7e27: the product, 7.7e-293, a normal float,
        # had the subnormal's 5 digits
        mpmath = pytest.importorskip("mpmath")
        a = 10.0 ** -3.2
        got = _closed_moment(MomentQuery(4, 100.0, (a, a)))[0]
        exact = mpmath.mpf(a) ** 100 * float(_two_coeff_moment(4, 100.0, 1.0, 1.0))
        assert got == pytest.approx(float(exact), rel=1e-13)


# every entry point that takes a dimension requires a positive integer, so a finite one:
# at d = inf each returned NaN, a report or a bare error, and at 4.5 or 5.5 a report
DIMENSION_CALLS = {
    "MomentQuery-inf": lambda: MomentQuery(math.inf, -1.0, (1.0, 0.5)),
    "c_two-inf": lambda: c_two(math.inf, 1.0),
    "c_inf-inf": lambda: c_inf(math.inf, 1.0),
    "h_tilde-inf": lambda: h_tilde(math.inf, 1.0),
    "h_tilde-4.5": lambda: h_tilde(4.5, 1.0),
    "q_star-inf": lambda: q_star(math.inf),
    "ball_sphere_identity-inf": lambda: ball_sphere_identity(math.inf, 1.0, (1.0, 0.5), 10),
    "verify_two_coeff_bounds-inf": lambda: verify_two_coeff_bounds(math.inf, 1.0),
    "verify_two_coeff_bounds-4.5": lambda: verify_two_coeff_bounds(4.5, 1.0),
    "verify_bisubharmonic-inf": lambda: verify_bisubharmonic(math.inf, 1.0),
    "verify_bisubharmonic-5.5": lambda: verify_bisubharmonic(5.5, 1.0),
    "verify_appendix_claims-inf": lambda: verify_appendix_claims(math.inf),
    "verify_appendix_claims-5.5": lambda: verify_appendix_claims(5.5),
}


@pytest.mark.parametrize("call", DIMENSION_CALLS.values(), ids=DIMENSION_CALLS.keys())
def test_dimension_must_be_a_positive_integer(call):
    with pytest.raises(DomainError, match="dimension must be a positive integer"):
        call()


class TestStatus:
    def test_nan_q(self):
        with pytest.raises(DomainError):
            best_constant_status(4, math.nan)

    def test_known_ranges(self):
        assert best_constant_status(4, -2.5) == "proven"
        assert best_constant_status(2, -0.5) == "conjectural"
        assert best_constant_status(3, -1.5) == "conjectural"
        assert best_constant_status(5, -0.5) == "proven"
        assert best_constant_status(5, -2.0) == "conjectural"
        assert best_constant_status(7, -3.0) == "proven"
        assert best_constant_status(7, -5.0) == "conjectural"

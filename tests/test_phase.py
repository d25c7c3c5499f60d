import math

import numpy as np
import pytest

from khinsphere import phase as P
from khinsphere.constants import c_inf, c_two
from khinsphere.errors import DomainError, ToleranceError

# high-precision roots of c_two = c_inf, frozen from an independent
# 40-digit bisection of the same closed forms
ROOTS = {
    1: 1.84741633608,
    2: 0.475617008932,
    3: -0.793371401597,
    4: -2.0,
    5: -3.16336853049,
    6: -4.29497260052,
    8: -6.49116462332,
    12: -10.723510269,
}


class TestQStar:
    @pytest.mark.parametrize("d", sorted(ROOTS))
    def test_roots(self, d):
        r = P.q_star(d)
        assert r.q_star == pytest.approx(ROOTS[d], abs=2e-9)
        assert r.residual <= 1e-10
        assert r.bracket[0] < r.q_star < r.bracket[1]

    def test_d4_exact(self):
        assert abs(P.q_star(4).q_star + 2.0) < 1e-9

    def test_d1_flags_paper_discrepancy(self):
        # the two printed values differ (1.84.. in the text, 1.82.. in the
        # table); the computed root matches the former
        root = P.q_star(1).q_star
        assert 1.8 < root < 1.9
        assert abs(root - 1.84) < abs(root - 1.82)

    def test_unique_sign_change_d1_to_12(self):
        for d in range(1, 13):
            assert len(P.scan_sign_changes(d)) == 1

    def test_high_dim_bracket(self):
        # q_d* in (-(d-1), -(d-2)) for d >= 5
        for d in range(5, 13):
            q = P.q_star(d).q_star
            assert -(d - 1) < q < -(d - 2)

    def test_large_d(self):
        r = P.q_star(55)
        alpha = (r.q_star + 54.0) / 2.0
        assert 0 < alpha < 1e-3

    @pytest.mark.parametrize("tol", [1e-3, 1e-6])
    def test_loose_tol_raises_tolerance_error(self, tol):
        # the bracket shrinks only to ~tol, leaving a residual above 1e-10
        with pytest.raises(ToleranceError, match="residual"):
            P.q_star(4, tol=tol)

    def test_result_invariants(self):
        with pytest.raises(ValueError):
            P.PhaseTransitionResult(4, -2.0, (-2.1, -2.05), 0.0, 10)
        with pytest.raises(ValueError):
            P.PhaseTransitionResult(4, -2.0, (-2.1, -1.9), 1e-5, 10)


class TestHTilde:
    @pytest.mark.parametrize("d", [5, 8, 12])
    def test_zero_at_right_endpoint(self, d):
        assert abs(P.h_tilde(d, (d - 1) / 2.0)) < 1e-9

    def test_negative_at_half(self):
        assert P.h_tilde(5, 0.5) < 0

    def test_blows_up_at_zero(self):
        assert P.h_tilde(5, 1e-8) > 10.0

    def test_consistency_with_h_d(self):
        for d, q in ((7, -3.0), (5, -3.5), (10, -1.0)):
            x = (q + d - 1.0) / 2.0
            assert P.h_d(d, q) == pytest.approx(P.h_tilde(d, x), abs=1e-12)

    def test_sign_opposite_to_constant_gap(self):
        # for q < 0 the sign of h_d is opposite to sign(c_two - c_inf)
        for d in (5, 7):
            for q in (-0.5, -2.0, -(d - 1) + 0.05):
                gap = c_two(d, q) - c_inf(d, q)
                assert np.sign(P.h_d(d, q)) == -np.sign(gap)

    def test_convexity_floor(self):
        # second divided differences of h_tilde on (0,1) stay above 0.06
        for d in (5, 10, 20):
            xs = np.linspace(1e-3, 1.0 - 1e-3, 200)
            vals = P.h_tilde(d, xs)
            h = xs[1] - xs[0]
            second = np.diff(vals, 2) / h**2
            assert np.min(second) > 0.06 * (1.0 - 1e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            P.h_tilde(5, 0.0)
        with pytest.raises(DomainError):
            P.h_tilde(1, 0.3)


class TestClaims:
    @pytest.mark.parametrize("d", [5, 20])
    def test_pass(self, d):
        r = P.verify_appendix_claims(d)
        assert r.passed

    def test_analytic_floor(self):
        assert 5.0 - math.pi**2 / 2.0 == pytest.approx(0.0652, abs=1e-4)
        assert 5.0 - math.pi**2 / 2.0 > 0.06

    def test_domain(self):
        with pytest.raises(DomainError):
            P.verify_appendix_claims(4)


class TestAsymptotics:
    def test_alpha5(self):
        r = P.q_star(5)
        alpha = (r.q_star + 4.0) / 2.0
        assert alpha == pytest.approx(0.42, abs=0.005)

    def test_slope(self):
        r = P.asymptotic_check(range(20, 61, 5))
        assert r.passed
        assert "slope" in r.region

    def test_domain(self):
        with pytest.raises(DomainError):
            P.asymptotic_check([3, 20, 40])

import math

import numpy as np
import pytest

from khinsphere import phase as P
from khinsphere.constants import c_inf, c_two
from khinsphere.errors import DomainError, MultipleRootsError, NoBracketError, ToleranceError
from khinsphere.specfun import log_gamma

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

# float.hex of q_star(d)'s root, iterations and bracket for d = 1..60, recorded from a
# bisection of each d on its own; the batched solver must reproduce them bit for bit
PINNED = {
    1: ("0x1.d8f046e98b74bp+0", 34, "0x1.d74bc6a7ef9d9p+0", "0x1.d9db22d0e5602p+0"),
    2: ("0x1.e708252b23970p-2", 34, "0x1.e24dd2f1a9fd6p-2", "0x1.ec8b43958107ap-2"),
    3: ("-0x1.9634c6bee167fp-1", 34, "-0x1.9916872b020bcp-1", "-0x1.93f7ced91686ap-1"),
    4: ("-0x1.00000000000b4p+1", 34, "-0x1.0126e978d500fp+1", "-0x1.ffbe76c8b43f6p+0"),
    5: ("-0x1.94e9428fd0ae9p+1", 34, "-0x1.95a1cac08314fp+1", "-0x1.945a1cac0833bp+1"),
    6: ("-0x1.12e0d4c21c052p+2", 34, "-0x1.1322d0e560429p+2", "-0x1.127ef9db22d1fp+2"),
    7: ("-0x1.59c1bd29e5f08p+2", 34, "-0x1.5a2d0e5604197p+2", "-0x1.5989374bc6a8dp+2"),
    8: ("-0x1.9f6f3dbe882dep+2", 34, "-0x1.9fef9db22d0f1p+2", "-0x1.9f4bc6a7ef9e7p+2"),
    9: ("-0x1.e42963ce766b2p+2", 34, "-0x1.e46a7ef9db237p+2", "-0x1.e3c6a7ef9db2dp+2"),
    10: ("-0x1.14101271695eap+3", 34, "-0x1.1420c49ba5e3ap+3", "-0x1.13ced916872b5p+3"),
    11: ("-0x1.35bc16277abaap+3", 34, "-0x1.360c49ba5e358p+3", "-0x1.35ba5e353f7d3p+3"),
    12: ("-0x1.5726ff01fb5e6p+3", 34, "-0x1.5753f7ced916cp+3", "-0x1.57020c49ba5e7p+3"),
    13: ("-0x1.785c0bb6bd49ep+3", 34, "-0x1.789ba5e353f80p+3", "-0x1.7849ba5e353fbp+3"),
    14: ("-0x1.996436492149cp+3", 34, "-0x1.99916872b020fp+3", "-0x1.993f7ced9168ap+3"),
    15: ("-0x1.ba46bc9ab7210p+3", 34, "-0x1.ba872b020c49ep+3", "-0x1.ba353f7ced919p+3"),
    16: ("-0x1.db09843ffa68ap+3", 34, "-0x1.db2b020c49ba8p+3", "-0x1.dad916872b023p+3"),
    17: ("-0x1.fbb164b491b02p+3", 34, "-0x1.fbced916872b2p+3", "-0x1.fb7ced916872dp+3"),
    18: ("-0x1.0e212fa7293e2p+4", 34, "-0x1.0e395810624d8p+4", "-0x1.0e10624dd2f15p+4"),
    19: ("-0x1.1e5fe4fa4f85cp+4", 34, "-0x1.1e624dd2f1a9bp+4", "-0x1.1e395810624d8p+4"),
    20: ("-0x1.2e96380d90e22p+4", 34, "-0x1.2eb4395810621p+4", "-0x1.2e8b43958105ep+4"),
    21: ("-0x1.3ec5563d48154p+4", 34, "-0x1.3edd2f1a9fbe4p+4", "-0x1.3eb4395810621p+4"),
    22: ("-0x1.4eee3ea84e906p+4", 34, "-0x1.4f0624dd2f1a7p+4", "-0x1.4edd2f1a9fbe4p+4"),
    23: ("-0x1.5f11ca3a73488p+4", 34, "-0x1.5f2f1a9fbe76ap+4", "-0x1.5f0624dd2f1a7p+4"),
    24: ("-0x1.6f30b21cbd718p+4", 34, "-0x1.6f5810624dd2dp+4", "-0x1.6f2f1a9fbe76ap+4"),
    25: ("-0x1.7f4b94e789c38p+4", 34, "-0x1.7f5810624dd2dp+4", "-0x1.7f2f1a9fbe76ap+4"),
    26: ("-0x1.8f62fadbe3a4cp+4", 34, "-0x1.8f810624dd2f0p+4", "-0x1.8f5810624dd2dp+4"),
    27: ("-0x1.9f775958d4b92p+4", 34, "-0x1.9f810624dd2f0p+4", "-0x1.9f5810624dd2dp+4"),
    28: ("-0x1.af8915b5117bcp+4", 34, "-0x1.afa9fbe76c8b3p+4", "-0x1.af810624dd2f0p+4"),
    29: ("-0x1.bf98879c2f862p+4", 34, "-0x1.bfa9fbe76c8b3p+4", "-0x1.bf810624dd2f0p+4"),
    30: ("-0x1.cfa5fb07a05d0p+4", 34, "-0x1.cfa9fbe76c8b3p+4", "-0x1.cf810624dd2f0p+4"),
    31: ("-0x1.dfb1b1e6663e8p+4", 34, "-0x1.dfd2f1a9fbe76p+4", "-0x1.dfa9fbe76c8b3p+4"),
    32: ("-0x1.efbbe58270c38p+4", 34, "-0x1.efd2f1a9fbe76p+4", "-0x1.efa9fbe76c8b3p+4"),
    33: ("-0x1.ffc4c7af7752ep+4", 34, "-0x1.ffd2f1a9fbe76p+4", "-0x1.ffa9fbe76c8b3p+4"),
    34: ("-0x1.07e641e6614d7p+5", 34, "-0x1.07e978d4fdf3cp+5", "-0x1.07d4fdf3b645bp+5"),
    35: ("-0x1.0fe99fd0bc7b7p+5", 34, "-0x1.0ffdf3b645a1dp+5", "-0x1.0fe978d4fdf3cp+5"),
    36: ("-0x1.17ec8e0cc766ep+5", 34, "-0x1.17fdf3b645a1dp+5", "-0x1.17e978d4fdf3cp+5"),
    37: ("-0x1.1fef1af42aa47p+5", 34, "-0x1.1ffdf3b645a1dp+5", "-0x1.1fe978d4fdf3cp+5"),
    38: ("-0x1.27f1530a5d809p+5", 34, "-0x1.27fdf3b645a1dp+5", "-0x1.27e978d4fdf3cp+5"),
    39: ("-0x1.2ff341394d3ddp+5", 34, "-0x1.2ffdf3b645a1dp+5", "-0x1.2fe978d4fdf3cp+5"),
    40: ("-0x1.37f4ef05eee1dp+5", 34, "-0x1.37fdf3b645a1dp+5", "-0x1.37e978d4fdf3cp+5"),
    41: ("-0x1.3ff664bde4b8dp+5", 34, "-0x1.3ffdf3b645a1dp+5", "-0x1.3fe978d4fdf3cp+5"),
    42: ("-0x1.47f7a99f3033cp+5", 34, "-0x1.47fdf3b645a1dp+5", "-0x1.47e978d4fdf3cp+5"),
    43: ("-0x1.4ff8c3fac1fb5p+5", 34, "-0x1.4ffdf3b645a1dp+5", "-0x1.4fe978d4fdf3cp+5"),
    44: ("-0x1.57f9b9529a007p+5", 34, "-0x1.57fdf3b645a1dp+5", "-0x1.57e978d4fdf3cp+5"),
    45: ("-0x1.5ffa8e740ed27p+5", 34, "-0x1.5ffdf3b645a1dp+5", "-0x1.5fe978d4fdf3cp+5"),
    46: ("-0x1.67fb478ebdd79p+5", 34, "-0x1.67fdf3b645a1dp+5", "-0x1.67e978d4fdf3cp+5"),
    47: ("-0x1.6ffbe848938abp+5", 34, "-0x1.6ffdf3b645a1dp+5", "-0x1.6fe978d4fdf3cp+5"),
    48: ("-0x1.77fc73cf4b4d3p+5", 34, "-0x1.77fdf3b645a1dp+5", "-0x1.77e978d4fdf3cp+5"),
    49: ("-0x1.7ffcece7b9e6fp+5", 34, "-0x1.7ffdf3b645a1dp+5", "-0x1.7fe978d4fdf3cp+5"),
    50: ("-0x1.87fd55fb2a579p+5", 34, "-0x1.87fdf3b645a1dp+5", "-0x1.87e978d4fdf3cp+5"),
    51: ("-0x1.8ffdb1230b3dfp+5", 34, "-0x1.8ffdf3b645a1dp+5", "-0x1.8fe978d4fdf3cp+5"),
    52: ("-0x1.97fe003323233p+5", 34, "-0x1.97ff7ced91687p+5", "-0x1.97eb020c49ba6p+5"),
    53: ("-0x1.9ffe44c27b233p+5", 34, "-0x1.9fff7ced91687p+5", "-0x1.9feb020c49ba6p+5"),
    54: ("-0x1.a7fe803328e5dp+5", 34, "-0x1.a7ff7ced91687p+5", "-0x1.a7eb020c49ba6p+5"),
    55: ("-0x1.affeb3b91c7f7p+5", 34, "-0x1.afff7ced91687p+5", "-0x1.afeb020c49ba6p+5"),
    56: ("-0x1.b7fee06011473p+5", 34, "-0x1.b7ff7ced91687p+5", "-0x1.b7eb020c49ba6p+5"),
    57: ("-0x1.bfff0710bdad9p+5", 34, "-0x1.bfff7ced91687p+5", "-0x1.bfeb020c49ba6p+5"),
    58: ("-0x1.c7ff28955a191p+5", 34, "-0x1.c7ff7ced91687p+5", "-0x1.c7eb020c49ba6p+5"),
    59: ("-0x1.cfff459d93f03p+5", 34, "-0x1.cfff7ced91687p+5", "-0x1.cfeb020c49ba6p+5"),
    60: ("-0x1.d7ff5ec1ff7f9p+5", 34, "-0x1.d7ff7ced91687p+5", "-0x1.d7eb020c49ba6p+5"),
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

    def test_pinned_bits(self):
        for r in P._q_star_batch(range(1, 61)):
            root, iterations, lo, hi = PINNED[r.d]
            assert (r.q_star.hex(), r.iterations) == (root, iterations)
            assert (r.bracket[0].hex(), r.bracket[1].hex()) == (lo, hi)

    def test_scan_grid_equals_array_walk(self):
        # reference: the left-edge walk with every h_tilde taken on the array path;
        # d = 1 keeps its edge at 5e-4, q = 1e-3, with no walk
        for d in range(1, 61):
            x_left = 5e-4
            while d > 1 and P.h_tilde(d, np.array([x_left]))[0] <= 0 and x_left > 1e-9:
                x_left /= 4.0
            qs = np.arange(-(d - 1) + 2.0 * x_left, 2.0 - 1e-3, 0.01)
            ref = qs[np.abs(qs) > 1e-6]
            assert np.array_equal(P._scan_signs(d)[0].view(np.int64), ref.view(np.int64)), d

    def test_lattice_signs_equal_log_ratio(self):
        # every sign of every scan grid, not only at the brackets, against the q form
        # log c_two - log c_inf = h_d / q; about 0.7 s
        for d in range(1, 161):
            qs, sgn = P._scan_signs(d)
            assert np.array_equal(sgn, np.sign(P.h_d(d, qs) / qs)), d

    def test_one_table_per_left_edge(self):
        # d = 5..51 share the edge 5e-4 and d = 52..60 the edge 1.25e-4; each table holds
        # 200 (D+1) entries for its largest d, each the one log_gamma gives at that point
        lattices = P._lattices(range(5, 61))
        tables = dict(lattices)
        assert sorted(tables) == [1.25e-4, 5e-4]
        assert [x for x, _ in lattices] == [5e-4] * 47 + [1.25e-4] * 9
        assert all(t is tables[x] for x, t in lattices)
        assert sum(t.size for t in tables.values()) == 22_600
        for x, t in tables.items():
            ref = log_gamma(x + np.arange(t.size) / 200)  # one call over all k
            assert np.array_equal(t.view(np.int64), ref.view(np.int64))

    def test_reach_at_default_tol(self):
        results = P._q_star_batch(range(1, 80))
        assert [r.d for r in results] == list(range(1, 80))

    @pytest.mark.parametrize("d", [146, 2**40])
    def test_no_bracket_past_reach_builds_no_grid(self, d):
        # the left-edge walk finds no point left of the root; at d = 2**40 a scan
        # grid of 100 (d + 1) points would be an 800 TiB request
        assert len(P.scan_sign_changes(145)) == 1
        assert P.scan_sign_changes(d) == []
        with pytest.raises(NoBracketError, match=f"no sign change found for d={d}$"):
            P.q_star(d)

    def test_float_resolution_message(self):
        # at d = 120 no tol reaches the residual bound: the bracket is one float wide
        with pytest.raises(ToleranceError, match="out of reach at float resolution"):
            P.q_star(120, tol=1e-15)
        with pytest.raises(ToleranceError, match="use a smaller tol"):
            P.q_star(80)

    def test_float_wide_stop_keeps_root(self, monkeypatch):
        # below float resolution the bisection stops one float wide, after 43 steps
        # where it used to run 200, with the root it gave then
        seen = []
        bisect = P._bisect

        def spy(*args):
            seen.append(bisect(*args))
            return seen[-1]

        monkeypatch.setattr(P, "_bisect", spy)
        r = P.q_star(10, tol=1e-16)
        (a,), (b,), _ = seen[0]
        assert (r.q_star.hex(), r.iterations) == ("-0x1.1410127169606p+3", 43)
        assert b == np.nextafter(a, math.inf)

    def test_batch_equals_single(self):
        # both left edges, 5e-4 up to d = 51 and 1.25e-4 from d = 52, and the boundary
        ds = [1, 4, 7, 30, 51, 52, 60]
        assert P._q_star_batch(ds) == [P.q_star(d) for d in ds]
        assert P._q_star_batch([]) == []

    def test_non_integer_d(self):
        for d in (4.5, 0):
            with pytest.raises(DomainError):
                P.q_star(d)
            with pytest.raises(DomainError):
                P.scan_sign_changes(d)

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

    def test_array_d_is_log_ratio_times_q(self):
        # h_d / q = log c_two - log c_inf, with d broadcast against q like a scalar d
        ds, qs = np.array([2, 5, 12, 40]), np.array([0.3, -3.5, -1.0, -38.5])
        got = P.h_d(ds, qs)
        assert got.tolist() == [P.h_d(int(d), float(q)) for d, q in zip(ds, qs)]
        np.testing.assert_allclose(got / qs, np.log(c_two(ds, qs)) - np.log(c_inf(ds, qs)),
                                   rtol=1e-12, atol=1e-14)

    def test_stacked_log_gamma_equals_four_calls(self):
        # h_d's four log_gamma calls against one call on the four arguments stacked
        def stacked(d, q):
            args = np.stack(np.broadcast_arrays(d / 2.0, d + q - 1.0, (d + q) / 2.0,
                                                d + q / 2.0 - 1.0))
            half_d, twice_x, x_half, x_shift = log_gamma(args)
            return (-q * math.log(2.0) + q / 2.0 * np.log(d)
                    + 2.0 * half_d + twice_x - 2.0 * x_half - x_shift)

        ds, qs = np.arange(2, 62), np.linspace(-0.9, 1.9, 60) - np.arange(0, 60)
        assert np.array_equal(P.h_d(ds, qs), stacked(ds, qs))
        qs = np.linspace(-38.99, 1.99, 500)
        assert np.array_equal(P.h_d(40, qs), stacked(40, qs))
        assert P.h_d(7, -3.0) == float(stacked(7, -3.0))

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

    @pytest.mark.parametrize("d,q", [(4, math.inf), (math.inf, 1.0), (4, -math.inf),
                                     (4, math.nan), (np.array([4, 5]), np.array([1.0, math.inf]))])
    def test_h_d_non_finite_is_domain_error(self, d, q):
        # h_d(4, inf) and h_d(inf, 1) returned NaN with RuntimeWarnings
        with pytest.raises(DomainError, match="finite d and q"):
            P.h_d(d, q)

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

    def test_alphas_equal_q_star(self, monkeypatch):
        seen = {}
        make = P._make_report

        def spy(lemma_id, region, grid, *checks):
            # every check's points, in order, as tuples of floats
            seen["points"] = [pt for columns, m in checks for pt in zip(
                *(np.broadcast_to(c, np.shape(m)).ravel().tolist() for c in columns))]
            return make(lemma_id, region, grid, *checks)

        monkeypatch.setattr(P, "_make_report", spy)
        P.asymptotic_check(range(5, 61))
        # the fitted slope comes first, then (d, alpha_d) for d >= 10
        assert seen["points"][1:] == [(float(d), (P.q_star(d).q_star + d - 1.0) / 2.0)
                                      for d in range(10, 61)]

    def test_loose_tol_raises_tolerance_error(self, monkeypatch):
        batch = P._q_star_batch
        monkeypatch.setattr(P, "_q_star_batch", lambda ds, tol: batch(ds, tol=1e-3))
        with pytest.raises(ToleranceError, match=r"q_star\(d=5, tol=0.001\)"):
            P.asymptotic_check(range(5, 61))


def _no_bracket_at(bad, monkeypatch):
    scan = P._sign_changes
    monkeypatch.setattr(P, "_sign_changes", lambda d, lattice: [] if d == bad else scan(d, lattice))


class TestBatchErrors:
    """The batch raises what a loop of q_star over ascending d would raise first."""

    def test_no_bracket_inside_range(self, monkeypatch):
        _no_bracket_at(9, monkeypatch)
        with pytest.raises(NoBracketError, match="no sign change found for d=9$"):
            P._q_star_batch(range(5, 13))
        with pytest.raises(NoBracketError, match="d=9"):
            P.asymptotic_check(range(5, 61))

    def test_multiple_roots_inside_range(self, monkeypatch):
        scan = P._sign_changes
        monkeypatch.setattr(P, "_sign_changes",
                            lambda d, lattice: scan(d, lattice) * 2 if d == 7 else scan(d, lattice))
        with pytest.raises(MultipleRootsError, match="multiple sign changes for d=7: "):
            P._q_star_batch(range(5, 13))

    def test_earlier_tolerance_error_first(self, monkeypatch):
        # at tol = 1e-3 every d fails its residual; d = 5 comes before d = 9
        _no_bracket_at(9, monkeypatch)
        with pytest.raises(ToleranceError, match=r"q_star\(d=5, tol=0.001\)"):
            P._q_star_batch(range(5, 13), tol=1e-3)

    def test_earlier_scan_error_first(self, monkeypatch):
        _no_bracket_at(9, monkeypatch)
        with pytest.raises(NoBracketError, match="d=9"):
            P._q_star_batch(range(9, 13), tol=1e-3)

    def test_invalid_d_raises_before_any_scan(self, monkeypatch):
        # every d is checked before the scans, so an invalid d wins over an earlier bracket failure
        _no_bracket_at(9, monkeypatch)
        with pytest.raises(DomainError, match="positive integer"):
            P._q_star_batch([9, 4.5])

    def test_bad_tol(self):
        with pytest.raises(DomainError, match="tol must be positive"):
            P._q_star_batch(range(5, 8), tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tol(self, tol):
        with pytest.raises(DomainError, match="tol must be positive and finite"):
            P.q_star(4, tol=tol)

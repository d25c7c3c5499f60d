import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khinsphere import verify as V
from khinsphere.errors import DomainError


class TestReport:
    def test_invariant(self):
        with pytest.raises(ValueError):
            V.VerificationReport("x", "r", (1,), passed=True, min_margin=-1.0,
                                 witnesses=(((0.0,), -1.0),))

    def test_json_shape(self):
        r = V.verify_table2()
        d = r.to_dict()
        assert set(d) == {"lemma_id", "region", "grid", "passed", "min_margin", "witnesses"}
        assert isinstance(d["witnesses"], list)
        assert set(d["witnesses"][0]) == {"point", "margin"}
        json.dumps(d)  # serializable


class TestTangentChord:
    def test_constant_gap(self):
        # gap R - L is 1; the midpoint tangent sits (x-v)^2 below R, so the
        # endpoint margins are 1 - 1/4
        left, right = V._tangent_margins(lambda x: x * x, lambda x: 2.0 * x,
                                         lambda x: x * x - 1.0, (0.0, 1.0))
        assert np.allclose(left, 0.75, atol=1e-12) and np.allclose(right, 0.75, atol=1e-12)

    def test_analytic_derivative(self):
        left, right = V._tangent_margins(lambda x: x * x, lambda x: 2.0 * x,
                                         lambda x: x * x - 1.0, (0.0, 0.5, 1.0))
        assert min(left.min(), right.min()) == pytest.approx(1.0 - 1.0 / 16.0, abs=1e-12)

    def test_soundness_never_passes_crossing(self):
        # L above R at the midpoints: some endpoint margin must be negative
        left, right = V._tangent_margins(lambda x: x * x, lambda x: 2.0 * x,
                                         lambda x: x * x + 0.1, (0.0, 0.3, 0.6, 1.0))
        assert min(left.min(), right.min()) < 0


class TestPhi:
    def test_shape(self):
        phi = V.PhiFunction(1.0)
        assert phi(1.0) == pytest.approx(2.0**-0.5)
        # continuity at the reflection point
        assert phi(1.0 - 1e-12) == pytest.approx(phi(1.0 + 1e-12), abs=1e-10)
        xs = np.linspace(0.0, 5.0, 200)
        assert np.all(phi(xs) <= phi.phi(xs) + 1e-15)

    def test_example_midpoint(self):
        phi = V.PhiFunction(1.0)
        assert 0.5 * (phi(0.2) + phi(1.4)) <= phi(0.8)


class TestPhiHypothesis:
    @given(st.floats(min_value=0.05, max_value=5.0), st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_phi_below_unreflected(self, p, x):
        phi = V.PhiFunction(p)
        assert phi(x) <= phi.phi(x) + 1e-14


class TestTables:
    def test_table2_floors(self):
        left, right = V.table2_margins()
        assert np.all(left >= np.asarray(V.TABLE2_FLOORS_LEFT))
        assert np.all(right >= np.asarray(V.TABLE2_FLOORS_RIGHT))
        # the printed floors are the integer truncations of the true margins
        assert np.all(np.floor(left) == np.asarray(V.TABLE2_FLOORS_LEFT))
        assert np.all(np.floor(right) == np.asarray(V.TABLE2_FLOORS_RIGHT))

    def test_table3_floors(self):
        left, right, ell0 = V.table3_margins()
        assert np.all(left >= np.asarray(V.TABLE3_FLOORS_LEFT))
        assert np.all(right >= np.asarray(V.TABLE3_FLOORS_RIGHT))
        assert ell0 > 1e-5

    def test_reports(self):
        assert V.verify_table2().passed
        assert V.verify_table3().passed
        assert V.verify_interpolation_tilde().passed


class TestULessG:
    @pytest.mark.parametrize("case", ["i", "ii", "iii", "tilde"])
    def test_cases_pass(self, case):
        r = V.verify_U_less_G(case, grid=(20, 20))
        assert r.passed

    def test_certificate_floors(self):
        # the derivative and corner constants sit just inside the floors
        r = V.verify_U_less_G("iii", grid=(5, 5))
        assert r.passed
        assert r.min_margin < 0.01  # the corner margin 0.0324 vs floor 0.032

    def test_unknown_case(self):
        with pytest.raises(DomainError):
            V.verify_U_less_G("iv")


class TestIndBase:
    def test_full_grid(self):
        r = V.verify_ind_base(grid=(120, 120))
        assert r.passed

    def test_equals_per_point_reference(self, monkeypatch):
        # reference: Gamma at every mesh point and a list of point tuples, as the grid once ran
        from khinsphere.specfun import gamma
        seen = {}
        make = V._make_report

        def spy(lemma_id, region, grid, points, margins):
            seen.update(points=points, margins=margins)
            return make(lemma_id, region, grid, points, margins)

        monkeypatch.setattr(V, "_make_report", spy)
        r = V.verify_ind_base()
        Q, T = np.meshgrid(np.linspace(0.125, 1.0 - 1e-3, 200), np.linspace(0.0, 1.0, 200),
                           indexing="ij")
        R = np.fromiter((gamma(float(2.0 - q)) for q in Q.ravel()), float).reshape(Q.shape)
        h = (R * (2.0 - ((3.0 - T) / 2.0) ** (-Q))
             - (1.0 - Q * (1.0 - Q) / 2.0 * T - Q**2 * (1.0 - Q**2) / 12.0 * T**2))
        ref_points = [(float(q), float(t)) for q, t in zip(Q.ravel(), T.ravel())]
        ref_margins = list(h.ravel())
        n = len(ref_points)
        assert np.array_equal(seen["margins"][:n], ref_margins)
        # the certificate rows after the grid come from unchanged scalar code
        ref_points += [tuple(row) for row in seen["points"][n:].tolist()]
        ref_margins += list(seen["margins"][n:])
        i_min, i_max = int(np.argmin(ref_margins)), int(np.argmax(ref_margins))
        assert r.min_margin == ref_margins[i_min]
        assert r.witnesses == ((ref_points[i_min], ref_margins[i_min]),
                               (ref_points[i_max], ref_margins[i_max]))
        assert all(type(x) is float for point, _ in r.witnesses for x in point)

    def test_minimum_on_t_boundary(self):
        # concavity in t forces the grid minimum of h_q onto t in {0, 1}
        import numpy as np
        from khinsphere.specfun import gamma
        qs = np.linspace(0.125, 1.0 - 1e-3, 60)
        ts = np.linspace(0.0, 1.0, 60)
        Q, T = np.meshgrid(qs, ts, indexing="ij")
        h = (gamma(2.0 - Q) * (2.0 - ((3.0 - T) / 2.0) ** (-Q))
             - (1.0 - Q * (1.0 - Q) / 2.0 * T - Q**2 * (1.0 - Q**2) / 12.0 * T**2))
        i, j = np.unravel_index(np.argmin(h), h.shape)
        assert ts[j] in (0.0, 1.0)


class TestTwoCoeff:
    def test_example_p1(self):
        # 2F1(0.5,-0.5;2;0.5) <= 1 - 1/16 - 3*0.25/192
        from khinsphere.specfun import hyp2f1
        assert hyp2f1(0.5, -0.5, 2.0, 0.5) <= 1.0 - 1.0 / 16.0 - 3.0 * 0.25 / 192.0
        assert V.verify_two_coeff_bounds(4, 1.0).passed

    def test_near_boundary(self):
        assert V.verify_two_coeff_bounds(4, 1.999).passed

    def test_small_p_limits(self):
        # as p -> 0 both the moment and its quadratic bound tend to 1
        from khinsphere.specfun import hyp2f1
        p = 1e-6
        assert hyp2f1(p / 2, (p - 2) / 2, 2.0, 0.7) == pytest.approx(1.0, abs=1e-5)
        assert 1.0 - p * (2 - p) / 8 * 0.7 == pytest.approx(1.0, abs=1e-5)
        assert V.verify_two_coeff_bounds(4, 1e-6).passed
        assert V.verify_two_coeff_bounds(4, 0.1).passed

    def test_min_bound_general_d(self):
        assert V.verify_two_coeff_bounds(6, 2.5).passed

    @pytest.mark.parametrize("d,p", [(3, 1.0), (4, 2.0), (5, 3.0), (8, 6.0)])
    def test_degenerate_boundary(self, d, p):
        # at p = d-2 the moment is identically 1, so "<= 1" holds with equality
        r = V.verify_two_coeff_bounds(d, p)
        assert r.passed
        assert "degenerate" in r.region

    def test_domain(self):
        with pytest.raises(DomainError):
            V.verify_two_coeff_bounds(4, 3.0)


class TestBisubharmonic:
    @pytest.mark.parametrize("d,p", [(5, 0.5), (10, 5.9)])
    def test_passes(self, d, p):
        assert V.verify_bisubharmonic(d, p).passed

    def test_degenerate_boundary(self):
        r = V.verify_bisubharmonic(5, 1.0)
        assert r.passed
        assert "degenerate" in r.region

    def test_domain(self):
        with pytest.raises(DomainError):
            V.verify_bisubharmonic(5, 1.5)
        with pytest.raises(DomainError):
            V.verify_bisubharmonic(4, 0.1)


class TestSmallLemmas:
    def test_passes(self):
        r = V.verify_small_lemmas()
        assert r.passed

    def test_concavity_matches_scalar_loop(self, monkeypatch):
        seen = {}
        make = V._make_report

        def spy(lemma_id, region, grid, points, margins):
            seen.update(points=points, margins=margins)
            return make(lemma_id, region, grid, points, margins)

        monkeypatch.setattr(V, "_make_report", spy)
        V.verify_small_lemmas()
        ref_points, ref_margins = [], []
        for p in (0.3, 1.0, 2.5):
            phi = V.PhiFunction(p)
            for am in np.linspace(0.0, 0.98, 25):
                for ap in np.linspace(am + 0.02, 2.0 - am, 25):
                    mid = 0.5 * (am + ap)
                    if mid > 1.0:
                        continue
                    ref_points.append((p, float(am), float(ap)))
                    ref_margins.append(float(phi(mid) - 0.5 * (phi(am) + phi(ap))) + 1e-14)
        i = seen["points"].index(ref_points[0])
        assert seen["points"][i:i + len(ref_points)] == ref_points
        # array and scalar powers may round differently: a few ulps of values near 1
        eps = np.finfo(float).eps
        np.testing.assert_allclose(seen["margins"][i:i + len(ref_margins)], ref_margins,
                                   rtol=0.0, atol=4.0 * eps)

    def test_gamma_bound_example(self):
        from khinsphere.specfun import gamma
        assert gamma(1.0) == pytest.approx(1.0, abs=1e-14)
        assert 0.65 < gamma(1.0)
        # f'(0) = gamma_E - 1 - log(13/20) > 0.007
        assert V.EULER_GAMMA - 1.0 - math.log(0.65) > 0.007


class TestHRegions:
    def test_coarse_grids_pass(self):
        r = V.verify_H_regions(grid=(12, 12))
        assert r.passed
        r = V.verify_H_tilde_region(grid=(10, 10))
        assert r.passed

    def test_determinism(self):
        r1 = V.verify_H_regions(grid=(6, 6))
        r2 = V.verify_H_regions(grid=(6, 6))
        assert r1 == r2

    def test_region_verifiers_match_point_loops(self):
        from khinsphere.quad import G, H, IntegralParams, U
        grid = (5, 4)
        rep = V.verify_H_regions(grid)
        pts, margins = [], []
        for ps, ss in ((np.geomspace(1e-3, 2.0, 5), np.geomspace(2.0, 12.0, 4)),
                       (np.geomspace(1e-3, 0.25, 5), np.geomspace(1.3, 12.0, 4))):
            for p in ps:
                for s in ss:
                    if ps[-1] == 2.0 and p > 2.0 - 1e-3 and s < 2.0 + 1e-3:
                        continue
                    pts.append((p, s))
                    margins.append(H(IntegralParams(float(p), float(s))))
        i = int(np.argmin(margins))
        assert rep.witnesses[0][0] == pts[i]
        assert rep.min_margin == pytest.approx(margins[i], rel=0, abs=1e-13)
        rep = V.verify_U_less_G("i", grid)
        gaps = {(p, s): G(IntegralParams(float(p), float(s)))
                - U(IntegralParams(float(p), float(s)))
                for p in np.geomspace(1e-3, 0.25, 5) for s in np.geomspace(1.7, 12.0, 4)}
        grid_witnesses = [(pt, m) for pt, m in rep.witnesses if len(pt) == 2]
        assert grid_witnesses
        for pt, margin in grid_witnesses:
            assert margin == pytest.approx(gaps[pt], rel=1e-12, abs=0.0)

    def test_sign_chart_batch_equals_single_points(self):
        pts = [(1.0, 3.0), (0.4, 1.3), (1.9, 1.05), (2.5, 3.0), (0.2, 1.3), (2.0, 1.3)]
        rows = V.h_sign_chart(pts)
        for pt, row in zip(pts, rows):
            single = V.h_sign_chart([pt])[0]
            assert (row["p"], row["s"], row["sign"]) == (single["p"], single["s"], single["sign"])
            assert row["H"] == pytest.approx(single["H"], rel=0, abs=1e-13)
        assert rows[2]["H"] == -math.inf and rows[5]["H"] == -math.inf
        with pytest.raises(DomainError):  # outside H's domain, divergent or not
            V.h_sign_chart([(1.0, 3.0), (3.5, 2.0)])

    def test_sign_chart_records_without_claim(self):
        rows = V.h_sign_chart([(1.9, 1.05), (1.0, 2.0)])
        assert {"p", "s", "H", "sign"} <= set(rows[0])
        # at (1.9, 1.05) the Gaussian-surrogate comparison genuinely fails
        assert rows[0]["sign"] == -1
        assert rows[1]["sign"] == 1

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Stated runtime budgets are asserted.
"""
import math
import time

import numpy as np
import pytest

from khinsphere import phase, sample, verify
from khinsphere.cli import LEMMAS
from khinsphere.constants import C2, MomentQuery, normalizers
from khinsphere.quad import F, H_tilde, IntegralParams, product_moment
from khinsphere.specfun import gamma, jj1

IP = IntegralParams

# independently computed (40-digit bisection of the closed forms); the paper
# prints these truncated to two decimals
QSTAR_ORACLE = {2: 0.4756170089, 3: -0.7933714016, 5: -3.1633685305}


def _announce(n, ok, detail):
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {n}: {detail}"


class TestAcceptance:
    def test_criterion_01_phase_transition(self):
        t0 = time.monotonic()
        results = {d: phase.q_star(d) for d in (1, 2, 3, 4, 5)}
        elapsed = time.monotonic() - t0
        ok = True
        # d=4 is exact: -2 within 1e-9
        ok &= abs(results[4].q_star + 2.0) <= 1e-9
        # d in {2,3,5}: match the printed (truncated) table values; the
        # two-decimal prints are truncations, so containment in
        # [print, print+0.01) is the faithful check, tightened by direct
        # agreement with the high-precision root
        for d, printed in ((2, 0.47), (3, -0.79), (5, -3.16)):
            q = results[d].q_star
            ok &= abs(q - QSTAR_ORACLE[d]) <= 1e-9
            lo, hi = (printed, printed + 0.01) if printed > 0 else (printed - 0.01, printed)
            ok &= lo <= q < hi if printed > 0 else lo < q <= hi
        # the spec's +-0.005 literal reading holds at d=3 and d=5
        ok &= abs(results[3].q_star + 0.79) <= 0.005
        ok &= abs(results[5].q_star + 3.16) <= 0.005
        ok &= elapsed < 5.0
        _announce(1, ok, f"q* = {[round(results[d].q_star, 6) for d in (2, 3, 4, 5)]}, "
                         f"{elapsed:.2f}s (< 5s)")

    def test_criterion_02_gamma_minimum(self):
        err = abs(gamma(1.46163214496836226) - 0.885603194410888689)
        _announce(2, err <= 1e-12, f"|Gamma(x0) - min| = {err:.2e} (<= 1e-12)")

    def test_criterion_03_closed_form_quadrature(self):
        t0 = time.monotonic()
        worst_c2 = 0.0
        for p in (0.5, 1.0, 1.5, 2.0, 2.5):
            kappa = normalizers(p, 4).kappa
            diff = abs(kappa * F(IP(p, 2.0)) * 2.0 ** (p / 2.0) - C2(p))
            worst_c2 = max(worst_c2, diff)
        worst_ht = max(abs(H_tilde(IP(p, 2.0))) for p in (2.1, 2.5, 2.9))
        elapsed = time.monotonic() - t0
        ok = worst_c2 <= 1e-7 and worst_ht <= 1e-7 and elapsed < 30.0
        _announce(3, ok, f"max|kappa F 2^(p/2) - C2| = {worst_c2:.2e}, "
                         f"max|H~(p,2)| = {worst_ht:.2e}, {elapsed:.1f}s (< 30s)")

    def test_criterion_04_lemma_suite(self):
        t0 = time.monotonic()
        reports = [run({}) for run in LEMMAS.values()]  # every verifier of `khinsphere verify`
        for d in range(5, 11):
            reports.append(verify.verify_bisubharmonic(d, 0.5 * (d - 4.0)))
        elapsed = time.monotonic() - t0
        bad = [r.lemma_id for r in reports if not r.passed or not r.min_margin > 0]
        ok = not bad and elapsed < 600.0
        _announce(4, ok, f"{len(reports)} verifiers green, worst margin "
                         f"{min(r.min_margin for r in reports):.2e}, {elapsed:.0f}s (< 600s)"
                         + (f"; FAILED: {bad}" if bad else ""))

    def test_criterion_05_tables(self):
        left2, right2 = verify.table2_margins()
        left3, right3, ell0 = verify.table3_margins()
        ok = bool(
            np.all(left2 >= np.asarray(verify.TABLE2_FLOORS_LEFT))
            and np.all(right2 >= np.asarray(verify.TABLE2_FLOORS_RIGHT))
            and np.all(left3 >= np.asarray(verify.TABLE3_FLOORS_LEFT))
            and np.all(right3 >= np.asarray(verify.TABLE3_FLOORS_RIGHT))
            and ell0 > 1e-5
        )
        _announce(5, ok, f"24 two-sided margins above the printed floors; "
                         f"ell0 margin {ell0:.2e} > 1e-5")

    def test_criterion_06_appendix_claims(self):
        t0 = time.monotonic()
        ok = 5.0 - math.pi**2 / 2.0 > 0.06
        for d in (5, 10, 20, 40):
            ok &= LEMMAS["appendix_claims"]({"d": d}).passed
        asym = LEMMAS["asymptotics"]({})
        ok &= asym.passed
        elapsed = time.monotonic() - t0
        ok &= elapsed < 120.0
        _announce(6, ok, f"claims d in (5,10,20,40) green, {asym.region.split('; ')[-1]}, "
                         f"{elapsed:.0f}s (< 120s)")

    def test_criterion_07_sharp_constant_attainment(self):
        t0 = time.monotonic()
        a = 1.0 / math.sqrt(2.0)
        quad_err = abs(product_moment(MomentQuery(4, -2.5, (a, a))) - C2(2.5))
        ok = quad_err <= 1e-8
        rng = np.random.default_rng(20260808)
        sets = []
        for _ in range(100):
            n = int(rng.integers(2, 7))
            v = rng.standard_normal(n)
            sets.append(tuple(v / np.linalg.norm(v)))
        total_viol = 0
        for i, p in enumerate((0.5, 1.5, 2.5)):
            rep = sample.check_khinchin(4, p, sets, 1_000_000, seed=1000 + i)
            total_viol += rep.n_violations
        elapsed = time.monotonic() - t0
        ok = ok and total_viol == 0 and elapsed < 600.0
        _announce(7, ok, f"|quad - C2(2.5)| = {quad_err:.2e} (<= 1e-8), "
                         f"violations = {total_viol}/300, {elapsed:.0f}s (< 600s)")

    def test_criterion_08_slicing(self):
        e1_err = abs(sample.polydisc_slice_volume([1.0, 0.0]) - math.pi)
        diag_err = abs(sample.polydisc_slice_volume([1.0 / math.sqrt(2)] * 2) - 2.0 * math.pi)
        ok = e1_err <= 1e-10 and diag_err <= 1e-7
        rng = np.random.default_rng(41)
        out_of_bounds = 0
        for n in (2, 3, 4):
            for _ in range(50):
                v = rng.standard_normal(n)
                v /= np.linalg.norm(v)
                vol = sample.polydisc_slice_volume(v)
                if not (math.pi ** (n - 1) - 1e-8 <= vol <= 2.0 * math.pi ** (n - 1) + 1e-8):
                    out_of_bounds += 1
        ok = ok and out_of_bounds == 0
        _announce(8, ok, f"|vol(e1) - pi| = {e1_err:.1e}, |vol(diag) - 2pi| = {diag_err:.1e}, "
                         f"{out_of_bounds} of 150 random sections out of bounds")

    def test_criterion_09_ball_sphere(self):
        ok = True
        details = []
        for d, q in ((4, -1.0), (4, 1.0), (5, 2.0)):
            rep = sample.ball_sphere_identity(d, q, (0.6, 0.8), 1_000_000, seed=500 + d)
            ok &= rep.passed
            details.append(f"(d={d},q={q}): z={rep.z:.2f}")
        _announce(9, ok, "; ".join(details) + " (all |z| <= 4)")

    def test_criterion_10_property_suites(self):
        ok = True
        # envelope (exponential) on [0,4] and (Watson) on [1.01, 100]
        t = np.linspace(0.0, 4.0, 10000)
        ok &= bool(np.min(np.exp(-t**2 / 8 - t**4 / 384) - np.abs(jj1(t))) >= 0.0)
        t = np.linspace(1.01, 100.0, 8000)
        ok &= bool(np.min(math.sqrt(8 / math.pi) / t * (t * t - 1) ** -0.25 - np.abs(jj1(t))) >= 0.0)
        # t^(-3/2) envelope at reference points t0 = 4 and 10
        for t0 in (4.0, 10.0):
            ts = np.linspace(t0, 120.0, 4000)
            bound = math.sqrt(8 / math.pi) * (t0 * t0 / (t0 * t0 - 1)) ** 0.25 * ts**-1.5
            ok &= bool(np.min(bound - np.abs(jj1(ts))) >= 0.0)
        # Hoelder interpolation in s
        for p in (1.0, 1.5):
            f2, f83 = F(IP(p, 2.0)), F(IP(p, 8.0 / 3.0))
            for s in np.linspace(2.0, 8.0 / 3.0, 7):
                ok &= F(IP(p, float(s))) <= f2 ** ((8 - 3 * s) / 2) * f83 ** ((3 * s - 6) / 2) + 1e-8
        # log-concavity inequality behind the s-scaling step
        for p in (0.3, 1.7, 2.9):
            for s in np.linspace(2.0, 12.0, 40):
                ok &= math.exp(-p * (s - 2) / 4) <= s ** (-p / 2) * 2.0 ** (p / 2) + 1e-15
        # Jensen floor and norm monotonicity on sampled sums
        st2, st1 = sample.estimate_moments(4, (0.6, 0.8), [-2.0, -1.0], 200_000, seed=77)
        ok &= st2.estimate >= 1.0 - 4.0 * st2.std_error
        n2 = st2.estimate ** (-0.5)
        n1 = 1.0 / st1.estimate
        ok &= n2 <= n1 + 4.0 * (st2.std_error + st1.std_error)
        _announce(10, bool(ok), "envelopes, Hoelder interpolation, exponential bound, "
                                "Jensen floor, norm monotonicity all hold")

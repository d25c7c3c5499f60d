#!/usr/bin/env python3
"""Print khinsphere's main numbers as float-hex lines, one value a line.

Run it in two checkouts and diff the outputs to see whether a change moved a
number, and which:

    python3 scripts/fingerprint.py > before.txt   # in the first checkout
    python3 scripts/fingerprint.py > after.txt    # in the second
    diff before.txt after.txt

Covered: F on the 9x9 (p, s) grid over [0.01, 2.9] x [1.05, 12], close to the
divergence line p = 3s/2 and at a few large s; tail_product (n = 2..5, then
n = 6..12 from a second seed, so the first lines keep their inputs) and
product_moment on seeded random queries; passed and min_margin of every
verifier of ``khinsphere verify`` at its default parameters; the three
tables; product_moment with n = 6..12 and one small weight, from a third
seed; the certified bounds behind Tables 2 and 3 (table2_log_bound at
TABLE2_EDGES, table3_scaled_bound at TABLE3_EDGES); then F at s in
{64.5, 70, 200} with p in {60, 90, 0.97 (3s/2)}; then the root of q_star for
d = 1..60, and gamma at x in {0.5, 10, 100, 141, 150, 171}; then
product_moment at (d, p) = (4, 1) with weights (1, 2.5e-4), where the panels
reach far out, at (4, 2) with (1, 0.6, 0.3, 1e-8) and (3, 1) with
(1, 0.5, 1e-5), near the panel budget, at (8, 6) with (1, 0.05, 0.05), a
small weight where Newton's theorem gives 1, and at d = 8, p = 6.3121 with
two weights of ratio 2.7e-3, just below the convergence edge p = 7; then F
at the points that tests/test_quad.py checks against mpmath; then gamma
on the negative axis and just past its overflow at 171.62 (x in {-0.5,
-10.5, -11.3, -150.5, 171.7}) and log_gamma below 1/2 (x in {1e-9, 0.1,
0.49}); then F's tail alone, tail_abs_pow at F's own T and tolerance, near
s = 1, close to p = 3s/2 and at s = 141, so that a move of the tail shows
apart from F's; then the Monte Carlo estimate_moments, estimate and
standard error, at d in {3, 4, 5, 8} on fixed seeds, so that a change to the
sampler's stream, to its strata of the last cosine or to its control
variates shows; then every entry of check_khinchin (estimate, standard error
and route) at p in {0.5, 1.5, 2.5} on five unit sets with n = 2..6, whose
sampled sets run concurrently; then jj at nu in {0, 0.5, 1,
1.5, 2, 3} and t in {9.99, 10, 12, 25, 60, 200}, and jj1_prime at t in {0,
0.5, 2, 5, 8, 9.91, 10, 12, 20}, so that a move of the Bessel code shows
apart from how product_moment amplifies it; then the witnesses (point and
margin) of every verifier of ``khinsphere verify``, and q_star's bracket and
iteration count for d = 1..60, which pin the verifiers' arrays and the scan
grid; then jj on both sides of its switch to the large-argument kernel at
t = max(5, nu): nu in {0, 1, 3} at t in {4.99, 5}, and nu in {9.5, 19.5,
29.5} at t in {nu - 0.01, nu + 0.01, 2 nu}, then product_moment at d in
{20, 40, 62}, p = 2, weights (1, 0.3), where the order nu = d/2 - 1 is high;
then the exact even moments E|v|^(2k), k = 0..4, behind the control
variates of estimate_moments, at d in {3, 4, 5, 8} for the weights of the
estimate_moments lines; then product_moment and the 2F1 moment
_two_coeff_moment at d in {30, 40, 60}, p = 2, weights (1, 0.7), where the
sign-pattern tail starts at nu^2/2; last, a 1e-13 weight next to a pair:
product_moment with (1, 1, 1e-13) where p > d - 2, which raises, and its
controls at p <= d - 2 and with the pair (1, 0.9), polydisc_slice_volume at
(0.6, 0.8, 5e-13), and the check_khinchin entry of (1, 1, 1e-13) at p = 2.9;
then q_star's root for d = 61..80 and its bracket and iteration count, at the
edge of its reach (d = 80 raises ToleranceError at the default tol); then
the zeros of jnu_zeros up to t = 51 at nu in {0, 0.5, 1, 1.5, 2, 3, 9.5,
29.5}, and q_star's root and iteration count below the default tol, at tol
in {1e-13, 1e-14, 1e-16} for d in {1, 4, 10, 30}, where the bisection's
stops show.
An input that raises prints the exception's class name.  Takes under a
minute.
"""
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from khinsphere import oscillatory, phase, sample  # noqa: E402
from khinsphere.cli import LEMMAS, table_writer  # noqa: E402
from khinsphere.constants import MomentQuery, _even_moments, _two_coeff_moment  # noqa: E402
from khinsphere.errors import KhinsphereError  # noqa: E402
from khinsphere.quad import (  # noqa: E402
    _TAIL_TOL,
    F,
    IntegralParams,
    _middle_plan,
    product_moment,
    table2_log_bound,
    table3_scaled_bound,
)
from khinsphere.specfun import gamma, jj, jj1_prime, jnu_zeros, log_gamma  # noqa: E402
from khinsphere.verify import TABLE2_EDGES, TABLE3_EDGES  # noqa: E402

SEED = 20221
N_TAIL_PRODUCT = 60
N_TAIL_PRODUCT_LARGE = 20
N_PRODUCT_MOMENT = 150
N_PRODUCT_MOMENT_SMALL = 12


def _line(label: str, fn) -> str:
    try:
        return f"{label} {float(fn()).hex()}"
    except KhinsphereError as exc:
        return f"{label} {type(exc).__name__}"


def _args(*xs) -> str:
    return " ".join(repr(float(x)) for x in xs)


def f_points():
    for p in np.linspace(0.01, 2.9, 9):
        for s in np.linspace(1.05, 12.0, 9):
            yield p, s
    for s in (1.05, 1.3, 2.0, 8.0 / 3.0, 4.0, 12.0):
        for gap in (1e-2, 1e-4, 1e-6, 1e-8):
            yield 1.5 * s - gap, s
    for s in (16.0, 32.0, 64.0, 64.5, 200.0):
        for p in (0.5, 2.5):
            yield p, s


def large_s_points():
    """F where s > 64 and p is large: the log-space panel sums keep these in range, and
    the tail bound decides whether the tail is added."""
    for s in (64.5, 70.0, 200.0):
        for p in (60.0, 90.0, 0.97 * 1.5 * s):
            yield p, s


def mpmath_points():
    """F where tests/test_quad.py checks it against mpmath: moderate s, then small p."""
    yield from ((16.0, 64.0), (10.0, 40.0), (1e-3, 4.0), (0.05, 1.3), (0.5, 6.1))


def tail_abs_pow_points():
    """tail_abs_pow near s = 1, close to p = 3s/2, and at s = 141, where T^mu alone is
    subnormal at p = 23.51."""
    yield from ((0.5, 1.0), (1.5749, 1.05), (1.9499, 1.3), (17.99, 12.0), (23.51, 141.0),
                (188.0, 141.0))


def estimate_moments_lines():
    """estimate_moments at 10^4 samples, seed d: four weights, q = -(d-1)/2 and q = 1."""
    coeffs = (1.0, 0.8, 0.6, 0.5)
    for d in (3, 4, 5, 8):
        qs = (-0.5 * (d - 1), 1.0)
        for q, st in zip(qs, sample.estimate_moments(d, coeffs, qs, 10_000, seed=d)):
            label = f"estimate_moments d={d} q={q!r} {_args(*coeffs)} seed={d}"
            yield f"{label} estimate {st.estimate.hex()}"
            yield f"{label} se {st.std_error.hex()}"


def check_khinchin_lines():
    """check_khinchin at d = 4, 10^4 samples, seed 3: five unit sets with n = 2..6 weights,
    from a fourth seed, at each p; every entry's estimate, se and route."""
    rng = np.random.default_rng(SEED + 3)
    sets = [tuple(a / np.linalg.norm(a)) for a in (rng.uniform(0.1, 1.0, n) for n in range(2, 7))]
    for p in (0.5, 1.5, 2.5):
        for coeffs, e in zip(sets, sample.check_khinchin(4, p, sets, 10_000, seed=3).entries):
            label = f"check_khinchin p={p!r} {_args(*coeffs)} seed=3"
            yield f"{label} estimate {e.estimate.hex()}"
            yield f"{label} se {e.std_error.hex()}"
            yield f"{label} route {e.route}"


def even_moments_lines():
    """_even_moments to k = 4 at d in {3, 4, 5, 8}, for the weights of estimate_moments_lines."""
    coeffs = (1.0, 0.8, 0.6, 0.5)
    for d in (3, 4, 5, 8):
        for k, m in enumerate(_even_moments(d, coeffs, 4)):
            yield f"_even_moments d={d} k={k} {_args(*coeffs)} {m.hex()}"


def tiny_weight_lines():
    """A 1e-13 weight next to a pair: an equal pair where p > d - 2, then the controls."""
    for d, p in ((3, 1.9), (4, 2.9), (5, 3.9), (8, 6.9), (4, 2.5), (5, 3.5), (4, 1.5), (4, 2.0)):
        yield _product_moment_line(d, p, (1.0, 1.0, 1e-13))
    yield _product_moment_line(4, 2.9, (1.0, 0.9, 1e-13))
    a = (0.6, 0.8, 5e-13)
    yield _line(f"polydisc_slice_volume {_args(*a)}", lambda: sample.polydisc_slice_volume(a))
    coeffs = (1.0, 1.0, 1e-13)
    e = sample.check_khinchin(4, 2.9, [coeffs], 50_000, seed=1).entries[0]
    label = f"check_khinchin p=2.9 {_args(*coeffs)} seed=1"
    yield from (f"{label} estimate {e.estimate.hex()}", f"{label} se {e.std_error.hex()}",
                f"{label} route {e.route}")


def q_star_bracket_lines(ds):
    for d in ds:
        try:
            r = phase.q_star(d)
            yield (f"q_star d={d} bracket {r.bracket[0].hex()} {r.bracket[1].hex()} "
                   f"iterations {r.iterations}")
        except KhinsphereError as exc:
            yield f"q_star d={d} bracket {type(exc).__name__}"


def q_star_tol_lines():
    for tol in (1e-13, 1e-14, 1e-16):
        for d in (1, 4, 10, 30):
            try:
                r = phase.q_star(d, tol)
                yield f"q_star d={d} tol={tol!r} {r.q_star.hex()} iterations {r.iterations}"
            except KhinsphereError as exc:
                yield f"q_star d={d} tol={tol!r} {type(exc).__name__}"


def jj_switch_points():
    """jj on both sides of its switch at t = max(5, nu): at t = 5 for low orders, and at
    t = nu, where the forward recurrence turns stable, for high ones."""
    for nu in (0.0, 1.0, 3.0):
        yield nu, (4.99, 5.0)
    for nu in (9.5, 19.5, 29.5):
        yield nu, (nu - 0.01, nu + 0.01, 2.0 * nu)


def tail_product_queries(rng, count, n_lo, n_hi):
    for _ in range(count):
        n = int(rng.integers(n_lo, n_hi + 1))
        nu = float(rng.choice([0.5, 1.0, 1.5, 3.0]))
        amps = sorted(rng.uniform(0.1, 1.0, n), reverse=True)
        p = rng.uniform(0.05, 0.98) * n * (nu + 0.5)
        yield amps, nu, p, max(46.0, 25.0 / amps[-1])


def _tail_product_line(amps, nu, p, T) -> str:
    return _line(f"tail_product {_args(*amps)} nu={nu!r} p={p!r} T={T!r}",
                 lambda: oscillatory.tail_product(amps, nu, p, T))


def product_moment_queries(rng):
    for _ in range(N_PRODUCT_MOMENT):
        d = int(rng.choice([3, 4, 5, 8]))
        n = int(rng.integers(2, 6))
        coeffs = tuple(rng.uniform(0.2, 1.0, n))
        p = rng.uniform(0.05, 0.97) * (d - 1)  # MomentQuery needs q = -p > -(d-1)
        yield d, p, coeffs


def small_weight_queries(rng):
    """n = 6..12 weights in [0.5, 1], one of them 1e-3..1e-1 times the largest."""
    for _ in range(N_PRODUCT_MOMENT_SMALL):
        d = int(rng.choice([3, 4, 5, 8]))
        n = int(rng.integers(6, 13))
        w = rng.uniform(0.5, 1.0, n)
        w[rng.integers(n)] = 10.0 ** rng.uniform(-3.0, -1.0) * w.max()
        p = rng.uniform(0.05, 0.97) * (d - 1)
        yield d, p, tuple(w)


def _product_moment_line(d, p, coeffs) -> str:
    return _line(f"product_moment d={d} p={p!r} {_args(*coeffs)}",
                 lambda: product_moment(MomentQuery(d, -p, coeffs)))


def main() -> int:
    rng = np.random.default_rng(SEED)
    for p, s in f_points():
        print(_line(f"F {_args(p, s)}", lambda: F(IntegralParams(p, s))))
    for amps, nu, p, T in tail_product_queries(rng, N_TAIL_PRODUCT, 2, 5):
        print(_tail_product_line(amps, nu, p, T))
    for d, p, coeffs in product_moment_queries(rng):
        print(_product_moment_line(d, p, coeffs))
    reports = {}
    for name, job in LEMMAS.items():
        report = reports[name] = job({})
        print(f"verify {name} passed={report.passed} min_margin {float(report.min_margin).hex()}")
    for which in (1, 2, 3):
        for row in table_writer(which).splitlines():
            print(f"table{which} {row}")
    large = tail_product_queries(np.random.default_rng(SEED + 1), N_TAIL_PRODUCT_LARGE, 6, 12)
    for amps, nu, p, T in large:
        print(_tail_product_line(amps, nu, p, T))
    for d, p, coeffs in small_weight_queries(np.random.default_rng(SEED + 2)):
        print(_product_moment_line(d, p, coeffs))
    for p in TABLE2_EDGES:
        print(_line(f"table2_log_bound {_args(p)}", lambda: table2_log_bound(p)))
    for p in TABLE3_EDGES:
        print(_line(f"table3_scaled_bound {_args(p)}", lambda: table3_scaled_bound(p)))
    for p, s in large_s_points():
        print(_line(f"F {_args(p, s)}", lambda: F(IntegralParams(p, s))))
    for d in range(1, 61):
        print(_line(f"q_star d={d}", lambda: phase.q_star(d).q_star))
    for x in (0.5, 10.0, 100.0, 141.0, 150.0, 171.0):
        print(_line(f"gamma {_args(x)}", lambda: gamma(x)))
    print(_product_moment_line(4, 1.0, (1.0, 2.5e-4)))
    print(_product_moment_line(4, 2.0, (1.0, 0.6, 0.3, 1e-8)))
    print(_product_moment_line(8, 6.0, (1.0, 0.05, 0.05)))
    print(_product_moment_line(3, 1.0, (1.0, 0.5, 1e-5)))
    print(_product_moment_line(8, 6.312086216129032, (-0.007106736291156288, -2.6792541602425355)))
    for p, s in mpmath_points():
        print(_line(f"F {_args(p, s)}", lambda: F(IntegralParams(p, s))))
    for x in (-0.5, -10.5, -11.3, -150.5, 171.7):
        print(_line(f"gamma {_args(x)}", lambda: gamma(x)))
    for x in (1e-9, 0.1, 0.49):
        print(_line(f"log_gamma {_args(x)}", lambda: log_gamma(x)))
    T = _middle_plan()[3]
    for p, s in tail_abs_pow_points():
        print(_line(f"tail_abs_pow {_args(p, s)} T={T!r}",
                    lambda: oscillatory.tail_abs_pow(p, s, T, tol=_TAIL_TOL)))
    for line in estimate_moments_lines():
        print(line)
    for line in check_khinchin_lines():
        print(line)
    for nu in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0):
        for t in (9.99, 10.0, 12.0, 25.0, 60.0, 200.0):
            print(_line(f"jj nu={nu!r} t={t!r}", lambda: jj(nu, t)))
    for t in (0.0, 0.5, 2.0, 5.0, 8.0, 9.91, 10.0, 12.0, 20.0):
        print(_line(f"jj1_prime {_args(t)}", lambda: jj1_prime(t)))
    for name, report in reports.items():
        for k, (point, margin) in enumerate(report.witnesses):
            print(f"verify {name} witness {k} point {' '.join(float(x).hex() for x in point)} "
                  f"margin {float(margin).hex()}")
    for line in q_star_bracket_lines(range(1, 61)):
        print(line)
    for nu, ts in jj_switch_points():
        for t in ts:
            print(_line(f"jj nu={nu!r} t={t!r}", lambda: jj(nu, t)))
    for d in (20, 40, 62):
        print(_product_moment_line(d, 2.0, (1.0, 0.3)))
    for line in even_moments_lines():
        print(line)
    for d in (30, 40, 60):
        print(_product_moment_line(d, 2.0, (1.0, 0.7)))
        print(_line(f"_two_coeff_moment d={d} q=-2.0 {_args(1.0, 0.7)}",
                    lambda: _two_coeff_moment(d, -2.0, 1.0, 0.7)))
    for line in tiny_weight_lines():
        print(line)
    for d in range(61, 81):
        print(_line(f"q_star d={d}", lambda: phase.q_star(d).q_star))
    for line in q_star_bracket_lines(range(61, 81)):
        print(line)
    for nu in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 9.5, 29.5):
        for k, z in enumerate(jnu_zeros(nu, 51.0).tolist()):
            print(f"jnu_zeros nu={nu!r} t_max=51.0 k={k} {z.hex()}")
    for line in q_star_tol_lines():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

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
panels end at the envelope cut, short of the sign-pattern tail's start at
4 nu^2; last, a 1e-13 weight next to a pair:
product_moment with (1, 1, 1e-13) where p > d - 2, which raises, and its
controls at p <= d - 2 and with the pair (1, 0.9), polydisc_slice_volume at
(0.6, 0.8, 5e-13), and the check_khinchin entry of (1, 1, 1e-13) at p = 2.9;
then q_star's root for d = 61..80 and its bracket and iteration count, at the
edge of its reach (d = 80 raises ToleranceError at the default tol); then
the zeros of jnu_zeros up to t = 51 at nu in {0, 0.5, 1, 1.5, 2, 3, 9.5,
29.5}, and q_star's root and iteration count below the default tol, at tol
in {1e-13, 1e-14, 1e-16} for d in {1, 4, 10, 30}, where the bisection's
stops show; last, the single-sourced constants of the large-argument
toolkit, so that a move of one shows apart from F and product_moment: the
Hankel coefficients W_m = i^m a_m(nu) of oscillatory._hankel_w, real and
imaginary parts, at nu in {0, 0.5, 1, 1.5, 2, 3, 9.5, 29.5}, and Watson's
envelope constant C of quad._bessel_envelope at F's (1, T) and at
product_moment's (nu, 2 nu) for nu in {1.5, 3, 9.5}; then F on a 6x6 mesh,
six s in [1.05, 12] and p at six fractions of 3s/2 up to 1 - 1e-6, taken as
one call, so that a move of F's batching across s shows; last,
product_moment at (d, p) = (22, 18.9) with weights (1, 0.7), near
p = n(d-1)/2, which reaches the sign-pattern tail at d >= 9; last,
log_gamma at x in {0.5, 1.5, 2.5, 10, 60.5, 1e6, 1e300}, so that a move of
log Gamma at x >= 1/2 shows apart from q_star and the verifiers; last, the
reports (passed, min_margin and witnesses) of the verifiers at the inputs of
perfbench's lemma sweep, H and H~ on a 12x12 grid, U < G i, ii, iii and tilde
on 25x25, bisubharmonic at d = 5..10 with p = (d-4)/2 and appendix_claims at
d in {5, 10, 20, 40}, and of two_coeff at d in {3, 5, 6} with p = (d-2)/2
and p = d-2; last, product_moment at (d, p) = (16, 13.5) with weights
(1, 0.7) and at (12, 10.4), (20, 18) and (40, 37) with (1, 0.95), near
p = n(d-1)/2, where like (22, 18.9) above they reach the sign-pattern tail;
last, product_moment with one dominant weight, where it sums the series in
E|v|^(2k): weights (1, 1e-5) at (d, p) = (8, 6.9), (8, 6.5), (7, 5.9),
(6, 4.9) and (4, 2.9), (1, 1e-5, 1e-5) at (8, 6.9), (1, 1.4e-5, 1.9e-5) at
(8, 6.986), (1, 0.05) at (22, 18.9), (30, 26.1) and (62, 60.39), and
(1, 0.3) at (62, 60.39), then (1, 1e-5) at the 15 (d, p) of DOMINANT_NAN,
where the quadrature returned NaN; last, hyp2f1 at mc-khinchin's d = 4
parameters (a, b, c) = (p/2, (p-2)/2, 2), p in {0.5, 1.5, 2.5}, at t in
{0.51, 0.7, 0.9995, 1 - 1e-9}, each t as a float and the four as one array,
so that a move of the 1 - t branch's Horner sums shows apart from the
Monte Carlo lines; last, inputs at the edge of the float range or infinite:
G and U at (p, s) = (800, 600) and (300, 2), K and kappa of normalizers at
(p, d) = (1, 400), tail_abs_pow at T = inf and h_d(4, inf); last, G and U
at (300, 250) and (343, 300), where s^(-p/2) underflows first, and the
entry points at a dimension of inf, 4.5 or 5.5 (dimension_calls); last, G
and U at (400, 600) and (344, 300), where Gamma(p/2) overflows, and the
inputs at the edge of the float range and of the work budget
(float_range_calls): the weights' norm, product_moment, estimate_moment and
the closed moment at weights whose squares leave the normal floats,
check_khinchin and ball_sphere_identity at 1e-300 weights, hyp2f1's
terminating branch above the largest float, tail_abs_pow at p = s = 1e-300
and at (0.1, 0.2), and jnu_zeros and pochhammer beyond their stated bounds.
An input that raises prints the exception's class name.  Takes under a
minute.
"""
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from khinsphere import oscillatory, phase, sample, verify  # noqa: E402
from khinsphere.cli import LEMMAS, table_writer  # noqa: E402
from khinsphere.constants import (  # noqa: E402
    MomentQuery,
    _closed_moment,
    _even_moments,
    _two_coeff_moment,
    c_inf,
    c_two,
    normalizers,
)
from khinsphere.errors import KhinsphereError  # noqa: E402
from khinsphere.quad import (  # noqa: E402
    _TAIL_TOL,
    F,
    G,
    IntegralParams,
    U,
    _bessel_envelope,
    _middle_plan,
    product_moment,
    table2_log_bound,
    table3_scaled_bound,
)
from khinsphere.specfun import (  # noqa: E402
    gamma,
    hyp2f1,
    jj,
    jj1_prime,
    jnu_zeros,
    log_gamma,
    pochhammer,
)
from khinsphere.verify import TABLE2_EDGES, TABLE3_EDGES  # noqa: E402

SEED = 20221
N_TAIL_PRODUCT = 60
N_TAIL_PRODUCT_LARGE = 20
N_PRODUCT_MOMENT = 150
N_PRODUCT_MOMENT_SMALL = 12
DOMINANT_NAN = [(52, 50.49), (54, 50.35), (54, 52.47), (56, 49.5), (56, 52.25), (56, 54.45),
                (58, 51.3), (58, 54.15), (58, 56.43), (60, 53.1), (60, 56.05), (60, 58.41),
                (62, 54.9), (62, 57.95), (62, 60.39)]


def _line(label: str, fn) -> str:
    try:
        return f"{label} {float(fn()).hex()}"
    except KhinsphereError as exc:
        return f"{label} {type(exc).__name__}"


def dimension_calls():
    """(label, call) at a dimension that is not a positive integer: inf, 4.5 or 5.5."""
    inf = np.inf
    return [
        ("MomentQuery d=inf q=-1.0 norm", lambda: MomentQuery(inf, -1.0, (1.0, 0.5)).norm),
        ("c_two d=inf q=1.0", lambda: c_two(inf, 1.0)),
        ("c_inf d=inf q=1.0", lambda: c_inf(inf, 1.0)),
        ("h_tilde d=inf x=1.0", lambda: phase.h_tilde(inf, 1.0)),
        ("h_tilde d=4.5 x=1.0", lambda: phase.h_tilde(4.5, 1.0)),
        ("q_star d=inf", lambda: phase.q_star(inf).q_star),
        ("ball_sphere_identity d=inf expected",
         lambda: sample.ball_sphere_identity(inf, 1.0, (1.0, 0.5), 10).expected),
        ("verify_two_coeff_bounds d=inf min_margin",
         lambda: verify.verify_two_coeff_bounds(inf, 1.0).min_margin),
        ("verify_two_coeff_bounds d=4.5 min_margin",
         lambda: verify.verify_two_coeff_bounds(4.5, 1.0).min_margin),
        ("verify_bisubharmonic d=inf min_margin",
         lambda: verify.verify_bisubharmonic(inf, 1.0).min_margin),
        ("verify_bisubharmonic d=5.5 min_margin",
         lambda: verify.verify_bisubharmonic(5.5, 1.0).min_margin),
        ("verify_appendix_claims d=inf min_margin",
         lambda: phase.verify_appendix_claims(inf).min_margin),
        ("verify_appendix_claims d=5.5 min_margin",
         lambda: phase.verify_appendix_claims(5.5).min_margin),
    ]


def float_range_calls():
    """(label, call) at the edge of the float range and of the work budget: weights whose
    squares leave the normal floats, closed forms whose factors do, and unbounded work."""
    T = _middle_plan()[3]
    calls = [(f"MomentQuery {_args(*c)} norm", lambda c=c: MomentQuery(4, -1.5, c).norm)
             for c in ((1e-300, 1e-300), (1e300, 1e300, 1e300), (1e-160, 1e-160, 0.5e-160))]
    for c in ((1e-300, 1e-300), (1e-300,), (1e-300, 1e-302, 1e-302), (1e300, 1e300, 1e300),
              (1e-160, 1e-160, 0.5e-160)):
        calls.append((f"product_moment d=4 p=1.5 {_args(*c)}",
                      lambda c=c: product_moment(MomentQuery(4, -1.5, c))))
        calls.append((f"estimate_moment d=4 q=-1.5 {_args(*c)} seed=2 estimate",
                      lambda c=c: sample.estimate_moment(MomentQuery(4, -1.5, c), 2000, 2).estimate))
    for q, c in ((-1.5, (1e-300, 1e-300)), (2.0, (1e300, 1.0)), (100.0, (10.0 ** -3.2,) * 2)):
        calls.append((f"_closed_moment d=4 q={q!r} {_args(*c)}",
                      lambda q=q, c=c: _closed_moment(MomentQuery(4, q, c))[0]))
    return calls + [
        ("check_khinchin p=1.5 1e-300 x3 estimate",
         lambda: sample.check_khinchin(4, 1.5, [(1e-300,) * 3], 2000).entries[0].estimate),
        ("ball_sphere_identity d=4 q=1.5 1e-300 1e-300 ratio",
         lambda: sample.ball_sphere_identity(4, 1.5, (1e-300, 1e-300), 2000, 2).ratio),
        ("hyp2f1 0.5 1000.0 2.0 t=0.7", lambda: hyp2f1(0.5, 1000.0, 2.0, 0.7)),
        ("hyp2f1 -1.45 1000.0 2.0 t=0.7", lambda: hyp2f1(-1.45, 1000.0, 2.0, 0.7)),
        (f"tail_abs_pow 1e-300 1e-300 T={T!r}", lambda: oscillatory.tail_abs_pow(1e-300, 1e-300, T)),
        (f"tail_abs_pow 0.1 0.2 T={T!r}", lambda: oscillatory.tail_abs_pow(0.1, 0.2, T)),
    ] + [(f"jnu_zeros nu={nu!r} t_max={t!r} count", lambda nu=nu, t=t: len(jnu_zeros(nu, t)))
         for nu, t in ((0.0, 1e300), (0.0, 1e8), (-1.0, 1e8), (1e-300, 1e8), (0.5, 1e4))] + [
        (f"pochhammer 0.5 k={k}", lambda k=k: pochhammer(0.5, k)) for k in (10**6, 10**8)]


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


def mesh_points():
    """F's 6x6 mesh, as two flat arrays: six s log-spaced on [1.05, 12], and p at fractions
    of 3s/2 from 1e-2 to 1 - 1e-6, so the mesh's last columns need the tail."""
    frac = np.array([1e-2, 0.3, 0.6, 0.9, 0.999, 1.0 - 1e-6])
    p, s = np.meshgrid(frac, np.geomspace(1.05, 12.0, 6), indexing="ij")
    return (1.5 * s * p).ravel(), s.ravel()


def tail_abs_pow_points():
    """tail_abs_pow near s = 1, close to p = 3s/2, and at s = 141, where T^mu alone is
    subnormal at p = 23.51."""
    yield from ((0.5, 1.0), (1.5749, 1.05), (1.9499, 1.3), (17.99, 12.0), (23.51, 141.0),
                (188.0, 141.0))


def estimate_moments_lines():
    """estimate_moment at 10^4 samples, seed d: four weights, q = -(d-1)/2 and q = 1, labelled
    estimate_moments as when one call took both q on shared samples."""
    coeffs = (1.0, 0.8, 0.6, 0.5)
    for d in (3, 4, 5, 8):
        for q in (-0.5 * (d - 1), 1.0):
            st = sample.estimate_moment(MomentQuery(d, q, coeffs), 10_000, seed=d)
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


def witness_lines(name, report):
    """The witness lines of one verifier report: point and margin of each."""
    for k, (point, margin) in enumerate(report.witnesses):
        yield (f"verify {name} witness {k} point {' '.join(float(x).hex() for x in point)} "
               f"margin {float(margin).hex()}")


def bench_reports():
    """(label, report) of the verifiers at the lemma sweep's inputs, then of two_coeff."""
    yield "H_regions grid=(12, 12)", verify.verify_H_regions((12, 12))
    yield "H_tilde grid=(12, 12)", verify.verify_H_tilde_region((12, 12))
    for case in ("i", "ii", "iii", "tilde"):
        yield f"U_less_G_{case} grid=(25, 25)", verify.verify_U_less_G(case, (25, 25))
    for d in range(5, 11):
        yield f"bisubharmonic d={d} p={0.5 * (d - 4.0)!r}", verify.verify_bisubharmonic(
            d, 0.5 * (d - 4.0))
    for d in (5, 10, 20, 40):
        yield f"appendix_claims d={d}", phase.verify_appendix_claims(d)
    for d in (3, 5, 6):
        for p in (0.5 * (d - 2.0), d - 2.0):
            yield f"two_coeff d={d} p={p!r}", verify.verify_two_coeff_bounds(d, p)


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
        for line in witness_lines(name, report):
            print(line)
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
    for nu in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 9.5, 29.5):
        for m, w in enumerate(oscillatory._hankel_w(nu)[0].tolist()):
            print(f"_hankel_w nu={nu!r} m={m} {w.real.hex()} {w.imag.hex()}")
    for nu, x0 in [(1.0, T)] + [(nu, 2.0 * nu) for nu in (1.5, 3.0, 9.5)]:
        print(_line(f"_bessel_envelope nu={nu!r} x0={x0!r}", lambda: _bessel_envelope(nu, x0)))
    p, s = mesh_points()
    for pk, sk, v in zip(p, s, F(IntegralParams(p, s))):
        print(f"F mesh {_args(pk, sk)} {float(v).hex()}")
    print(_product_moment_line(22, 18.9, (1.0, 0.7)))
    for x in (0.5, 1.5, 2.5, 10.0, 60.5, 1e6, 1e300):
        print(_line(f"log_gamma {_args(x)}", lambda: log_gamma(x)))
    for name, report in bench_reports():
        print(f"verify {name} passed={report.passed} min_margin {float(report.min_margin).hex()}")
        for line in witness_lines(name, report):
            print(line)
    for d, p, coeffs in ((16, 13.5, (1.0, 0.7)), (12, 10.4, (1.0, 0.95)), (20, 18.0, (1.0, 0.95)),
                         (40, 37.0, (1.0, 0.95))):
        print(_product_moment_line(d, p, coeffs))
    for d, p, coeffs in ((8, 6.9, (1.0, 1e-5)), (8, 6.5, (1.0, 1e-5)), (7, 5.9, (1.0, 1e-5)),
                         (6, 4.9, (1.0, 1e-5)), (4, 2.9, (1.0, 1e-5)), (8, 6.9, (1.0, 1e-5, 1e-5)),
                         (8, 6.986, (1.0, 1.4e-5, 1.9e-5)), (22, 18.9, (1.0, 0.05)),
                         (30, 26.1, (1.0, 0.05)), (62, 60.39, (1.0, 0.05)), (62, 60.39, (1.0, 0.3))):
        print(_product_moment_line(d, p, coeffs))
    for d, p in DOMINANT_NAN:
        print(_product_moment_line(d, p, (1.0, 1e-5)))
    ts = (0.51, 0.7, 0.9995, 1.0 - 1e-9)
    for p in (0.5, 1.5, 2.5):
        abc = (p / 2.0, (p - 2.0) / 2.0, 2.0)
        for t in ts:
            print(_line(f"hyp2f1 {_args(*abc)} t={t!r}", lambda: hyp2f1(*abc, t)))
        for t, v in zip(ts, hyp2f1(*abc, np.array(ts))):
            print(f"hyp2f1 array {_args(*abc)} t={t!r} {float(v).hex()}")
    for fn in (G, U):
        for p, s in ((800.0, 600.0), (300.0, 2.0)):
            print(_line(f"{fn.__name__} {_args(p, s)}", lambda: fn(IntegralParams(p, s))))
    for name in ("K", "kappa"):
        print(_line(f"normalizers p=1.0 d=400 {name}",
                    lambda: getattr(normalizers(1.0, 400), name)))
    print(_line(f"tail_abs_pow {_args(1.0, 2.0)} T=inf",
                lambda: oscillatory.tail_abs_pow(1.0, 2.0, np.inf)))
    print(_line("h_d d=4 q=inf", lambda: phase.h_d(4, np.inf)))
    for fn in (G, U):
        for p, s in ((300.0, 250.0), (343.0, 300.0)):
            print(_line(f"{fn.__name__} {_args(p, s)}", lambda: fn(IntegralParams(p, s))))
    for label, call in dimension_calls():
        print(_line(label, call))
    for fn in (G, U):
        for p, s in ((400.0, 600.0), (344.0, 300.0)):
            print(_line(f"{fn.__name__} {_args(p, s)}", lambda: fn(IntegralParams(p, s))))
    for label, call in float_range_calls():
        print(_line(label, call))
    return 0


if __name__ == "__main__":
    sys.exit(main())

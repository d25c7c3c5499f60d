"""The public contract at the edge of the float range and of the work budget.

Each call returns finite values of its documented type or raises DomainError,
within 5 seconds and without a warning: never a bare ZeroDivisionError,
OverflowError, ValueError, MemoryError or ConvergenceError, and never inf or NaN.
Each CLI verb exits 0 or 1 and does not let an exception escape.  The inputs
are weights whose squares leave the normal floats, closed forms whose factors
overflow, and requests whose work has no bound.
"""
import contextlib
import io
import signal
import warnings

import numpy as np
import pytest

from khinsphere import cli, oscillatory, sample, specfun
from khinsphere.constants import MomentQuery, _closed_moment
from khinsphere.errors import DomainError
from khinsphere.quad import G, U, IntegralParams, _middle_plan, product_moment

TINY2, TINY1, TINY3 = (1e-300, 1e-300), (1e-300,), (1e-300, 1e-302, 1e-302)
HUGE3 = (1e300, 1e300, 1e300)


def _pm(coeffs):
    return lambda: product_moment(MomentQuery(4, -1.5, coeffs))


CALLS = {
    "product_moment-tiny2": _pm(TINY2),
    "product_moment-tiny1": _pm(TINY1),
    "product_moment-tiny3": _pm(TINY3),
    "product_moment-huge3": _pm(HUGE3),
    "check_khinchin-tiny3": lambda: sample.check_khinchin(4, 1.5, [TINY1 * 3], 200).entries[0].estimate,
    "G-400-600": lambda: G(IntegralParams(400.0, 600.0)),
    "G-344-300": lambda: G(IntegralParams(344.0, 300.0)),
    "G-800-600": lambda: G(IntegralParams(800.0, 600.0)),
    "U-400-600": lambda: U(IntegralParams(400.0, 600.0)),
    "U-344-300": lambda: U(IntegralParams(344.0, 300.0)),
    "U-800-600": lambda: U(IntegralParams(800.0, 600.0)),
    "closed_moment-tiny2": lambda: _closed_moment(MomentQuery(4, -1.5, TINY2))[0],
    "closed_moment-huge": lambda: _closed_moment(MomentQuery(4, 2.0, (1e300, 1.0)))[0],
    "estimate_moment-tiny2": lambda: sample.estimate_moment(MomentQuery(4, -1.5, TINY2), 200).estimate,
    "estimate_moment-huge3": lambda: sample.estimate_moment(MomentQuery(4, -1.5, HUGE3), 200).estimate,
    "ball_sphere_identity-tiny2": lambda: sample.ball_sphere_identity(4, 1.5, TINY2, 200).ratio,
    "hyp2f1-0.5": lambda: specfun.hyp2f1(0.5, 1000.0, 2.0, 0.7),
    "hyp2f1--1.45": lambda: specfun.hyp2f1(-1.45, 1000.0, 2.0, 0.7),
    "tail_abs_pow-tiny": lambda: oscillatory.tail_abs_pow(1e-300, 1e-300, _middle_plan()[3]),
    "jnu_zeros-1e300": lambda: specfun.jnu_zeros(0.0, 1e300),
    "jnu_zeros-1e8": lambda: specfun.jnu_zeros(0.0, 1e8),
    "jnu_zeros-nu-1": lambda: specfun.jnu_zeros(-1.0, 1e8),
    "jnu_zeros-nu-tiny": lambda: specfun.jnu_zeros(1e-300, 1e8),
    "pochhammer-1e6": lambda: specfun.pochhammer(0.5, 10**6),
    "pochhammer-1e8": lambda: specfun.pochhammer(0.5, 10**8),
}

VERBS = [
    [verb, "--p", "1.5", "--coeffs", coeffs, "--n", "2000"]
    for verb in ("moment", "mc") for coeffs in ("1e-300,1e-300", "1e300,1e300,1e300")
] + [["slice", "--coeffs", coeffs] for coeffs in ("1e-300,1e-300", "1e300,1e300,1e300")]


@contextlib.contextmanager
def _within(seconds: int):
    """A 5 s alarm, so that unbounded work fails the test instead of hanging the suite."""
    def expire(*_):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("name", CALLS)
def test_finite_or_domain_error(name):
    try:
        with _within(5):
            value = CALLS[name]()
    except DomainError:
        return
    assert np.all(np.isfinite(value)), value


@pytest.mark.parametrize("argv", VERBS, ids=lambda argv: f"{argv[0]}-{argv[-1 if argv[0] == 'slice' else 4]}")
def test_cli_exits_0_or_1(argv):
    out, err = io.StringIO(), io.StringIO()
    with _within(5), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1), err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("error: ") and not out.getvalue()
    else:
        assert "inf" not in out.getvalue() and "nan" not in out.getvalue()

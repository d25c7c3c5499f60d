"""Command-line front end: constants, roots, moments, verifiers, tables.

Output is byte-stable for a fixed command line (fixed decimal formats, sorted
JSON keys, deterministic seeds), so golden-file tests are meaningful.
Exit codes: 0 ok, 1 invalid arguments, 2 verification failure, 3 numeric
failure.  main is the one entry point: argparse's choices reject an unknown
verb or format, and each verb's handler takes its options as a dict
(--seed among them) and the output format.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import phase, sample, verify
from .constants import MomentQuery, _closed_moment, best_constant_status, c_inf, c_two
from .errors import (
    ConvergenceError,
    DomainError,
    KhinsphereError,
    MultipleRootsError,
    NoBracketError,
    ToleranceError,
)
from .quad import product_moment

__all__ = ["LEMMAS", "table_writer", "main"]


def _jdump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _parse_coeffs(text: str) -> tuple[float, ...]:
    """The weights of --coeffs; MomentQuery checks that they are finite and not all zero."""
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise DomainError(f"could not parse coefficients {text!r}") from exc


def _param(params: dict, key: str, default):
    """params[key], or default when it is absent or None (0 is a value, not absent)."""
    value = params.get(key)
    return default if value is None else value


# ----------------------------------------------------------------------------
# verbs
# ----------------------------------------------------------------------------

def _run_constants(params: dict, fmt: str) -> tuple[int, str]:
    d, q = int(params["d"]), float(params["q"])
    ct = c_two(d, q) if -(d - 1) < q <= 2 and q != 0 else math.nan
    ci = c_inf(d, q)
    mn = min(ct, ci) if not math.isnan(ct) else ci
    status = best_constant_status(d, q)
    if fmt == "json":
        return 0, _jdump({"d": d, "q": q, "c_two": ct, "c_inf": ci,
                          "min_c": mn, "status": status})
    lines = ["d,q,c_two,c_inf,min_c,status",
             f"{d},{q:g},{ct:.12f},{ci:.12f},{mn:.12f},{status}"]
    return 0, "\n".join(lines) + "\n"


def _run_qstar(params: dict, fmt: str) -> tuple[int, str]:
    d_min, d_max = int(params["d_min"]), int(params["d_max"])
    tol = float(_param(params, "tol", 1e-12))
    rows = phase._q_star_batch(range(d_min, d_max + 1), tol)
    if fmt == "json":
        return 0, _jdump([{"d": r.d, "q_star": r.q_star, "residual": r.residual,
                           "iterations": r.iterations, "bracket": list(r.bracket)}
                          for r in rows])
    lines = ["d,q_star,residual,iterations"]
    for r in rows:
        lines.append(f"{r.d},{r.q_star:.9f},{r.residual:.3e},{r.iterations}")
    return 0, "\n".join(lines) + "\n"


def _run_moment(params: dict, fmt: str) -> tuple[int, str]:
    d, p, seed = int(params["d"]), float(params["p"]), int(_param(params, "seed", 0))
    coeffs = _parse_coeffs(params["coeffs"])
    n = int(_param(params, "n", 200_000))
    query = MomentQuery(d, -p, coeffs)
    routes: dict[str, float | None] = {}
    try:
        routes["quadrature"] = product_moment(query)
    except (ConvergenceError, DomainError, ToleranceError):
        routes["quadrature"] = None
    closed = _closed_moment(query)
    routes["hypergeometric"] = closed[0] if closed and closed[1] == "hypergeometric" else None
    stats = sample.estimate_moment(query, n, seed=seed)
    routes["monte_carlo"] = stats.estimate
    if fmt == "json":
        return 0, _jdump({"d": d, "p": p, "coeffs": list(coeffs), "routes": routes,
                          "mc_std_error": stats.std_error, "mc_method": stats.method,
                          "n_samples": n, "seed": seed})
    lines = ["route,value"]
    for name in ("quadrature", "hypergeometric", "monte_carlo"):
        v = routes[name]
        lines.append(f"{name},{'' if v is None else format(v, '.12f')}")
    lines.append(f"mc_std_error,{stats.std_error:.3e}")
    return 0, "\n".join(lines) + "\n"


LEMMAS = {
    "H_regions": lambda pr: verify.verify_H_regions(),
    "H_tilde": lambda pr: verify.verify_H_tilde_region(),
    "U_less_G_i": lambda pr: verify.verify_U_less_G("i"),
    "U_less_G_ii": lambda pr: verify.verify_U_less_G("ii"),
    "U_less_G_iii": lambda pr: verify.verify_U_less_G("iii"),
    "U_less_G_tilde": lambda pr: verify.verify_U_less_G("tilde"),
    "ind_base": lambda pr: verify.verify_ind_base(),
    "two_coeff": lambda pr: verify.verify_two_coeff_bounds(
        int(_param(pr, "d", 4)), float(_param(pr, "p", 1.0))),
    "bisubharmonic": lambda pr: verify.verify_bisubharmonic(
        int(_param(pr, "d", 5)), float(_param(pr, "p", 0.5))),
    "small_lemmas": lambda pr: verify.verify_small_lemmas(),
    "table2": lambda pr: verify.verify_table2(),
    "table3": lambda pr: verify.verify_table3(),
    "interpolation_tilde": lambda pr: verify.verify_interpolation_tilde(),
    "appendix_claims": lambda pr: phase.verify_appendix_claims(int(_param(pr, "d", 5))),
    "asymptotics": lambda pr: phase.asymptotic_check(range(5, 61)),
}


def _run_verify(params: dict, fmt: str) -> tuple[int, str]:
    lemma = params["lemma"]
    if lemma not in LEMMAS:
        raise DomainError(f"unknown lemma {lemma!r}; known: {', '.join(sorted(LEMMAS))}")
    report = LEMMAS[lemma](params)
    chart_path = params.get("chart")
    if chart_path:
        # long-format sign chart, including the divergent zone p >= 3s/2
        # (recorded as sign -1, H = -inf)
        pts = [(p, s) for p in np.geomspace(0.05, 2.9, 30) for s in np.geomspace(1.05, 12.0, 30)]
        rows = verify.h_sign_chart(pts)
        with open(chart_path, "w") as fh:
            fh.write("p,s,H,sign\n")
            for r in rows:
                fh.write(f"{r['p']:.6f},{r['s']:.6f},{r['H']:.6e},{r['sign']}\n")
    text = _jdump(report.to_dict()) if fmt == "json" else _report_csv(report)
    return (0 if report.passed else 2), text


def _report_csv(report) -> str:
    lines = ["lemma_id,passed,min_margin,region",
             f"{report.lemma_id},{report.passed},{report.min_margin:.6e},\"{report.region}\""]
    return "\n".join(lines) + "\n"


def _run_slice(params: dict, fmt: str) -> tuple[int, str]:
    query = MomentQuery(4, -2.0, _parse_coeffs(params["coeffs"]))  # the slice volume's moment
    c, unit = query._scaled_norm()  # the slice direction is scale-free: any finite scale works
    coeffs = np.asarray(query.coeffs) / c / unit
    n = len(coeffs)
    vol = sample.polydisc_slice_volume(coeffs)
    lo, hi = math.pi ** (n - 1), 2.0 * math.pi ** (n - 1)
    if fmt == "json":
        return 0, _jdump({"n": n, "direction": list(coeffs), "volume": vol,
                          "min_section": lo, "max_section": hi})
    lines = ["n,volume,min_section,max_section",
             f"{n},{vol:.10f},{lo:.10f},{hi:.10f}"]
    return 0, "\n".join(lines) + "\n"


def _run_mc(params: dict, fmt: str) -> tuple[int, str]:
    d, p, seed = int(params["d"]), float(params["p"]), int(_param(params, "seed", 0))
    coeffs = _parse_coeffs(params["coeffs"])
    n = int(_param(params, "n", 100_000))
    stats = sample.estimate_moment(MomentQuery(d, -p, coeffs), n, seed=seed)
    if fmt == "json":
        return 0, _jdump({"d": d, "p": p, "coeffs": list(coeffs),
                          "n_samples": stats.n_samples, "estimate": stats.estimate,
                          "std_error": stats.std_error, "method": stats.method,
                          "seed": stats.seed})
    lines = ["n_samples,estimate,std_error,method,seed",
             f"{stats.n_samples},{stats.estimate:.10f},{stats.std_error:.3e},{stats.method},{stats.seed}"]
    return 0, "\n".join(lines) + "\n"


def _margin_rows(rows, scale: str, left, right, floors_left, floors_right) -> list[str]:
    """The row header, computed margins and printed floors of Table 2 or 3, in units of scale."""
    return (["row," + ",".join(str(i) for i in rows)]
            + [f"computed_{side}_{scale}," + ",".join(f"{v:.3f}" for v in vals)
               for side, vals in (("left", left), ("right", right))]
            + [f"floor_{side}_{scale}," + ",".join(str(v) for v in vals)
               for side, vals in (("left", floors_left), ("right", floors_right))])


def table_writer(which: int) -> str:
    """Byte-stable CSV reproduction of the three numeric tables."""
    if which == 1:
        lines = ["d,q_star"] + [f"{r.d},{r.q_star:.6f}" for r in phase._q_star_batch(range(1, 13))]
    elif which == 2:
        lines = _margin_rows(range(12), "x1e3", *verify.table2_margins(),
                             verify.TABLE2_FLOORS_LEFT, verify.TABLE2_FLOORS_RIGHT)
    elif which == 3:
        left, right, ell0 = verify.table3_margins()
        lines = _margin_rows(range(1, 7), "x1e4", left, right,
                             verify.TABLE3_FLOORS_LEFT, verify.TABLE3_FLOORS_RIGHT)
        lines.append(f"ell0_margin_at_0.02,{ell0:.6e}")
    else:
        raise DomainError(f"tables are 1, 2 or 3; got {which}")
    return "\n".join(lines) + "\n"


_VERB_HANDLERS = {
    "constants": _run_constants,
    "qstar": _run_qstar,
    "moment": _run_moment,
    "verify": _run_verify,
    "slice": _run_slice,
    "mc": _run_mc,
    "tables": lambda params, fmt: (0, table_writer(params["which"])),
}


# ----------------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # invalid arguments exit with code 1, not 2
        raise DomainError(message)


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default=argparse.SUPPRESS)
    common.add_argument("--output", default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    parser = _Parser(prog="khinsphere",
                     description="Sharp Khinchin constants for sphere-uniform sums")
    parser.add_argument("--format", choices=("json", "csv"), default="csv")
    parser.add_argument("--output", default=None)
    parser.add_argument("--seed", type=int, default=None)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    pc = sub.add_parser("constants", parents=[common], help="c_two / c_inf / min at (d, q)")
    pc.add_argument("--d", type=int, required=True)
    pc.add_argument("--q", type=float, required=True)

    pq = sub.add_parser("qstar", parents=[common], help="phase-transition roots for a range of d",
                        description="Phase-transition roots q_d* for d_min <= d <= d_max. At the "
                        "default tol every d <= 79 succeeds; most d in 80..145 fail the 1e-10 "
                        "residual bound (exit 3), and from d = 146 no bracket is found.")
    pq.add_argument("--d-min", dest="d_min", type=int, default=1)
    pq.add_argument("--d-max", dest="d_max", type=int, default=12)
    pq.add_argument("--tol", type=float, default=None)

    pm = sub.add_parser("moment", parents=[common], help="negative moment by quadrature/2F1/MC")
    pm.add_argument("--d", type=int, default=4)
    pm.add_argument("--p", type=float, required=True)
    pm.add_argument("--coeffs", required=True)
    pm.add_argument("--n", type=int, default=None)

    pv = sub.add_parser("verify", parents=[common], help="run a named lemma verifier")
    pv.add_argument("--lemma", required=True)
    pv.add_argument("--d", type=int, default=None)
    pv.add_argument("--p", type=float, default=None)
    pv.add_argument("--chart", default=None, help="write an H(p,s) sign chart CSV here")

    ps = sub.add_parser("slice", parents=[common], help="polydisc hyperplane-section volume")
    ps.add_argument("--coeffs", required=True)

    pmc = sub.add_parser("mc", parents=[common], help="Monte Carlo moment estimate")
    pmc.add_argument("--d", type=int, default=4)
    pmc.add_argument("--p", type=float, required=True)
    pmc.add_argument("--coeffs", required=True)
    pmc.add_argument("--n", type=int, default=None)

    pt = sub.add_parser("tables", parents=[common], help="regenerate a numeric table as CSV")
    pt.add_argument("--which", type=int, required=True)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        params = {k: v for k, v in vars(ns).items()
                  if k not in ("format", "output", "command") and v is not None}
        code, text = _VERB_HANDLERS[ns.command](params, ns.format)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, ToleranceError, NoBracketError, MultipleRootsError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except KhinsphereError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if ns.output:
        with open(ns.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

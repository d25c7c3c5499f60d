"""The three benchmark workloads: seeded inputs, the ops that run them, and their checks.

Inputs come only from ``numpy.random.default_rng(seed)``; the program under test
receives the generated inputs and nothing else.  The mix of categorical
input properties (query kind, dimension, number of coefficients, small-weight
flag) and the bins of the continuous ones are a fixed design; the seed draws
the values inside the bins and the order of the ops.  Two seeds thus give
streams with the same mix and different values, and the cost of a run moves
with the program, not with the luck of the draw.

``khinsphere`` is imported lazily by the functions that call it, so that a
worker can time the import itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("lemma-sweep", "moment-queries", "mc-khinchin")

# ----------------------------------------------------------------------------
# sizes, chosen so that one run measures about --seconds on a 2-core Xeon
# ----------------------------------------------------------------------------

SWEEP_SECONDS = 5.0        # one lemma sweep at the grids below
H_GRID = (12, 12)          # verify_H_regions / verify_H_tilde_region
UG_GRID = (25, 25)         # verify_U_less_G for i/ii/iii/tilde
CHART_POINTS = 40          # seeded h_sign_chart points per sweep
QUERY_RATE = 15.5          # moment queries per nominal second of a pass
MC_P = (0.5, 1.5, 2.5)
MC_N = (2, 3, 4, 5, 6)     # one coefficient set of each size per batch
MC_SAMPLES = 50_000
MC_BATCH_SECONDS = 0.16    # one batch of five sets at MC_SAMPLES

# relative allowance for floating-point rounding in the inequality checks
ROUND = 1e-9
# min_margin must reproduce the recorded value to QuadratureConfig's tolerance
MARGIN_ABS, MARGIN_REL = 1e-10, 1e-9
# check_khinchin's base threshold: 4 sigma, one-sided
MC_BASE_ALPHA = 0.5 * math.erfc(4.0 / math.sqrt(2.0))


def passes(workload: str, seconds: float) -> int:
    """Fresh-interpreter passes over the same inputs that one run makes."""
    if workload == "lemma-sweep":
        return max(3, round(seconds / SWEEP_SECONDS))
    if workload == "moment-queries":
        return 2  # a longer stream steadies the tail more than a third pass would
    return 3


def stream_length(workload: str, seconds: float) -> int:
    """Ops per pass (moment queries, or mc batches per p)."""
    per_pass = seconds / passes(workload, seconds)
    if workload == "moment-queries":
        return max(40, round(QUERY_RATE * per_pass))
    if workload == "mc-khinchin":
        return max(2, round(per_pass / (len(MC_P) * MC_BATCH_SECONDS)))
    return CHART_POINTS


class Cycle:
    """The j-th draw is values[j mod len(values)]: a fixed design, the same for every seed."""

    def __init__(self, values):
        self.values = list(values)
        self.j = -1

    def draw(self):
        self.j += 1
        return self.values[self.j % len(self.values)]


class Strata:
    """The j-th draw is uniform in bin (j mod k) of [lo, hi); the seed only jitters it in its bin."""

    def __init__(self, k: int, rng: np.random.Generator):
        self.bins = Cycle(range(k))
        self.rng = rng

    def draw(self, lo: float, hi: float) -> float:
        k = self.bins.draw()
        return lo + (hi - lo) * (k + self.rng.random()) / len(self.bins.values)


# ----------------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class Op:
    """One timed call: what it runs and with which inputs."""

    kind: str
    args: tuple


def sweep_ops(seed: int, n_points: int = CHART_POINTS) -> list[Op]:
    """The lemma sweep: a fixed chart point, every verifier once, then seeded chart points."""
    ops = [Op("chart", ((1.0, 3.0),))]
    ops += [Op("verify_H_regions", (H_GRID,)), Op("verify_H_tilde_region", (H_GRID,))]
    ops += [Op("verify_U_less_G", (case, UG_GRID)) for case in ("i", "ii", "iii", "tilde")]
    ops += [Op("verify_ind_base", ()), Op("verify_small_lemmas", ())]
    ops += [Op("verify_bisubharmonic", (d, 0.5 * (d - 4.0))) for d in range(5, 11)]
    ops += [Op("verify_table2", ()), Op("verify_table3", ()), Op("verify_interpolation_tilde", ())]
    ops += [Op("verify_appendix_claims", (d,)) for d in (5, 10, 20, 40)]
    ops += [Op("asymptotic_check", (5, 60))]
    rng = np.random.default_rng([seed, 1])
    zone = Cycle(["box", "edge", "box", "divergent", "box"])
    # coprime bin counts, so the box points fill the (p, s) cells instead of a diagonal
    log_p, log_s, s_low, gap = Strata(3, rng), Strata(8, rng), Strata(8, rng), Strata(3, rng)
    chart = []
    for _ in range(n_points):
        where = zone.draw()
        if where == "box":
            p = math.exp(log_p.draw(math.log(0.05), math.log(2.9)))
            s = math.exp(log_s.draw(math.log(1.05), math.log(12.0)))
        elif where == "edge":  # just inside the convergence boundary p = 3s/2
            s = s_low.draw(1.05, 2.9 / 1.5)
            p = 1.5 * s * (1.0 - 10.0 ** gap.draw(-4.0, -1.0))
        else:  # divergent zone, where H = -inf by definition
            s = s_low.draw(1.05, 2.9 / 1.5)
            p = rng.uniform(1.5 * s, 2.9)
        chart.append(Op("chart", ((float(p), float(s)),)))
    return ops + [chart[i] for i in rng.permutation(len(chart))]


def _weights(rng: np.random.Generator, n: int, ratio: float | None) -> list[float]:
    """n weights in [0.5, 1] with random signs; with ``ratio``, one of them is ratio * max.

    Small weights are the separate ``ratio`` case: weights spread wider than a
    factor 2 make the quadrature range, hence the cost of a query, swing with
    the seed.
    """
    w = rng.uniform(0.5, 1.0, n)
    if ratio is not None:
        w[rng.integers(n)] = ratio * w.max()
    return [float(x) for x in w * rng.choice((-1.0, 1.0), n)]


def _unit(a) -> tuple[float, ...]:
    a = np.asarray(a, dtype=float)
    return tuple(float(x) for x in a / np.linalg.norm(a))


def query_ops(seed: int, n_queries: int) -> list[Op]:
    """A closed-loop stream of moment queries and slice volumes, in seeded order.

    The mix of query kinds, d, n, small-weight flags and the bins of the
    continuous draws is a fixed design; the seed draws the values inside the
    bins and the order.  The stream's cost then moves with the program, not
    with how many costly combinations a seed happened to draw.
    """
    rng = np.random.default_rng([seed, 2])
    kind = Cycle(["slice", "moment", "moment", "moment"])
    small = Cycle([True, False, False, False, False])
    dims, sizes, slice_sizes = Cycle([3, 4, 5, 8]), Cycle(range(2, 11)), Cycle(range(2, 13))
    log_gap, log_ratio, p_share = Strata(6, rng), Strata(8, rng), Strata(8, rng)
    # the memory corner, in every stream: a weight ratio below any drawn one
    # gives a quadrature grid larger than any drawn query's, so peak memory
    # does not hang on which extreme the seed happened to draw
    corner = Op("moment", (4, 1.0, (1.0, 2.5e-4)))
    ops = []
    for _ in range(n_queries - 1):
        ratio = 10.0 ** log_ratio.draw(-3.0, -1.0) if small.draw() else None
        if kind.draw() == "slice":
            ops.append(Op("slice", (_unit(_weights(rng, slice_sizes.draw(), ratio)),)))
            continue
        d, n = dims.draw(), sizes.draw()
        p_max = d - 1.0  # MomentQuery needs q = -p > -(d-1); p < n(d-1)/2 then holds
        p = p_max * p_share.draw(0.02, 0.96)
        if n == 2:
            if ratio is None:
                # 1 - t log-uniform down to 1e-6: a1 = a2 is the extremal case for p > 2
                t = 1.0 - 10.0 ** log_gap.draw(-6.0, 0.0)
                r = math.sqrt(t)
            else:
                r = ratio
            scale = 10.0 ** rng.uniform(-0.5, 0.5)
            a = [scale, scale * r]
            if rng.random() < 0.5:
                a.reverse()
            a = [x * float(rng.choice((-1.0, 1.0))) for x in a]
        else:
            a = _weights(rng, n, ratio)
        ops.append(Op("moment", (d, float(p), tuple(a))))
    return [corner] + [ops[i] for i in rng.permutation(len(ops))]


def mc_ops(seed: int, n_batches: int) -> list[Op]:
    """check_khinchin batches: for each p, batches of five unit sets with n = 2..6.

    The coefficient sets and sampling seeds are one fixed design; ``seed``
    only orders the batches.  time_to_1pct_s extrapolates from the standard
    errors the program reports, and at p = 1.5 and 2.5 (d = 4) these swing by
    20-35% between sample draws (the variance of |S|^-p is infinite or nearly
    so), which no affordable number of batches averages out; with the draws
    fixed, the metric moves only with the program.
    """
    rng = np.random.default_rng([0, 3])
    ops = []
    for p in MC_P:
        for _ in range(n_batches):
            sets = tuple(_unit(_weights(rng, int(n), None)) for n in rng.permutation(MC_N))
            ops.append(Op("khinchin", (p, sets, MC_SAMPLES, int(rng.integers(1 << 31)))))
    return [ops[i] for i in np.random.default_rng([seed, 3]).permutation(len(ops))]


def make_ops(workload: str, seed: int, seconds: float) -> list[Op]:
    """All ops of one pass; op 0 is the set-up op, timed together with the import."""
    length = stream_length(workload, seconds)
    if workload == "lemma-sweep":
        return sweep_ops(seed, length)
    if workload == "moment-queries":
        return [Op("moment", (4, 1.0, (1.0, 0.5)))] + query_ops(seed, length)
    if workload == "mc-khinchin":
        return [Op("khinchin", (MC_P[0], ((0.6, 0.8),), MC_SAMPLES, 0))] + mc_ops(seed, length)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


# ----------------------------------------------------------------------------
# running one op
# ----------------------------------------------------------------------------

def run_op(op: Op):
    """Run one op through khinsphere's public functions and return its raw result."""
    from khinsphere import phase, sample, verify
    from khinsphere.constants import MomentQuery
    from khinsphere.quad import product_moment
    from khinsphere.specfun import hyp2f1

    k, a = op.kind, op.args
    if k == "chart":
        return verify.h_sign_chart([a[0]])[0]
    if k == "moment":
        d, p, coeffs = a
        pm = product_moment(MomentQuery(d, -p, coeffs))
        if len(coeffs) != 2:
            return pm, None
        hi, lo = sorted((abs(c) for c in coeffs), reverse=True)
        t = (lo / hi) ** 2
        return pm, hi ** (-p) * hyp2f1(p / 2.0, (p - d + 2.0) / 2.0, d / 2.0, t)
    if k == "slice":
        return sample.polydisc_slice_volume(a[0])
    if k == "khinchin":
        p, sets, n_samples, seed = a
        return sample.check_khinchin(4, p, sets, n_samples, seed=seed)
    if k == "verify_appendix_claims":
        return phase.verify_appendix_claims(*a)
    if k == "asymptotic_check":
        return phase.asymptotic_check(range(a[0], a[1] + 1))
    return getattr(verify, k)(*a)


def op_label(op: Op) -> str:
    if op.kind.startswith("verify_") or op.kind == "asymptotic_check":
        return op.kind + "(" + ", ".join(repr(x) for x in op.args) + ")"
    return f"{op.kind}{op.args if op.kind != 'khinchin' else (op.args[0], len(op.args[1]))}"


def n_comparisons(op: Op) -> int:
    """Ops counted for ``attempted``: one per coefficient set of a khinchin batch."""
    return len(op.args[1]) if op.kind == "khinchin" else 1


# ----------------------------------------------------------------------------
# checks (run after the timed region)
# ----------------------------------------------------------------------------

def known_defect(op: Op, error: Exception | None) -> str | None:
    """Name the known defect of the program that explains a failed op, if any.

    hyp2f1-near-1: the 2F1 power series runs out of its 10,000-term budget and
    raises ConvergenceError when t is close to 1.
    product_moment-small-weight: at d = 8 with one weight below a tenth of the
    largest and p > 4, product_moment is off by up to ~1e-4 relative with no
    ToleranceError (the hypergeometric value agrees with mpmath).
    """
    from khinsphere.errors import ConvergenceError

    if op.kind == "moment":
        d, p, coeffs = op.args
        amps = sorted(abs(c) for c in coeffs)
        if isinstance(error, ConvergenceError) and len(coeffs) == 2 and "hyp2f1" in str(error):
            if (amps[0] / amps[1]) ** 2 > 0.99:
                return "hyp2f1-near-1"
        if error is None and d == 8 and p > 4.0 and amps[0] < 0.1 * amps[-1]:
            return "product_moment-small-weight"
    if op.kind == "khinchin" and isinstance(error, ConvergenceError) and "hyp2f1" in str(error):
        return "hyp2f1-near-1"
    return None


def check_op(op: Op, result, reference: dict, mc_threshold: float) -> list[str]:
    """Problems with one op's result; an empty list means the op is correct."""
    from khinsphere.constants import C2, C_infty

    k = op.kind
    if k == "chart":
        p, s = op.args[0]
        h = result["H"]
        if p >= 1.5 * s:
            return [] if h == -math.inf and result["sign"] == -1 else [f"H={h} in the divergent zone"]
        if not math.isfinite(h):
            return [f"H={h} where F converges"]
        in_a = p <= 2.0 and s >= 2.0 and not (p > 2.0 - 1e-3 and s < 2.0 + 1e-3)
        in_b = p <= 0.25 and s >= 1.3
        if (in_a or in_b) and not h > 0:
            return [f"H={h:.3e} <= 0 inside a lemma region"]
        return []
    if k == "moment":
        d, p, coeffs = op.args
        pm, hy = result
        norm = math.sqrt(sum(c * c for c in coeffs))
        out = []
        if hy is not None and abs(pm - hy) > 1e-9 * abs(hy):
            out.append(f"product_moment={pm!r} vs hyp2f1={hy!r}, rel {abs(pm / hy - 1):.2e}")
        if pm < norm ** (-p) * (1.0 - ROUND):
            out.append(f"Jensen floor: {pm!r} < |a|^-p = {norm ** (-p)!r}")
        if d == 4 and p < 3.0:
            c = C_infty(p) if p <= 2.0 else C2(p)
            if pm > c * norm ** (-p) * (1.0 + ROUND):
                out.append(f"Khinchin ceiling: {pm!r} > C(p)|a|^-p = {c * norm ** (-p)!r}")
        return out
    if k == "slice":
        lo = math.pi ** (len(op.args[0]) - 1)
        if not lo * (1.0 - ROUND) <= result <= 2.0 * lo * (1.0 + ROUND):
            return [f"slice volume {result!r} outside [pi^(n-1), 2 pi^(n-1)]"]
        return []
    if k == "khinchin":  # one problem per failing coefficient set
        threshold = max(result.threshold_sigma, mc_threshold)
        out = []
        for e, exact in zip(result.entries, reference["exact"]):
            gap = abs(e.estimate - exact)
            if e.violated:
                out.append(f"{e.coeffs}: Khinchin violation, margin {e.margin_sigma:.1f} se")
            elif e.std_error > 0 and gap > threshold * e.std_error:
                out.append(f"{e.coeffs}: MC {e.estimate!r} is {gap / e.std_error:.1f} se "
                           f"from product_moment {exact!r}")
            elif e.std_error == 0 and gap > 1e-9 * abs(exact):
                out.append(f"{e.coeffs}: {e.route} {e.estimate!r} vs product_moment {exact!r}")
        return out
    # verifier reports: must pass and reproduce the recorded margin
    rec = reference.get(op_label(op))
    out = [] if result.passed else [f"{result.lemma_id} failed, min_margin={result.min_margin!r}"]
    if rec is None:
        out.append("no recorded min_margin")
    elif abs(result.min_margin - rec) > MARGIN_ABS + MARGIN_REL * abs(rec):
        out.append(f"min_margin {result.min_margin!r} != recorded {rec!r}")
    return out


def mc_reference(op: Op) -> dict:
    """Exact moments for a khinchin batch, computed outside the timed region."""
    from khinsphere.constants import MomentQuery
    from khinsphere.quad import product_moment

    p, sets = op.args[0], op.args[1]
    return {"exact": [product_moment(MomentQuery(4, -p, a)) for a in sets]}


def fingerprint(result) -> list:
    """A JSON-safe, bit-exact image of an op result (floats as hex)."""
    if isinstance(result, float):
        return [result.hex()]
    if isinstance(result, (int, str)) or result is None:
        return [result]
    if isinstance(result, dict):
        return [x for k in sorted(result) for x in [k] + fingerprint(result[k])]
    if isinstance(result, (tuple, list)):
        return [x for r in result for x in fingerprint(r)]
    if hasattr(result, "entries"):  # KhinchinReport
        return [x for e in result.entries for x in fingerprint((e.estimate, e.std_error))]
    if hasattr(result, "min_margin"):  # VerificationReport
        return fingerprint((result.passed, result.min_margin))
    return [repr(result)]

"""The benchmark's own arithmetic: medians, the tail percentile and the Monte Carlo time to 1%."""
from __future__ import annotations

import statistics
from time import perf_counter

TAIL_BEYOND = 10
# a fixed pure-Python loop, and its time on an unloaded core of a 2-core Xeon
PROBE_ITERS = 30_000
PROBE_REF_S = 2.0e-3


def host_probe() -> float:
    """Seconds the fixed loop takes right now: the host's current speed."""
    t0 = perf_counter()
    acc = 0
    for i in range(PROBE_ITERS):
        acc += i * i % 7
    return perf_counter() - t0


def host_scaled(times, probes) -> list[float]:
    """Scale op times to the reference host speed.

    ``probes`` holds len(times) + 1 probe times, one before each op and one
    after the last.  Op i is scaled by PROBE_REF_S over the median of the
    probes within two ops of it.  Other tenants slow this host's cores by up
    to 70% for spells of seconds to minutes, which no number of passes within
    one run averages out; the loop slows with them.
    """
    out = []
    for i, t in enumerate(times):
        near = probes[max(0, i - 2):i + 4]
        out.append(t * PROBE_REF_S / statistics.median(near))
    return out


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """The highest order statistic with at least ``beyond`` samples above it.

    Returns (value, percentile, sample count); the percentile is the share of
    samples at or below the value, 100 (n - beyond) / n.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        raise ValueError(f"a tail with {beyond} samples beyond it needs more than {beyond} samples, got {n}")
    return xs[n - 1 - beyond], 100.0 * (n - beyond) / n, n


def clt_times(calls) -> list[float]:
    """CLT-extrapolated time of each check_khinchin call to a 1% relative standard error.

    ``calls`` holds (p, wall_seconds, [(se, exact), ...]) per call, the pairs
    being the estimates that used sampling.  A call that took w seconds needs
    w (se / (0.01 |exact|))^2 to bring an estimate to 1%.  The factor is the
    median over all entries with the call's p, not the mean over the call's
    own entries: at d = 4 and p >= 1.5 the variance of |S|^(-p) is infinite
    or nearly so, and a mean of squared standard errors is then dominated by
    the odd entry whose sample held one huge value.
    """
    calls = list(calls)
    pooled: dict = {}
    for p, _, entries in calls:
        pooled.setdefault(p, []).extend((se / (0.01 * abs(exact))) ** 2 for se, exact in entries)
    factor = {p: statistics.median(v) if v else 0.0 for p, v in pooled.items()}
    return [wall * factor[p] for p, wall, _ in calls]


def per_op_min(passes) -> list[float]:
    """Each op's fastest time over several passes made at different moments.

    The host's speed drifts by up to 70% over seconds (other tenants share the
    cores); a slowdown only ever adds time, so the fastest of the passes is
    the steadiest estimate of what the op costs.
    """
    return [min(col) for col in zip(*passes)]

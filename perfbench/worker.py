"""One fresh interpreter of a benchmark run: a set-up probe or one pass over a workload.

Usage: python3 perfbench/worker.py '<json config>'; run.py starts it.  The last
line of standard output is one JSON object with the pass's measurements.
Nothing but the standard library and this directory is imported before
``import khinsphere`` is timed.
"""
from __future__ import annotations

import hashlib
import json
import math
import pathlib
import resource
import statistics
import sys
from time import perf_counter

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))


def _timed_setup(cfg: dict):
    """import khinsphere plus the workload's first op, in this fresh interpreter, host-scaled."""
    import stats

    probe = statistics.median(stats.host_probe() for _ in range(5))
    sys.path.insert(0, str(ROOT / "src"))
    t0 = perf_counter()
    import khinsphere  # noqa: F401
    t1 = perf_counter()
    import workloads

    ops = workloads.make_ops(cfg["workload"], cfg["seed"], cfg["seconds"])
    t2 = perf_counter()
    workloads.run_op(ops[0])
    t3 = perf_counter()
    return ((t1 - t0) + (t3 - t2)) * stats.PROBE_REF_S / probe, ops


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(cfg: dict, ops) -> dict:
    """Time ops[1:] one after another (a closed loop with one client), then check them."""
    import stats
    import workloads
    from khinsphere.errors import KhinsphereError

    tracer = None
    if cfg["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    lat, results, errors, probes = [], [], [], []
    for i, op in enumerate(ops[1:], start=1):
        if tracer is not None:
            tracer.current_op = i
        probes.append(stats.host_probe())
        t0 = perf_counter()
        try:
            result, error = workloads.run_op(op), None
        except KhinsphereError as exc:  # a failed op is counted, not fatal
            result, error = None, exc
        lat.append(perf_counter() - t0)
        results.append(result)
        errors.append(error)
    probes.append(stats.host_probe())
    if tracer is not None:
        tracer.uninstall()

    prints = [workloads.fingerprint(r) if e is None else [type(e).__name__, str(e)]
              for r, e in zip(results, errors)]
    out = {"lat_s": stats.host_scaled(lat, probes), "raw_s": sum(lat),
           "host_slowdown": statistics.median(probes) / stats.PROBE_REF_S, "rss_mb": _rss_mb(),
           "hash": hashlib.sha256(json.dumps(prints).encode()).hexdigest(),
           "attempted": sum(workloads.n_comparisons(op) for op in ops[1:])}
    if cfg["check"]:
        out.update(check_pass(ops[1:], results, errors))
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, ops[1:], results, out["references"])
        if cfg.get("spans_path"):
            write_spans(tracer, cfg["spans_path"])
    out.pop("references", None)
    return out


def check_pass(ops, results, errors) -> dict:
    """Check every op against its oracle; failed ops carry a known-defect name or None."""
    import workloads

    refs = json.loads((HERE / "reference.json").read_text())
    mc_refs = [workloads.mc_reference(op) if op.kind == "khinchin" else None for op in ops]
    n_mc = sum(1 for op, r in zip(ops, results) if op.kind == "khinchin" and r is not None
               for e in r.entries if e.std_error > 0)
    # Bonferroni across every Monte Carlo comparison of the pass, as
    # check_khinchin widens its own threshold across a batch
    alpha = workloads.MC_BASE_ALPHA / max(1, n_mc)
    mc_threshold = statistics.NormalDist().inv_cdf(1.0 - alpha / 2.0)
    failures, clt = [], []
    for i, (op, result, error) in enumerate(zip(ops, results, errors), start=1):
        problems = [f"{type(error).__name__}: {error}"] if error is not None else \
            workloads.check_op(op, result, mc_refs[i - 1] or refs, mc_threshold)
        if problems:
            failures.append({"op": i, "label": workloads.op_label(op), "problems": problems,
                             "known": workloads.known_defect(op, error),
                             "count": len(problems) if error is None and op.kind == "khinchin"
                             else workloads.n_comparisons(op)})
        if op.kind == "khinchin":
            entries = [] if result is None else result.entries
            clt.append([op.args[0], [(e.std_error, ex) for e, ex in
                                     zip(entries, mc_refs[i - 1]["exact"]) if e.std_error > 0]])
        else:
            clt.append(None)
    return {"failures": failures, "clt": clt, "references": mc_refs}


def layer_metrics(tracer, ops, results, mc_refs) -> dict:
    """Per-layer numbers of one traced pass: span statistics plus the sampling layer's counters."""
    from tracer import TAG_N8PLUS, TAG_SMALL_WEIGHT, span_stats

    out = {}
    stats = span_stats(tracer.spans())
    for label, st in stats.items():
        for stat in ("calls", "s", "self_s", "failed"):
            out[f"{label}.{stat}"] = st[stat]
    pm = stats["quad.product_moment"]["tagged_s"]
    out["quad.product_moment.s_n8plus"] = pm.get(TAG_N8PLUS, 0.0)
    out["quad.product_moment.s_small_weight"] = pm.get(TAG_SMALL_WEIGHT, 0.0)
    # sampling layer: samples drawn, precision of the Monte Carlo entries
    n_total, rse2, n_mom = 0, [], 0
    for op, result, ref in zip(ops, results, mc_refs):
        if op.kind != "khinchin" or result is None:
            continue
        for e, exact in zip(result.entries, ref["exact"]):
            if e.route in ("plain-mean", "median-of-means"):
                n_total += op.args[2]
                n_mom += e.route == "median-of-means"
                rse2.append((e.std_error / abs(exact)) ** 2)
    n_entries = len(rse2)
    rse_rms = math.sqrt(sum(rse2) / len(rse2)) if rse2 else 0.0
    out["sample.samples"] = n_total
    out["sample.rel_se_rms"] = rse_rms
    out["sample.precision_per_sample"] = \
        n_entries / (n_total * rse_rms ** 2) if n_total and rse_rms > 0 else 0.0
    out["sample.mom_share"] = n_mom / n_entries if n_entries else 0.0
    return out


def write_spans(tracer, path: str) -> None:
    import numpy as np

    spans = tracer.spans()
    target = ROOT / path
    target.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(target, names=np.asarray(spans.pop("names")),
                        **{k: np.asarray(v) for k, v in spans.items()})


def main(argv) -> int:
    cfg = json.loads(argv[1])
    setup_s, ops = _timed_setup(cfg)
    out = {"setup_s": setup_s}
    if cfg["role"] == "pass":
        out.update(run_pass(cfg, ops))
    else:
        out["rss_mb"] = _rss_mb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

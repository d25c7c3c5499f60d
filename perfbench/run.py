#!/usr/bin/env python3
"""khinsphere benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload lemma-sweep --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout.  Every measurement happens in a
fresh single-threaded interpreter (perfbench/worker.py) that imports
khinsphere from ./src.  With --trace 0 the run makes several set-up probes and
passes and reports the end-to-end metrics of BENCHMARK.json; with --trace 1 it
makes one untraced and one traced pass over the same inputs, checks that their
outputs agree bit for bit, and reports the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 8
RUN_BUDGET_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def calib_s() -> float:
    """Median of three host probes: the host's speed right now."""
    return statistics.median(stats.host_probe() for _ in range(3))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.update({var: "1" for var in THREAD_VARS})  # single-threaded, at most nproc
    return env


def host_metadata() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {"cpu": cpu, "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git": git_sha(), "threads": {var: "1" for var in THREAD_VARS}}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Starts worker interpreters one at a time and collects their JSON results."""

    def __init__(self, args):
        self.args = args
        self.env = child_env()
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def worker(self, role: str, trace: bool = False, check: bool = False, spans_path=None) -> dict:
        cfg = {"workload": self.args.workload, "seed": self.args.seed, "seconds": self.args.seconds,
               "role": role, "trace": trace, "check": check, "spans_path": spans_path}
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("run budget exhausted")
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
                              cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"worker {role} failed ({proc.returncode}):\n{proc.stderr}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(workload: str, probes: list[dict], passes: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics from the set-up probes and the untraced passes."""
    checked = passes[0]
    lat = stats.per_op_min([p["lat_s"] for p in passes])
    if workload == "mc-khinchin":
        # every time is a CLT-extrapolated time to 1% relative standard error
        lat = stats.clt_times((p, w, e) for w, (p, e) in zip(lat, checked["clt"]))
    result_s = sum(lat)
    tail_value, tail_pct, tail_n = stats.tail(lat)
    metrics = {
        "setup_s": statistics.median([p["setup_s"] for p in probes + passes]),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "time_to_result_s": result_s,
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_tail_ms": 1e3 * tail_value,
    }
    n_ops = len(lat)
    detail = {"tail_percentile": tail_pct, "latency_samples": tail_n,
              "host_slowdown": [round(p["host_slowdown"], 3) for p in passes],
              "raw_pass_s": [round(p["raw_s"], 3) for p in passes],
              "setup_samples": len(probes) + len(passes), "passes": len(passes),
              {"lemma-sweep": "sweep_s", "moment-queries": "queries_per_s",
               "mc-khinchin": "time_to_1pct_s"}[workload]:
                  n_ops / result_s if workload == "moment-queries" else result_s}
    return metrics, detail


def run(args) -> dict:
    runner = Runner(args)
    calib_before = calib_s()
    if args.trace:
        plain = runner.worker("pass", check=True)
        traced = runner.worker("pass", trace=True, check=True,
                               spans_path=f"perfbench/out/spans-{args.workload}-seed{args.seed}.npz")
        checked, hashes = plain, {plain["hash"], traced["hash"]}
        metrics = dict(traced["layers"])
        # host-scaled, like the end-to-end times: raw times swing with the host
        plain_s, traced_s = sum(plain["lat_s"]), sum(traced["lat_s"])
        metrics["trace.overhead_s"] = traced_s - plain_s
        detail = {"untraced_s": plain_s, "traced_s": traced_s,
                  "traced_outputs_identical": len(hashes) == 1}
    else:
        runner.worker("setup")  # compiles bytecode in a fresh checkout; not timed
        # probes and passes alternate, so that a slow spell of the host
        # reaches few of either
        probes, passes = [], []
        n_passes = workloads.passes(args.workload, args.seconds)
        for i in range(max(SETUP_PROBES, n_passes)):
            if i < SETUP_PROBES:
                probes.append(runner.worker("setup"))
            if i < n_passes:
                passes.append(runner.worker("pass", check=(i == 0)))
        checked, hashes = passes[0], {p["hash"] for p in passes}
        metrics, detail = end_to_end(args.workload, probes, passes)
    calib_after = calib_s()
    metrics["host.calib_s"] = statistics.mean([calib_before, calib_after])
    detail.update({"host.calib_s_before": calib_before, "host.calib_s_after": calib_after})
    failures = checked["failures"]
    unknown = [f for f in failures if f["known"] is None]
    return {"correct": not unknown and len(hashes) == 1,
            "attempted": checked["attempted"],
            "failed": sum(f["count"] for f in failures),
            "metrics": metrics, "detail": detail, "failures": failures,
            "deterministic": len(hashes) == 1}


def report(args, bench: dict, out: dict, meta: dict) -> dict:
    """Print the human-readable report and return the metrics BENCHMARK.json names."""
    names = bench["per_layer"] if args.trace else bench["end_to_end"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("host " + json.dumps(meta, sort_keys=True))
    for key, value in sorted(out["detail"].items()):
        print(f"  {key:28s} {value}")
    metrics = {}
    for m in names:
        value = out["metrics"][m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:40s} {value!r:>24} {m['unit']}")
    print(f"{'ops':40s} {out['attempted']:>24}")
    print(f"{'failed_ops':40s} {out['failed']:>24}")
    for f in out["failures"]:
        print(f"  failed op {f['op']} [{f['known'] or 'UNKNOWN'}] x{f['count']} {f['label']}")
        for problem in f["problems"]:
            print(f"      {problem}")
    if not out["deterministic"]:
        print("  outputs differ between passes over the same inputs")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "khinsphere" / "__init__.py").is_file():
        print(f"no khinsphere source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = host_metadata()
    out = run(args)
    metrics = report(args, bench, out, meta)
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

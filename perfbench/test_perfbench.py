"""Tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest perfbench -q
"""
import math
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, span_stats  # noqa: E402


def _spans(rows):
    """rows: (name, start, end, parent) with times in ns."""
    names = sorted({r[0] for r in rows})
    return {"names": names, "name": [names.index(r[0]) for r in rows],
            "start": [r[1] for r in rows], "end": [r[2] for r in rows],
            "parent": [r[3] for r in rows], "op": [0] * len(rows),
            "tag": [0] * len(rows), "failed": [0] * len(rows)}


class TestTail:
    def test_ten_samples_beyond(self):
        value, pct, n = stats.tail(range(1, 101))
        assert (value, pct, n) == (90, 90.0, 100)
        assert sum(x > value for x in range(1, 101)) == 10

    def test_percentile_follows_sample_count(self):
        value, pct, n = stats.tail([float(i) for i in range(400)])
        assert value == 389.0 and pct == 97.5 and n == 400

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            stats.tail(range(10))


class TestHostScaling:
    def test_steady_host(self):
        probes = [stats.PROBE_REF_S * 2.0] * 4
        assert stats.host_scaled([1.0, 3.0, 5.0], probes) == pytest.approx([0.5, 1.5, 2.5])

    def test_slow_spell_is_scaled_out(self):
        # the host runs at half speed for ops 3..5; their raw times double
        ref = stats.PROBE_REF_S
        probes = [ref] * 3 + [2 * ref] * 6 + [ref] * 3
        raw = [1.0] * 3 + [2.0] * 3 + [1.0] * 5
        scaled = stats.host_scaled(raw, probes)
        assert scaled[4] == pytest.approx(1.0) and scaled[0] == pytest.approx(1.0)

    def test_fastest_pass_per_op(self):
        assert stats.per_op_min([[3.0, 1.0], [2.0, 4.0], [5.0, 1.5]]) == [2.0, 1.0]


class TestTimeTo1pct:
    def test_synthetic_se(self):
        # factors (se / 0.01)^2 = 4, 1, 9 at p = 1.5; median 4, so 2 s -> 8 s
        calls = [(1.5, 2.0, [(0.02, 1.0), (0.01, 1.0), (0.03, 1.0)])]
        assert stats.clt_times(calls) == pytest.approx([8.0])

    def test_factor_pools_entries_of_one_p(self):
        calls = [(2.5, 1.0, [(0.01, 2.0)]), (2.5, 3.0, [(0.04, 2.0), (0.06, 2.0)]),
                 (0.5, 1.0, [(0.001, 0.5)])]
        # p = 2.5 factors 0.25, 4, 9 -> median 4; p = 0.5 factor 0.04
        assert stats.clt_times(calls) == pytest.approx([4.0, 12.0, 0.04])

    def test_one_huge_se_does_not_dominate(self):
        calm = [(2.5, 1.0, [(0.01, 1.0)] * 9)]
        wild = [(2.5, 1.0, [(0.01, 1.0)] * 8 + [(10.0, 1.0)])]
        assert stats.clt_times(wild) == stats.clt_times(calm)

    def test_no_sampled_entries(self):
        assert stats.clt_times([(0.5, 1.0, [])]) == [0.0]


class TestSpanStats:
    def test_nested(self):
        # A [0,100] holds B [10,60] and C [70,90]; B holds D [20,40]
        st = span_stats(_spans([("A", 0, 100, -1), ("B", 10, 60, 0),
                                ("D", 20, 40, 1), ("C", 70, 90, 0)]))
        assert st["A"]["self_s"] == pytest.approx(30e-9)
        assert st["B"]["self_s"] == pytest.approx(30e-9)
        assert st["A"]["s"] == pytest.approx(100e-9)
        assert st["D"]["s"] == st["D"]["self_s"] == pytest.approx(20e-9)

    def test_recursive(self):
        # E [0,100] calls itself: E [10,70], which calls itself again: E [20,30]
        st = span_stats(_spans([("E", 0, 100, -1), ("E", 10, 70, 0), ("E", 20, 30, 1)]))
        assert st["E"]["calls"] == 3
        assert st["E"]["s"] == pytest.approx(100e-9)       # busy time counted once
        assert st["E"]["self_s"] == pytest.approx(100e-9)  # self times sum to the busy time

    def test_recursion_below_another_function(self):
        # E [0,50] -> F [5,45] -> E [10,40]: the inner E is nested, not outermost
        st = span_stats(_spans([("E", 0, 50, -1), ("F", 5, 45, 0), ("E", 10, 40, 1)]))
        assert st["E"]["s"] == pytest.approx(50e-9)
        assert st["E"]["self_s"] == pytest.approx(40e-9)
        assert st["F"]["self_s"] == pytest.approx(10e-9)


class TestTracer:
    def test_alias_rebinding_counts_F_through_H(self):
        from khinsphere import quad, verify

        original_H = verify.H
        with Tracer() as tracer:
            assert verify.H is not original_H and quad.H is verify.H
            report = verify.verify_H_regions((2, 2))
        assert verify.H is original_H and quad.H is original_H
        st = span_stats(tracer.spans())
        # region (a): 4 points minus the (2,2) corner; region (b): 4 points
        assert st["verify.verify_H_regions"]["calls"] == 1
        assert st["quad.H"]["calls"] == st["quad.F"]["calls"] == 7
        assert st["oscillatory.tail_abs_pow"]["calls"] == 7
        assert report.min_margin == verify.verify_H_regions((2, 2)).min_margin

    def test_aliases_in_sample_and_cli(self):
        from khinsphere import cli, quad, sample, specfun

        with Tracer():
            for fn, mod in (("product_moment", quad), ("hyp2f1", specfun)):
                assert getattr(sample, fn) is getattr(mod, fn)
                assert getattr(cli, fn) is getattr(mod, fn)
                assert hasattr(getattr(mod, fn), "__wrapped__")

    def test_recursive_exp_power_tail(self):
        from khinsphere import oscillatory

        with Tracer() as tracer:
            value = oscillatory.exp_power_tail(-2.5, -3.0, 50.0)
        st = span_stats(tracer.spans())["oscillatory.exp_power_tail"]
        assert st["calls"] == 2
        assert st["self_s"] == pytest.approx(st["s"], rel=1e-9, abs=1e-9)
        assert value == oscillatory.exp_power_tail(-2.5, -3.0, 50.0)

    def test_failed_calls_are_counted(self):
        from khinsphere import specfun
        from khinsphere.errors import ConvergenceError

        with Tracer() as tracer:
            with pytest.raises(ConvergenceError):
                specfun.hyp2f1(1.8924783142894244, 0.39247831428942437, 2.5, 0.9999750337407343)
        assert span_stats(tracer.spans())["specfun.hyp2f1"]["failed"] == 1

    def test_product_moment_buckets(self):
        from khinsphere import quad
        from khinsphere.constants import MomentQuery

        with Tracer() as tracer:
            quad.product_moment(MomentQuery(4, -1.0, (1.0, 0.05)))
            quad.product_moment(MomentQuery(4, -1.0, (1.0,) * 8))
        pm = span_stats(tracer.spans())["quad.product_moment"]
        assert pm["calls"] == 2 and set(pm["tagged_s"]) == {1, 2}


class TestInputs:
    def test_seed_fixes_the_inputs(self):
        for w in workloads.WORKLOADS:
            assert workloads.make_ops(w, 7, 20) == workloads.make_ops(w, 7, 20)
            assert workloads.make_ops(w, 7, 20) != workloads.make_ops(w, 8, 20)

    def test_queries_stay_in_the_documented_domain(self):
        for op in workloads.query_ops(3, 300):
            if op.kind == "moment":
                d, p, coeffs = op.args
                assert 0 < p < d - 1 and p < len(coeffs) * (d - 1) / 2
            else:
                assert math.isclose(math.fsum(a * a for a in op.args[0]), 1.0)

    def test_strata_cover_every_bin(self):
        import numpy as np

        strata = workloads.Strata(4, np.random.default_rng(0))
        bins = sorted(int(strata.draw(0.0, 4.0)) for _ in range(40))
        assert bins == [b for b in range(4) for _ in range(10)]

    def test_the_mix_does_not_depend_on_the_seed(self):
        def mix(seed):
            out = []
            for op in workloads.query_ops(seed, 100):
                amps = [abs(a) for a in op.args[-1]]
                out.append((op.kind, op.args[0] if op.kind == "moment" else 4, len(amps),
                            min(amps) < 0.2 * max(amps)))
            return sorted(out)

        assert mix(1) == mix(2)

import json
import math
import pathlib

import pytest

from khinsphere.cli import main, table_writer
from khinsphere.constants import _two_coeff_moment

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConstantsVerb:
    def test_csv(self, capsys):
        code, out, _ = _run(["constants", "--d", "4", "--q", "-2"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "d,q,c_two,c_inf,min_c,status"
        fields = lines[1].split(",")
        assert float(fields[2]) == pytest.approx(2.0**-0.5, abs=1e-10)
        assert fields[5] == "proven"

    def test_json(self, capsys):
        code, out, _ = _run(["--format", "json", "constants", "--d", "5", "--q", "-2.0"], capsys)
        assert code == 0
        d = json.loads(out)
        assert d["status"] == "conjectural"


class TestQstarVerb:
    def test_table1_row_d4(self, capsys):
        code, out, _ = _run(["qstar", "--d-min", "1", "--d-max", "5"], capsys)
        assert code == 0
        rows = {int(r.split(",")[0]): r for r in out.strip().splitlines()[1:]}
        assert rows[4].startswith("4,-2.000000000,")
        assert abs(float(rows[2].split(",")[1]) - 0.475617009) < 1e-8

    def test_byte_stable(self, capsys):
        a = _run(["qstar", "--d-min", "2", "--d-max", "4"], capsys)
        b = _run(["qstar", "--d-min", "2", "--d-max", "4"], capsys)
        assert a == b

    @pytest.mark.parametrize("tol", ["1e-3", "1e-6"])
    def test_loose_tol_is_numeric_failure(self, tol, capsys):
        # the bisection stops short of a 1e-10 residual: exit 3, no traceback
        code, out, err = _run(["qstar", "--d-min", "4", "--d-max", "4", "--tol", tol], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("numeric failure:") and "residual" in err

    def test_zero_tol_is_not_the_default(self, capsys):
        code, _, err = _run(["qstar", "--d-min", "4", "--d-max", "4", "--tol", "0"], capsys)
        assert code == 1
        assert "tol must be positive" in err

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_exits_one(self, tol, capsys):
        # a NaN tol used to pass the check and end as a residual failure (exit 3)
        code, out, err = _run(["qstar", "--d-min", "4", "--d-max", "4", "--tol", tol], capsys)
        assert (code, out) == (1, "")
        assert "finite" in err


class TestMomentVerb:
    def test_routes_agree(self, capsys):
        code, out, _ = _run(["--format", "json", "moment", "--d", "4", "--p", "1",
                             "--coeffs", "1,0.7071067811865476", "--n", "50000",
                             "--seed", "3"], capsys)
        assert code == 0
        d = json.loads(out)
        quad_v = d["routes"]["quadrature"]
        hyp_v = d["routes"]["hypergeometric"]
        mc_v = d["routes"]["monte_carlo"]
        assert quad_v == pytest.approx(hyp_v, abs=1e-7)
        assert mc_v == pytest.approx(quad_v, abs=5 * d["mc_std_error"])

    def test_near_equal_pair(self, capsys):
        # t = 0.9995^2, next to the 2F1 branch point at t = 1
        code, out, _ = _run(["--format", "json", "moment", "--d", "4", "--p", "2.5",
                             "--coeffs", "1,0.9995", "--n", "20000"], capsys)
        assert code == 0
        routes = json.loads(out)["routes"]
        assert routes["hypergeometric"] == pytest.approx(routes["quadrature"], rel=1e-9)

    def test_two_coeff_routes_agree_to_the_bit(self, capsys):
        # at n = 2 every Monte Carlo score is the 2F1 itself; squaring b/a with ** 2 once
        # put the hypergeometric route 1 ulp off it here
        p, a, b = 0.5515085575750972, 0.0012957873312975817, 0.0012194248857395641
        code, out, _ = _run(["--format", "json", "moment", "--d", "2", "--p", repr(p),
                             "--coeffs", f"{a!r},{b!r}", "--n", "1000"], capsys)
        assert code == 0
        routes = json.loads(out)["routes"]
        assert routes["hypergeometric"] == float(_two_coeff_moment(2, -p, a, b))

    def test_panel_budget_leaves_quadrature_empty(self, capsys):
        # next to the pair (1, 1), the 1e-8 weight takes the panels past their budget
        # (156,250,009 panels, ToleranceError); Monte Carlo still prints
        code, out, _ = _run(["moment", "--d", "4", "--p", "2.5", "--coeffs", "1,1,1e-8",
                             "--n", "1000"], capsys)
        assert code == 0
        rows = dict(line.split(",") for line in out.strip().splitlines()[1:])
        assert rows["quadrature"] == ""
        assert rows["hypergeometric"] == ""
        assert float(rows["monte_carlo"]) > 0

    def test_dominant_weight_quadrature_row_is_series(self, capsys):
        # one weight 1e-8 of the other: the quadrature row is product_moment's series
        code, out, _ = _run(["moment", "--d", "4", "--p", "0.5", "--coeffs", "1,1e-8",
                             "--n", "1000"], capsys)
        assert code == 0
        rows = dict(line.split(",") for line in out.strip().splitlines()[1:])
        assert rows["quadrature"] == rows["hypergeometric"] == "1.000000000000"

    def test_tiny_weight_next_to_equal_pair(self, capsys):
        # three nonzero weights: no 2F1, and the quadrature raises rather than give the pair's
        code, out, _ = _run(["--format", "json", "moment", "--d", "4", "--p", "2.9",
                             "--coeffs", "1,1,1e-13", "--n", "1000"], capsys)
        assert code == 0
        routes = json.loads(out)["routes"]
        assert routes["quadrature"] is None and routes["hypergeometric"] is None


class TestVerifyVerb:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = _run(["--format", "json", "verify", "--lemma", "table3"], capsys)
        assert code == 0
        d = json.loads(out)
        assert d["passed"] is True
        assert d["min_margin"] > 0

    def test_failed_verification_exit_two(self, capsys, monkeypatch):
        import khinsphere.cli as cli_mod
        from khinsphere.verify import VerificationReport
        failing = VerificationReport("stub", "r", (1,), passed=False, min_margin=-1.0,
                                     witnesses=(((0.0,), -1.0),))
        monkeypatch.setitem(cli_mod.LEMMAS, "stub", lambda pr: failing)
        code, out, _ = _run(["--format", "json", "verify", "--lemma", "stub"], capsys)
        assert code == 2
        assert json.loads(out)["passed"] is False

    def test_unknown_lemma_exit_one(self, capsys):
        code, _, err = _run(["verify", "--lemma", "nope"], capsys)
        assert code == 1
        assert "unknown lemma" in err

    @pytest.mark.parametrize("lemma", ["two_coeff", "bisubharmonic", "small_lemmas",
                                       "ind_base", "table2", "table3",
                                       "interpolation_tilde", "appendix_claims", "asymptotics",
                                       "H_regions", "H_tilde", "U_less_G_i", "U_less_G_ii",
                                       "U_less_G_iii", "U_less_G_tilde"])
    def test_cheap_lemmas_pass(self, lemma, capsys):
        code, out, _ = _run(["--format", "json", "verify", "--lemma", lemma], capsys)
        assert code == 0
        assert json.loads(out)["passed"] is True
        assert out == (GOLDEN / f"verify_{lemma}.json").read_text()

    def test_lemma_params_forwarded(self, capsys):
        # two_coeff at p = d-2 is the degenerate boundary, where the moment is 1
        for lemma, d, p in (("bisubharmonic", "7", "2.0"), ("two_coeff", "4", "2")):
            code, out, _ = _run(["--format", "json", "verify", "--lemma", lemma,
                                 "--d", d, "--p", p], capsys)
            assert code == 0
            assert f"d={d}" in json.loads(out)["region"]

    def test_chart_written(self, tmp_path, capsys):
        chart = tmp_path / "chart.csv"
        code, _, _ = _run(["verify", "--lemma", "table2", "--chart", str(chart)], capsys)
        assert code == 0
        lines = chart.read_text().splitlines()
        assert lines[0] == "p,s,H,sign"
        assert len(lines) > 100


class TestSliceVerb:
    def test_axis(self, capsys):
        code, out, _ = _run(["slice", "--coeffs", "1,0"], capsys)
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(math.pi, abs=1e-9)

    def test_normalizes_direction(self, capsys):
        code, out, _ = _run(["slice", "--coeffs", "1,1"], capsys)
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(2.0 * math.pi, abs=1e-6)

    @pytest.mark.parametrize("coeffs,unit", [("1e-300,1e-300", "1,1"), ("1e300,1e300", "1,1"),
                                             ("3e-310,-3e-310", "1,1"),
                                             ("1e308,1e308,1e308,1e308", "1,1,1,1")])
    def test_direction_at_any_scale(self, coeffs, unit, capsys):
        # the norm underflowed ("coefficients must not all be zero") or overflowed; |a| = 2e308,
        # itself above the largest float, exited 1
        assert _run(["slice", "--coeffs", coeffs], capsys) == _run(["slice", "--coeffs", unit],
                                                                   capsys)


class TestAboveTheLargestFloat:
    @pytest.mark.parametrize("verb", ["moment", "mc"])
    def test_error_line(self, verb, capsys):
        # moment ended in a ZeroDivisionError traceback; mc printed inf,inf and exited 0
        code, out, err = _run([verb, "--p", "1.5", "--coeffs", "1e-300,1e-300", "--n", "200"],
                              capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "above the largest float" in err


class TestMcVerb:
    def test_stats(self, capsys):
        code, out, _ = _run(["--format", "json", "mc", "--d", "4", "--p", "1",
                             "--coeffs", "1,1", "--n", "20000", "--seed", "5"], capsys)
        assert code == 0
        d = json.loads(out)
        assert d["n_samples"] == 20000
        assert d["method"] == "plain-mean"

    def test_zero_samples_is_not_the_default(self, capsys):
        code, _, err = _run(["mc", "--p", "1", "--coeffs", "1,1", "--n", "0"], capsys)
        assert code == 1
        assert "at least 2 samples" in err

    def test_seed_after_subcommand(self, capsys):
        a = _run(["mc", "--d", "4", "--p", "1", "--coeffs", "1,1", "--n", "10000",
                  "--seed", "9"], capsys)
        b = _run(["--seed", "9", "mc", "--d", "4", "--p", "1", "--coeffs", "1,1",
                  "--n", "10000"], capsys)
        assert a == b


class TestTablesVerb:
    def test_table1_golden_rows(self, capsys):
        code, out, _ = _run(["tables", "--which", "1"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "d,q_star"
        assert "4,-2.000000" in lines
        assert "2,0.475617" in lines

    def test_table2_shape_and_floors(self, capsys):
        code, out, _ = _run(["tables", "--which", "2"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines[0].split(",")) == 13  # label + i = 0..11
        computed = [float(x) for x in lines[1].split(",")[1:]]
        assert computed[0] >= 1.0

    def test_table3_shape_and_floors(self, capsys):
        code, out, _ = _run(["tables", "--which", "3"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines[0].split(",")) == 7  # label + i = 1..6
        computed = [float(x) for x in lines[1].split(",")[1:]]
        assert computed[0] >= 0.7

    def test_byte_stable(self):
        assert table_writer(2) == table_writer(2)

    @pytest.mark.parametrize("which", [1, 2, 3])
    def test_matches_committed_table(self, which):
        golden = pathlib.Path(__file__).resolve().parents[1] / "out" / f"table{which}.csv"
        assert table_writer(which) == golden.read_text()

    def test_bad_which(self, capsys):
        code, _, err = _run(["tables", "--which", "7"], capsys)
        assert code == 1


class TestErrors:
    def test_invalid_args_exit_one(self, capsys):
        assert _run(["bogus-verb"], capsys)[0] == 1
        assert _run(["constants", "--d", "4"], capsys)[0] == 1  # missing --q
        assert _run(["constants", "--d", "0", "--q", "1"], capsys)[0] == 1

    @pytest.mark.parametrize("argv", [
        ["slice", "--coeffs", "nan,1"],
        ["mc", "--p", "1", "--coeffs", "nan,1"],
        ["mc", "--p", "1", "--coeffs", "inf,1"],
        ["constants", "--d", "4", "--q", "nan"],
        ["constants", "--d", "4", "--q", "inf"],
    ])
    def test_non_finite_input_exit_one(self, argv, capsys):
        code, out, err = _run(argv, capsys)
        assert code == 1
        assert out == ""
        assert "finite" in err

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "out.csv"
        code = main(["--output", str(path), "tables", "--which", "1"])
        assert code == 0
        assert path.read_text().startswith("d,q_star")


class TestRunConfig:
    """A run's configuration, verb and output format, as main checks and dispatches it."""

    def test_validation(self, capsys):
        assert _run(["nope"], capsys)[0] == 1
        code, _, err = _run(["--format", "xml", "qstar"], capsys)
        assert code == 1 and "xml" in err

    def test_programmatic_run(self, capsys):
        code, out, _ = _run(["tables", "--which", "1"], capsys)
        assert code == 0
        assert out.startswith("d,q_star")

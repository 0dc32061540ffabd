import json

import pytest

from ebundles import axioms as ax
from ebundles.bundles import SweepTable, classical_h
from ebundles.cli import main
from ebundles.functions import from_citations


@pytest.fixture
def linear_spec(tmp_path):
    p = tmp_path / "linear.json"
    p.write_text(json.dumps({"type": "linear", "S": 10, "T": 20}))
    return str(p)


@pytest.fixture
def citations_file(tmp_path):
    p = tmp_path / "cites.txt"
    p.write_text("5\n3\n1\n")
    return str(p)


class TestEval:
    def test_linear_scores(self, linear_spec, capsys):
        rc = main(["eval", "--input", linear_spec, "--theta-list", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "36.000000" in out  # excess area at level 4
        assert "admissible levels: [0, 10]" in out

    def test_citations_h_residual(self, citations_file, capsys):
        rc = main(["eval", "--input", citations_file])
        assert rc == 0
        f = from_citations([5, 3, 1])
        h = classical_h(f)
        assert abs(f.value(h) - h) <= 1e-10
        assert f"{h:.6f}" in capsys.readouterr().out

    def test_empty_file_is_parse_error(self, tmp_path, capsys):
        p = tmp_path / "empty.txt"
        p.write_text("")
        rc = main(["eval", "--input", str(p)])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_line_reported_with_number(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("5\noops\n")
        rc = main(["eval", "--input", str(p)])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    def test_json_report_written(self, linear_spec, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["eval", "--input", linear_spec, "--output", str(out)])
        assert rc == 0
        obj = json.loads(out.read_text())
        assert obj["h"] == pytest.approx(20 / 3, abs=1e-9)


class TestSweep:
    def test_csv_matches_closed_form(self, linear_spec, capsys):
        rc = main(["sweep", "--input", linear_spec, "--theta", "0:10:11"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "theta,e,h,mu,i"
        assert len(lines) == 12
        for ln in lines[1:]:
            theta, e = (float(v) for v in ln.split(",")[:2])
            assert e == pytest.approx(20 * (10 - theta) ** 2 / 20, abs=1e-9)

    def test_round_trips_through_schema(self, linear_spec, capsys):
        rc = main(["sweep", "--input", linear_spec, "--theta", "0:12:7"])
        assert rc == 0
        text = capsys.readouterr().out
        assert SweepTable.from_csv(text).to_csv() == text

    def test_byte_identical_runs(self, linear_spec, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--input", linear_spec, "--output", str(a)]) == 0
        assert main(["sweep", "--input", linear_spec, "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, linear_spec, capsys):
        rc = main(["sweep", "--input", linear_spec, "--theta-list", "4", "--format", "json"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["rows"][0]["e"] == pytest.approx(36.0, abs=1e-9)

    def test_default_grid_on_unbounded_range(self, tmp_path, capsys):
        # the default sweep grid must cap an admissible range open above
        p = tmp_path / "zipf.json"
        p.write_text(json.dumps({"type": "zipf", "beta": 0.5, "T": 1}))
        rc = main(["sweep", "--input", str(p)])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 102  # header + 101 default levels
        thetas = [float(ln.split(",")[0]) for ln in lines[1:]]
        assert thetas[0] == 1.0 and thetas[-1] == 10.0


class TestAxiomsCmd:
    def test_asserted_suites_pass(self, tmp_path, capsys):
        out = tmp_path / "axioms.json"
        rc = main(
            ["axioms", "--bundle", "e", "--seed", "42", "--pairs", "8",
             "--suite", "all", "--output", str(out)]
        )
        assert rc == 0
        assert "passed" in capsys.readouterr().out.lower()
        obj = json.loads(out.read_text())
        for key, rep in obj.items():
            assert rep["passed"], key
            assert set(rep) >= {"axiom", "tested", "violations", "passed"}

    def test_positivity_checked_once_per_run(self, tmp_path, monkeypatch):
        # IM.1 and SM.1 are the same check on the same functions at one level
        made = []
        report = ax._positivity_report

        def spy(axiom, *args):
            made.append(axiom)
            return report(axiom, *args)

        monkeypatch.setattr(ax, "_positivity_report", spy)
        out = tmp_path / "axioms.json"
        assert main(["axioms", "--suite", "all", "--pairs", "4", "--output", str(out)]) == 0
        assert made == ["IM.1"]
        obj = json.loads(out.read_text())
        assert obj["SM.1"] == {**obj["IM.1"], "axiom": "SM.1"}

    def test_deterministic_reports(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            rc = main(["axioms", "--seed", "7", "--pairs", "5", "--output", str(path)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("bundle", ["e", "h", "mu", "i"])
    def test_every_bundle_passes_every_suite(self, bundle, capsys):
        # the h score reads a root, not a level; its prefix and boundary
        # logic must not borrow the value-level shortcuts
        rc = main(["axioms", "--bundle", bundle, "--suite", "all",
                   "--pairs", "6", "--measure-theta", "0.5"])
        assert rc == 0
        capsys.readouterr()


    @pytest.mark.parametrize(
        "args",
        [
            ["--measure-theta", "nan", "--suite", "all"],
            ["--measure-theta", "inf", "--suite", "measure"],
            ["--slack", "nan"],
            ["--slack=-1e-9"],
            ["--measure-theta", "1e9", "--suite", "measure"],
        ],
        ids=["nan-level", "inf-level", "nan-slack", "negative-slack", "level-tests-nothing"],
    )
    def test_runs_that_check_nothing_exit_2(self, args, tmp_path, capsys):
        out = tmp_path / "axioms.json"
        assert main(["axioms", "--pairs", "3", *args, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()

    def test_vacuous_reports_flagged(self, tmp_path, capsys):
        # mu at the domain end T = 1: IM.3, SM.3 and SM.4 test no pair
        out = tmp_path / "axioms.json"
        rc = main(["axioms", "--bundle", "mu", "--suite", "all", "--pairs", "4",
                   "--measure-theta", "1", "--output", str(out)])
        assert rc == 0
        obj = json.loads(out.read_text())
        for key, rep in obj.items():
            assert rep["vacuous"] is (rep["tested"] == 0), key
        assert obj["IM.3"]["vacuous"] and obj["AX.1"]["vacuous"]
        assert not obj["IM.2"]["vacuous"]
        assert "(vacuous: no pair tested)" in capsys.readouterr().out


class TestConvergeCmd:
    @pytest.mark.parametrize(
        "args",
        [
            ["--family", "power", "--grid-n", "0"],
            ["--family", "zipf", "--theta-grid-n", "0"],
            ["--family", "linear", "--theta-grid-n", "-3"],
            ["--family", "power", "--theta-grid-n", "-5"],
        ],
        ids=["power-grid-0", "zipf-levels-0", "linear-levels-negative", "power-levels-negative"],
    )
    def test_grid_below_two_points_exit_2(self, args, capsys):
        assert main(["converge", "--n-list", "3,5", *args]) == 2
        err = capsys.readouterr().err
        assert "must be >= 2" in err and "Traceback" not in err

    def test_unknown_family_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["converge", "--family", "nope"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "invalid choice: 'nope'" in err and "Traceback" not in err

    def test_linear_family_csv(self, capsys):
        rc = main(["converge", "--family", "linear", "--n-list", "10,100",
                   "--grid-n", "1000", "--theta-grid-n", "200"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,sup_fn,sup_inv,sup_e"
        first = [float(v) for v in lines[1].split(",")[1:]]
        second = [float(v) for v in lines[2].split(",")[1:]]
        assert all(b < a for a, b in zip(first, second))

    def test_power_family_reports_na(self, capsys):
        rc = main(["converge", "--family", "power", "--n-list", "1,2,4,8"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "NA,NA,NA" in captured.out
        assert "discontinuous" in captured.err


class TestCounterexamplesCmd:
    def test_all_reproduced(self, capsys):
        rc = main(["counterexamples"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("REPRODUCED") == 3
        assert "FAILED" not in out


class TestIngestCmd:
    def test_spec_written(self, citations_file, tmp_path):
        out = tmp_path / "fn.json"
        rc = main(["ingest", "--input", citations_file, "--output", str(out)])
        assert rc == 0
        obj = json.loads(out.read_text())
        assert obj["type"] == "piecewise_linear"
        assert obj["T"] == 3.0
        assert obj["knots"] == [[0.0, 5.0], [1.0, 3.0], [2.0, 1.0], [3.0, 0.0]]

    def test_unsorted_notice(self, tmp_path, capsys):
        p = tmp_path / "unsorted.txt"
        p.write_text("1\n5\n3\n")
        rc = main(["ingest", "--input", str(p)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "notice" in captured.err
        assert json.loads(captured.out)["knots"][0] == [0.0, 5.0]

    def test_json_citations_object(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"citations": [4, 4]}))
        rc = main(["ingest", "--input", str(p)])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["knots"][1][1] == pytest.approx(4 - 4e-9, abs=1e-15)

    def test_missing_file(self, capsys):
        rc = main(["ingest", "--input", "/nonexistent/file.txt"])
        assert rc == 2


class TestBadInputExit2:
    @pytest.mark.parametrize("command", ["ingest", "eval", "sweep"])
    @pytest.mark.parametrize(
        "obj",
        [
            {"citations": [5, "x"]},
            {"citations": [5, 10**400]},
            {"type": "piecewise_linear", "knots": [[0, 10**400], [1, 0]]},
        ],
        ids=["non_numeric", "huge_int", "huge_int_knot"],
    )
    def test_bad_numbers(self, command, obj, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(obj))
        out = tmp_path / "out"
        assert main([command, "--input", str(p), "--output", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("levels", ["0,nan", "0,inf"])
    def test_non_finite_theta_list(self, levels, linear_spec, capsys):
        assert main(["sweep", "--input", linear_spec, f"--theta-list={levels}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err

    def test_non_finite_theta_grid(self, linear_spec, capsys):
        assert main(["sweep", "--input", linear_spec, "--theta", "0:inf:3"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_n_below_one(self, capsys):
        assert main(["converge", "--n-list", "0,1"]) == 2
        assert "n values must be >= 1" in capsys.readouterr().err

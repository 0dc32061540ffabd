import dataclasses
import json
import os
import stat
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebundles import axioms as ax
from ebundles import bundles as bn
from ebundles import cli
from ebundles import functions as fn
from ebundles.bundles import classical_h
from ebundles.cli import main
from ebundles.functions import from_citations

# each bundle with the level its benchmark and golden runs use
LEVELS = [("e", "2.5"), ("h", "8"), ("mu", "0.5"), ("i", "0.5")]


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


    def test_classical_h_computed_once(self, monkeypatch, capsys):
        # h, R^2 and the e-index of one eval read one root, so a
        # power-complement eval runs one bisection
        levels = []
        h_thetas = bn.h_thetas

        def spy(f, thetas):
            levels.append(list(thetas))
            return h_thetas(f, thetas)

        monkeypatch.setattr(bn, "h_thetas", spy)
        power = Path(__file__).parent / "golden" / "inputs" / "power.json"
        assert main(["eval", "--input", str(power)]) == 0
        assert levels == [[1.0]]
        assert "e-index" in capsys.readouterr().out

    def test_near_flat_h_core_keeps_its_e_index(self, tmp_path, capsys):
        # R^2 - h^2 rounds to -1.5e-11 here; R^2 >= h^2 holds exactly, so
        # the rounding reads as an e-index of 0, not as a missing h
        spec = tmp_path / "flat.json"
        spec.write_text(json.dumps({"type": "piecewise_linear", "knots": [
            [0, 308.5430044597576], [574.7140021305945, 308.5430044597575],
            [862.0710031958918, 0]]}))
        assert main(["eval", "--input", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "classical h:   308.543004\n" in out
        assert "e-index:       0.000000" in out


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
        lines = capsys.readouterr().out.splitlines()
        # the schema's header, then one row of five cells per level
        assert lines[0] == "theta,e,h,mu,i" and len(lines) == 8
        assert all(len(ln.split(",")) == 5 for ln in lines[1:])

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
        # each single-level suite makes one positivity report per run, not
        # one per pair
        made = []
        report = ax._positivity_report

        def spy(axiom, *args):
            made.append(axiom)
            return report(axiom, *args)

        monkeypatch.setattr(ax, "_positivity_report", spy)
        out = tmp_path / "axioms.json"
        assert main(["axioms", "--suite", "all", "--pairs", "4", "--output", str(out)]) == 0
        assert made == ["IM.1", "SM.1"]
        obj = json.loads(out.read_text())
        assert obj["SM.1"] == {**obj["IM.1"], "axiom": "SM.1"}

    def test_run_builds_no_pair_or_function(self, monkeypatch, capsys):
        # the generator's set holds knot arrays and the checkers read them as
        # they are: no pair, and no function on its rows, is built unless
        # something reads it
        made = []
        for cls, name in ((fn.PiecewiseLinearFn, "__init__"), (fn.PiecewiseLinearFn, "_view"),
                          (ax.DominancePair, "__post_init__")):
            def spy(*args, real=getattr(cls, name), name=name):
                made.append(name)
                return real(*args)
            monkeypatch.setattr(cls, name, spy)
        assert main(["axioms", "--suite", "all", "--pairs", "5", "--seed", "3"]) == 0
        assert made == []
        ax.generate_pairs(seed=3, count=5)[0]  # the spies see a read
        assert made == ["_view", "_view", "__post_init__"]

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        # exit 1 means "axiom violated": a bad seed is a usage error
        out = tmp_path / "axioms.json"
        assert main(["axioms", "--seed", "-1", "--pairs", "3", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be an integer >= 0, got -1")
        assert "Traceback" not in err and not out.exists()

    def test_members_deduped_once_per_run(self, monkeypatch, capsys):
        # IM.1 and SM.1 read the distinct members of one pair set, which
        # the set finds once
        keys, calls = fn._PwlStack._keys, []
        monkeypatch.setattr(fn._PwlStack, "_keys", lambda self: calls.append(1) or keys(self))
        assert main(["axioms", "--suite", "all", "--pairs", "4"]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("bundle, level", LEVELS)
    def test_strong_positivity_equals_measure_positivity(self, bundle, level, tmp_path):
        # IM.1 and SM.1 are the same check on the same functions at one level
        out = tmp_path / "axioms.json"
        assert main(["axioms", "--bundle", bundle, "--suite", "all", "--pairs", "6",
                     "--measure-theta", level, "--output", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["IM.1"]["tested"] > 0
        assert obj["SM.1"] == {**obj["IM.1"], "axiom": "SM.1"}

    @pytest.mark.parametrize("bundle, level", LEVELS)
    def test_no_scalar_score_per_pair(self, bundle, level, monkeypatch, capsys):
        # every suite reads its members' levels, scores and ranks in stacked
        # passes: at most one rule call per block and pass, never one per pair
        rows, spies = [], {}

        def spy(rule):
            def counted(f, args):
                rows.append(len(args))
                return rule(f, args)
            return spies.setdefault(rule, counted)  # a rule shared by two fields stays shared

        b = bn.BUNDLES[bundle]
        monkeypatch.setitem(bn.BUNDLES, bundle, dataclasses.replace(
            b, scores=spy(b.scores), levels=spy(b.levels), rank_of=b.rank_of and spy(b.rank_of)))
        assert main(["axioms", "--bundle", bundle, "--suite", "all", "--pairs", "50",
                     "--seed", "7", "--measure-theta", level]) == 0
        passes = 12  # 6 in the bundle suite, a score and a rank pass in each of the other 3
        assert 0 < len(rows) <= passes + sum(rows) // fn._BLOCK
        assert len(rows) < 50  # the pairs of one relation kind
        assert "IM.2" in capsys.readouterr().out

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
        argv = ["axioms", "--pairs", "3", *args, "--output", str(out)]
        if args[0].startswith("--slack"):
            # every tolerance is a module constant: argparse rejects --slack
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments: --slack" in capsys.readouterr().err
        else:
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()

    def test_violations_name_their_level_and_pair(self, tmp_path, capsys):
        # h is about 1e-13 at level 1e13, under STRICT_SLACK: IM.1 and IM.3
        # report violations, each at that level and on one of the 12 pairs
        out = tmp_path / "axioms.json"
        main(["axioms", "--bundle", "h", "--suite", "measure", "--pairs", "3",
              "--measure-theta", "1e13", "--output", str(out)])
        capsys.readouterr()

        def no_constant(name):
            raise ValueError(f"{name} is not JSON")
        obj = json.loads(out.read_text(), parse_constant=no_constant)
        found = [v for rep in obj.values() for v in rep["violations"]]
        assert found and all(v["theta"] == 1e13 for v in found)
        assert all(0 <= v["pair"] < 12 for v in found)
        assert {v["note"] for v in obj["IM.1"]["violations"]} <= {
            "score not positive (upper)", "score not positive (lower)"}

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
            # the piecewise linear families read no grid, yet check both sizes
            ["--family", "linear", "--grid-n", "1"],
            ["--family", "shifted", "--grid-n", "1"],
            ["--family", "linear", "--theta-grid-n", "0"],
            ["--family", "shifted", "--theta-grid-n", "0"],
        ],
        ids=["power-grid-0", "zipf-levels-0", "linear-levels-negative", "power-levels-negative",
             "linear-grid-1", "shifted-grid-1", "linear-levels-0", "shifted-levels-0"],
    )
    def test_grid_below_two_points_exit_2(self, args, capsys):
        assert main(["converge", "--n-list", "3,5", *args]) == 2
        err = capsys.readouterr().err
        assert "must be >= 2" in err and "Traceback" not in err

    @pytest.mark.parametrize("family", ["power", "zipf"])
    def test_one_member_still_checks_the_grid(self, family, capsys):
        # a single n reads no distance, yet both sizes are checked
        assert main(["converge", "--family", family, "--n-list", "10", "--grid-n", "1"]) == 2
        assert capsys.readouterr().err == "error: grid_n must be >= 2, got 1\n"

    def test_unknown_family_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["converge", "--family", "nope"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "invalid choice: 'nope'" in err and "Traceback" not in err

    def test_family_choices_are_the_registry_keys(self):
        # the parser writes them out so as not to load convergence
        from ebundles import convergence

        (commands,) = (a for a in cli.build_parser()._actions if a.dest == "command")
        (family,) = (a for a in commands.choices["converge"]._actions if a.dest == "family")
        assert family.choices == tuple(convergence.SEQUENCE_FAMILIES)

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

    @pytest.mark.parametrize("n_list", ["10,100,1000", "10,100,1000,10000,100000",
                                        "3,17,250,4001,60000"])
    def test_power_flag_sees_the_boundary_layer(self, n_list, capsys):
        # the exact Cauchy gaps see the layer of width about 1/n at x = 1
        assert main(["converge", "--family", "power", "--n-list", n_list]) == 0
        assert capsys.readouterr().err.endswith(
            "# no limit declared; pointwise limit looks discontinuous\n")

    @pytest.mark.parametrize("n_list", ["10,100", "10"])
    def test_fewer_than_three_members_make_no_claim(self, n_list, capsys):
        assert main(["converge", "--family", "power", "--n-list", n_list]) == 0
        assert capsys.readouterr().err == (
            "# member peak at origin: 1\n"
            "# no limit declared; pointwise limit: NA (needs three or more n values)\n")


class TestCounterexamplesCmd:
    def test_all_reproduced(self, capsys):
        rc = main(["counterexamples"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("REPRODUCED") == 3
        assert "FAILED" not in out

    def test_axiom_that_holds_fails(self, capsys, monkeypatch):
        # 2(1 - x) over 1 - x: the per-rank excess score is monotone on it
        line, double = (fn.PiecewiseLinearFn.from_pairs([(0, y0), (1, 0)]) for y0 in (1, 2))
        pair = ax.verify_pair(ax.DominancePair(double, line, ax.RelationKind.GEQ_ALL))
        monkeypatch.setattr(ax, "fixture_alt1", lambda: ax.Fixture(pair, 0.5))
        assert main(["counterexamples"]) == 1
        first, second, third = capsys.readouterr().out.splitlines()
        assert second == "per-rank excess score: IM.2 held -> not monotone: FAILED"
        assert first.endswith(": REPRODUCED") and third.endswith(": REPRODUCED")

    def test_each_fixture_verified_once(self, capsys, monkeypatch):
        # one stacked verification per fixture; its checker takes the
        # verified one-pair set as it is
        calls = []

        def spy(*args):
            calls.append(len(args[1]))
            return rejections(*args)

        rejections = ax._rejections
        monkeypatch.setattr(ax, "_rejections", spy)
        assert main(["counterexamples"]) == 0
        assert capsys.readouterr().out.count("REPRODUCED") == 3
        assert calls == [1, 1, 1]

    def test_output_is_no_option(self, capsys, tmp_path):
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as exc:
            main(["counterexamples", "--output", str(out)])
        assert exc.value.code == 2 and not out.exists()
        assert "unrecognized arguments: --output" in capsys.readouterr().err


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

    @pytest.mark.parametrize("text", ["5\n3\n3\n1\n", "5\n5\n0\n0\n", '{"citations": [5, 3, 3, 0]}'],
                             ids=["line-ties", "line-zeros", "json"])
    def test_sorted_input_has_no_notice(self, text, tmp_path, capsys):
        p = tmp_path / "sorted.txt"
        p.write_text(text)
        assert main(["ingest", "--input", str(p)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["knots"][0] == [0.0, 5.0]

    def test_memory_peak_at_1e5_counts(self, tmp_path, capsys):
        # json.dumps(indent=2) over the knot lists peaks at about 36 MB in this
        # test, the one-join writer at about 17 MB
        counts = np.floor(np.random.default_rng(13).pareto(1.2, 10**5) * 5.0)
        src, out = tmp_path / "c.txt", tmp_path / "spec.json"
        src.write_text("".join(f"{c}\n" for c in counts.astype(int).tolist()))
        tracemalloc.start()
        try:
            assert main(["ingest", "--input", str(src), "--output", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25e6
        assert fn.function_from_spec(json.loads(out.read_text())) == from_citations(counts)

    @pytest.mark.parametrize("text", ['{"type": "linear", "S": 10, "T": 20}', "{}", "null",
                                      "true", '"5"'])
    def test_json_without_counts(self, text, tmp_path, capsys):
        p = tmp_path / "in.json"
        p.write_text(text)
        assert main(["ingest", "--input", str(p)]) == 2
        assert capsys.readouterr().err == (
            f'error: {p}: ingest needs citation counts, one per line or {{"citations": [...]}}\n')

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

    def test_one_count_file_in_every_command(self, tmp_path, capsys):
        # a single count is valid JSON, a number; every command reads the
        # file as citations, and gives the function that ingest writes
        one, spec = tmp_path / "one.txt", tmp_path / "spec.json"
        one.write_text("5\n")
        assert main(["ingest", "--input", str(one), "--output", str(spec)]) == 0
        assert json.loads(spec.read_text()) == fn.function_to_spec(from_citations([5]))
        for command, extra in (("eval", ["--theta-list", "1,2.5"]),
                               ("sweep", ["--format", "json"])):
            outs = [tmp_path / f"{command}-{src.stem}.json" for src in (one, spec)]
            for src, out in zip((one, spec), outs):
                assert main([command, "--input", str(src), *extra, "--output", str(out)]) == 0
            assert outs[0].read_text() == outs[1].read_text()


class TestOutputMode:
    """An output file gets the mode ``open(path, "w")`` would give it: a new
    one 0o666 less the umask, a replaced one its own."""

    @staticmethod
    def _ingest(citations_file, out, umask):
        old = os.umask(umask)
        try:
            assert main(["ingest", "--input", citations_file, "--output", str(out)]) == 0
        finally:
            os.umask(old)
        return stat.S_IMODE(out.stat().st_mode)

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_new_file_follows_the_umask(self, umask, mode, citations_file, tmp_path):
        assert self._ingest(citations_file, tmp_path / "spec.json", umask) == mode

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_replaced_file_keeps_its_mode(self, umask, citations_file, tmp_path):
        out = tmp_path / "spec.json"
        out.write_text("old\n")
        out.chmod(0o640)
        assert self._ingest(citations_file, out, umask) == 0o640
        assert json.loads(out.read_text())["T"] == 3.0


# counts whose reprs have exponents, span 1e-300..1e300, or lie next to
# the subnormals, where the tie-breaking steps are subnormal themselves
_COUNT = st.one_of(
    st.floats(min_value=1e-300, max_value=1e300),
    st.integers(min_value=0, max_value=10**6).map(float),
    st.sampled_from([1e16, 1e-05, 1.5e300, 1e-300, 2.2250738585072014e-308,
                     2.225073858507201e-308, 1e-310, 5e-324]),
)


@st.composite
def _count_vectors(draw):
    base = draw(st.lists(_COUNT, min_size=1, max_size=20).filter(lambda c: max(c) > 0))
    ties = draw(st.lists(st.integers(min_value=0, max_value=len(base) - 1), max_size=20))
    return base + [base[i] for i in ties]


@settings(max_examples=300, deadline=None)
@given(_count_vectors())
def test_spec_text_is_the_json_encoding(counts):
    f = from_citations(counts)
    text = cli._spec_text(f)
    assert text == json.dumps(fn.function_to_spec(f), indent=2, sort_keys=True) + "\n"
    assert fn.function_from_spec(json.loads(text)) == f


class TestBadInputExit2:
    @pytest.mark.parametrize("command", ["ingest", "eval", "sweep"])
    def test_json_list_has_one_wording(self, command, tmp_path, capsys):
        p = tmp_path / "list.json"
        p.write_text("[5, 3, 1]")
        assert main([command, "--input", str(p)]) == 2
        assert capsys.readouterr().err == (
            f'error: {p}: a JSON list is not citation input; write {{"citations": [...]}}\n')

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_json_null_holds_no_input(self, command, tmp_path, capsys):
        p = tmp_path / "null.json"
        p.write_text("null")
        assert main([command, "--input", str(p)]) == 2
        assert capsys.readouterr().err == (
            f"error: {p}: JSON must hold a function spec or a citations object\n")

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

    @pytest.mark.parametrize(
        "command, arg, said",
        [
            pytest.param("sweep", "--theta-list=0,nan", "finite", id="0,nan"),
            pytest.param("sweep", "--theta-list=0,inf", "finite", id="0,inf"),
            # an empty spec is bad input, not a request for the default grid
            pytest.param("sweep", "--theta-list=", "bad --theta-list ''", id="sweep-empty-list"),
            pytest.param("sweep", "--theta=", "lo:hi:count", id="sweep-empty-grid"),
            pytest.param("eval", "--theta-list=", "bad --theta-list ''", id="eval-empty-list"),
            pytest.param("eval", "--theta=", "lo:hi:count", id="eval-empty-grid"),
        ],
    )
    def test_non_finite_theta_list(self, command, arg, said, linear_spec, capsys):
        assert main([command, "--input", linear_spec, arg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert said in captured.err

    def test_non_finite_theta_grid(self, linear_spec, capsys):
        assert main(["sweep", "--input", linear_spec, "--theta", "0:inf:3"]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    @pytest.mark.parametrize("n", [2.5, True], ids=["fraction", "bool"])
    def test_power_complement_n_not_integral(self, command, n, tmp_path, capsys):
        p = tmp_path / "power.json"
        p.write_text(json.dumps({"type": "power_complement", "n": n}))
        assert main([command, "--input", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: n must be an integer >= 1, got {n!r}\n"

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    @pytest.mark.parametrize("n", [3, 3.0])
    def test_power_complement_n_integral_loads(self, command, n, tmp_path, capsys):
        p = tmp_path / "power.json"
        p.write_text(json.dumps({"type": "power_complement", "n": n}))
        assert main([command, "--input", str(p)]) == 0

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    @pytest.mark.parametrize(
        "knots, T, said",
        [
            ([[False, 3], [True, 0]], 1, "False"),
            ([["0", "3"], ["1", "0"]], 1, "'0'"),
            ([[0, 3], [1, 0]], True, "True"),
            ([[0, 3], [1, 0]], "1", "'1'"),
        ],
        ids=["bool_knots", "string_knots", "bool_T", "string_T"],
    )
    def test_knot_coordinates_must_be_numbers(self, command, knots, T, said, tmp_path, capsys):
        p = tmp_path / "pwl.json"
        p.write_text(json.dumps({"type": "piecewise_linear", "T": T, "knots": knots}))
        assert main([command, "--input", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: knot coordinates and T must be numbers, got {said}\n"

    @pytest.mark.parametrize("command", ["ingest", "eval", "sweep"])
    @pytest.mark.parametrize(
        "counts, said",
        [
            ("531", "\"citations\" must be a list of numbers, got '531'"),
            ({"5": 0, "3": 1}, "\"citations\" must be a list of numbers, got {'5': 0, '3': 1}"),
            ([True, 3], "citation counts must be numbers, got True"),
        ],
        ids=["string", "object", "bool"],
    )
    def test_citations_must_be_a_list_of_numbers(self, command, counts, said, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"citations": counts}))
        assert main([command, "--input", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {said}\n"

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    @pytest.mark.parametrize(
        "spec, said",
        [
            ({"type": "linear", "S": "10", "T": True}, "S and T must be numbers, got '10'"),
            ({"type": "linear", "S": 10, "T": True}, "S and T must be numbers, got True"),
            ({"type": "zipf", "beta": "0.5", "T": True}, "beta and T must be numbers, got '0.5'"),
            ({"type": "zipf", "beta": 0.5, "T": "1"}, "beta and T must be numbers, got '1'"),
            ({"type": "power_complement", "n": "3"}, "n must be numbers, got '3'"),
        ],
        ids=["linear_S", "linear_T", "zipf_beta", "zipf_T", "power_complement_n"],
    )
    def test_family_fields_must_be_numbers(self, command, spec, said, tmp_path, capsys):
        p = tmp_path / "family.json"
        p.write_text(json.dumps(spec))
        assert main([command, "--input", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {said}\n"

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    @pytest.mark.parametrize("knots", [[[0, 3], [1]],[[0, 3, 1], [1, 0, 1]], [[0, 3], None], [],
                                       {"0": 3}, [[[0], [3]], [[1], [0]]]],
                             ids=["ragged", "triples", "null", "empty", "dict", "deeper"])
    def test_knots_must_be_pairs(self, command, knots, tmp_path, capsys):
        p = tmp_path / "pwl.json"
        p.write_text(json.dumps({"type": "piecewise_linear", "knots": knots}))
        assert main([command, "--input", str(p)]) == 2
        assert capsys.readouterr().err == "error: knots must be a list of (x, y) pairs\n"

    def test_n_below_one(self, capsys):
        assert main(["converge", "--n-list", "0,1"]) == 2
        assert "n values must be >= 1" in capsys.readouterr().err


class TestParserReuse:
    """``main`` builds its parser once per process and only reads it."""

    COMMANDS = ["eval", "sweep", "axioms", "converge", "counterexamples", "ingest"]

    @staticmethod
    def _run(argv, tmp_path, capsys):
        out = tmp_path / "out.txt"
        rc = main([*argv, "--output", str(out)])
        captured = capsys.readouterr()
        return rc, captured.out, captured.err, out.read_text()

    def test_two_commands_in_one_process_equal_separate_calls(self, tmp_path, capsys,
                                                                monkeypatch):
        runs = [["converge", "--family", "linear", "--n-list", "2,5", "--grid-n", "50",
                 "--theta-grid-n", "20"],
                ["axioms", "--bundle", "h", "--suite", "all", "--pairs", "5", "--seed", "3",
                 "--measure-theta", "8"]]
        built, build = [], cli.build_parser

        def counted():
            built.append(1)
            return build()

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", counted)
        together = [self._run(argv, tmp_path, capsys) for argv in runs]
        assert len(built) == 1
        separate = []
        for argv in runs:
            cli._parser.cache_clear()
            separate.append(self._run(argv, tmp_path, capsys))
        assert together == separate
        assert all(rc == 0 for rc, *_ in together)

    @pytest.mark.parametrize("command", [None, *COMMANDS])
    def test_help_after_use_equals_a_fresh_parser(self, command, tmp_path, capsys):
        from ebundles.cli import build_parser
        argv = [command, "--help"] if command else ["--help"]
        main(["counterexamples"])  # the kept parser has parsed before
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(argv)
        kept = capsys.readouterr().out
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert kept == capsys.readouterr().out and kept.startswith("usage: ebundles")

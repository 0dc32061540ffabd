import contextlib
import dataclasses
import io
import json
import math
import os
import stat
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from conftest import pwl_functions, table_cells

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
        # power-complement eval runs one root search
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


def _eval_report(argv: list[str]) -> tuple[str, str]:
    """``main(["eval", *argv, "--output", ...])``'s printed report and JSON
    file, the run in-process with no pytest fixture (Hypothesis runs a test
    many times per fixture)."""
    with tempfile.TemporaryDirectory() as d:
        out = os.path.join(d, "eval.json")
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            assert main(["eval", *argv, "--output", out]) == 0
        with open(out) as fh:
            return printed.getvalue(), fh.read()


# a function spec, and the function that eval reads from it
_LINE_SPEC = Path(__file__).parent / "golden" / "inputs" / "linear.json"
_LINE = fn.function_from_spec(json.loads(_LINE_SPEC.read_text()))


class TestEvalLevels:
    """eval's level lines and ``per_theta`` are written from the sweep's
    columns; ``oracles.eval_by_rows`` writes them a row at a time."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        arrays(np.float64, n, elements=table_cells),
        arrays(np.float64, (4, n), elements=table_cells | st.just(math.nan)))))
    @example((np.array([0.0]), np.array([[math.nan], [5e-324], [1e16], [9.999999999999999e-05]])))
    def test_cells_of_every_kind(self, columns):
        # any cells, levels of every magnitude and sign among them, the
        # scores NaN or not: the writers are the row formulation byte for
        # byte, on one level or many
        table = bn.SweepTable(np.vstack(columns))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bn, "sweep", lambda f, thetas: table)
            got = _eval_report(["--input", str(_LINE_SPEC), "--theta-list", "1"])
        assert got == oracles.eval_by_rows(_LINE, table)

    @settings(max_examples=150, deadline=None)
    @given(pwl_functions(), st.integers(-12, 18),
           st.lists(st.tuples(st.floats(0.0, 1.5) | st.sampled_from([5e-324, 1e-300]),
                              st.booleans()), min_size=1, max_size=12))
    def test_scores_of_every_magnitude(self, f, scale, levels):
        # a function's values scaled by 10^scale, so that its scores fall on
        # both sides of 1e-4 and 1e16, at levels from 0 to past Z(0) and T,
        # so that cells read NA
        spec = json.dumps({"type": "piecewise_linear",
                           "knots": np.column_stack((f.xs, f.ys * 10.0**scale)).tolist()})
        g = fn.function_from_spec(json.loads(spec))
        thetas = [u * (g.value_at_origin() if by_value else g.T) for u, by_value in levels]
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "spec.json")
            with open(path, "w") as fh:
                fh.write(spec)
            got = _eval_report(["--input", path, "--theta-list", ",".join(map(repr, thetas))])
        assert got == oracles.eval_by_rows(g, bn.sweep(g, sorted(set(thetas))))

    def test_no_levels_no_per_theta(self):
        got = _eval_report(["--input", str(_LINE_SPEC)])
        assert got == oracles.eval_by_rows(_LINE, None)

    @pytest.mark.parametrize("command, extra", [
        ("sweep", ["--format", "csv"]), ("sweep", ["--format", "json"]), ("eval", [])])
    def test_negative_zero_level_in_either_order(self, command, extra, linear_spec, tmp_path,
                                                 capsys):
        # -0 and 0 are one level, read as 0 whichever comes first
        runs = []
        for k, levels in enumerate(["0,-0,4", "-0,0,4", "-0,4"]):
            out = tmp_path / f"{k}.out"
            argv = [command, "--input", linear_spec, f"--theta-list={levels}", *extra]
            assert main([*argv, "--output", str(out)]) == 0
            runs.append((capsys.readouterr().out, out.read_bytes()))
        assert runs[0] == runs[1] == runs[2]
        assert b"-0" not in runs[0][1]
        assert "\n-0 " not in runs[0][0]


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


class _Raw(str):
    """A number token written as it is."""


_WS = st.sampled_from(["", " ", "  ", "\t", "\n", "\r\n", " \r\n\t"])


def _number_token(draw, v: float) -> _Raw:
    """v as one of the JSON forms that read back as v: an int where v is
    integral, its repr, or an exponent form (1E5 and 1e+5 among them); -0
    and -0.0 for zero."""
    mantissa, exponent = f"{v:.17e}".split("e")
    forms = [repr(v), f"{v:.17e}", f"{v:.17E}".replace("E+", "E"),
             f"{mantissa}E{int(exponent)}", f"{mantissa}e{int(exponent):+d}"]
    if v.is_integer():
        forms.append(str(int(v)))
    if v == 0.0:
        forms += ["-0", "-0.0", "0e0", "-0E-0"]
    return _Raw(draw(st.sampled_from(forms)))


def _dump(draw, value) -> str:
    """value as JSON text, JSON whitespace of any kind around every token."""
    if isinstance(value, _Raw):
        return value
    if isinstance(value, dict):
        items = [f'{draw(_WS)}{json.dumps(k)}{draw(_WS)}:{draw(_WS)}{_dump(draw, v)}{draw(_WS)}'
                 for k, v in value.items()]
        return "{" + ",".join(items) + draw(_WS) + "}"
    if isinstance(value, list):
        return "[" + ",".join(draw(_WS) + _dump(draw, v) + draw(_WS) for v in value) + "]"
    return json.dumps(value)


@st.composite
def _pwl_texts(draw):
    """A valid piecewise linear spec's text in one of several layouts."""
    k = draw(st.integers(2, 12))
    step = st.one_of(st.integers(1, 1000).map(float),
                     st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False))
    xs = np.cumsum([0.0] + [draw(step) for _ in range(k - 1)]).tolist()
    ys = np.cumsum([draw(st.sampled_from([0.0, 0.5, 7.0]))]
                   + [draw(step) for _ in range(k - 1)])[::-1].tolist()
    if len(set(xs)) < k or len(set(ys)) < k:  # float sums that tied
        xs, ys = list(range(k)), list(range(k, 0, -1))
    items = {"type": "piecewise_linear", "knots": [[x, y] for x, y in zip(xs, ys)]}
    if draw(st.booleans()):
        items["T"] = xs[-1]
    extras = {"name": "curve 1", "meta": {"source": [1, 2], "ok": True}, "citations": [5, 3],
              "empty": [], "none": None}
    for key in draw(st.lists(st.sampled_from(sorted(extras)), unique=True, max_size=3)):
        items[key] = extras[key]
    order = draw(st.permutations(sorted(items)))
    spec = {key: items[key] for key in order}
    layout = draw(st.sampled_from(["compact", "indent", "random"]))
    if layout == "compact":
        return json.dumps(spec)
    if layout == "indent":
        return json.dumps(spec, indent=2, sort_keys=True) + "\n"
    spec["knots"] = [[_number_token(draw, float(x)), _number_token(draw, float(y))]
                     for x, y in spec["knots"]]
    return draw(_WS) + _dump(draw, spec) + draw(_WS)


def _run_both(argv, monkeypatch, capsys) -> list:
    """(exit code, stdout, stderr) of argv with the flat knot read, then with
    the general path alone."""
    runs = []
    for flat in (True, False):
        if not flat:
            monkeypatch.setattr(cli, "_flat_read", lambda data: None)
        runs.append((main(argv), *capsys.readouterr()))
    return runs


def _read_in_blocks(data: bytes, block: int) -> dict | None:
    """``cli._flat_read`` of data, its number array checked and decoded
    block bytes at a time."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_SPAN_BLOCK", block)
        return cli._flat_read(data)


# block sizes of a few bytes: every number array is cut at each pair, or
# at every other count
_SMALL_BLOCKS = st.integers(1, 8)

# JSON number tokens: ints up to 10^300, which json reads as ints; floats'
# reprs; and decimals of 18-40 significant digits, more than a double
# holds, with exponents from -330 to 308, so subnormals, zeros and values
# beyond the float range among them
_NUMBER_TOKENS = (
    st.integers(-10**300, 10**300).map(str)
    | st.floats(allow_nan=False, allow_infinity=False).map(repr)
    | st.builds("{}{}.{}e{}".format, st.sampled_from(["", "-"]), st.integers(1, 9),
                st.text("0123456789", min_size=17, max_size=39), st.integers(-330, 308)))


class TestFlatKnotRead:
    """``cli._flat_read`` reads a spec's knot array as one flat list of
    numbers where that gives what ``json.loads`` gives, and declines (the
    general path runs) everywhere else.  The properties read in blocks of
    a few bytes."""

    @settings(max_examples=300, deadline=None)
    @given(_pwl_texts(), _SMALL_BLOCKS)
    def test_builds_the_nested_read(self, text, block):
        spec, ref = _read_in_blocks(text.encode(), block), json.loads(text)
        assert spec is not None
        # the floats of the same ints and floats, -0.0 included, in the
        # same order, one row a pair
        want = np.fromiter((v for p in ref["knots"] for v in p), float)
        assert spec["knots"].dtype == float and spec["knots"].shape == (len(ref["knots"]), 2)
        assert spec["knots"].tobytes() == want.tobytes()
        assert {k: v for k, v in spec.items() if k != "knots"} == {
            k: v for k, v in ref.items() if k != "knots"}
        assert fn.function_from_spec(spec) == fn.function_from_spec(ref)

    @pytest.mark.parametrize("block", range(1, 9))
    def test_declines_a_pair_comma_in_place_of_the_pairs_comma(self, block):
        # the comma that ends a block must be the one between two pairs
        text = b'{"type": "piecewise_linear", "knots": [[0, 3,]  [1, 0]]}'
        assert _read_in_blocks(text, block) is None

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from([[0, 3], [1, 0], [12, 5]]), min_size=1, max_size=3),
           st.lists(st.tuples(st.integers(0, 40), st.sampled_from(list("[],  0.e-\n") + [""]),
                              st.booleans()), min_size=1, max_size=3),
           _SMALL_BLOCKS)
    def test_takes_only_what_json_reads_as_pairs(self, pairs, edits, block):
        # knot text with bytes inserted, or replaced ("": deleted): where the
        # flat read takes it, json.loads reads it as the same pairs
        knots = list(json.dumps(pairs))
        for at, byte, replace in edits:
            at = min(at, len(knots) - 1)
            knots[at:at + replace] = [byte]
        text = '{"type": "piecewise_linear", "knots": ' + "".join(knots) + "}"
        spec = _read_in_blocks(text.encode(), block)
        if spec is not None:
            ref = json.loads(text)["knots"]
            assert all(type(p) is list and len(p) == 2 for p in ref)
            assert spec["knots"].ravel().tolist() == [float(v) for p in ref for v in p]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(*[_NUMBER_TOKENS] * 2), min_size=1, max_size=4),
           st.lists(st.tuples(st.integers(0, 7), st.sampled_from(
               ["true", "false", "null", '"1"', "NaN", "Infinity", "-Infinity"])), max_size=2),
           _SMALL_BLOCKS)
    def test_takes_only_json_numbers(self, pairs, swaps, block):
        # the flat read hands over floats, which would hide a bool, a null
        # or a non-finite token, so a knot array holding any token but a
        # JSON number, or one beyond the float range, is declined:
        # function_from_spec type-checks only T beside an array
        tokens = [v for pair in pairs for v in pair]
        for at, token in swaps:
            tokens[at % len(tokens)] = token
        knots = ", ".join(f"[{x}, {y}]" for x, y in zip(tokens[::2], tokens[1::2]))
        text = '{"type": "piecewise_linear", "knots": [' + knots + "]}"
        spec = _read_in_blocks(text.encode(), block)
        if swaps:
            assert spec is None
            return
        # json.loads's ints (of any size) and floats, as doubles, bit for bit
        want = np.array([float(v) for pair in json.loads(text)["knots"] for v in pair])
        if np.isfinite(want).all():
            assert spec["knots"].tobytes() == want.reshape(-1, 2).tobytes()
        else:
            assert spec is None

    def test_only_T_is_type_checked_after_a_flat_read(self, monkeypatch):
        text = '{"type": "piecewise_linear", "T": 2, "knots": [[0, 3], [1, 1.5], [2, 0]]}'
        checked, json_numbers = [], fn._json_numbers

        def spy(what, values):
            checked.append((what, [*values]))
            json_numbers(what, values)

        monkeypatch.setattr(fn, "_json_numbers", spy)
        fn.function_from_spec(cli._flat_read(text.encode()))
        fn.function_from_spec(json.loads(text))
        what = "knot coordinates and T"
        assert checked == [(what, [2]), (what, []), (what, [2]), (what, [0, 3, 1, 1.5, 2, 0])]

    _KNOTS = '[[0, 3], [1, 0]]'

    _NEAR_MISSES = [
        # knot values
        '{"type": "piecewise_linear", "knots": [[0, 3], [1]]}',
        '{"type": "piecewise_linear", "knots": [[0, 3, 1], [1, 0]]}',
        '{"type": "piecewise_linear", "knots": [[0, 3, 1], [0]]}',
        '{"type": "piecewise_linear", "knots": [[0, 3], []]}',
        '{"type": "piecewise_linear", "knots": [[0, 3], [1, 0],]}',
        '{"type": "piecewise_linear", "knots": []}',
        '{"type": "piecewise_linear", "knots": [[0 1, 3], [2, 0]]}',
        # a number moved across a bracket leaves the same brackets and commas
        '{"type": "piecewise_linear", "knots": [[0,3],[1,]0]}',
        '{"type": "piecewise_linear", "knots": [0[,3],[1,0]]}',
        '{"type": "piecewise_linear", "knots": [[0,3],1[,0]]}',
        '{"type": "piecewise_linear", "knots": [[0, 3] 5, [1, 0]]}',
        '{"type": "piecewise_linear", "knots": [[0, +1], [1, 0]]}',
        '{"type": "piecewise_linear", "knots": [[0, .5], [1, 0]]}',
        '{"type": "piecewise_linear", "knots": [[0, 1.], [1, 0]]}',
        '{"type": "piecewise_linear", "knots": [[0, 01], [1, 0]]}',
        '{"type": "piecewise_linear", "knots": [[0, 1e], [1, 0]]}',
        '{"type": "piecewise_linear", "knots": [[0, NaN], [1, 0]]}',
        '{"type": "piecewise_linear", "knots": [[0, Infinity], [1, 0]]}',
        '{"type": "piecewise_linear", "knots": [[0, 1e999], [1, 0]]}',
        '{"type": "piecewise_linear", "knots": [[true, 3], [1, 0]]}',
        '{"type": "piecewise_linear", "knots": [[0, null], [1, 0]]}',
        '{"type": "piecewise_linear", "knots": [["0", 3], [1, 0]]}',
        '{"type": "piecewise_linear", "knots": [[0, 3], [1, 0]], "T": 2}',
        '{"type": "piecewise_linear", "knots": [[0, 3], [1, ' + "9" * 5000 + "]]}",
        '{"type": "piecewise_linear", "knots": [[0, 3], [1, 1' + "0" * 400 + "]]}",
        # spec layouts
        '{"type": "piecewise_linear", "knots": [[0, 9], [1, 0]], "knots": ' + _KNOTS + "}",
        '{"type": "piecewise_linear", "meta": {"knots": ' + _KNOTS + "}}",
        '{"type": "piecewise_linear", "meta": {"knots": ' + _KNOTS + '}, "knots": []}',
        '{"type": "piecewise_linear", "note": "knots", "knots": ' + _KNOTS + "}",
        '{"type": "piecewise_linear", "note": "\\"knots\\": [[0, 9]]", "knots": ' + _KNOTS + "}",
        '{"type": "piecewise_linear", "kn\\u006fts": ' + _KNOTS + "}",
        '{"type": "piecewise_linear", "knots": ' + _KNOTS + ",}",
        '\ufeff{"type": "piecewise_linear", "knots": ' + _KNOTS + "}",
        '{"type": "piecewise_linear", "knots": ' + _KNOTS + ', "citations": [5, 3, 1]}',
        '{"knots": ' + _KNOTS + ', "meta": {"a": [[1, 2]]}, "type": "piecewise_linear"}',
        '{"type": "piecewise_linear", "knots": ' + _KNOTS + ', "x": ' + "[" * 100_000 + "}",
        '[{"type": "piecewise_linear", "knots": ' + _KNOTS + "}]",
        '{"type": "piecewise_linear", "knots": ' + _KNOTS,
        '{"type": "linear", "S": 3, "T": 1, "knots": ' + _KNOTS + "}",
    ]

    @pytest.mark.parametrize("command", ["eval", "sweep", "ingest"])
    @pytest.mark.parametrize("text", _NEAR_MISSES, ids=lambda text: text[:60])
    def test_near_miss_reads_as_the_general_path(self, command, text, tmp_path, monkeypatch,
                                                 capsys):
        p = tmp_path / "spec.json"
        p.write_text(text, encoding="utf-8")
        flat, general = _run_both([command, "--input", str(p)], monkeypatch, capsys)
        assert flat == general
        assert "Traceback" not in flat[2]

    @pytest.mark.parametrize("text", _NEAR_MISSES, ids=lambda text: text[:60])
    def test_near_miss_in_small_blocks(self, text):
        # cut at each pair, or at each byte, the flat read takes and
        # declines what it does in one block
        def read(block):
            spec = _read_in_blocks(text.encode(), block)
            return spec if spec is None else (spec.pop("knots").tobytes(), spec)

        assert read(1) == read(3) == read(cli._SPAN_BLOCK)

    def test_benchmark_shaped_spec_builds_no_pair_list(self, tmp_path, monkeypatch, capsys):
        xs = np.arange(200.0)
        ys = np.r_[np.sort(np.random.default_rng(3).pareto(1.2, 199) * 5.0 + 1.0)[::-1], 0.0]
        spec = {"type": "piecewise_linear", "T": float(xs[-1]),
                "knots": [[x, y] for x, y in zip(xs.tolist(), ys.tolist())]}
        p = tmp_path / "sweep.json"
        p.write_text(json.dumps(spec) + "\n")
        argv = ["sweep", "--input", str(p), "--theta", "0:50:101"]
        calls, flatten = [], fn._flatten
        monkeypatch.setattr(fn, "_flatten", lambda pairs: calls.append(1) or flatten(pairs))
        flat, general = _run_both(argv, monkeypatch, capsys)
        assert flat == general and flat[0] == 0
        # only the general path's run built the pairs' list
        assert calls == [1]


@pytest.mark.parametrize("block", range(1, 24))
def test_flat_read_cut_at_every_byte(block, monkeypatch):
    # a block's nominal end falls on every byte of the first two pairs,
    # inside 123456789 and 2.5e-3 too; the block runs on to the next "["
    monkeypatch.setattr(cli, "_SPAN_BLOCK", block)
    text = '{"knots": [[0, 123456789], [2.5e-3, 7],\n [4, -0.0]], "type": "piecewise_linear"}'
    want = np.array([v for pair in json.loads(text)["knots"] for v in pair], float)
    assert cli._flat_read(text.encode())["knots"].tobytes() == want.tobytes()


@st.composite
def _citation_texts(draw):
    """A citations object's text: JSON number tokens of every form as its
    counts, JSON whitespace of any kind around every token, and other keys
    in any order around it."""
    tokens = draw(st.lists(_NUMBER_TOKENS | st.integers(0, 1000).map(str), min_size=1,
                           max_size=12))
    items = {"citations": [_Raw(t) for t in tokens]}
    extras = {"name": "record 1", "meta": {"source": [1, 2], "ok": True}, "empty": [],
              "none": None}
    for key in draw(st.lists(st.sampled_from(sorted(extras)), unique=True, max_size=3)):
        items[key] = extras[key]
    order = draw(st.permutations(sorted(items)))
    return draw(_WS) + _dump(draw, {key: items[key] for key in order}) + draw(_WS)


def _json_counts(text: str) -> np.ndarray | None:
    """The general path's counts of a citations object's text: json.loads,
    then ``_numbers``; None where a count is beyond the float range."""
    try:
        counts = fn._numbers("citation counts", json.loads(text)["citations"])
    except fn.InputError:  # an int beyond the float range
        return None
    return counts if np.isfinite(counts).all() else None


class TestFlatCitationsRead:
    """``cli._flat_read`` reads a ``{"citations": [...]}`` array as it reads
    a knot array: a float array where that gives, bit for bit, what
    ``json.loads`` and ``_numbers`` give, and a decline (the general path
    runs) everywhere else.  The properties read in blocks of a few bytes."""

    @settings(max_examples=300, deadline=None)
    @given(_citation_texts(), _SMALL_BLOCKS)
    def test_builds_the_json_read(self, text, block):
        obj, want = _read_in_blocks(text.encode(), block), _json_counts(text)
        if want is None:
            # orjson rejects what json reads as an infinity or as an int
            # beyond the float range; the general path names it
            assert obj is None
            return
        assert obj["citations"].dtype == float and obj["citations"].shape == want.shape
        assert obj["citations"].tobytes() == want.tobytes()
        ref = json.loads(text)
        assert {k: v for k, v in obj.items() if k != "citations"} == {
            k: v for k, v in ref.items() if k != "citations"}

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from([0, 3, 12, 250]), min_size=1, max_size=4),
           st.lists(st.tuples(st.integers(0, 30), st.sampled_from(list("[],  0.e-\n{}\"") + [""]),
                              st.booleans()), min_size=1, max_size=3),
           _SMALL_BLOCKS)
    def test_takes_only_what_json_reads_as_counts(self, counts, edits, block):
        # count text with bytes inserted, or replaced ("": deleted): where
        # the flat read takes it, json.loads reads it as the same numbers
        chars = list(json.dumps(counts))
        for at, byte, replace in edits:
            at = min(at, len(chars) - 1)
            chars[at:at + replace] = [byte]
        text = '{"citations": ' + "".join(chars) + "}"
        obj = _read_in_blocks(text.encode(), block)
        if obj is not None:
            ref = json.loads(text)["citations"]
            assert type(ref) is list and {type(v) for v in ref} <= {int, float}
            assert obj["citations"].tobytes() == np.array([float(v) for v in ref]).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_NUMBER_TOKENS, min_size=1, max_size=6),
           st.lists(st.tuples(st.integers(0, 7), st.sampled_from(
               ["true", "false", "null", '"1"', "NaN", "Infinity", "-Infinity", "[1]", "[]"])),
               max_size=2),
           _SMALL_BLOCKS)
    def test_takes_only_json_numbers(self, tokens, swaps, block):
        # a bool, a null, a string, a non-finite token or a nested list
        # among the counts is declined, as is a count beyond the float range
        for at, token in swaps:
            tokens[at % len(tokens)] = token
        text = '{"citations": [' + ", ".join(tokens) + "]}"
        obj = _read_in_blocks(text.encode(), block)
        want = None if swaps else _json_counts(text)
        if want is None:
            assert obj is None
        else:
            assert obj["citations"].tobytes() == want.tobytes()

    _NEAR_MISSES = [
        # counts that are not JSON numbers
        '{"citations": [5, true, 1]}',
        '{"citations": [5, "3", 1]}',
        '{"citations": [5, null, 1]}',
        '{"citations": [5, NaN, 1]}',
        '{"citations": [5, Infinity, 1]}',
        '{"citations": [5, -Infinity]}',
        # the list's shape
        '{"citations": [5, [3], 1]}',
        '{"citations": [[5, 3], [1, 0]]}',
        '{"citations": [5,, 1]}',
        '{"citations": [, 5]}',
        '{"citations": [5, 3, 1,]}',
        '{"citations": [5, 3, 1, ]}',
        '{"citations": []}',
        '{"citations": [ \n ]}',
        '{"citations": [5 3]}',
        '{"citations": [5, 01]}',
        '{"citations": [5, +1]}',
        '{"citations": [5, .5]}',
        '{"citations": [5, 1.]}',
        '{"citations": [5, 1e]}',
        '{"citations": [5, -3]}',
        '{"citations": [0, 0, 0]}',
        '{"citations": 5}',
        # the key
        '{"citations": [5, 3], "citations": [7]}',
        '{"citations": [7], "meta": {"citations": [5, 3]}}',
        '{"meta": {"citations": [5, 3]}}',
        '{"cit\\u0061tions": [5, 3]}',
        '{"note": "\\"citations\\": [9]", "citations": [5, 3]}',
        '{"note": "citations", "citations": [5, 3]}',
        # ints no float holds, and ints beyond 2^64 that one does
        '{"citations": [5, 1' + "0" * 400 + "]}",
        '{"citations": [5, ' + "9" * 5000 + "]}",
        '{"citations": [5, 1e999]}',
        '{"citations": [5, 18446744073709551616]}',
        '{"citations": [5, 18446744073709551615, 18446744073709551617]}',
        '{"citations": [5, ' + str(2**1000 + 1) + "]}",
        '{"citations": [5, ' + str(2**1024 - 2**970) + "]}",
        # the text around the list
        '\ufeff{"citations": [5, 3]}',
        '{"citations": [5, 3]',
        '{"citations": [5, 3]},',
        '[{"citations": [5, 3]}]',
        '{"citations": [5, 3], "type": "linear", "S": 3, "T": 1}',
        '{"citations": [5, 3], "x": ' + "[" * 100_000 + "}",
    ]

    @pytest.mark.parametrize("command", ["eval", "sweep", "ingest"])
    @pytest.mark.parametrize("text", _NEAR_MISSES, ids=lambda text: text[:60])
    def test_near_miss_reads_as_the_general_path(self, command, text, tmp_path, monkeypatch,
                                                 capsys):
        p = tmp_path / "c.json"
        p.write_text(text, encoding="utf-8")
        flat, general = _run_both([command, "--input", str(p)], monkeypatch, capsys)
        assert flat == general
        assert "Traceback" not in flat[2]

    @pytest.mark.parametrize("command", ["eval", "ingest"])
    def test_the_largest_float_as_an_int(self, command, tmp_path, monkeypatch, capsys):
        # 2^1024 - 2^971 is the largest float, which orjson reads as json
        # does; 2^1024 - 2^970 (a near miss) rounds beyond it
        p = tmp_path / "c.json"
        p.write_text('{"citations": [5, ' + str(2**1024 - 2**971) + "]}")
        flat, general = _run_both([command, "--input", str(p)], monkeypatch, capsys)
        assert flat == general and flat[0] == 0

    @pytest.mark.parametrize("text", _NEAR_MISSES, ids=lambda text: text[:60])
    def test_near_miss_in_small_blocks(self, text):
        def read(block):
            obj = _read_in_blocks(text.encode(), block)
            return obj if obj is None else (obj.pop("citations").tobytes(), obj)

        assert read(1) == read(3) == read(cli._SPAN_BLOCK)

    @pytest.mark.parametrize("block", [1, 7, 64, cli._SPAN_BLOCK])
    def test_line_and_json_forms_ingest_alike(self, block, tmp_path, monkeypatch, capsys):
        # the same unsorted, tied counts in both forms give the same spec,
        # byte for byte, read in blocks of a few counts or whole; the flat
        # read never builds the list of counts that _numbers reads
        counts = np.floor(np.random.default_rng(5).pareto(1.2, 3000) * 5.0).astype(int).tolist()
        lines, obj = tmp_path / "c.txt", tmp_path / "c.json"
        lines.write_text("".join(f"{c}\n" for c in counts))
        obj.write_text(json.dumps({"citations": counts}, indent=1))
        assert main(["ingest", "--input", str(lines), "--output", str(tmp_path / "a")]) == 0
        calls, numbers = [], fn._numbers
        monkeypatch.setattr(cli, "_SPAN_BLOCK", block)
        monkeypatch.setattr(fn, "_numbers", lambda *a: calls.append(1) or numbers(*a))
        assert main(["ingest", "--input", str(obj), "--output", str(tmp_path / "b")]) == 0
        assert calls == []
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


@pytest.mark.parametrize("block", range(1, 16))
def test_flat_citations_cut_at_every_byte(block, monkeypatch):
    # a block's nominal end falls on every byte of the first counts, inside
    # 123456789 and 2.5e-3 too; the block runs on to the next comma
    monkeypatch.setattr(cli, "_SPAN_BLOCK", block)
    text = '{"citations": [0, 123456789 ,2.5e-3,\n 7, -0.0 ], "id": "x"}'
    want = np.array(json.loads(text)["citations"], float)
    assert cli._flat_read(text.encode())["citations"].tobytes() == want.tobytes()


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

    def test_gm_violation_is_noted_and_does_not_set_the_exit_code(self, monkeypatch, capsys):
        # the global fixture's pair violates GM, which is not expected to hold
        monkeypatch.setattr(ax, "generate_pairs", lambda seed, count: ax.fixture_global().pairs)
        rc = main(["axioms", "--bundle", "e", "--suite", "global", "--measure-theta", "1"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[2:] == [
            "GM            1       0          1  False",
            "  note: strict growth under cumulative order is not expected to hold"]

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


def _traced_peak(argv: list[str]) -> int:
    """The tracemalloc peak, in bytes, of ``main(argv)``, which must exit 0."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def counts_2e5(tmp_path_factory):
    """2e5 unsorted Pareto counts with ties (160,698 knots once
    continuized) as a line file and as ``{"citations": [...]}``, and the
    spec that ingest writes of the line file."""
    d = tmp_path_factory.mktemp("counts_2e5")
    counts = np.floor(np.random.default_rng(13).pareto(1.2, 2 * 10**5) * 5.0).astype(int)
    src, obj, spec = d / "c.txt", d / "c.json", d / "spec.json"
    src.write_text("".join(f"{c}\n" for c in counts.tolist()))
    obj.write_text(json.dumps({"citations": counts.tolist()}))
    assert main(["ingest", "--input", str(src), "--output", str(spec)]) == 0
    return src, obj, spec


class TestMemoryAt2e5Counts:
    """Ingest and eval hold the file, the float arrays and one block: the
    knot spec is written and its array read in blocks, and the line format
    parsed and a citations array read in blocks.  Written and read whole,
    the peaks were 41.9 MB and 30.0 MB; in blocks they are 11.5 MB, set by
    ``from_citations``, for the line file and ``{"citations": [...]}``
    alike, and 11.1 MB (Python 3.11, numpy 2.4)."""

    def test_ingest(self, counts_2e5, tmp_path, capsys):
        src, _, spec = counts_2e5
        out = tmp_path / "spec.json"
        assert _traced_peak(["ingest", "--input", str(src), "--output", str(out)]) < 16e6
        assert out.read_bytes() == spec.read_bytes()

    def test_ingest_json(self, counts_2e5, tmp_path, capsys):
        _, src, spec = counts_2e5
        out = tmp_path / "spec.json"
        assert _traced_peak(["ingest", "--input", str(src), "--output", str(out)]) < 13.5e6
        assert out.read_bytes() == spec.read_bytes()

    def test_eval(self, counts_2e5, tmp_path, capsys):
        src, _, spec = counts_2e5
        out = tmp_path / "eval.json"
        assert _traced_peak(["eval", "--input", str(spec), "--output", str(out)]) < 13.5e6
        assert json.loads(out.read_text())["T"] == json.loads(spec.read_text())["T"]


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

    @pytest.mark.parametrize("command", ["ingest", "converge"])
    def test_symlink_keeps_its_link_and_its_target_mode(self, command, citations_file,
                                                        tmp_path):
        # as open(path, "w") would: the link stays, and its target is
        # replaced, keeping its mode; the link is relative to its directory
        target = tmp_path / "target" / "out"
        target.parent.mkdir()
        target.write_text("old\n")
        target.chmod(0o640)
        link = tmp_path / "link"
        link.symlink_to(Path("target", "out"))
        argv = {"ingest": ["ingest", "--input", citations_file],
                "converge": ["converge", "--family", "linear", "--n-list", "10,100"]}[command]
        assert main([*argv, "--output", str(link)]) == 0
        assert link.is_symlink() and link.readlink() == Path("target", "out")
        assert target.read_text() != "old\n" and stat.S_IMODE(target.stat().st_mode) == 0o640
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["cites.txt", "link", "out", "target"]

    def test_dangling_symlink_gets_its_target_made(self, citations_file, tmp_path):
        link = tmp_path / "link"
        link.symlink_to(tmp_path / "new.json")
        assert self._ingest(citations_file, link, 0o022) == 0o644
        assert link.is_symlink() and json.loads((tmp_path / "new.json").read_text())["T"] == 3.0


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


@pytest.mark.parametrize("text, holds_text", [("5\n3\n", True), ("5", True),
                                              ('{"citations": [5, 3]}', False),
                                              ('{"type": "linear", "S": 10, "T": 20}', False)],
                         ids=["lines", "one_count", "citations", "spec"])
def test_text_is_kept_only_for_the_line_format(text, holds_text, tmp_path):
    # a decoded file's text is dropped before its value is read
    p = tmp_path / "in.txt"
    p.write_text(text)
    obj, kept = cli._read_input(cli.build_parser().parse_args(["eval", "--input", str(p)]))
    assert (obj is None, kept) == ((True, text) if holds_text else (False, None))


_MAGNITUDE = st.floats(min_value=1e-300, max_value=1e300)


@st.composite
def _knot_functions(draw):
    """General piecewise linear knots: non-integral xs, as few as two knots,
    and values from 1e-300 to 1e300, the last y zero or not."""
    xs = draw(st.lists(_MAGNITUDE, min_size=1, max_size=20, unique=True))
    ys = draw(st.lists(_MAGNITUDE | st.just(0.0), min_size=len(xs) + 1, max_size=len(xs) + 1,
                       unique=True))
    return fn.PiecewiseLinearFn([0.0, *sorted(xs)], sorted(ys, reverse=True))


@settings(max_examples=300, deadline=None)
@given(_count_vectors().map(from_citations) | _knot_functions(), st.integers(1, 4))
def test_spec_text_is_the_json_encoding(f, block):
    # blocks of 1 to 4 knots: every spec is cut many times
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_SPEC_BLOCK", block)
        text = "".join(cli._spec_text(f))
    assert text == json.dumps(fn.function_to_spec(f), indent=2, sort_keys=True) + "\n"
    assert fn.function_from_spec(json.loads(text)) == f


_BLOCK = cli._SPEC_BLOCK


@pytest.mark.parametrize("K", [2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK],
                         ids=["2", "block-1", "block", "block+1", "2block"])
def test_spec_text_at_block_edges(K):
    rng = np.random.default_rng(K)
    xs = np.r_[0.0, np.cumsum(rng.random(K - 1) + 0.5)]
    ys = np.r_[np.cumsum(rng.random(K - 1) + 0.5)[::-1], 0.0]
    f = fn.PiecewiseLinearFn(xs, ys)
    blocks = list(cli._spec_text(f))
    # the opening text, then one block per _SPEC_BLOCK knots begun
    assert len(blocks) == 1 + -(-K // _BLOCK)
    assert "".join(blocks) == json.dumps(fn.function_to_spec(f), indent=2, sort_keys=True) + "\n"


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

    _BEYOND_FLOAT = " must be at most 1.7976931348623157e+308 in magnitude, the largest float"

    @pytest.mark.parametrize("command", ["ingest", "eval", "sweep"])
    @pytest.mark.parametrize(
        "obj, said",
        [
            ({"citations": [5, "x"]}, "citation counts must be numbers, got 'x'"),
            ({"citations": [5, 10**400]}, "citation counts" + _BEYOND_FLOAT),
            ({"citations": [5, -10**400]}, "citation counts" + _BEYOND_FLOAT),
            ({"type": "piecewise_linear", "knots": [[0, 10**400], [1, 0]]},
             "knot coordinates" + _BEYOND_FLOAT),
            ({"type": "piecewise_linear", "knots": [[0, 3], [1, 10**400]]},
             "knot coordinates" + _BEYOND_FLOAT),
            ({"type": "piecewise_linear", "T": 10**400, "knots": [[0, 3], [1, 0]]},
             "knot coordinates and T" + _BEYOND_FLOAT),
            ({"type": "linear", "S": 10**400, "T": 1}, "S and T" + _BEYOND_FLOAT),
            ({"type": "zipf", "beta": 0.5, "T": -10**400}, "beta and T" + _BEYOND_FLOAT),
        ],
        ids=["non_numeric", "huge_int", "huge_negative_int", "huge_int_knot", "huge_int_y",
             "huge_int_T", "linear_huge_S", "zipf_huge_negative_T"],
    )
    def test_bad_numbers(self, command, obj, said, tmp_path, monkeypatch, capsys):
        # an int beyond the float range is named by the bound, not by its
        # 401 digits, in every field, on the flat knot read and on the
        # general path alike
        p = tmp_path / "c.json"
        p.write_text(json.dumps(obj))
        out = tmp_path / "out"
        if command == "ingest" and "type" in obj:  # ingest reads counts, not specs
            said = f'{p}: ingest needs citation counts, one per line or {{"citations": [...]}}'
        runs = _run_both([command, "--input", str(p), "--output", str(out)], monkeypatch, capsys)
        assert runs == [(2, "", f"error: {said}\n")] * 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ingest", "eval", "sweep"])
    @pytest.mark.parametrize(
        "data",
        [b"\xff\xfe", b"9" * 5000 + b"\n", b'{"citations": [' + b"9" * 5000 + b"]}"],
        ids=["not_utf8", "long_count", "long_citation"],
    )
    def test_unreadable_text(self, command, data, tmp_path, capsys):
        # JSON text is UTF-8, and int() reads at most 4,300 digits by default
        p = tmp_path / "c.txt"
        p.write_bytes(data)
        out = tmp_path / "out"
        assert main([command, "--input", str(p), "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {p}: " if data == b"\xff\xfe"
                                       else f"error: {p}: a number is too long to read")
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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_theta_grid_whose_step_overflows(self, command, linear_spec, capsys):
        # finite bounds, but hi - lo is inf: the levels are named, and no
        # warning is printed
        assert main([command, "--input", linear_spec, "--theta=-1e308:1e308:3"]) == 2
        assert capsys.readouterr() == ("", "error: theta values must be finite\n")

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
    def test_power_complement_n_beyond_float(self, command, tmp_path, capsys):
        p = tmp_path / "power.json"
        p.write_text('{"type": "power_complement", "n": 1' + "0" * 400 + "}")
        assert main([command, "--input", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: n" + self._BEYOND_FLOAT + "\n")

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
            ([[False, 3], [True, 0]], "1", "'1'"),
        ],
        ids=["bool_knots", "string_knots", "bool_T", "string_T", "T_named_first"],
    )
    def test_knot_coordinates_must_be_numbers(self, command, knots, T, said, tmp_path,
                                              monkeypatch, capsys):
        p = tmp_path / "pwl.json"
        p.write_text(json.dumps({"type": "piecewise_linear", "T": T, "knots": knots}))
        # a bad T beside number knots is the flat read's to name: it checks T alone
        if type(knots[0][0]) is int:
            assert type(cli._flat_read(p.read_bytes())["knots"]) is np.ndarray
        runs = _run_both([command, "--input", str(p)], monkeypatch, capsys)
        assert runs == [(2, "", f"error: knot coordinates and T must be numbers, got {said}\n")] * 2

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

    def test_spec_T_matches_last_knot_to_1e_12_relative(self, tmp_path, capsys):
        # a T within 1e-12 relative of the last knot reads as that knot; one
        # 1e-11 off disagrees
        p = tmp_path / "T.json"
        for T, code in ((1.0000000000001, 0), (1.00000000001, 2)):
            p.write_text(json.dumps({"type": "piecewise_linear", "T": T,
                                     "knots": [[0, 3], [1, 0]]}))
            assert main(["eval", "--input", str(p)]) == code
        assert capsys.readouterr().err == (
            "error: spec T=1.00000000001 disagrees with last knot x=1.0\n")

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

    # a pair of the right shape whose value does not read as a float fails
    # the float conversion, which comes before the type check
    @pytest.mark.parametrize("command", ["eval", "sweep"])
    @pytest.mark.parametrize("knots", [[[0, 3], [1]],[[0, 3, 1], [1, 0, 1]], [[0, 3], None], [],
                                       {"0": 3}, [[[0], [3]], [[1], [0]]], [["a", 3], [1, 0]]],
                             ids=["ragged", "triples", "null", "empty", "dict", "deeper",
                                  "text_value"])
    def test_knots_must_be_pairs(self, command, knots, tmp_path, capsys):
        p = tmp_path / "pwl.json"
        p.write_text(json.dumps({"type": "piecewise_linear", "knots": knots}))
        assert main([command, "--input", str(p)]) == 2
        assert capsys.readouterr().err == "error: knots must be a list of (x, y) pairs\n"

    @pytest.mark.parametrize("knots", [[[0, None], [1, 0]], [[0, None], [0, 1]],
                                       [[0, None], [1, -1]]],
                             ids=["alone", "x_not_increasing", "negative_y"])
    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_null_value_is_named(self, command, knots, tmp_path, capsys):
        # the float conversion reads null as NaN; the null is named where the
        # values are read, before the knot check sees that NaN or a second
        # fault
        p = tmp_path / "pwl.json"
        p.write_text(json.dumps({"type": "piecewise_linear", "knots": knots}))
        assert main([command, "--input", str(p)]) == 2
        assert capsys.readouterr().err == (
            "error: knot coordinates and T must be numbers, got None\n")

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_nan_value_keeps_the_constructor_message(self, command, tmp_path, capsys):
        # a NaN read from NaN, not from null, is the constructor's to name
        p = tmp_path / "pwl.json"
        p.write_text('{"type": "piecewise_linear", "knots": [[0, NaN], [1, 0]]}')
        assert main([command, "--input", str(p)]) == 2
        assert capsys.readouterr().err == "error: knot y must be finite and >= 0, got nan\n"
        # and so is it beside a value of the wrong type but no null
        p.write_text('{"type": "piecewise_linear", "knots": [[0, NaN], [false, 0]]}')
        assert main([command, "--input", str(p)]) == 2
        assert capsys.readouterr().err == "error: knot y must be finite and >= 0, got nan\n"

    @pytest.mark.parametrize("command", ["ingest", "eval", "sweep"])
    def test_deep_nesting(self, command, tmp_path, capsys):
        p = tmp_path / "deep.json"
        p.write_text("[" * 100_000)
        assert main([command, "--input", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {p}: JSON nests too deeply to read\n"

    def test_power_n_beyond_exact_floats(self, capsys):
        assert main(["converge", "--family", "power",
                     "--n-list", "10,100000000000000000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: power family n must be at most 2**53 = "
                                "9007199254740992, got 100000000000000000000\n")

    def test_n_below_one(self, capsys):
        assert main(["converge", "--n-list", "0,1"]) == 2
        assert "n values must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["linear", "shifted", "zipf"])
    def test_n_beyond_the_largest_float(self, family, capsys):
        # the members read 1/n, which a float does not hold
        assert main(["converge", "--family", family, "--n-list", "10,1" + "0" * 400]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n values" + self._BEYOND_FLOAT + "\n"


class TestExitPaths:
    """Usage errors that exit 2 with one line on stderr and no traceback."""

    @pytest.mark.parametrize("args, err", [
        (["eval", "--theta", "0:1:3", "--theta-list", "1"],
         "use either --theta or --theta-list, not both"),
        (["eval", "--theta", "a:1:3"], "bad --theta 'a:1:3'"),
        (["eval", "--theta", "1:0:3"], "--theta needs hi >= lo and count >= 1"),
        (["eval", "--theta", "0:1:0"], "--theta needs hi >= lo and count >= 1"),
        # "=", or argparse reads "-1,2" as an option
        (["sweep", "--theta-list=-1,2"], "theta values must be >= 0"),
    ])
    def test_bad_levels(self, args, err, linear_spec, capsys):
        assert main([*args, "--input", linear_spec]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"

    @pytest.mark.parametrize("args, err", [
        (["eval"], "eval requires --input"),
        (["converge", "--n-list", "10,x"], "bad --n-list '10,x'"),
    ])
    def test_bad_arguments(self, args, err, capsys):
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {err}\n"

    def test_output_that_is_a_directory(self, linear_spec, tmp_path, capsys):
        # the temporary file is written, the rename fails, and it is removed;
        # the write comes before the report, so a failed one prints nothing
        out = tmp_path / "outdir"
        out.mkdir()
        for argv in (["eval", "--input", linear_spec], ["axioms", "--pairs", "5"]):
            assert main([*argv, "--output", str(out)]) == 2
            printed, err = capsys.readouterr()
            assert err.startswith("i/o error: [Errno 21] Is a directory") and "Traceback" not in err
            assert printed == ""
            assert not list(tmp_path.glob(".tmp-ebundles-*"))

    def test_one_level_sweep(self, linear_spec, capsys):
        assert main(["sweep", "--input", linear_spec, "--theta", "0:5:1"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == ["theta,e,h,mu,i", "0.0,100.0,20.0,10.0,0.0"]


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

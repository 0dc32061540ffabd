"""Growth contracts: how the Python-level work of an operation grows with
the size of its input.

Each test counts the Python function calls an operation makes (the
``"call"`` events of ``sys.setprofile``) at two input sizes and compares
the counts as a ratio, never as times: a count that rises with the size
is a loop in Python over the items, which the vector code paths exist to
avoid.  The operation runs once before it is counted, so lazy imports and
caches do not count.
"""

import contextlib
import io
import json
import math
import sys

import numpy as np
import pytest

from ebundles import (cli, e_thetas, from_citations, function_to_spec, functions, h_thetas,
                      parse_citations, sweep)
from ebundles.cli import main


def _python_calls(run) -> int:
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def test_sweep_and_its_tables_make_as_many_calls_at_any_level_count():
    # a 2x10^4-knot function, swept from 0 to past Z(0), so that some e, mu
    # and i cells are NA, and written both ways
    f = from_citations(np.floor(np.random.default_rng(5).pareto(1.2, 20_000) * 5.0) + 1.0)
    assert len(f.xs) == 20_001

    def run(levels):
        table = sweep(f, np.linspace(0.0, 1.5 * float(f.ys[0]), levels).tolist())
        table.to_csv()
        table.to_json()

    run(10)
    calls = {levels: _python_calls(lambda: run(levels)) for levels in (200, 800)}
    # 600 more levels; one call per level more would raise the count by 600
    assert calls[800] / calls[200] <= 1.01, calls


def test_eval_makes_as_many_calls_at_any_level_count(tmp_path):
    # eval of a 2x10^4-knot spec, at levels from 0 to past Z(0) given as a
    # list and as a grid, its report printed and its JSON written
    f = from_citations(np.floor(np.random.default_rng(5).pareto(1.2, 20_000) * 5.0) + 1.0)
    spec, out = tmp_path / "spec.json", tmp_path / "eval.json"
    spec.write_text(json.dumps(function_to_spec(f)))
    hi = 1.5 * float(f.ys[0])

    def run(levels, form):
        if form == "list":
            arg = ["--theta-list", ",".join(map(repr, np.linspace(0.0, hi, levels).tolist()))]
        else:
            arg = ["--theta", f"0:{hi!r}:{levels}"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["eval", "--input", str(spec), *arg, "--output", str(out)]) == 0

    for form in ("list", "grid"):
        run(10, form)
        calls = {levels: _python_calls(lambda: run(levels, form)) for levels in (200, 800)}
        # one call per level more would raise the count by 600
        assert calls[800] / calls[200] <= 1.01, (form, calls)


def _calls_in_and_out_of_bisection(run) -> tuple[int, int]:
    """The Python-level calls that run makes from inside ``functions._bisect``
    (its steps, at any depth), and the others."""
    inside = outside = 0

    def profile(frame, event, arg):
        nonlocal inside, outside
        if event == "call":
            caller = frame.f_back
            while caller is not None and caller.f_code is not functions._bisect.__code__:
                caller = caller.f_back
            inside += caller is not None
            outside += caller is None

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return inside, outside


@pytest.mark.parametrize("scores", [e_thetas, h_thetas])
def test_e_and_h_make_as_many_calls_at_any_level_count_and_log_more_at_more_knots(scores):
    # functions of 2x10^4 + 1 and 8x10^4 + 1 knots, scored at 200 and 800
    # levels from 0 to Z(0)
    fs = {n: from_citations(np.floor(np.random.default_rng(5).pareto(1.2, n) * 5.0) + 1.0)
          for n in (20_000, 80_000)}
    calls = {}
    for n, f in fs.items():
        for levels in (200, 800):
            thetas = np.linspace(0.0, float(f.ys[0]), levels)
            scores(f, thetas)
            calls[n, levels] = _calls_in_and_out_of_bisection(lambda: scores(f, thetas))
    # 600 more levels; one call per level more would raise the count by 600
    for n in fs:
        assert sum(calls[n, 800]) / sum(calls[n, 200]) <= 1.01, calls
    # 4x the knots: as many calls outside the searches, whose steps grow
    # with log2 of the knot count; one call per knot more would add 60,000
    (inside, outside), (inside_4k, outside_4k) = calls[20_000, 200], calls[80_000, 200]
    assert outside_4k / outside <= 1.01, calls
    assert inside_4k / inside <= math.log2(80_001) / math.log2(20_001), calls


def test_from_citations_makes_as_many_calls_at_any_count():
    # 2x10^4 and 8x10^4 Pareto counts with ties, unsorted
    counts = {n: np.floor(np.random.default_rng(5).pareto(1.2, n) * 5.0) for n in (20_000, 80_000)}
    from_citations(counts[20_000])
    calls = {n: _python_calls(lambda: from_citations(c)) for n, c in counts.items()}
    # 6x10^4 more counts; one call per count more would raise the count by 60,000
    assert calls[80_000] / calls[20_000] <= 1.01, calls


def _calls_by_blocks(read, text, constant, size):
    """The calls that read(text(n)) makes on n = blocks * per_block counts,
    the module constant set to size(per_block), which cuts the text into
    that many blocks: at 1, 2 and 3 blocks, of 1,000 and of 4,000 counts."""
    calls = {}
    for per_block in (1_000, 4_000):
        for blocks in (1, 2, 3):
            data = text(blocks * per_block)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(*constant, size(per_block))
                calls[blocks, per_block] = _python_calls(lambda: read(data))
    return calls


def _fixed_per_block(calls):
    """Whether the calls are the same whatever a block holds, and grow by
    the same number from each block to the next."""
    for per_block in (1_000, 4_000):
        one, two, three = (calls[blocks, per_block] for blocks in (1, 2, 3))
        if three - two != two - one:
            return False
    return all(calls[blocks, 1_000] == calls[blocks, 4_000] for blocks in (1, 2, 3))


def test_parse_citations_makes_a_fixed_number_of_calls_per_block():
    # lines "5\n": a block of _LINE_BLOCK = 2m - 1 characters runs on to the
    # m-th line's "\n", so blocks * m lines cut into that many blocks, each
    # decoded by orjson, which a text of more than one block imports
    parse_citations("5\n" * (functions._LINE_BLOCK + 1))
    calls = _calls_by_blocks(parse_citations, lambda n: "5\n" * n,
                             (functions, "_LINE_BLOCK"), lambda m: 2 * m - 1)
    assert _fixed_per_block(calls), calls


def test_flat_citations_read_makes_a_fixed_number_of_calls_per_block():
    # counts "5,": a block of _SPAN_BLOCK = 2m bytes runs on to the next
    # comma, m + 1 counts, so blocks * m counts cut into that many blocks
    # (the last one shorter), and so does the count of commas
    cli._flat_read(b'{"citations": [5, 3]}')  # its first call imports orjson
    calls = _calls_by_blocks(cli._flat_read,
                             lambda n: ('{"citations": [' + "5," * (n - 1) + "5]}").encode(),
                             (cli, "_SPAN_BLOCK"), lambda m: 2 * m)
    assert _fixed_per_block(calls), calls


def test_flat_knot_read_makes_a_fixed_number_of_calls_per_block():
    # knots "[5,5],": a block of _SPAN_BLOCK = 6m bytes runs on to the next
    # "[", m knots, so blocks * m knots cut into that many blocks, and so
    # does the count of "["s
    cli._flat_read(b'{"knots": [[0, 1], [1, 0]]}')  # its first call imports orjson
    calls = _calls_by_blocks(cli._flat_read,
                             lambda n: ('{"type": "piecewise_linear", "T": 1, "knots": ['
                                        + "[5,5]," * (n - 1) + "[5,5]]}").encode(),
                             (cli, "_SPAN_BLOCK"), lambda m: 6 * m)
    assert _fixed_per_block(calls), calls

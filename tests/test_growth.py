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
import gc
import io
import json
import math
import sys

import numpy as np
import pytest

from ebundles import (e_thetas, from_citations, function_to_spec, functions, h_thetas,
                      parse_citations, sweep)
from ebundles.cli import main


@contextlib.contextmanager
def _profiled(profile):
    """profile on every event, with the garbage collector off: a collection
    would run the finalizers of other tests' garbage, and count their calls."""
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        yield
    finally:
        sys.setprofile(None)
        gc.enable()


def _python_calls(run) -> int:
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    with _profiled(profile):
        run()
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

    with _profiled(profile):
        run()
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
    """The calls that read(text(n)) makes on n = blocks * per_block counts
    (or knots), the module constant set to size(per_block), which cuts the
    text into that many blocks: at 1, 2 and 3 blocks, of 1,000 and of 4,000
    counts."""
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


# The rows of ``functions._read_blocks``, each read through its caller: the
# reader, a text of n units, and the _TEXT_BLOCK that cuts blocks * m units
# into that many blocks, and so does the count of cut bytes.  Lines "5\n"
# and counts "5,": a block of 2m bytes runs on to the next "\n" or comma,
# m + 1 units (the last block shorter); a blank last line, which the line
# read strips, makes a text of one block longer than _TEXT_BLOCK, as the
# line read needs.  Knots "[5,5],": a block of 6m bytes runs on to the next
# "[", m knots.
_BLOCK_ROWS = {
    "lines": (parse_citations, lambda n: "5\n" * n + "\n", lambda m: 2 * m),
    "counts": (functions._flat_read,
               lambda n: ('{"citations": [' + "5," * (n - 1) + "5]}").encode(), lambda m: 2 * m),
    "knots": (functions._flat_read,
              lambda n: ('{"type": "piecewise_linear", "T": 1, "knots": ['
                         + "[5,5]," * (n - 1) + "[5,5]]}").encode(), lambda m: 6 * m),
}


def _block_row_calls(row):
    read, text, size = _BLOCK_ROWS[row]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(functions, "_TEXT_BLOCK", size(1))
        read(text(3))  # its first read in blocks imports orjson
    return _calls_by_blocks(read, text, (functions, "_TEXT_BLOCK"), size)


@pytest.mark.parametrize("row", _BLOCK_ROWS)
def test_block_reader_makes_a_fixed_number_of_calls_per_block(row):
    # one loop reads every row, an orjson call a block
    calls = _block_row_calls(row)
    assert _fixed_per_block(calls), calls


@pytest.mark.parametrize("row", _BLOCK_ROWS)
def test_a_generator_over_a_blocks_values_fails_the_row(row, monkeypatch):
    # the row sees a Python-level loop over a block's values
    floats = functions._floats
    monkeypatch.setattr(functions, "_floats",
                        lambda block: np.fromiter((v for v in floats(block)), float))
    calls = _block_row_calls(row)
    assert not _fixed_per_block(calls), calls


def test_spec_text_makes_a_fixed_number_of_calls_per_block():
    # knots (i, n - 1 - i), whole numbers, which orjson writes as repr
    # does: blocks * m knots cut into that many blocks of _SPEC_BLOCK = m
    def knots(n):
        return functions.PiecewiseLinearFn(np.arange(n), np.arange(n)[::-1])

    def write(f):
        return "".join(functions._spec_text(f))

    write(knots(2))  # its first call imports orjson
    calls = _calls_by_blocks(write, knots, (functions, "_SPEC_BLOCK"), lambda m: m)
    assert _fixed_per_block(calls), calls


def _calls_by_name(run, names) -> tuple[int, dict[str, int]]:
    """All the Python-level calls that run makes, and those of the named
    functions (by code name)."""
    calls, named = 0, dict.fromkeys(names, 0)

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1
            if frame.f_code.co_name in named:
                named[frame.f_code.co_name] += 1

    with _profiled(profile):
        run()
    return calls, named


def test_generate_pairs_makes_as_many_calls_per_round_at_any_pair_count(monkeypatch):
    # 50 and 200 pairs of each kind, each in one round of attempts (_round),
    # with one block for every row (functions._BLOCK): as many calls, but
    # for one _reason a pair and one _cumulative_order a CUMULATIVE_PREC
    # pair, the per-pair loop of axioms._rejections
    from ebundles import axioms

    monkeypatch.setattr(functions, "_BLOCK", 10**9)
    axioms.generate_pairs(0, 50)
    names = ("_round", "_reason", "_cumulative_order")
    calls = {n: _calls_by_name(lambda: axioms.generate_pairs(0, n), names) for n in (50, 200)}
    (small, named), (large, named_4x) = calls[50], calls[200]
    assert named["_round"] == named_4x["_round"] == 1, calls
    assert (named["_reason"], named_4x["_reason"]) == (4 * 50, 4 * 200), calls
    assert (named["_cumulative_order"], named_4x["_cumulative_order"]) == (50, 200), calls
    assert large - named_4x["_reason"] - named_4x["_cumulative_order"] == (
        small - named["_reason"] - named["_cumulative_order"]), calls


@pytest.mark.parametrize("checker", ["check_impact_bundle", "check_impact_measure",
                                     "check_strong_impact", "check_global_impact"])
@pytest.mark.parametrize("bundle", ["e", "h"])
def test_checkers_make_as_many_calls_at_any_pair_count_in_one_block(checker, bundle, monkeypatch):
    # 50 and 200 generated pairs of each kind; the stacked reads run a
    # 4,096-row block at a time (functions._BLOCK), and with one block for
    # every row the calls are as many: they grow by blocks, never by pairs
    from ebundles import BUNDLES, axioms

    monkeypatch.setattr(functions, "_BLOCK", 10**9)
    check = getattr(axioms, checker)
    level = () if checker == "check_impact_bundle" else (1.0,)

    def calls(n):
        check(BUNDLES[bundle], *level, axioms.generate_pairs(0, n))
        pairs = axioms.generate_pairs(0, n)  # a new set: a set keeps what a checker read
        return _python_calls(lambda: check(BUNDLES[bundle], *level, pairs))

    assert calls(50) == calls(200)


def test_cumulative_dominates_makes_as_many_calls_at_more_knots_in_one_block(monkeypatch):
    # f and g of K = 2,000 and 4K knots on [0, 1]; with one block for every
    # row (functions._BLOCK) the calls outside the searches are as many,
    # and _bisect's steps grow with log2 of the knot count
    from ebundles import PiecewiseLinearFn, cumulative_dominates

    monkeypatch.setattr(functions, "_BLOCK", 10**9)

    def pair(k):
        wobble = 1e-4 * np.sin(np.arange(k)) / k
        return (PiecewiseLinearFn(np.linspace(0.0, 1.0, k), np.linspace(2.0, 0.5, k) + wobble),
                PiecewiseLinearFn(np.linspace(0.0, 1.0, k + 3), np.linspace(2.1, 0.4, k + 3)))

    cumulative_dominates(*pair(10))
    calls = {k: _calls_in_and_out_of_bisection(lambda: cumulative_dominates(*pair(k)))
             for k in (2_000, 8_000)}
    (inside, outside), (inside_4k, outside_4k) = calls[2_000], calls[8_000]
    assert outside_4k == outside, calls
    assert inside_4k / inside <= math.log2(8_003) / math.log2(2_003), calls


@pytest.mark.parametrize("family", ["linear", "shifted", "zipf", "power"])
def test_run_study_makes_a_fixed_number_of_calls_per_member_at_any_grid(family):
    # 3, 6 and 12 members, n = 10, 20, 40, ...: each member adds as many
    # calls (its construction), and 4x the grid points add none
    from ebundles.convergence import SEQUENCE_FAMILIES, run_study

    def calls(members, grid_n):
        seq = SEQUENCE_FAMILIES[family](tuple(10 * 2**i for i in range(members)))
        return _python_calls(lambda: run_study(seq, grid_n=grid_n, theta_grid_n=grid_n // 10))

    calls(3, 1_000)
    by_members = [calls(m, 1_000) for m in (3, 6, 12)]
    assert by_members[2] - by_members[1] == 2 * (by_members[1] - by_members[0]), by_members
    assert calls(3, 4_000) == by_members[0]

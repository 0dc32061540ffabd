"""Growth contracts: how the Python-level work of an operation grows with
the size of its input.

Each test counts the Python function calls an operation makes (the
``"call"`` events of ``sys.setprofile``) at two input sizes and compares
the counts as a ratio, never as times: a count that rises with the size
is a loop in Python over the items, which the vector code paths exist to
avoid.  The operation runs once before it is counted, so lazy imports and
caches do not count.
"""

import sys

import numpy as np

from ebundles import from_citations, sweep


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

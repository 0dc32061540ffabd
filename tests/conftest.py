import math
import sys
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from ebundles.functions import PiecewiseLinearFn

# Cells of an output table: magnitudes from the least subnormal to the
# largest float, many of them near 1e-4 and 1e16, where orjson's exponent
# notation parts from repr's, of either sign; both zeros and the infinities.
_MAGNITUDES = (st.floats(min_value=5e-324, max_value=sys.float_info.max)
               | st.floats(min_value=1e-5, max_value=1e-3)
               | st.floats(min_value=1e15, max_value=1e17)
               | st.sampled_from([math.nextafter(1e-4, 0.0), 1e-4, math.nextafter(1e16, 0.0), 1e16]))
table_cells = (_MAGNITUDES.flatmap(lambda m: st.sampled_from([m, -m]))
               | st.sampled_from([0.0, -0.0, math.inf, -math.inf]))


@st.composite
def pwl_functions(st_draw, max_knots=8):
    """Random strictly decreasing piecewise linear functions."""
    k = st_draw(st.integers(min_value=2, max_value=max_knots))
    gaps = st_draw(
        st.lists(
            st.floats(min_value=0.05, max_value=5.0, allow_nan=False),
            min_size=k - 1,
            max_size=k - 1,
        )
    )
    drops = st_draw(
        st.lists(
            st.floats(min_value=0.05, max_value=5.0, allow_nan=False),
            min_size=k - 1,
            max_size=k - 1,
        )
    )
    tail = st_draw(st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
    xs = np.concatenate(([0.0], np.cumsum(gaps)))
    ys = tail + np.concatenate((np.cumsum(drops[::-1])[::-1], [0.0]))
    return PiecewiseLinearFn.from_pairs(list(zip(xs.tolist(), ys.tolist())))


def seeded_pwl(rng: np.random.Generator, max_knots=8, value_scale=10.0):
    """One random strictly decreasing piecewise linear function."""
    k = int(rng.integers(2, max_knots + 1))
    xs = np.concatenate(([0.0], np.cumsum(rng.uniform(0.1, 3.0, size=k - 1))))
    drops = rng.uniform(0.1, 1.0, size=k - 1)
    drops *= value_scale * float(rng.uniform(0.3, 1.0)) / drops.sum()
    tail = float(rng.uniform(0.0, 0.5))
    ys = tail + np.concatenate((np.cumsum(drops[::-1])[::-1], [0.0]))
    return PiecewiseLinearFn.from_pairs(list(zip(xs.tolist(), ys.tolist())))

"""Degenerate contingency tables get a defined answer, never a raw error.

The significance test behind every multi-group parity verdict must
answer any table a window or an audit can produce — empty cells, an
empty group, an outcome no row takes (constant predictions) — with a
finite result, or refuse malformed input with a named ``repro`` error.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import chi_square_independence

#: counts small enough that whole rows and columns are often zero
_TABLES = st.tuples(st.integers(2, 4), st.integers(2, 4)).flatmap(
    lambda shape: st.lists(
        st.integers(0, 3), min_size=shape[0] * shape[1],
        max_size=shape[0] * shape[1],
    ).map(lambda cells: np.array(cells).reshape(shape))
).filter(lambda table: table.sum() > 0)


@settings(max_examples=200, deadline=None)
@given(table=_TABLES)
def test_any_nonempty_table_has_a_defined_result(table):
    result = chi_square_independence(table)
    assert np.isfinite(result.statistic) and result.statistic >= 0.0
    assert 0.0 <= result.p_value <= 1.0
    rows, cols = table.any(axis=1), table.any(axis=0)
    if rows.sum() < 2 or cols.sum() < 2:
        assert (result.statistic, result.p_value) == (0.0, 1.0)
    else:
        # empty rows and columns carry no evidence: the answer is the
        # reduced table's
        assert result == chi_square_independence(table[rows][:, cols])


def test_constant_outcome_across_three_groups_is_no_association():
    result = chi_square_independence([[2, 0], [2, 0], [2, 0]])
    assert (result.statistic, result.p_value) == (0.0, 1.0)


def test_mixed_type_population_keys_give_a_seeded_curve():
    # keys of mixed types have no total order; the curve must still be
    # deterministic and match the one-sample-per-trial oracle
    from repro.stats import DISTANCE_REGISTRY, sample_complexity_curve
    from tests.oracle.sampling import sample_complexity_curve as oracle_curve

    args = (DISTANCE_REGISTRY["total_variation"], {"a": 0.6, "b": 0.3, 1: 0.1},
            {"a": 0.5, "b": 0.25, 1: 0.25}, [5, 40, 300])
    kwargs = dict(n_trials=12, random_state=3)
    curve = sample_complexity_curve(*args, **kwargs)
    assert curve == sample_complexity_curve(*args, **kwargs)
    assert curve == oracle_curve(*args, **kwargs)
    assert curve.points[-1].mean_abs_error < curve.points[0].mean_abs_error

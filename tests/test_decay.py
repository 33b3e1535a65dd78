import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lookback_prophet import (
    DecaySequence,
    PiecewiseLinear,
    bernoulli_decay,
    gamma_decay,
    geometric_decay,
    subtractive_decay,
    table_decay,
)
from lookback_prophet.decay import (
    evaluate,
    expected_value,
    gamma_of,
    is_limit,
    limit_decay,
    sample_realization,
    validate,
)
from lookback_prophet.errors import KindMismatch, ParameterOutOfRange

GRID = [0.0, 0.25, 1.0, 3.0, 10.0, 100.0]

HALVING = PiecewiseLinear((0.0, 1e6), (0.0, 5e5))
DOUBLING = PiecewiseLinear((0.0, 1e6), (0.0, 2e6))


def all_kinds():
    return [
        gamma_decay(0.5),
        geometric_decay(0.9),
        subtractive_decay([1.0, 2.0, 3.0], 3.0),
        bernoulli_decay([1.0, 0.5], 0.25),
        table_decay([HALVING], HALVING),
    ]


def test_evaluate_examples():
    assert evaluate(gamma_decay(0.5), 7, 4.0) == 2.0
    assert evaluate(geometric_decay(0.9), 2, 10.0) == pytest.approx(8.1, abs=1e-12)
    assert evaluate(subtractive_decay([1, 2, 3, 4, 5], 5), 5, 3.0) == 0.0


def test_evaluate_lag_zero_is_identity():
    for seq in all_kinds():
        if seq.kind == "bernoulli":
            continue
        assert evaluate(seq, 0, 7.25) == 7.25


def test_evaluate_rejects_bernoulli():
    with pytest.raises(KindMismatch):
        evaluate(bernoulli_decay([0.5], 0.5), 1, 1.0)


def test_expected_value_examples():
    assert expected_value(bernoulli_decay([0.8, 0.8, 0.8], 0.8), 3, 5.0) == 4.0
    assert expected_value(gamma_decay(0.3), 1, 10.0) == 3.0
    assert expected_value(bernoulli_decay([1.0, 0.5], 0.25), 2, 8.0) == 4.0


def test_sample_realization_deterministic_kinds():
    rng = np.random.default_rng(0)
    assert sample_realization(gamma_decay(0.5), 1, 2.0, rng) == 1.0
    assert all(
        sample_realization(bernoulli_decay([1.0], 1.0), 4, 7.0, rng) == 7.0 for _ in range(20)
    )


def test_sample_realization_bernoulli_mean():
    seq = bernoulli_decay([0.5], 0.5)
    rng = np.random.default_rng(5)
    n = 10**5
    draws = [sample_realization(seq, 1, 1.0, rng) for _ in range(n)]
    se = 0.5 / math.sqrt(n)
    assert abs(np.mean(draws) - 0.5) <= 3 * se


def test_gamma_of_examples():
    assert gamma_of(geometric_decay(0.9)) == (0.0, True)
    assert gamma_of(subtractive_decay([1, 2, 3], 3)) == (0.0, True)
    assert gamma_of(gamma_decay(0.4)) == (0.4, True)
    assert gamma_of(geometric_decay(1.0)) == (1.0, True)
    assert gamma_of(bernoulli_decay([1.0, 0.5], 0.25)) == (0.25, True)


def test_gamma_of_table_is_flagged_approximate():
    value, exact = gamma_of(table_decay([HALVING], HALVING))
    assert not exact
    assert value == pytest.approx(0.5, abs=1e-9)


def test_gamma_of_lower_bounds_expected_value():
    for seq in all_kinds():
        g, _ = gamma_of(seq)
        for j in range(1, 8):
            for x in GRID:
                assert expected_value(seq, j, x) >= g * x - 1e-12


def test_limit_decay_examples():
    assert limit_decay(geometric_decay(0.5)) == gamma_decay(0.0)
    assert limit_decay(gamma_decay(0.7)) == gamma_decay(0.7)
    assert limit_decay(subtractive_decay([1, 2, 3], 3)) == subtractive_decay([], 3)
    assert limit_decay(geometric_decay(1.0)) == gamma_decay(1.0)


def test_limit_decay_idempotent():
    for seq in all_kinds():
        lim = limit_decay(seq)
        assert limit_decay(lim) == lim
        assert is_limit(lim)


def test_limit_decay_preserves_recovery_floor():
    for seq in (geometric_decay(0.3), geometric_decay(1.0), subtractive_decay([2], 4)):
        assert gamma_of(limit_decay(seq)) == gamma_of(seq)


def test_evaluate_in_range_and_lag_monotone():
    for seq in all_kinds():
        for x in GRID:
            prev = x
            for j in range(1, 9):
                v = expected_value(seq, j, x)
                assert 0.0 <= v <= x + 1e-12
                assert v <= prev + 1e-12
                prev = v


@given(
    gamma=st.floats(0.0, 1.0),
    x=st.floats(0.0, 1e6),
    j=st.integers(1, 50),
)
@settings(max_examples=60, deadline=None)
def test_gamma_kind_properties(gamma, x, j):
    seq = gamma_decay(gamma)
    assert evaluate(seq, j, x) == gamma * x
    assert evaluate(seq, j, x) <= x


def test_validate_passes_gamma():
    report = validate(gamma_decay(0.5), [0.0, 1.0, 10.0], max_lag=5)
    assert report.passed and not report.violations


def test_validate_catches_inflating_first_lag():
    report = validate(table_decay([DOUBLING], HALVING), [0.0, 1.0, 10.0], max_lag=3)
    assert not report.passed
    assert any(v.condition == "D1<=x" and v.x == 1.0 for v in report.violations)


def test_validate_catches_lag_increase():
    report = validate(bernoulli_decay([0.2, 0.9], 0.1), GRID, max_lag=4)
    assert not report.passed
    assert any(v.condition == "lag-monotone" for v in report.violations)


def test_validate_catches_x_decrease():
    falling = PiecewiseLinear((0.0, 1.0, 2.0), (0.0, 1.0, 0.5))
    report = validate(table_decay([falling], falling), [0.0, 0.5, 1.0, 2.0], max_lag=2)
    assert not report.passed
    assert any(v.condition == "x-monotone" for v in report.violations)


def test_validate_caps_reported_violations():
    report = validate(table_decay([DOUBLING], DOUBLING), list(range(1, 300)), max_lag=2)
    assert len(report.violations) == 100


def test_validate_rejects_bad_grid():
    with pytest.raises(ParameterOutOfRange):
        validate(gamma_decay(0.5), [], 3)
    with pytest.raises(ParameterOutOfRange):
        validate(gamma_decay(0.5), [-1.0, 2.0], 3)


def test_constructor_domains():
    with pytest.raises(ParameterOutOfRange):
        gamma_decay(1.5)
    with pytest.raises(ParameterOutOfRange):
        geometric_decay(-0.1)
    with pytest.raises(ParameterOutOfRange):
        subtractive_decay([0.0], 1.0)
    with pytest.raises(ParameterOutOfRange):
        bernoulli_decay([1.2], 0.5)


def test_json_round_trip():
    for seq in all_kinds():
        assert DecaySequence.from_json(seq.to_json()) == seq


def test_json_matches_documented_shapes():
    assert gamma_decay(0.5).to_dict() == {"kind": "gamma", "gamma": 0.5}
    assert geometric_decay(0.9).to_dict() == {"kind": "geometric", "lambda": 0.9}
    assert subtractive_decay([1, 2, 3], 3).to_dict() == {
        "kind": "subtractive",
        "costs": [1.0, 2.0, 3.0],
        "terminal": 3.0,
    }
    assert bernoulli_decay([1.0, 0.5], 0.25).to_dict() == {
        "kind": "bernoulli",
        "probs": [1.0, 0.5],
        "terminal": 0.25,
    }
    table = table_decay([HALVING], HALVING).to_dict()
    assert table["kind"] == "table" and table["functions"][0]["xs"] == [0.0, 1e6]


@pytest.mark.parametrize("costs, terminal", [([float("nan")], 1.0), ([1.0], float("nan"))])
def test_subtractive_rejects_nan(costs, terminal):
    with pytest.raises(ParameterOutOfRange):
        subtractive_decay(costs, terminal)


@pytest.mark.parametrize(
    "xs, ys", [((0.0, float("nan")), (0.0, 1.0)), ((0.0, 1.0), (float("nan"), 1.0))]
)
def test_piecewise_linear_rejects_nan_knots(xs, ys):
    with pytest.raises(ParameterOutOfRange):
        PiecewiseLinear(xs, ys)

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lookback_prophet import (
    Instance,
    discrete,
    exponential,
    point,
    uniform,
)
from lookback_prophet import distributions
from lookback_prophet.distributions import (
    cdf,
    expectation,
    expected_max,
    max_cdf,
    max_cdf_left,
    sample,
    solve_max_quantile,
)
from lookback_prophet.errors import IntegrationFailure, ParameterOutOfRange
from lookback_prophet.evaluation import child_rng
from lookback_prophet.instances import rescale
from tests.conftest import random_instance, run_python

TWO_POINT = discrete([0.0, 10.0], [0.9, 0.1])


def test_cdf_examples():
    assert cdf(uniform(0, 1), 0.5) == 0.5
    assert cdf(TWO_POINT, 0.0) == 0.9
    assert cdf(point(3.0), 2.999) == 0.0


def test_cdf_edges():
    u = uniform(2, 4)
    assert cdf(u, 1.0) == 0.0 and cdf(u, 5.0) == 1.0
    assert u.cdf_left(2.0) == 0.0
    d = TWO_POINT
    assert d.cdf_left(10.0) == 0.9 and d.cdf(10.0) == 1.0
    assert d.atom_at(10.0) == pytest.approx(0.1, abs=1e-15)
    assert exponential(1.0).cdf(-1.0) == 0.0


def test_sample_point_mass():
    rng = np.random.default_rng(0)
    assert all(sample(point(3.0), rng) == 3.0 for _ in range(10))


def test_sample_seed_determinism():
    a = [sample(exponential(2.0), np.random.default_rng(7)) for _ in range(1)]
    b = [sample(exponential(2.0), np.random.default_rng(7)) for _ in range(1)]
    assert a == b


def test_sample_mean_law_of_large_numbers():
    d = discrete([0.0, 1.0], [0.5, 0.5])
    draws = d.sample_many(10**6, np.random.default_rng(11))
    se = 0.5 / math.sqrt(10**6)
    assert abs(draws.mean() - 0.5) <= 3 * se


def test_sample_uniform_kolmogorov_bound():
    n = 10**6
    draws = np.sort(uniform(0, 1).sample_many(n, np.random.default_rng(13)))
    grid = (np.arange(1, n + 1)) / n
    ks = max(np.abs(draws - grid).max(), np.abs(draws - (grid - 1.0 / n)).max())
    assert ks <= 1.628 / math.sqrt(n)  # 99% Kolmogorov critical value


def test_expectation_examples():
    assert expectation(exponential(2.0)) == 0.5
    assert expectation(TWO_POINT) == 1.0
    assert expectation(uniform(2, 4)) == 3.0


def test_max_cdf_examples():
    two_u = Instance("adversarial", (uniform(0, 1), uniform(0, 1)))
    assert max_cdf(two_u, 0.5) == 0.25
    iid_pt = Instance("iid", (point(3.0),), iid_count=5)
    assert max_cdf(iid_pt, 3.0) == 1.0
    pair = Instance("adversarial", (TWO_POINT, TWO_POINT))
    assert max_cdf(pair, 0.0) == pytest.approx(0.81, abs=1e-15)


def test_max_cdf_monotone_and_factorizes(rng):
    inst = random_instance(rng, max_n=4)
    xs = np.linspace(-1, 12, 80)
    vals = [max_cdf(inst, x) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    for x in xs[::7]:
        prod = math.prod(cdf(d, x) for d in inst.distributions)
        assert max_cdf(inst, x) == pytest.approx(prod, abs=1e-15)


def test_expected_max_two_uniforms():
    inst = Instance("adversarial", (uniform(0, 1), uniform(0, 1)))
    assert expected_max(inst) == pytest.approx(2.0 / 3.0, rel=1e-9)


def test_expected_max_closed_forms_to_1e12():
    two = Instance("random", (uniform(0, 1), uniform(0, 1)))
    assert expected_max(two) == pytest.approx(2.0 / 3.0, rel=1e-12, abs=0.0)
    for k, rate in ((1, 1.0), (3, 0.5), (10, 2.0), (50, 1.7)):
        harmonic = math.fsum(1.0 / i for i in range(1, k + 1))
        for inst in (
            Instance("iid", (exponential(rate),), iid_count=k),
            Instance("adversarial", (exponential(rate),) * k),
        ):
            assert expected_max(inst) == pytest.approx(harmonic / rate, rel=1e-12, abs=0.0)


def test_expected_max_raises_when_quadrature_cannot_converge(monkeypatch):
    monkeypatch.setattr(distributions, "QUAD_MAX_ROUNDS", 1)  # no bisection allowed
    with pytest.raises(IntegrationFailure):
        expected_max(Instance("adversarial", (exponential(1.0), exponential(3.0))))


def test_import_loads_no_scipy():
    code = "import sys, lookback_prophet; print(sorted(m for m in sys.modules if 'scipy' in m))"
    out = run_python(code)
    assert out.returncode == 0 and out.stdout.strip() == "[]"


def test_expected_max_sure_value_plus_spike():
    a = 1.0 / (1.0 - 0.9 * 0.5)
    inst = Instance("adversarial", (point(a), TWO_POINT))
    assert expected_max(inst) == pytest.approx(1.0 + 0.9 * a, abs=1e-12)


def test_expected_max_single_point():
    assert expected_max(Instance("adversarial", (point(5.0),))) == 5.0


def brute_expected_max(inst: Instance) -> float:
    """Independent oracle: full product-outcome enumeration."""
    pairs = [list(zip(d.support, d.probs)) for d in inst.iter_dists()]
    return math.fsum(
        math.prod(p for _, p in combo) * max(v for v, _ in combo)
        for combo in product(*pairs)
    )


def test_expected_max_matches_enumeration(rng):
    for _ in range(25):
        inst = random_instance(rng, max_n=5, max_support=4)
        assert expected_max(inst) == pytest.approx(brute_expected_max(inst), abs=1e-12)


def test_expected_max_iid_matches_enumeration(rng):
    d = discrete([0.0, 1.5, 4.0], [0.5, 0.3, 0.2])
    inst = Instance("iid", (d,), iid_count=5)
    flat = Instance("adversarial", (d,) * 5)
    assert expected_max(inst) == pytest.approx(brute_expected_max(flat), abs=1e-12)


def test_expected_max_mixed_kinds_vs_closed_form():
    # E[max] = int_0^inf (1 - F_u F_e F_p) dx, split at the atom (0.5)
    # and the uniform endpoint (1): 0.625 + 1.5 e^{-1/2} - e^{-1}.
    inst = Instance("adversarial", (uniform(0, 1), exponential(1.0), point(0.5)))
    oracle = 0.625 + 1.5 * math.exp(-0.5) - math.exp(-1.0)
    assert expected_max(inst) == pytest.approx(oracle, rel=1e-9)


def test_rescale_scales_expected_max(rng):
    inst = random_instance(rng, max_n=4)
    base = expected_max(inst)
    for r in (0.5, 2.0, 10.0):
        assert expected_max(rescale(inst, r)) == pytest.approx(r * base, abs=1e-10 * max(1, r))


def test_solve_max_quantile_two_uniforms():
    inst = Instance("adversarial", (uniform(0, 1), uniform(0, 1)))
    sol = solve_max_quantile(inst, 2.0 / 3.0)
    assert sol.theta == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)
    assert sol.tie_break_accept_prob == 0.0
    assert sol.achieved_p == pytest.approx(2.0 / 3.0, abs=1e-10)


def test_solve_max_quantile_single_point():
    sol = solve_max_quantile(Instance("adversarial", (point(3.0),)), 0.4)
    assert sol.theta == 3.0
    assert sol.tie_break_accept_prob == pytest.approx(0.6, abs=1e-12)
    assert sol.achieved_p == pytest.approx(0.4, abs=1e-10)


def test_solve_max_quantile_atom_jump():
    # Sure value a followed by a {0, 10} spike: the max-CDF jumps from 0
    # to 0.9 at a, so the 2/3 target lands on the atom with a tie-break.
    a = 1.0 / (1.0 - 0.9 * 0.5)
    inst = Instance("adversarial", (point(a), TWO_POINT))
    sol = solve_max_quantile(inst, 2.0 / 3.0)
    assert sol.theta == a
    assert max_cdf(inst, sol.theta) >= 2.0 / 3.0
    assert sol.tie_break_accept_prob == pytest.approx(1.0 - (2.0 / 3.0) / 0.9, abs=1e-12)
    assert sol.achieved_p == pytest.approx(2.0 / 3.0, abs=1e-10)


def never_accept_prob(inst, sol) -> float:
    out = 1.0
    for d in inst.iter_dists():
        out *= d.cdf_left(sol.theta) + (1.0 - sol.tie_break_accept_prob) * d.atom_at(sol.theta)
    return out


@pytest.mark.parametrize("p", [0.05, 0.31, 0.5, 2.0 / 3.0, 0.9, 0.99])
def test_solve_max_quantile_invariants(rng, p):
    for _ in range(10):
        inst = random_instance(rng, max_n=4)
        sol = solve_max_quantile(inst, p)
        assert max_cdf(inst, sol.theta) >= p - 1e-12
        assert max_cdf_left(inst, sol.theta) <= p + 1e-12
        assert never_accept_prob(inst, sol) == pytest.approx(p, abs=1e-10)
        if all(d.atom_at(sol.theta) == 0.0 for d in inst.distributions):
            assert sol.tie_break_accept_prob == 0.0


@given(p=st.floats(0.01, 0.99), n=st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_solve_max_quantile_iid_property(p, n):
    inst = Instance("iid", (TWO_POINT,), iid_count=n)
    sol = solve_max_quantile(inst, p)
    assert never_accept_prob(inst, sol) == pytest.approx(p, abs=1e-10)


def test_solve_max_quantile_rejects_bad_p():
    inst = Instance("adversarial", (point(1.0),))
    with pytest.raises(ParameterOutOfRange):
        solve_max_quantile(inst, 0.0)
    with pytest.raises(ParameterOutOfRange):
        solve_max_quantile(inst, 1.0)


def test_distribution_validation():
    with pytest.raises(ParameterOutOfRange):
        discrete([1.0, 0.5], [0.5, 0.5])  # not increasing
    with pytest.raises(ParameterOutOfRange):
        discrete([0.0, 1.0], [0.5, 0.6])  # sums past 1
    with pytest.raises(ParameterOutOfRange):
        discrete([-1.0, 1.0], [0.5, 0.5])
    with pytest.raises(ParameterOutOfRange):
        uniform(2.0, 1.0)
    with pytest.raises(ParameterOutOfRange):
        exponential(0.0)
    with pytest.raises(ParameterOutOfRange):
        point(-2.0)


def test_instance_validation():
    with pytest.raises(ParameterOutOfRange):
        Instance("sorted", (point(1.0),))
    with pytest.raises(ParameterOutOfRange):
        Instance("iid", (point(1.0), point(2.0)), iid_count=2)
    with pytest.raises(ParameterOutOfRange):
        Instance("iid", (point(1.0),))
    with pytest.raises(ParameterOutOfRange):
        Instance("adversarial", ())


def test_instance_json_round_trip(rng):
    inst = random_instance(rng, order="random", max_n=4)
    assert Instance.from_json(inst.to_json()) == inst
    iid = Instance("iid", (exponential(2.0),), iid_count=7)
    assert Instance.from_json(iid.to_json()) == iid
    mixed = Instance("adversarial", (uniform(0, 1), point(3.0)))
    assert Instance.from_json(mixed.to_json()) == mixed


def test_quantile_many_matches_scalar(rng):
    for d in (TWO_POINT, uniform(0.5, 2.0), exponential(3.0), point(4.0)):
        u = rng.random(200)
        vec = d.quantile_many(u)
        assert all(float(v) == d.quantile(float(x)) for v, x in zip(vec, u))


def test_child_rng_streams_are_stable():
    a = child_rng(123, 0, 1).random(3)
    b = child_rng(123, 0, 1).random(3)
    c = child_rng(123, 1, 1).random(3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)

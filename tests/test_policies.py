import numpy as np
import pytest

from lookback_prophet import (
    Instance,
    NeverStopPolicy,
    PiecewiseLinear,
    ThresholdPolicy,
    bernoulli_decay,
    discrete,
    gamma_decay,
    geometric_decay,
    point,
    table_decay,
    uniform,
)
from lookback_prophet.distributions import expected_max
from lookback_prophet.errors import (
    InstanceTooLarge,
    InvariantViolation,
    ParameterOutOfRange,
    UnsupportedDistribution,
)
from lookback_prophet.evaluation import brute_force_value, child_rng
from lookback_prophet.instances import adv_hard, iid_hard, random_order_hard
from lookback_prophet.policies import (
    dp_optimal_gamma_adversarial,
    dp_optimal_gamma_iid,
    dp_optimal_gamma_random_order,
    policy_from_dict,
    policy_to_dict,
    rational_wrap,
    run_policy,
    run_threshold,
)
from tests.conftest import random_instance, run_python


def test_run_threshold_stops_above():
    traj = run_threshold(
        ThresholdPolicy(0.5), [0.3, 0.7], gamma_decay(0.5), np.random.default_rng(0)
    )
    assert traj.stop_step == 2 and traj.reward == 0.7


def test_run_threshold_never_stops_recovers_decayed_max():
    traj = run_threshold(
        ThresholdPolicy(0.5), [0.3, 0.4], gamma_decay(0.5), np.random.default_rng(0)
    )
    assert traj.stop_step == 3 and traj.reward == 0.2


def test_run_threshold_classical_miss_is_zero():
    traj = run_threshold(
        ThresholdPolicy(0.5), [0.3, 0.4], gamma_decay(0.0), np.random.default_rng(0)
    )
    assert traj.stop_step == 3 and traj.reward == 0.0


def test_run_threshold_recovery_uses_observation_lags():
    # stopping at step 3: current full, lag 1 and 2 decayed geometrically
    traj = run_threshold(
        ThresholdPolicy(5.0), [4.0, 1.0, 6.0], geometric_decay(0.5), np.random.default_rng(0)
    )
    assert traj.stop_step == 3
    assert traj.reward == max(6.0, 0.5 * 1.0, 0.25 * 4.0)
    # never stopping: position k carries lag n-k+1
    traj2 = run_threshold(
        ThresholdPolicy(10.0), [4.0, 1.0, 6.0], geometric_decay(0.5), np.random.default_rng(0)
    )
    assert traj2.stop_step == 4
    assert traj2.reward == max(0.125 * 4.0, 0.25 * 1.0, 0.5 * 6.0)


def test_tie_break_coin_consumed_per_tie():
    policy = ThresholdPolicy(1.0, tie_break_accept_prob=0.5)
    hits = sum(
        run_policy(policy, [1.0, 2.0], gamma_decay(0.0), child_rng(9, r, 3)).stop_step == 1
        for r in range(4000)
    )
    assert abs(hits / 4000 - 0.5) < 0.03


def test_stalled_identity_gamma():
    # reward(gamma) - reward(0) == gamma * max * 1(never stopped) pathwise
    for gamma in (0.25, 0.5, 0.9):
        for r in range(300):
            rng = child_rng(100, r, 0)
            obs = uniform(0, 2).sample_many(5, rng)
            t_g = run_threshold(ThresholdPolicy(1.5), obs, gamma_decay(gamma), rng)
            t_0 = run_threshold(ThresholdPolicy(1.5), obs, gamma_decay(0.0), rng)
            assert t_g.stop_step == t_0.stop_step
            stalled = 1.0 if t_g.stop_step == 6 else 0.0
            assert t_g.reward == t_0.reward + gamma * obs.max() * stalled


def test_reward_monotone_in_gamma():
    for r in range(100):
        rng = child_rng(7, r, 0)
        obs = uniform(0, 2).sample_many(6, rng)
        rewards = [
            run_threshold(ThresholdPolicy(1.7), obs, gamma_decay(g), rng).reward
            for g in (0.0, 0.3, 0.6, 1.0)
        ]
        assert all(b >= a for a, b in zip(rewards, rewards[1:]))


def test_dp_adversarial_hard_instance_value():
    inst = adv_hard(0.5, 0.1)
    _, value = dp_optimal_gamma_adversarial(inst, 0.5)
    assert value == pytest.approx(1.0 / 0.55, abs=1e-12)


def test_dp_adversarial_full_recovery_equals_prophet():
    inst = adv_hard(0.5, 0.1)
    _, value = dp_optimal_gamma_adversarial(inst, 1.0)
    assert value == pytest.approx(expected_max(inst), abs=1e-12)


def test_dp_adversarial_single_point():
    inst = Instance("adversarial", (point(5.0),))
    _, value = dp_optimal_gamma_adversarial(inst, 0.0)
    assert value == 5.0


def test_dp_adversarial_rejects_continuous():
    inst = Instance("adversarial", (uniform(0, 1),))
    with pytest.raises(UnsupportedDistribution):
        dp_optimal_gamma_adversarial(inst, 0.5)


def test_dp_iid_single_step_is_mean():
    _, value = dp_optimal_gamma_iid(discrete([0.0, 10.0], [0.9, 0.1]), 1, 0.0)
    assert value == pytest.approx(1.0, abs=1e-14)


def test_dp_iid_three_point_matches_enumeration_oracle():
    inst = iid_hard(10, 2.0, 1.5)
    policy, value = dp_optimal_gamma_iid(inst.distributions[0], 10, 0.5)
    assert brute_force_value(inst, policy, gamma_decay(0.5)) == pytest.approx(value, abs=1e-12)


def test_dp_iid_full_recovery_equals_prophet():
    d = discrete([0.0, 1.0, 4.0], [0.3, 0.4, 0.3])
    _, value = dp_optimal_gamma_iid(d, 6, 1.0)
    assert value == pytest.approx(expected_max(Instance("iid", (d,), iid_count=6)), abs=1e-12)


def full_history_optimal(dists, gamma: float) -> float:
    """Oracle: optimal index-aware value without any state compression."""

    def recurse(history, remaining):
        m = max((v for _, v in history), default=0.0)
        if not remaining:
            return gamma * m
        total = 0.0
        for i in remaining:
            rest = tuple(j for j in remaining if j != i)
            for x, p in zip(dists[i].support, dists[i].probs):
                stop = max(x, gamma * m)
                total += p * max(stop, recurse(history + ((i, x),), rest))
        return total / len(remaining)

    return recurse((), tuple(range(len(dists))))


def test_dp_random_order_single_item_matches_adversarial():
    d = discrete([0.0, 3.0], [0.5, 0.5])
    _, v_rand = dp_optimal_gamma_random_order(Instance("random", (d,)), 0.5)
    _, v_adv = dp_optimal_gamma_adversarial(Instance("adversarial", (d,)), 0.5)
    assert v_rand == pytest.approx(v_adv, abs=1e-15)


def test_dp_random_order_two_point_masses():
    # Seeing 1 first, waiting wins 2; seeing 2 first, stopping wins 2;
    # enumerating both orders and all decision rules gives exactly 2.
    inst = Instance("random", (point(1.0), point(2.0)))
    _, value = dp_optimal_gamma_random_order(inst, 0.0)
    oracle = full_history_optimal(inst.distributions, 0.0)
    assert value == pytest.approx(oracle, abs=1e-14)
    assert value == pytest.approx(2.0, abs=1e-14)


def test_dp_random_order_hard_instance_matches_full_history_oracle():
    inst = random_order_hard(6, 1.0)
    for gamma in (0.0, 0.5):
        _, value = dp_optimal_gamma_random_order(inst, gamma)
        oracle = full_history_optimal(inst.distributions, gamma)
        assert value == pytest.approx(oracle, abs=1e-12)


def test_dp_random_order_matches_oracle_on_random_instances(rng):
    for _ in range(5):
        inst = random_instance(rng, order="random", max_n=4, max_support=3)
        for gamma in (0.0, 0.6):
            _, value = dp_optimal_gamma_random_order(inst, gamma)
            oracle = full_history_optimal(inst.distributions, gamma)
            assert value == pytest.approx(oracle, abs=1e-12)


def test_dp_random_order_hard_family_ratio_descends_to_ceiling():
    # the optimal ratio on the spikes-plus-sure-value family decreases
    # with the horizon toward the asymptotic upper bound
    from lookback_prophet.instances import random_order_hard_a
    from lookback_prophet.theory import random_order_upper

    for gamma in (0.0, 0.5):
        a = random_order_hard_a(gamma)
        ceiling = random_order_upper(gamma)
        ratios = []
        for n_spikes in (3, 5, 7, 9, 11):
            inst = random_order_hard(n_spikes, a)
            _, v = dp_optimal_gamma_random_order(inst, gamma)
            ratios.append(v / expected_max(inst))
        assert all(b < a_ for a_, b in zip(ratios, ratios[1:]))
        assert all(r >= ceiling - 1e-9 for r in ratios)


def test_monte_carlo_random_order_dp_policy_consistent():
    from lookback_prophet.evaluation import monte_carlo

    inst = random_order_hard(5, 1.0)
    policy, value = dp_optimal_gamma_random_order(inst, 0.5)
    rep = monte_carlo(inst, policy, gamma_decay(0.5), 20000, seed=13)
    assert abs(rep.mean_reward - value) <= 4.0 * rep.ci_half_width


def test_dp_random_order_size_guard():
    inst = Instance("random", (point(1.0),) * 13)
    with pytest.raises(InstanceTooLarge):
        dp_optimal_gamma_random_order(inst, 0.5)


def test_dp_value_tables_monotone_in_running_max():
    inst = adv_hard(0.5, 0.1)
    policy, _ = dp_optimal_gamma_adversarial(inst, 0.5)
    for table in policy._tables[1:]:
        states = sorted(table)
        vals = [table[m] for m in states]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
        assert all(v >= 0.0 for v in vals)


def test_dp_dominates_threshold_policies(rng):
    for _ in range(6):
        inst = random_instance(rng, max_n=4, max_support=3)
        for gamma in (0.0, 0.5, 1.0):
            _, dp_value = dp_optimal_gamma_adversarial(inst, gamma)
            thetas = sorted({v for d in inst.distributions for v in d.support})
            for theta in thetas + [t + 0.005 for t in thetas]:
                v = brute_force_value(
                    inst, ThresholdPolicy(theta), gamma_decay(gamma), order="adversarial"
                )
                assert dp_value >= v - 1e-12


def test_dp_policy_value_reproduced_by_oracle(rng):
    for _ in range(4):
        inst = random_instance(rng, max_n=4, max_support=3)
        policy, value = dp_optimal_gamma_adversarial(inst, 0.5)
        assert brute_force_value(inst, policy, gamma_decay(0.5)) == pytest.approx(value, abs=1e-12)


def test_rational_wrap_noop_when_inner_stop_is_rational():
    policy = rational_wrap(ThresholdPolicy(0.1), gamma_decay(0.5))
    traj = run_policy(policy, [0.0, 0.2], gamma_decay(0.5), np.random.default_rng(0))
    assert traj.stop_step == 2 and traj.reward == 0.2


def test_rational_wrap_suppresses_dominated_stop():
    policy = rational_wrap(ThresholdPolicy(0.1), gamma_decay(0.5))
    # after a rejected 1.0, a 0.2 observation is dominated by 0.5 * 1.0
    class SkipFirst:
        def stop_probability(self, step, value, running_max, n, remaining=None):
            return 0.0 if step == 1 else 1.0

    wrapped = rational_wrap(SkipFirst(), gamma_decay(0.5))
    traj = run_policy(wrapped, [1.0, 0.2], gamma_decay(0.5), np.random.default_rng(0))
    assert traj.stop_step == 3
    assert traj.reward == 0.5 * 1.0


def test_rational_wrap_gamma_zero_suppresses_only_zero_stops():
    wrapped = rational_wrap(ThresholdPolicy(0.0, tie_break_accept_prob=1.0), gamma_decay(0.0))
    traj = run_policy(wrapped, [0.0, 0.0, 2.0], gamma_decay(0.0), np.random.default_rng(0))
    assert traj.stop_step == 3 and traj.reward == 2.0


def test_rational_wrap_requires_limit_decay():
    with pytest.raises(ParameterOutOfRange):
        rational_wrap(ThresholdPolicy(1.0), geometric_decay(0.5))


def test_rational_wrapper_identity_pathwise(rng):
    d_inf = gamma_decay(0.4)
    wrapped = rational_wrap(ThresholdPolicy(0.8), d_inf)
    for r in range(300):
        stream = child_rng(55, r, 0)
        obs = uniform(0, 2).sample_many(6, stream)
        t_inf = run_policy(wrapped, obs, d_inf, stream)
        t_zero = run_policy(wrapped, obs, gamma_decay(0.0), stream)
        assert t_inf.stop_step == t_zero.stop_step
        stalled = 1.0 if t_inf.stop_step == 7 else 0.0
        assert t_inf.reward == t_zero.reward + 0.4 * obs.max() * stalled


def test_policy_json_round_trip():
    th = ThresholdPolicy(0.81, 0.25)
    assert policy_from_dict(policy_to_dict(th)) == th
    never = NeverStopPolicy()
    assert policy_from_dict(policy_to_dict(never)) == never
    wrapped = rational_wrap(th, gamma_decay(0.5))
    assert policy_from_dict(policy_to_dict(wrapped)) == wrapped
    inst = adv_hard(0.5, 0.1)
    dp = policy_from_dict({"kind": "dp", "gamma": 0.5}, inst)
    assert dp.gamma == 0.5 and dp.model == "adversarial"
    with pytest.raises(ParameterOutOfRange):
        policy_from_dict({"kind": "dp", "gamma": 0.5})


def test_bernoulli_decay_realizations_drawn_at_stop():
    seq = bernoulli_decay([], 0.5)
    rewards = [
        run_threshold(ThresholdPolicy(3.5), [3.0, 4.0], seq, child_rng(1, r, 0)).reward
        for r in range(2000)
    ]
    # stop at step 2 (value 4); lag-1 recovery of 3.0 never beats 4.0
    assert set(rewards) == {4.0}
    never = [
        run_threshold(ThresholdPolicy(9.0), [3.0, 4.0], seq, child_rng(2, r, 0)).reward
        for r in range(4000)
    ]
    # end-of-horizon: the lag-1 item (4.0) survives w.p. 1/2, else the
    # lag-2 item (3.0) w.p. 1/2, else nothing
    freq4 = never.count(4.0) / len(never)
    freq3 = never.count(3.0) / len(never)
    freq0 = never.count(0.0) / len(never)
    assert abs(freq4 - 0.5) < 0.03 and abs(freq3 - 0.25) < 0.03 and abs(freq0 - 0.25) < 0.03


def test_threshold_rejects_nan():
    with pytest.raises(ParameterOutOfRange):
        ThresholdPolicy(float("nan"))


def test_reward_above_largest_observation_raises():
    doubling = PiecewiseLinear((0.0, 10.0), (0.0, 20.0))
    with pytest.raises(InvariantViolation):
        run_policy(NeverStopPolicy(), [1.0, 2.0], table_decay([doubling], doubling), None)


def test_reward_invariant_survives_optimize_flag():
    code = """
import sys
from lookback_prophet import NeverStopPolicy, PiecewiseLinear, table_decay
from lookback_prophet.errors import InvariantViolation
from lookback_prophet.policies import run_policy
assert sys.flags.optimize == 1
doubling = PiecewiseLinear((0.0, 10.0), (0.0, 20.0))
try:
    run_policy(NeverStopPolicy(), [1.0, 2.0], table_decay([doubling], doubling), None)
except InvariantViolation:
    print("raised")
"""
    out = run_python(code, "-O")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised"

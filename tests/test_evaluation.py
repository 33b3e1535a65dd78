import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lookback_prophet import (
    Instance,
    NeverStopPolicy,
    ThresholdPolicy,
    bernoulli_decay,
    discrete,
    gamma_decay,
    geometric_decay,
    point,
    subtractive_decay,
    uniform,
)
from lookback_prophet import evaluation
from lookback_prophet.distributions import expected_max, solve_max_quantile
from lookback_prophet.errors import IntegrationFailure, SpaceTooLarge, UnsupportedDecay
from lookback_prophet.evaluation import (
    REPORT_CSV_HEADER,
    brute_force_value,
    child_rng,
    child_seed,
    draw_block,
    empirical_cr_sweep,
    monte_carlo,
    report_csv_rows,
    stream_bits,
    threshold_block_rewards,
)
from lookback_prophet.instances import adv_hard, random_order_hard, random_order_hard_a
from lookback_prophet.policies import dp_optimal_gamma_adversarial, run_policy
from lookback_prophet.theory import adversarial_bound
from tests.conftest import random_discrete, random_instance

HAND_INSTANCE = Instance("adversarial", (point(1.0), discrete([0.0, 2.0], [0.5, 0.5])))


def test_child_seed_is_stateless_and_spread():
    assert child_seed(1, 2, 3) == child_seed(1, 2, 3)
    seeds = {child_seed(0, r, 0) for r in range(1000)}
    assert len(seeds) == 1000


def test_stream_key_is_child_seed_and_cells_follow_splitmix64():
    mask = (1 << 64) - 1

    def splitmix64(z):
        z = (z + 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    bits = stream_bits(17, 0x4F524452, 5, 9, np.arange(6))
    for k, r in enumerate(range(5, 9)):
        key = child_seed(17, r, 0x4F524452)
        assert [int(b) for b in bits[k]] == [
            splitmix64((key + i * 0x9E3779B97F4A7C15) & mask) for i in range(6)
        ]


DETERMINISTIC_DECAYS = (
    gamma_decay(0.4),
    geometric_decay(0.8),
    subtractive_decay([0.5, 1.5], 2.5),
)


@given(
    seed=st.integers(0, 2**32),
    order=st.sampled_from(("adversarial", "random", "iid")),
    decay=st.sampled_from(DETERMINISTIC_DECAYS),
    q=st.sampled_from((0.0, 1.0)),
    pick=st.integers(0, 100),
)
@settings(max_examples=60, deadline=None)
def test_batched_threshold_rewards_equal_run_policy(seed, order, decay, q, pick):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    dists = tuple(random_discrete(rng, 3) for _ in range(1 if order == "iid" else n))
    inst = Instance(order, dists, iid_count=n if order == "iid" else None)
    support = sorted({v for d in dists for v in d.support})
    policy = ThresholdPolicy(support[pick % len(support)], q)
    _, observed, _ = draw_block(inst, seed, 3, 40)
    batched = threshold_block_rewards(policy, decay, observed)
    no_coins = np.random.default_rng(0)  # q in {0, 1}: run_policy draws nothing
    walked = [run_policy(policy, row, decay, no_coins).reward for row in observed]
    assert batched.tolist() == walked


def test_batched_path_is_invariant_to_blocks_and_workers(monkeypatch):
    # random order, tie coins with 0 < q < 1, and 1000 reps in blocks of 7
    inst = random_order_hard(6, random_order_hard_a(0.5))
    sol = solve_max_quantile(inst, 0.5)
    policy = ThresholdPolicy(sol.theta, sol.tie_break_accept_prob)
    assert 0.0 < policy.tie_break_accept_prob < 1.0
    whole = monte_carlo(inst, policy, gamma_decay(0.5), 1000, seed=3)

    def no_pool(*args, **kwargs):
        raise AssertionError("the batched path started a process pool")

    monkeypatch.setattr(evaluation, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(evaluation, "BLOCK_CELLS", 7 * inst.n)
    for workers in (1, 2, 8):
        assert monte_carlo(inst, policy, gamma_decay(0.5), 1000, seed=3, workers=workers) == whole


def test_monte_carlo_falls_back_to_sampled_opt(monkeypatch):
    def fail(inst):
        raise IntegrationFailure("forced")

    inst = Instance("adversarial", (uniform(0, 1), point(0.5)))
    exact = monte_carlo(inst, ThresholdPolicy(0.8), gamma_decay(0.5), 2000, seed=8)
    monkeypatch.setattr(evaluation, "expected_max", fail)
    rep = monte_carlo(inst, ThresholdPolicy(0.8), gamma_decay(0.5), 2000, seed=8)
    values, _, _ = draw_block(inst, 8, 0, 2000)
    assert not rep.opt_exact and exact.opt_exact
    assert rep.expected_opt == math.fsum(values.max(axis=1)) / 2000
    assert rep.mean_reward == exact.mean_reward


def test_monte_carlo_point_instance_mean_exact():
    inst = Instance("adversarial", (point(5.0),))
    rep = monte_carlo(inst, ThresholdPolicy(1.0), gamma_decay(0.3), 200, seed=1)
    assert rep.mean_reward == 5.0 and rep.ratio == 1.0


def test_monte_carlo_single_rep_deterministic():
    inst = adv_hard(0.5, 0.1)
    a = monte_carlo(inst, ThresholdPolicy(1.0), gamma_decay(0.5), 1, seed=9)
    b = monte_carlo(inst, ThresholdPolicy(1.0), gamma_decay(0.5), 1, seed=9)
    assert a == b and a.ci_half_width == 0.0 and not a.ci_reliable


def test_monte_carlo_worker_count_invariance():
    inst = adv_hard(0.5, 0.1)
    policy, _ = dp_optimal_gamma_adversarial(inst, 0.5)
    reports = [
        monte_carlo(inst, policy, gamma_decay(0.5), 3000, seed=4, workers=w) for w in (1, 2, 8)
    ]
    assert reports[0] == reports[1] == reports[2]


def test_monte_carlo_near_tight_threshold_ratio():
    # the spike makes the estimate heavy-tailed: its 95% half-width is near
    # 0.017 in ratio units even at 1e6 reps, so the band around the tight
    # value is counted in half-widths, plus the instance's 1e-3 distance
    # from the eps -> 0 limit
    gamma = 0.5
    inst = adv_hard(gamma, 1e-3)
    sol = solve_max_quantile(inst, adversarial_bound(gamma))
    policy = ThresholdPolicy(sol.theta, sol.tie_break_accept_prob)
    rep = monte_carlo(inst, policy, gamma_decay(gamma), 10**6, seed=0xC0FFEE)
    ci_ratio = rep.ci_half_width / rep.expected_opt
    assert abs(rep.ratio - 1.0 / (2.0 - gamma)) <= 4.0 * ci_ratio + 1e-3
    assert rep.opt_exact
    exact = brute_force_value(inst, policy, gamma_decay(gamma))
    assert abs(rep.mean_reward - exact) <= 4.0 * rep.ci_half_width
    assert exact / rep.expected_opt == pytest.approx(1.0 / (2.0 - gamma), abs=1e-3)


def test_monte_carlo_report_invariants(rng):
    inst = random_instance(rng, order="random", max_n=4)
    rep = monte_carlo(inst, ThresholdPolicy(2.0), gamma_decay(0.4), 5000, seed=11)
    assert rep.ratio == rep.mean_reward / rep.expected_opt
    assert rep.ci_half_width >= 0.0
    assert 0.0 <= rep.ratio <= 1.0 + 3.0 * rep.ci_half_width / rep.expected_opt
    assert rep.order == "random" and rep.decay == "gamma(0.4)"


def test_brute_force_hand_enumeration():
    # X2 = 2 (p 1/2): stop at 2, reward 2; X2 = 0: never stop, recover
    # 0.5 * 1 -> expected 0.5*2 + 0.5*0.5 = 1.25
    value = brute_force_value(HAND_INSTANCE, ThresholdPolicy(1.5), gamma_decay(0.5))
    assert value == pytest.approx(1.25, abs=1e-15)


def test_brute_force_never_stop_is_decayed_prophet(rng):
    for _ in range(4):
        inst = random_instance(rng, max_n=4, max_support=3)
        for gamma in (0.0, 0.5, 1.0):
            v = brute_force_value(inst, NeverStopPolicy(), gamma_decay(gamma))
            assert v == pytest.approx(gamma * expected_max(inst), abs=1e-12)


def test_brute_force_matches_dp_policy_value(rng):
    inst = random_instance(rng, max_n=5, max_support=3)
    policy, value = dp_optimal_gamma_adversarial(inst, 0.25)
    assert brute_force_value(inst, policy, gamma_decay(0.25)) == pytest.approx(value, abs=1e-12)


def test_brute_force_fast_path_matches_generic():
    class PlainThreshold:
        def __init__(self, theta, q=0.0):
            self.theta, self.q = theta, q

        def stop_probability(self, step, value, running_max, n, remaining=None):
            if value > self.theta:
                return 1.0
            return self.q if value == self.theta else 0.0

    rng = np.random.default_rng(3)
    from tests.conftest import random_discrete

    for order in ("adversarial", "random"):
        dists = tuple(random_discrete(rng, 3) for _ in range(4))
        inst = Instance(order, dists)
        theta = float(dists[0].support[-1])
        for q in (0.0, 0.37):
            fast = brute_force_value(inst, ThresholdPolicy(theta, q), gamma_decay(0.6))
            slow = brute_force_value(inst, PlainThreshold(theta, q), gamma_decay(0.6))
            assert fast == pytest.approx(slow, abs=1e-12)


def test_brute_force_tie_break_integration():
    inst = Instance("adversarial", (point(1.0),))
    policy = ThresholdPolicy(1.0, tie_break_accept_prob=0.25)
    # stop w.p. 1/4 for reward 1; otherwise recover gamma * 1
    value = brute_force_value(inst, policy, gamma_decay(0.4))
    assert value == pytest.approx(0.25 * 1.0 + 0.75 * 0.4, abs=1e-15)


def test_brute_force_space_guard():
    big = Instance("iid", (discrete([0.0, 1.0, 2.0], [0.3, 0.3, 0.4]),), iid_count=20)
    with pytest.raises(SpaceTooLarge) as err:
        brute_force_value(big, ThresholdPolicy(1.5), gamma_decay(0.0))
    assert err.value.size == 3**20
    perm_heavy = Instance("random", (discrete([0.0, 1.0], [0.5, 0.5]),) * 9)
    with pytest.raises(SpaceTooLarge):
        brute_force_value(perm_heavy, ThresholdPolicy(0.5), gamma_decay(0.0))


def test_brute_force_bernoulli_constant_matches_monte_carlo():
    seq = bernoulli_decay([], 0.5)
    inst = HAND_INSTANCE
    exact = brute_force_value(inst, ThresholdPolicy(2.5), seq)
    # never stops: recovery picks 2 w.p. 1/2 (survives), else 1 w.p. 1/4
    hand = 0.5 * (0.5 * 2.0 + 0.25 * 1.0) + 0.5 * (0.5 * 1.0)
    assert exact == pytest.approx(hand, abs=1e-15)
    rep = monte_carlo(inst, ThresholdPolicy(2.5), seq, 10**5, seed=6)
    assert abs(rep.mean_reward - exact) <= 4.0 * rep.ci_half_width


def test_brute_force_bernoulli_nonconstant_refused():
    seq = bernoulli_decay([0.9, 0.5], 0.25)
    with pytest.raises(UnsupportedDecay):
        brute_force_value(HAND_INSTANCE, ThresholdPolicy(0.5), seq)


def test_monte_carlo_consistent_with_oracle_across_seeds(rng):
    inst = random_instance(rng, max_n=3, max_support=3)
    policy = ThresholdPolicy(float(np.median([v for d in inst.distributions for v in d.support])))
    exact = brute_force_value(inst, policy, gamma_decay(0.5))
    hits = 0
    for seed in range(100):
        rep = monte_carlo(inst, policy, gamma_decay(0.5), 2500, seed=seed)
        if rep.ci_half_width == 0.0:
            hits += rep.mean_reward == pytest.approx(exact, abs=1e-12)
        else:
            hits += abs(rep.mean_reward - exact) <= 4.0 * rep.ci_half_width
    assert hits >= 99


def test_pathwise_reward_never_exceeds_max(rng):
    inst = random_instance(rng, order="random", max_n=5)
    for r in range(200):
        stream = child_rng(31, r, 0)
        obs = np.array([d.sample(stream) for d in inst.distributions])
        traj = run_policy(ThresholdPolicy(1.0), obs, geometric_decay(0.7), stream)
        assert traj.reward <= obs.max() + 1e-15


def test_common_random_numbers_stalled_identity_statistical():
    # means under gammas on shared seeds differ exactly by
    # gamma * E[max * 1(never stopped)] (continuous instance: no ties)
    inst = Instance("adversarial", (uniform(0, 1), uniform(0, 2), uniform(0.5, 1.5)))
    theta = 1.2
    reps = 4000
    means = {}
    for gamma in (0.0, 0.6):
        rep = monte_carlo(inst, ThresholdPolicy(theta), gamma_decay(gamma), reps, seed=17)
        means[gamma] = rep.mean_reward
    values, _, _ = draw_block(inst, 17, 0, reps)  # the rows both runs drew
    top = values.max(axis=1)
    expected_gap = 0.6 * math.fsum(np.where(top < theta, top, 0.0)) / reps
    assert means[0.6] - means[0.0] == pytest.approx(expected_gap, abs=1e-12)


def test_empirical_cr_sweep_rows_and_csv():
    def tight_threshold(g, inst):
        sol = solve_max_quantile(inst, adversarial_bound(g))
        return ThresholdPolicy(sol.theta, sol.tie_break_accept_prob)

    rows = empirical_cr_sweep(
        instance_for_gamma=lambda g: adv_hard(g, 1e-3),
        policy_for_gamma=tight_threshold,
        decay_for_gamma=gamma_decay,
        gamma_grid=[0.0, 0.5],
        reps=20000,
        seed=23,
    )
    assert len(rows) == 2
    for row in rows:
        assert row["theory_lower"] == row["theory_upper"] == adversarial_bound(row["gamma"])
        # the near-tight instance pins the ratio to the theory value both ways
        ci_ratio = 3 * row["report"].ci_half_width / row["report"].expected_opt
        assert row["theory_lower"] - ci_ratio - 0.01 <= row["report"].ratio
        assert row["report"].ratio <= row["theory_upper"] + ci_ratio + 0.01
    text = report_csv_rows(rows)
    lines = text.strip().split("\n")
    assert lines[0] == REPORT_CSV_HEADER
    assert len(lines) == 3 and len(lines[1].split(",")) == 9


def test_sweep_random_order_classical_threshold(rng):
    instances = [random_instance(rng, order="random", max_n=5) for _ in range(3)]
    bound = 1.0 - 1.0 / math.e
    for inst in instances:
        if expected_max(inst) == 0.0:
            continue
        rows = empirical_cr_sweep(
            instance_for_gamma=lambda g, inst=inst: inst,
            policy_for_gamma=lambda g, i: ThresholdPolicy(
                solve_max_quantile(i, 1.0 / math.e).theta,
                solve_max_quantile(i, 1.0 / math.e).tie_break_accept_prob,
            ),
            decay_for_gamma=gamma_decay,
            gamma_grid=[0.0],
            reps=4000,
            seed=37,
        )
        row = rows[0]
        assert row["theory_lower"] == pytest.approx(bound, abs=1e-9)
        ci_ratio = 3 * row["report"].ci_half_width / row["report"].expected_opt
        assert row["report"].ratio >= bound - ci_ratio


def test_sweep_full_recovery_ratio_one():
    rows = empirical_cr_sweep(
        instance_for_gamma=lambda g: adv_hard(0.5, 0.01),
        policy_for_gamma=lambda g, inst: NeverStopPolicy(),
        decay_for_gamma=lambda g: gamma_decay(1.0),
        gamma_grid=[1.0],
        reps=3000,
        seed=29,
    )
    rep = rows[0]["report"]
    assert rep.ratio == pytest.approx(1.0, abs=3 * rep.ci_half_width / rep.expected_opt + 1e-9)

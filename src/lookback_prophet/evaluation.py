"""Exact brute-force oracles and seeded Monte Carlo evaluation.

Reproducibility contract: every random number of a Monte Carlo run is a
stateless counter-based hash of (seed, replication r, stream tag, cell i),
so replication r depends on (seed, r) alone and a report is bit-identical
for identical (seed, reps) whatever the block size or worker count.  The
stream key is ``child_seed(seed, r, tag)`` and cell i is ``splitmix64(key
+ i * 0x9E3779B97F4A7C15) >> 11`` times 2**-53, computed for a block of
replications x cells at once in uint64 arithmetic.  Per replication, the
values tag gives the n value uniforms in distribution-index order (values
by quantile), the order tag the n keys whose stable argsort is the arrival
order (random order only), and the coin tag one tie-break coin per arrival
position for threshold policies.  Other policies draw their coins and
bernoulli realizations, as they need them, from ``child_rng(seed, r, coin
tag)``, created only if one is needed.

A threshold policy under gamma, geometric or subtractive decay finishes a
block in one array pass, in-process whatever the worker count; any other
policy walks ``run_policy`` per replication over the same drawn rows,
across a process pool when workers > 1.  Aggregation reduces in
replication-index order with exact compensated summation.

``brute_force_value`` integrates the full outcome space (times all
permutations in the random-order model) and handles tie-break coins
analytically, so it is exact for deterministic decay; bernoulli decay
with a constant availability probability is integrated in closed form
over the recovery coins.  It is the oracle every sampled or
dynamic-programming value is checked against.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import permutations, product

import numpy as np

from . import decay as decay_mod
from . import theory
from .decay import DecaySequence
from .distributions import Instance, expected_max
from .errors import (
    IntegrationFailure,
    ParameterOutOfRange,
    SpaceTooLarge,
    UnsupportedDecay,
    UnsupportedDistribution,
)
from .policies import ThresholdPolicy, check_reward, run_policy

ENUMERATION_BUDGET = 10**7
RANDOM_ORDER_ENUM_MAX_N = 8
Z_95 = 1.959963984540054
CI_RELIABLE_MIN_REPS = 1000
# Replications x cells drawn at once; bounds the memory of one block.
BLOCK_CELLS = 1 << 18

_TAG_VALUES = 0x56414C55
_TAG_ORDER = 0x4F524452
_TAG_AUX = 0x434F494E
# Decay kinds whose threshold rewards come from one array pass per block
_BATCHED_DECAYS = ("gamma", "geometric", "subtractive")

REPORT_CSV_HEADER = (
    "gamma,mean_reward,expected_opt,ratio,ci_half_width,reps,seed,theory_lower,theory_upper"
)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(z):
    """splitmix64 of a Python int, or elementwise of a uint64 array."""
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def child_seed(seed: int, replication: int, tag: int) -> int:
    """Stateless 64-bit mix of (seed, replication index, stream tag)."""
    z = _splitmix64(seed & _MASK64)
    z = _splitmix64(z ^ replication)
    return _splitmix64(z ^ tag)


def child_rng(seed: int, replication: int, tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(child_seed(seed, replication, tag)))


def stream_bits(seed: int, tag: int, start: int, stop: int, cells) -> np.ndarray:
    """Cells ``cells`` of stream ``tag`` for replications start..stop-1.

    Entry [k, j] is splitmix64(child_seed(seed, start + k, tag) +
    cells[j] * golden), the cells[j]-th output of a splitmix64 generator
    seeded with the stream key.
    """
    reps = np.arange(start, stop, dtype=np.uint64)
    keys = _splitmix64(_splitmix64(_splitmix64(seed & _MASK64) ^ reps) ^ tag)
    return _splitmix64(keys[:, None] + np.asarray(cells, dtype=np.uint64) * np.uint64(_GOLDEN))


def stream_uniforms(seed: int, tag: int, start: int, stop: int, cells) -> np.ndarray:
    """``stream_bits`` as doubles in [0, 1) with 53 random bits."""
    return (stream_bits(seed, tag, start, stop, cells) >> 11) * 2.0**-53


def draw_block(inst: Instance, seed: int, start: int, stop: int):
    """The rows of replications start..stop-1.

    Returns (values, observed, order): the values in distribution-index
    order, the same values in arrival order, and the arrival order (the
    distribution index seen at each step; None unless the order is random).
    Point masses use no uniforms.
    """
    n = inst.n
    values = np.empty((stop - start, n))
    columns: dict = {}
    for i, d in enumerate(inst.iter_dists()):
        columns.setdefault(d, []).append(i)
    for d, cols in columns.items():
        u = 0.0 if d.kind == "point" else stream_uniforms(seed, _TAG_VALUES, start, stop, cols)
        values[:, cols] = d.quantile_many(u)
    if inst.order != "random":
        return values, values, None
    keys = stream_bits(seed, _TAG_ORDER, start, stop, np.arange(n))
    order = np.argsort(keys, axis=1, kind="stable")
    return values, np.take_along_axis(values, order, axis=1), order


class _LazyRng:
    """Creates its generator only if a coin is actually needed."""

    def __init__(self, seed, rep, tag):
        self.key = (seed, rep, tag)

    @cached_property
    def gen(self) -> np.random.Generator:
        return child_rng(*self.key)

    def random(self, *args):
        return self.gen.random(*args)


@dataclass(frozen=True)
class SimulationReport:
    mean_reward: float
    expected_opt: float
    ratio: float
    ci_half_width: float
    replications: int
    seed: int
    order: str
    decay: str
    opt_exact: bool
    ci_reliable: bool


def _batched(policy, decay: DecaySequence) -> bool:
    return isinstance(policy, ThresholdPolicy) and decay.kind in _BATCHED_DECAYS


def threshold_block_rewards(policy: ThresholdPolicy, decay: DecaySequence, observed, coins=None):
    """Rewards of a threshold policy on the rows of ``observed``, in one pass.

    Row k stops at the first step s whose value is above theta, or equal to
    it with coins()[k, s] < q (``coins`` is called only if 0 < q < 1); s = n
    when nothing is accepted.  Its reward is the row max of D_(s-i)(x_i)
    over i <= s, lag 0 being the accepted value itself.
    """
    reps, n = observed.shape
    theta, q = policy.theta, policy.tie_break_accept_prob
    accept = observed > theta
    if q > 0.0:
        tie = observed == theta
        if q < 1.0 and tie.any():
            tie &= coins() < q
        accept |= tie
    stop = np.where(accept.any(axis=1), accept.argmax(axis=1), n)
    lag = np.maximum(stop[:, None] - np.arange(n), -1)  # -1: after the stop, recovers 0
    lags = range(1, n + 1)
    if decay.kind == "subtractive":
        cost = np.array([0.0, *(decay.cost_at(j) for j in lags), np.inf])
        rewards = np.maximum(0.0, observed - cost[lag]).max(axis=1)
    else:
        factor = np.array([1.0, *(decay_mod.evaluate(decay, j, 1.0) for j in lags), 0.0])
        rewards = (observed * factor[lag]).max(axis=1)
    tops = observed.max(axis=1)
    worst = int(np.argmax(rewards - tops))
    check_reward(rewards[worst], tops[worst])
    return rewards


def _simulate_chunk(args):
    """(rewards, maxima) of replications start..stop-1, block by block."""
    inst, policy, decay, seed, start, stop = args
    step = max(1, BLOCK_CELLS // inst.n)
    rewards, maxima = [], []
    for lo in range(start, stop, step):
        hi = min(lo + step, stop)
        values, observed, order = draw_block(inst, seed, lo, hi)
        if _batched(policy, decay):
            coins = partial(stream_uniforms, seed, _TAG_AUX, lo, hi, np.arange(inst.n))
            rewards.append(threshold_block_rewards(policy, decay, observed, coins))
        else:
            rewards.append(np.array([
                run_policy(policy, observed[k], decay, _LazyRng(seed, lo + k, _TAG_AUX),
                           dist_indices=None if order is None else order[k]).reward
                for k in range(hi - lo)
            ]))
        maxima.append(values.max(axis=1))
    return np.concatenate(rewards), np.concatenate(maxima)


def monte_carlo(
    inst: Instance,
    policy,
    decay: DecaySequence,
    reps: int,
    seed: int,
    workers: int = 1,
) -> SimulationReport:
    """Estimate the expected reward of a policy by seeded replication.

    The denominator E[OPT] comes from expected_max when that converges,
    otherwise from the same sampled paths.  Threshold policies under
    deterministic non-table decay run in-process whatever ``workers`` is.
    """
    if reps < 1:
        raise ParameterOutOfRange("need reps >= 1")
    if workers < 1:
        raise ParameterOutOfRange("need workers >= 1")

    chunks = _chunk_ranges(reps, 1 if _batched(policy, decay) else workers)
    args = [(inst, policy, decay, seed, start, stop) for start, stop in chunks]
    if len(chunks) == 1:
        parts = [_simulate_chunk(*args)]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_simulate_chunk, args))
    rewards = np.concatenate([p[0] for p in parts])
    maxima = np.concatenate([p[1] for p in parts])

    mean = math.fsum(rewards) / reps
    if reps > 1:
        dev = rewards - mean
        ci = Z_95 * math.sqrt(math.fsum(dev * dev) / (reps - 1) / reps)
    else:
        ci = 0.0

    try:
        opt = expected_max(inst)
        opt_exact = True
    except IntegrationFailure:
        opt = math.fsum(maxima) / reps
        opt_exact = False

    return SimulationReport(
        mean_reward=mean,
        expected_opt=opt,
        ratio=mean / opt,
        ci_half_width=ci,
        replications=reps,
        seed=seed,
        order=inst.order,
        decay=decay.describe(),
        opt_exact=opt_exact,
        ci_reliable=reps >= CI_RELIABLE_MIN_REPS,
    )


def _chunk_ranges(reps: int, workers: int) -> list[tuple[int, int]]:
    k = min(workers, reps)
    bounds = [reps * i // k for i in range(k + 1)]
    return list(zip(bounds, bounds[1:]))


def _constant_bernoulli_p(decay: DecaySequence) -> float:
    if any(p != decay.terminal for p in decay.prefix):
        raise UnsupportedDecay(
            "exact evaluation supports bernoulli decay only with a constant "
            "availability probability"
        )
    return decay.terminal


def _expected_recovery_max(floor: float, past: list[float], p: float) -> float:
    """E[max(floor, max_k xi_k v_k)] for independent survival coins."""
    total = 0.0
    none_yet = 1.0
    for v in sorted(past, reverse=True):
        if v <= floor:
            break
        total += none_yet * p * v
        none_yet *= 1.0 - p
    return total + none_yet * floor


def _exact_reward(observed, tau: int, decay: DecaySequence, bern_p: float | None) -> float:
    """Reward of stopping at step tau (n + 1: never), recovery coins integrated."""
    floor = observed[tau - 1] if tau <= len(observed) else 0.0
    if bern_p is not None:
        return _expected_recovery_max(floor, list(observed[: tau - 1]), bern_p)
    recalls = (decay_mod.evaluate(decay, lag, observed[tau - 1 - lag]) for lag in range(1, tau))
    return max([floor, *recalls])


def _enumeration_space(dists) -> int:
    space = 1
    for d in dists:
        space *= len(d.support)
    return space


def brute_force_value(inst: Instance, policy, decay: DecaySequence, order: str | None = None) -> float:
    """Exact expected reward by total enumeration.

    Sums probability x pathwise reward over the product outcome space
    (and over all n! arrival orders in the random-order model), with
    tie-break coins integrated analytically through branch weights.
    """
    order = order or inst.order
    dists = list(inst.iter_dists())
    n = len(dists)
    for d in dists:
        if d.kind not in ("point", "discrete"):
            raise UnsupportedDistribution(
                f"total enumeration needs finite support, got kind {d.kind!r}"
            )
    space = _enumeration_space(dists)
    if space > ENUMERATION_BUDGET:
        raise SpaceTooLarge(space, ENUMERATION_BUDGET)
    if order == "random" and n > RANDOM_ORDER_ENUM_MAX_N:
        raise SpaceTooLarge(space * math.factorial(n), ENUMERATION_BUDGET)

    bern_p = None
    if decay.kind == "bernoulli":
        bern_p = _constant_bernoulli_p(decay)

    # vectorized route for the common threshold + constant-fraction case;
    # bounded so the outcome matrix stays small, larger spaces stream below
    if isinstance(policy, ThresholdPolicy) and decay.kind == "gamma" and space <= 10**6:
        return _threshold_gamma_exact(inst, policy, decay.param, order)

    orders = list(permutations(range(n))) if order == "random" else [tuple(range(n))]
    weight_per_order = 1.0 / len(orders)
    full = frozenset(range(n))

    def contributions():
        for outcome in product(*[list(zip(d.support, d.probs)) for d in dists]):
            values = [v for v, _ in outcome]
            prob = math.prod(p for _, p in outcome)
            for perm in orders:
                observed = [values[i] for i in perm]
                acc = 0.0
                alive = 1.0
                running_max = 0.0
                remaining = full
                for t in range(1, n + 1):
                    x = observed[t - 1]
                    rem_after = remaining - {perm[t - 1]}
                    a = policy.stop_probability(t, x, running_max, n, rem_after)
                    if a > 0.0:
                        acc += alive * a * _exact_reward(observed, t, decay, bern_p)
                        alive *= 1.0 - a
                        if alive == 0.0:
                            break
                    running_max = max(running_max, x)
                    remaining = rem_after
                if alive > 0.0:
                    acc += alive * _exact_reward(observed, n + 1, decay, bern_p)
                yield prob * weight_per_order * acc

    return math.fsum(contributions())


def _threshold_gamma_exact(inst: Instance, policy: ThresholdPolicy, gamma: float, order: str) -> float:
    """Vectorized enumeration for threshold policies under gamma decay."""
    dists = list(inst.iter_dists())
    n = len(dists)
    theta, q = policy.theta, policy.tie_break_accept_prob
    outcomes = list(product(*[list(zip(d.support, d.probs)) for d in dists]))
    values = np.array([[v for v, _ in outcome] for outcome in outcomes])
    probs = np.array([math.prod(p for _, p in outcome) for outcome in outcomes])

    orders = list(permutations(range(n))) if order == "random" else [tuple(range(n))]
    totals = []
    for perm in orders:
        obs = values[:, perm]
        accept = (obs > theta).astype(float)
        if q > 0.0:
            accept += q * (obs == theta)
        alive = np.cumprod(1.0 - accept, axis=1)
        alive_before = np.hstack([np.ones((len(obs), 1)), alive[:, :-1]])
        max_excl = np.hstack(
            [np.zeros((len(obs), 1)), np.maximum.accumulate(obs, axis=1)[:, :-1]]
        )
        stop_reward = np.maximum(obs, gamma * max_excl)
        path_value = (alive_before * accept * stop_reward).sum(axis=1)
        path_value += alive[:, -1] * gamma * obs.max(axis=1)
        totals.append(float(probs @ path_value))
    return math.fsum(totals) / len(totals)


def empirical_cr_sweep(
    instance_for_gamma,
    policy_for_gamma,
    decay_for_gamma,
    gamma_grid,
    reps: int,
    seed: int,
    workers: int = 1,
) -> list[dict]:
    """One seeded report per gamma with the matching theory bounds.

    ``instance_for_gamma`` maps gamma to an Instance; ``policy_for_gamma``
    maps (gamma, instance) to a policy; ``decay_for_gamma`` maps gamma to
    a DecaySequence (a fixed sequence is also accepted).
    """
    rows = []
    for g in gamma_grid:
        inst = instance_for_gamma(g)
        policy = policy_for_gamma(g, inst)
        decay = decay_for_gamma(g) if callable(decay_for_gamma) else decay_for_gamma
        report = monte_carlo(inst, policy, decay, reps, seed, workers)
        lower, upper = theory_bounds_for_order(inst.order, g)
        rows.append(
            {"gamma": g, "report": report, "theory_lower": lower, "theory_upper": upper}
        )
    return rows


def theory_bounds_for_order(order: str, gamma: float) -> tuple[float, float]:
    if order == "adversarial":
        tight = theory.adversarial_bound(gamma)
        return tight, tight
    if order == "random":
        return theory.random_order_lower(gamma), theory.random_order_upper(gamma)
    return theory.random_order_lower(gamma), theory.iid_upper(gamma)


def report_csv_rows(rows) -> str:
    """CSV for sweep rows per the report schema, 15 significant digits."""
    lines = [REPORT_CSV_HEADER]
    for row in rows:
        rep: SimulationReport = row["report"]
        lines.append(
            ",".join(
                f"{v:.15g}" if isinstance(v, float) else str(v)
                for v in (
                    row["gamma"],
                    rep.mean_reward,
                    rep.expected_opt,
                    rep.ratio,
                    rep.ci_half_width,
                    rep.replications,
                    rep.seed,
                    row["theory_lower"],
                    row["theory_upper"],
                )
            )
        )
    return "\n".join(lines) + "\n"

"""Stopping policies and their reward semantics under a decay sequence.

A policy is anything with a ``stop_probability(step, value,
running_max, n, remaining)`` method returning the probability of
accepting the current observation (0 or 1 for deterministic rules, the
tie-break coin weight for thresholds at an atom).

Reward convention: stopping at step tau yields
``max over lags i in 0..tau-1 of D_i(value observed at step tau-i)``
with D_0 the identity; never stopping (tau = n+1) yields the best
decayed recovery ``max over positions k of D_{n-k+1}(value at k)``.
Bernoulli decay realizations are sampled only at stopping time, one
independent coin per rejected item, in increasing lag order.

The exact dynamic programs for constant-fraction (gamma) decay use the
running maximum as state; the random-order variant adds the set of
indices not yet observed and is capped at n = 12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from . import decay as decay_mod
from .decay import DecaySequence
from .distributions import Distribution, Instance
from .errors import (
    InstanceTooLarge,
    InvariantViolation,
    ParameterOutOfRange,
    UnsupportedDistribution,
)

RANDOM_ORDER_DP_MAX_N = 12


@runtime_checkable
class StoppingPolicy(Protocol):
    def stop_probability(
        self,
        step: int,
        value: float,
        running_max: float,
        n: int,
        remaining: frozenset[int] | None = None,
    ) -> float: ...


@dataclass(frozen=True)
class ThresholdPolicy:
    """Accept the first observation above theta.

    Observations exactly equal to theta are accepted with probability
    ``tie_break_accept_prob``, one independent coin per observation.
    """

    theta: float
    tie_break_accept_prob: float = 0.0

    def __post_init__(self):
        if not self.theta >= 0.0:
            raise ParameterOutOfRange(f"threshold must be >= 0, got {self.theta}")
        if not 0.0 <= self.tie_break_accept_prob <= 1.0:
            raise ParameterOutOfRange("tie-break probability must lie in [0,1]")

    def stop_probability(self, step, value, running_max, n, remaining=None) -> float:
        if value > self.theta:
            return 1.0
        if value == self.theta:
            return self.tie_break_accept_prob
        return 0.0


@dataclass(frozen=True)
class NeverStopPolicy:
    """Rejects everything; the reward is the end-of-horizon recovery."""

    def stop_probability(self, step, value, running_max, n, remaining=None) -> float:
        return 0.0


@dataclass(frozen=True)
class Trajectory:
    values: tuple[float, ...]
    stop_step: int  # tau in 1..n+1; n+1 means never stopped
    reward: float


def check_reward(reward: float, top: float) -> float:
    """``reward``, checked not to exceed the largest observation ``top``."""
    if reward > top + 1e-12:
        raise InvariantViolation(
            f"reward {reward!r} exceeds the largest observation {top!r}: "
            "a decay map lies above the identity"
        )
    return reward


def _path_reward(values, tau: int, decay: DecaySequence, rng) -> float:
    """Stopping at tau <= n: the accepted value (lag 0) or a decayed recall;
    tau = n + 1 (never stopped): the best decayed recall, at least 0."""
    best = values[tau - 1] if tau <= len(values) else 0.0
    for lag in range(1, tau):
        best = max(best, decay_mod.sample_realization(decay, lag, values[tau - 1 - lag], rng))
    return check_reward(best, max(values))


def run_policy(
    policy: StoppingPolicy,
    observations,
    decay: DecaySequence,
    rng: np.random.Generator,
    dist_indices=None,
) -> Trajectory:
    """Run any policy on one observation sequence.

    ``dist_indices`` maps step to the index of the distribution that
    arrived there (needed by the random-order DP policy; identity when
    omitted).  rng is consumed only for stop coins with fractional
    probability and for bernoulli decay realizations at stopping time.
    """
    values = tuple(float(x) for x in observations)
    n = len(values)
    if any(x < 0.0 for x in values):
        raise ParameterOutOfRange("observations must be non-negative")
    remaining = frozenset(dist_indices) if dist_indices is not None else frozenset(range(n))
    running_max = 0.0
    tau = n + 1
    for t in range(1, n + 1):
        x = values[t - 1]
        idx = dist_indices[t - 1] if dist_indices is not None else t - 1
        rem_after = remaining - {idx}
        p_stop = policy.stop_probability(t, x, running_max, n, rem_after)
        if p_stop >= 1.0 or (p_stop > 0.0 and rng.random() < p_stop):
            tau = t
            break
        running_max = max(running_max, x)
        remaining = rem_after
    return Trajectory(values, tau, _path_reward(values, tau, decay, rng))


def run_threshold(
    policy: ThresholdPolicy, observations, decay: DecaySequence, rng: np.random.Generator
) -> Trajectory:
    """Run a single-threshold policy on one observation sequence."""
    return run_policy(policy, observations, decay, rng)


def _require_finite_support(dists) -> None:
    for d in dists:
        if d.kind not in ("point", "discrete"):
            raise UnsupportedDistribution(
                f"exact dynamic programming needs finite support, got kind {d.kind!r}"
            )


def _check_gamma(gamma: float) -> None:
    if not 0.0 <= gamma <= 1.0:
        raise ParameterOutOfRange(f"gamma must lie in [0,1], got {gamma}")


@dataclass(frozen=True)
class DPPolicyGamma:
    """Optimal stopping rule for constant-fraction recovery gamma * x.

    Stops whenever the immediate reward max(value, gamma * running_max)
    is at least the continuation value; ties resolve toward stopping.
    Continuation tables are keyed by the exact achievable running-max
    values, so lookups during simulation hit exactly.
    """

    gamma: float
    model: str  # "adversarial" | "iid" | "random"
    n: int
    _tables: tuple | dict

    def continuation(self, step: int, new_max: float, remaining=None) -> float:
        if self.model == "adversarial":
            return self._tables[step][new_max]  # tables[t] holds V_{t+1}
        if self.model == "iid":
            return self._tables[self.n - step][new_max]
        return self._tables[(remaining, new_max)]

    def stop_probability(self, step, value, running_max, n, remaining=None) -> float:
        stop_val = max(value, self.gamma * running_max)
        cont = self.continuation(step, max(running_max, value), remaining)
        return 1.0 if stop_val >= cont else 0.0


def _running_max_states(dists) -> list[float]:
    states = {0.0}
    for d in dists:
        states.update(d.support)
    return sorted(states)


def dp_optimal_gamma_adversarial(inst: Instance, gamma: float) -> tuple[DPPolicyGamma, float]:
    """Exact optimal expected reward for a fixed observation order."""
    if inst.order != "adversarial":
        raise ParameterOutOfRange("instance must use adversarial order")
    _check_gamma(gamma)
    dists = inst.distributions
    _require_finite_support(dists)
    n = len(dists)
    states = _running_max_states(dists)

    v = {m: gamma * m for m in states}  # V at horizon end
    cont: list[dict[float, float] | None] = [None] * (n + 1)  # cont[t] = V after step t
    for i in range(n, 0, -1):
        cont[i] = v
        d = dists[i - 1]
        v = {
            m: math.fsum(
                p * max(max(x, gamma * m), cont[i][max(m, x)])
                for x, p in zip(d.support, d.probs)
            )
            for m in states
        }
    policy = DPPolicyGamma(gamma=gamma, model="adversarial", n=n, _tables=tuple(cont))
    return policy, v[0.0]


def dp_optimal_gamma_iid(d: Distribution, n: int, gamma: float) -> tuple[DPPolicyGamma, float]:
    """Exact optimal expected reward for n IID draws from d."""
    if n < 1:
        raise ParameterOutOfRange("need n >= 1")
    _check_gamma(gamma)
    _require_finite_support([d])
    states = _running_max_states([d])

    tables = [{m: gamma * m for m in states}]
    for _ in range(n):
        prev = tables[-1]
        here = {
            m: math.fsum(
                p * max(max(x, gamma * m), prev[max(m, x)])
                for x, p in zip(d.support, d.probs)
            )
            for m in states
        }
        tables.append(here)
    policy = DPPolicyGamma(gamma=gamma, model="iid", n=n, _tables=tuple(tables))
    return policy, tables[n][0.0]


def dp_optimal_gamma_random_order(inst: Instance, gamma: float) -> tuple[DPPolicyGamma, float]:
    """Exact optimal adaptive policy when the arrival order is uniform.

    State is (set of indices not yet observed, running max); the
    transition averages over which remaining index arrives next.
    """
    if inst.order != "random":
        raise ParameterOutOfRange("instance must use random order")
    _check_gamma(gamma)
    dists = inst.distributions
    _require_finite_support(dists)
    n = len(dists)
    if n > RANDOM_ORDER_DP_MAX_N:
        raise InstanceTooLarge(
            f"random-order DP supports n <= {RANDOM_ORDER_DP_MAX_N}, got {n}"
        )

    table: dict[tuple[frozenset[int], float], float] = {}

    def value(remaining: frozenset[int], m: float) -> float:
        key = (remaining, m)
        cached = table.get(key)
        if cached is not None:
            return cached
        if not remaining:
            out = gamma * m
        else:
            terms = []
            for i in remaining:
                rest = remaining - {i}
                d = dists[i]
                for x, p in zip(d.support, d.probs):
                    stop_val = max(x, gamma * m)
                    terms.append(p * max(stop_val, value(rest, max(m, x))))
            out = math.fsum(terms) / len(remaining)
        table[key] = out
        return out

    expected = value(frozenset(range(n)), 0.0)
    policy = DPPolicyGamma(gamma=gamma, model="random", n=n, _tables=table)
    return policy, expected


@dataclass(frozen=True)
class RationalPolicy:
    """Defers to an inner policy, but never stops on a value that the
    limiting decay already guarantees from the running maximum."""

    inner: object
    d_infinity: DecaySequence

    def __post_init__(self):
        if not decay_mod.is_limit(self.d_infinity):
            raise ParameterOutOfRange(
                "rational wrapping needs a limit decay (all lags equal); "
                "pass limit_decay(seq)"
            )

    def stop_probability(self, step, value, running_max, n, remaining=None) -> float:
        if value <= decay_mod.expected_value(self.d_infinity, 1, running_max):
            return 0.0
        return self.inner.stop_probability(step, value, running_max, n, remaining)


def rational_wrap(inner_policy, d_infinity: DecaySequence) -> RationalPolicy:
    """Suppress stops dominated by the recoverable past."""
    return RationalPolicy(inner=inner_policy, d_infinity=d_infinity)


def policy_to_dict(policy) -> dict:
    if isinstance(policy, ThresholdPolicy):
        return {"kind": "threshold", "theta": policy.theta, "tie_break": policy.tie_break_accept_prob}
    if isinstance(policy, DPPolicyGamma):
        return {"kind": "dp", "gamma": policy.gamma}
    if isinstance(policy, RationalPolicy):
        return {
            "kind": "rational",
            "inner": policy_to_dict(policy.inner),
            "d_infinity": policy.d_infinity.to_dict(),
        }
    if isinstance(policy, NeverStopPolicy):
        return {"kind": "never"}
    raise ParameterOutOfRange(f"cannot serialize policy of type {type(policy).__name__}")


def policy_from_dict(d: dict, instance: Instance | None = None):
    """Materialize a policy from its JSON form.

    DP policies need the instance they will run on (tables are built
    for its order model and supports).
    """
    kind = d.get("kind")
    if kind == "threshold":
        return ThresholdPolicy(theta=d["theta"], tie_break_accept_prob=d.get("tie_break", 0.0))
    if kind == "never":
        return NeverStopPolicy()
    if kind == "rational":
        return rational_wrap(
            policy_from_dict(d["inner"], instance),
            DecaySequence.from_dict(d["d_infinity"]),
        )
    if kind == "dp":
        if instance is None:
            raise ParameterOutOfRange("dp policy specs need an instance to build tables")
        gamma = d["gamma"]
        if instance.order == "adversarial":
            return dp_optimal_gamma_adversarial(instance, gamma)[0]
        if instance.order == "iid":
            return dp_optimal_gamma_iid(instance.distributions[0], instance.iid_count, gamma)[0]
        return dp_optimal_gamma_random_order(instance, gamma)[0]
    raise ParameterOutOfRange(f"unknown policy kind: {kind!r}")

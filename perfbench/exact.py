"""Exact expected reward of a single-threshold policy, the benchmark's reference.

A threshold policy earns exactly the value it accepts: every value it passed
over is at most theta, and a decayed value never exceeds the value itself.
With rho_k = Pr(item k is passed over) and g_k = E[X_k; item k accepted],

    E[reward] = sum_t Pr(nothing accepted before t) g_(t) + E[R; nothing accepted]

where R = max over positions of D_lag(value), lag counted back from the end of
the horizon, is the end-of-horizon recovery.  Given that nothing is accepted
the items stay independent, so

    Pr(R <= m, nothing accepted) = prod_k Pr(D_lag_k(X_k) <= m, item k passed over)

and E[R; nothing accepted] is the integral over m in [0, theta] of
Pr(nothing accepted) - Pr(R <= m, nothing accepted).  Between two kinks (the
values D_lag(b) of the distributions' breakpoints b) the integrand is constant
for finite supports and smooth otherwise, so Gauss-Legendre nodes inside each
piece integrate it to rounding error.

In random order both terms are averaged over arrival orders by a dynamic
program over how many items of each distinct distribution have arrived, so an
instance with few distinct distributions costs little whatever its length
(``random_order_hard``: 50 identical spikes and one sure value, 102 states).

Supported: the three deterministic decays the threshold fast path runs
(gamma, geometric, subtractive) and point, discrete, uniform and exponential
distributions.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from lookback_prophet import decay

# Most random-order states (arrival counts per distinct distribution) the
# reference enumerates before it refuses the instance
MAX_STATES = 20000
# Gauss-Legendre nodes per piece; one suffices where the integrand is constant
NODES = 16
_GL = {k: np.polynomial.legendre.leggauss(k) for k in (1, NODES)}


def _accepted_mass(d, theta: float, q: float) -> tuple[float, float]:
    """(Pr(passed over), E[X; accepted]) of one item."""
    tie = d.atom_at(theta)
    passed = d.cdf_left(theta) + (1.0 - q) * tie
    if d.kind in ("point", "discrete"):
        above = math.fsum(v * p for v, p in zip(d.support, d.probs) if v > theta)
    elif d.kind == "uniform":
        t = min(max(theta, d.lo), d.hi)
        above = (d.hi * d.hi - t * t) / (2.0 * (d.hi - d.lo))
    else:
        t = max(theta, 0.0)
        above = math.exp(-d.rate * t) * (t + 1.0 / d.rate)
    return passed, above + q * theta * tie


def _passed_cdf(d, y: np.ndarray, theta: float, passed: float) -> np.ndarray:
    """Pr(X <= y, item passed over), elementwise over y >= 0."""
    if d.kind in ("point", "discrete"):
        cum = np.concatenate(([0.0], np.asarray(d._cum)))
        cdf = cum[np.searchsorted(np.asarray(d.support), y, side="right")]
    elif d.kind == "uniform":
        cdf = np.clip((y - d.lo) / (d.hi - d.lo), 0.0, 1.0)
    else:
        cdf = -np.expm1(-d.rate * y)
    return np.where(y >= theta, passed, cdf)


def _breakpoints(d, theta: float) -> list[float]:
    if d.kind in ("point", "discrete"):
        points = list(d.support)
    elif d.kind == "uniform":
        points = [d.lo, d.hi]
    else:
        points = []
    return [b for b in points if b < theta] + [0.0, theta]


def _inverse(seq, lag: int, m: np.ndarray) -> np.ndarray:
    """The largest x with D_lag(x) <= m, elementwise over m > 0."""
    if seq.kind == "subtractive":
        return m + seq.cost_at(lag)
    scale = seq.param if seq.kind == "gamma" else seq.param**lag
    return m / scale if scale > 0.0 else np.full_like(m, np.inf)


def _nodes(kinks: list[float], per_piece: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes and weights on [kinks[0], kinks[-1]], piece by piece."""
    x, w = _GL[per_piece]
    lo, hi = np.asarray(kinks[:-1]), np.asarray(kinks[1:])
    keep = hi > lo
    lo, hi = lo[keep], hi[keep]
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def threshold_value(inst, policy, seq) -> float:
    """Exact E[reward] of ``policy`` (a ThresholdPolicy) on ``inst`` under ``seq``."""
    if seq.kind not in ("gamma", "geometric", "subtractive"):
        raise ValueError(f"no exact threshold reference for {seq.kind} decay")
    theta, q = policy.theta, policy.tie_break_accept_prob
    dists = list(inst.iter_dists())
    n = len(dists)
    groups = list(Counter(dists).items())
    mass = {d: _accepted_mass(d, theta, q) for d, _ in groups}

    kinks = {0.0, theta}
    for d, _ in groups:
        for b in _breakpoints(d, theta):
            kinks.update(min(decay.evaluate(seq, lag, b), theta) for lag in range(1, n + 1))
    finite = all(d.kind in ("point", "discrete") for d, _ in groups)
    m, weights = _nodes(sorted(kinks), 1 if finite else NODES)
    # level[d][lag - 1]: Pr(D_lag(X) <= m, passed over) at every node m
    level = {
        d: [_passed_cdf(d, _inverse(seq, lag, m), theta, mass[d][0]) for lag in range(1, n + 1)]
        for d, _ in groups
    }

    never = math.prod(mass[d][0] ** c for d, c in groups)
    if inst.order == "random":
        stop, below = _random_order(groups, mass, level, n, len(m))
    else:
        stop, alive, below = 0.0, 1.0, np.ones(len(m))
        for k, d in enumerate(dists):
            passed, accepted = mass[d]
            stop += alive * accepted
            alive *= passed
            below = below * level[d][n - k - 1]
    return stop + float(weights @ (never - below))


def _random_order(groups, mass, level, n: int, width: int):
    """(stopping term, Pr(R <= m, nothing accepted) per node), over arrival orders.

    A state counts the arrived items of each group; every remaining item is
    equally likely to arrive next.
    """
    counts = [c for _, c in groups]
    if math.prod(c + 1 for c in counts) > MAX_STATES:
        raise ValueError("too many distinct distributions for the random-order reference")
    layer = {tuple([0] * len(groups)): (1.0, np.ones(width))}
    stop = 0.0
    for k in range(n):
        left = n - k  # items still to arrive; the next one has lag `left`
        nxt = {}
        for state, (alive, below) in layer.items():
            for j, (d, c) in enumerate(groups):
                if state[j] == c:
                    continue
                p = (c - state[j]) / left
                passed, accepted = mass[d]
                stop += alive * p * accepted
                to = state[:j] + (state[j] + 1,) + state[j + 1:]
                a, b = alive * p * passed, below * (p * level[d][left - 1])
                if to in nxt:
                    a0, b0 = nxt[to]
                    a, b = a0 + a, b0 + b
                nxt[to] = (a, b)
        layer = nxt
    ((_, below),) = layer.values()
    return stop, below

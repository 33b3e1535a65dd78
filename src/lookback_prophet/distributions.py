"""Value distributions, instances, and the quantile-of-the-maximum solver.

Four closed-form families (point mass, finite discrete, uniform,
exponential) cover every instance used elsewhere in the library while
keeping CDFs, quantiles and expectations exact.  An :class:`Instance` is
an ordered list of distributions together with an observation-order
model; IID instances share one distribution plus a count.

The central numeric routine is :func:`solve_max_quantile`: given a
target probability ``p`` it finds the threshold ``theta`` with
``Pr(max_i X_i <= theta) >= p`` and, when the max-CDF jumps over ``p``
at an atom, the stochastic tie-breaking probability that makes the
randomized acceptance rule hit ``p`` exactly.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator

import numpy as np

from .errors import DegenerateInstance, IntegrationFailure, ParameterOutOfRange

PROB_TOL = 1e-10
PROB_SUM_TOL = 1e-12
INTEGRATION_REL_TOL = 1e-9
# Adaptive quadrature: Gauss-Legendre rules of QUAD_NODES and 2 * QUAD_NODES
# nodes per piece, the gap between them the piece's error estimate, and at
# most QUAD_MAX_ROUNDS rounds of bisection.
QUAD_NODES = 10
QUAD_MAX_ROUNDS = 40

ORDERS = ("adversarial", "random", "iid")


@dataclass(frozen=True)
class Distribution:
    """A non-negative value distribution with exact closed forms.

    Use the factory functions :func:`point`, :func:`discrete`,
    :func:`uniform` and :func:`exponential` instead of the constructor.
    """

    kind: str
    support: tuple[float, ...] = ()
    probs: tuple[float, ...] = ()
    lo: float = 0.0
    hi: float = 0.0
    rate: float = 0.0

    def cdf(self, x: float) -> float:
        """Right-continuous CDF, Pr(X <= x)."""
        if self.kind == "point":
            return 1.0 if x >= self.support[0] else 0.0
        if self.kind == "discrete":
            k = bisect_right(self.support, x)
            return self._cum[k - 1] if k else 0.0
        if self.kind == "uniform":
            if x <= self.lo:
                return 0.0
            if x >= self.hi:
                return 1.0
            return (x - self.lo) / (self.hi - self.lo)
        if x <= 0.0:
            return 0.0
        return -math.expm1(-self.rate * x)

    def cdf_many(self, x: np.ndarray) -> np.ndarray:
        """Vectorized right-continuous CDF."""
        if self.kind in ("point", "discrete"):
            cum = np.concatenate(([0.0], self._cum))
            return cum[np.searchsorted(self.support, x, side="right")]
        if self.kind == "uniform":
            return np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)
        return -np.expm1(-self.rate * np.maximum(x, 0.0))

    def cdf_left(self, x: float) -> float:
        """Left limit of the CDF, Pr(X < x)."""
        if self.kind == "point":
            return 1.0 if x > self.support[0] else 0.0
        if self.kind == "discrete":
            k = bisect_left(self.support, x)
            return self._cum[k - 1] if k else 0.0
        return self.cdf(x)

    def atom_at(self, x: float) -> float:
        """Probability mass exactly at x (zero for continuous kinds)."""
        return self.cdf(x) - self.cdf_left(x)

    def quantile(self, u: float) -> float:
        """Generalized inverse CDF; inverse-transform sampling uses this."""
        if self.kind == "point":
            return self.support[0]
        if self.kind == "discrete":
            k = bisect_right(self._cum, u)
            return self.support[min(k, len(self.support) - 1)]
        if self.kind == "uniform":
            return self.lo + u * (self.hi - self.lo)
        return -float(np.log1p(-u)) / self.rate  # np.log1p: bit-identical to quantile_many

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one value; consumes exactly one uniform from rng."""
        return self.quantile(rng.random())

    def quantile_many(self, u: np.ndarray) -> np.ndarray:
        """Vectorized quantile over an array of any shape; bit-identical to
        quantile element-wise."""
        if self.kind == "point":
            return np.full(np.shape(u), self.support[0])
        if self.kind == "discrete":
            idx = np.searchsorted(np.asarray(self._cum), u, side="right")
            return np.asarray(self.support)[np.minimum(idx, len(self.support) - 1)]
        if self.kind == "uniform":
            return self.lo + u * (self.hi - self.lo)
        return -np.log1p(-u) / self.rate

    def sample_many(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n values, consuming n uniforms (same stream as sample)."""
        return self.quantile_many(rng.random(n))

    def mean(self) -> float:
        """Exact expectation."""
        if self.kind == "point":
            return self.support[0]
        if self.kind == "discrete":
            return math.fsum(x * p for x, p in zip(self.support, self.probs))
        if self.kind == "uniform":
            return 0.5 * (self.lo + self.hi)
        return 1.0 / self.rate

    def upper_value(self, tail: float = 1e-14) -> float:
        """A value v with Pr(X > v) <= tail; finite for every kind."""
        if self.kind in ("point", "discrete"):
            return self.support[-1]
        if self.kind == "uniform":
            return self.hi
        return -math.log(tail) / self.rate

    def rescaled(self, r: float) -> "Distribution":
        """The distribution of r*X for r > 0."""
        if r <= 0.0:
            raise ParameterOutOfRange("rescale factor must be positive")
        if self.kind == "point":
            return point(r * self.support[0])
        if self.kind == "discrete":
            return discrete([r * x for x in self.support], self.probs)
        if self.kind == "uniform":
            return uniform(r * self.lo, r * self.hi)
        return exponential(self.rate / r)

    @property
    def _cum(self) -> tuple[float, ...]:
        cum = self.__dict__.get("_cum_cache")
        if cum is None:
            cum = tuple(accumulate(self.probs))
            object.__setattr__(self, "_cum_cache", cum)
        return cum

    def to_dict(self) -> dict:
        if self.kind == "point":
            return {"kind": "point", "value": self.support[0]}
        if self.kind == "discrete":
            return {"kind": "discrete", "support": list(self.support), "probs": list(self.probs)}
        if self.kind == "uniform":
            return {"kind": "uniform", "lo": self.lo, "hi": self.hi}
        return {"kind": "exponential", "rate": self.rate}

    @staticmethod
    def from_dict(d: dict) -> "Distribution":
        kind = d.get("kind")
        if kind == "point":
            return point(d["value"])
        if kind == "discrete":
            return discrete(d["support"], d["probs"])
        if kind == "uniform":
            return uniform(d["lo"], d["hi"])
        if kind == "exponential":
            return exponential(d["rate"])
        raise ParameterOutOfRange(f"unknown distribution kind: {kind!r}")


def point(value: float) -> Distribution:
    """Point mass at value >= 0."""
    if not (value >= 0.0) or not math.isfinite(value):
        raise ParameterOutOfRange(f"point mass must be a finite value >= 0, got {value}")
    return Distribution(kind="point", support=(float(value),), probs=(1.0,))


def discrete(support, probs) -> Distribution:
    """Finite discrete distribution with strictly increasing support."""
    xs = tuple(float(x) for x in support)
    ps = tuple(float(p) for p in probs)
    if len(xs) != len(ps) or not xs:
        raise ParameterOutOfRange("support and probs must be equal-length and non-empty")
    if any(not math.isfinite(x) or x < 0.0 for x in xs):
        raise ParameterOutOfRange("support values must be finite and >= 0")
    if any(x2 <= x1 for x1, x2 in zip(xs, xs[1:])):
        raise ParameterOutOfRange("support must be strictly increasing")
    if any(p <= 0.0 for p in ps):
        raise ParameterOutOfRange("probabilities must be strictly positive")
    if abs(math.fsum(ps) - 1.0) > PROB_SUM_TOL:
        raise ParameterOutOfRange(f"probabilities sum to {math.fsum(ps)!r}, not 1")
    return Distribution(kind="discrete", support=xs, probs=ps)


def uniform(lo: float, hi: float) -> Distribution:
    """Uniform on [lo, hi) with 0 <= lo < hi."""
    if not (0.0 <= lo < hi) or not math.isfinite(hi):
        raise ParameterOutOfRange(f"uniform needs 0 <= lo < hi, got [{lo}, {hi}]")
    return Distribution(kind="uniform", lo=float(lo), hi=float(hi))


def exponential(rate: float) -> Distribution:
    """Exponential with the given rate (mean 1/rate)."""
    if not (rate > 0.0) or not math.isfinite(rate):
        raise ParameterOutOfRange(f"exponential rate must be positive, got {rate}")
    return Distribution(kind="exponential", rate=float(rate))


@dataclass(frozen=True)
class Instance:
    """An ordered tuple of distributions plus an observation-order model.

    IID instances carry a single shared distribution and ``iid_count``.
    """

    order: str
    distributions: tuple[Distribution, ...]
    iid_count: int | None = None

    def __post_init__(self):
        if self.order not in ORDERS:
            raise ParameterOutOfRange(f"order must be one of {ORDERS}, got {self.order!r}")
        if self.order == "iid":
            if len(self.distributions) != 1:
                raise ParameterOutOfRange("iid instances hold exactly one shared distribution")
            if self.iid_count is None or self.iid_count < 1:
                raise ParameterOutOfRange("iid instances need iid_count >= 1")
        else:
            if self.iid_count is not None:
                raise ParameterOutOfRange("iid_count only applies to iid order")
            if not self.distributions:
                raise ParameterOutOfRange("instance must contain at least one distribution")

    @property
    def n(self) -> int:
        return self.iid_count if self.order == "iid" else len(self.distributions)

    def dist_at(self, i: int) -> Distribution:
        """Distribution of the i-th variable (0-based index)."""
        return self.distributions[0] if self.order == "iid" else self.distributions[i]

    def iter_dists(self) -> Iterator[Distribution]:
        if self.order == "iid":
            d = self.distributions[0]
            for _ in range(self.iid_count):
                yield d
        else:
            yield from self.distributions

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "distributions": [d.to_dict() for d in self.distributions],
            "iid_count": self.iid_count,
        }

    @staticmethod
    def from_dict(d: dict) -> "Instance":
        return Instance(
            order=d["order"],
            distributions=tuple(Distribution.from_dict(e) for e in d["distributions"]),
            iid_count=d.get("iid_count"),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @staticmethod
    def from_json(text: str) -> "Instance":
        return Instance.from_dict(json.loads(text))


@dataclass(frozen=True)
class MaxQuantileSolution:
    """Threshold + tie-break pair realizing a target max-quantile."""

    theta: float
    tie_break_accept_prob: float
    achieved_p: float


def cdf(d: Distribution, x: float) -> float:
    """Right-continuous CDF of a single distribution."""
    return d.cdf(x)


def sample(d: Distribution, rng: np.random.Generator) -> float:
    """Inverse-transform sample; identical seeds give identical streams."""
    return d.sample(rng)


def expectation(d: Distribution) -> float:
    """Exact closed-form mean."""
    return d.mean()


def max_cdf(inst: Instance, x: float) -> float:
    """Pr(max_i X_i <= x), the product of the per-variable CDFs."""
    if inst.order == "iid":
        return inst.distributions[0].cdf(x) ** inst.iid_count
    out = 1.0
    for d in inst.distributions:
        out *= d.cdf(x)
        if out == 0.0:
            return 0.0
    return out


def max_cdf_left(inst: Instance, x: float) -> float:
    """Pr(max_i X_i < x)."""
    if inst.order == "iid":
        return inst.distributions[0].cdf_left(x) ** inst.iid_count
    out = 1.0
    for d in inst.distributions:
        out *= d.cdf_left(x)
        if out == 0.0:
            return 0.0
    return out


def _max_atoms(inst: Instance) -> list[float]:
    """Sorted candidate jump locations of the max-CDF (union of atoms)."""
    vals = set()
    for d in set(inst.distributions):
        if d.kind in ("point", "discrete"):
            vals.update(d.support)
    return sorted(vals)


def _all_finite_support(inst: Instance) -> bool:
    return all(d.kind in ("point", "discrete") for d in inst.distributions)


def expected_max(inst: Instance) -> float:
    """Exact E[max_i X_i].

    All-discrete instances are summed over the jump points of the
    max-CDF; anything else integrates 1 - prod F_i(x) on [0, inf) to a
    relative tolerance of 1e-9 and raises IntegrationFailure when the
    error estimate stays above ten times that.
    """
    if _all_finite_support(inst):
        total = 0.0
        for v in _max_atoms(inst):
            total += v * (max_cdf(inst, v) - max_cdf_left(inst, v))
        return total

    hi = max(d.upper_value(1e-16) for d in inst.distributions)
    kinks = {x for d in set(inst.distributions) for x in _cdf_kinks(d) if 0.0 < x < hi}
    edges = sorted(kinks | {0.0, hi})
    counts = Counter(inst.iter_dists())
    value, abserr = _integrate(
        lambda x: 1.0 - np.prod([d.cdf_many(x) ** k for d, k in counts.items()], axis=0),
        np.array(edges),
    )
    if abserr > INTEGRATION_REL_TOL * max(abs(value), 1e-300) * 10.0:
        raise IntegrationFailure(
            f"expected_max integration error {abserr:g} exceeds tolerance for value {value:g}"
        )
    return value


_GL_NODES, _GL_WEIGHTS = zip(
    *(np.polynomial.legendre.leggauss(k) for k in (QUAD_NODES, 2 * QUAD_NODES))
)
_GL_NODES = np.concatenate(_GL_NODES)


def _integrate(f, edges: np.ndarray) -> tuple[float, float]:
    """Adaptive piecewise Gauss-Legendre quadrature of a vectorized f.

    Starts from the pieces between consecutive ``edges``; each round bisects
    every piece whose error estimate exceeds its share of the tolerance,
    until the summed estimate meets INTEGRATION_REL_TOL or QUAD_MAX_ROUNDS
    rounds are spent.  Returns (integral, summed error estimate).
    """
    lo, hi = edges[:-1], edges[1:]
    for _ in range(QUAD_MAX_ROUNDS):
        half = 0.5 * (hi - lo)
        y = f(0.5 * (lo + hi)[:, None] + half[:, None] * _GL_NODES)
        coarse = half * (y[:, :QUAD_NODES] @ _GL_WEIGHTS[0])
        fine = half * (y[:, QUAD_NODES:] @ _GL_WEIGHTS[1])
        err = np.abs(fine - coarse)
        total = math.fsum(fine)
        budget = INTEGRATION_REL_TOL * abs(total)
        if err.sum() <= budget:
            break
        split = err > budget / len(err)
        mid = 0.5 * (lo + hi)
        hi = np.concatenate((np.where(split, mid, hi), hi[split]))
        lo = np.concatenate((lo, mid[split]))
    return total, float(err.sum())


def _cdf_kinks(d: Distribution) -> tuple[float, ...]:
    if d.kind in ("point", "discrete"):
        return d.support
    if d.kind == "uniform":
        return (d.lo, d.hi)
    return ()


def _bracket_hi(inst: Instance, p: float) -> float:
    hi = max(d.upper_value(1e-14) for d in inst.distributions)
    hi = max(hi, 1.0)
    while max_cdf(inst, hi) <= p:
        hi *= 2.0
        if not math.isfinite(hi):
            raise DegenerateInstance("could not bracket the max-quantile target")
    return hi


def solve_max_quantile(inst: Instance, p: float) -> MaxQuantileSolution:
    """Threshold theta and tie-break q with randomized never-accept
    probability equal to p.

    The acceptance rule is: accept any observation > theta; accept an
    observation == theta with probability q, one independent coin per
    observation.  If the max-CDF crosses p continuously, q = 0 and
    theta satisfies Pr(max <= theta) = p; if it jumps over p at an
    atom, theta is that atom and q splits the atom so the achieved
    probability matches p to 1e-10.
    """
    if not (0.0 < p < 1.0):
        raise ParameterOutOfRange(f"target probability must lie in (0,1), got {p}")

    # Jump crossings happen only at atoms of the max-CDF: check them first.
    theta = None
    for a in _max_atoms(inst):
        ga, ga_left = max_cdf(inst, a), max_cdf_left(inst, a)
        if ga_left < p <= ga:
            theta = a
            break
        if ga >= p:
            break

    if theta is None:
        lo, hi = 0.0, _bracket_hi(inst, p)
        if max_cdf(inst, 0.0) >= p:
            theta = 0.0
        else:
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if mid <= lo or mid >= hi:
                    break
                if max_cdf(inst, mid) < p:
                    lo = mid
                else:
                    hi = mid
            theta = hi

    jump = max_cdf(inst, theta) - max_cdf_left(inst, theta)
    if jump <= 0.0:
        return MaxQuantileSolution(theta, 0.0, max_cdf(inst, theta))

    def never_accept(q: float) -> float:
        out = 1.0
        for d in inst.iter_dists():
            out *= d.cdf_left(theta) + (1.0 - q) * d.atom_at(theta)
        return out

    if never_accept(0.0) <= p:
        return MaxQuantileSolution(theta, 0.0, never_accept(0.0))

    # Closed forms for the common shapes; bisection handles the rest.
    per_pos = [(d.cdf_left(theta), d.atom_at(theta), d.cdf(theta)) for d in inst.iter_dists()]
    carriers = [(left, m) for left, m, _ in per_pos if m > 0.0]
    q = None
    if inst.order == "iid":
        left, m = carriers[0]
        q = 1.0 - (p ** (1.0 / inst.n) - left) / m
    elif len(carriers) == 1:
        left, m = carriers[0]
        others = math.prod(full for _, a, full in per_pos if a == 0.0)
        q = 1.0 - (p / others - left) / m
    if q is not None:
        q = min(1.0, max(0.0, q))
        achieved = never_accept(q)
        if abs(achieved - p) <= PROB_TOL:
            return MaxQuantileSolution(theta, q, achieved)
    qlo, qhi = 0.0, 1.0  # never_accept decreases from G(theta) >= p to G(theta-) < p
    for _ in range(200):
        qmid = 0.5 * (qlo + qhi)
        val = never_accept(qmid)
        if abs(val - p) <= PROB_TOL * 0.01:
            return MaxQuantileSolution(theta, qmid, val)
        if val > p:
            qlo = qmid
        else:
            qhi = qmid
    q = 0.5 * (qlo + qhi)
    achieved = never_accept(q)
    if abs(achieved - p) > PROB_TOL:
        raise DegenerateInstance(
            f"tie-break bisection stalled at achieved={achieved!r} for target {p!r}"
        )
    return MaxQuantileSolution(theta, q, achieved)

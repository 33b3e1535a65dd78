"""Decay sequences: how much of a rejected value is still recoverable.

A decay sequence assigns to every lag j >= 1 a map D_j on [0, inf)
with D_1(x) <= x, D_j(x) non-increasing in j and non-decreasing in x;
D_0 is the identity (the current observation keeps full value).  Five
kinds are built in:

=============  ==========================================  =============
kind           D_j(x)                                      parameters
=============  ==========================================  =============
gamma          gamma * x (lag-independent)                 gamma in [0,1]
geometric      lambda**j * x                               lambda in [0,1]
subtractive    max(0, x - c_j)                             costs + terminal
bernoulli      x with prob p_j, else 0 (random)            probs + terminal
table          tabulated piecewise-linear maps             functions + terminal
=============  ==========================================  =============

Infinite sequences are represented as a finite prefix plus a terminal
constant (or terminal function), which makes the pointwise limit and
the recovery-fraction floor ``gamma_of`` exact for every kind except
``table``, where a grid infimum is reported and flagged approximate.

Bernoulli availability is the one random kind: ``evaluate`` refuses it,
``expected_value`` returns p_j * x, and ``sample_realization`` flips
one coin per call (realizations are drawn lazily, at stopping time).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import KindMismatch, ParameterOutOfRange

KINDS = ("gamma", "geometric", "subtractive", "bernoulli", "table")

GAMMA_GRID_POINTS = 200
GAMMA_GRID_LO = 1e-6
GAMMA_GRID_HI = 1e6


@dataclass(frozen=True)
class PiecewiseLinear:
    """A non-decreasing piecewise-linear map, clamped outside its grid."""

    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self):
        if len(self.xs) != len(self.ys) or len(self.xs) < 2:
            raise ParameterOutOfRange("piecewise map needs >= 2 matching knots")
        if any(b <= a for a, b in zip(self.xs, self.xs[1:])):
            raise ParameterOutOfRange("knot x-values must be strictly increasing")
        if not all(v >= 0.0 for v in self.xs + self.ys):
            raise ParameterOutOfRange("knots must be non-negative numbers")

    def __call__(self, x: float) -> float:
        return float(np.interp(x, self.xs, self.ys))

    def to_dict(self) -> dict:
        return {"xs": list(self.xs), "ys": list(self.ys)}

    @staticmethod
    def from_dict(d: dict) -> "PiecewiseLinear":
        return PiecewiseLinear(tuple(map(float, d["xs"])), tuple(map(float, d["ys"])))


@dataclass(frozen=True)
class DecaySequence:
    kind: str
    param: float | None = None
    prefix: tuple[float, ...] = ()
    terminal: float | None = None
    functions: tuple[PiecewiseLinear, ...] = ()
    terminal_fn: PiecewiseLinear | None = None

    def cost_at(self, j: int) -> float:
        return self.prefix[j - 1] if j <= len(self.prefix) else self.terminal

    def prob_at(self, j: int) -> float:
        return self.prefix[j - 1] if j <= len(self.prefix) else self.terminal

    def fn_at(self, j: int) -> PiecewiseLinear:
        return self.functions[j - 1] if j <= len(self.functions) else self.terminal_fn

    def describe(self) -> str:
        """Short stable descriptor used in reports and CSV rows."""
        if self.kind == "gamma":
            return f"gamma({self.param:g})"
        if self.kind == "geometric":
            return f"geometric({self.param:g})"
        if self.kind == "subtractive":
            return f"subtractive({list(self.prefix)},{self.terminal:g})"
        if self.kind == "bernoulli":
            return f"bernoulli({list(self.prefix)},{self.terminal:g})"
        return f"table({len(self.functions)} maps)"

    def to_dict(self) -> dict:
        if self.kind == "gamma":
            return {"kind": "gamma", "gamma": self.param}
        if self.kind == "geometric":
            return {"kind": "geometric", "lambda": self.param}
        if self.kind == "subtractive":
            return {"kind": "subtractive", "costs": list(self.prefix), "terminal": self.terminal}
        if self.kind == "bernoulli":
            return {"kind": "bernoulli", "probs": list(self.prefix), "terminal": self.terminal}
        return {
            "kind": "table",
            "functions": [f.to_dict() for f in self.functions],
            "terminal": self.terminal_fn.to_dict(),
        }

    @staticmethod
    def from_dict(d: dict) -> "DecaySequence":
        kind = d.get("kind")
        if kind == "gamma":
            return gamma_decay(d["gamma"])
        if kind == "geometric":
            return geometric_decay(d["lambda"])
        if kind == "subtractive":
            return subtractive_decay(d["costs"], d["terminal"])
        if kind == "bernoulli":
            return bernoulli_decay(d["probs"], d["terminal"])
        if kind == "table":
            return table_decay(
                [PiecewiseLinear.from_dict(f) for f in d["functions"]],
                PiecewiseLinear.from_dict(d["terminal"]),
            )
        raise ParameterOutOfRange(f"unknown decay kind: {kind!r}")

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @staticmethod
    def from_json(text: str) -> "DecaySequence":
        return DecaySequence.from_dict(json.loads(text))


def gamma_decay(gamma: float) -> DecaySequence:
    """Constant-fraction recovery: D_j(x) = gamma * x for every lag."""
    if not (0.0 <= gamma <= 1.0):
        raise ParameterOutOfRange(f"gamma must lie in [0,1], got {gamma}")
    return DecaySequence(kind="gamma", param=float(gamma))


def geometric_decay(lam: float) -> DecaySequence:
    """Geometric discounting: D_j(x) = lambda**j * x."""
    if not (0.0 <= lam <= 1.0):
        raise ParameterOutOfRange(f"lambda must lie in [0,1], got {lam}")
    return DecaySequence(kind="geometric", param=float(lam))


def subtractive_decay(costs, terminal: float) -> DecaySequence:
    """Backtracking cost: D_j(x) = max(0, x - c_j).

    costs is the finite prefix (c_1..c_k); beyond it c_j = terminal.
    Constructors check domains only; monotonicity across lags is the
    business of validate(), which must be able to report violations.
    """
    cs = tuple(float(c) for c in costs)
    t = float(terminal)
    if not all(c > 0.0 for c in cs + (t,)):
        raise ParameterOutOfRange("costs must be positive numbers")
    return DecaySequence(kind="subtractive", prefix=cs, terminal=t)


def bernoulli_decay(probs, terminal: float) -> DecaySequence:
    """Availability decay: the value survives at lag j with probability p_j."""
    ps = tuple(float(p) for p in probs)
    t = float(terminal)
    if any(not 0.0 <= p <= 1.0 for p in ps) or not 0.0 <= t <= 1.0:
        raise ParameterOutOfRange("availability probabilities must lie in [0,1]")
    return DecaySequence(kind="bernoulli", prefix=ps, terminal=t)


def table_decay(functions, terminal_fn: PiecewiseLinear) -> DecaySequence:
    """Explicit tabulated maps; D_j = terminal beyond the prefix."""
    return DecaySequence(
        kind="table", functions=tuple(functions), terminal_fn=terminal_fn
    )


def evaluate(seq: DecaySequence, j: int, x: float) -> float:
    """Deterministic D_j(x); j = 0 returns x itself."""
    if j < 0:
        raise ParameterOutOfRange("lag must be >= 0")
    if j == 0:
        return x
    if seq.kind == "gamma":
        return seq.param * x
    if seq.kind == "geometric":
        return seq.param**j * x
    if seq.kind == "subtractive":
        return max(0.0, x - seq.cost_at(j))
    if seq.kind == "table":
        return seq.fn_at(j)(x)
    raise KindMismatch("bernoulli decay is random; use expected_value or sample_realization")


def expected_value(seq: DecaySequence, j: int, x: float) -> float:
    """E[D_j(x)]; coincides with evaluate for deterministic kinds."""
    if seq.kind == "bernoulli":
        if j < 0:
            raise ParameterOutOfRange("lag must be >= 0")
        return x if j == 0 else seq.prob_at(j) * x
    return evaluate(seq, j, x)


def sample_realization(seq: DecaySequence, j: int, x: float, rng: np.random.Generator) -> float:
    """One realization of D_j(x); flips one coin per call for bernoulli."""
    if seq.kind == "bernoulli":
        if j < 1:
            raise ParameterOutOfRange("realizations are defined for lags >= 1")
        return x if rng.random() < seq.prob_at(j) else 0.0
    return evaluate(seq, j, x)


def gamma_of(seq: DecaySequence) -> tuple[float, bool]:
    """The recovery floor inf over x > 0 and lags j >= 1 of D_j(x)/x.

    Returns (value, exact); only the table kind falls back to a grid
    infimum, which can only overestimate the true floor and is flagged
    approximate.  Bernoulli uses its expectation p_j * x.
    """
    if seq.kind == "gamma":
        return seq.param, True
    if seq.kind == "geometric":
        return (1.0, True) if seq.param == 1.0 else (0.0, True)
    if seq.kind == "subtractive":
        return 0.0, True  # any positive cost kills the ratio as x -> 0
    if seq.kind == "bernoulli":
        return seq.terminal, True
    xs = np.logspace(math.log10(GAMMA_GRID_LO), math.log10(GAMMA_GRID_HI), GAMMA_GRID_POINTS)
    lags = range(1, len(seq.functions) + 2)  # prefix lags plus one terminal lag
    best = min(evaluate(seq, j, x) / x for j in lags for x in xs)
    return best, False


def limit_decay(seq: DecaySequence) -> DecaySequence:
    """The sequence whose every lag equals the pointwise limit D_inf."""
    if seq.kind == "gamma":
        return seq
    if seq.kind == "geometric":
        return gamma_decay(1.0) if seq.param == 1.0 else gamma_decay(0.0)
    if seq.kind == "subtractive":
        return subtractive_decay((), seq.terminal)
    if seq.kind == "bernoulli":
        return bernoulli_decay((), seq.terminal)
    return table_decay((), seq.terminal_fn)


def is_limit(seq: DecaySequence) -> bool:
    """True when every lag of seq is already the limiting map."""
    return seq == limit_decay(seq)


@dataclass(frozen=True)
class DecayViolation:
    condition: str  # "D1<=x" | "lag-monotone" | "x-monotone"
    lag: int
    x: float
    observed: float
    bound: float

    def __str__(self) -> str:
        return (
            f"condition {self.condition} violated at lag {self.lag}, x={self.x:g}: "
            f"got {self.observed:g}, needs <= {self.bound:g}"
        )


@dataclass(frozen=True)
class DecayValidationReport:
    passed: bool
    violations: tuple[DecayViolation, ...] = field(default_factory=tuple)


VALIDATION_SLACK = 1e-12
MAX_REPORTED_VIOLATIONS = 100


def validate(seq: DecaySequence, grid, max_lag: int) -> DecayValidationReport:
    """Check the three defining conditions on grid x lag points.

    Uses expected values for bernoulli.  Reports at most the first 100
    violations, each with the witnessing numbers.
    """
    xs = sorted(float(x) for x in grid)
    if not xs or xs[0] < 0.0:
        raise ParameterOutOfRange("grid must be non-empty with values >= 0")
    if max_lag < 1:
        raise ParameterOutOfRange("max_lag must be >= 1")

    bad: list[DecayViolation] = []

    def add(condition, lag, x, observed, bound):
        if len(bad) < MAX_REPORTED_VIOLATIONS:
            bad.append(DecayViolation(condition, lag, x, observed, bound))

    vals = {(j, x): expected_value(seq, j, x) for j in range(1, max_lag + 1) for x in xs}
    for x in xs:
        d1 = vals[(1, x)]
        if d1 > x + VALIDATION_SLACK:
            add("D1<=x", 1, x, d1, x)
    for j in range(1, max_lag):
        for x in xs:
            if vals[(j + 1, x)] > vals[(j, x)] + VALIDATION_SLACK:
                add("lag-monotone", j + 1, x, vals[(j + 1, x)], vals[(j, x)])
    for j in range(1, max_lag + 1):
        for x1, x2 in zip(xs, xs[1:]):
            if vals[(j, x1)] > vals[(j, x2)] + VALIDATION_SLACK:
                add("x-monotone", j, x2, vals[(j, x1)], vals[(j, x2)])

    return DecayValidationReport(passed=not bad, violations=tuple(bad))

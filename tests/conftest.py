import math
import os
import subprocess
import sys

import numpy as np
import pytest

import lookback_prophet
from lookback_prophet import Instance, discrete


def random_discrete(rng: np.random.Generator, max_support: int = 4):
    """One random finite-discrete distribution on a coarse value grid."""
    k = int(rng.integers(1, max_support + 1))
    grid = np.round(np.linspace(0.0, 10.0, 41), 2)
    vals = np.sort(rng.choice(grid, size=k, replace=False))
    raw = rng.dirichlet(np.ones(k))
    probs = [float(p) for p in raw]
    probs[-1] = 1.0 - math.fsum(probs[:-1])
    return discrete([float(v) for v in vals], probs)


def random_instance(rng, order="adversarial", max_n=5, max_support=4) -> Instance:
    n = int(rng.integers(1, max_n + 1))
    dists = tuple(random_discrete(rng, max_support) for _ in range(n))
    return Instance(order, dists)


@pytest.fixture
def rng():
    return np.random.default_rng(20240601)


def run_python(code: str, *flags: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lookback_prophet.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    cmd = [sys.executable, *flags, "-c", code]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)

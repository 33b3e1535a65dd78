"""Tests of the benchmark itself: streams, metric names, checker and tracer.

Run from the root of the checkout:  python3 -m pytest perfbench/tests -q
"""

import dataclasses
import itertools
import json
import os
import random
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import exact  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from lookback_prophet import decay, distributions, evaluation, instances, policies  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def take(stream, k):
    return [next(stream) for _ in range(k)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_request_stream_is_a_function_of_the_seed(workload):
    first = take(workloads.requests(workload, 11), 40)
    assert first == take(workloads.requests(workload, 11), 40)
    assert first != take(workloads.requests(workload, 12), 40)
    json.dumps(first)  # plain data only: the library sees nothing else


def test_benchmark_names_the_workloads_the_harness_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_benchmark_metric_is_emitted_with_its_unit(trace, section):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "cli_small",
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 2
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in summary["metrics"].items()}
    assert got == want
    for name, line_unit in want.items():
        assert f"\n{name} " in "\n" + proc.stdout and line_unit


def test_missing_library_exits_nonzero_without_a_summary(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "tracer.py", "exact.py"):
        (bench / name).write_text(open(os.path.join(BENCH, name)).read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert "no lookback_prophet package" in proc.stderr
    assert "correct" not in proc.stdout


def first_of(workload, kind, seed=5, step=None):
    for req in workloads.requests(workload, seed):
        if req["kind"] == kind and (step is None or req.get("step") == step):
            return req


def test_checker_accepts_correct_results_and_flags_wrong_reports(tmp_path):
    workdir = str(tmp_path)
    # Monte Carlo: an estimate moved far outside its interval is caught
    req = first_of("mc_threshold", "mc")
    result = workloads.execute(req, workdir)
    assert workloads.check(req, result, workdir) == []
    report = result["report"]
    shift = 50 * report.ci_half_width + 1.0
    wrong = dataclasses.replace(report, mean_reward=report.mean_reward - shift,
                                ratio=(report.mean_reward - shift) / report.expected_opt)
    assert workloads.check(req, dict(result, report=wrong), workdir)

    # a report that differs from the parallel one in the last bit
    assert workloads.check_worker_invariance(req, result) == []
    nudged = dataclasses.replace(report, mean_reward=report.mean_reward * (1 + 1e-15))
    assert workloads.check_worker_invariance(req, dict(result, report=nudged))

    # exact paths: a DP value that disagrees with its oracle
    areq = first_of("adaptive_exact", "dp_ro_oracle")
    aresult = workloads.execute(areq, workdir)
    assert workloads.check(areq, aresult, workdir) == []
    assert workloads.check(areq, dict(aresult, oracle=aresult["oracle"] + 1e-6), workdir)

    # CLI: a printed value that does not match the in-process one
    stream = workloads.requests("cli_small", 5)
    hard, solve = next(stream), next(stream)
    for r in (hard, solve):
        assert workloads.check(r, workloads.execute(r, workdir), workdir) == []
    out = workloads.execute(solve, workdir)
    theta = float(out["stdout"].split()[1])
    bad = out["stdout"].replace(f"theta {theta:.15g}", f"theta {theta * 1.001:.15g}")
    assert workloads.check(solve, dict(out, stdout=bad), workdir)
    assert workloads.check(solve, dict(out, code=2), workdir)


DECAYS = [decay.gamma_decay(0.4), decay.geometric_decay(0.85),
          decay.subtractive_decay([0.1, 0.2, 0.3], 0.4)]


@pytest.mark.parametrize("order", ["random", "adversarial", "iid"])
def test_exact_threshold_value_matches_the_enumeration_oracle(order):
    rng = random.Random(order)

    def dist():
        k = rng.randint(1, 3)
        support = sorted(rng.sample([0.25 * i for i in range(1, 41)], k))
        weights = [rng.randint(1, 9) for _ in range(k)]
        return distributions.discrete(support, [w / sum(weights) for w in weights])

    for _ in range(8):
        n = rng.randint(2, 5)
        if order == "iid":
            inst = distributions.Instance("iid", (dist(),), n)
        else:
            inst = distributions.Instance(order, tuple(dist() for _ in range(n)))
        values = sorted({v for d in inst.iter_dists() for v in d.support})
        theta = rng.choice(values + [values[0] / 2, values[-1] + 1.0])
        policy = policies.ThresholdPolicy(theta, rng.choice((0.0, 0.3, 1.0)))
        for seq in DECAYS:
            want = evaluation.brute_force_value(inst, policy, seq)
            assert exact.threshold_value(inst, policy, seq) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("gamma", [0.2, 0.9])
def test_exact_threshold_value_on_the_spike_family(gamma):
    inst = instances.random_order_hard(5, instances.random_order_hard_a(gamma))
    sol = distributions.solve_max_quantile(inst, 0.6)
    policy = policies.ThresholdPolicy(sol.theta, sol.tie_break_accept_prob)
    assert 0.0 < policy.tie_break_accept_prob < 1.0  # the sure value sits on theta
    for seq in DECAYS + [decay.gamma_decay(gamma)]:
        want = evaluation.brute_force_value(inst, policy, seq)
        assert exact.threshold_value(inst, policy, seq) == pytest.approx(want, rel=1e-12)


def test_exact_threshold_value_agrees_with_sampling_on_continuous_items():
    dists = tuple(distributions.exponential(r) for r in (0.5, 0.8, 1.3, 2.0)) + (
        distributions.uniform(0.2, 1.7), distributions.uniform(0.5, 1.1))
    inst = distributions.Instance("random", dists)
    sol = distributions.solve_max_quantile(inst, 0.7)
    policy = policies.ThresholdPolicy(sol.theta, 0.0)
    for seq in DECAYS:
        report = evaluation.monte_carlo(inst, policy, seq, 20000, 17)
        ref = exact.threshold_value(inst, policy, seq)
        assert abs(report.mean_reward - ref) < 4 * report.ci_half_width


def test_a_moderate_bias_on_the_spike_family_is_flagged(tmp_path):
    """One estimate at 1000 reps cannot show a 20% bias on random_order_hard;
    a run's worth of them must."""
    ro = [r for r in itertools.islice(workloads.requests("mc_threshold", 5), 200)
          if r["family"] == "ro"][:24]
    results = [workloads.execute(r, str(tmp_path)) for r in ro]
    errors = [workloads.mc_error(r, res) for r, res in zip(ro, results)]
    assert all(workloads.check(r, res, str(tmp_path)) == [] for r, res in zip(ro, results))
    assert workloads.biased_groups(errors) == {}

    def shifted(res, factor):
        report = res["report"]
        mean = report.mean_reward * factor
        return dict(res, report=dataclasses.replace(
            report, mean_reward=mean, ratio=mean / report.expected_opt))

    for factor in (0.8, 1.2):
        wrong = [workloads.mc_error(r, shifted(res, factor)) for r, res in zip(ro, results)]
        assert list(workloads.biased_groups(wrong)) == ["mc ro"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_layer_self_times_account_for_the_traced_wall(workload):
    harness = run.Harness(workload, seed=7)
    tracer = Tracer()
    original = evaluation.monte_carlo
    tracer.install()
    try:
        execute = tracer.wrap("harness.experiment", workloads.execute)
        tracer.enabled = True
        wall, latencies = harness.closed_loop(
            1.0, execute, lambda k: setattr(tracer, "experiment", k))
    finally:
        tracer.enabled = False
        tracer.uninstall()
        harness.close()
    assert evaluation.monte_carlo is original
    assert latencies
    m = tracer.layer_metrics(wall)
    layers = [m[f"{layer}.self_s"] for layer in LAYERS]
    assert all(s >= 0.0 for s in layers)
    # self times never exceed the experiments' latencies, timed by the harness
    # outside the tracer, and they account for nearly all of the wall time
    assert sum(layers) <= sum(latencies)
    assert sum(layers) >= 0.8 * wall
    assert m["trace.experiments"] == len(latencies)

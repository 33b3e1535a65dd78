"""Seeded request streams for the benchmark, their execution and their checks.

A workload is an endless, deterministic stream of requests.  A request is a
plain dict built from ``random.Random(seed)`` alone: the library sees only
these generated inputs.  ``execute`` turns one request into a result through
the library (or the in-process CLI), and ``check`` decides whether that result
is correct, returning a list of failure messages.  Checks compare against
exact references (enumeration oracle, dynamic programs, in-process library
calls) and against the theory guarantees; none of them pins a random-stream
value, so a change that legitimately reorders the streams still passes.

A threshold experiment's exact reference comes from ``exact.threshold_value``,
outside the library.  One estimate at 1000 reps on the spike families has a
standard error near 9% of its mean, too wide to see a bias of tens of percent,
so ``biased_groups`` also sums the errors of every estimate of a kind over the
whole run, where such a bias stands out by many standard errors.

Every library call goes through a module attribute (``instances.adv_hard``,
``evaluation.monte_carlo``, ...) so that the tracer can wrap it.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import math
import os
import random

import exact
from lookback_prophet import (
    cli,
    decay,
    distributions,
    evaluation,
    instances,
    policies,
    theory,
)

WORKLOADS = ("mc_threshold", "adaptive_exact", "cli_small")

GAMMAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
VALUE_GRID = tuple(round(0.25 * i, 2) for i in range(41))  # 0 .. 10

# Input sizes; BENCHMARK.json states the same numbers.
MC_REPS = 1000
MC_RO_SPIKES = 50  # random_order_hard: 50 spikes plus the sure value, n = 51
MC_IID_N = 50
MC_CONT_N = 10
AE_SIM_REPS = 1000
# (n, support size) pairs each adaptive request kind cycles through
AE_SIZES = {
    "dp_ro_oracle": [(5, 2)],
    "dp_ro_solve": [(10, 2)],
    "dp_iid_solve": [(500, 3), (1000, 3), (2000, 3)],
    "dp_adv_sim": [(4, 4), (6, 3), (8, 2)],
    "rational_bern": [(3, 2), (4, 2), (5, 2)],
    "oracle_vec": [(6, 3)],
    "dp_iid_sim": [(3, 3), (5, 3), (8, 3)],
    "oracle_stream": [(4, 2), (5, 2)],
}
CLI_N = {"ro": 3, "iid": 5}  # spikes of the random-order family; IID draws
CLI_SIM_REPS = 200
CLI_PAR_REPS = 400

# A Monte Carlo estimate may lie this many 95% half-widths from its exact
# reference or below its guarantee before the check fails.  The spikes of the
# hard families make the estimates skewed: 2400 threshold ratios at 1000 reps
# came as low as 2.9 half-widths under their guarantee.
CI_WIDTHS = 6.0
# The sample variance says nothing about outcomes too rare to be drawn: one of
# probability p goes unseen with chance (1 - p)**reps <= exp(-p * reps), and
# moves the mean by at most p times the largest atom.  Allowing for
# p <= UNSEEN_LOG / reps keeps the chance of a false alarm below 1e-4.
UNSEEN_LOG = math.log(1e4)
# Over a run, the summed errors of the estimates of one request kind may lie
# this many standard errors (plus one estimate's unseen-outcome allowance)
# from zero.
BIAS_Z = 6.0
EXACT_TOL = 1e-9
# Every PARALLEL_CHECK_EVERY-th Monte Carlo experiment is re-run with
# PARALLEL_WORKERS workers, which must give a bit-identical report.
PARALLEL_CHECK_EVERY = 16
PARALLEL_WORKERS = 2
# CLI simulate requests of every RECHECK_EVERY-th cycle are re-run in-process.
RECHECK_EVERY = 4
# CLI requests name their files under this token; execution puts them in a
# scratch directory.
WORK = "WORK/"


def requests(workload: str, seed: int):
    """The endless request stream of a workload; equal seeds, equal streams."""
    rng = random.Random(seed)
    if workload == "mc_threshold":
        return _mc_requests(rng)
    if workload == "adaptive_exact":
        return _adaptive_requests(rng)
    if workload == "cli_small":
        return _cli_requests(rng)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- generators


def _bag(rng: random.Random, values):
    """Endless draws from ``values``, each used once per shuffled round.

    Stratifying the draws keeps the mix of request sizes the same in every
    run, whatever the seed, so run-to-run spread comes from the machine and
    the random streams, not from a lucky mix.
    """
    values = list(values)
    while True:
        rng.shuffle(values)
        yield from values


def _probs(rng: random.Random, k: int) -> list[float]:
    weights = [rng.randint(1, 9) for _ in range(k)]
    total = sum(weights)
    probs = [w / total for w in weights[:-1]]
    return probs + [1.0 - math.fsum(probs)]


def _discrete(rng: random.Random, k: int, grid=VALUE_GRID) -> dict:
    support = sorted(rng.sample(grid[1:], k))
    return {"kind": "discrete", "support": support, "probs": _probs(rng, k)}


def _decay_spec(rng: random.Random, kind: str, gamma: float) -> dict:
    if kind == "gamma":
        return {"kind": "gamma", "gamma": gamma}
    if kind == "geometric":
        return {"kind": "geometric", "lambda": rng.choice((0.8, 0.85, 0.9, 0.95, 0.99))}
    if kind == "subtractive":
        step = rng.choice((0.05, 0.1, 0.2))
        return {"kind": "subtractive", "costs": [step, 2 * step, 3 * step], "terminal": 4 * step}
    return {"kind": "bernoulli", "probs": [], "terminal": gamma}


# Family and decay kind cycle in a fixed order, so every seed gives the same
# mix of request shapes and only their parameters vary.
MC_CYCLE = (
    ("adv", "gamma"),
    ("adv", "geometric"),
    ("ro", "gamma"),
    ("ro", "subtractive"),
    ("iid", "gamma"),
    ("iid", "geometric"),
    ("uniform", "gamma"),
    ("exponential", "subtractive"),
)


def _mc_requests(rng: random.Random):
    gammas = {shape: _bag(rng, GAMMAS) for shape in MC_CYCLE}
    for k in itertools.count():
        family, kind = MC_CYCLE[k % len(MC_CYCLE)]
        gamma = next(gammas[family, kind])
        if family == "adv":
            shape = {"eps": round(rng.uniform(0.05, min(0.2, 0.9 * (1.0 - gamma))), 4)}
        elif family == "uniform":
            shape = {"bounds": []}
            for _ in range(MC_CONT_N):
                lo = round(rng.uniform(0.0, 1.0), 3)
                shape["bounds"].append([lo, round(lo + rng.uniform(0.5, 2.0), 3)])
        elif family == "exponential":
            shape = {"rates": [round(rng.uniform(0.5, 2.0), 3) for _ in range(MC_CONT_N)]}
        else:
            shape = {}
        yield {
            "kind": "mc",
            "family": family,
            "gamma": gamma,
            "shape": shape,
            "decay": _decay_spec(rng, kind, gamma),
            "reps": MC_REPS,
            "seed": rng.getrandbits(63),
            "workers": 1,
        }


# Eight kinds: three faster than the two simulation kinds and three slower,
# so the median latency falls inside the simulations' cluster, not on the
# edge between two clusters, where it would jump with the machine's speed.
ADAPTIVE_CYCLE = (
    "dp_ro_oracle",
    "dp_ro_solve",
    "dp_iid_solve",
    "dp_adv_sim",
    "rational_bern",
    "oracle_vec",
    "dp_iid_sim",
    "oracle_stream",
)


def _adaptive_requests(rng: random.Random):
    gammas = {kind: _bag(rng, GAMMAS) for kind in ADAPTIVE_CYCLE}
    sizes = {kind: _bag(rng, AE_SIZES[kind]) for kind in ADAPTIVE_CYCLE}
    for k in itertools.count():
        kind = ADAPTIVE_CYCLE[k % len(ADAPTIVE_CYCLE)]
        req = {"kind": kind, "gamma": next(gammas[kind])}
        n, support = next(sizes[kind])
        if kind in ("dp_iid_solve", "dp_iid_sim"):
            req["n"] = n
            n = 1
        if kind != "dp_iid_solve":
            req["dists"] = [_discrete(rng, support) for _ in range(n)]
        if kind == "rational_bern":
            req["inner"] = ("threshold", "dp")[k // len(ADAPTIVE_CYCLE) % 2]
        elif kind == "oracle_stream":
            decay_kind = ("geometric", "bernoulli")[k // len(ADAPTIVE_CYCLE) % 2]
            req["decay"] = _decay_spec(rng, decay_kind, req["gamma"])
        if kind in ("dp_adv_sim", "dp_iid_sim", "rational_bern"):
            req["reps"] = AE_SIM_REPS
            req["seed"] = rng.getrandbits(63)
        yield req


CLI_CYCLE = (
    "hard",
    "solve-threshold",
    "simulate",
    "oracle",
    "simulate-parallel",
    "bounds",
    "transform",
    "validate-decay",
    "simulate-parallel-dp",
)


def _cli_requests(rng: random.Random):
    gammas = _bag(rng, GAMMAS)
    for cycle in itertools.count():
        family = ("adv", "ro", "iid")[cycle % 3]
        gamma = next(gammas)
        inst_file = f"{WORK}c{cycle}_inst.json"
        hard = ["hard", "--family", family, "--gamma", repr(gamma)]
        if family == "adv":
            hard += ["--eps", repr(round(rng.uniform(0.02, 0.9 * (1.0 - gamma)), 4))]
        else:
            hard += ["--n", str(CLI_N[family])]
        dp_spec = json.dumps({"kind": "dp", "gamma": gamma})
        gamma_spec = json.dumps({"kind": "gamma", "gamma": gamma})
        for step in CLI_CYCLE:
            if step == "hard":
                argv = hard + ["--out", inst_file]
            elif step == "solve-threshold":
                argv = ["solve-threshold", inst_file, "--model", family, "--gamma", repr(gamma)]
            elif step.startswith("simulate"):
                if step == "simulate-parallel-dp":
                    policy = dp_spec
                else:
                    policy = json.dumps(
                        {"kind": "threshold", "theta": round(rng.uniform(0.5, 3.0), 3),
                         "tie_break": rng.choice((0.0, 0.5))}
                    )
                kind = rng.choice(("gamma", "geometric", "subtractive"))
                workers = "1" if step == "simulate" else "2"
                reps = CLI_SIM_REPS if step == "simulate" else CLI_PAR_REPS
                argv = [
                    "simulate", inst_file, "--policy", policy,
                    "--decay", json.dumps(_decay_spec(rng, kind, gamma)),
                    "--reps", str(reps), "--seed", str(rng.getrandbits(48)),
                    "--workers", workers, "--out", f"{WORK}c{cycle}_{step}.csv",
                ]
            elif step == "oracle":
                argv = ["oracle", inst_file, "--policy", dp_spec, "--decay", gamma_spec]
            elif step == "bounds":
                argv = ["bounds", "--grid", str(rng.randint(6, 21)), "--out", f"{WORK}c{cycle}_bounds.csv"]
            elif step == "transform":
                kind = {"adv": "pad-adv", "ro": "pad-ro", "iid": "dilute"}[family]
                m = rng.randint(2, 5) if family != "iid" else rng.randint(8, 12)
                argv = ["transform", kind, "--m", str(m), "--in", inst_file, "--out", f"{WORK}c{cycle}_t.json"]
            else:  # validate-decay
                kind = rng.choice(("geometric", "subtractive", "bernoulli"))
                argv = ["validate-decay", json.dumps(_decay_spec(rng, kind, gamma))]
            yield {"kind": "cli", "step": step, "family": family, "gamma": gamma,
                   "inst_file": inst_file, "argv": argv,
                   "recheck": cycle % RECHECK_EVERY == 0}


# ----------------------------------------------------------------- execution


def _instance(order: str, dist_specs, iid_count=None):
    dists = tuple(distributions.Distribution.from_dict(d) for d in dist_specs)
    return distributions.Instance(order, dists, iid_count)


def _mc_instance(req: dict):
    family, gamma, shape = req["family"], req["gamma"], req["shape"]
    if family == "adv":
        return instances.adv_hard(gamma, shape["eps"])
    if family == "ro":
        return instances.random_order_hard(MC_RO_SPIKES, instances.random_order_hard_a(gamma))
    if family == "iid":
        x, a = instances.iid_hard_params(gamma)
        return instances.iid_hard(MC_IID_N, x, a)
    if family == "uniform":
        dists = tuple(distributions.uniform(lo, hi) for lo, hi in shape["bounds"])
    else:
        dists = tuple(distributions.exponential(r) for r in shape["rates"])
    return distributions.Instance("random", dists)


def _threshold_for(inst, floor: float):
    """The single threshold at the theory quantile for recovery floor ``floor``."""
    if inst.order == "adversarial":
        target, p = inst, theory.adversarial_bound(floor)
    elif inst.order == "random":
        target, p = inst, theory.solve_p_gamma(floor).value
    else:  # per-item tail Pr(X > theta) = a / n
        a = theory.solve_a_n_gamma(inst.n, floor).value
        target = distributions.Instance("adversarial", inst.distributions)
        p = 1.0 - a / inst.n
    sol = distributions.solve_max_quantile(target, p)
    return policies.ThresholdPolicy(sol.theta, sol.tie_break_accept_prob)


def _guarantee(order: str, n: int, floor: float) -> float:
    """The ratio a threshold at the theory quantile is guaranteed to reach."""
    if order == "adversarial":
        return theory.adversarial_bound(floor)
    if order == "random":
        return theory.random_order_lower(floor)
    return theory.iid_lower_n(n, floor)


def _mc(req: dict) -> dict:
    inst = _mc_instance(req)
    seq = decay.DecaySequence.from_dict(req["decay"])
    floor = decay.gamma_of(seq)[0]
    policy = _threshold_for(inst, floor)
    report = evaluation.monte_carlo(inst, policy, seq, req["reps"], req["seed"], req["workers"])
    return {"report": report, "inst": inst, "policy": policy, "decay": seq, "floor": floor}


def _dp(inst, gamma: float):
    if inst.order == "adversarial":
        return policies.dp_optimal_gamma_adversarial(inst, gamma)
    if inst.order == "iid":
        return policies.dp_optimal_gamma_iid(inst.distributions[0], inst.iid_count, gamma)
    return policies.dp_optimal_gamma_random_order(inst, gamma)


def _adaptive(req: dict) -> dict:
    kind, g = req["kind"], req["gamma"]
    if kind == "dp_ro_oracle":
        inst = _instance("random", req["dists"])
        policy, value = _dp(inst, g)
        oracle = evaluation.brute_force_value(inst, policy, decay.gamma_decay(g))
        return {"inst": inst, "dp": value, "oracle": oracle}
    if kind == "dp_ro_solve":
        inst = _instance("random", req["dists"])
        return {"inst": inst, "dp": _dp(inst, g)[1]}
    if kind == "dp_iid_solve":
        x, a = instances.iid_hard_params(g)
        inst = instances.iid_hard(req["n"], x, a)
        return {"inst": inst, "dp": _dp(inst, g)[1]}
    if kind in ("dp_adv_sim", "dp_iid_sim"):
        if kind == "dp_adv_sim":
            inst = _instance("adversarial", req["dists"])
        else:
            inst = _instance("iid", req["dists"], req["n"])
        policy, value = _dp(inst, g)
        report = evaluation.monte_carlo(inst, policy, decay.gamma_decay(g), req["reps"], req["seed"])
        return {"inst": inst, "dp": value, "report": report}
    if kind == "rational_bern":
        inst = _instance("random", req["dists"])
        seq = decay.bernoulli_decay((), g)
        if req["inner"] == "dp":
            inner = _dp(inst, g)[0]
        else:
            inner = _threshold_for(inst, g)
        policy = policies.rational_wrap(inner, decay.limit_decay(seq))
        ref = evaluation.brute_force_value(inst, policy, seq)
        report = evaluation.monte_carlo(inst, policy, seq, req["reps"], req["seed"])
        return {"inst": inst, "oracle": ref, "report": report}
    inst = _instance("random", req["dists"])
    seq = decay.DecaySequence.from_dict(req.get("decay") or {"kind": "gamma", "gamma": g})
    floor = decay.gamma_of(seq)[0]
    value = evaluation.brute_force_value(inst, _threshold_for(inst, floor), seq)
    return {"inst": inst, "oracle": value, "floor": floor}


def _cli(req: dict, workdir: str) -> dict:
    argv = [_path(workdir, a) for a in req["argv"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def execute(req: dict, workdir: str) -> dict:
    """Run one request; ``workdir`` holds the files CLI requests write."""
    kind = req["kind"]
    if kind == "mc":
        return _mc(req)
    if kind == "cli":
        return _cli(req, workdir)
    return _adaptive(req)


# -------------------------------------------------------------------- checks


def _close(a: float, b: float, tol: float = EXACT_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _unseen(report, inst) -> float:
    """How far never-drawn atoms can move a mean: see UNSEEN_LOG."""
    top = max((d.support[-1] for d in inst.distributions if d.kind in ("point", "discrete")),
              default=0.0)
    return top * UNSEEN_LOG / report.replications


def _mc_near(report, ref: float, inst) -> list[str]:
    slack = (CI_WIDTHS * report.ci_half_width + _unseen(report, inst)
             + EXACT_TOL * max(1.0, abs(ref)))
    if abs(report.mean_reward - ref) > slack:
        return [f"Monte Carlo mean {report.mean_reward!r} is {abs(report.mean_reward - ref):.3g} "
                f"from exact {ref!r}, allowed {slack:.3g}"]
    return []


@functools.lru_cache(maxsize=64)
def _threshold_exact(inst, policy, seq) -> float:
    return exact.threshold_value(inst, policy, seq)


def mc_error(req: dict, result: dict):
    """(group, estimate - exact, standard error, unseen allowance) of a Monte
    Carlo result that has an exact reference; None for any other result."""
    if req["kind"] == "mc":
        group = f"mc {req['family']}"
        ref = _threshold_exact(result["inst"], result["policy"], result["decay"])
    elif req["kind"] != "cli" and "report" in result:
        group = req["kind"]
        ref = result["dp"] if "dp" in result else result["oracle"]
    else:
        return None
    report = result["report"]
    return (group, report.mean_reward - ref, report.ci_half_width / evaluation.Z_95,
            _unseen(report, result["inst"]) + EXACT_TOL * max(1.0, abs(ref)))


def biased_groups(errors) -> dict[str, str]:
    """{group: message} for the groups of ``mc_error`` tuples whose summed
    errors are too large to be chance."""
    sums: dict[str, list] = {}
    for group, diff, se, allowance in errors:
        acc = sums.setdefault(group, [0.0, 0.0, 0.0, 0])
        acc[0] += diff
        acc[1] += se * se
        acc[2] = max(acc[2], allowance)
        acc[3] += 1
    flagged = {}
    for group, (total, var, allowance, count) in sums.items():
        slack = BIAS_Z * math.sqrt(var) + allowance
        if abs(total) > slack:
            flagged[group] = (f"{group}: {count} estimates sum to {total:+.4g} from their "
                              f"exact values, allowed {slack:.3g}")
    return flagged


def _report_sane(report, reps: int) -> list[str]:
    values = (report.mean_reward, report.expected_opt, report.ratio, report.ci_half_width)
    if report.replications != reps or not all(math.isfinite(v) for v in values):
        return [f"malformed report {report!r}"]
    return []


def _ratio_at_least(ratio: float, bound: float, slack: float, what: str) -> list[str]:
    if ratio < bound - slack - EXACT_TOL:
        return [f"{what} ratio {ratio!r} below guarantee {bound!r} - {slack:.3g}"]
    return []


def check(req: dict, result: dict, workdir: str) -> list[str]:
    """Failure messages for one result; empty when it is correct."""
    kind = req["kind"]
    if kind == "mc":
        return _check_mc(req, result)
    if kind == "cli":
        return _check_cli(req, result, workdir)
    return _check_adaptive(req, result)


def _check_mc(req: dict, result: dict) -> list[str]:
    report, inst = result["report"], result["inst"]
    failures = _report_sane(report, req["reps"])
    if failures:
        return failures
    slack = CI_WIDTHS * report.ci_half_width / report.expected_opt
    bound = _guarantee(inst.order, inst.n, result["floor"])
    failures += _ratio_at_least(report.ratio, bound, slack, f"{req['family']} threshold")
    ref = _threshold_exact(inst, result["policy"], result["decay"])
    return failures + _mc_near(report, ref, inst)


def check_worker_invariance(req: dict, result: dict) -> list[str]:
    """The report with PARALLEL_WORKERS workers must equal this one bit for bit."""
    parallel = evaluation.monte_carlo(
        result["inst"], result["policy"], result["decay"], req["reps"], req["seed"],
        PARALLEL_WORKERS,
    )
    if parallel != result["report"]:
        return [f"workers={PARALLEL_WORKERS} report {parallel!r} != workers=1 {result['report']!r}"]
    return []


def _check_adaptive(req: dict, result: dict) -> list[str]:
    kind, g, inst = req["kind"], req["gamma"], result["inst"]
    opt = distributions.expected_max(inst)
    failures = []
    if "dp" in result:
        ratio = result["dp"] / opt
        # the optimum dominates the threshold guarantee and never beats the prophet
        failures += _ratio_at_least(ratio, _guarantee(inst.order, inst.n, g), 0.0, "DP")
        if ratio > 1.0 + EXACT_TOL:
            failures.append(f"DP ratio {ratio!r} above 1")
    if "oracle" in result and "dp" in result and not _close(result["oracle"], result["dp"]):
        failures.append(f"oracle {result['oracle']!r} != DP {result['dp']!r}")
    if "report" in result:
        failures += _report_sane(result["report"], req["reps"])
        ref = result["dp"] if "dp" in result else result["oracle"]
        failures += _mc_near(result["report"], ref, inst)
    if kind in ("oracle_vec", "oracle_stream"):
        bound = _guarantee("random", inst.n, result["floor"])
        failures += _ratio_at_least(result["oracle"] / opt, bound, 0.0, "exact threshold")
    return failures


def _path(workdir: str, arg: str) -> str:
    return os.path.join(workdir, arg[len(WORK):]) if arg.startswith(WORK) else arg


def _read(workdir: str, name: str) -> str:
    with open(_path(workdir, name), encoding="utf-8") as fh:
        return fh.read()


def _cli_instance(hard_req: dict):
    """The instance a CLI ``hard`` request writes, built in-process."""
    argv = hard_req["argv"]
    opts = dict(zip(argv[1::2], argv[2::2]))
    g = float(opts["--gamma"])
    if hard_req["family"] == "adv":
        return instances.adv_hard(g, float(opts["--eps"]))
    n = int(opts["--n"])
    if hard_req["family"] == "ro":
        return instances.random_order_hard(n, instances.random_order_hard_a(g))
    return instances.iid_hard(n, *instances.iid_hard_params(g))


def _check_cli(req: dict, result: dict, workdir: str) -> list[str]:
    step, argv = req["step"], req["argv"]
    if result["code"] != 0:
        return [f"exit code {result['code']} for {argv}: {result['stderr'].strip()}"]
    opts = dict(zip(argv[2::2], argv[3::2])) if step not in ("hard", "bounds") else {}
    if step == "hard":
        want = _cli_instance(req).to_json() + "\n"
        got = _read(workdir, req["inst_file"])
        return [] if got == want else [f"hard wrote {got!r}, expected {want!r}"]
    if step == "bounds":
        grid = theory.default_gamma_grid(int(argv[2]))
        want = theory.bound_table_csv(theory.bound_table(grid))
        got = _read(workdir, argv[4])
        return [] if got == want else ["bounds CSV differs from bound_table_csv"]
    if step == "validate-decay":
        seq = decay.DecaySequence.from_dict(json.loads(argv[1]))
        passed = decay.validate(seq, [0.0, 0.5, 1.0, 2.0, 10.0, 100.0], 8).passed
        if result["stdout"] != "passed\n" or not passed:
            return [f"validate-decay printed {result['stdout']!r}, in-process passed={passed}"]
        return []

    inst = distributions.Instance.from_json(_read(workdir, req["inst_file"]))
    if step == "solve-threshold":
        lines = dict(line.split(" ", 1) for line in result["stdout"].splitlines())
        model, g = opts["--model"], float(opts["--gamma"])
        if model == "iid":
            a = theory.solve_a_n_gamma(inst.n, g).value
            sol = distributions.solve_max_quantile(
                distributions.Instance("adversarial", inst.distributions), 1.0 - a / inst.n)
        else:
            sol = distributions.solve_max_quantile(
                inst, theory.adversarial_bound(g) if model == "adv" else theory.solve_p_gamma(g).value)
        got = (float(lines["theta"]), float(lines["tie_break_accept_prob"]))
        want = (float(f"{sol.theta:.15g}"), float(f"{sol.tie_break_accept_prob:.15g}"))
        return [] if got == want else [f"solve-threshold printed {got}, in-process {want}"]
    if step == "oracle":
        seq = decay.DecaySequence.from_dict(json.loads(opts["--decay"]))
        policy, value = _dp(inst, req["gamma"])
        ref = evaluation.brute_force_value(inst, policy, seq)
        printed = float(result["stdout"])
        failures = [] if printed == float(f"{ref:.15g}") else [
            f"oracle printed {printed!r}, in-process {ref!r}"]
        if not _close(ref, value):
            failures.append(f"oracle {ref!r} != DP {value!r}")
        return failures
    if step == "transform":
        m = int(opts["--m"])
        out = {"pad-adv": lambda: instances.zero_pad_adversarial(inst, m),
               "pad-ro": lambda: instances.zero_pad_random(inst, m),
               "dilute": lambda: instances.dilute_iid(inst.distributions[0], inst.n, m)}[argv[1]]()
        got = _read(workdir, argv[-1])
        return [] if got == out.to_json() + "\n" else ["transform output differs from in-process"]
    # simulate: the CSV parses, and re-running in-process gives the same text
    csv = _read(workdir, opts["--out"])
    header, row = csv.splitlines()
    fields = dict(zip(header.split(","), map(float, row.split(","))))
    if header != evaluation.REPORT_CSV_HEADER or fields["reps"] != int(opts["--reps"]):
        return [f"simulate wrote malformed CSV {csv!r}"]
    if not req.get("recheck"):
        return []
    seq = decay.DecaySequence.from_dict(json.loads(opts["--decay"]))
    policy = policies.policy_from_dict(json.loads(opts["--policy"]), inst)
    report = evaluation.monte_carlo(inst, policy, seq, int(opts["--reps"]), int(opts["--seed"]), 1)
    g = decay.gamma_of(seq)[0]
    lower, upper = evaluation.theory_bounds_for_order(inst.order, g)
    want = evaluation.report_csv_rows(
        [{"gamma": g, "report": report, "theory_lower": lower, "theory_upper": upper}])
    return [] if csv == want else [f"simulate CSV {csv!r} != in-process {want!r}"]

"""The repository benchmark: closed-loop experiments on one named workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout that holds ``src/lookback_prophet``.  One client sends
seeded requests back to back for ``--seconds`` (a closed loop), checks every
result, and prints one line per metric followed by a JSON summary as the last
line of standard output.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` wraps the
library's public functions (see tracer.py), reports per-layer self time and
counts, writes the spans to ``perfbench/out/``, and then replays the same
requests untraced to measure the tracing overhead (and, on ``mc_threshold``,
once more with two workers for the scaling efficiency of the process pool).

The exit code is 0 when the summary was printed (``correct`` says whether
every check passed) and 1, with no summary, when the library is missing from
the checkout or no experiment completed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
OUT = os.path.join(HERE, "out")
# setup_s is the median of this many fresh processes, each timed from its
# spawn to the end of its warm-up experiment.
SETUP_PROBES = 5

_now = time.perf_counter


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, run the warm-up experiment, print 'ready' and exit")
    return parser.parse_args(argv)


def load_spec() -> dict:
    """BENCHMARK.json: the workloads, and each metric's unit and bound."""
    with open(BENCHMARK, encoding="utf-8") as fh:
        return json.load(fh)


def import_library() -> float:
    """Import the package from this checkout; returns the seconds it took."""
    if not os.path.isfile(os.path.join(SRC, "lookback_prophet", "__init__.py")):
        raise SystemExit(f"error: no lookback_prophet package under {SRC}")
    sys.path.insert(0, SRC)
    start = _now()
    import lookback_prophet

    elapsed = _now() - start
    if not os.path.abspath(lookback_prophet.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported {lookback_prophet.__file__}, not the checkout's copy")
    return elapsed


class Harness:
    """One workload's request stream, scratch directory and results."""

    def __init__(self, workload: str, seed: int):
        import workloads

        self.wl = workloads
        os.makedirs(OUT, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
        self.stream = workloads.requests(workload, seed)
        self.done: list[tuple] = []  # (request, result or None, error or None)

    def run(self, req: dict, execute=None):
        try:
            return (execute or self.wl.execute)(req, self.workdir), None
        except Exception as exc:  # a failed request is counted, not fatal
            return None, f"{type(exc).__name__}: {exc}"

    def warm_up(self) -> None:
        req = next(self.stream)
        self.done.append((req, *self.run(req)))

    def closed_loop(self, seconds: float, execute=None, on_start=None):
        """Requests back to back until ``seconds`` have passed.

        Returns (wall seconds, latencies of the completed requests).
        """
        latencies = []
        start = _now()
        deadline = start + seconds
        while _now() < deadline:
            req = next(self.stream)
            if on_start is not None:
                on_start(len(self.done))
            t0 = _now()
            result, error = self.run(req, execute)
            t1 = _now()
            if error is None:
                latencies.append(t1 - t0)
            self.done.append((req, result, error))
        return _now() - start, latencies

    def replay(self, requests, failures: list, override=None) -> float:
        """Wall seconds to run ``requests`` again, untraced, back to back.

        Requests that raise are added to ``failures``.
        """
        start = _now()
        for req in requests:
            _, error = self.run(dict(req, **(override or {})))
            if error is not None:
                failures.append(f"replay of {req['kind']} {override or ''}: {error}")
        return _now() - start

    def failures(self) -> list[str]:
        """One message per experiment that raised or failed a check.

        An experiment whose estimate belongs to a group with a run-wide bias
        (``workloads.biased_groups``) fails too.
        """
        problems, errors = [], []  # errors: (experiment, mc_error tuple)
        for k, (req, result, error) in enumerate(self.done):
            if error is None:
                try:
                    found = self.wl.check(req, result, self.workdir)
                    if req["kind"] == "mc" and k % self.wl.PARALLEL_CHECK_EVERY == 1:
                        found += self.wl.check_worker_invariance(req, result)
                    mc_error = self.wl.mc_error(req, result)
                    if mc_error is not None:
                        errors.append((k, mc_error))
                except Exception as exc:  # a check that cannot run is a failure
                    found = [f"check raised {type(exc).__name__}: {exc}"]
            else:
                found = [error]
            problems.append(found)
        biased = self.wl.biased_groups(e for _, e in errors)
        for k, (group, *_) in errors:
            if group in biased:
                problems[k].append(biased[group])
        return [f"experiment {k} ({self.done[k][0]['kind']}): {found[0]}"
                for k, found in enumerate(problems) if found]

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


def setup_seconds(args) -> list[float]:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        start = _now()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            elapsed = _now() - start
            probe.stdout.read()
        if probe.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"error: setup probe failed ({probe.returncode}): {line!r}")
        samples.append(elapsed)
    return samples


def end_to_end(args, harness: Harness):
    """(metrics, info, failures) of an untraced closed loop."""
    wall, latencies = harness.closed_loop(args.seconds)
    rss = peak_rss_mb()
    if len(latencies) < 2:
        raise SystemExit("error: fewer than two experiments completed")
    failures = harness.failures()
    cuts = statistics.quantiles(latencies, n=10)
    metrics = {
        "exp_per_s": len(latencies) / wall,
        "exp_p50_ms": statistics.median(latencies) * 1e3,
        "exp_p90_ms": cuts[8] * 1e3,
        "setup_s": statistics.median(setup_seconds(args)),
        "peak_rss_mb": rss,
    }
    return metrics, {"samples": len(latencies), "wall_s": wall}, failures


def traced(args, harness: Harness, import_s: float):
    """(metrics, info, failures) of a traced closed loop and its untraced replays."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    traced_execute = tracer.wrap("harness.experiment", harness.wl.execute)
    first = len(harness.done)
    tracer.enabled = True
    try:
        wall, latencies = harness.closed_loop(
            args.seconds, traced_execute, lambda k: setattr(tracer, "experiment", k))
    finally:
        tracer.enabled = False
        tracer.uninstall()
    if not latencies:
        raise SystemExit("error: no experiment completed")
    with open(os.path.join(OUT, f"trace_{args.workload}_{args.seed}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "wall_s": wall,
                   "calls": tracer.calls, "self_s": tracer.self_s,
                   "spans": tracer.spans}, fh)
    failures = harness.failures()  # before the replays rewrite the CLI's files

    layer = tracer.layer_metrics(wall)
    timed = [req for req, _, _ in harness.done[first:]]
    untraced = harness.replay(timed, failures)
    layer["trace.overhead_frac"] = 1.0 - untraced / wall
    layer["setup.import_s"] = import_s
    layer["evaluation.scaling_eff"] = 0.0  # no fan-out to compare
    if args.workload == "mc_threshold":
        workers = harness.wl.PARALLEL_WORKERS
        parallel = harness.replay(timed, failures, {"workers": workers})
        layer["evaluation.scaling_eff"] = untraced / (workers * parallel)
    return layer, {"samples": len(timed), "untraced_wall_s": untraced}, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    section = load_spec()["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    import_s = import_library()
    harness = Harness(args.workload, args.seed)
    try:
        harness.warm_up()
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        if args.trace:
            metrics, info, failures = traced(args, harness, import_s)
        else:
            metrics, info, failures = end_to_end(args, harness)
    finally:
        harness.close()
    if set(metrics) != set(units):
        raise SystemExit(f"error: measured {sorted(metrics)}, BENCHMARK.json lists {sorted(units)}")

    attempted = len(harness.done)
    for message in failures:
        print(f"FAIL {message}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          + " ".join(f"{k} {v}" for k, v in info.items()))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"fail_frac {len(failures) / attempted:.6g} 1 ({len(failures)} of {attempted})")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

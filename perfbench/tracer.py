"""Outside-in layer tracer for the benchmark's traced run.

``Tracer.install`` replaces the library's public functions, from outside the
library, with wrappers that time each call.  That includes names a module
imports by value (``evaluation.expected_max``, ``evaluation.run_policy``,
``evaluation.ProcessPoolExecutor``, ``cli.solve_max_quantile``, ...), which
must be patched where they are looked up.  ``uninstall`` puts the originals
back.

Every wrapped call gets exclusive ("self") time: its duration minus the
durations of the wrapped calls made inside it, so the self times of all names
add up to the time spent in the outermost wrapped call, the
``harness.experiment`` span around each request.  Calls of the ``SPAN`` kind
also leave a span record ``[name, start, end, parent, experiment, attrs]`` in
memory; hot inner calls (``HOT``) are only counted, with their time.

Only the calling process is traced: forked pool workers run untraced, and the
parent sees their work as time inside the ``evaluation.pool`` span.
"""

from __future__ import annotations

import functools
import math
import os
import time
from collections import defaultdict

from lookback_prophet import (
    cli,
    decay,
    distributions,
    evaluation,
    instances,
    policies,
    theory,
)

LAYERS = ("distributions", "decay", "policies", "theory", "instances", "evaluation", "cli")
EXPERIMENT = "harness.experiment"

_now = time.perf_counter


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _mc_attrs(args, kwargs, result):
    return {"reps": _arg(args, kwargs, 3, "reps"), "workers": _arg(args, kwargs, 5, "workers", 1)}


def _paths_attrs(args, kwargs, result):
    """Enumerated paths of brute_force_value: outcomes x arrival orders."""
    inst = args[0]
    order = _arg(args, kwargs, 3, "order") or inst.order
    paths = math.prod(len(d.support) for d in inst.iter_dists())
    if order == "random":
        paths *= math.factorial(inst.n)
    return {"paths": paths}


def _dp_attrs(args, kwargs, result):
    tables = result[0]._tables
    if isinstance(tables, dict):
        return {"states": len(tables)}
    return {"states": sum(len(t) for t in tables if t)}


def _root_attrs(args, kwargs, result):
    return {"iterations": result.iterations}


# (owner, attribute, traced name, attrs) -- one record per call, kept as a span
SPAN = [
    (evaluation, "monte_carlo", "evaluation.monte_carlo", _mc_attrs),
    (evaluation, "brute_force_value", "evaluation.brute_force_value", _paths_attrs),
    (evaluation, "theory_bounds_for_order", "evaluation.theory_bounds_for_order", None),
    (evaluation, "report_csv_rows", "evaluation.report_csv_rows", None),
    (distributions, "expected_max", "distributions.expected_max", None),
    (evaluation, "expected_max", "distributions.expected_max", None),
    (distributions, "solve_max_quantile", "distributions.solve_max_quantile", None),
    (cli, "solve_max_quantile", "distributions.solve_max_quantile", None),
    (distributions.Instance, "from_json", "distributions.json", None),
    (distributions.Instance, "to_json", "distributions.json", None),
    (distributions.Instance, "from_dict", "distributions.json", None),
    (distributions.Instance, "to_dict", "distributions.json", None),
    (distributions.Distribution, "from_dict", "distributions.json", None),
    (distributions.Distribution, "to_dict", "distributions.json", None),
    (decay.DecaySequence, "from_dict", "decay.json", None),
    (decay, "validate", "decay.validate", None),
    (cli, "validate_decay_seq", "decay.validate", None),
    (policies, "dp_optimal_gamma_adversarial", "policies.dp_solve", _dp_attrs),
    (policies, "dp_optimal_gamma_iid", "policies.dp_solve", _dp_attrs),
    (policies, "dp_optimal_gamma_random_order", "policies.dp_solve", _dp_attrs),
    (policies, "policy_from_dict", "policies.json", None),
    (theory, "solve_p_gamma", "theory.root_solve", _root_attrs),
    (theory, "solve_a_n_gamma", "theory.root_solve", _root_attrs),
    (theory, "bound_table", "theory.bound_table", None),
    (theory, "bound_table_csv", "theory.bound_table_csv", None),
    (cli, "build_parser", "cli.build_parser", None),
    (cli, "main", "cli.main", None),
] + [
    (instances, fn, "instances.generate", None)
    for fn in ("adv_hard", "random_order_hard", "random_order_hard_a", "iid_hard",
               "iid_hard_params", "zero_pad_adversarial", "zero_pad_random",
               "dilute_iid", "rescale")
]

# (owner, attribute, traced name) -- counted with their time, no span records
HOT = [
    (evaluation, "child_rng", "evaluation.child_rng"),
    (evaluation, "run_policy", "policies.run_policy"),
    (policies, "run_policy", "policies.run_policy"),
    (decay, "evaluate", "decay.evaluate"),
    (decay, "sample_realization", "decay.sample_realization"),
    (decay, "expected_value", "decay.expected_value"),
    (decay, "gamma_of", "decay.gamma_of"),
    (cli, "gamma_of", "decay.gamma_of"),
] + [
    (cls, "stop_probability", "policies.stop_probability")
    for cls in (policies.ThresholdPolicy, policies.DPPolicyGamma,
                policies.RationalPolicy, policies.NeverStopPolicy)
]


class Tracer:
    """Self time per traced name, and spans, for the calls made while enabled."""

    def __init__(self):
        self.enabled = False
        self.experiment = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.spans: list[list] = []
        self._stack: list[list] = []  # open calls: [child seconds, span index or -1, start]
        self._saved: list[tuple] = []
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self):
        self.enabled = False

    # -- accounting

    def _open(self, name: str, span: bool) -> list:
        index = -1
        if span:
            parent = next((f[1] for f in reversed(self._stack) if f[1] >= 0), -1)
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.experiment, None])
        frame = [0.0, index, _now()]
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list) -> None:
        end = _now()
        self._stack.pop()
        duration = end - frame[2]
        if self._stack:
            self._stack[-1][0] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - frame[0]
        if frame[1] >= 0:
            self.spans[frame[1]][1:3] = frame[2], end

    def wrap(self, name: str, fn, span: bool = True, attrs=None):
        """``fn`` timed under ``name`` whenever the tracer is enabled."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = self._open(name, span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame)
            if attrs is not None:
                self.spans[frame[1]][5] = attrs(args, kwargs, result)
            return result

        return traced

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            """The evaluation pool, timed from entering its block to shutdown."""

            def __enter__(self):
                self._trace_frame = tracer._open("evaluation.pool", True) if tracer.enabled else None
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    if self._trace_frame is not None:
                        tracer._close("evaluation.pool", self._trace_frame)

        return TracedPool

    # -- patching

    def _patch(self, owner, attr: str, replace) -> None:
        raw = owner.__dict__[attr]
        self._saved.append((owner, attr, raw))
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(replace(raw.__func__)))
        else:
            setattr(owner, attr, replace(raw))

    def install(self) -> None:
        for owner, attr, name, attrs in SPAN:
            self._patch(owner, attr, lambda fn, n=name, a=attrs: self.wrap(n, fn, True, a))
        for owner, attr, name in HOT:
            self._patch(owner, attr, lambda fn, n=name: self.wrap(n, fn, False))
        self._patch(evaluation, "ProcessPoolExecutor", self._pool_class)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- results

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer numbers for a traced phase that lasted ``wall_s`` seconds."""
        by_name = defaultdict(list)
        for span in self.spans:
            by_name[span[0]].append(span)

        def total(name, key):
            return sum(s[5][key] for s in by_name[name] if s[5])

        def inclusive(name):
            return sum(s[2] - s[1] for s in by_name[name])

        reps = total("evaluation.monte_carlo", "reps")
        paths = total("evaluation.brute_force_value", "paths")
        pool_s = defaultdict(float)  # pool seconds by enclosing span index
        for span in by_name["evaluation.pool"]:
            pool_s[span[3]] += span[2] - span[1]
        serial_s = sum(  # the part of parallel monte_carlo calls outside the pool
            s[2] - s[1] - pool_s[i]
            for i, s in enumerate(self.spans)
            if s[0] == "evaluation.monte_carlo" and s[5] and s[5]["workers"] > 1
        )
        outside = wall_s - inclusive(EXPERIMENT)

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        m = {
            "evaluation.monte_carlo.self_s": self.self_s["evaluation.monte_carlo"],
            "evaluation.monte_carlo.reps_per_s": rate(reps, inclusive("evaluation.monte_carlo")),
            "evaluation.child_rng.calls": self.calls["evaluation.child_rng"],
            "evaluation.child_rng.per_rep": rate(self.calls["evaluation.child_rng"], reps),
            "evaluation.child_rng.self_s": self.self_s["evaluation.child_rng"],
            "evaluation.brute_force_value.self_s": self.self_s["evaluation.brute_force_value"],
            "evaluation.brute_force_value.paths": paths,
            "evaluation.brute_force_value.paths_per_s": rate(
                paths, inclusive("evaluation.brute_force_value")),
            "evaluation.pool.wall_s": inclusive("evaluation.pool"),
            "evaluation.pool.serial_s": serial_s,
            "policies.run_policy.self_s": self.self_s["policies.run_policy"],
            "policies.run_policy.calls": self.calls["policies.run_policy"],
            "policies.stop_probability.calls": self.calls["policies.stop_probability"],
            "policies.stop_probability.self_s": self.self_s["policies.stop_probability"],
            "policies.dp_solve.self_s": self.self_s["policies.dp_solve"],
            "policies.dp_solve.states": total("policies.dp_solve", "states"),
            "decay.sample_realization.calls": self.calls["decay.sample_realization"],
            "decay.sample_realization.self_s": self.self_s["decay.sample_realization"],
            "decay.evaluate.calls": self.calls["decay.evaluate"],
            "decay.evaluate.self_s": self.self_s["decay.evaluate"],
            "distributions.expected_max.self_s": self.self_s["distributions.expected_max"],
            "distributions.solve_max_quantile.self_s": self.self_s["distributions.solve_max_quantile"],
            "distributions.json.self_s": self.self_s["distributions.json"],
            "theory.root_solve.self_s": self.self_s["theory.root_solve"],
            "theory.root_solve.iterations": total("theory.root_solve", "iterations"),
            "theory.bound_table.self_s": self.self_s["theory.bound_table"],
            "instances.generate.self_s": self.self_s["instances.generate"],
            "cli.main.self_s": self.self_s["cli.main"],
            "cli.build_parser.self_s": self.self_s["cli.build_parser"],
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(
                v for k, v in self.self_s.items() if k.startswith(layer + "."))
        m["harness.self_s"] = self.self_s[EXPERIMENT] + outside
        m["trace.wall_s"] = wall_s
        m["trace.experiments"] = len(by_name[EXPERIMENT])
        m["trace.spans"] = len(self.spans)
        return m

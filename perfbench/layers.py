"""Per-layer measurement: call tracing and microbenchmarks.

The layers are the ``sldsim`` modules in ``LAYERS``. Tracing happens only
here, from outside the package: :class:`Tracer` rebinds every public
function of those modules, in every ``sldsim`` module namespace that
holds it, to a wrapper that times the call. Spans are aggregated per
function as they close (calls, inclusive time, self time), because
per-step functions are called millions of times in one workload.

The microbenchmarks time single layer operations on fixed inputs, warm
up once and report the median of ``REPEATS`` timings.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import Counter

LAYERS = ("model", "ergodicity", "regen", "bounds", "sweep", "config", "cli")

REPEATS = 5

# Functions whose per-call durations are kept, for percentiles.
KEEP_DURATIONS = ("sweep.pseudo_sample_complexity",)

# Output writers; their self times add up to the time spent writing
# results (``config.fmt`` formats every CSV number, including the CLI's).
WRITERS = ("config.fmt", "config.write_manifest", "config.write_trajectory_csv",
           "config.save_model_config", "config.sha256_of_text",
           "config.sha256_of_file", "sweep.write_raw_csv",
           "sweep.write_agg_csv")


def _observe_trial(counts, args, kwargs, result, exc) -> None:
    from sldsim.errors import MaxStepsExceeded

    counts["sweep.trials"] += 1
    if isinstance(exc, MaxStepsExceeded):
        counts["sweep.steps"] += exc.cap
    elif exc is None:
        counts["sweep.steps"] += result + 1


def _observe_split_chain(counts, args, kwargs, result, exc) -> None:
    import numpy as np

    if exc is not None:
        return
    minor = args[2] if len(args) > 2 else kwargs["minor"]
    counts["regen.steps"] += len(result.states)
    counts["regen.regenerations"] += len(result.taus)
    counts["regen.in_small_set"] += int(np.count_nonzero(
        np.linalg.norm(result.states, axis=1) <= minor.s_radius))


def _observe_validation(counts, args, kwargs, result, exc) -> None:
    if exc is None:
        counts["bounds.n_used"] = result.n_used
        counts["bounds.steps"] += result.trials * (result.n_used + 1)


OBSERVERS = {
    "sweep.pseudo_sample_complexity": _observe_trial,
    "regen.simulate_regenerative": _observe_split_chain,
    "bounds.validate_bound": _observe_validation,
}


class Tracer:
    """Wraps the public functions of the layer modules while installed."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}      # name -> [calls, total_s, self_s]
        self.durations = {name: [] for name in KEEP_DURATIONS}
        self.counts: Counter = Counter()
        self._stack: list[float] = []         # child time of each open span
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"sldsim.{layer}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for name, mod in list(sys.modules.items()):
            if name != "sldsim" and not name.startswith("sldsim."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        return self

    def __exit__(self, *exc_info) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        durations = self.durations.get(name)
        observe = OBSERVERS.get(name)
        counts = self.counts
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child
                if durations is not None:
                    durations.append(dt)
                if observe is not None:
                    observe(counts, args, kwargs, result, exc)

        return span

    def total(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def table(self) -> dict[str, dict]:
        return {name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.stats.items()) if c}


def span_metrics(trace: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced repetition of every workload.

    ``ergodicity.*`` covers only the certifications inside the timed
    calls (every golden cell in ``run_pipeline``, the polyhedral model in
    ``cli.main``), so each is counted once.
    """
    c = trace.counts
    steps = c["regen.steps"]
    validate_s = trace.total("bounds.validate_bound")
    # A failed repetition leaves counts at 0; its error is reported.
    trial_ms = sorted(d * 1e3 for d in trace.durations[KEEP_DURATIONS[0]])
    pct = (statistics.quantiles(trial_ms, n=100, method="inclusive")
           if len(trial_ms) > 1 else [0.0] * 99)
    return {
        "ergodicity.certify_s": trace.total("ergodicity.certify"),
        "ergodicity.classify_s": trace.total("ergodicity.classify_regions"),
        "regen.simulate_regenerative_s":
            trace.total("regen.simulate_regenerative"),
        "regen.estimate_all_s": trace.total("regen.estimate_all"),
        "regen.steps": steps,
        "regen.regenerations": c["regen.regenerations"],
        "regen.small_set_frac": _ratio(c["regen.in_small_set"], steps),
        "regen.regen_per_kstep":
            1e3 * _ratio(c["regen.regenerations"], steps),
        "bounds.validate_bound_s": validate_s,
        "bounds.validate_ns_per_step":
            1e9 * _ratio(validate_s, c["bounds.steps"]),
        "bounds.n_used": c["bounds.n_used"],
        "sweep.sweep_dimension_s": trace.total("sweep.sweep_dimension"),
        "sweep.sweep_gamma_s": trace.total("sweep.sweep_gamma"),
        "sweep.trials": c["sweep.trials"],
        "sweep.steps": c["sweep.steps"],
        "sweep.trial_ms.p50": pct[49],
        "sweep.trial_ms.p99": pct[98],
        "config.write_s": sum(trace.self_time(w) for w in WRITERS),
        "cli.main_s": trace.total("cli.main"),
        "cli.self_s": trace.self_time("cli.main"),
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _median_ns(fn, units: int) -> float:
    """Median wall time of ``fn()`` per unit of work, in ns, after a warm-up."""
    fn()
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) / units)
    return statistics.median(samples) * 1e9


def microbenchmarks(poly_config) -> dict[str, float]:
    """ns per call or per chain-step for single layer operations."""
    import numpy as np

    from sldsim import (
        build_case_study,
        certify,
        classify_regions,
        closed_loop,
        load_model_config,
        operational_minorization,
        pseudo_sample_complexity,
        reference_reward_average,
        region_of,
        reward,
        simulate,
        split_step,
    )

    def rng(seed: int = 0):
        return np.random.default_rng(seed)

    def case(n: int):
        model, policy, spec = build_case_study(n, 0.9, 2.0, 10.0)
        return model, closed_loop(model, policy), spec

    def lookups(model, states):
        def run():
            for x in states:
                region_of(model, x)
        return _median_ns(run, len(states))

    def splits(model, cl, minor, states):
        beta = minor.beta()

        def run():
            r = rng(2)
            for x in states:
                split_step(x, cl, model, minor, beta, r)
        return _median_ns(run, len(states))

    out = {}
    # Inputs are states of the chain itself, so lookups see the region mix
    # of a run: the radial chain circles the rho=10 shell boundary.
    for n in (1, 10, 100):
        model, cl, spec = case(n)
        states = simulate(cl, model, spec, np.zeros(n), 512, rng()).states
        out[f"model.region_of_ns.radial.n{n}"] = lookups(model, states)
        out[f"model.simulate_ns_per_step.n{n}"] = _median_ns(
            lambda: simulate(cl, model, spec, np.zeros(n), 2000, rng(1)), 1999)
        if n == 10:
            def rewards(states=states, spec=spec):
                for x in states:
                    reward(x, spec)
            out["model.reward_ns.n10"] = _median_ns(rewards, len(states))
        # This chain never enters its small set, so split steps inside it
        # start from draws of the regeneration measure instead.
        cert = certify(cl, classify_regions(model, 10.0), 10.0, n)
        minor = operational_minorization(cert)
        draws = rng(3)
        inside = [minor.sample(draws) for _ in range(256)]
        out[f"regen.split_step_ns.radial.n{n}"] = splits(model, cl, minor,
                                                         inside)

    cfg = load_model_config(poly_config)
    model = cfg.model
    cl = closed_loop(model, cfg.policy)
    states = simulate(cl, model, cfg.reward, np.zeros(model.n), 2048,
                      rng()).states
    out["model.region_of_ns.poly4"] = lookups(model, states[:512])
    cert = certify(cl, classify_regions(model, cfg.rho_ball), cfg.rho_ball,
                   model.n)
    minor = operational_minorization(cert)
    inside = np.linalg.norm(states, axis=1) <= minor.s_radius
    out["regen.split_step_ns.inside"] = splits(model, cl, minor,
                                               states[inside])
    out["regen.split_step_ns.outside"] = splits(model, cl, minor,
                                                states[~inside])

    for n in (1, 10, 50, 100, 200):
        model, cl, spec = case(n)
        seeds = range(20)
        steps = sum(pseudo_sample_complexity(cl, model, spec, 1e-3, rng(s),
                                             10**6) + 1 for s in seeds)

        def trials(model=model, cl=cl, spec=spec):
            for s in seeds:
                pseudo_sample_complexity(cl, model, spec, 1e-3, rng(s), 10**6)
        out[f"sweep.pseudo_sample_complexity_ns_per_step.n{n}"] = \
            _median_ns(trials, steps)

    model, cl, spec = case(1)
    out["sweep.reference_ns_per_step"] = _median_ns(
        lambda: reference_reward_average(cl, model, spec, 200_000, rng()),
        200_000)
    return out

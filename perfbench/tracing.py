"""Per-layer spans and counters for the traced run, recorded from outside the program.

Each traced public function is replaced, in every ``mfcpoisson`` module
namespace that holds it, by a wrapper that times the call.  A wrapper
subtracts the time of wrapped calls nested inside it, so ``self_s`` is a
span's duration minus the part its child spans cover.  Constructions are
counted by wrapping a class's ``__post_init__``.  Counts are read from the
objects the functions return or receive (cloud grids, event logs, task
lists, CSV rows).  Spans are aggregated by name in memory, because the hot
loop opens hundreds of thousands of them per round.

A target the program no longer defines is skipped and reads zero, so a
refactor that renames a function shows up as a count falling to zero
instead of a crashed benchmark.
"""
from __future__ import annotations

import functools
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

MB = float(1 << 20)

#: (module, function) pairs timed per call.
FUNCTIONS = [
    ("config", "parse_config"),
    ("lq", "solve_riccati"),
    ("lq", "optimal_control"),
    ("simulate", "simulate_strict"),
    ("simulate", "simulate_relaxed"),
    ("simulate", "cost_of_cloud"),
    ("measures", "transport_cost"),
    ("measureflow", "aggregate_coeffs"),
    ("measureflow", "apply_A1"),
    ("measureflow", "shift_adjoint"),
    ("measureflow", "fp_step"),
    ("coefficients", "hamiltonian_strict"),
    ("coefficients", "delta_hamiltonian_strict"),
    ("verify", "check_smp"),
    ("verify", "check_hjb"),
    ("verify", "check_bsde"),
    ("verify", "check_optimality"),
    ("verify", "compare_noise_modes"),
    ("experiments", "run_cost_tasks"),
    ("experiments", "write_csv"),
]
#: (module, class) pairs whose constructions are counted.
CLASSES = [("measures", "JointEmpiricalMeasure"), ("measures", "EmpiricalMeasure")]

#: every phase of every workload, named as the CLI subcommand it runs.
PHASES = [
    "verify-optimality", "chattering", "cost",
    "verify-smp", "verify-hjb", "verify-bsde", "simulate", "fp-pairings", "fm-distance",
    "compare-noise",
]


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _count_cloud(tracer, cloud, args, kwargs):
    steps = cloud.grid.n_steps
    tracer.counts["simulate.grid_steps"] += steps
    tracer.counts["simulate.poisson_events"] += len(cloud.event_log)
    tracer.counts["simulate.particle_steps"] += steps * cloud.n_particles
    history = cloud.states.nbytes + sum(a.nbytes for a in cloud.pre_jump_states.values())
    if cloud.controls is not None:
        history += cloud.controls.nbytes
    tracer.counts["simulate.history_mb"] = max(
        tracer.counts["simulate.history_mb"], history / MB
    )


def _count_tasks(tracer, result, args, kwargs):
    tracer.counts["experiments.cost_tasks"] += len(_arg(args, kwargs, 1, "tasks"))


def _count_csv(tracer, result, args, kwargs):
    path = _arg(args, kwargs, 0, "path")
    rows = _arg(args, kwargs, 3, "rows")
    if hasattr(rows, "__len__"):
        n_rows = len(rows)
    else:  # a streamed writer: count the data lines it wrote
        with open(path) as fh:
            n_rows = sum(1 for line in fh if not line.startswith("#")) - 1
    tracer.counts["experiments.csv_rows"] += n_rows
    tracer.counts["experiments.csv_mb"] += os.path.getsize(path) / MB


COUNTERS = {
    "simulate.simulate_strict": _count_cloud,
    "simulate.simulate_relaxed": _count_cloud,
    "experiments.run_cost_tasks": _count_tasks,
    "experiments.write_csv": _count_csv,
}


class Tracer:
    """Span aggregates and counters of one traced round."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack = []
        self._undo = []

    def _enter(self):
        self._stack.append(0.0)
        return perf_counter()

    def _exit(self, name, start):
        elapsed = perf_counter() - start
        children = self._stack.pop()
        if self._stack:
            self._stack[-1] += elapsed
        self.calls[name] += 1
        self.total[name] += elapsed
        self.self_time[name] += elapsed - children

    @contextmanager
    def span(self, name):
        start = self._enter()
        try:
            yield
        finally:
            self._exit(name, start)

    def _wrap(self, name, fn, on_return=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, start)
            if on_return is not None:
                on_return(self, result, args, kwargs)
            return result

        return wrapper

    def install(self):
        """Patch every target; :meth:`restore` undoes it."""
        modules = [
            m for key, m in sys.modules.items()
            if key == "mfcpoisson" or key.startswith("mfcpoisson.")
        ]
        for module, attr in FUNCTIONS:
            original = getattr(sys.modules.get(f"mfcpoisson.{module}"), attr, None)
            if original is None:
                continue
            name = f"{module}.{attr}"
            wrapper = self._wrap(name, original, COUNTERS.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))
        for module, cls_name in CLASSES:
            cls = getattr(sys.modules.get(f"mfcpoisson.{module}"), cls_name, None)
            original = getattr(cls, "__dict__", {}).get("__post_init__")
            if original is None:
                continue
            setattr(cls, "__post_init__", self._wrap(f"{module}.{cls_name}", original))
            self._undo.append((cls, "__post_init__", original))

    def restore(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        out = {}
        for module, attr in FUNCTIONS:
            name = f"{module}.{attr}"
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_time[name], "s")
        for module, cls_name in CLASSES:
            name = f"{module}.{cls_name}"
            out[f"{name}.constructions"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_time[name], "s")
        sim_time = self.total["simulate.simulate_strict"] + self.total["simulate.simulate_relaxed"]
        c = self.counts
        out["simulate.grid_steps"] = (int(c["simulate.grid_steps"]), "count")
        out["simulate.poisson_events"] = (int(c["simulate.poisson_events"]), "count")
        out["simulate.history_mb"] = (c["simulate.history_mb"], "MB")
        out["simulate.particle_steps_per_s"] = (
            c["simulate.particle_steps"] / sim_time if sim_time > 0 else 0.0, "1/s"
        )
        out["experiments.cost_tasks"] = (int(c["experiments.cost_tasks"]), "count")
        out["experiments.csv_rows"] = (int(c["experiments.csv_rows"]), "count")
        out["experiments.csv_mb"] = (c["experiments.csv_mb"], "MB")
        for phase in PHASES:
            out[f"phase.{phase}.wall_s"] = (self.total[f"phase.{phase}"], "s")
        return out

"""Conditional particle Monte Carlo under Poisson jump noise.

A scenario is one realization of the driving Poisson randomness.  Under
``common`` noise every particle shares one Poisson path and the particle
cloud approximates the conditional law given that path; under
``idiosyncratic`` noise each particle carries its own path and the cloud
approximates the plain law.  Either way the simulation is an explicit
Euler scheme with the compensator in the drift.  The two regimes differ
only in which particles an event moves: every particle under common noise,
so the conditional law jumps, and only its owner under idiosyncratic noise.
An event at t in (t_k, t_{k+1}] ends its step at node k + 1, and every
jump of a step reads the end-of-step cloud and law.  Common noise runs on a
jump-adapted grid, where every event time is a node, so its one event of a
node lands at its exact time.  Idiosyncratic noise runs on the uniform
grid, so step count and memory do not grow with the number of particles; a
jump moves the law by O(1/N), so this stays consistent with Euler at order
dt.  A scenario's per-particle events are drawn into flat arrays, with the
draws of one :func:`sample_poisson_path` call per particle in their order
but no path object.

Randomness comes from counter-based Philox streams keyed by
``(seed, scenario, purpose)`` with purposes ``init`` / ``brownian`` /
``poisson``; particles consume fixed lanes of vectorized draws.  Identical
keys reproduce bit-identical clouds, and control variants under one key see
identical noise, which is what the paired cost comparisons rely on.
Because a scenario's draws depend on nothing but its key, scenarios can run
in any order on any worker: :func:`map_blocks` hands each worker one
contiguous block of them.

Rules and scenarios run in lock-step.  Every run is one (rows, N) cloud in
one Euler loop: :func:`simulate_records` advances R strict rules on each of S
scenarios as its S·R rows, and a single rule on a single scenario is its one
row.  Each rule is called on its own row, except that rules derived from one
shared feedback (:meth:`FeedbackRule.derived`, such as the LQ optimum and its
gain and offset perturbations) share one call on their stacked rows, and slab
rules over one constant relaxed rule share its atoms; each scenario draws its
own Brownian vector per step, and the coefficients are evaluated once on the
whole array.  Coefficient evaluators must therefore be elementwise, and the
law they see carries only ``rho.mean_state[0]`` and ``rho.mean_control[0]``,
as (rows, 1) columns.  Each row's means are the same dot products that a run
of its rule alone forms, and each scenario takes the steps of its own grid,
so every record of a block equals the record of its scenario alone bit for
bit, and every row of a paired record that of its rule alone.  When a
lock-step run fails, each (scenario, rule) pair is replayed alone, scenario
by scenario and the rules of a scenario in order, and the first that fails
alone reports the failure.

Memory is bounded by one batch of scenarios.  Only :func:`simulate_strict`
and :func:`simulate_relaxed` keep the ``(steps + 1) x N`` history of a
:class:`ParticleCloud`; every other run is history-free and goes through
:func:`simulate_records`, of which :func:`simulate_record` is the
one-scenario case.  It holds the current clouds and returns a
:class:`ScenarioRecord` per scenario: the sample costs, the cloud mean at
every node and the event log, the same numbers a cloud's history gives.
"""
from __future__ import annotations

import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .coefficients import CoefficientSet
from .errors import DivergenceError
from .measures import EmpiricalMeasure, JointEmpiricalMeasure, RelaxedKernel, joint_with_kernel

_PURPOSES = {"init": 0, "brownian": 1, "poisson": 2}


def substream(seed: int, scenario: int, purpose: str) -> np.random.Generator:
    """Independent counter-based generator for one (scenario, purpose) pair."""
    key = np.random.SeedSequence(
        entropy=int(seed), spawn_key=(int(scenario), _PURPOSES[purpose])
    )
    return np.random.Generator(np.random.Philox(key))


@dataclass(frozen=True)
class PoissonPath:
    """One realization of the driving Poisson random measure."""

    times: np.ndarray
    marks: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        marks = np.asarray(self.marks, dtype=int)
        if times.shape != marks.shape:
            raise ValueError("times and marks need equal length")
        if times.size and (np.any(np.diff(times) <= 0) or times[0] <= 0):
            raise ValueError("event times must be strictly increasing and positive")
        times.setflags(write=False)
        marks.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "marks", marks)

    @property
    def n_events(self) -> int:
        return self.times.shape[0]


def sample_poisson_path(jumps, T: float, gen: np.random.Generator) -> PoissonPath:
    """Exponential interarrivals at the total rate, categorical marks."""
    lam = jumps.total_intensity if jumps.n_marks else 0.0
    if lam <= 0.0:
        return PoissonPath(np.empty(0), np.empty(0, dtype=int))
    times = []
    t = 0.0
    while True:
        t += gen.exponential(1.0 / lam)
        if t > T:
            break
        times.append(t)
    times = np.asarray(times)
    if times.size and jumps.n_marks > 1:
        marks = gen.choice(jumps.n_marks, size=times.size, p=jumps.mark_probs)
    else:
        marks = np.zeros(times.size, dtype=int)
    return PoissonPath(times, marks)


def _draw_events(jumps, T: float, n: int, gen: np.random.Generator):
    """The events of ``n`` per-particle paths as flat ``(times, marks, counts)``:
    particle i owns the ``counts[i]`` events after those of particles 0..i-1.

    It makes the draws of ``[sample_poisson_path(jumps, T, gen) for _ in
    range(n)]`` in their order, the same scalar exponentials and, with more
    than one mark, each particle's ``choice`` call after its times, and checks
    the times once, as :class:`PoissonPath` checks each path.
    """
    lam = jumps.total_intensity if jumps.n_marks else 0.0
    if lam <= 0.0:
        return np.empty(0), np.empty(0, dtype=int), np.zeros(n, dtype=int)
    exponential, scale = gen.exponential, 1.0 / lam
    n_marks, probs = jumps.n_marks, jumps.mark_probs
    times, marks, counts = [], [], []
    for _ in range(n):
        start = len(times)
        t = exponential(scale)
        while t <= T:
            times.append(t)
            t += exponential(scale)
        count = len(times) - start
        counts.append(count)
        if count and n_marks > 1:
            marks.append(gen.choice(n_marks, size=count, p=probs))
    times, counts = np.array(times), np.array(counts, dtype=int)
    marks = np.concatenate(marks) if marks else np.zeros(times.size, dtype=int)
    # each time must exceed its particle's previous one, or 0 for its first
    prev = np.empty_like(times)
    prev[1:] = times[:-1]
    prev[(np.cumsum(counts) - counts)[counts > 0]] = 0.0
    if np.any(times <= prev):
        raise ValueError("event times must be strictly increasing and positive")
    return times, marks, counts


@dataclass(frozen=True)
class TimeGrid:
    """Ordered nodes 0 = t_0 < ... < t_M = T.

    Under common noise the grid holds every event time; under idiosyncratic
    noise it is the uniform grid and events fall between nodes.
    """

    times: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.size < 2 or times[0] != 0.0 or np.any(np.diff(times) <= 0):
            raise ValueError("grid needs 0 = t_0 < ... < t_M")
        times.setflags(write=False)
        object.__setattr__(self, "times", times)

    @property
    def n_steps(self) -> int:
        return self.times.shape[0] - 1

    def node_of(self, t: float) -> int:
        idx = int(np.searchsorted(self.times, t))
        if idx >= self.times.size or self.times[idx] != t:
            raise ValueError(f"time {t!r} is not a grid node")
        return idx


def build_grid(T: float, dt: float, event_times=()) -> TimeGrid:
    """Uniform grid of spacing <= dt merged with the exact event times."""
    if dt <= 0 or T <= 0:
        raise ValueError("need positive horizon and step")
    base = np.linspace(0.0, T, int(math.ceil(T / dt)) + 1)
    events = np.asarray(event_times, dtype=float)
    if events.size:
        if np.any(events <= 0) or np.any(events > T):
            raise ValueError("event times must lie in (0, T]")
        return TimeGrid(np.union1d(base, events))
    return TimeGrid(base)


# ---------------------------------------------------------------------------
# Control rules
# ---------------------------------------------------------------------------

class FeedbackRule:
    """Strict feedback control u = fn(t, states, cloud mean), vectorized.

    A rule made by :meth:`derived` plays a shared feedback ``base``, alone
    or scaled by a gain or shifted by an offset.  Paired rows whose derived
    rules share one ``base`` object get one ``base`` call on their stacked
    rows, with their cloud means as an (R, 1) column, so ``base`` must be
    elementwise; each scaled or shifted row is then multiplied or added to
    in place, which gives the bits of its own ``fn`` call, and a row that
    plays ``base`` alone is left as ``base`` returned it.  Every other rule
    is called on its own row.
    """

    kind = "strict"

    def __init__(self, fn: Callable):
        self.fn = fn
        self.base = None  # the shared feedback of a derived rule
        self.gain = None
        self.offset = None

    def evaluate(self, t, states, cond_mean):
        u = np.asarray(self.fn(t, states, cond_mean), dtype=float)
        if u.shape != states.shape:
            u = np.broadcast_to(u, states.shape)
        return u

    @classmethod
    def constant(cls, value: float) -> "FeedbackRule":
        return cls(lambda t, x, m: np.full_like(x, float(value)))

    @classmethod
    def derived(cls, base: Callable, gain=None, offset=None) -> "FeedbackRule":
        """The rule ``gain * base``, ``base + offset`` or, given neither, ``base``."""
        if gain is not None and offset is not None:
            raise ValueError("a derived rule takes a gain or an offset, not both")
        if gain is not None:
            rule = cls(lambda t, x, m: gain * base(t, x, m))
        elif offset is not None:
            rule = cls(lambda t, x, m: base(t, x, m) + offset)
        else:
            rule = cls(base)
        rule.base, rule.gain, rule.offset = base, gain, offset
        return rule


class RelaxedRule:
    """Measure-valued control: fn(t, states, mean) -> (support, weights).

    ``support`` is (A,) shared across particles or (N, A) per particle;
    ``weights`` likewise.  Supports must be finite, weights finite and
    nonnegative, and rows are normalized; a nonpositive row total is a
    normalization failure.

    A rule made by :meth:`constant` with shared atoms validates them on its
    first call and keeps the result: later calls return the same read-only
    normalized atoms, (N, A) rows built once per cloud size, and cumulative
    weights for :class:`ChatteringRule`.  A rule built from a general ``fn``
    calls it, and validates its result, on every call.
    """

    kind = "relaxed"

    def __init__(self, fn: Callable):
        self.fn = fn
        self._constant = False
        self._shared = None  # (support, weights, cumulative weights), once validated
        self._rows = {}  # cloud size -> read-only (N, A) support and weight rows

    def atoms(self, t, states, cond_mean):
        """Normalized (support, weights): 1-D when both are shared atoms, else rows."""
        if self._shared is not None:
            return self._shared[:2]
        support, weights = self._validated_atoms(t, states, cond_mean)
        if self._constant and support.ndim == 1:
            cum = np.cumsum(weights)
            for arr in (support, weights, cum):
                arr.setflags(write=False)
            self._shared = (support, weights, cum)
        return support, weights

    def slab_atoms(self, t, states, cond_mean):
        """Normalized support and cumulative weights, for :class:`ChatteringRule`."""
        support, weights = self.atoms(t, states, cond_mean)
        if self._shared is not None:
            return support, self._shared[2]
        return support, np.cumsum(weights, axis=-1)

    def _validated_atoms(self, t, states, cond_mean):
        support, weights = self.fn(t, states, cond_mean)
        support = np.atleast_1d(np.asarray(support, dtype=float))
        weights = np.atleast_1d(np.asarray(weights, dtype=float))
        if not np.isfinite(support).all():
            raise ValueError(f"relaxed support must be finite at t={t:.6g}")
        # written so that NaN fails each test
        if not np.all((weights >= 0) & np.isfinite(weights)):
            raise ValueError("relaxed control weights must be finite and nonnegative")
        if support.ndim == 1 and weights.ndim == 1:
            if support.shape != weights.shape:
                raise ValueError("support/weights shapes do not match the cloud")
            total = weights.sum()
            if not total > 0:
                raise ValueError("relaxed control weights must have positive total")
            return support, weights / total
        if support.ndim == 1:
            support = np.broadcast_to(support, (states.shape[0], support.shape[0]))
        if weights.ndim == 1:
            weights = np.broadcast_to(weights, (states.shape[0], weights.shape[0]))
        if support.shape != weights.shape or support.shape[0] != states.shape[0]:
            raise ValueError("support/weights shapes do not match the cloud")
        totals = weights.sum(axis=1)
        if not np.all(totals > 0):
            raise ValueError("relaxed control weights must have positive total")
        return support, weights / totals[:, None]

    def evaluate(self, t, states, cond_mean):
        """Per-particle (support, weights) rows, each of shape (N, A).

        Shared atoms come as broadcast views, or, for a constant rule, as
        contiguous read-only rows built once per cloud size.
        """
        support, weights = self.atoms(t, states, cond_mean)
        if support.ndim == 2:
            return support, weights
        n = states.shape[0]
        if self._shared is None:
            shape = (n, support.shape[0])
            return np.broadcast_to(support, shape), np.broadcast_to(weights, shape)
        rows = self._rows.get(n)
        if rows is None:
            rows = tuple(np.tile(arr, (n, 1)) for arr in (support, weights))
            for arr in rows:
                arr.setflags(write=False)
            self._rows[n] = rows
        return rows

    @classmethod
    def constant(cls, support, weights) -> "RelaxedRule":
        """The rule playing the same atoms everywhere; it keeps copies of them."""
        support = np.array(support, dtype=float)
        weights = np.array(weights, dtype=float)
        for arr in (support, weights):
            arr.setflags(write=False)
        rule = cls(lambda t, x, m: (support, weights))
        rule._constant = True
        return rule


class ChatteringRule:
    """Strict rule cycling through a relaxed rule's atoms within time slabs.

    The horizon splits into ``n_slabs`` equal slabs; inside a slab the atom
    whose cumulative weight bracket contains the slab phase is played, so each
    atom occupies a sub-interval proportional to its weight.  Over a constant
    relaxed rule the cumulative weights are the rule's cached ones, and the
    slab rules over it in one lock-step run share one ``slab_atoms`` call
    per step, each then playing its atoms by :meth:`play`.
    """

    kind = "strict"

    def __init__(self, relaxed: RelaxedRule, n_slabs: int, horizon: float):
        if n_slabs < 1:
            raise ValueError("need at least one slab")
        self.relaxed = relaxed
        self.n_slabs = int(n_slabs)
        self.horizon = float(horizon)

    def evaluate(self, t, states, cond_mean):
        support, cum = self.relaxed.slab_atoms(t, states, cond_mean)
        return self.play(t, support, cum, states.shape[0])

    def play(self, t, support, cum, n):
        """The controls of ``n`` particles at ``t``, given the relaxed rule's
        support and cumulative weights."""
        slab = self.horizon / self.n_slabs
        theta = (t / slab) % 1.0
        if support.ndim == 1:
            idx = min(int((cum <= theta).sum()), support.shape[0] - 1)
            return np.full(n, support[idx])
        idx = np.minimum((cum <= theta).sum(axis=1), support.shape[1] - 1)
        return support[np.arange(n), idx]


# ---------------------------------------------------------------------------
# Initial condition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InitSpec:
    """Initial state law; gaussian or a finite atom list."""

    kind: str = "gaussian"
    mean: float = 0.0
    std: float = 1.0
    atoms: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None

    @classmethod
    def from_config(cls, data: dict) -> "InitSpec":
        kind = data.get("kind", "gaussian")
        if kind == "gaussian":
            return cls("gaussian", float(data["mean"]), float(data["std"]))
        if kind == "atoms":
            return cls(
                "atoms",
                atoms=np.asarray(data["atoms"], dtype=float),
                weights=np.asarray(data["weights"], dtype=float),
            )
        raise ValueError(f"unknown init kind {kind!r}")

    def sample(self, n: int, gen: np.random.Generator) -> np.ndarray:
        if self.kind == "gaussian":
            return self.mean + self.std * gen.standard_normal(n)
        idx = gen.choice(len(self.atoms), size=n, p=self.weights / self.weights.sum())
        return np.asarray(self.atoms, dtype=float)[idx]


# ---------------------------------------------------------------------------
# Particle cloud
# ---------------------------------------------------------------------------

@dataclass
class ParticleCloud:
    """States, controls and jump bookkeeping of one simulated scenario.

    ``states[k]`` holds the cloud at node k (post-jump).  ``controls[k]`` is
    the strict control on [t_k, t_{k+1}); for relaxed runs
    ``relaxed_controls[k]`` keeps the step's :class:`RelaxedKernel` instead.
    ``pre_jump_states[k]`` stores the cloud right before the jumps applied at
    node k, so measure-level jump operators can be checked exactly, and
    ``event_log`` holds one (node, mark, shift of the cloud mean) entry per
    event.  A common jump lands at its exact node; an idiosyncratic jump at
    the end of its step.

    The history takes ``(steps + 1) x N`` floats for the states and as many
    for the controls; a check that needs only costs, node means or the event
    log reads the :class:`ScenarioRecord` of a history-free run instead.
    """

    grid: TimeGrid
    states: np.ndarray
    mode: str
    seed: int
    scenario: int
    path: Optional[PoissonPath] = None
    paths: Optional[list] = None
    controls: Optional[np.ndarray] = None
    relaxed_controls: Optional[list] = None
    pre_jump_states: dict = field(default_factory=dict)
    event_log: list = field(default_factory=list)  # (node, mark, mean displacement)

    @property
    def n_particles(self) -> int:
        return self.states.shape[1]

    @property
    def times(self) -> np.ndarray:
        return self.grid.times

    def measure_at(self, node: int) -> EmpiricalMeasure:
        return EmpiricalMeasure.from_samples(self.states[node])

    def joint_at(self, node: int) -> JointEmpiricalMeasure:
        """Validated strict joint of the cloud and its control at a node; a
        relaxed control gives the Bayes product of :func:`joint_with_kernel`."""
        node = min(node, self.grid.n_steps - 1)
        control = self.control_at(node)
        if isinstance(control, RelaxedKernel):
            rho = joint_with_kernel(EmpiricalMeasure.from_samples(self.states[node]), control)
            return JointEmpiricalMeasure.strict(rho.states, rho.controls, rho.weights)
        return JointEmpiricalMeasure.strict(self.states[node], control)

    def control_at(self, k: int):
        """The strict control array or the relaxed kernel of step k."""
        return self.controls[k] if self.controls is not None else self.relaxed_controls[k]


@dataclass
class ScenarioRecord:
    """What a history-free run keeps of one scenario.

    ``costs`` holds one sample cost per rule.  ``means[k]`` is the cloud
    mean at node k (post-jump), and ``event_log`` holds one (node, mark,
    shift of the cloud mean) entry per event, as in :class:`ParticleCloud`.
    Means and shifts are floats for one rule, and hold one value per rule
    for paired rules.  For one rule they equal the cloud's
    ``states.mean(axis=1)`` and ``event_log`` bit for bit.
    """

    costs: list
    means: np.ndarray
    event_log: list


class _PairedLaw:
    """The law view of every step of the loop: the joint law of each row of a
    (rows, N) cloud ``x`` and its control, reduced to its two means.

    Strict evaluators see ``mean_state[0]`` and ``mean_control[0]`` as
    (rows, 1) columns.  Row r is the ``w @ x[r]`` dot product that a
    :class:`JointEmpiricalMeasure` of that row alone forms: one batched
    ``w @ x[:, :, None]`` product runs that same dot for each row, with the
    operands in the same order, so every row keeps the bits of its own run;
    one ``x @ w`` matrix-vector product over all rows would not.

    Under a :class:`RelaxedKernel` shared by every row, the means are those
    of :func:`joint_with_kernel`'s Bayes product: ``mean_state[0]`` is a
    (rows, 1, 1) column, for evaluators called on ``x[..., None]`` against
    the (N, A) supports, and ``mean_control[0]``, the same for every row, is
    a scalar.
    """

    __slots__ = ("mean_state", "mean_control")

    def __init__(self, x, u, w_cloud):
        if isinstance(u, RelaxedKernel):
            w = (w_cloud[:, None] * u.weights).reshape(-1)
            states = np.repeat(x, u.supports.shape[-1], axis=-1)
            self.mean_state = (w @ states[:, :, None])[None, :, :, None]
            self.mean_control = w @ u.supports.reshape(-1, 1)
        else:
            self.mean_state = (w_cloud @ x[:, :, None])[None]
            self.mean_control = (w_cloud @ u[:, :, None])[None]


def _per_particle(fn, x, rho, control, *extra) -> np.ndarray:
    """Coefficient value per particle; relaxed controls average over their atoms."""
    if isinstance(control, RelaxedKernel):
        vals = control.average(fn(x[..., None], rho, control.supports, *extra))
    else:
        vals = np.asarray(fn(x, rho, control, *extra), dtype=float)
    return vals if vals.shape == x.shape else np.broadcast_to(vals, x.shape)


def _running_cost_rate(coeffs: CoefficientSet, x, rho, control):
    """Cloud mean of the running cost on one step, one per row of ``x``.

    Each row is made contiguous, so its sum has the bits of the same 1-D
    array's sum even when the evaluator returned a broadcast value; the sum
    over N is what ``mean`` computes.
    """
    vals = np.ascontiguousarray(_per_particle(coeffs.running_cost, x, rho, control))
    return np.add.reduce(vals, axis=-1) / vals.shape[-1]


def _terminal_cost(coeffs: CoefficientSet, x_T) -> float:
    """Cloud mean of the terminal cost against the terminal empirical law."""
    mu_T = EmpiricalMeasure.from_samples(x_T)
    g_vals = np.asarray(coeffs.terminal_cost(x_T, mu_T), dtype=float)
    return float(np.broadcast_to(g_vals, x_T.shape).mean())


def _paired_plan(rules, n_scenarios: int):
    """``(shared, slabs, own)``: how the controls of R paired strict rules on
    ``n_scenarios`` scenarios are made, row ``s * R + r`` being rule r on the
    s-th scenario, so that rule r's rows are the strided slice ``r::R``.

    ``shared`` holds ``(base, index, transforms)`` for each group of derived
    rules on one ``base``: ``index`` lists the group's rows, or is ``None``
    when the group holds every rule, and ``transforms`` holds ``(rows,
    np.multiply, gain)`` or ``(rows, np.add, offset)``.  ``slabs`` holds
    ``(relaxed, [(rows, rule), ...])`` for the :class:`ChatteringRule` s over
    one constant :class:`RelaxedRule`, whose atoms depend on neither the
    states nor the time.  ``own`` holds ``(row, rule)`` for each row whose
    rule is called on it alone.
    """
    n_rules = len(rules)
    shared, slabs, own = {}, {}, []
    for r, rule in enumerate(rules):
        rows = slice(r, None, n_rules)
        base = getattr(rule, "base", None)
        if base is not None:
            _, members, transforms = shared.setdefault(id(base), (base, [], []))
            members.append(r)
            if rule.gain is not None:
                transforms.append((rows, np.multiply, rule.gain))
            elif rule.offset is not None:
                transforms.append((rows, np.add, rule.offset))
        elif isinstance(rule, ChatteringRule) and rule.relaxed._constant:
            slabs.setdefault(id(rule.relaxed), (rule.relaxed, []))[1].append((rows, rule))
        else:
            own.append((r, rule))
    firsts = range(0, n_rules * n_scenarios, n_rules)
    return (
        [
            (base, None if len(members) == n_rules else [f + r for f in firsts for r in members],
             transforms)
            for base, members, transforms in shared.values()
        ],
        list(slabs.values()),
        [(f + r, rule) for f in firsts for r, rule in own],
    )


def _paired_controls(plan, t, x, means, control):
    """Fill the (rows, N) ``control`` of paired strict rules, by :func:`_paired_plan`.

    A derived group gets one ``base`` call on its stacked rows; each scaled
    or shifted rule then has its rows multiplied or added to in place, which
    gives the bits of its own ``fn`` call.  Chattering rules over one
    constant relaxed rule share one ``slab_atoms`` call, and each fills its
    rows with the same played controls.  Every other rule is called on its
    own row.
    """
    shared, slabs, own = plan
    for base, index, transforms in shared:
        if index is None:
            control[...] = base(t, x, means[:, None])
        else:
            control[index] = base(t, x[index], means[index, None])
        for rows, op, amount in transforms:
            view = control[rows]
            op(view, amount, out=view)
    if slabs or own:
        cond_means = means.tolist()
    for relaxed, entries in slabs:
        support, cum = relaxed.slab_atoms(t, x[0], cond_means[0])
        for rows, rule in entries:
            control[rows] = rule.play(t, support, cum, x.shape[-1])
    for row, rule in own:
        control[row] = rule.evaluate(t, x[row], cond_means[row])


#: The largest (rows, N) float64 array a lock-step batch forms: 2**14 floats,
#: 128 KiB, which is glibc's default mmap and trim threshold.  Below it a
#: step's temporaries come from the heap and are reused step after step;
#: above it they are mapped and unmapped, or trimmed, on every step, and
#: every page they touch faults again.  :func:`simulate_records` cuts a
#: block of scenarios into batches of whole scenarios below this size.
BATCH_FLOATS = 2**14


class _Scenario:
    """One scenario's key, Poisson events and grid, checked, for :func:`_run`.

    It holds no generator: each run draws from fresh substreams of
    ``(seed, scenario)``, so a scenario can be run again with the same bits.

    ``base_pos[j]`` is the index, on the scenario's own grid, of node j of
    the uniform base grid: under common noise the own grid adds the event
    times, and a base step that holds an event time splits into sub-steps.
    ``nodes``, ``marks`` and ``owners`` hold each event's landing node, mark
    and, under idiosyncratic noise, owner (else ``None``), in time order; a
    path's event times strictly increase, so a common node lands at most one
    event.  Both regimes' events come as flat ``(times, marks, counts)``,
    with no counts, and so no owners, under common noise; idiosyncratic
    events come from one flat draw (:func:`_draw_events`), and :attr:`paths`
    makes the per-particle :class:`PoissonPath` s from it only when asked.
    """

    def __init__(self, jumps, n_particles, T, dt, mode, seed, scenario, path, paths):
        _check_run(mode, n_particles)
        if mode == "common":
            if path is None:
                path = sample_poisson_path(jumps, T, substream(seed, scenario, "poisson"))
            drawn = path.times, path.marks, None
            grid = build_grid(T, dt, path.times)
        else:
            if paths is None:
                drawn = _draw_events(jumps, T, n_particles, substream(seed, scenario, "poisson"))
            elif len(paths) != n_particles:
                raise ValueError("idiosyncratic mode needs one Poisson path per particle")
            else:
                drawn = (np.concatenate([p.times for p in paths]),
                         np.concatenate([p.marks for p in paths]), [p.n_events for p in paths])
            grid = build_grid(T, dt)
        times, marks, counts = drawn
        order = np.argsort(times, kind="stable")
        ev_times, self.marks = times[order], marks[order]
        self.owners = None if counts is None else np.repeat(np.arange(n_particles), counts)[order]
        if ev_times.size and ev_times[-1] > T:
            raise ValueError("event times must lie in (0, T]")
        if self.marks.size and (self.marks.min() < 0 or self.marks.max() >= jumps.n_marks):
            raise ValueError("path carries mark indices outside the declared mark set")

        # an event at t in (t_k, t_{k+1}] lands on node k + 1 (exactly t_{k+1} in
        # common mode, whose grid holds every event time)
        self.nodes = np.searchsorted(grid.times, ev_times, side="left")
        self.grid, self.path, self._paths, self._drawn = grid, path, paths, drawn
        self.times = grid.times.tolist()
        base = build_grid(T, dt).times
        self.base_times = base.tolist()
        self.base_pos = np.searchsorted(grid.times, base).tolist()
        self.mode, self.seed, self.scenario = mode, seed, scenario

    @property
    def paths(self) -> Optional[list]:
        """The per-particle paths of idiosyncratic noise, as given or as drawn."""
        if self._paths is None and self.mode == "idiosyncratic":
            times, marks, counts = self._drawn
            cuts = np.cumsum(counts)[:-1]
            self._paths = [
                PoissonPath(t, m) for t, m in zip(np.split(times, cuts), np.split(marks, cuts))
            ]
        return self._paths


def _check_run(mode: str, n_particles: int):
    if mode not in ("common", "idiosyncratic"):
        raise ValueError("mode must be 'common' or 'idiosyncratic'")
    if n_particles < 2:
        raise ValueError("need at least two particles for an empirical law")


def _run(coeffs: CoefficientSet, rules: Sequence, n_particles: int, init: InitSpec,
         scenarios: list, history: bool) -> list:
    """The Euler loop behind every entry point: ``rules`` on ``scenarios``.

    Rule r on the s-th scenario is row ``s * R + r`` of one (S·R, N) cloud,
    which has one row for one rule on one scenario, and every step builds
    one :class:`_PairedLaw` of its rows.  Strict rules run together, a
    relaxed rule alone (R = 1), and under a relaxed rule every row plays the
    same atoms.  Each scenario draws its initial states once for its R rows,
    its Brownian vector once per step of its own grid from its own
    substream, and keeps its events, node indices, means and event log.

    The rows walk the uniform base grid with one scalar ``t`` and ``h``.  A
    scenario with a common event in base step j takes the steps of its own
    grid there on its own rows in that iteration, even when the event lands
    on the base node, so every row takes exactly the (t, h) steps, draws and
    jumps of its own grid and keeps the bits of its rule run alone on its
    scenario alone, and a step of several scenarios carries no common event.
    The coefficients are evaluated once per step on all the rows that take
    it, and derived rules share one evaluation (:func:`_paired_plan`).  The
    step's own arithmetic, in the order of ``x + drift*h +
    diffusion*sqrt(h)*noise`` with the compensator subtracted mark by mark
    from the drift, runs in buffers made once per run: the compensated
    drift, the diffusion term and the normals each have one.  The next
    states of a base step go into an array made after the coefficients'
    temporaries, which lives through the next step: over the mmap
    threshold, an array above the temporaries keeps the heap top from being
    trimmed and faulted in again every step, which two state buffers made
    once per run and swapped do not.  The sub-steps of a base step write
    into an array made for it.

    The run's events are indexed once, by base step, then scenario, then
    time, and a step with events evaluates the jump coefficient once per
    mark present on all its rows against one law of the end-of-step cloud.
    A common event, the one of its node, moves every particle of its
    scenario's rows; one ``np.add.at`` applies the idiosyncratic jumps, each
    entry summing its own in time order.  The event logs are made from the
    kept shifts after the loop.  Each step ends, after its jumps, with one
    row-sum pass: the sums over N are the next node's means, and a
    non-finite sum leads to the entry-wise finite test, so a cloud that is
    not finite at node k + 1, the last included, raises
    :class:`DivergenceError` with that step and time.

    With ``history`` (one rule, one scenario: :func:`simulate_strict` and
    :func:`simulate_relaxed`) it returns ``[cloud]``, the
    :class:`ParticleCloud`, whose ``(steps + 1, N)`` arrays store the one
    row; without, it keeps only the current clouds and returns one
    :class:`ScenarioRecord` per scenario: the sample costs, with the running
    cost summed step by step in the order :func:`cost_of_cloud` sums it, the
    row means the step already forms, and the event log.

    The first error of any row is raised at once; :func:`_run_batch`, which
    every history-free run goes through, replays the (scenario, rule) pairs
    one by one to tell which of them failed.
    """
    n = n_particles
    n_rules, n_scenarios = len(rules), len(scenarios)
    n_rows = n_rules * n_scenarios
    relaxed = rules[0].kind == "relaxed"
    jumps = coeffs.jumps
    lam, n_marks = jumps.intensities, jumps.n_marks
    w_cloud = np.full(n, 1.0 / n)

    def rows(a, b):
        """The rows of scenarios a..b-1."""
        return slice(a * n_rules, b * n_rules)

    shape = (n_rows, n)
    x, drift_buf, work = (np.empty(shape) for _ in range(3))
    noise = np.empty((n_scenarios, n))
    noise_rows = list(noise)
    draws = [
        substream(scen.seed, scen.scenario, "brownian").standard_normal for scen in scenarios
    ]
    for s, scen in enumerate(scenarios):
        x[rows(s, s + 1)] = init.sample(n, substream(scen.seed, scen.scenario, "init"))
    # each row's mean has the bits of rows[r].mean(): the same sum, over N
    means = np.add.reduce(x, axis=1) / n
    running = np.zeros(n_rows)
    control_buf = None if relaxed else np.empty(shape)
    plans = {}  # scenario count -> _paired_plan

    first = scenarios[0]
    base_times = first.base_times
    m_base = len(base_times) - 1
    idio = first.owners is not None
    # every event of the run, ordered by base step, then scenario, then time:
    # event e lands on node ev_nodes[e] of scenario ev_scen[e]'s grid, and the
    # shift of rule r's cloud mean goes into shifts[e, r]
    ev_scen = np.repeat(np.arange(n_scenarios), [scen.nodes.size for scen in scenarios])
    ev_nodes = np.concatenate([scen.nodes for scen in scenarios])
    ev_steps = np.concatenate(
        [np.searchsorted(scen.base_pos, scen.nodes) - 1 for scen in scenarios]
    )
    order = np.argsort(ev_steps, kind="stable")
    ev_scen, ev_nodes, ev_steps = ev_scen[order], ev_nodes[order], ev_steps[order]
    ev_marks = np.concatenate([scen.marks for scen in scenarios])[order]
    shifts = np.empty((ev_nodes.size, n_rules))
    scen_of, node_of, step_of = ev_scen.tolist(), ev_nodes.tolist(), ev_steps.tolist()
    new_step = np.diff(ev_steps, prepend=-1) != 0
    # the idiosyncratic events that end base step j, j -> range of events;
    # the scenarios that take base step j alone, j -> [(scenario, first event)]
    jumps_at, split_at = {}, {}
    if idio:
        # event e moves entry (ev_rows[e, r], ev_cols[e, r]) of rule r by n * shifts[e, r]
        ev_rows = ev_scen[:, None] * n_rules + np.arange(n_rules)
        owners = np.concatenate([scen.owners for scen in scenarios])[order]
        ev_cols = np.broadcast_to(owners[:, None], ev_rows.shape)
        cuts = np.flatnonzero(new_step).tolist() + [ev_nodes.size]
        for lo, hi in zip(cuts, cuts[1:]):
            jumps_at[step_of[lo]] = range(lo, hi)
    else:
        for e in np.flatnonzero(new_step | (np.diff(ev_scen, prepend=-1) != 0)).tolist():
            split_at.setdefault(step_of[e], []).append((scen_of[e], e))
    base_means = np.empty((m_base + 1, n_rows))
    base_means[0] = means
    inner_means = [[] for _ in scenarios]  # (node, row means) at sub-step nodes
    logs = [[] for _ in scenarios]
    unwrap = n_rules == 1  # one rule's event shifts are floats
    if history:
        m_steps = first.grid.n_steps
        states = np.empty((m_steps + 1, n))
        states[0] = x[0]
        controls = None if relaxed else np.empty((m_steps, n))
        relaxed_controls = [] if relaxed else None
        pre_jump_states: dict = {}

    def step(src, dst, a, b, t, h, ends, j, k=None):
        """One Euler step of scenarios a..b-1 from ``src``; returns their next
        states, written into the rows of ``dst`` or, with ``dst=None``, into
        an array made late in the step.

        ``ends`` is the range of the run's events that land at the end of the
        step.  The step is base step j of every scenario, or, when ``k`` is
        given, step k of scenario a's own grid inside base step j.
        """
        sl = rows(a, b)
        xv, cur = src[sl], means[sl]
        if relaxed:
            # evaluate has validated and normalized the rows; every row plays them
            control = RelaxedKernel.trusted(*rules[0].evaluate(t, xv[0], float(cur[0])))
        else:
            control = control_buf[sl]
            if b - a not in plans:
                plans[b - a] = _paired_plan(rules, b - a)
            _paired_controls(plans[b - a], t, xv, cur, control)

        for s in range(a, b):
            draws[s](out=noise_rows[s])
        rho = _PairedLaw(xv, control, w_cloud)
        drift = _per_particle(coeffs.drift, xv, rho, control)
        wv = work[sl]
        for mark in range(n_marks):
            np.multiply(lam[mark], _per_particle(coeffs.jump, xv, rho, control, mark), out=wv)
            drift = np.subtract(drift, wv, out=drift_buf[sl])
        diffusion = _per_particle(coeffs.diffusion, xv, rho, control)
        rate = None if history else _running_cost_rate(coeffs, xv, rho, control)
        np.multiply(drift, h, out=wv)
        xn = np.add(xv, wv) if dst is None else np.add(xv, wv, out=dst[sl])
        np.multiply(diffusion, math.sqrt(h), out=wv)
        scaled = wv.reshape(b - a, n_rules, n)
        scaled *= noise[a:b, None]
        xn += wv

        if history:
            k_own = first.base_pos[j] if k is None else k
            if ends:
                pre_jump_states[k_own + 1] = xn[0].copy()
        if ends:
            # every jump of the step reads the end-of-step cloud and law
            lo, hi = ends.start, ends.stop
            rho_minus = _PairedLaw(xn, control, w_cloud)
            marks, out = ev_marks[lo:hi], shifts[lo:hi]
            if idio:
                ri, ci = ev_rows[lo:hi], ev_cols[lo:hi]
            present = set(marks.tolist()) if n_marks > 1 else {0}
            for mark in present:
                disp = _per_particle(coeffs.jump, xn, rho_minus, control, mark)
                if not idio:
                    # the one event of a common node, on a step of its scenario alone
                    out[...] = disp.mean(axis=-1)
                    xn += disp
                elif len(present) == 1:
                    out[...] = disp[ri, ci]
                else:
                    sel = marks == mark
                    out[sel] = disp[ri[sel], ci[sel]]
            if idio:
                # one add.at, in (event, rule) order, sums each entry's jumps in time order
                np.add.at(xn, (ri, ci), out)
                out /= n

        # a finite row sum means a finite row; only a non-finite sum, which
        # finite entries can reach by overflow, needs the entry-wise test
        sums = np.add.reduce(xn, axis=1)
        if not math.isfinite(sum(sums.tolist())) and not np.isfinite(xn).all():
            s = a + int(np.flatnonzero(~np.isfinite(xn).all(axis=1))[0]) // n_rules
            node = k + 1 if k is not None else scenarios[s].base_pos[j + 1]
            raise DivergenceError(node, scenarios[s].times[node])
        np.divide(sums, n, out=cur)
        if history:
            if relaxed:
                relaxed_controls.append(control)
            else:
                controls[k_own] = control[0]
            states[k_own + 1] = xn[0]
        else:
            running[sl] += h * rate
        return xn

    def sub_steps(src, dst, s, j, e):
        """Scenario s's own steps inside base step j, ending in ``dst``; event
        e is its first there."""
        scen, own = scenarios[s], rows(s, s + 1)
        times = scen.times
        start, stop = scen.base_pos[j], scen.base_pos[j + 1]
        for k in range(start, stop):
            if k > start:
                src[own] = dst[own]
            node = k + 1
            # nodes of other scenarios' grids share numbers with this one's
            hit = e < len(node_of) and scen_of[e] == s and node_of[e] == node
            step(src, dst, s, s + 1, times[k], times[node] - times[k], range(e, e + hit), j, k)
            e += hit
            if node < stop:
                inner_means[s].append((node, means[own].copy()))

    for j in range(m_base):
        t = base_times[j]
        h = base_times[j + 1] - t
        split = split_at.get(j)
        if split is None:
            x = step(x, None, 0, n_scenarios, t, h, jumps_at.get(j, ()), j)
        else:
            x_next = np.empty(shape)
            a = 0
            for s, e in split + [(n_scenarios, None)]:
                if s > a:
                    step(x, x_next, a, s, t, h, (), j)
                if s < n_scenarios:
                    sub_steps(x, x_next, s, j, e)
                a = s + 1
            x = x_next
        base_means[j + 1] = means

    # each scenario's log keeps its events in (step, time) order
    per_event = (shifts[:, 0] if unwrap else shifts).tolist()
    for s, entry in zip(scen_of, zip(node_of, ev_marks.tolist(), per_event)):
        logs[s].append(entry)
    if history:
        return [ParticleCloud(
            grid=first.grid, states=states, mode=first.mode,
            seed=first.seed, scenario=first.scenario, path=first.path, paths=first.paths,
            controls=controls, relaxed_controls=relaxed_controls,
            pre_jump_states=pre_jump_states, event_log=logs[0],
        )]
    records = []
    for s, scen in enumerate(scenarios):
        own = slice(s * n_rules, (s + 1) * n_rules)
        node_means = np.empty((scen.grid.n_steps + 1, n_rules))
        node_means[scen.base_pos] = base_means[:, own]
        for node, values in inner_means[s]:
            node_means[node] = values
        records.append(ScenarioRecord(
            costs=[running[r] + _terminal_cost(coeffs, x[r]) for r in range(own.start, own.stop)],
            means=node_means.reshape(-1) if n_rules == 1 else node_means,
            event_log=logs[s],
        ))
    return records


def simulate_strict(
    coeffs: CoefficientSet,
    rule,
    n_particles: int,
    T: float,
    dt: float,
    mode: str = "common",
    seed: int = 0,
    scenario: int = 0,
    init: InitSpec = InitSpec(),
    path: Optional[PoissonPath] = None,
    paths: Optional[list] = None,
) -> ParticleCloud:
    """Euler cloud under a strict control rule."""
    if rule.kind != "strict":
        raise TypeError("simulate_strict needs a strict control rule")
    scen = _Scenario(coeffs.jumps, n_particles, T, dt, mode, seed, scenario, path, paths)
    return _run(coeffs, [rule], n_particles, init, [scen], history=True)[0]


def simulate_relaxed(
    coeffs: CoefficientSet,
    rule: RelaxedRule,
    n_particles: int,
    T: float,
    dt: float,
    mode: str = "common",
    seed: int = 0,
    scenario: int = 0,
    init: InitSpec = InitSpec(),
    path: Optional[PoissonPath] = None,
    paths: Optional[list] = None,
) -> ParticleCloud:
    """Euler cloud with every coefficient averaged against the control measure."""
    if rule.kind != "relaxed":
        raise TypeError("simulate_relaxed needs a relaxed control rule")
    scen = _Scenario(coeffs.jumps, n_particles, T, dt, mode, seed, scenario, path, paths)
    return _run(coeffs, [rule], n_particles, init, [scen], history=True)[0]


# ---------------------------------------------------------------------------
# Cost
# ---------------------------------------------------------------------------

def _checked_rules(rules) -> list:
    if not rules:
        raise ValueError("need at least one rule")
    for rule in rules:
        if rule.kind not in ("strict", "relaxed"):
            raise TypeError(f"unknown control rule kind {rule.kind!r}")
    if len(rules) > 1 and any(rule.kind != "strict" for rule in rules):
        raise ValueError("only strict rules run paired")
    return list(rules)


def _split(seq, parts: int) -> list:
    """``seq`` cut into ``parts`` contiguous pieces of nearly equal length, longer first."""
    size, extra = divmod(len(seq), parts)
    cuts = [0]
    for i in range(parts):
        cuts.append(cuts[-1] + size + (i < extra))
    return [seq[a:b] for a, b in zip(cuts, cuts[1:])]


def _run_batch(coeffs: CoefficientSet, rules: list, n_particles: int, init: InitSpec,
               scenarios: list) -> list:
    """History-free :func:`_run` of ``rules`` on a batch of ``scenarios``,
    failing as running each (scenario, rule) pair alone, scenario-major,
    fails first.

    When the lock-step run raises, every pair is replayed alone in that order
    and the first that fails alone raises its own error; if every pair
    succeeds alone, the lock-step error is raised.  A batch of one pair
    raises at once.
    """
    try:
        return _run(coeffs, rules, n_particles, init, scenarios, history=False)
    except Exception as err:
        if len(rules) * len(scenarios) == 1:
            raise
        lock_step_error = err
    for scen in scenarios:
        for rule in rules:
            _run(coeffs, [rule], n_particles, init, [scen], history=False)
    raise lock_step_error


def simulate_record(
    coeffs: CoefficientSet,
    rules: Sequence,
    n_particles: int,
    T: float,
    dt: float,
    mode: str = "common",
    seed: int = 0,
    scenario: int = 0,
    init: InitSpec = InitSpec(),
    path: Optional[PoissonPath] = None,
    paths: Optional[list] = None,
) -> ScenarioRecord:
    """History-free run of paired rules on one scenario, in lock-step: the
    one-scenario case of :func:`simulate_records`, whose Poisson path (common
    noise) or per-particle paths (idiosyncratic noise) may be given.

    ``rules`` is any number of strict rules or one relaxed rule; they share
    the scenario's noise (common random numbers).  Row r of a paired record
    (``costs[r]``, the column ``means[:, r]`` and entry r of every event
    shift) equals the record of ``rules[r]`` run alone bit for bit, and a
    single rule's costs, means and event log equal :func:`cost_of_cloud`,
    ``states.mean(axis=1)`` and ``event_log`` of the matching
    :func:`simulate_strict` / :func:`simulate_relaxed` cloud, while memory
    stays at one cloud.

    A failure is what running the rules one after another raises first
    (:func:`_run_batch`).
    """
    rules = _checked_rules(rules)
    scen = _Scenario(coeffs.jumps, n_particles, T, dt, mode, seed, scenario, path, paths)
    return _run_batch(coeffs, rules, n_particles, init, [scen])[0]


def simulate_records(
    coeffs: CoefficientSet,
    rules: Sequence,
    n_particles: int,
    T: float,
    dt: float,
    mode: str = "common",
    seed: int = 0,
    scenarios: Sequence[int] = (0,),
    init: InitSpec = InitSpec(),
) -> list:
    """``[simulate_record(..., scenario=s) for s in scenarios]``, in lock-step.

    Every rule on every scenario of the block is one row of one cloud
    (:func:`_run`), and each record equals that of its scenario run alone
    bit for bit.  The block is cut into batches of whole scenarios, as few
    as keep each (rows, N) array within :data:`BATCH_FLOATS` floats and of
    nearly equal size; a batch holds one scenario when one scenario is over
    the bound, and so does every batch of a relaxed rule that is not
    constant, whose atoms depend on the states.

    A failure is what running the scenarios one after another, and the
    rules of each one after another, raises first (:func:`_run_batch`).
    """
    rules = _checked_rules(rules)
    _check_run(mode, n_particles)
    scenarios = list(scenarios)
    if not scenarios:
        return []
    if rules[0].kind == "relaxed" and not rules[0]._constant:
        per_batch = 1
    else:
        per_batch = max(1, BATCH_FLOATS // (len(rules) * n_particles))
    records = []
    for batch in _split(scenarios, -(-len(scenarios) // per_batch)):
        records += _run_batch(coeffs, rules, n_particles, init, [
            _Scenario(coeffs.jumps, n_particles, T, dt, mode, seed, s, None, None)
            for s in batch
        ])
    return records


def cost_of_cloud(cloud: ParticleCloud, coeffs: CoefficientSet) -> float:
    """Sample cost of one scenario: left-endpoint running integral + terminal.

    Each step is evaluated as the one row of a (1, N) cloud, as :func:`_run`
    evaluated it.
    """
    times = cloud.grid.times
    w_cloud = np.full(cloud.n_particles, 1.0 / cloud.n_particles)
    total = 0.0
    for k in range(cloud.grid.n_steps):
        h = times[k + 1] - times[k]
        x = cloud.states[k : k + 1]
        control = cloud.relaxed_controls[k] if cloud.controls is None else cloud.controls[k : k + 1]
        total += h * _running_cost_rate(coeffs, x, _PairedLaw(x, control, w_cloud), control)[0]
    return total + _terminal_cost(coeffs, cloud.states[-1])


# ---------------------------------------------------------------------------
# Scenario fan-out
# ---------------------------------------------------------------------------

_TASK: Optional[Callable] = None


def _install_task(task: Callable):
    global _TASK
    _TASK = task


def _run_task(block: range):
    return _TASK(block)


def map_blocks(task: Callable, n_scenarios: int, workers: int = 1) -> list:
    """``task(block)`` over contiguous blocks of the scenarios, on up to
    ``workers`` processes, the results of the blocks joined in scenario order.

    ``task`` takes a ``range`` of scenario indices and returns one result
    per scenario.  Each of min(workers, n_scenarios) workers gets one block,
    of nearly equal sizes, the longer first: 4 scenarios on 3 workers give
    blocks of 2, 1 and 1.  Workers are forked, and the task reaches them
    through the pool initializer, which fork hands over without pickling: it
    may close over lambdas, rules and coefficient sets (spawn would have to
    pickle them).  The program starts no threads of its own, which fork
    needs to be safe.  Only blocks and results cross the process boundary,
    so the list does not depend on the worker count as long as the task's
    results do not depend on its block.
    """
    if n_scenarios <= 0:
        return []
    blocks = _split(range(n_scenarios), min(max(workers, 1), n_scenarios))
    if len(blocks) == 1:
        return list(task(blocks[0]))
    with ProcessPoolExecutor(
        max_workers=len(blocks),
        mp_context=multiprocessing.get_context("fork"),
        initializer=_install_task,
        initargs=(task,),
    ) as pool:
        return [result for part in pool.map(_run_task, blocks) for result in part]


def standard_error(samples: np.ndarray) -> float:
    """Monte Carlo standard error of the mean of ``samples``; 0.0 for one sample."""
    n = len(samples)
    return float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0

"""Conditional particle Monte Carlo under Poisson jump noise.

A scenario is one realization of the driving Poisson randomness.  Under
``common`` noise every particle shares one Poisson path and the particle
cloud approximates the conditional law given that path; under
``idiosyncratic`` noise each particle carries its own path and the cloud
approximates the plain law.  Either way the simulation is an explicit
Euler scheme with the compensator in the drift, and a jump is applied from
the pre-jump state and pre-jump empirical law:

* common noise runs on a jump-adapted grid, where every event time is a
  node and each jump lands at its exact node;
* idiosyncratic noise runs on the uniform grid, where a jump at
  t in (t_k, t_{k+1}] lands at the end of its step, node k + 1, moving only
  its owner.  Every jump of a step reads the same end-of-step cloud and law,
  so step count and memory do not grow with the number of particles; a jump
  moves the law by O(1/N), so this stays consistent with Euler at order dt.

Randomness comes from counter-based Philox streams keyed by
``(seed, scenario, purpose)`` with purposes ``init`` / ``brownian`` /
``poisson``; particles consume fixed lanes of vectorized draws.  Identical
keys reproduce bit-identical clouds, and control variants under one key see
identical noise, which is what the paired cost comparisons rely on.
Because a scenario's draws depend on nothing but its key, scenarios can run
in any order on any worker: :func:`map_scenarios` fans them out.

Paired rules run in lock-step.  :func:`simulate_record` advances R strict
rules of one scenario as the rows of an (R, N) cloud in the same Euler loop
that runs a single rule: each rule is called on its own row, except that
rules derived from one shared feedback (:meth:`FeedbackRule.derived`, such
as the LQ optimum and its gain and offset perturbations) share one call on
their stacked rows; the Brownian vector is drawn once per step for all rows,
and the coefficients are evaluated once on the (R, N) arrays.  Coefficient
evaluators must therefore be elementwise, and they see
``rho.mean_state[0]`` and ``rho.mean_control[0]`` as (R, 1) columns.  Each
row's means are the same dot products that a run of its rule alone forms,
so every row of a paired record equals the record of its rule alone bit for
bit.  When a lock-step run fails, the rules are replayed one by one, and the
first rule that fails alone reports the failure.

Memory is bounded by one scenario.  Only :func:`simulate_strict` and
:func:`simulate_relaxed` keep the ``(steps + 1) x N`` history of a
:class:`ParticleCloud`; :func:`simulate_record` runs history-free, holding
the current cloud and returning a :class:`ScenarioRecord`: the sample costs,
the cloud mean at every node and the event log, the same numbers a cloud's
history gives.
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

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

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
    relaxed rule the cumulative weights are the rule's cached ones.
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
        slab = self.horizon / self.n_slabs
        theta = (t / slab) % 1.0
        if support.ndim == 1:
            idx = min(int((cum <= theta).sum()), support.shape[0] - 1)
            return np.full(states.shape[0], support[idx])
        idx = np.minimum((cum <= theta).sum(axis=1), support.shape[1] - 1)
        return support[np.arange(states.shape[0]), idx]


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
        """Validated strict joint of the cloud and its control at a node."""
        node = min(node, self.grid.n_steps - 1)
        n = self.n_particles
        rho = _law_view(self.states[node], self.control_at(node), np.full(n, 1.0 / n))
        return JointEmpiricalMeasure.strict(rho.states, rho.controls, rho.weights)

    def control_at(self, k: int):
        """The strict control array or the relaxed kernel of step k."""
        return self.controls[k] if self.controls is not None else self.relaxed_controls[k]


@dataclass
class ScenarioRecord:
    """What a history-free run keeps of one scenario.

    ``costs`` holds one sample cost per rule.  ``means[k]`` is the cloud
    mean at node k (post-jump), and ``event_log`` holds one (node, mark,
    shift of the cloud mean) entry per event, as in :class:`ParticleCloud`.
    Means and shifts have the cloud's leading shape: floats for one rule,
    one value per rule for paired rules.  For one rule they equal the
    cloud's ``states.mean(axis=1)`` and ``event_log`` bit for bit.
    """

    costs: list
    means: np.ndarray
    event_log: list


class _PairedLaw:
    """Law view of paired strict clouds, one row of ``x`` and ``u`` per rule.

    Evaluators see ``mean_state[0]`` and ``mean_control[0]`` as (R, 1)
    columns.  Row r is the ``w @ x[r]`` dot product that
    :meth:`JointEmpiricalMeasure.trusted` forms for a single rule: one
    batched ``w @ x[:, :, None]`` product runs that same dot for each row,
    with the operands in the same order, so every row keeps the bits of its
    own run; one ``x @ w`` matrix-vector product over all rows would not.
    """

    __slots__ = ("mean_state", "mean_control")

    def __init__(self, x, u, w_cloud):
        self.mean_state = (w_cloud @ x[:, :, None])[None]
        self.mean_control = (w_cloud @ u[:, :, None])[None]


def _law_view(x, control, w_cloud):
    """Joint law of the cloud and its control on one step, unvalidated.

    ``control`` is the strict control array or a :class:`RelaxedKernel`;
    ``w_cloud`` is the uniform particle weight vector.  A relaxed control
    gets the Bayes product of :func:`joint_with_kernel`.  A 2-D ``x`` holds
    paired clouds, one per row, and gets a :class:`_PairedLaw`.
    """
    if isinstance(control, RelaxedKernel):
        return joint_with_kernel(EmpiricalMeasure.trusted(x, w_cloud), control)
    if x.ndim == 2:
        return _PairedLaw(x, control, w_cloud)
    return JointEmpiricalMeasure.trusted(x, control, w_cloud)


def _per_particle(fn, x, rho, control, *extra) -> np.ndarray:
    """Coefficient value per particle; relaxed controls average over their atoms."""
    if isinstance(control, RelaxedKernel):
        return control.average(fn(x[:, None], rho, control.supports, *extra))
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


def _paired_plan(rules):
    """``(own, shared)``: ``(row, rule)`` for each rule called on its own
    row, and ``(base, rows, transforms)`` for each group of derived rules
    on one ``base`` (``rows`` a list of row indices; ``transforms`` holds
    ``(row, np.multiply, gain)`` or ``(row, np.add, offset)``)."""
    own, groups = [], {}
    for r, rule in enumerate(rules):
        base = getattr(rule, "base", None)
        if base is None:
            own.append((r, rule))
            continue
        _, rows, transforms = groups.setdefault(id(base), (base, [], []))
        rows.append(r)
        if rule.gain is not None:
            transforms.append((r, np.multiply, rule.gain))
        elif rule.offset is not None:
            transforms.append((r, np.add, rule.offset))
    return own, list(groups.values())


def _paired_controls(plan, t, x, means, cond_means) -> np.ndarray:
    """The (R, N) controls of paired strict rules, by :func:`_paired_plan`."""
    own, shared = plan
    control = np.empty(x.shape)
    for base, index, transforms in shared:
        control[index] = base(t, x[index], means[index, None])
        for r, op, amount in transforms:
            row = control[r]
            op(row, amount, out=row)
    for r, rule in own:
        control[r] = rule.evaluate(t, x[r], cond_means[r])
    return control


def _simulate(
    coeffs: CoefficientSet,
    rules: Sequence,
    n_particles: int,
    T: float,
    dt: float,
    mode: str,
    seed: int,
    scenario: int,
    init: InitSpec,
    path: Optional[PoissonPath],
    paths: Optional[list],
    history: bool,
):
    """The Euler loop behind every entry point.

    ``rules`` are paired variants of one scenario: strict rules advance in
    lock-step as the rows of one (R, N) cloud on a single draw of the
    initial states, Brownian increments and Poisson events, with the
    coefficients evaluated once on the whole array.  Each row takes exactly
    the steps of a run of its rule alone, so each cost keeps its bits.  A
    relaxed rule runs alone (R = 1).  Rules derived from one feedback share
    one evaluation on their stacked rows (:func:`_paired_plan`).  Each step
    ends, after its jumps, with one row-sum pass: the sums over N are the
    next node's means, and a non-finite sum leads to the entry-wise finite
    test, so a cloud that is not finite at node k + 1, the last included,
    raises :class:`DivergenceError` with that step and time.

    With ``history`` (one rule) it returns the :class:`ParticleCloud`;
    without, it keeps only the current clouds and returns a
    :class:`ScenarioRecord`: the sample costs, with the running cost summed
    step by step in the order :func:`cost_of_cloud` sums it, the row means
    the step already forms for the rules, and the event log.  Its memory
    is then one cloud plus one mean per node and one entry per event.

    The first error of any row is raised at once; :func:`simulate_record`
    replays the rules one by one to tell which of them failed.
    """
    if mode not in ("common", "idiosyncratic"):
        raise ValueError("mode must be 'common' or 'idiosyncratic'")
    if n_particles < 2:
        raise ValueError("need at least two particles for an empirical law")
    relaxed = rules[0].kind == "relaxed"

    jumps = coeffs.jumps
    if mode == "common":
        if path is None:
            path = sample_poisson_path(jumps, T, substream(seed, scenario, "poisson"))
        ev_times, ev_marks, ev_owners = path.times, path.marks, None
        grid = build_grid(T, dt, path.times)
    else:
        if paths is None:
            gen = substream(seed, scenario, "poisson")
            paths = [sample_poisson_path(jumps, T, gen) for _ in range(n_particles)]
        elif len(paths) != n_particles:
            raise ValueError("idiosyncratic mode needs one Poisson path per particle")
        ev_times = np.concatenate([p.times for p in paths])
        order = np.argsort(ev_times, kind="stable")
        ev_times = ev_times[order]
        ev_marks = np.concatenate([p.marks for p in paths])[order]
        ev_owners = np.repeat(np.arange(n_particles), [p.n_events for p in paths])[order]
        grid = build_grid(T, dt)
        if ev_times.size and ev_times[-1] > T:
            raise ValueError("event times must lie in (0, T]")

    if ev_marks.size and (ev_marks.min() < 0 or ev_marks.max() >= jumps.n_marks):
        raise ValueError("path carries mark indices outside the declared mark set")

    # an event at t in (t_k, t_{k+1}] lands on node k + 1 (exactly t_{k+1} in
    # common mode, whose grid holds every event time); node k's events are
    # ev_*[bounds[k]:bounds[k + 1]]
    ev_nodes = np.searchsorted(grid.times, ev_times, side="left")
    bounds = np.searchsorted(ev_nodes, np.arange(grid.n_steps + 2)).tolist()

    gen_init = substream(seed, scenario, "init")
    gen_brownian = substream(seed, scenario, "brownian")
    # one rule's cloud is kept 1-D, paired rules are the rows of an (R, N)
    # cloud, and ``x[r]`` is contiguous either way
    n_rules = len(rules)
    x = init.sample(n_particles, gen_init)
    if n_rules > 1:
        x = np.tile(x, (n_rules, 1))

    m_steps = grid.n_steps
    if history:
        states = np.empty((m_steps + 1, n_particles))
        states[0] = x
        controls = None if relaxed else np.empty((m_steps, n_particles))
        relaxed_controls = [] if relaxed else None
    means = np.empty((m_steps + 1, n_rules))
    # each row's mean has the bits of rows[r].mean(): the same sum, over N
    means[0] = np.add.reduce(x.reshape(n_rules, n_particles), axis=1) / n_particles
    pre_jump_states: dict = {}
    event_log: list = []
    running = np.zeros(n_rules)
    lam = jumps.intensities
    w_cloud = np.full(n_particles, 1.0 / n_particles)
    times = grid.times.tolist()
    plan = _paired_plan(rules) if n_rules > 1 else None

    for k in range(m_steps):
        t = times[k]
        node = k + 1
        h = times[node] - t

        cond_means = means[k].tolist()
        if plan is None:
            control = rules[0].evaluate(t, x, cond_means[0])
            if relaxed:
                # evaluate has validated and normalized the rows
                control = RelaxedKernel.trusted(*control)
        else:
            control = _paired_controls(plan, t, x, means[k], cond_means)

        noise = gen_brownian.standard_normal(n_particles)
        rho = _law_view(x, control, w_cloud)
        drift = _per_particle(coeffs.drift, x, rho, control)
        for j in range(jumps.n_marks):
            drift = drift - lam[j] * _per_particle(coeffs.jump, x, rho, control, j)
        diffusion = _per_particle(coeffs.diffusion, x, rho, control)
        rate = None if history else _running_cost_rate(coeffs, x, rho, control)
        x_new = x + drift * h + diffusion * math.sqrt(h) * noise

        lo, hi = bounds[node], bounds[node + 1]
        if hi > lo:
            if history:
                pre_jump_states[node] = x_new.copy()
            if ev_owners is None:
                for mark in ev_marks[lo:hi].tolist():
                    rho_minus = _law_view(x_new, control, w_cloud)
                    disp = _per_particle(coeffs.jump, x_new, rho_minus, control, mark)
                    x_new = x_new + disp
                    event_log.append((node, mark, disp.mean(axis=-1).tolist()))
            else:
                # every jump of the step reads the end-of-step cloud and law;
                # x_new is this step's own array, so the owners move in place
                rho_minus = _law_view(x_new, control, w_cloud)
                marks, owners = ev_marks[lo:hi], ev_owners[lo:hi]
                shifts = np.empty(x_new.shape[:-1] + (hi - lo,))
                for mark in set(marks.tolist()):
                    sel = marks == mark
                    disp = _per_particle(coeffs.jump, x_new, rho_minus, control, mark)
                    shifts[..., sel] = disp[..., owners[sel]]
                np.add.at(x_new, (Ellipsis, owners), shifts)
                event_log.extend(zip(
                    [node] * (hi - lo), marks.tolist(), (shifts / n_particles).T.tolist()
                ))

        # a finite row sum means a finite row; only a non-finite sum, which
        # finite entries can reach by overflow, needs the entry-wise test
        sums = np.add.reduce(x_new.reshape(n_rules, n_particles), axis=1)
        if not math.isfinite(sum(sums.tolist())) and not np.isfinite(x_new).all():
            raise DivergenceError(node, times[node])
        means[node] = sums / n_particles
        if history:
            if relaxed:
                relaxed_controls.append(control)
            else:
                controls[k] = control
            states[node] = x_new
        else:
            running += h * rate
        x = x_new

    if not history:
        rows = x.reshape(n_rules, n_particles)
        return ScenarioRecord(
            costs=[running[r] + _terminal_cost(coeffs, rows[r]) for r in range(n_rules)],
            means=means.reshape(means.shape[:1] + x.shape[:-1]),
            event_log=event_log,
        )
    return ParticleCloud(
        grid=grid,
        states=states,
        mode=mode,
        seed=seed,
        scenario=scenario,
        path=path,
        paths=paths,
        controls=controls,
        relaxed_controls=relaxed_controls,
        pre_jump_states=pre_jump_states,
        event_log=event_log,
    )


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
    return _simulate(
        coeffs, [rule], n_particles, T, dt, mode, seed, scenario, init, path, paths,
        history=True,
    )


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
    return _simulate(
        coeffs, [rule], n_particles, T, dt, mode, seed, scenario, init, path, paths,
        history=True,
    )


# ---------------------------------------------------------------------------
# Cost
# ---------------------------------------------------------------------------

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
    """History-free run of paired rules on one scenario, in lock-step.

    ``rules`` is any number of strict rules or one relaxed rule; they share
    the scenario's noise (common random numbers).  Row r of a paired record
    (``costs[r]``, the column ``means[:, r]`` and entry r of every event
    shift) equals the record of ``rules[r]`` run alone bit for bit, and a
    single rule's costs, means and event log equal :func:`cost_of_cloud`,
    ``states.mean(axis=1)`` and ``event_log`` of the matching
    :func:`simulate_strict` / :func:`simulate_relaxed` cloud, while memory
    stays at one cloud.

    A failure is what running the rules one after another raises first: when
    the lock-step run raises, the rules are replayed one by one and the first
    that fails alone raises its own error.  If every rule succeeds alone, the
    lock-step error is raised.
    """
    if not rules:
        raise ValueError("need at least one rule")
    for rule in rules:
        if rule.kind not in ("strict", "relaxed"):
            raise TypeError(f"unknown control rule kind {rule.kind!r}")
    if len(rules) > 1 and any(rule.kind != "strict" for rule in rules):
        raise ValueError("only strict rules run paired")
    run = (n_particles, T, dt, mode, seed, scenario, init, path, paths)
    try:
        return _simulate(coeffs, list(rules), *run, history=False)
    except Exception as err:
        if len(rules) == 1:
            raise
        lock_step_error = err
    for rule in rules:
        _simulate(coeffs, [rule], *run, history=False)
    raise lock_step_error


def cost_of_cloud(cloud: ParticleCloud, coeffs: CoefficientSet) -> float:
    """Sample cost of one scenario: left-endpoint running integral + terminal."""
    times = cloud.grid.times
    w_cloud = np.full(cloud.n_particles, 1.0 / cloud.n_particles)
    total = 0.0
    for k in range(cloud.grid.n_steps):
        h = times[k + 1] - times[k]
        x = cloud.states[k]
        control = cloud.control_at(k)
        total += h * _running_cost_rate(coeffs, x, _law_view(x, control, w_cloud), control)
    return total + _terminal_cost(coeffs, cloud.states[-1])


# ---------------------------------------------------------------------------
# Scenario fan-out
# ---------------------------------------------------------------------------

_TASK: Optional[Callable] = None


def _install_task(task: Callable):
    global _TASK
    _TASK = task


def _run_task(scenario: int):
    return _TASK(scenario)


def map_scenarios(task: Callable, n_scenarios: int, workers: int = 1) -> list:
    """``[task(0), ..., task(n_scenarios - 1)]``, on up to ``workers`` processes.

    Workers are forked, and the task reaches them through the pool
    initializer, which fork hands over without pickling: it may close over
    lambdas, rules and coefficient sets (spawn would have to pickle them).
    The program starts no threads of its own, which fork needs to be safe.
    Only scenario indices and results cross the process boundary, and
    results come back in scenario order, so the list does not depend on the
    worker count.
    """
    if workers <= 1 or n_scenarios <= 1:
        return [task(s) for s in range(n_scenarios)]
    with ProcessPoolExecutor(
        max_workers=min(workers, n_scenarios),
        mp_context=multiprocessing.get_context("fork"),
        initializer=_install_task,
        initargs=(task,),
    ) as pool:
        return list(pool.map(_run_task, range(n_scenarios)))


def standard_error(samples: np.ndarray) -> float:
    """Monte Carlo standard error of the mean of ``samples``; 0.0 for one sample."""
    n = len(samples)
    return float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0

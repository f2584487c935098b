"""Cross-checks between the solution routes.

Every check pits two independently computed objects against each other:

* ``check_smp``        -- the simulated optimal control must sit at the grid
  minimum of the Hamiltonian plus its mean-field correction;
* ``check_bsde``       -- the Riccati-based adjoint must satisfy the backward
  drift identity and the jump-loading fixed point along simulated paths;
* ``check_hjb``        -- the value function must annihilate the dynamic
  programming operator at random measures;
* ``check_optimality`` -- no perturbed feedback may beat the candidate
  optimum under common random numbers, and the realized cost must match the
  value function;
* ``check_fp``         -- weak-form predictions of the conditional-law flow
  must track the particle cloud at the advertised rate;
* ``compare_noise_modes`` -- shared jumps must move the conditional mean,
  per-particle jumps must not move the plain mean;
* ``check_chattering`` -- slab approximations of a relaxed control must
  approach its cost under paired noise.

Checks are deterministic functions of (seed, configuration); reports carry
the residual statistics, the tolerance and the pass flag.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .coefficients import (
    AdjointTriplet,
    CoefficientSet,
    JumpSpec,
    LQParams,
    delta_hamiltonian_strict,
    hamiltonian_strict,
    lq_coefficients,
)
from .lq import (
    RiccatiSolution,
    adjoint_ansatz,
    optimal_control,
    quadratic_minimizer,
    solve_riccati,
    value_function,
)
from .measureflow import (
    TestFunctionDictionary,
    aggregate_coeffs,
    apply_A1,
    default_dictionary,
    drift_pairings,
    fp_step,
    shift_adjoint,
)
from .measures import EmpiricalMeasure, RelaxedKernel
from .simulate import (
    ChatteringRule,
    FeedbackRule,
    InitSpec,
    ParticleCloud,
    RelaxedRule,
    map_blocks,
    simulate_records,
    simulate_strict,
    standard_error,
)


@dataclass(frozen=True)
class MonteCarloSettings:
    """Simulation budget shared by the statistical checks."""

    particles: int = 500
    scenarios: int = 16
    dt: float = 1e-3
    seed: int = 0
    mode: str = "common"
    init: InitSpec = field(default_factory=lambda: InitSpec("gaussian", 1.0, 0.5))
    riccati_steps: int = 4096


@dataclass
class CheckReport:
    """Outcome of one check: residual statistics plus provenance."""

    name: str
    passed: bool
    tolerance: float
    stats: dict
    seed: int
    config_hash: str = ""
    inconclusive: bool = False

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "inconclusive": bool(self.inconclusive),
            "tolerance": float(self.tolerance),
            "stats": {k: _jsonable(v) for k, v in self.stats.items()},
            "seed": int(self.seed),
            "config_hash": self.config_hash,
        }


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

def optimal_feedback_rule(sol: RiccatiSolution) -> FeedbackRule:
    """The optimal feedback of ``sol``, as a rule derived from ``sol.feedback``.

    It and the gain and offset perturbations of the same ``sol`` share one
    feedback evaluation per step when they run paired.
    """
    return FeedbackRule.derived(sol.feedback)


PERTURBATION_KINDS = ("offset", "gain", "time-shift")


@dataclass(frozen=True)
class Perturbation:
    """Feedback perturbation: additive offset, gain scaling, or time shift."""

    kind: str
    amount: float

    @property
    def label(self) -> str:
        return f"{self.kind}={self.amount:g}"

    def wrap(self, sol: RiccatiSolution) -> FeedbackRule:
        """The perturbed optimal feedback of ``sol``.

        Offset and gain rules are derived from ``sol.feedback``, as
        :func:`optimal_feedback_rule` is, so paired rows of them share one
        feedback evaluation; a time-shifted rule queries another time and is
        evaluated on its own row.
        """
        horizon = sol.params.T
        if self.kind == "offset":
            return FeedbackRule.derived(sol.feedback, offset=self.amount)
        if self.kind == "gain":
            return FeedbackRule.derived(sol.feedback, gain=self.amount)
        if self.kind == "time-shift":
            return FeedbackRule(
                lambda t, x, m: optimal_control(
                    sol, min(max(t + self.amount, 0.0), horizon), x, m
                )
            )
        raise ValueError(f"unknown perturbation kind {self.kind!r}")


def block_costs(
    coeffs: CoefficientSet,
    rules: Sequence,
    horizon: float,
    mc: MonteCarloSettings,
    scenarios: Sequence[int],
) -> list:
    """Sample cost of each rule on each scenario of a block, one list per
    scenario; the rules of a scenario share its noise.

    The strict rules on every scenario advance together in one lock-step
    :func:`simulate.simulate_records` run and each relaxed rule on every
    scenario in another; every cost equals that of its rule run alone on its
    scenario alone, and ``block_costs(..., [s])[0]`` is scenario s's list.
    A failure is the first that the strict group's call raises, then each
    relaxed rule's in turn, so across those calls it is call by call, not
    scenario by scenario.
    """
    def costs(group):
        return [record.costs for record in simulate_records(
            coeffs, group, mc.particles, horizon, mc.dt,
            mode=mc.mode, seed=mc.seed, scenarios=scenarios, init=mc.init,
        )]

    strict = [rule for rule in rules if rule.kind == "strict"]
    strict_columns = iter(zip(*costs(strict))) if strict else None
    columns = [
        next(strict_columns) if rule.kind == "strict" else [c for c, in costs([rule])]
        for rule in rules
    ]
    return [list(row) for row in zip(*columns)]


def simulate_optimal(
    params: LQParams, sol: RiccatiSolution, mc: MonteCarloSettings, scenario: int
) -> ParticleCloud:
    coeffs = lq_coefficients(params)
    return simulate_strict(
        coeffs,
        optimal_feedback_rule(sol),
        mc.particles,
        params.T,
        mc.dt,
        mode=mc.mode,
        seed=mc.seed,
        scenario=scenario,
        init=mc.init,
    )


# ---------------------------------------------------------------------------
# Stochastic maximum principle
# ---------------------------------------------------------------------------

def check_smp(
    cloud: ParticleCloud,
    sol: RiccatiSolution,
    u_grid: np.ndarray,
    tolerance: float,
    n_samples: int = 200,
    sample_seed: int = 0,
    config_hash: str = "",
) -> CheckReport:
    """Grid minimization of H + E'[dH] against the simulated optimal control.

    At sampled (time, particle) points the candidate control must attain the
    grid minimum up to one cell, and no grid point may undercut it by more
    than the tolerance.  ``max_undercut`` is the signed worst case of
    candidate minus grid minimum: negative when the candidate beats every
    grid point at every sample.
    """
    coeffs = lq_coefficients(sol.params)
    u_grid = np.asarray(u_grid, dtype=float)
    steps = np.diff(u_grid)
    if u_grid.ndim != 1 or steps.size == 0 or not np.all((steps > 0) & np.isfinite(steps)):
        raise ValueError("u_grid must be a finite, strictly increasing 1-D grid")
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    cell = float(np.max(steps))
    gen = np.random.default_rng(sample_seed)
    n_steps = cloud.grid.n_steps
    nodes = gen.integers(0, n_steps, size=n_samples)
    particles = gen.integers(0, cloud.n_particles, size=n_samples)

    max_undercut = -np.inf  # signed: a negative worst case is the margin
    max_cells_off = 0.0
    for node, i in zip(nodes, particles):
        t = float(cloud.times[node])
        xs = cloud.states[node]
        us = cloud.controls[node]
        rho = cloud.joint_at(node)
        adj = adjoint_ansatz(sol, t, xs, float(xs.mean()))
        own_adj = AdjointTriplet(adj.p[i], adj.P[i], adj.K[i])
        x_i = float(xs[i])

        def phi(u):
            # own Hamiltonian plus the copy-mean of the kernel at (x_i, u)
            own = hamiltonian_strict(x_i, u, rho, own_adj, coeffs)
            cross = delta_hamiltonian_strict(xs, us, rho, x_i, u[:, None], adj, coeffs)
            return own + cross.mean(axis=-1)

        grid_vals = phi(u_grid)
        candidate = float(phi(us[i : i + 1])[0])
        max_undercut = max(max_undercut, candidate - float(grid_vals.min()))
        argmin_u = float(u_grid[int(np.argmin(grid_vals))])
        max_cells_off = max(max_cells_off, abs(argmin_u - float(us[i])) / cell)

    passed = max_undercut <= tolerance and max_cells_off <= 1.0 + 1e-9
    return CheckReport(
        name="smp",
        passed=passed,
        tolerance=tolerance,
        stats={
            "max_undercut": max_undercut,
            "max_argmin_cells_off": max_cells_off,
            "samples": int(n_samples),
            "grid_cell": cell,
        },
        seed=cloud.seed,
        config_hash=config_hash,
    )


# ---------------------------------------------------------------------------
# Adjoint BSDE identities
# ---------------------------------------------------------------------------

def _bsde_residuals(cloud: ParticleCloud, sol: RiccatiSolution, k_mode: str):
    """Worst terminal, drift and jump-loading residuals along one cloud."""
    params = sol.params
    gamma_l2 = params.jumps.gamma_l2
    x_T = cloud.states[-1]
    m_T = float(x_T.mean())
    p_T = sol.beta[-1] * x_T + sol.eta[-1] * m_T
    terminal_worst = float(np.max(np.abs(p_T - params.c * (x_T - m_T))))
    drift_worst = 0.0
    fixed_point_worst = 0.0

    n_steps = cloud.grid.n_steps
    for node in range(0, n_steps, max(1, n_steps // 64)):
        t = float(cloud.times[node])
        xs = cloud.states[node]
        us = cloud.controls[node]
        m = float(xs.mean())
        abar = float(us.mean())
        beta, eta = float(sol.beta_at(t)), float(sol.eta_at(t))
        dbeta, deta = sol.rhs_at(t)
        p = beta * xs + eta * m
        big_p = beta * params.sigma * xs
        p_bar = float(p.mean())

        lhs = -(params.sigma * big_p + params.b1 * p_bar)
        rhs = (
            dbeta * xs
            + deta * m
            + (beta + eta) * (params.b1 * m + params.b2 * abar)
            + params.b3 * (beta * us + eta * abar)
        )
        drift_worst = max(drift_worst, float(np.max(np.abs(lhs - rhs))))

        k_scale = beta * us + (eta * abar if k_mode == "common" else 0.0)
        fp_res = us + gamma_l2 * k_scale + params.b2 * p_bar + params.b3 * p
        fixed_point_worst = max(fixed_point_worst, float(np.max(np.abs(fp_res))))
    return terminal_worst, drift_worst, fixed_point_worst


def check_bsde(
    clouds: Iterable[ParticleCloud],
    sol: RiccatiSolution,
    tolerance: float,
    k_mode: Optional[str] = None,
    config_hash: str = "",
) -> CheckReport:
    """Terminal condition, backward drift identity and jump-loading fixed point.

    The drift identity equates the backward-equation drift of the costate with
    the time derivative of its affine representation; it holds exactly in the
    solved Riccati coefficients, so the measured residual is pure integration
    and interpolation error.  ``k_mode`` overrides the jump-loading convention
    (used to demonstrate that the two noise regimes are not interchangeable).

    ``clouds`` is any iterable of clouds, consumed once; the report's
    ``paths`` counts them and its seed is the first cloud's.  Each cloud is
    let go before the next is drawn, so a generator that simulates them one
    by one keeps a single cloud in memory.
    """
    k_mode = k_mode or sol.mode
    terminal_worst = 0.0
    drift_worst = 0.0
    fixed_point_worst = 0.0
    paths, seed = 0, 0

    for cloud in clouds:
        if not paths:
            seed = cloud.seed
        paths += 1
        terminal, drift, fixed_point = _bsde_residuals(cloud, sol, k_mode)
        del cloud  # before the iterable draws the next one
        terminal_worst = max(terminal_worst, terminal)
        drift_worst = max(drift_worst, drift)
        fixed_point_worst = max(fixed_point_worst, fixed_point)

    passed = (
        terminal_worst <= 1e-12
        and drift_worst <= tolerance
        and fixed_point_worst <= tolerance
    )
    return CheckReport(
        name="bsde",
        passed=passed,
        tolerance=tolerance,
        stats={
            "terminal_residual": terminal_worst,
            "drift_residual": drift_worst,
            "k_fixed_point_residual": fixed_point_worst,
            "paths": paths,
            "k_mode": k_mode,
        },
        seed=seed,
        config_hash=config_hash,
    )


# ---------------------------------------------------------------------------
# HJB residual
# ---------------------------------------------------------------------------

def hjb_inner_minimizer(sol: RiccatiSolution, t: float, mu: EmpiricalMeasure):
    """Atom-wise minimizer of the dynamic programming integrand.

    Collecting the control-dependent terms of the operator (the compensator
    and jump-difference contributions in gamma cancel at first order and
    contribute Gamma-quadratics) yields the scalar quadratic functional of
    the minimization lemma with

        a = (1 + Gamma beta)/2,   b = b3 beta,
        c = Gamma eta / 2,        d = (b2 (beta+eta) + b3 eta) mean.
    """
    params = sol.params
    beta, eta = float(sol.beta_at(t)), float(sol.eta_at(t))
    gamma_l2 = params.jumps.gamma_l2
    mean = float(mu.mean[0])
    a = 0.5 * (1.0 + gamma_l2 * beta)
    b = params.b3 * beta
    c = 0.5 * gamma_l2 * eta
    d = (params.b2 * (beta + eta) + params.b3 * eta) * mean
    xi_star, _ = quadratic_minimizer(a, b, c, d, mu)
    return xi_star


def hjb_residual(sol: RiccatiSolution, t: float, mu: EmpiricalMeasure) -> float:
    """dJ/dt + (dynamic programming operator) at one (t, measure) sample.

    The operator is evaluated term by term at the inner minimizer: running
    cost, drift and compensator paired with the measure derivative, diffusion
    paired with its state derivative, and the exact jump differences of the
    value function under the atom shift.  This is the common-noise equation:
    only under shared jumps does the conditional law move by the measure
    shift, so idiosyncratic solutions are rejected.
    """
    if sol.mode != "common":
        raise ValueError("the measure-jump dynamic programming equation "
                         "characterizes the common-noise value function")
    params = sol.params
    coeffs = lq_coefficients(params)
    alpha = hjb_inner_minimizer(sol, t, mu)
    x = mu.atoms[:, 0]
    w = mu.weights
    mean = float(mu.mean[0])
    mean_alpha = float(w @ alpha)
    beta = float(sol.beta_at(t))
    dmu_vals = beta * x + float(sol.eta_at(t)) * mean

    drift_vals = params.b1 * mean + params.b2 * mean_alpha + params.b3 * alpha
    compensator = params.jumps.gamma_l1 * alpha
    running = 0.5 * alpha**2
    diffusion_term = 0.5 * (params.sigma * x) ** 2 * beta
    value = float(w @ (running + (drift_vals - compensator) * dmu_vals + diffusion_term))

    kernel = RelaxedKernel.dirac(alpha)
    for j in range(params.jumps.n_marks):
        shifted = shift_adjoint(mu, kernel, j, coeffs)
        value += params.jumps.intensities[j] * (
            value_function(sol, t, shifted) - value_function(sol, t, mu)
        )

    # time derivative from the solved curve itself (finite differences on the
    # interpolant), so the residual reflects the integration error and is not
    # an algebraic identity in the equation's right-hand side; second-order
    # one-sided stencils keep the boundary accuracy
    h = float(sol.ts[1] - sol.ts[0])
    if h <= t <= params.T - h:
        dt_part = (
            value_function(sol, t + h, mu) - value_function(sol, t - h, mu)
        ) / (2.0 * h)
    elif t < h:
        dt_part = (
            -3.0 * value_function(sol, t, mu)
            + 4.0 * value_function(sol, t + h, mu)
            - value_function(sol, t + 2.0 * h, mu)
        ) / (2.0 * h)
    else:
        dt_part = (
            3.0 * value_function(sol, t, mu)
            - 4.0 * value_function(sol, t - h, mu)
            + value_function(sol, t - 2.0 * h, mu)
        ) / (2.0 * h)
    return dt_part + value


def check_hjb(
    sol: RiccatiSolution,
    samples: Sequence[tuple],
    tolerance: float,
    seed: int = 0,
    config_hash: str = "",
) -> CheckReport:
    """Max dynamic-programming residual over sampled (t, measure) pairs."""
    residuals = np.array([hjb_residual(sol, t, mu) for t, mu in samples])
    worst = float(np.max(np.abs(residuals)))
    return CheckReport(
        name="hjb",
        passed=worst <= tolerance,
        tolerance=tolerance,
        stats={
            "max_residual": worst,
            "mean_residual": float(np.mean(np.abs(residuals))),
            "samples": len(samples),
            "riccati_midpoint_residual": sol.midpoint_residual(),
        },
        seed=seed,
        config_hash=config_hash,
    )


def hjb_sample_measures(
    sol: RiccatiSolution, n_samples: int, max_atoms: int, seed: int
) -> list:
    """Random (t, measure) pairs for the dynamic programming check."""
    gen = np.random.default_rng(seed)
    samples = []
    for _ in range(n_samples):
        t = float(gen.uniform(0.0, sol.params.T))
        n = int(gen.integers(1, max_atoms + 1))
        atoms = gen.normal(loc=1.0, scale=1.0, size=n)
        w = gen.dirichlet(np.ones(n))
        samples.append((t, EmpiricalMeasure(atoms.reshape(-1, 1), w)))
    return samples


# ---------------------------------------------------------------------------
# Optimality by perturbation
# ---------------------------------------------------------------------------

def check_optimality(
    params: LQParams,
    perturbations: Sequence[Perturbation],
    mc: MonteCarloSettings,
    config_hash: str = "",
    workers: int = 1,
) -> CheckReport:
    """Paired-cost comparison of the candidate optimum against perturbations.

    All rules see identical noise per scenario (common random numbers), so
    the per-scenario cost differences estimate the true gaps with far less
    variance than independent runs.  The realized optimal cost must also
    match the value function at the initial law within Monte Carlo error plus
    a measured time-discretization allowance.
    """
    sol = solve_riccati(params, mc.mode, mc.riccati_steps)
    coeffs = lq_coefficients(params)
    rules = {"optimal": optimal_feedback_rule(sol)}
    for pert in perturbations:
        rules[pert.label] = pert.wrap(sol)

    coarse_mc = replace(mc, dt=2 * mc.dt)

    def costs_of(block):
        # the coarse run has its own grid, so it runs as a block of its own
        fine = block_costs(coeffs, list(rules.values()), params.T, mc, block)
        coarse = block_costs(coeffs, [rules["optimal"]], params.T, coarse_mc, block)
        return [f + c for f, c in zip(fine, coarse)]

    table = np.array(map_blocks(costs_of, mc.scenarios, workers)).T
    costs = dict(zip(rules, table))
    coarse = table[-1]

    inconclusive = mc.scenarios < 2
    gaps, gap_sigmas = {}, {}
    worst_margin = np.inf
    for pert in perturbations:
        diff = costs[pert.label] - costs["optimal"]
        sigma = standard_error(diff)
        gaps[pert.label] = float(diff.mean())
        gap_sigmas[pert.label] = sigma
        worst_margin = min(worst_margin, gaps[pert.label] + 3.0 * sigma)

    base = costs["optimal"]
    base_sigma = standard_error(base)
    bias = abs(float(base.mean() - coarse.mean()))
    if mc.init.kind == "gaussian":
        second = mc.init.mean**2 + mc.init.std**2
        first = mc.init.mean
    else:
        w = mc.init.weights / mc.init.weights.sum()
        first = float(w @ mc.init.atoms)
        second = float(w @ np.asarray(mc.init.atoms) ** 2)
    value0 = 0.5 * (sol.beta[0] * second + sol.eta[0] * first**2)
    value_gap = abs(float(base.mean()) - value0)
    value_allowance = 3.0 * base_sigma + 5.0 * bias

    passed = (worst_margin >= 0.0) and (value_gap <= value_allowance)
    return CheckReport(
        name="optimality",
        passed=bool(passed and not inconclusive),
        tolerance=0.0,
        stats={
            "gaps": gaps,
            "gap_sigmas": gap_sigmas,
            "cost_optimal": float(base.mean()),
            "cost_sigma": base_sigma,
            "value_function": float(value0),
            "value_gap": value_gap,
            "value_allowance": value_allowance,
            "dt_bias_estimate": bias,
        },
        seed=mc.seed,
        config_hash=config_hash,
        inconclusive=inconclusive,
    )


# ---------------------------------------------------------------------------
# Fokker-Planck consistency
# ---------------------------------------------------------------------------

def _events_by_node(cloud: ParticleCloud) -> dict:
    """Marks of the common events landing at each node (none when idiosyncratic)."""
    events = {}
    if cloud.mode == "common":
        for node, mark, _ in cloud.event_log:
            events.setdefault(node, []).append(mark)
    return events


def _step_laws(cloud: ParticleCloud, events: dict):
    """Per step k of a strict cloud: (k, h, law at node k, Dirac kernel of the
    step's controls, pre-jump law at node k + 1 or None).

    The laws and kernels are trusted views of the cloud's arrays: the
    uniform weights and the unit kernel weights are built once per cloud.
    """
    n = cloud.n_particles
    weights = np.full(n, 1.0 / n)
    ones = np.ones((n, 1))
    times = cloud.times
    for k in range(cloud.grid.n_steps):
        pre_mu = None
        if k + 1 in events:
            pre_mu = EmpiricalMeasure.trusted(cloud.pre_jump_states[k + 1], weights)
        yield (
            k,
            float(times[k + 1] - times[k]),
            EmpiricalMeasure.trusted(cloud.states[k], weights),
            RelaxedKernel.trusted(cloud.controls[k].reshape(-1, 1), ones),
            pre_mu,
        )


def _fp_terminal_error(
    params: LQParams,
    sol: RiccatiSolution,
    mc: MonteCarloSettings,
    dictionary: TestFunctionDictionary,
    scenario: int,
) -> np.ndarray:
    """Per-dictionary-entry gap between accumulated predictions and the cloud."""
    coeffs = lq_coefficients(params)
    cloud = simulate_optimal(params, sol, mc, scenario)
    events = _events_by_node(cloud)
    predicted = [
        float(np.mean(np.asarray(phi.value(cloud.states[0]), dtype=float)))
        for phi in dictionary
    ]
    for k, h, mu, kernel, pre_mu in _step_laws(cloud, events):
        agg = aggregate_coeffs(mu, kernel, coeffs)
        for j, a0 in enumerate(drift_pairings(mu, agg, coeffs, dictionary)):
            predicted[j] += h * a0
        for mark in events.get(k + 1, ()):
            signed = apply_A1(pre_mu, kernel, mark, coeffs)
            for j, phi in enumerate(dictionary):
                predicted[j] += signed.pairing(phi.value)

    x_T = cloud.states[-1]
    return np.array(
        [
            p - float(np.mean(np.asarray(phi.value(x_T), dtype=float)))
            for p, phi in zip(predicted, dictionary)
        ]
    )


def check_fp(
    params: LQParams,
    mc: MonteCarloSettings,
    dictionary: Optional[TestFunctionDictionary] = None,
    ratio_band: tuple = (0.3, 0.7),
    config_hash: str = "",
    workers: int = 1,
) -> CheckReport:
    """Weak-form flow predictions against the cloud under a 2x2 refinement.

    The accumulated prediction error is O(dt) + O(N^{-1/2}); halving dt while
    quadrupling N must roughly halve it.  Per test function the errors are
    pooled over scenarios in root-mean-square (the deterministic component
    halves and the martingale variance quarters, so the RMS halves either
    way); the per-entry refinement factors are then combined geometrically.
    """
    if mc.mode != "common":
        raise ValueError("the conditional-law flow check runs under common noise")
    dictionary = dictionary or default_dictionary()
    sol = solve_riccati(params, mc.mode, mc.riccati_steps)
    fine = replace(mc, dt=mc.dt / 2.0, particles=4 * mc.particles)
    rms = {}
    for label, settings in (("coarse", mc), ("fine", fine)):
        per_scenario = np.stack(map_blocks(
            lambda block: [
                _fp_terminal_error(params, sol, settings, dictionary, s) for s in block
            ],
            settings.scenarios, workers,
        ))
        rms[label] = np.sqrt(np.mean(per_scenario**2, axis=0))
    live = rms["coarse"] > 0
    per_entry = rms["fine"][live] / rms["coarse"][live]
    ratio = float(np.exp(np.mean(np.log(per_entry)))) if per_entry.size else np.nan
    passed = bool(ratio_band[0] <= ratio <= ratio_band[1])
    return CheckReport(
        name="fp",
        passed=passed,
        tolerance=ratio_band[1],
        stats={
            "coarse_error": float(np.max(rms["coarse"])),
            "fine_error": float(np.max(rms["fine"])),
            "ratio": ratio,
            "per_entry_ratios": [float(r) for r in per_entry],
            "band": list(ratio_band),
        },
        seed=mc.seed,
        config_hash=config_hash,
    )


# ---------------------------------------------------------------------------
# Noise-mode comparison
# ---------------------------------------------------------------------------

def compare_noise_modes(
    params: LQParams,
    mc: MonteCarloSettings,
    jump_ratio_min: float = 5.0,
    config_hash: str = "",
    workers: int = 1,
) -> CheckReport:
    """Shared vs per-particle jumps: Riccati agreement without jumps, and the
    conditional-mean jump statistic dominance with them.

    Each worker runs the optimal feedback history-free on its block of
    scenarios (:func:`simulate.simulate_records`): each scenario's node means
    and event log give the jump statistics, so memory holds one batch of
    clouds per worker, not the ``(steps + 1) x N`` history of a
    :class:`ParticleCloud`.
    """
    stripped = replace(params, jumps=JumpSpec.empty())
    sol_c0 = solve_riccati(stripped, "common", mc.riccati_steps)
    sol_i0 = solve_riccati(stripped, "idiosyncratic", mc.riccati_steps)
    riccati_gap = float(
        max(
            np.max(np.abs(sol_c0.beta - sol_i0.beta)),
            np.max(np.abs(sol_c0.eta - sol_i0.eta)),
        )
    )

    stats = {"riccati_gap_no_jumps": riccati_gap}
    passed = riccati_gap <= 1e-10
    inconclusive = False
    has_jumps = params.jumps.n_marks > 0 and params.jumps.gamma_l2 > 0

    if has_jumps:
        coeffs = lq_coefficients(params)
        mean_jumps, n_events, event_vs_quiet = {}, {}, {}
        for mode in ("common", "idiosyncratic"):
            rule = optimal_feedback_rule(solve_riccati(params, mode, mc.riccati_steps))

            def jump_statistics(record):
                event_nodes = {node for node, _, _ in record.event_log}
                incr = np.abs(np.diff(record.means))
                return (
                    [abs(d) for _, _, d in record.event_log],
                    [incr[k] for k in range(len(incr)) if (k + 1) not in event_nodes],
                    [incr[k] for k in range(len(incr)) if (k + 1) in event_nodes],
                )

            def block_statistics(block):
                return [jump_statistics(record) for record in simulate_records(
                    coeffs, [rule], mc.particles, params.T, mc.dt, mode=mode,
                    seed=mc.seed, scenarios=block, init=mc.init,
                )]

            displacements, quiet_incr, event_incr = [], [], []
            for disp, quiet, event in map_blocks(block_statistics, mc.scenarios, workers):
                displacements += disp
                quiet_incr += quiet
                event_incr += event
            mean_jumps[mode] = float(np.mean(displacements)) if displacements else 0.0
            n_events[mode] = len(displacements)
            event_vs_quiet[mode] = (
                float(np.mean(event_incr) / np.mean(quiet_incr))
                if event_incr and quiet_incr
                else np.nan
            )
        ratio = (
            mean_jumps["common"] / mean_jumps["idiosyncratic"]
            if mean_jumps["idiosyncratic"] > 0
            else np.inf
        )
        stats.update(
            {
                "mean_jump_common": mean_jumps["common"],
                "mean_jump_idiosyncratic": mean_jumps["idiosyncratic"],
                "jump_ratio": float(ratio),
                "event_increment_ratio_common": event_vs_quiet["common"],
                "event_increment_ratio_idiosyncratic": event_vs_quiet["idiosyncratic"],
            }
        )
        # with no shared jump drawn in any scenario there is nothing to compare
        inconclusive = n_events["common"] == 0
        passed = passed and ratio >= jump_ratio_min and not inconclusive

    return CheckReport(
        name="noise-modes",
        passed=bool(passed),
        inconclusive=inconclusive,
        tolerance=jump_ratio_min,
        stats=stats,
        seed=mc.seed,
        config_hash=config_hash,
    )


# ---------------------------------------------------------------------------
# Chattering convergence
# ---------------------------------------------------------------------------

def check_chattering(
    coeffs: CoefficientSet,
    relaxed_rule: RelaxedRule,
    horizon: float,
    mc: MonteCarloSettings,
    levels: Sequence[int] = (2, 4, 8, 16, 32),
    sigma_factor: float = 5.0,
    config_hash: str = "",
    workers: int = 1,
) -> CheckReport:
    """Paired cost gaps between slab approximations and the relaxed control."""
    rules = [relaxed_rule] + [ChatteringRule(relaxed_rule, n, horizon) for n in levels]
    table = np.array(map_blocks(
        lambda block: block_costs(coeffs, rules, horizon, mc, block), mc.scenarios, workers
    )).T
    relaxed_costs = table[0]
    gaps, sigmas = [], []
    for costs in table[1:]:
        diffs = costs - relaxed_costs
        gaps.append(abs(float(diffs.mean())))
        sigmas.append(standard_error(diffs))
    final_sigma = max(sigmas[-1], 1e-15)
    decreased = gaps[-1] < gaps[0] + 3.0 * sigmas[0]
    small = gaps[-1] <= sigma_factor * final_sigma
    stats = {
        "levels": list(levels),
        "gaps": gaps,
        "gap_sigmas": sigmas,
        "final_gap": gaps[-1],
        "final_sigma": final_sigma,
    }
    # overflowed costs make a gap or its standard error inf or nan, and the
    # comparisons above then decide nothing
    non_finite = [
        name for name in ("gaps", "gap_sigmas") if not np.all(np.isfinite(stats[name]))
    ]
    if non_finite:
        stats["non_finite"] = non_finite
    return CheckReport(
        name="chattering",
        passed=bool(decreased and small and not non_finite),
        tolerance=sigma_factor,
        stats=stats,
        seed=mc.seed,
        config_hash=config_hash,
        inconclusive=mc.scenarios < 2 or bool(non_finite),
    )


# ---------------------------------------------------------------------------
# One-step pairing table
# ---------------------------------------------------------------------------

def pairing_table(
    cloud: ParticleCloud,
    coeffs: CoefficientSet,
    dictionary: Optional[TestFunctionDictionary] = None,
) -> list:
    """Per-step one-step predictions vs observed pairings along a strict cloud.

    Rows are (step, phi-id, predicted, observed, residual); event steps use
    the recorded pre-jump cloud for the jump contribution.
    """
    dictionary = dictionary or default_dictionary()
    events = _events_by_node(cloud)
    rows = []
    for k, h, mu, kernel, pre_mu in _step_laws(cloud, events):
        marks = events.get(k + 1, [])
        jump_state = (pre_mu, kernel) if marks else None
        preds = fp_step(mu, kernel, h, marks, coeffs, dictionary, jump_state)
        x_next = cloud.states[k + 1]
        for phi in dictionary:
            observed = float(np.mean(np.asarray(phi.value(x_next), dtype=float)))
            predicted = preds[phi.name]
            rows.append((k, phi.name, predicted, observed, predicted - observed))
    return rows

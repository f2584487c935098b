import json
import math

import numpy as np
import pytest

from mfcpoisson.coefficients import (
    AdjointTriplet,
    CoefficientSet,
    JumpSpec,
    LQParams,
    delta_hamiltonian_strict,
    hamiltonian_strict,
    lq_coefficients,
)
from mfcpoisson.lq import (
    LQValueEvaluator,
    adjoint_ansatz,
    mean_optimal_control,
    optimal_control,
    solve_riccati,
)
from mfcpoisson.measureflow import ito_residual
from mfcpoisson.measures import EmpiricalMeasure, JointEmpiricalMeasure
from mfcpoisson.simulate import (
    ChatteringRule,
    FeedbackRule,
    InitSpec,
    OpenLoopRule,
    RelaxedRule,
    simulate_record,
    simulate_strict,
)
from mfcpoisson.verify import (
    MonteCarloSettings,
    Perturbation,
    check_bsde,
    check_chattering,
    check_fp,
    check_hjb,
    check_optimality,
    check_smp,
    compare_noise_modes,
    copy_expectation,
    hjb_inner_minimizer,
    hjb_residual,
    hjb_sample_measures,
    measure_path_from_cloud,
    optimal_feedback_rule,
    scenario_costs,
    simulate_optimal,
)

from _oracles import compare_noise_reference, smp_phi_reference


def make_params(**kw):
    defaults = dict(
        b1=0.5, b2=0.4, b3=1.0, sigma=0.4, c=1.0, T=1.0,
        jumps=JumpSpec([1.0], [1.0], [0.3]),
    )
    defaults.update(kw)
    return LQParams(**defaults)


MC_SMALL = MonteCarloSettings(
    particles=300, scenarios=2, dt=1e-3, seed=7,
    init=InitSpec("gaussian", 1.0, 0.5), riccati_steps=4096,
)


@pytest.fixture(scope="module")
def lq_setup():
    params = make_params()
    sol = solve_riccati(params, "common", 4096)
    clouds = [simulate_optimal(params, sol, MC_SMALL, s) for s in range(2)]
    return params, sol, clouds


class TestCopyExpectation:
    def test_constant_kernel(self, lq_setup):
        _, _, clouds = lq_setup
        vals = copy_expectation(clouds[0], 0.0, lambda x, xp: np.ones_like(x * xp))
        np.testing.assert_allclose(vals, 1.0)

    def test_copy_value_gives_cloud_mean(self, lq_setup):
        _, _, clouds = lq_setup
        cloud = clouds[0]
        vals = copy_expectation(cloud, 0.0, lambda x, xp: xp + 0.0 * x)
        np.testing.assert_allclose(vals, cloud.states[0].mean(), atol=1e-12)

    def test_product_factorizes(self, lq_setup):
        _, _, clouds = lq_setup
        cloud = clouds[0]
        vals = copy_expectation(cloud, 0.0, lambda x, xp: x * xp)
        np.testing.assert_allclose(
            vals, cloud.states[0] * cloud.states[0].mean(), atol=1e-12
        )

    def test_pooling_extra_states(self, lq_setup):
        _, _, clouds = lq_setup
        cloud = clouds[0]
        extra = np.array([5.0, -5.0])
        vals = copy_expectation(cloud, 0.0, lambda x, xp: xp + 0.0 * x, extra_states=extra)
        pooled = np.concatenate([cloud.states[0], extra]).mean()
        np.testing.assert_allclose(vals, pooled, atol=1e-12)


class TestSmp:
    def test_quadratic_only_instance(self):
        # no control channels: H + cross term is u^2/2, minimized at the
        # simulated control 0
        params = make_params(b2=0.0, b3=0.0, jumps=JumpSpec([1.0], [1.0], [0.0]))
        sol = solve_riccati(params, "common", 2048)
        cloud = simulate_optimal(params, sol, MC_SMALL, 0)
        rep = check_smp(cloud, sol, np.linspace(-2, 2, 161), 1e-8, n_samples=40)
        assert rep.passed
        assert np.max(np.abs(cloud.controls)) == 0.0

    def test_generic_lq_instance(self, lq_setup):
        _, sol, clouds = lq_setup
        rep = check_smp(clouds[0], sol, np.linspace(-3, 3, 241), 1e-8, n_samples=60)
        assert rep.passed
        assert rep.stats["max_undercut"] <= 1e-8
        assert rep.stats["max_argmin_cells_off"] <= 1.0

    def test_argmin_stable_under_grid_refinement(self, lq_setup):
        _, sol, clouds = lq_setup
        coarse = check_smp(clouds[0], sol, np.linspace(-3, 3, 121), 1e-8, n_samples=40)
        fine = check_smp(clouds[0], sol, np.linspace(-3, 3, 241), 1e-8, n_samples=40)
        assert coarse.passed and fine.passed

    def test_costate_shift_moves_vertex(self, lq_setup):
        # first-order condition: adding 1 to the costate moves the minimizer by -b3
        params, sol, clouds = lq_setup
        coeffs = lq_coefficients(params)
        cloud = clouds[0]
        xs = cloud.states[0]
        us = cloud.controls[0]
        rho = JointEmpiricalMeasure.strict(xs, us)
        u_grid = np.linspace(-4, 4, 3201)

        def argmin_with(p_shift):
            adj = AdjointTriplet(1.2 + p_shift, 0.3, np.array([0.5]))
            vals = [
                hamiltonian_strict(float(xs[0]), float(u), rho, adj, coeffs)
                + delta_hamiltonian_strict(
                    float(xs[1]), float(us[1]), rho, float(xs[0]), float(u),
                    AdjointTriplet(0.7, 0.0, np.zeros(1)), coeffs,
                )
                for u in u_grid
            ]
            return float(u_grid[int(np.argmin(vals))])

        shift = argmin_with(1.0) - argmin_with(0.0)
        assert shift == pytest.approx(-params.b3, abs=3e-3)


def written_out_adjoint(sol, t, xs):
    """(p, P, K) at states xs: p = beta x + eta m, P = beta sigma x, K_j = gamma_j k_scale."""
    m = float(xs.mean())
    beta, eta = sol.beta_at(t), sol.eta_at(t)
    k_scale = beta * optimal_control(sol, t, xs, m)
    if sol.mode == "common":
        k_scale = k_scale + eta * mean_optimal_control(sol, t, m)
    gamma = sol.params.jumps.gamma_values
    return beta * xs + eta * m, beta * sol.params.sigma * xs, k_scale[:, None] * gamma


def smp_stats_reference(cloud, sol, u_grid, n_samples, sample_seed=0):
    """(max_undercut, max_argmin_cells_off) of check_smp's samples, via the oracle."""
    coeffs = lq_coefficients(sol.params)
    gen = np.random.default_rng(sample_seed)
    nodes = gen.integers(0, cloud.grid.n_steps, size=n_samples)
    particles = gen.integers(0, cloud.n_particles, size=n_samples)
    cell = float(np.max(np.diff(u_grid)))
    undercut, cells_off = -np.inf, 0.0
    for node, i in zip(nodes, particles):
        xs, us = cloud.states[node], cloud.controls[node]
        adjoint = written_out_adjoint(sol, float(cloud.times[node]), xs)
        rho = cloud.joint_at(node)
        grid_vals = smp_phi_reference(coeffs, rho, xs, us, i, u_grid, *adjoint)
        candidate = smp_phi_reference(coeffs, rho, xs, us, i, [us[i]], *adjoint)[0]
        undercut = max(undercut, candidate - float(grid_vals.min()))
        argmin_u = float(u_grid[int(np.argmin(grid_vals))])
        cells_off = max(cells_off, abs(argmin_u - float(us[i])) / cell)
    return undercut, cells_off


class TestSmpMatchesOracle:
    """check_smp through the public Hamiltonians equals the per-point oracle."""

    CASES = {
        "common": (JumpSpec([1.0], [1.0], [0.3]), "common"),
        "two-marks": (JumpSpec([1.0, 2.0], [0.7, 1.9], [0.3, -0.2]), "common"),
        "idiosyncratic": (JumpSpec([1.0], [1.0], [0.3]), "idiosyncratic"),
    }
    U_GRID = np.linspace(-3, 3, 121)

    def _cloud(self, case, detuned):
        spec, mode = self.CASES[case]
        params = make_params(jumps=spec)
        sol = solve_riccati(params, mode, 2048)
        mc = MonteCarloSettings(
            particles=150, scenarios=1, dt=2e-3, seed=11, mode=mode,
            init=InitSpec("gaussian", 1.0, 0.5), riccati_steps=2048,
        )
        # a detuned feedback (terminal weight 3c) gives controls off the argmin
        driver = sol
        if detuned:
            driver = solve_riccati(make_params(c=3.0, jumps=spec), mode, 2048)
        return simulate_optimal(params, driver, mc, 0), sol

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("detuned", [False, True])
    def test_stats_equal_the_oracle(self, case, detuned):
        cloud, sol = self._cloud(case, detuned)
        rep = check_smp(cloud, sol, self.U_GRID, 1e-8, n_samples=25, sample_seed=5)
        undercut, cells_off = smp_stats_reference(cloud, sol, self.U_GRID, 25, sample_seed=5)
        assert rep.stats["max_undercut"] == undercut
        assert rep.stats["max_argmin_cells_off"] == cells_off
        assert rep.passed != detuned
        if detuned:
            assert undercut > 1e-4 and cells_off > 1.0

    @pytest.mark.parametrize("case", list(CASES))
    def test_grid_values_equal_the_oracle(self, case):
        # the (G,) own call plus the copy-mean of the (G, N) kernel call, bit for bit
        cloud, sol = self._cloud(case, detuned=True)
        coeffs = lq_coefficients(sol.params)
        grid = self.U_GRID
        for node, i in [(0, 0), (137, 42), (cloud.grid.n_steps - 1, 149)]:
            t = float(cloud.times[node])
            xs, us = cloud.states[node], cloud.controls[node]
            p, big_p, k = written_out_adjoint(sol, t, xs)
            adj = adjoint_ansatz(sol, t, xs, float(xs.mean()))
            assert all(map(np.array_equal, (adj.p, adj.P, adj.K), (p, big_p, k)))
            rho = cloud.joint_at(node)
            own = hamiltonian_strict(
                float(xs[i]), grid, rho, AdjointTriplet(p[i], big_p[i], k[i]), coeffs
            )
            cross = delta_hamiltonian_strict(
                xs, us, rho, float(xs[i]), grid[:, None], adj, coeffs
            )
            want = smp_phi_reference(coeffs, rho, xs, us, i, grid, p, big_p, k)
            assert np.array_equal(own + cross.mean(axis=-1), want)

    @pytest.mark.parametrize(
        "u_grid",
        [np.linspace(3, -3, 11), np.full(5, 1.0), np.array([0.0, np.nan, 1.0]), np.zeros(1)],
    )
    def test_bad_grid_raises(self, lq_setup, u_grid):
        _, sol, clouds = lq_setup
        with pytest.raises(ValueError, match="u_grid"):
            check_smp(clouds[0], sol, u_grid, 1e-8, n_samples=5)

    def test_no_samples_raises(self, lq_setup):
        _, sol, clouds = lq_setup
        with pytest.raises(ValueError, match="n_samples"):
            check_smp(clouds[0], sol, np.linspace(-3, 3, 11), 1e-8, n_samples=0)


class TestBsde:
    def test_frozen_instance_zero_residual(self):
        params = make_params(
            b1=0.0, b2=0.0, b3=0.0, sigma=0.0, jumps=JumpSpec([1.0], [1.0], [0.0])
        )
        sol = solve_riccati(params, "common", 2048)
        cloud = simulate_optimal(params, sol, MC_SMALL, 0)
        rep = check_bsde([cloud], sol, 1e-12)
        assert rep.passed

    def test_closed_form_instance(self):
        # beta_t = 1/(2-t): residual below 1e-7 with 1e4 integrator steps
        params = make_params(b1=0.0, b2=0.0, sigma=0.0, jumps=JumpSpec([1.0], [1.0], [0.0]))
        sol = solve_riccati(params, "common", 10_000)
        mc = MonteCarloSettings(
            particles=200, scenarios=2, dt=2e-3, seed=3,
            init=InitSpec("gaussian", 1.0, 0.5), riccati_steps=10_000,
        )
        clouds = [simulate_optimal(params, sol, mc, s) for s in range(2)]
        rep = check_bsde(clouds, sol, 1e-7)
        assert rep.passed
        assert rep.stats["drift_residual"] < 1e-7

    def test_generic_instance(self, lq_setup):
        _, sol, clouds = lq_setup
        rep = check_bsde(clouds, sol, 1e-6)
        assert rep.passed
        assert rep.stats["terminal_residual"] <= 1e-12

    def test_mode_swap_flips_jump_identity(self, lq_setup):
        # common-noise jump loading carries the mean-control term; dropping it
        # must break the fixed point on a gamma != 0, sigma != 0 instance
        _, sol, clouds = lq_setup
        good = check_bsde(clouds, sol, 1e-6)
        bad = check_bsde(clouds, sol, 1e-6, k_mode="idiosyncratic")
        assert good.passed and not bad.passed
        assert bad.stats["k_fixed_point_residual"] > 1e-4


class TestHjb:
    def test_inner_minimizer_matches_feedback_formula(self, lq_setup):
        _, sol, _ = lq_setup
        for t, mu in hjb_sample_measures(sol, 20, 16, seed=1):
            xi = hjb_inner_minimizer(sol, t, mu)
            want = optimal_control(sol, t, mu.atoms[:, 0], float(mu.mean[0]))
            np.testing.assert_allclose(xi, want, atol=1e-10)

    def test_residual_small_on_random_measures(self, lq_setup):
        _, sol, _ = lq_setup
        tol = 1e-6 + 10.0 * sol.midpoint_residual()
        rep = check_hjb(sol, hjb_sample_measures(sol, 50, 16, seed=2), tol)
        assert rep.passed

    def test_residual_vanishes_along_the_optimal_flow(self, lq_setup):
        # cross-module identity: along the simulated optimal flow the chain
        # rule drift plus compensated jump differences equals minus the running
        # cost, i.e. the dynamic programming residual at the cloud's own law
        # stays at Riccati-error scale
        _, sol, clouds = lq_setup
        cloud = clouds[0]
        tol = 1e-6 + 10.0 * sol.midpoint_residual()
        for node in range(0, cloud.grid.n_steps, cloud.grid.n_steps // 7):
            res = hjb_residual(sol, float(cloud.times[node]), cloud.measure_at(node))
            assert abs(res) < tol

    def test_no_jump_no_control_reduces_to_riccati_identity(self):
        params = make_params(b2=0.0, b3=0.0, jumps=JumpSpec([1.0], [1.0], [0.0]))
        sol = solve_riccati(params, "common", 4096)
        tol = 1e-6 + 10.0 * sol.midpoint_residual()
        rep = check_hjb(sol, hjb_sample_measures(sol, 30, 8, seed=3), tol)
        assert rep.passed

    def test_idiosyncratic_solution_rejected(self):
        # under per-particle jumps the law flows continuously; the measure-jump
        # equation does not apply and the residual would be spurious
        params = make_params()
        sol = solve_riccati(params, "idiosyncratic", 2048)
        with pytest.raises(ValueError):
            hjb_residual(sol, 0.3, EmpiricalMeasure.from_samples([0.0, 1.0]))


class TestOptimality:
    def test_identity_perturbation_is_exactly_paired(self):
        params = make_params()
        mc = MonteCarloSettings(
            particles=100, scenarios=3, dt=5e-3, seed=12,
            init=InitSpec("gaussian", 1.0, 0.5), riccati_steps=1024,
        )
        rep = check_optimality(params, [Perturbation("gain", 1.0)], mc)
        assert rep.stats["gaps"]["gain=1"] == 0.0
        assert rep.stats["gap_sigmas"]["gain=1"] == 0.0

    def test_perturbations_never_win(self):
        params = make_params()
        mc = MonteCarloSettings(
            particles=300, scenarios=12, dt=2e-3, seed=5,
            init=InitSpec("gaussian", 1.0, 0.5), riccati_steps=2048,
        )
        perts = [
            Perturbation("gain", 0.5),
            Perturbation("gain", 1.5),
            Perturbation("offset", 0.5),
            Perturbation("offset", -0.5),
            Perturbation("time-shift", 0.2),
        ]
        rep = check_optimality(params, perts, mc)
        assert rep.passed
        for label, gap in rep.stats["gaps"].items():
            assert gap >= -3.0 * rep.stats["gap_sigmas"][label]

    def test_offset_without_dynamic_channel_costs_exactly_quadratic(self):
        # b2=b3=0, gamma=0: the control does not enter the dynamics, so the
        # paired gap is the deterministic running-cost difference delta^2 T / 2
        params = make_params(b2=0.0, b3=0.0, jumps=JumpSpec([1.0], [1.0], [0.0]))
        mc = MonteCarloSettings(
            particles=100, scenarios=2, dt=5e-3, seed=2,
            init=InitSpec("gaussian", 1.0, 0.5), riccati_steps=1024,
        )
        rep = check_optimality(params, [Perturbation("offset", 0.5)], mc)
        assert rep.stats["gaps"]["offset=0.5"] == pytest.approx(
            0.5 * 0.25 * params.T, abs=1e-12
        )
        assert rep.stats["gap_sigmas"]["offset=0.5"] <= 1e-12

    def test_paired_variance_no_worse_than_unpaired(self):
        params = make_params()
        mc = MonteCarloSettings(
            particles=200, scenarios=10, dt=2e-3, seed=9,
            init=InitSpec("gaussian", 1.0, 0.5), riccati_steps=2048,
        )
        sol = solve_riccati(params, mc.mode, mc.riccati_steps)
        coeffs = lq_coefficients(params)
        from mfcpoisson.simulate import cost_of_cloud

        base, pert = [], []
        rule_base = optimal_feedback_rule(sol)
        rule_pert = Perturbation("gain", 1.5).wrap(sol)
        for s in range(mc.scenarios):
            kw = dict(mode=mc.mode, seed=mc.seed, init=mc.init)
            base.append(cost_of_cloud(simulate_strict(
                coeffs, rule_base, mc.particles, params.T, mc.dt, scenario=s, **kw
            ), coeffs))
            pert.append(cost_of_cloud(simulate_strict(
                coeffs, rule_pert, mc.particles, params.T, mc.dt, scenario=s, **kw
            ), coeffs))
        base, pert = np.array(base), np.array(pert)
        paired_var = np.var(pert - base, ddof=1)
        unpaired_var = np.var(pert, ddof=1) + np.var(base, ddof=1)
        assert paired_var <= unpaired_var

    def test_single_scenario_is_inconclusive(self):
        params = make_params()
        mc = MonteCarloSettings(
            particles=50, scenarios=1, dt=1e-2, seed=1,
            init=InitSpec("gaussian", 1.0, 0.5), riccati_steps=1024,
        )
        rep = check_optimality(params, [Perturbation("gain", 1.5)], mc)
        assert rep.inconclusive and not rep.passed


def mean_field_set():
    """Coefficients reading the law through both means, jumps included."""
    return CoefficientSet(
        jumps=JumpSpec([1.0, 2.0], [1.5, 1.0], [0.0, 0.0]),
        drift=lambda x, rho, u: 0.3 * (rho.mean_state[0] - x) + u - 0.1 * rho.mean_control[0],
        diffusion=lambda x, rho, u: 0.3 + 0.1 * np.tanh(x),
        jump=lambda x, rho, u, mark: (0.1 + 0.2 * mark) * (rho.mean_state[0] - x) + 0.05 * u,
        running_cost=lambda x, rho, u: 0.5 * u**2 + 0.1 * (x - rho.mean_state[0]) ** 2,
        terminal_cost=lambda x, mu: (x - mu.mean[0]) ** 2,
    )


class TestLockStep:
    """Paired rules in lock-step cost exactly what each rule costs alone."""

    @staticmethod
    def rules_for(case, params, mode, n):
        open_loop = OpenLoopRule(
            np.linspace(0.0, params.T, 5), np.random.default_rng(n).normal(size=(5, n))
        )
        if case == "perturbed":
            sol = solve_riccati(params, mode, 1024)
            perts = [
                Perturbation("gain", 0.5),
                Perturbation("offset", -0.5),
                Perturbation("time-shift", 0.2),
            ]
            return [optimal_feedback_rule(sol)] + [p.wrap(sol) for p in perts] + [open_loop]
        if case == "chattering":
            relaxed = RelaxedRule.constant(np.array([0.2, 0.8]), np.array([0.3, 0.7]))
            return [ChatteringRule(relaxed, n_slabs, params.T) for n_slabs in (2, 4, 8, 16, 32)]
        return [
            FeedbackRule(lambda t, x, m: -0.8 * (x - m)),
            FeedbackRule(lambda t, x, m: np.sin(3.0 * t) - 0.2 * x),
            open_loop,
        ]

    @pytest.mark.parametrize("n", [37, 500, 1001])
    @pytest.mark.parametrize("mode", ["common", "idiosyncratic"])
    @pytest.mark.parametrize("case", ["perturbed", "chattering", "mean-field"])
    def test_each_cost_equals_its_rule_alone(self, case, mode, n):
        params = make_params(jumps=JumpSpec([1.0, 2.0], [1.5, 1.0], [0.3, -0.2]))
        coeffs = mean_field_set() if case == "mean-field" else lq_coefficients(params)
        rules = self.rules_for(case, params, mode, n)
        mc = MonteCarloSettings(
            particles=n, scenarios=1, dt=1 / 128, seed=4, mode=mode,
            init=InitSpec("gaussian", 1.0, 0.5),
        )
        paired = scenario_costs(coeffs, rules, params.T, mc, 3)
        alone = [
            simulate_record(
                coeffs, [rule], n, params.T, mc.dt, mode=mode, seed=mc.seed, scenario=3,
                init=mc.init,
            ).costs[0]
            for rule in rules
        ]
        assert paired == alone
        assert len(set(alone)) == len(alone)  # the rules really differ

    def test_relaxed_rule_keeps_its_place(self):
        params = make_params()
        coeffs = lq_coefficients(params)
        relaxed = RelaxedRule.constant(np.array([0.2, 0.8]), np.array([0.5, 0.5]))
        rules = [ChatteringRule(relaxed, 2, 1.0), relaxed, ChatteringRule(relaxed, 8, 1.0)]
        mc = MonteCarloSettings(particles=40, scenarios=1, dt=1 / 64, seed=2)
        alone = [
            simulate_record(coeffs, [r], 40, 1.0, mc.dt, seed=2, scenario=1, init=mc.init).costs[0]
            for r in rules
        ]
        assert scenario_costs(coeffs, rules, 1.0, mc, 1) == alone


class TestFp:
    def test_refinement_halves_error(self):
        params = make_params()
        mc = MonteCarloSettings(
            particles=500, scenarios=6, dt=4e-3, seed=11,
            init=InitSpec("gaussian", 1.0, 0.5), riccati_steps=2048,
        )
        rep = check_fp(params, mc)
        assert rep.passed
        assert 0.3 <= rep.stats["ratio"] <= 0.7

    def test_requires_common_mode(self):
        params = make_params()
        mc = MonteCarloSettings(particles=50, scenarios=1, dt=1e-2, seed=1, mode="idiosyncratic")
        with pytest.raises(ValueError):
            check_fp(params, mc)


class TestNoiseModes:
    def test_no_jump_modes_agree(self):
        params = make_params(jumps=JumpSpec([1.0], [1.0], [0.0]))
        mc = MonteCarloSettings(
            particles=100, scenarios=2, dt=5e-3, seed=4,
            init=InitSpec("gaussian", 1.0, 0.5), riccati_steps=1024,
        )
        rep = compare_noise_modes(params, mc)
        assert rep.passed
        assert rep.stats["riccati_gap_no_jumps"] <= 1e-10

    def test_idiosyncratic_jump_statistic_shrinks_with_particles(self):
        # one particle in N jumps, so the mean-jump statistic scales like 1/N
        params = make_params(jumps=JumpSpec([1.0], [2.0], [0.5]))
        sol = solve_riccati(params, "idiosyncratic", 2048)
        stats = []
        for n in (200, 400):
            mc = MonteCarloSettings(
                particles=n, scenarios=6, dt=5e-3, seed=8, mode="idiosyncratic",
                init=InitSpec("gaussian", 1.5, 0.3), riccati_steps=2048,
            )
            disps = []
            for s in range(mc.scenarios):
                cloud = simulate_optimal(params, sol, mc, s)
                disps.extend(abs(d) for _, _, d in cloud.event_log)
            stats.append(np.mean(disps))
        assert 1.5 < stats[0] / stats[1] < 3.0

    def test_jump_statistic_separates_modes(self):
        params = make_params(jumps=JumpSpec([1.0], [2.0], [0.5]))
        mc = MonteCarloSettings(
            particles=400, scenarios=4, dt=2e-3, seed=6,
            init=InitSpec("gaussian", 1.5, 0.3), riccati_steps=2048,
        )
        rep = compare_noise_modes(params, mc)
        assert rep.passed
        assert rep.stats["jump_ratio"] >= 5.0
        # per-particle jumps leave the plain mean path continuous
        assert rep.stats["event_increment_ratio_idiosyncratic"] < 5.0


class TestNoiseModesMatchOracle:
    """The history-free report equals the one read off stored histories.

    Each report runs both noise modes; seed 20240901 + 1954137147 draws no
    shared event in any of its 3 scenarios at total intensity 1 over T = 1,
    so its report is inconclusive and keeps a NaN.
    """

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "jumps,seed",
        [
            (JumpSpec([1.0], [2.0], [0.5]), 8),
            (JumpSpec([1.0, 2.0], [0.7, 0.5], [0.6, -0.4]), 8),
            (JumpSpec([1.0], [1.0], [0.3]), 20240901 + 1954137147),
        ],
        ids=["one-mark", "two-marks", "no-common-jump"],
    )
    def test_report_is_identical(self, jumps, seed, workers):
        params = make_params(jumps=jumps)
        mc = MonteCarloSettings(
            particles=60, scenarios=3, dt=1e-2, seed=seed,
            init=InitSpec("gaussian", 1.5, 0.3), riccati_steps=512,
        )
        report = compare_noise_modes(params, mc, config_hash="h", workers=workers).to_dict()
        assert report == compare_noise_reference(params, mc, config_hash="h")
        no_common_jump = seed != 8
        assert report["inconclusive"] is no_common_jump
        assert math.isnan(report["stats"]["event_increment_ratio_common"]) is no_common_jump


def tilted_drift_set(kappa=0.25):
    """Control-linear dynamics with a state tilt in the running cost.

    The tilt makes the within-slab sawtooth of a chattering control visible
    in the cost at first order, so the gap sequence has a deterministic 1/n
    component.
    """
    spec = JumpSpec([1.0], [1.0], [0.2])
    zero = lambda x, rho, u: 0.0 * np.asarray(x, dtype=float)
    return CoefficientSet(
        jumps=spec,
        drift=lambda x, rho, u: 1.0 * np.asarray(u, dtype=float) + 0.0 * x,
        diffusion=lambda x, rho, u: 0.2 + 0.0 * np.asarray(x, dtype=float),
        jump=lambda x, rho, u, mark: 0.2 * np.asarray(u, dtype=float) + 0.0 * x,
        running_cost=lambda x, rho, u: 0.5 * np.asarray(u, dtype=float) ** 2
        + kappa * np.asarray(x, dtype=float),
        terminal_cost=lambda x, mu: 0.0 * np.asarray(x, dtype=float),
    )


class TestChattering:
    def test_gap_sequence_decreases_to_noise(self):
        coeffs = tilted_drift_set()
        rule = RelaxedRule.constant(np.array([0.2, 0.8]), np.array([0.5, 0.5]))
        mc = MonteCarloSettings(
            particles=200, scenarios=16, dt=1 / 512, seed=14,
            init=InitSpec("gaussian", 0.0, 0.3),
        )
        rep = check_chattering(coeffs, rule, 1.0, mc, levels=(2, 8, 32))
        assert rep.passed
        gaps = rep.stats["gaps"]
        assert gaps[-1] < gaps[0]
        assert gaps[-1] <= 5.0 * rep.stats["final_sigma"]

    def test_dirac_rule_has_zero_gap(self):
        coeffs = tilted_drift_set()
        rule = RelaxedRule.constant(np.array([0.5]), np.array([1.0]))
        mc = MonteCarloSettings(
            particles=50, scenarios=2, dt=1 / 128, seed=3,
            init=InitSpec("gaussian", 0.0, 0.3),
        )
        rep = check_chattering(coeffs, rule, 1.0, mc, levels=(2, 4))
        assert rep.stats["final_gap"] == 0.0


class TestReports:
    def test_reports_are_deterministic(self, lq_setup):
        _, sol, clouds = lq_setup
        a = check_bsde(clouds, sol, 1e-6, config_hash="abc").to_dict()
        b = check_bsde(clouds, sol, 1e-6, config_hash="abc").to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_report_dict_is_json_ready(self, lq_setup):
        _, sol, clouds = lq_setup
        rep = check_smp(clouds[0], sol, np.linspace(-3, 3, 61), 1e-8, n_samples=10)
        json.dumps(rep.to_dict())


class TestMeasurePathExtraction:
    def test_lq_value_follows_chain_rule_along_cloud(self, lq_setup):
        params, sol, clouds = lq_setup
        coeffs = lq_coefficients(params)
        path = measure_path_from_cloud(clouds[0])
        res = ito_residual(LQValueEvaluator(sol), path, coeffs)
        # each step defect is O(dt^2) + O(sqrt(dt)/sqrt(N)) martingale noise
        assert np.max(np.abs(res)) < 5e-3
        assert np.mean(np.abs(res)) < 5e-4


class TestPairingTable:
    def test_rows_cover_steps_and_entries(self, lq_setup):
        params, sol, clouds = lq_setup
        from mfcpoisson.measureflow import default_dictionary
        from mfcpoisson.verify import pairing_table

        coeffs = lq_coefficients(params)
        dictionary = default_dictionary()
        rows = pairing_table(clouds[0], coeffs, dictionary)
        assert len(rows) == clouds[0].grid.n_steps * len(dictionary)
        # one-step residuals: O(dt^2) bias + O(sqrt(dt)/sqrt(N)) noise, with a
        # quartic-entry scale of ~|4 x^3 sigma x| sqrt(dt/N) ~ 0.1 here
        worst = max(abs(r[4]) for r in rows)
        assert worst < 0.2
        for step, phi, predicted, observed, residual in rows[:10]:
            assert residual == predicted - observed

import numpy as np
import pytest

from mfcpoisson.coefficients import JumpSpec, LQParams
from mfcpoisson.errors import DomainError, IllPosedError
from mfcpoisson.lq import (
    adjoint_ansatz,
    mean_optimal_control,
    optimal_control,
    quadratic_minimizer,
    solve_riccati,
    value_function,
)
from mfcpoisson.measures import EmpiricalMeasure

from _oracles import quadratic_min_bruteforce, riccati_reference, riccati_rk4_reference


def params(**kw):
    defaults = dict(b1=0.0, b2=0.0, b3=1.0, sigma=0.0, c=1.0, T=1.0)
    defaults.update(kw)
    return LQParams(**defaults)


def uniform_measure(xs):
    xs = np.asarray(xs, dtype=float).reshape(-1, 1)
    return EmpiricalMeasure(xs, np.full(len(xs), 1.0 / len(xs)))


class TestRiccatiClosedForms:
    def test_pure_control_case(self):
        # sigma=0, Gamma=0, b3=1, c=1: beta_t = 1/(2-t)
        sol = solve_riccati(params(), "common", 2048)
        assert sol.beta[-1] == 1.0 and sol.eta[-1] == -1.0
        assert sol.beta_at(0.0) == pytest.approx(0.5, abs=1e-10)
        exact = 1.0 / (2.0 - sol.ts)
        np.testing.assert_allclose(sol.beta, exact, atol=1e-10)

    def test_pure_diffusion_case(self):
        # b3=0, sigma=1, c=1: beta_t = exp(T-t)
        sol = solve_riccati(params(b3=0.0, sigma=1.0), "common", 2048)
        assert sol.beta_at(0.0) == pytest.approx(np.e, abs=1e-10)

    def test_against_adaptive_integrator(self, rng):
        for _ in range(4):
            p = params(
                b1=rng.uniform(-1, 1),
                b2=rng.uniform(-1, 1),
                b3=rng.uniform(-1.5, 1.5),
                sigma=rng.uniform(0, 1),
                c=rng.uniform(0.1, 2),
                T=rng.uniform(0.5, 1.5),
                jumps=JumpSpec([1.0], [1.0], [rng.uniform(0, 0.8)]),
            )
            for mode in ("common", "idiosyncratic"):
                sol = solve_riccati(p, mode, 2048)
                ref = riccati_reference(
                    p.b1, p.b2, p.b3, p.sigma, p.c, p.T, p.jumps.gamma_l2, mode
                )
                for k in (0, 614, 1577):
                    beta_ref, eta_ref = ref(sol.ts[k])
                    assert sol.beta[k] == pytest.approx(beta_ref, abs=1e-9)
                    assert sol.eta[k] == pytest.approx(eta_ref, abs=1e-9)

    def test_no_diffusion_kills_mean_terms(self, rng):
        # sigma=0 forces beta + eta = 0 on the whole grid
        for _ in range(5):
            p = params(
                b1=rng.uniform(-1, 1),
                b2=rng.uniform(-1, 1),
                b3=rng.uniform(-1.5, 1.5),
                sigma=0.0,
                c=rng.uniform(0.1, 2),
                jumps=JumpSpec([1.0], [0.5], [rng.uniform(0, 1)]),
            )
            for mode in ("common", "idiosyncratic"):
                sol = solve_riccati(p, mode, 256)
                assert np.max(np.abs(sol.beta + sol.eta)) < 1e-8


class TestRiccatiNumerics:
    def test_rk4_order(self):
        p = params(b3=2.0, c=2.0, sigma=0.7, b1=0.4, b2=0.3)
        ref = riccati_reference(p.b1, p.b2, p.b3, p.sigma, p.c, p.T, 0.0, "common")
        beta_ref, eta_ref = ref(0.0)
        errs = []
        for n in (32, 64, 128):
            sol = solve_riccati(p, "common", n)
            errs.append(abs(sol.beta_at(0.0) - beta_ref) + abs(sol.eta_at(0.0) - eta_ref))
        assert 10.0 < errs[0] / errs[1] < 24.0
        assert 10.0 < errs[1] / errs[2] < 24.0

    def test_midpoint_residual(self):
        p = params(b1=0.5, b2=0.4, b3=1.0, sigma=0.4, jumps=JumpSpec([1.0], [1.0], [0.3]))
        sol = solve_riccati(p, "common", 4096)
        assert sol.midpoint_residual() < 1e-8

    def test_modes_coincide_without_jumps(self):
        p = params(b1=0.5, b2=0.4, b3=1.0, sigma=0.4)
        sol_c = solve_riccati(p, "common", 512)
        sol_i = solve_riccati(p, "idiosyncratic", 512)
        assert np.max(np.abs(sol_c.beta - sol_i.beta)) < 1e-10
        assert np.max(np.abs(sol_c.eta - sol_i.eta)) < 1e-10

    def test_step_floor(self):
        with pytest.raises(ValueError):
            solve_riccati(params(), "common", 8)

    def test_ill_posed_inputs_are_reported(self):
        # forged negative terminal weight makes 1 + Gamma*beta fail at t = T
        bad = object.__new__(LQParams)
        for name, val in dict(
            b1=0.0, b2=0.0, b3=1.0, sigma=0.0, c=-1.0, T=1.0,
            jumps=JumpSpec([1.0], [1.0], [2.0]),
        ).items():
            object.__setattr__(bad, name, val)
        with pytest.raises(IllPosedError) as err:
            solve_riccati(bad, "common", 64)
        assert err.value.time == pytest.approx(1.0)


def forged_params(**kw):
    """LQParams without validation, for inputs the constructor rejects."""
    bad = object.__new__(LQParams)
    for name, val in kw.items():
        object.__setattr__(bad, name, val)
    return bad


class TestRiccatiMatchesArrayRK4:
    """The plain-float RK4 keeps the bits of the numpy-array RK4."""

    @pytest.mark.parametrize("mode", ["common", "idiosyncratic"])
    @pytest.mark.parametrize(
        "kw",
        [
            dict(b1=0.5, b2=0.4, b3=1.0, sigma=0.4, c=1.0, T=1.0, gamma=0.3, lam=1.0),
            dict(b1=-1.3, b2=0.7, b3=2.1, sigma=0.9, c=0.25, T=2.5, gamma=0.8, lam=1.7),
            dict(b1=0.5, b2=0.4, b3=1.0, sigma=0.4, c=1.0, T=1.0, gamma=0.0, lam=1.0),
        ],
    )
    def test_nodes_bit_identical(self, mode, kw):
        kw = dict(kw)
        jumps = JumpSpec([1.0], [kw.pop("lam")], [kw.pop("gamma")])
        p = LQParams(jumps=jumps, **kw)
        sol = solve_riccati(p, mode, 4096)
        beta, eta, bad = riccati_rk4_reference(
            p.b1, p.b2, p.b3, p.sigma, p.c, p.T, jumps.gamma_l2, mode, 4096
        )
        assert bad is None
        assert sol.beta.tobytes() == beta.tobytes()
        assert sol.eta.tobytes() == eta.tobytes()

    @pytest.mark.parametrize("mode", ["common", "idiosyncratic"])
    @pytest.mark.parametrize("c", [-0.5, -0.3])
    def test_ill_posed_at_the_same_node(self, mode, c):
        # a forged negative terminal weight passes 1 + Gamma*beta > 0 at T,
        # then beta falls backward until the denominator vanishes
        jumps = JumpSpec([1.0], [1.0], [1.0])
        bad = forged_params(b1=0.5, b2=0.4, b3=1.0, sigma=1.0, c=c, T=1.0, jumps=jumps)
        _, _, node = riccati_rk4_reference(
            0.5, 0.4, 1.0, 1.0, c, 1.0, jumps.gamma_l2, mode, 256
        )
        assert node is not None and 0 < node < 256
        with pytest.raises(IllPosedError) as err:
            solve_riccati(bad, mode, 256)
        assert err.value.time == node * (1.0 / 256)


class TestOptimalControl:
    def test_centered_state_with_balanced_terms(self):
        sol = solve_riccati(params(sigma=0.0, b1=0.3, b2=0.2), "common", 128)
        # sigma=0 gives beta+eta=0, so the mean channel is off
        assert optimal_control(sol, 0.5, 1.3, 1.3) == pytest.approx(0.0, abs=1e-9)

    def test_no_control_channels(self):
        sol = solve_riccati(params(b2=0.0, b3=0.0, sigma=1.0), "common", 128)
        assert optimal_control(sol, 0.2, 2.0, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_sigma_zero_reduces_to_centered_gain(self):
        p = params(b1=0.4, b2=0.7, b3=1.1, jumps=JumpSpec([1.0], [1.0], [0.5]))
        sol = solve_riccati(p, "common", 256)
        t, x, m = 0.3, 1.7, 0.4
        beta = sol.beta_at(t)
        want = -p.b3 * beta / (1.0 + p.jumps.gamma_l2 * beta) * (x - m)
        assert optimal_control(sol, t, x, m) == pytest.approx(want, abs=1e-9)


class TestValueFunction:
    def test_terminal_is_half_c_variance(self, rng):
        p = params(b1=0.2, b2=0.1, sigma=0.6, c=1.7)
        sol = solve_riccati(p, "common", 128)
        mu = uniform_measure(rng.normal(size=7))
        want = 0.5 * p.c * mu.variance()
        assert value_function(sol, p.T, mu) == pytest.approx(want, abs=1e-12)

    def test_point_mass_vanishes_without_diffusion(self):
        sol = solve_riccati(params(b1=0.5, b2=0.3), "common", 128)
        mu = uniform_measure([2.0])
        assert value_function(sol, 0.4, mu) == pytest.approx(0.0, abs=1e-8)

    def test_centered_measure_uses_beta_only(self):
        sol = solve_riccati(params(sigma=0.8), "common", 128)
        mu = uniform_measure([-1.0, 1.0])
        want = 0.5 * sol.beta_at(0.25) * mu.second_moment_raw()
        assert value_function(sol, 0.25, mu) == pytest.approx(want, abs=1e-12)


class TestAdjointAnsatz:
    def test_terminal_costate(self):
        p = params(sigma=0.5, c=1.3)
        sol = solve_riccati(p, "common", 128)
        adj = adjoint_ansatz(sol, p.T, 2.0, 0.5)
        assert adj.p == pytest.approx(p.c * (2.0 - 0.5), abs=1e-12)

    def test_no_diffusion_no_brownian_loading(self):
        sol = solve_riccati(params(b1=0.2), "common", 128)
        assert adjoint_ansatz(sol, 0.3, 1.0, 0.2).P == 0.0

    def test_no_control_no_jump_loading(self):
        p = params(b2=0.0, b3=0.0, sigma=0.7, jumps=JumpSpec([1.0], [1.0], [0.5]))
        sol = solve_riccati(p, "common", 128)
        np.testing.assert_allclose(adjoint_ansatz(sol, 0.3, 1.0, 0.2).K, [0.0])

    def test_mode_changes_jump_loading(self):
        p = params(b1=0.3, b2=0.5, b3=1.0, sigma=0.8, jumps=JumpSpec([1.0], [1.0], [0.5]))
        t, x, m = 0.4, 1.5, 0.8
        ks = {}
        for mode in ("common", "idiosyncratic"):
            sol = solve_riccati(p, mode, 256)
            beta, eta = sol.beta_at(t), sol.eta_at(t)
            alpha = optimal_control(sol, t, x, m)
            abar = mean_optimal_control(sol, t, m)
            scale = beta * alpha + (eta * abar if mode == "common" else 0.0)
            adj = adjoint_ansatz(sol, t, x, m)
            np.testing.assert_allclose(adj.K, p.jumps.gamma_values * scale, atol=1e-12)
            ks[mode] = adj.K[0]
        assert ks["common"] != pytest.approx(ks["idiosyncratic"], abs=1e-6)

    @pytest.mark.parametrize("mode", ["common", "idiosyncratic"])
    def test_array_states_equal_scalar_calls(self, rng, mode):
        spec = JumpSpec([1.0, 2.0], [1.0, 0.4], [0.5, -0.3])
        p = params(b1=0.3, b2=0.5, b3=1.0, sigma=0.8, jumps=spec)
        sol = solve_riccati(p, mode, 256)
        xs = rng.normal(size=9)
        m = float(xs.mean())
        adj = adjoint_ansatz(sol, 0.4, xs, m)
        assert adj.p.shape == adj.P.shape == (9,) and adj.K.shape == (9, 2)
        for k, x in enumerate(xs):
            one = adjoint_ansatz(sol, 0.4, float(x), m)
            assert adj.p[k] == one.p and adj.P[k] == one.P
            assert np.array_equal(adj.K[k], one.K)


class TestQuadraticMinimizer:
    def test_zero_linear_terms(self):
        xi, fmin = quadratic_minimizer(1.0, 0.0, 0.5, 0.0, uniform_measure([0.3, -0.7]))
        np.testing.assert_allclose(xi, 0.0)
        assert fmin == 0.0

    def test_hand_computed_point(self):
        xi, fmin = quadratic_minimizer(1.0, 2.0, 0.0, 0.0, uniform_measure([1.0]))
        np.testing.assert_allclose(xi, [-1.0])
        assert fmin == pytest.approx(-1.0)

    def test_hypothesis_guard(self):
        with pytest.raises(DomainError):
            quadratic_minimizer(0.0, 1.0, 1.0, 0.0, uniform_measure([1.0]))
        with pytest.raises(DomainError):
            quadratic_minimizer(1.0, 1.0, -2.0, 0.0, uniform_measure([1.0]))

    def test_never_beaten_by_grid_search(self, rng):
        for _ in range(6):
            a = rng.uniform(0.2, 2.0)
            c = rng.uniform(-0.5 * a, 2.0)
            b, d = rng.uniform(-2, 2, size=2)
            atoms = rng.normal(size=5)
            mu = uniform_measure(atoms)
            _, fmin = quadratic_minimizer(a, b, c, d, mu)
            brute = quadratic_min_bruteforce(a, b, c, d, atoms, mu.weights)
            assert fmin <= brute + 1e-9

    def test_stationarity(self, rng):
        for _ in range(6):
            a = rng.uniform(0.2, 2.0)
            c = rng.uniform(-0.5 * a + 0.01, 2.0)
            b, d = rng.uniform(-2, 2, size=2)
            mu = uniform_measure(rng.normal(size=6))
            xi, _ = quadratic_minimizer(a, b, c, d, mu)
            mean_xi = float(mu.weights @ xi)
            grad = 2 * a * xi + b * mu.atoms[:, 0] + 2 * c * mean_xi + d
            assert np.max(np.abs(grad)) < 1e-12

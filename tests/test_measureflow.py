import numpy as np
import pytest

from mfcpoisson.coefficients import CoefficientSet, JumpSpec, LQParams, lq_coefficients
from mfcpoisson.errors import CoverageError
from mfcpoisson.lq import LQValueEvaluator, solve_riccati
from mfcpoisson.measureflow import (
    MeasurePath,
    RelaxedKernel,
    aggregate_coeffs,
    apply_A1,
    apply_shift,
    default_dictionary,
    fp_step,
    ito_residual,
    joint_with_kernel,
    pair_A0,
    shift_adjoint,
)
from mfcpoisson.measures import EmpiricalMeasure


def flat_set(drift=None, diffusion=None, jump=None, jumps=None):
    """Coefficient set from plain callables; everything defaults to zero."""
    zero = lambda x, rho, u: 0.0 * np.asarray(x, dtype=float)
    return CoefficientSet(
        jumps=jumps if jumps is not None else JumpSpec.empty(),
        drift=drift or zero,
        diffusion=diffusion or zero,
        jump=jump or (lambda x, rho, u, mark: 0.0 * np.asarray(x, dtype=float)),
        running_cost=zero,
        terminal_cost=lambda x, mu: 0.0 * np.asarray(x, dtype=float),
    )


def unit_jump_set(lam=1.0):
    return flat_set(
        jump=lambda x, rho, u, mark: np.ones_like(np.asarray(x, dtype=float)),
        jumps=JumpSpec([1.0], [lam], [1.0]),
    )


def measure(xs, w=None):
    xs = np.asarray(xs, dtype=float).reshape(-1, 1)
    if w is None:
        w = np.full(len(xs), 1.0 / len(xs))
    return EmpiricalMeasure(xs, np.asarray(w, dtype=float))


def lq(**kw):
    defaults = dict(b1=0.0, b2=0.0, b3=1.0, sigma=0.0, c=1.0, T=1.0)
    defaults.update(kw)
    return lq_coefficients(LQParams(**defaults))


class TestDictionary:
    def test_derivatives_consistent(self, rng):
        dictionary = default_dictionary()
        pts = rng.uniform(-2.5, 2.5, size=64)
        assert dictionary.check_consistency(pts, tol=1e-5) < 1e-5


class TestKernel:
    def test_rows_must_normalize(self):
        with pytest.raises(ValueError):
            RelaxedKernel(np.zeros((2, 2)), np.full((2, 2), 0.4))

    @pytest.mark.parametrize("weights", [[np.nan, 1.0], [np.inf, 1.0], [np.nan, np.nan]])
    def test_non_finite_weights_rejected(self, weights):
        with pytest.raises(ValueError, match="probability weights"):
            RelaxedKernel([[0.2, 0.8]], [weights])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_supports_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            RelaxedKernel([[0.2, bad]], [[0.5, 0.5]])

    def test_coverage(self):
        mu = measure([0.0, 1.0, 2.0])
        kernel = RelaxedKernel.dirac([0.5, 0.5])
        with pytest.raises(CoverageError):
            aggregate_coeffs(mu, kernel, lq())

    def test_bayes_joint(self):
        mu = measure([0.0, 1.0], [0.25, 0.75])
        kernel = RelaxedKernel.shared(2, [-1.0, 1.0], [0.5, 0.5])
        rho = joint_with_kernel(mu, kernel)
        np.testing.assert_allclose(rho.weights, [0.125, 0.125, 0.375, 0.375])
        assert rho.mean_control[0] == pytest.approx(0.0)


class TestAggregate:
    def test_dirac_kernel_is_point_evaluation(self):
        coeffs = lq(b1=0.5, b2=0.3, b3=1.2)
        mu = measure([0.0, 2.0])
        controls = np.array([1.0, -1.0])
        agg = aggregate_coeffs(mu, RelaxedKernel.dirac(controls), coeffs)
        rho = joint_with_kernel(mu, RelaxedKernel.dirac(controls))
        want = coeffs.drift(mu.atoms[:, 0], rho, controls)
        np.testing.assert_allclose(agg.drift, want, atol=1e-15)

    def test_two_point_kernel_averages_linear_drift(self):
        coeffs = flat_set(drift=lambda x, rho, u: 3.0 * np.asarray(u, dtype=float))
        mu = measure([0.0])
        kernel = RelaxedKernel.shared(1, [0.0, 1.0], [0.25, 0.75])
        agg = aggregate_coeffs(mu, kernel, coeffs)
        np.testing.assert_allclose(agg.drift, [3.0 * 0.75])

    def test_lq_aggregate_formula(self, rng):
        params = LQParams(b1=0.4, b2=0.7, b3=1.1, sigma=0.5, c=1.0, T=1.0)
        coeffs = lq_coefficients(params)
        xs = rng.normal(size=5)
        mu = measure(xs)
        kernel = RelaxedKernel(
            rng.normal(size=(5, 2)), np.tile([0.6, 0.4], (5, 1))
        )
        agg = aggregate_coeffs(mu, kernel, coeffs)
        mean_u_rows = (kernel.supports * kernel.weights).sum(axis=1)
        want = (
            params.b1 * xs.mean()
            + params.b2 * mean_u_rows.mean()
            + params.b3 * mean_u_rows
        )
        np.testing.assert_allclose(agg.drift, want, atol=1e-12)

    def test_diffusion_aggregates_square(self):
        coeffs = flat_set(diffusion=lambda x, rho, u: np.asarray(u, dtype=float))
        mu = measure([0.0])
        kernel = RelaxedKernel.shared(1, [0.0, 2.0], [0.5, 0.5])
        agg = aggregate_coeffs(mu, kernel, coeffs)
        np.testing.assert_allclose(agg.diffusion_sq, [2.0])  # (0 + 4)/2


class TestShiftAdjoint:
    def test_no_jump_is_identity(self):
        coeffs = lq(jumps=JumpSpec([1.0], [1.0], [0.0]))
        mu = measure([0.3, -0.7])
        out = shift_adjoint(mu, RelaxedKernel.dirac([1.0, 1.0]), 0, coeffs)
        np.testing.assert_array_equal(out.atoms, mu.atoms)
        np.testing.assert_array_equal(out.weights, mu.weights)

    def test_constant_unit_shift(self):
        mu = measure([0.0, 1.0])
        out = shift_adjoint(mu, RelaxedKernel.dirac([0.0, 0.0]), 0, unit_jump_set())
        np.testing.assert_allclose(out.atoms.ravel(), [1.0, 2.0])
        np.testing.assert_allclose(out.weights, [0.5, 0.5])

    def test_duality_with_test_functions(self, rng):
        coeffs = lq(jumps=JumpSpec([1.0], [1.0], [0.6]))
        xs = rng.normal(size=4)
        mu = measure(xs, rng.dirichlet(np.ones(4)))
        kernel = RelaxedKernel(
            rng.normal(size=(4, 2)), np.tile([0.3, 0.7], (4, 1))
        )
        for phi in list(default_dictionary())[:5]:
            left = float(mu.weights @ apply_shift(phi.value, mu, kernel, 0, coeffs))
            shifted = shift_adjoint(mu, kernel, 0, coeffs)
            right = float(shifted.weights @ phi.value(shifted.atoms[:, 0]))
            assert left == pytest.approx(right, abs=1e-12)

    def test_second_moment_stays_finite(self, rng):
        coeffs = lq(jumps=JumpSpec([1.0], [1.0], [0.8]))
        xs = rng.normal(size=6)
        mu = measure(xs)
        controls = rng.uniform(-1, 1, size=6)
        out = shift_adjoint(mu, RelaxedKernel.dirac(controls), 0, coeffs)
        bound = (np.sqrt(mu.second_moment_raw()) + 0.8 * np.abs(controls).max()) ** 2
        assert out.second_moment_raw() <= bound + 1e-12


class TestA1:
    def test_zero_jump_vanishes(self):
        coeffs = lq(jumps=JumpSpec([1.0], [1.0], [0.0]))
        mu = measure([0.1, 0.9])
        signed = apply_A1(mu, RelaxedKernel.dirac([1.0, 1.0]), 0, coeffs)
        assert signed.total_mass == pytest.approx(0.0, abs=1e-15)
        assert signed.pairing(lambda x: x**2) == pytest.approx(0.0, abs=1e-15)

    def test_unit_shift_on_point_mass(self):
        mu = measure([0.0])
        signed = apply_A1(mu, RelaxedKernel.dirac([0.0]), 0, unit_jump_set())
        np.testing.assert_allclose(signed.atoms.ravel(), [1.0, 0.0])
        np.testing.assert_allclose(signed.weights, [1.0, -1.0])

    def test_mass_is_zero_on_random_inputs(self, rng):
        coeffs = lq(jumps=JumpSpec([1.0], [2.0], [0.4]))
        for _ in range(5):
            n = int(rng.integers(2, 7))
            mu = measure(rng.normal(size=n), rng.dirichlet(np.ones(n)))
            kernel = RelaxedKernel(
                rng.normal(size=(n, 2)),
                np.tile(rng.dirichlet(np.ones(2)), (n, 1)),
            )
            assert apply_A1(mu, kernel, 0, coeffs).total_mass == pytest.approx(
                0.0, abs=1e-12
            )


class TestPairA0:
    def test_constant_function_vanishes(self, rng):
        coeffs = lq(b1=0.3, sigma=0.5, jumps=JumpSpec([1.0], [1.0], [0.2]))
        mu = measure(rng.normal(size=4))
        const = list(default_dictionary())[0]
        kernel = RelaxedKernel.dirac(rng.normal(size=4))
        assert pair_A0(const, mu, kernel, coeffs) == pytest.approx(0.0, abs=1e-15)

    def test_first_moment_identity(self, rng):
        coeffs = lq(b1=0.4, b2=0.2, b3=0.9, sigma=0.7)
        mu = measure(rng.normal(size=5))
        kernel = RelaxedKernel.dirac(rng.normal(size=5))
        agg = aggregate_coeffs(mu, kernel, coeffs)
        phi = list(default_dictionary())[1]  # x
        assert pair_A0(phi, mu, kernel, coeffs) == pytest.approx(
            float(mu.weights @ agg.drift), abs=1e-12
        )

    def test_second_moment_identity(self, rng):
        coeffs = flat_set(diffusion=lambda x, rho, u: 0.5 * np.asarray(x, dtype=float))
        mu = measure(rng.normal(size=5))
        kernel = RelaxedKernel.dirac(np.zeros(5))
        phi = list(default_dictionary())[2]  # x^2
        want = float(mu.weights @ (0.25 * mu.atoms[:, 0] ** 2))
        assert pair_A0(phi, mu, kernel, coeffs) == pytest.approx(want, abs=1e-12)


class TestFpStep:
    def test_all_zero_coefficients_keep_pairings(self, rng):
        coeffs = flat_set()
        mu = measure(rng.normal(size=4))
        kernel = RelaxedKernel.dirac(np.zeros(4))
        preds = fp_step(mu, kernel, 0.1, [], coeffs, default_dictionary())
        for phi in default_dictionary():
            want = float(mu.weights @ phi.value(mu.atoms[:, 0]))
            assert preds[phi.name] == pytest.approx(want, abs=1e-15)

    def test_unit_shift_moves_mean_by_one(self):
        coeffs = unit_jump_set(lam=1.0)
        mu = measure([0.0, 1.0])
        kernel = RelaxedKernel.dirac([0.0, 0.0])
        preds = fp_step(mu, kernel, 0.0, [0], coeffs, default_dictionary())
        assert preds["x^1"] == pytest.approx(mu.mean[0] + 1.0, abs=1e-14)


class TestItoResidual:
    class Const:
        value = staticmethod(lambda t, mu: 4.2)
        dt = staticmethod(lambda t, mu: 0.0)
        dmu = staticmethod(lambda t, mu, x: 0.0 * x)
        dx_dmu = staticmethod(lambda t, mu, x: 0.0 * x)

    class Mean:
        value = staticmethod(lambda t, mu: float(mu.mean[0]))
        dt = staticmethod(lambda t, mu: 0.0)
        dmu = staticmethod(lambda t, mu, x: np.ones_like(x))
        dx_dmu = staticmethod(lambda t, mu, x: 0.0 * x)

    @staticmethod
    def _unit_jump_path(lam):
        # pure-jump dynamics: drift is the compensator -lam, one event at node 2
        times = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        kernels = [RelaxedKernel.dirac([0.0, 0.0]) for _ in range(4)]
        atoms = np.array([0.0, 1.0])
        measures, jumps = [], {}
        x = atoms.copy()
        for k, t in enumerate(times):
            if k:
                x = x - lam * 0.25
                if k == 2:
                    pre = measure(x)
                    jumps[2] = [(0, pre, kernels[1])]
                    x = x + 1.0
            measures.append(measure(x))
        return MeasurePath(times, measures, kernels, jumps)

    def test_constant_functional(self):
        path = self._unit_jump_path(0.8)
        res = ito_residual(self.Const(), path, unit_jump_set(0.8))
        np.testing.assert_allclose(res, 0.0, atol=1e-15)

    def test_mean_functional_pure_jump_exact(self):
        lam = 0.8
        path = self._unit_jump_path(lam)
        res = ito_residual(self.Mean(), path, unit_jump_set(lam))
        np.testing.assert_allclose(res, 0.0, atol=1e-14)

    def test_lq_value_function_smooth_flow(self):
        # deterministic mean drift, no jumps: residual is the Euler defect O(h^2)
        params = LQParams(b1=0.6, b2=0.0, b3=0.0, sigma=0.0, c=1.0, T=1.0)
        coeffs = lq_coefficients(params)
        sol = solve_riccati(params, "common", 4096)
        evaluator = LQValueEvaluator(sol)
        h = 1e-3
        times = np.arange(0.0, 0.1 + h / 2, h)
        x = np.array([0.4, 1.6])
        measures, kernels = [measure(x)], []
        for _ in range(len(times) - 1):
            rho_mean = x.mean()
            x = x + params.b1 * rho_mean * h
            measures.append(measure(x))
            kernels.append(RelaxedKernel.dirac(np.zeros(2)))
        path = MeasurePath(times, measures, kernels, {})
        res = ito_residual(evaluator, path, coeffs)
        assert np.max(np.abs(res)) < 5e-6

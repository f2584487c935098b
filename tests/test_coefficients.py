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
from mfcpoisson.errors import ConfigurationError
from mfcpoisson.measures import JointEmpiricalMeasure, RelaxedKernel

from _oracles import delta_hamiltonian_relaxed, hamiltonian_relaxed


def make_params(**kw):
    defaults = dict(b1=0.0, b2=0.0, b3=1.0, sigma=0.0, c=1.0, T=1.0)
    defaults.update(kw)
    return LQParams(**defaults)


def strict_joint(xs, us, w=None):
    return JointEmpiricalMeasure.strict(
        np.asarray(xs, dtype=float), np.asarray(us, dtype=float), w
    )


class TestJumpSpec:
    def test_lengths_must_match(self):
        with pytest.raises(ValueError):
            JumpSpec([1.0], [1.0, 2.0], [0.5])

    def test_positive_intensities(self):
        with pytest.raises(ValueError):
            JumpSpec([1.0], [0.0], [0.5])

    def test_summaries(self):
        spec = JumpSpec([1.0, 2.0], [0.5, 1.5], [2.0, -1.0])
        assert spec.total_intensity == pytest.approx(2.0)
        assert spec.gamma_l2 == pytest.approx(4.0 * 0.5 + 1.0 * 1.5)
        assert spec.gamma_l1 == pytest.approx(2.0 * 0.5 - 1.0 * 1.5)
        np.testing.assert_allclose(spec.mark_probs, [0.25, 0.75])

    def test_config_round_trip(self):
        spec = JumpSpec([0.5], [2.0], [0.3])
        assert JumpSpec.from_config(spec.to_config()).gamma_l2 == pytest.approx(
            spec.gamma_l2
        )


class TestLQParams:
    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            make_params(T=0.0)

    def test_bad_terminal_weight(self):
        with pytest.raises(ValueError):
            make_params(c=-1.0)

    def test_from_config(self):
        model = {"b1": 0.1, "b2": 0.2, "b3": 0.3, "sigma": 0.4, "c": 0.5, "T": 2.0}
        jumps = {"marks": [{"z": 1.0, "lambda": 0.7, "gamma": 0.2}]}
        p = LQParams.from_config(model, jumps)
        assert p.b3 == 0.3
        assert p.jumps.n_marks == 1
        assert p.jumps.gamma_l2 == pytest.approx(0.7 * 0.04)


class TestHamiltonianStrict:
    def test_lq_plugin_value(self):
        # x=1, u=2, p=1, P=0, K=0, centered joint, b3=1 -> 2 + u^2/2 = 4
        coeffs = lq_coefficients(make_params(jumps=JumpSpec([1.0], [1.0], [0.0])))
        rho = strict_joint([[1.0], [-1.0]], [[2.0], [-2.0]])
        adj = AdjointTriplet(1.0, 0.0, np.zeros(1))
        got = hamiltonian_strict(1.0, 2.0, rho, adj, coeffs)
        assert got == pytest.approx(4.0, abs=1e-12)

    def test_zero_everything(self):
        coeffs = lq_coefficients(make_params(b3=0.0, c=0.0))
        rho = strict_joint([[0.0]], [[0.0]])
        adj = AdjointTriplet(0.0, 0.0, np.zeros(0))
        assert hamiltonian_strict(0.0, 0.0, rho, adj, coeffs) == 0.0

    def test_jump_sum_over_marks(self):
        # K=1, gamma=1, total intensity 2, u=1, everything else off -> 2 + 1/2
        spec = JumpSpec([1.0, 2.0], [0.5, 1.5], [1.0, 1.0])
        coeffs = lq_coefficients(make_params(b1=0.0, b2=0.0, b3=0.0, jumps=spec))
        rho = strict_joint([[0.0]], [[0.0]])
        adj = AdjointTriplet(0.0, 0.0, np.ones(2))
        assert hamiltonian_strict(0.0, 1.0, rho, adj, coeffs) == pytest.approx(2.5)

    def test_adjoint_mark_count_checked(self):
        coeffs = lq_coefficients(make_params(jumps=JumpSpec([1.0], [1.0], [0.5])))
        rho = strict_joint([[0.0]], [[0.0]])
        with pytest.raises(ValueError):
            hamiltonian_strict(0.0, 0.0, rho, AdjointTriplet(0.0, 0.0, np.zeros(2)), coeffs)


class TestDeltaHamiltonianStrict:
    def test_lq_formula(self):
        coeffs = lq_coefficients(make_params(b1=2.0, b2=0.0))
        rho = strict_joint([[0.0]], [[0.0]])
        adj = AdjointTriplet(1.0, 0.0, np.zeros(0))
        got = delta_hamiltonian_strict(0.5, 0.5, rho, 3.0, 7.0, adj, coeffs)
        assert got == pytest.approx(6.0, abs=1e-12)

    def test_linear_in_p(self):
        coeffs = lq_coefficients(make_params(b1=1.0, b2=1.0))
        rho = strict_joint([[0.0]], [[0.0]])
        adj = AdjointTriplet(0.0, 5.0, np.zeros(0))
        assert delta_hamiltonian_strict(0.0, 0.0, rho, 1.0, 1.0, adj, coeffs) == 0.0

    def test_both_channels(self):
        coeffs = lq_coefficients(make_params(b1=1.0, b2=1.0))
        rho = strict_joint([[0.0]], [[0.0]])
        adj = AdjointTriplet(2.0, 0.0, np.zeros(0))
        assert delta_hamiltonian_strict(0.0, 0.0, rho, 1.0, 1.0, adj, coeffs) == 4.0

    def test_missing_kernels_raise(self):
        coeffs = CoefficientSet(
            jumps=JumpSpec.empty(),
            drift=lambda x, rho, u: 0.0,
            diffusion=lambda x, rho, u: 0.0,
            jump=lambda x, rho, u, mark: 0.0,
            running_cost=lambda x, rho, u: 0.0,
            terminal_cost=lambda x, mu: 0.0,
        )
        rho = strict_joint([[0.0]], [[0.0]])
        with pytest.raises(ConfigurationError):
            delta_hamiltonian_strict(
                0.0, 0.0, rho, 0.0, 0.0, AdjointTriplet(0.0, 0.0, np.zeros(0)), coeffs
            )


class TestBroadcasting:
    """Array calls equal the scalar calls element by element, bit for bit."""

    def _setup(self, rng):
        spec = JumpSpec([1.0, 2.0], [0.8, 0.3], [0.4, -0.7])
        params = make_params(b1=0.7, b2=-0.3, b3=1.2, sigma=0.5, jumps=spec)
        rho = strict_joint(rng.normal(size=(6, 1)), rng.normal(size=(6, 1)))
        adj = AdjointTriplet(rng.normal(size=7), rng.normal(size=7), rng.normal(size=(7, 2)))
        return lq_coefficients(params), rho, adj

    @staticmethod
    def _row(adj, k):
        return AdjointTriplet(float(adj.p[k]), float(adj.P[k]), adj.K[k])

    def test_pointwise_arrays(self, rng):
        coeffs, rho, adj = self._setup(rng)
        x, u, xp, up = rng.normal(size=(4, 7))
        h = hamiltonian_strict(x, u, rho, adj, coeffs)
        d = delta_hamiltonian_strict(x, u, rho, xp, up, adj, coeffs)
        assert h.shape == d.shape == (7,)
        for k in range(7):
            row = self._row(adj, k)
            want_h = hamiltonian_strict(float(x[k]), float(u[k]), rho, row, coeffs)
            want_d = delta_hamiltonian_strict(
                float(x[k]), float(u[k]), rho, float(xp[k]), float(up[k]), row, coeffs
            )
            assert type(want_h) is float and type(want_d) is float
            assert h[k] == want_h and d[k] == want_d

    def test_grid_against_copies(self, rng):
        # (G, 1) new controls against N copies with their own adjoints: (G, N)
        coeffs, rho, adj = self._setup(rng)
        xs, us = rng.normal(size=(2, 7))
        grid = np.linspace(-2.0, 2.0, 5)
        d = delta_hamiltonian_strict(xs, us, rho, 0.3, grid[:, None], adj, coeffs)
        h = hamiltonian_strict(0.3, grid, rho, self._row(adj, 2), coeffs)
        assert d.shape == (5, 7) and h.shape == (5,)
        for g, up in enumerate(grid):
            assert h[g] == hamiltonian_strict(0.3, float(up), rho, self._row(adj, 2), coeffs)
            for k in range(7):
                assert d[g, k] == delta_hamiltonian_strict(
                    float(xs[k]), float(us[k]), rho, 0.3, float(up), self._row(adj, k), coeffs
                )

    def test_mark_axis_is_last(self, rng):
        coeffs, rho, adj = self._setup(rng)
        bad = AdjointTriplet(adj.p, adj.P, adj.K[:, :1])
        with pytest.raises(ValueError, match="2 marks"):
            hamiltonian_strict(np.zeros(7), np.zeros(7), rho, bad, coeffs)


def as_relaxed(rho):
    """The relaxed joint (state law, Dirac kernel) of a strict joint."""
    return rho.state_marginal(), RelaxedKernel.dirac(rho.controls)


def dirac_row(u):
    """The (support, weights) row of the Dirac control measure at u."""
    return np.array([u]), np.array([1.0])


class TestHamiltonianRelaxed:
    def _setup(self, rng):
        spec = JumpSpec([1.0], [0.8], [0.4])
        params = make_params(b1=0.7, b2=-0.3, b3=1.2, sigma=0.5, jumps=spec)
        coeffs = lq_coefficients(params)
        xs = rng.normal(size=(4, 1))
        us = rng.normal(size=(4, 1))
        rho = strict_joint(xs, us)
        adj = AdjointTriplet(rng.normal(), rng.normal(), rng.normal(size=1))
        return coeffs, rho, adj

    def test_dirac_matches_strict(self, rng):
        for _ in range(5):
            coeffs, rho, adj = self._setup(rng)
            xi = as_relaxed(rho)
            x, u = rng.normal(), rng.normal()
            relaxed = hamiltonian_relaxed(x, dirac_row(u), *xi, adj, coeffs)
            strict = hamiltonian_strict(x, u, rho, adj, coeffs)
            assert relaxed == pytest.approx(strict, abs=1e-12)

    def test_linear_in_q(self, rng):
        coeffs, rho, adj = self._setup(rng)
        xi = as_relaxed(rho)
        us = rng.normal(size=5)
        w = rng.uniform(0.1, 1.0, size=5)
        w /= w.sum()
        x = rng.normal()
        mixed = hamiltonian_relaxed(x, (us, w), *xi, adj, coeffs)
        parts = sum(
            wi * hamiltonian_strict(x, float(ui), rho, adj, coeffs)
            for ui, wi in zip(us, w)
        )
        assert mixed == pytest.approx(parts, abs=1e-12)

    def test_zero_when_costless_and_adjoint_free(self, rng):
        coeffs = lq_coefficients(make_params(b3=0.0))
        rho = strict_joint([[0.3]], [[0.0]])
        xi = as_relaxed(rho)
        adj = AdjointTriplet(0.0, 0.0, np.zeros(0))
        assert hamiltonian_relaxed(0.1, dirac_row(0.0), *xi, adj, coeffs) == 0.0


class TestDeltaHamiltonianRelaxed:
    def test_dirac_matches_strict(self, rng):
        coeffs = lq_coefficients(make_params(b1=0.4, b2=0.9))
        rho = strict_joint([[0.1], [0.9]], [[0.2], [-0.2]])
        xi = as_relaxed(rho)
        adj = AdjointTriplet(1.3, 0.0, np.zeros(0))
        got = delta_hamiltonian_relaxed(
            0.0, dirac_row(0.5), *xi, 2.0, dirac_row(1.5), adj, coeffs
        )
        want = delta_hamiltonian_strict(0.0, 0.5, rho, 2.0, 1.5, adj, coeffs)
        assert got == pytest.approx(want, abs=1e-12)

    def test_mixture_averages(self):
        coeffs = lq_coefficients(make_params(b1=1.0, b2=1.0))
        rho = strict_joint([[0.0]], [[0.0]])
        xi = as_relaxed(rho)
        adj = AdjointTriplet(1.0, 0.0, np.zeros(0))
        qp = (np.array([0.0, 2.0]), np.array([0.5, 0.5]))
        got = delta_hamiltonian_relaxed(0.0, dirac_row(0.0), *xi, 3.0, qp, adj, coeffs)
        # (b1*3 + b2*E[u']) * p = 3 + 1
        assert got == pytest.approx(4.0, abs=1e-12)


class TestControlParabola:
    def test_unit_curvature_in_control(self, rng):
        # H + mean-field delta term is an upward parabola in u with curvature 1
        spec = JumpSpec([1.0], [1.3], [0.6])
        coeffs = lq_coefficients(
            make_params(b1=0.3, b2=0.7, b3=1.1, sigma=0.4, jumps=spec)
        )
        rho = strict_joint(rng.normal(size=(6, 1)), rng.normal(size=(6, 1)))
        adj = AdjointTriplet(rng.normal(), rng.normal(), rng.normal(size=1))
        adj_copies = [
            AdjointTriplet(rng.normal(), rng.normal(), rng.normal(size=1))
            for _ in range(6)
        ]

        def phi(u):
            own = hamiltonian_strict(0.4, u, rho, adj, coeffs)
            cross = np.mean(
                [
                    delta_hamiltonian_strict(
                        float(xj), float(uj), rho, 0.4, u, adjj, coeffs
                    )
                    for (xj,), (uj,), adjj in zip(rho.states, rho.controls, adj_copies)
                ]
            )
            return own + cross

        h = 1e-3
        second = (phi(1.0 + h) - 2 * phi(1.0) + phi(1.0 - h)) / h**2
        assert second == pytest.approx(1.0, abs=1e-8)

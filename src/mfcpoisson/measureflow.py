"""Lifted dynamics on empirical measures.

The conditional state law evolves by a drift generator between Poisson events
and by a generalized measure shift at events: conditioning on the common path
turns every jump of the state into a jump of the law itself.  This module
realizes those objects exactly on finite atom clouds.  A control enters as a
``RelaxedKernel`` over the law's atoms (a strict control is the kernel of
Dirac rows), the one relaxed-control form of :mod:`mfcpoisson.measures`,
which also holds the Bayes product ``joint_with_kernel``:

* ``aggregate_coeffs`` averages the model coefficients against the kernel,
  with the joint law formed by the Bayes product (law atoms) x (kernel rows);
* ``shift_adjoint`` is the post-jump law: every atom fans out along its
  kernel row and moves by the jump amplitude (adjoint of the test-function
  shift operator, realized by atom expansion);
* ``pair_A0`` pairs a smooth test function with the drift generator in weak
  form;
* ``fp_step`` predicts one step of test-function pairings for comparison
  against a particle cloud;
* ``ito_residual`` measures how closely a functional of the measure path
  follows its chain-rule decomposition (drift pairing plus event
  differences).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .coefficients import CoefficientSet
from .measures import EmpiricalMeasure, JointEmpiricalMeasure, RelaxedKernel, joint_with_kernel


@dataclass(frozen=True)
class SignedAtomMeasure:
    """Atoms with signed weights (difference of two probability measures)."""

    atoms: np.ndarray
    weights: np.ndarray

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def pairing(self, fn: Callable) -> float:
        return float(self.weights @ np.asarray(fn(self.atoms[:, 0]), dtype=float))


@dataclass(frozen=True)
class TestFunction:
    """Scalar C^2 test function with explicit first and second derivatives.

    ``dx_dxx``, when given, returns ``(dx(x), dxx(x))`` bit for bit in one
    call, sharing the work the two have in common.
    """

    name: str
    value: Callable
    dx: Callable
    dxx: Callable
    dx_dxx: Optional[Callable] = None

    def derivatives(self, x) -> tuple:
        """``(dx(x), dxx(x))``."""
        if self.dx_dxx is not None:
            return self.dx_dxx(x)
        return self.dx(x), self.dxx(x)


class TestFunctionDictionary:
    """Finite list of smooth test functions used for weak-form pairings."""

    def __init__(self, entries: Sequence[TestFunction]):
        self.entries = tuple(entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def check_consistency(self, points, tol: float = 1e-5, h: float = 1e-4) -> float:
        """Max finite-difference defect of the declared derivatives."""
        x = np.asarray(points, dtype=float)
        worst = 0.0
        for phi in self.entries:
            fd1 = (phi.value(x + h) - phi.value(x - h)) / (2 * h)
            fd2 = (phi.value(x + h) - 2 * phi.value(x) + phi.value(x - h)) / h**2
            worst = max(
                worst,
                float(np.max(np.abs(fd1 - phi.dx(x)))),
                float(np.max(np.abs(fd2 - phi.dxx(x)))),
            )
        if worst > tol:
            raise ValueError(f"dictionary derivatives inconsistent: defect {worst:.3g}")
        return worst


def _monomial(k: int) -> TestFunction:
    return TestFunction(
        name=f"x^{k}",
        value=lambda x, k=k: np.asarray(x, dtype=float) ** k,
        dx=lambda x, k=k: k * np.asarray(x, dtype=float) ** (k - 1) if k else 0.0 * np.asarray(x),
        dxx=lambda x, k=k: k * (k - 1) * np.asarray(x, dtype=float) ** (k - 2)
        if k >= 2
        else 0.0 * np.asarray(x),
    )


def _gaussian(center: float, width: float) -> TestFunction:
    inv2 = 1.0 / width**2

    def parts(x):
        offset = np.asarray(x, dtype=float) - center
        offset_sq = offset**2
        return offset, offset_sq, np.exp(-0.5 * inv2 * offset_sq)

    def derivatives(x):
        offset, offset_sq, value = parts(x)
        return -inv2 * offset * value, (inv2**2 * offset_sq - inv2) * value

    return TestFunction(
        name=f"gauss({center},{width})",
        value=lambda x: parts(x)[2],
        dx=lambda x: derivatives(x)[0],
        dxx=lambda x: derivatives(x)[1],
        dx_dxx=derivatives,
    )


def _soft_clamp(level: float) -> TestFunction:
    # smooth saturating coordinate: level * tanh(x / level)
    def th(x):
        return np.tanh(np.asarray(x, dtype=float) / level)

    def derivatives(x):
        t = th(x)
        slope = 1.0 - t**2
        return slope, -2.0 * t * slope / level

    return TestFunction(
        name=f"clamp({level})",
        value=lambda x: level * th(x),
        dx=lambda x: derivatives(x)[0],
        dxx=lambda x: derivatives(x)[1],
        dx_dxx=derivatives,
    )


def default_dictionary() -> TestFunctionDictionary:
    """Constant, monomials to degree 4, two Gaussian bumps, a smooth clamp."""
    return TestFunctionDictionary(
        [_monomial(k) for k in range(5)]
        + [_gaussian(0.0, 1.0), _gaussian(1.0, 0.5), _soft_clamp(2.0)]
    )


# ---------------------------------------------------------------------------
# Aggregated coefficients and the shift operator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AggregatedCoefficients:
    """Kernel-averaged drift, squared diffusion, jump amplitudes at the atoms."""

    drift: np.ndarray  # (N,)
    diffusion_sq: np.ndarray  # (N,)
    jump: np.ndarray  # (N, n_marks)
    joint: JointEmpiricalMeasure


def aggregate_coeffs(
    mu: EmpiricalMeasure, kernel: RelaxedKernel, coeffs: CoefficientSet
) -> AggregatedCoefficients:
    """Pointwise kernel averages of the model coefficients at the atoms."""
    rho = joint_with_kernel(mu, kernel)
    x = mu.atoms[:, 0][:, None]
    sup = kernel.supports
    bhat = kernel.average(coeffs.drift(x, rho, sup))
    diff_sq = kernel.average(np.asarray(coeffs.diffusion(x, rho, sup), dtype=float) ** 2)
    gam = np.stack(
        [kernel.average(coeffs.jump(x, rho, sup, j)) for j in range(coeffs.jumps.n_marks)],
        axis=1,
    ) if coeffs.jumps.n_marks else np.zeros((mu.n_atoms, 0))
    return AggregatedCoefficients(bhat, diff_sq, gam, rho)


def _jumped_atoms(
    mu: EmpiricalMeasure, kernel: RelaxedKernel, mark: int, coeffs: CoefficientSet
) -> tuple[np.ndarray, JointEmpiricalMeasure]:
    """(N, A) post-jump atoms x_i + jump(x_i, rho, u_ia, z) and the joint rho."""
    rho = joint_with_kernel(mu, kernel)
    x = mu.atoms[:, 0][:, None]
    sup = kernel.supports
    gamma = np.broadcast_to(
        np.asarray(coeffs.jump(x, rho, sup, mark), dtype=float), sup.shape
    )
    return x + gamma, rho


def apply_shift(
    fn: Callable, mu: EmpiricalMeasure, kernel: RelaxedKernel, mark: int,
    coeffs: CoefficientSet,
) -> np.ndarray:
    """Test-function shift operator: the kernel average of fn(x + jump) at each atom."""
    return kernel.average(fn(_jumped_atoms(mu, kernel, mark, coeffs)[0]))


def shift_adjoint(
    mu: EmpiricalMeasure, kernel: RelaxedKernel, mark: int, coeffs: CoefficientSet
) -> EmpiricalMeasure:
    """Post-jump law: atom x_i expands to x_i + jump(x_i, rho, u_ia, z) with
    weight w_i * k_ia, the weight of (x_i, u_ia) in the joint rho."""
    atoms, rho = _jumped_atoms(mu, kernel, mark, coeffs)
    return EmpiricalMeasure(atoms.reshape(-1), rho.weights)


def apply_A1(
    mu: EmpiricalMeasure, kernel: RelaxedKernel, mark: int, coeffs: CoefficientSet
) -> SignedAtomMeasure:
    """Jump generator: shifted law minus the law itself, as a signed measure."""
    shifted = shift_adjoint(mu, kernel, mark, coeffs)
    return SignedAtomMeasure(
        np.vstack([shifted.atoms, mu.atoms]),
        np.concatenate([shifted.weights, -mu.weights]),
    )


def drift_pairings(
    mu: EmpiricalMeasure, agg: AggregatedCoefficients, coeffs: CoefficientSet,
    dictionary,
) -> list:
    """<A0 phi, mu> for every entry of ``dictionary``, from averaged coefficients.

    The compensated drift and half the squared diffusion are formed once;
    each entry keeps its own ``weights @ integrand`` dot, so it has the bits
    of a one-entry call (a stacked matrix product would sum differently).
    """
    x = mu.atoms[:, 0]
    compensator = (
        agg.jump @ coeffs.jumps.intensities if coeffs.jumps.n_marks else 0.0
    )
    drift = agg.drift - compensator
    half_diffusion = 0.5 * agg.diffusion_sq
    pairings = []
    for phi in dictionary:
        d1, d2 = phi.derivatives(x)
        pairings.append(float(mu.weights @ (
            drift * np.asarray(d1, dtype=float) + half_diffusion * np.asarray(d2, dtype=float)
        )))
    return pairings


def pair_A0(
    phi: TestFunction, mu: EmpiricalMeasure, kernel: RelaxedKernel,
    coeffs: CoefficientSet,
) -> float:
    """Weak-form drift generator: <(bhat - <gammahat, lambda>) phi' + diff phi''/2, mu>."""
    return drift_pairings(mu, aggregate_coeffs(mu, kernel, coeffs), coeffs, (phi,))[0]


def fp_step(
    mu: EmpiricalMeasure,
    kernel: RelaxedKernel,
    dt: float,
    events: Sequence[int],
    coeffs: CoefficientSet,
    dictionary: TestFunctionDictionary,
    jump_state: tuple[EmpiricalMeasure, RelaxedKernel] | None = None,
) -> dict:
    """One-step predicted pairings <phi, mu_{t+dt}> for every dictionary entry.

    ``events`` lists the mark indices of Poisson events in (t, t+dt]; their
    contribution is evaluated at ``jump_state`` (pre-jump law and kernel) when
    supplied, else at (mu, kernel).
    """
    jump_mu, jump_kernel = jump_state if jump_state is not None else (mu, kernel)
    drift_terms = drift_pairings(
        mu, aggregate_coeffs(mu, kernel, coeffs), coeffs, dictionary
    )
    jump_pairings = {}
    for mark in events:
        signed = apply_A1(jump_mu, jump_kernel, mark, coeffs)
        for phi in dictionary:
            jump_pairings[phi.name] = (
                jump_pairings.get(phi.name, 0.0) + signed.pairing(phi.value)
            )
    x = mu.atoms[:, 0]
    out = {}
    for phi, drift_term in zip(dictionary, drift_terms):
        predicted = float(mu.weights @ np.asarray(phi.value(x), dtype=float))
        predicted += dt * drift_term
        out[phi.name] = predicted + jump_pairings.get(phi.name, 0.0)
    return out


# ---------------------------------------------------------------------------
# Chain rule along a measure path
# ---------------------------------------------------------------------------

@dataclass
class MeasurePath:
    """Discretized measure flow: per-node laws, per-step kernels, event records.

    ``jumps`` maps a node index to the events landing there, each carrying the
    pre-jump law and the kernel in force just before the event.
    """

    times: np.ndarray
    measures: list
    kernels: list
    jumps: dict


def ito_residual(evaluator, path: MeasurePath, coeffs: CoefficientSet) -> np.ndarray:
    """Per-step defect of the chain rule for a functional of the measure flow.

    ``evaluator`` provides ``value(t, mu)``, ``dt(t, mu)``, ``dmu(t, mu, x)``
    and ``dx_dmu(t, mu, x)`` (the last two vectorized over atoms).  The
    residual of step k is the increment of ``value`` minus the drift pairing
    minus the event differences.
    """
    for name in ("value", "dt", "dmu", "dx_dmu"):
        if not hasattr(evaluator, name):
            raise AttributeError(f"evaluator lacks {name!r}")
    times = path.times
    n_steps = len(times) - 1
    residuals = np.empty(n_steps)
    for k in range(n_steps):
        t, t_next = times[k], times[k + 1]
        h = t_next - t
        mu, kernel = path.measures[k], path.kernels[k]
        lifted = TestFunction(
            "dmu", value=None,
            dx=lambda x: evaluator.dmu(t, mu, x), dxx=lambda x: evaluator.dx_dmu(t, mu, x),
        )
        drift = evaluator.dt(t, mu) + drift_pairings(
            mu, aggregate_coeffs(mu, kernel, coeffs), coeffs, (lifted,)
        )[0]
        jump_part = 0.0
        for mark, pre_mu, pre_kernel in path.jumps.get(k + 1, ()):
            shifted = shift_adjoint(pre_mu, pre_kernel, mark, coeffs)
            jump_part += evaluator.value(t_next, shifted) - evaluator.value(t_next, pre_mu)
        increment = evaluator.value(t_next, path.measures[k + 1]) - evaluator.value(t, mu)
        residuals[k] = increment - drift * h - jump_part
    return residuals

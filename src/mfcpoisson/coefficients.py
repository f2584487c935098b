"""Model data: coefficient sets, the built-in linear-quadratic family, Hamiltonians.

The toolkit works with scalar state and scalar control.  A ``CoefficientSet``
bundles the drift/diffusion/jump/cost evaluators together with the optional
state-derivative and linear-derivative (measure-kernel) evaluators needed by
the adjoint machinery.  Evaluators must be pure and vectorized over particle
arrays; measure arguments arrive as atom measures from :mod:`mfcpoisson.measures`.
Paired rules simulated in lock-step pass (R, N) arrays, one row per rule, with
a law view whose ``mean_state[0]`` and ``mean_control[0]`` are (R, 1) columns;
evaluators used there must be elementwise and read the law only through those
two means, as the linear-quadratic family does.

Jump marks form a finite set: integrals over the mark space are finite sums
weighted by per-mark intensities.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError
from .measures import EmpiricalMeasure, JointEmpiricalMeasure, RelaxedKernel, joint_with_kernel


@dataclass(frozen=True)
class JumpSpec:
    """Finite mark set of the driving Poisson random measure.

    ``marks`` are the mark values z_j, ``intensities`` the per-mark rates
    lambda_j > 0, and ``gamma_values`` the jump amplitudes gamma(z_j) used by
    the built-in linear-quadratic family.
    """

    marks: np.ndarray
    intensities: np.ndarray
    gamma_values: np.ndarray

    def __post_init__(self):
        marks = np.atleast_1d(np.asarray(self.marks, dtype=float))
        lam = np.atleast_1d(np.asarray(self.intensities, dtype=float))
        gam = np.atleast_1d(np.asarray(self.gamma_values, dtype=float))
        if not (marks.shape == lam.shape == gam.shape):
            raise ValueError("marks, intensities and gamma_values need equal length")
        if np.any(lam <= 0):
            raise ValueError("per-mark intensities must be positive")
        for name, arr in (("marks", marks), ("intensities", lam), ("gamma_values", gam)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def empty(cls) -> "JumpSpec":
        return cls(np.empty(0), np.empty(0), np.empty(0))

    @classmethod
    def from_config(cls, data: dict) -> "JumpSpec":
        rows = data.get("marks", [])
        return cls(
            np.array([r["z"] for r in rows], dtype=float),
            np.array([r["lambda"] for r in rows], dtype=float),
            np.array([r["gamma"] for r in rows], dtype=float),
        )

    def to_config(self) -> dict:
        return {
            "marks": [
                {"z": float(z), "lambda": float(l), "gamma": float(g)}
                for z, l, g in zip(self.marks, self.intensities, self.gamma_values)
            ]
        }

    @property
    def n_marks(self) -> int:
        return self.marks.shape[0]

    @property
    def total_intensity(self) -> float:
        return float(self.intensities.sum())

    @cached_property
    def gamma_l2(self) -> float:
        """Gamma = integral of gamma(z)^2 against the intensity measure."""
        return float(self.gamma_values**2 @ self.intensities)

    @property
    def gamma_l1(self) -> float:
        """Integral of gamma(z) against the intensity measure (compensator weight)."""
        return float(self.gamma_values @ self.intensities)

    @property
    def mark_probs(self) -> np.ndarray:
        return self.intensities / self.total_intensity


@dataclass(frozen=True)
class LQParams:
    """Parameters of the linear-quadratic model.

    Drift b1*E[X|G] + b2*E[u|G] + b3*u, diffusion sigma*x, jump gamma(z)*u,
    running cost u^2/2, terminal cost (c/2)(x - E[X|G])^2.
    """

    b1: float
    b2: float
    b3: float
    sigma: float
    c: float
    T: float
    jumps: JumpSpec = field(default_factory=JumpSpec.empty)

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError("horizon T must be positive")
        if self.c < 0:
            raise ValueError("terminal weight c must be nonnegative")

    @classmethod
    def from_config(cls, model: dict, jumps: dict | None = None) -> "LQParams":
        spec = JumpSpec.from_config(jumps) if jumps else JumpSpec.empty()
        return cls(
            b1=float(model["b1"]),
            b2=float(model["b2"]),
            b3=float(model["b3"]),
            sigma=float(model["sigma"]),
            c=float(model["c"]),
            T=float(model["T"]),
            jumps=spec,
        )

    def to_config(self) -> dict:
        return {
            "b1": self.b1,
            "b2": self.b2,
            "b3": self.b3,
            "sigma": self.sigma,
            "c": self.c,
            "T": self.T,
        }


@dataclass(frozen=True)
class AdjointTriplet:
    """Adjoint state (p, P, K): costate, Brownian loading, per-mark jump loading.

    ``p`` and ``P`` are scalars or arrays of adjoint values at several points;
    ``K`` has shape ``(..., n_marks)``, its leading axes matching ``p``'s.
    """

    p: float | np.ndarray
    P: float | np.ndarray
    K: np.ndarray

    def __post_init__(self):
        k = np.atleast_1d(np.asarray(self.K, dtype=float))
        k.setflags(write=False)
        object.__setattr__(self, "K", k)


Evaluator = Callable[..., float]


@dataclass(frozen=True)
class CoefficientSet:
    """Evaluators for one model family.

    Required: ``drift(x, rho, u)``, ``diffusion(x, rho, u)``,
    ``jump(x, rho, u, mark)``, ``running_cost(x, rho, u)``,
    ``terminal_cost(x, mu)`` plus the ``jumps`` mark set.  ``mark`` is an index
    into ``jumps``.  Optional entries supply the state derivatives and the
    linear-derivative kernels in the joint law; operations that need a missing
    evaluator raise :class:`ConfigurationError`.
    """

    jumps: JumpSpec
    drift: Evaluator
    diffusion: Evaluator
    jump: Evaluator
    running_cost: Evaluator
    terminal_cost: Evaluator
    # state derivatives
    dx_drift: Optional[Evaluator] = None
    dx_diffusion: Optional[Evaluator] = None
    dx_jump: Optional[Evaluator] = None
    dx_running_cost: Optional[Evaluator] = None
    dx_terminal_cost: Optional[Evaluator] = None
    # linear-derivative kernels in the joint law: signature (x, u, rho, xp, up)
    ddrho_drift: Optional[Evaluator] = None
    ddrho_diffusion: Optional[Evaluator] = None
    ddrho_jump: Optional[Evaluator] = None  # (x, u, rho, xp, up, mark)
    ddrho_running_cost: Optional[Evaluator] = None
    # terminal-cost kernel in the state law and its derivative in the new point
    ddmu_terminal: Optional[Evaluator] = None  # (x, mu, xp)
    dxp_ddmu_terminal: Optional[Evaluator] = None

    def require(self, *names: str):
        missing = [n for n in names if getattr(self, n) is None]
        if missing:
            raise ConfigurationError(
                f"coefficient set lacks evaluator(s): {', '.join(missing)}"
            )


def lq_coefficients(params: LQParams) -> CoefficientSet:
    """Built-in linear-quadratic coefficient family, all derivatives included."""
    b1, b2, b3, sig, c = params.b1, params.b2, params.b3, params.sigma, params.c
    gamma = params.jumps.gamma_values

    def drift(x, rho, u):
        return b1 * rho.mean_state[0] + b2 * rho.mean_control[0] + b3 * u

    def diffusion(x, rho, u):
        return sig * x

    def jump(x, rho, u, mark):
        return gamma[mark] * u

    def running_cost(x, rho, u):
        return 0.5 * u**2

    def terminal_cost(x, mu):
        return 0.5 * c * (x - mu.mean[0]) ** 2

    zero = lambda x, *a: np.zeros_like(np.asarray(x, dtype=float)) + 0.0

    return CoefficientSet(
        jumps=params.jumps,
        drift=drift,
        diffusion=diffusion,
        jump=jump,
        running_cost=running_cost,
        terminal_cost=terminal_cost,
        dx_drift=zero,
        dx_diffusion=lambda x, rho, u: sig + 0.0 * np.asarray(x, dtype=float),
        dx_jump=lambda x, rho, u, mark: 0.0 * np.asarray(x, dtype=float),
        dx_running_cost=zero,
        dx_terminal_cost=lambda x, mu: c * (x - mu.mean[0]),
        ddrho_drift=lambda x, u, rho, xp, up: b1 * xp + b2 * up,
        ddrho_diffusion=lambda x, u, rho, xp, up: 0.0 * np.asarray(xp, dtype=float),
        ddrho_jump=lambda x, u, rho, xp, up, mark: 0.0 * np.asarray(xp, dtype=float),
        ddrho_running_cost=lambda x, u, rho, xp, up: 0.0 * np.asarray(xp, dtype=float),
        ddmu_terminal=lambda x, mu, xp: -c * (x - mu.mean[0]) * xp,
        dxp_ddmu_terminal=lambda x, mu, xp: -c * (x - mu.mean[0])
        + 0.0 * np.asarray(xp, dtype=float),
    )


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------

def _assemble(points, adj, jumps, drift, diffusion, running, jump):
    """drift.p + diffusion.P + running + sum_j jump(j).(K_j lambda_j), broadcast.

    A Python float when every point and adjoint value is scalar, otherwise an
    array of the broadcast shape of the terms and the points.
    """
    if adj.K.shape[-1] != jumps.n_marks:
        raise ValueError(
            f"adjoint K has {adj.K.shape[-1]} entries per point for {jumps.n_marks} marks"
        )
    lam = jumps.intensities
    value = (
        np.asarray(drift, dtype=float) * adj.p
        + np.asarray(diffusion, dtype=float) * adj.P
        + np.asarray(running, dtype=float)
    )
    for j in range(jumps.n_marks):
        value = value + np.asarray(jump(j), dtype=float) * (adj.K[..., j] * lam[j])
    shape = np.broadcast_shapes(np.shape(value), *map(np.shape, points))
    return np.broadcast_to(value, shape) if shape else float(value)


def hamiltonian_strict(
    x,
    u,
    rho: JointEmpiricalMeasure,
    adj: AdjointTriplet,
    coeffs: CoefficientSet,
) -> float | np.ndarray:
    """Hamiltonian b.p + sigma.P + f + sum_j gamma_j K_j lambda_j.

    Broadcasts over array ``x``, ``u`` and adjoint values (``adj.K`` of shape
    ``(..., n_marks)``); scalar arguments give a float.
    """
    return _assemble(
        (x, u), adj, coeffs.jumps,
        coeffs.drift(x, rho, u),
        coeffs.diffusion(x, rho, u),
        coeffs.running_cost(x, rho, u),
        lambda j: coeffs.jump(x, rho, u, j),
    )


def delta_hamiltonian_strict(
    x,
    u,
    rho: JointEmpiricalMeasure,
    xp,
    up,
    adj: AdjointTriplet,
    coeffs: CoefficientSet,
) -> float | np.ndarray:
    """Linear-derivative Hamiltonian kernel at (x, u) evaluated at the new point (xp, up).

    ``adj`` is the adjoint at (x, u).  Broadcasts like :func:`hamiltonian_strict`
    over ``x``, ``u``, ``xp``, ``up`` and the adjoint values.
    """
    coeffs.require(
        "ddrho_drift", "ddrho_diffusion", "ddrho_jump", "ddrho_running_cost"
    )
    return _assemble(
        (x, u, xp, up), adj, coeffs.jumps,
        coeffs.ddrho_drift(x, u, rho, xp, up),
        coeffs.ddrho_diffusion(x, u, rho, xp, up),
        coeffs.ddrho_running_cost(x, u, rho, xp, up),
        lambda j: coeffs.ddrho_jump(x, u, rho, xp, up, j),
    )


def hamiltonian_relaxed(
    x: float,
    q: tuple,
    mu: EmpiricalMeasure,
    kernel: RelaxedKernel,
    adj: AdjointTriplet,
    coeffs: CoefficientSet,
) -> float:
    """q-average of the strict Hamiltonian at the projection of the relaxed
    joint ``(mu, kernel)``; ``q`` is a kernel row's 1-D ``(support, weights)``."""
    support, weights = q
    return float(weights @ hamiltonian_strict(
        x, support, joint_with_kernel(mu, kernel), adj, coeffs
    ))


def delta_hamiltonian_relaxed(
    x: float,
    q: tuple,
    mu: EmpiricalMeasure,
    kernel: RelaxedKernel,
    xp: float,
    qp: tuple,
    adj: AdjointTriplet,
    coeffs: CoefficientSet,
) -> float:
    """Double q-average of the strict delta-Hamiltonian kernel; ``q`` and
    ``qp`` are ``(support, weights)`` rows as in :func:`hamiltonian_relaxed`."""
    (support, weights), (support_p, weights_p) = q, qp
    values = delta_hamiltonian_strict(
        x, support[:, None], joint_with_kernel(mu, kernel), xp, support_p, adj, coeffs
    )
    return float(weights @ values @ weights_p)

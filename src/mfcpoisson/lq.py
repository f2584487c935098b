"""Closed-form machinery of the linear-quadratic model.

The value function is the measure quadratic  J(t, mu) = (beta_t <x^2, mu>
+ eta_t <x, mu>^2) / 2  where (beta, eta) solve a decoupled backward Riccati
system with terminal values (c, -c).  Two noise regimes share the beta
equation and differ only in the denominator of the eta equation:

* ``common``        -- jumps hit every particle (Poissonian common noise);
  the eta denominator is 1 + Gamma (beta + eta),
* ``idiosyncratic`` -- jumps are per-particle; the denominator is 1 + Gamma beta,

with Gamma the squared jump amplitude integrated against the mark intensity.
Both denominators must stay positive; violation is reported as ill-posedness
rather than silently clipped.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Tuple

import numpy as np

from .coefficients import AdjointTriplet, LQParams
from .errors import DomainError, IllPosedError
from .measures import EmpiricalMeasure

MODES = ("common", "idiosyncratic")


def riccati_rhs(
    params: LQParams, mode: str, beta, eta
) -> Tuple[np.ndarray, np.ndarray]:
    """Forward-time derivatives (dbeta/dt, deta/dt); vectorized over nodes."""
    gamma_l2 = params.jumps.gamma_l2
    beta = np.asarray(beta, dtype=float)
    eta = np.asarray(eta, dtype=float)
    quad = params.b3**2 * beta**2 / (1.0 + gamma_l2 * beta)
    dbeta = -(params.sigma**2) * beta + quad
    s = beta + eta
    denom = 1.0 + gamma_l2 * (s if mode == "common" else beta)
    deta = -quad - (2.0 * params.b1 - (params.b2 + params.b3) ** 2 * s / denom) * s
    return dbeta, deta


@dataclass(frozen=True)
class RiccatiSolution:
    """Backward Riccati solution on a uniform grid, queried by interpolation."""

    params: LQParams
    mode: str
    ts: np.ndarray
    beta: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        for name in ("ts", "beta", "eta"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_memo", (None, None))

    @property
    def gamma_l2(self) -> float:
        return self.params.jumps.gamma_l2

    def beta_at(self, t) -> np.ndarray | float:
        return np.interp(t, self.ts, self.beta)

    def eta_at(self, t) -> np.ndarray | float:
        return np.interp(t, self.ts, self.eta)

    def feedback_at(self, t) -> Tuple:
        """``(beta, eta, gain, mean_factor)`` of the optimal feedback at ``t``.

        The feedback is  alpha(t, x) = mean_factor * m - gain * (x - m)  with
        gain = b3 beta / (1 + Gamma beta) and mean_factor = -(b2 + b3) s /
        denom, s = beta + eta and denom the eta denominator of the mode.  The
        last scalar query is remembered: each Euler step queries its time
        once for every rule, and the remembered values are the very results
        of that query.
        """
        last_t, values = self._memo
        if isinstance(t, float) and last_t == t:
            return values
        beta, eta = self.beta_at(t), self.eta_at(t)
        p, gamma_l2 = self.params, self.gamma_l2
        s = beta + eta
        denom = 1.0 + gamma_l2 * (s if self.mode == "common" else beta)
        values = (
            beta, eta, p.b3 * beta / (1.0 + gamma_l2 * beta), -(p.b2 + p.b3) * s / denom
        )
        if isinstance(t, float):
            object.__setattr__(self, "_memo", (t, values))
        return values

    @cached_property
    def feedback(self) -> Callable:
        """The optimal feedback ``(t, x, cond_mean) -> optimal_control(self, ...)``.

        One object per solution, so rules built on it can tell that they
        share it (see :meth:`simulate.FeedbackRule.derived`).
        """
        return lambda t, x, cond_mean: optimal_control(self, t, x, cond_mean)

    def rhs_at(self, t) -> Tuple[np.ndarray, np.ndarray]:
        """ODE right-hand side evaluated on the interpolated solution."""
        return riccati_rhs(self.params, self.mode, self.beta_at(t), self.eta_at(t))

    def midpoint_residual(self) -> float:
        """Max ODE residual of the stored solution at grid midpoints.

        Centered finite differences of the stored arrays are compared against
        the right-hand side at midpoint-averaged values; this checks the
        integrator output without reusing its internal stages.
        """
        h = np.diff(self.ts)
        db = np.diff(self.beta) / h
        de = np.diff(self.eta) / h
        rb, re = riccati_rhs(
            self.params,
            self.mode,
            0.5 * (self.beta[1:] + self.beta[:-1]),
            0.5 * (self.eta[1:] + self.eta[:-1]),
        )
        return float(max(np.max(np.abs(db - rb)), np.max(np.abs(de - re))))


def solve_riccati(params: LQParams, mode: str, n_steps: int) -> RiccatiSolution:
    """Integrate the Riccati system backward from T with classical RK4.

    Finiteness of beta and eta and positivity of the denominators are
    checked a posteriori at every node; the first violating time (in
    integration order, so closest to T) raises :class:`IllPosedError`.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if n_steps < 16:
        raise ValueError("n_steps must be at least 16")

    h = params.T / n_steps
    beta = np.empty(n_steps + 1)
    eta = np.empty(n_steps + 1)
    beta[-1] = params.c
    eta[-1] = -params.c
    gamma_l2 = params.jumps.gamma_l2

    def check(idx: int, b: float, e: float):
        t = idx * h
        if not (math.isfinite(b) and math.isfinite(e)):
            raise IllPosedError(t, "finite beta and eta")
        # written so that NaN fails each test
        if not 1.0 + gamma_l2 * b > 0.0:
            raise IllPosedError(t, "1 + Gamma*beta > 0")
        if mode == "common" and not 1.0 + gamma_l2 * (b + e) > 0.0:
            raise IllPosedError(t, "1 + Gamma*(beta+eta) > 0")

    check(n_steps, beta[-1], eta[-1])

    # RK4 on Python floats: the stages are 2-vectors, and numpy round trips
    # would dominate.  Each expression mirrors ``riccati_rhs`` term by term
    # (``beta * beta`` is numpy's square), so every node keeps its bits.
    try:
        b3_sq = params.b3**2
        sigma_sq = params.sigma**2
        b23_sq = (params.b2 + params.b3) ** 2
    except OverflowError:
        raise IllPosedError(params.T, "finite sigma^2, b3^2 and (b2+b3)^2") from None
    two_b1 = 2.0 * params.b1
    common = mode == "common"

    def f(b, e):
        quad = b3_sq * (b * b) / (1.0 + gamma_l2 * b)
        dbeta = -sigma_sq * b + quad
        s = b + e
        denom = 1.0 + gamma_l2 * (s if common else b)
        deta = -quad - (two_b1 - b23_sq * s / denom) * s
        # backward integration: d/dtau = -d/dt
        return -dbeta, -deta

    half_h = 0.5 * h
    sixth_h = h / 6.0
    yb, ye = float(beta[-1]), float(eta[-1])
    for k in range(n_steps - 1, -1, -1):
        k1b, k1e = f(yb, ye)
        k2b, k2e = f(yb + half_h * k1b, ye + half_h * k1e)
        k3b, k3e = f(yb + half_h * k2b, ye + half_h * k2e)
        k4b, k4e = f(yb + h * k3b, ye + h * k3e)
        yb = yb + sixth_h * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
        ye = ye + sixth_h * (k1e + 2.0 * k2e + 2.0 * k3e + k4e)
        beta[k], eta[k] = yb, ye
        check(k, yb, ye)

    ts = np.linspace(0.0, params.T, n_steps + 1)
    return RiccatiSolution(params=params, mode=mode, ts=ts, beta=beta, eta=eta)


def mean_optimal_control(sol: RiccatiSolution, t, cond_mean):
    """Conditional mean of the optimal feedback."""
    return sol.feedback_at(t)[3] * cond_mean


def optimal_control(sol: RiccatiSolution, t, x, cond_mean):
    """Optimal feedback  alpha(t, x) ;  vectorized over states and means."""
    _, _, gain, mean_factor = sol.feedback_at(t)
    return mean_factor * cond_mean - gain * (np.asarray(x, dtype=float) - cond_mean)


def value_function(sol: RiccatiSolution, t, mu: EmpiricalMeasure) -> float:
    """Measure quadratic (beta <x^2> + eta <x>^2)/2."""
    beta, eta = sol.feedback_at(t)[:2]
    return float(0.5 * (beta * mu.second_moment_raw() + eta * mu.mean[0] ** 2))


def adjoint_ansatz(sol: RiccatiSolution, t, x, cond_mean) -> AdjointTriplet:
    """Adjoint triplet at states x; the control is the optimal feedback.

    Vectorized over states: ``p`` and ``P`` take the shape of ``x`` and ``K``
    has shape ``x.shape + (n_marks,)``.  The per-mark jump loading is
    K_j = gamma(z_j) * k_scale with k_scale mode-dependent: beta*alpha +
    eta*E[alpha|G] under common noise, beta*alpha under idiosyncratic jumps.
    """
    params = sol.params
    beta, eta = sol.feedback_at(t)[:2]
    x = np.asarray(x, dtype=float)
    alpha = optimal_control(sol, t, x, cond_mean)
    p = beta * x + eta * cond_mean
    big_p = beta * params.sigma * x
    if sol.mode == "common":
        k_scale = beta * alpha + eta * mean_optimal_control(sol, t, cond_mean)
    else:
        k_scale = beta * alpha
    return AdjointTriplet(p, big_p, np.multiply.outer(k_scale, params.jumps.gamma_values))


def quadratic_minimizer(
    a: float, b: float, c: float, d: float, measure: EmpiricalMeasure
) -> Tuple[np.ndarray, float]:
    """Unique minimizer of  a E[xi^2] + b E[xi X] + c (E xi)^2 + d E[xi].

    Requires a > 0 and a + c > 0.  Returns the minimizing random variable as a
    function of the atoms of X together with the attained minimum.
    """
    if not (a > 0 and a + c > 0):
        raise DomainError(f"need a > 0 and a + c > 0, got a={a}, c={c}")
    atoms = measure.atoms[:, 0]
    mean = float(measure.weights @ atoms)
    var = float(measure.weights @ (atoms - mean) ** 2)
    level = -(b * mean + d) / (2.0 * (a + c))
    xi_star = level - (b / (2.0 * a)) * (atoms - mean)
    fmin = -(b**2) / (4.0 * a) * var - (b * mean + d) ** 2 / (4.0 * (a + c))
    return xi_star, float(fmin)

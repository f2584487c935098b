"""Finite-atom measures, relaxed kernels and optimal-transport metrics.

Every probability object in the toolkit is a weighted finite atom cloud:

* ``EmpiricalMeasure``      -- atoms in R^n (conditional state laws, and the
  control measure of one kernel row);
* ``JointEmpiricalMeasure`` -- atoms in R^n x U (strict joints);
* ``RelaxedKernel``         -- a transition kernel x -> P(U) as aligned
  (support, weights) rows, one per atom of a state law.

A relaxed joint law on R^n x P(U) is the pair ``(mu, kernel)``: atom i of
``mu`` carries the control measure of kernel row i.  ``joint_with_kernel``
is its projection onto a strict joint (the Bayes product), and ``extend``
evaluates strict-joint functionals through that projection.

Distances are computed exactly: the Fortet-Mourier norm between probability
measures equals optimal transport with ground cost ``min(d, 2)`` (Kantorovich
duality for the 1-Lipschitz, sup-norm<=1 test class), and the
Kantorovich-Rubinstein metric on relaxed joints is Wasserstein-1 for the
product metric ``|x-x'| + fm(q, q')``.  Transport problems are solved as dense
LPs, which is exact for the atom counts this toolkit targets; larger instances
are rejected rather than approximated.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import CoverageError, DimensionMismatchError, SizeLimitError

#: Largest atom count per side for the exact dense transport LP.
MAX_EXACT_ATOMS = 64

_WEIGHT_TOL = 1e-12
_LOAD_TOL = 1e-9


def _as_atoms(atoms) -> np.ndarray:
    """Coerce scalar / 1-D / 2-D input into a read-only (N, dim) float array."""
    arr = np.asarray(atoms, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    elif arr.ndim != 2:
        raise ValueError(f"atoms must be at most 2-D, got shape {arr.shape}")
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def _as_weights(weights, n_atoms: int, tol: float = _WEIGHT_TOL) -> np.ndarray:
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.shape[0] != n_atoms:
        raise ValueError(f"{n_atoms} atoms but {w.shape[0]} weights")
    if n_atoms < 1:
        raise ValueError("a measure needs at least one atom")
    # written so that NaN fails each check
    if not np.all(w >= -tol):
        raise ValueError("weights must be nonnegative")
    if not abs(float(w.sum()) - 1.0) <= tol:
        raise ValueError(f"weights sum to {w.sum()!r}, not 1 within {tol}")
    w = np.clip(w, 0.0, None)
    w.setflags(write=False)
    return w


def _load_weights(data: dict) -> np.ndarray:
    """Serialized weights rescaled to total one; a total off by more than
    ``_LOAD_TOL`` is rejected."""
    w = np.asarray(data["weights"], dtype=float).reshape(-1)
    total = float(w.sum())
    if abs(total - 1.0) > _LOAD_TOL:
        raise ValueError(
            f"serialized weights sum to {total!r}; off by more than {_LOAD_TOL}"
        )
    return w / total


def transport_cost(
    weights_a: np.ndarray,
    weights_b: np.ndarray,
    cost: np.ndarray,
) -> float:
    """Exact optimal-transport cost between two weight vectors.

    Solves the dense Kantorovich LP with the HiGHS simplex; one marginal
    constraint is dropped (it is implied by the others), which keeps the
    system full-rank.
    """
    # imported here: scipy.optimize dominates the package's import time, and
    # only the exact transport metrics need it
    from scipy.optimize import linprog

    na, nb = len(weights_a), len(weights_b)
    if na > MAX_EXACT_ATOMS or nb > MAX_EXACT_ATOMS:
        raise SizeLimitError(
            f"transport instance {na}x{nb} exceeds exact-LP limit {MAX_EXACT_ATOMS}"
        )
    if cost.shape != (na, nb):
        raise ValueError(f"cost matrix shape {cost.shape} != ({na}, {nb})")

    # Row constraints: sum_j T[i, j] = a_i; column constraints: sum_i T[i, j] = b_j.
    n_var = na * nb
    a_eq = np.zeros((na + nb - 1, n_var))
    for i in range(na):
        a_eq[i, i * nb : (i + 1) * nb] = 1.0
    for j in range(nb - 1):
        a_eq[na + j, j::nb] = 1.0
    b_eq = np.concatenate([weights_a, weights_b[:-1]])

    res = linprog(
        cost.reshape(-1),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0.0, None),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun)


@dataclass(frozen=True)
class Box:
    """Compact axis-aligned control box U in R^m."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or np.any(lo > hi):
            raise ValueError("box bounds must satisfy lower <= upper componentwise")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def contains(self, points: np.ndarray, tol: float = 1e-12) -> bool:
        pts = _as_atoms(points)
        return bool(
            np.all(pts >= self.lower - tol) and np.all(pts <= self.upper + tol)
        )


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Weighted atoms on R^n; stands in for a conditional state law."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "atoms", _as_atoms(self.atoms))
        object.__setattr__(
            self, "weights", _as_weights(self.weights, self.atoms.shape[0])
        )

    @classmethod
    def from_dict(cls, data: dict) -> "EmpiricalMeasure":
        return cls(_as_atoms(data["atoms"]), _load_weights(data))

    @classmethod
    def from_json(cls, text: str) -> "EmpiricalMeasure":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_samples(cls, samples) -> "EmpiricalMeasure":
        atoms = _as_atoms(samples)
        n = atoms.shape[0]
        return cls(atoms, np.full(n, 1.0 / n))

    @classmethod
    def trusted(cls, samples, weights) -> "EmpiricalMeasure":
        """Unvalidated measure over a 1-D float sample array.

        For hot loops, as :meth:`JointEmpiricalMeasure.trusted`: the caller
        guarantees equal lengths and probability weights, and the atoms are
        the contiguous (N, 1) view :func:`_as_atoms` would make.
        """
        mu = object.__new__(cls)
        object.__setattr__(mu, "atoms", np.ascontiguousarray(samples).reshape(-1, 1))
        object.__setattr__(mu, "weights", weights)
        return mu

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    @property
    def mean(self) -> np.ndarray:
        return self.weights @ self.atoms

    def second_moment_raw(self) -> float:
        """Integral of |x|^2."""
        return float(self.weights @ np.sum(self.atoms**2, axis=1))

    def variance(self) -> float:
        m = self.mean
        return float(self.weights @ np.sum((self.atoms - m) ** 2, axis=1))

    def to_dict(self) -> dict:
        return {"atoms": self.atoms.tolist(), "weights": self.weights.tolist()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


@dataclass(frozen=True)
class JointEmpiricalMeasure:
    """Weighted atoms (x_i, u_i) on R^n x U: a strict joint law."""

    states: np.ndarray
    controls: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        states = _as_atoms(self.states)
        controls = _as_atoms(self.controls)
        if controls.shape[0] != states.shape[0]:
            raise ValueError("states and controls disagree on atom count")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "controls", controls)
        object.__setattr__(self, "weights", _as_weights(self.weights, states.shape[0]))

    # -- constructors --------------------------------------------------------
    @classmethod
    def strict(cls, states, controls, weights=None) -> "JointEmpiricalMeasure":
        states = _as_atoms(states)
        if weights is None:
            n = states.shape[0]
            weights = np.full(n, 1.0 / n)
        return cls(states, _as_atoms(controls), weights)

    @classmethod
    def trusted(cls, states, controls, weights) -> "JointEmpiricalMeasure":
        """Unvalidated strict joint over 1-D float state and control arrays.

        For hot loops: the caller guarantees what ``__post_init__`` would
        check (equal lengths, nonnegative weights summing to one).  The arrays
        are laid out as :func:`_as_atoms` lays them out, as contiguous (N, 1)
        views without a copy when they already are contiguous, so the means
        are the same ``weights @ states`` products as on a validated joint.
        """
        rho = object.__new__(cls)
        object.__setattr__(rho, "states", np.ascontiguousarray(states).reshape(-1, 1))
        object.__setattr__(rho, "controls", np.ascontiguousarray(controls).reshape(-1, 1))
        object.__setattr__(rho, "weights", weights)
        return rho

    # -- statistics ----------------------------------------------------------
    @property
    def n_atoms(self) -> int:
        return self.states.shape[0]

    @property
    def state_dim(self) -> int:
        return self.states.shape[1]

    @cached_property
    def mean_state(self) -> np.ndarray:
        return self.weights @ self.states

    @cached_property
    def mean_control(self) -> np.ndarray:
        return self.weights @ self.controls

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> dict:
        atoms = np.hstack([self.states, self.controls])
        return {
            "atoms": atoms.tolist(),
            "weights": self.weights.tolist(),
            "state_dim": self.state_dim,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "JointEmpiricalMeasure":
        atoms = _as_atoms(data["atoms"])
        n_state = int(data["state_dim"])
        return cls.strict(atoms[:, :n_state], atoms[:, n_state:], _load_weights(data))

    @classmethod
    def from_json(cls, text: str) -> "JointEmpiricalMeasure":
        return cls.from_dict(json.loads(text))

    def state_marginal(self) -> EmpiricalMeasure:
        return EmpiricalMeasure(self.states, self.weights)


# ---------------------------------------------------------------------------
# Relaxed controls
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelaxedKernel:
    """Transition kernel x -> probability on U, stored as aligned atom rows.

    Row i carries the support and weights of the control measure attached to
    the i-th atom of the accompanying state law.  Ragged supports are padded
    with zero-weight entries.
    """

    supports: np.ndarray  # (N, A)
    weights: np.ndarray  # (N, A), rows sum to 1

    def __post_init__(self):
        sup = np.atleast_2d(np.asarray(self.supports, dtype=float))
        w = np.atleast_2d(np.asarray(self.weights, dtype=float))
        if sup.shape != w.shape:
            raise ValueError("supports and weights must share a shape")
        # written so that NaN fails each test
        if not (np.all(w >= 0) and np.all(np.abs(w.sum(axis=1) - 1.0) <= 1e-12)):
            raise ValueError("kernel rows must be probability weights")
        if not np.isfinite(sup).all():
            raise ValueError("kernel supports must be finite")
        sup.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "supports", sup)
        object.__setattr__(self, "weights", w)

    @property
    def n_rows(self) -> int:
        return self.supports.shape[0]

    @classmethod
    def dirac(cls, controls) -> "RelaxedKernel":
        u = np.asarray(controls, dtype=float).reshape(-1, 1)
        return cls(u, np.ones_like(u))

    @classmethod
    def trusted(cls, supports, weights) -> "RelaxedKernel":
        """Unvalidated kernel over (N, A) float arrays whose rows are
        probability weights, for hot loops."""
        kernel = object.__new__(cls)
        object.__setattr__(kernel, "supports", supports)
        object.__setattr__(kernel, "weights", weights)
        return kernel

    @classmethod
    def shared(cls, n_rows: int, support, weights) -> "RelaxedKernel":
        support = np.asarray(support, dtype=float).reshape(-1)
        weights = np.asarray(weights, dtype=float).reshape(-1)
        return cls(
            np.tile(support, (n_rows, 1)), np.tile(weights / weights.sum(), (n_rows, 1))
        )

    def average(self, vals) -> np.ndarray:
        """Row averages of values given per atom, (N, A) or broadcastable to it.

        Below 8 atoms numpy's row sum adds the products in order, starting
        from 0.0, so the sum is written out column by column with the same
        bits and without the (N, A) product array; from 8 atoms on numpy
        sums pairwise, and the row sum is kept.
        """
        vals = np.asarray(vals, dtype=float)
        if vals.shape != self.supports.shape:
            vals = np.broadcast_to(vals, self.supports.shape)
        n_atoms = vals.shape[1]
        if not 0 < n_atoms < 8:
            return (vals * self.weights).sum(axis=1)
        w = self.weights
        total = 0.0 + vals[:, 0] * w[:, 0]
        for a in range(1, n_atoms):
            total += vals[:, a] * w[:, a]
        return total

    def require_cover(self, mu: EmpiricalMeasure):
        if self.n_rows != mu.n_atoms:
            raise CoverageError(
                f"kernel has {self.n_rows} rows for {mu.n_atoms} atoms"
            )


def joint_with_kernel(mu: EmpiricalMeasure, kernel: RelaxedKernel) -> JointEmpiricalMeasure:
    """Bayes product: joint law with atoms (x_i, u_ia), weights w_i * k_ia.

    The law must be scalar, as every state in the toolkit is.
    """
    kernel.require_cover(mu)
    if mu.dim != 1:
        raise DimensionMismatchError(f"the Bayes product takes a law on R^1, not R^{mu.dim}")
    n, a = kernel.supports.shape
    # both factors are probability measures, so the product needs no check
    return JointEmpiricalMeasure.trusted(
        np.repeat(mu.atoms[:, 0], a),
        kernel.supports.reshape(-1),
        (mu.weights[:, None] * kernel.weights).reshape(-1),
    )


def extend(
    h: Callable[[JointEmpiricalMeasure], float], mu: EmpiricalMeasure, kernel: RelaxedKernel
) -> float:
    """Extension transformation: evaluate a strict-joint functional on the
    relaxed joint ``(mu, kernel)`` through its projection."""
    return h(joint_with_kernel(mu, kernel))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _euclidean_cost(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.sum(diff**2, axis=2))


def fm_distance(a: EmpiricalMeasure, b: EmpiricalMeasure) -> float:
    """Fortet-Mourier distance between two atom measures.

    Equals sup of integral f d(a-b) over 1-Lipschitz f with |f| <= 1, computed
    as exact transport with truncated ground cost min(|x-y|, 2).
    """
    if a.dim != b.dim:
        raise DimensionMismatchError(
            f"measures live on R^{a.dim} and R^{b.dim}"
        )
    cost = np.minimum(_euclidean_cost(a.atoms, b.atoms), 2.0)
    return transport_cost(a.weights, b.weights, cost)


def kr_distance(
    mu_a: EmpiricalMeasure, kernel_a: RelaxedKernel,
    mu_b: EmpiricalMeasure, kernel_b: RelaxedKernel,
) -> float:
    """Kantorovich-Rubinstein (Wasserstein-1) distance between relaxed joints.

    Ground metric between atoms (x, q) and (x', q') is |x - x'| + fm(q, q'),
    where q and q' are the kernel rows of the two atoms.
    """
    kernel_a.require_cover(mu_a)
    kernel_b.require_cover(mu_b)
    if mu_a.dim != mu_b.dim:
        raise DimensionMismatchError(f"joints live on R^{mu_a.dim} and R^{mu_b.dim}")
    rows_a, rows_b = (
        [EmpiricalMeasure.trusted(s, w) for s, w in zip(k.supports, k.weights)]
        for k in (kernel_a, kernel_b)
    )
    q_cost = np.array([[fm_distance(qa, qb) for qb in rows_b] for qa in rows_a])
    cost = _euclidean_cost(mu_a.atoms, mu_b.atoms) + q_cost
    return transport_cost(mu_a.weights, mu_b.weights, cost)


def second_moment(rho: JointEmpiricalMeasure) -> float:
    """Joint second moment sqrt(integral of |x|^2 + |u|^2)."""
    total = float(
        rho.weights
        @ (np.sum(rho.states**2, axis=1) + np.sum(rho.controls**2, axis=1))
    )
    return float(np.sqrt(max(total, 0.0)))

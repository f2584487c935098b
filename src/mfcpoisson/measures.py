"""Finite-atom measures, optimal-transport metrics and the relaxed-to-strict projection.

Every probability object in the toolkit is a weighted finite atom cloud:

* ``EmpiricalMeasure``   -- atoms in R^n (conditional state laws),
* ``ControlMeasure``     -- atoms in the compact control box U (relaxed control values),
* ``JointEmpiricalMeasure`` -- atoms in R^n x U (strict joints) or R^n x P(U)
  (relaxed joints).

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

from .errors import DimensionMismatchError, MeasureKindError, SizeLimitError

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
    if np.any(w < -tol):
        raise ValueError("weights must be nonnegative")
    if abs(float(w.sum()) - 1.0) > tol:
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

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def contains(self, points: np.ndarray, tol: float = 1e-12) -> bool:
        pts = _as_atoms(points)
        return bool(
            np.all(pts >= self.lower - tol) and np.all(pts <= self.upper + tol)
        )

    def grid(self, points_per_axis: int) -> np.ndarray:
        """Uniform finite grid used for relaxed-control supports."""
        axes = [
            np.linspace(self.lower[k], self.upper[k], points_per_axis)
            for k in range(self.dim)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=1)


class _AtomMeasure:
    """Shared atoms+weights plumbing for empirical and control measures."""

    atoms: np.ndarray
    weights: np.ndarray

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    @property
    def mean(self) -> np.ndarray:
        return self.weights @ self.atoms

    def to_dict(self) -> dict:
        return {"atoms": self.atoms.tolist(), "weights": self.weights.tolist()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


@dataclass(frozen=True)
class EmpiricalMeasure(_AtomMeasure):
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

    def second_moment_raw(self) -> float:
        """Integral of |x|^2."""
        return float(self.weights @ np.sum(self.atoms**2, axis=1))

    def variance(self) -> float:
        m = self.mean
        return float(self.weights @ np.sum((self.atoms - m) ** 2, axis=1))


@dataclass(frozen=True)
class ControlMeasure(_AtomMeasure):
    """Probability measure on the control box U with finite support."""

    atoms: np.ndarray
    weights: np.ndarray
    box: Box | None = None

    def __post_init__(self):
        object.__setattr__(self, "atoms", _as_atoms(self.atoms))
        object.__setattr__(
            self, "weights", _as_weights(self.weights, self.atoms.shape[0])
        )
        if self.box is not None and not self.box.contains(self.atoms):
            raise ValueError("support points fall outside the declared control box")

    @property
    def support(self) -> np.ndarray:
        return self.atoms

    @classmethod
    def dirac(cls, u, box: Box | None = None) -> "ControlMeasure":
        return cls(_as_atoms(u), np.array([1.0]), box)

    @classmethod
    def from_dict(cls, data: dict, box: Box | None = None) -> "ControlMeasure":
        return cls(_as_atoms(data["atoms"]), _load_weights(data), box)

    @classmethod
    def from_json(cls, text: str, box: Box | None = None) -> "ControlMeasure":
        return cls.from_dict(json.loads(text), box)


@dataclass(frozen=True)
class SecondMoment:
    """sqrt of the integral of |x|^2 + |u|^2 against a joint law."""

    value: float

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("second moment is nonnegative")

    def __float__(self) -> float:
        return float(self.value)


@dataclass(frozen=True)
class JointEmpiricalMeasure:
    """Weighted atoms on R^n x U (strict) or R^n x P(U) (relaxed).

    ``controls`` is an (N, m) array for the strict kind, or a sequence of N
    ``ControlMeasure`` objects for the relaxed kind.  The second component is
    homogeneous by construction.
    """

    states: np.ndarray
    controls: np.ndarray | tuple
    weights: np.ndarray

    def __post_init__(self):
        states = _as_atoms(self.states)
        object.__setattr__(self, "states", states)
        n = states.shape[0]
        if isinstance(self.controls, (np.ndarray, list)) and not (
            len(self.controls) > 0 and isinstance(self.controls[0], ControlMeasure)
        ):
            controls = _as_atoms(self.controls)
            if controls.shape[0] != n:
                raise ValueError("states and controls disagree on atom count")
        else:
            controls = tuple(self.controls)
            if len(controls) != n:
                raise ValueError("states and control measures disagree on atom count")
            if not all(isinstance(q, ControlMeasure) for q in controls):
                raise MeasureKindError(
                    "second components must be all points or all ControlMeasure"
                )
        object.__setattr__(self, "controls", controls)
        object.__setattr__(self, "weights", _as_weights(self.weights, n))

    # -- kind handling -----------------------------------------------------
    @property
    def kind(self) -> str:
        return "strict" if isinstance(self.controls, np.ndarray) else "relaxed"

    @property
    def is_strict(self) -> bool:
        return self.kind == "strict"

    def require_kind(self, kind: str):
        if self.kind != kind:
            raise MeasureKindError(f"expected a {kind} joint, got {self.kind}")

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

    @classmethod
    def relaxed(cls, states, control_measures, weights=None) -> "JointEmpiricalMeasure":
        states = _as_atoms(states)
        if weights is None:
            n = states.shape[0]
            weights = np.full(n, 1.0 / n)
        return cls(states, tuple(control_measures), weights)

    @classmethod
    def dirac_lift(cls, rho: "JointEmpiricalMeasure") -> "JointEmpiricalMeasure":
        """Lift a strict joint to the relaxed kind via Dirac control values."""
        rho.require_kind("strict")
        qs = tuple(ControlMeasure.dirac(u) for u in rho.controls)
        return cls(rho.states, qs, rho.weights)

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
        if self.is_strict:
            return self.weights @ self.controls
        per_atom = np.stack([q.mean for q in self.controls])
        return self.weights @ per_atom

    # -- serialization (strict kind) ------------------------------------------
    def to_dict(self) -> dict:
        self.require_kind("strict")
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
# Metrics
# ---------------------------------------------------------------------------

def _euclidean_cost(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.sum(diff**2, axis=2))


def fm_distance(a, b) -> float:
    """Fortet-Mourier distance between two same-kind atom measures.

    Equals sup of integral f d(a-b) over 1-Lipschitz f with |f| <= 1, computed
    as exact transport with truncated ground cost min(|x-y|, 2).
    """
    if a.dim != b.dim:
        raise DimensionMismatchError(
            f"measures live on R^{a.dim} and R^{b.dim}"
        )
    cost = np.minimum(_euclidean_cost(a.atoms, b.atoms), 2.0)
    return transport_cost(a.weights, b.weights, cost)


def kr_distance(a: JointEmpiricalMeasure, b: JointEmpiricalMeasure) -> float:
    """Kantorovich-Rubinstein (Wasserstein-1) distance between relaxed joints.

    Ground metric between atoms (x, q) and (x', q') is |x - x'| + fm(q, q').
    """
    a.require_kind("relaxed")
    b.require_kind("relaxed")
    if a.state_dim != b.state_dim:
        raise DimensionMismatchError(
            f"joints live on R^{a.state_dim} and R^{b.state_dim}"
        )
    state_cost = _euclidean_cost(a.states, b.states)
    q_cost = np.empty_like(state_cost)
    for i, qa in enumerate(a.controls):
        for j, qb in enumerate(b.controls):
            q_cost[i, j] = fm_distance(qa, qb)
    return transport_cost(a.weights, b.weights, state_cost + q_cost)


def project(xi: JointEmpiricalMeasure) -> JointEmpiricalMeasure:
    """Affine projection of a relaxed joint onto a strict joint.

    Each atom (x, q) with weight w expands into atoms (x, u_a) with weights
    w * q({u_a}) over the support of q.
    """
    xi.require_kind("relaxed")
    states, controls, weights = [], [], []
    for x, q, w in zip(xi.states, xi.controls, xi.weights):
        for u, qw in zip(q.atoms, q.weights):
            states.append(x)
            controls.append(u)
            weights.append(w * qw)
    return JointEmpiricalMeasure.strict(
        np.asarray(states), np.asarray(controls), np.asarray(weights)
    )


def extend(h: Callable[[JointEmpiricalMeasure], float], xi: JointEmpiricalMeasure) -> float:
    """Extension transformation: evaluate a strict-joint functional on a relaxed joint."""
    return h(project(xi))


def second_moment(rho: JointEmpiricalMeasure) -> SecondMoment:
    """Joint second moment sqrt(integral of |x|^2 + |u|^2)."""
    if rho.kind == "relaxed":
        rho = project(rho)
    total = float(
        rho.weights
        @ (np.sum(rho.states**2, axis=1) + np.sum(rho.controls**2, axis=1))
    )
    return SecondMoment(float(np.sqrt(max(total, 0.0))))

"""Finite-atom measures, relaxed kernels and the Fortet-Mourier distance.

Every probability object in the toolkit is a weighted finite atom cloud:

* ``EmpiricalMeasure``      -- atoms in R^n (conditional state laws, and the
  control measure of one kernel row);
* ``JointEmpiricalMeasure`` -- atoms in R^n x U (strict joints);
* ``RelaxedKernel``         -- a transition kernel x -> P(U) as aligned
  (support, weights) rows, one per atom of a state law.

A relaxed joint law on R^n x P(U) is the pair ``(mu, kernel)``: atom i of
``mu`` carries the control measure of kernel row i.  ``joint_with_kernel``
is its projection onto a strict joint (the Bayes product).

The Fortet-Mourier distance between probability measures a and b on R^1,
the sup of the integral of f d(a - b) over 1-Lipschitz f with |f| <= 1, is
computed exactly by a dynamic program over the merged support, for the atom
counts this toolkit targets; larger instances are rejected rather than
approximated.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CoverageError, DimensionMismatchError, SizeLimitError

#: Largest atom count per side for the exact Fortet-Mourier dynamic program.
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


def _finite(atoms: np.ndarray, name: str) -> np.ndarray:
    """``atoms``, once checked to hold no NaN or infinite value."""
    bad = np.flatnonzero(~np.isfinite(atoms).all(axis=1))
    if bad.size:
        raise ValueError(f"{name} must be finite; atom {bad[0]} is {atoms[bad[0]].tolist()}")
    return atoms


def _check_exact_size(na: int, nb: int):
    if na > MAX_EXACT_ATOMS or nb > MAX_EXACT_ATOMS:
        raise SizeLimitError(
            f"instance {na}x{nb} exceeds the exact limit of {MAX_EXACT_ATOMS} atoms"
        )


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


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Weighted atoms on R^n; stands in for a conditional state law."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "atoms", _finite(_as_atoms(self.atoms), "atoms"))
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
        states = _finite(_as_atoms(self.states), "states")
        controls = _finite(_as_atoms(self.controls), "controls")
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

        Values may carry leading axes, as (S, N, A) values of S clouds that
        share the kernel do; each (N, A) slab is averaged with the bits of
        its own call.  Below 8 atoms numpy's row sum adds the products in
        order, starting from 0.0, so the sum is written out column by column
        with the same bits and without the product array; from 8 atoms on
        numpy sums pairwise, and the row sum is kept.
        """
        vals = np.asarray(vals, dtype=float)
        shape = np.broadcast_shapes(vals.shape, self.supports.shape)
        if vals.shape != shape:
            vals = np.broadcast_to(vals, shape)
        n_atoms = shape[-1]
        if not 0 < n_atoms < 8:
            return (vals * self.weights).sum(axis=-1)
        w = self.weights
        total = 0.0 + vals[..., 0] * w[:, 0]
        for a in range(1, n_atoms):
            total += vals[..., a] * w[:, a]
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


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def fm_distance(a: EmpiricalMeasure, b: EmpiricalMeasure) -> float:
    """Fortet-Mourier distance between two measures on R^1.

    The distance is the sup of the integral of f d(a - b) over 1-Lipschitz f
    with |f| <= 1, which by Kantorovich duality is also the transport cost
    with ground cost min(|x - y|, 2).  On the line only the values f_i at the
    merged distinct atoms z_1 < ... < z_m matter, so the sup is the chain
    problem

        max sum_i c_i f_i  over  |f_i| <= 1,  |f_{i+1} - f_i| <= d_i,

    where c_i is the weight of a minus the weight of b at z_i and
    d_i = min(z_{i+1} - z_i, 2).  A gap beyond 2 constrains nothing that
    |f| <= 1 does not, and clipping it keeps a gap that overflows, as
    between atoms at -1e308 and 1e308, at exactly 2.

    The chain is solved exactly by a forward dynamic program on [-1, 1]:
    V_1(f) = c_1 f and V_{i+1}(g) = c_{i+1} g + max over |f - g| <= d_i of
    V_i(f).  Each V_i is concave and piecewise linear and is kept as its
    knots.  The window max splits them at the argmax, shifts the left part by
    -d_i and the right part by +d_i, which leaves a plateau between, and is
    cut back to [-1, 1] by interpolation at the ends.  The distance is
    max V_m, found in O(m^2) work.

    Both laws must be scalar; any other dimension raises
    ``DimensionMismatchError``.
    """
    if a.dim != 1 or b.dim != 1:
        raise DimensionMismatchError(
            f"fm_distance takes laws on R^1, not R^{a.dim} and R^{b.dim}"
        )
    na = a.n_atoms
    _check_exact_size(na, b.n_atoms)
    z, index = np.unique(np.concatenate([a.atoms[:, 0], b.atoms[:, 0]]), return_inverse=True)
    m = z.size
    c = np.bincount(index[:na], a.weights, m) - np.bincount(index[na:], b.weights, m)
    with np.errstate(over="ignore"):
        gaps = np.minimum(np.diff(z), 2.0)
    x = np.array([-1.0, 1.0])
    y = c[0] * x
    for c_i, d in zip(c[1:], gaps):
        k = int(np.argmax(y))
        x = np.concatenate([x[: k + 1] - d, x[k:] + d])
        y = np.concatenate([y[: k + 1], y[k:]])
        ends = np.interp([-1.0, 1.0], x, y)
        inner = (x > -1.0) & (x < 1.0)
        x = np.concatenate([[-1.0], x[inner], [1.0]])
        y = np.concatenate([ends[:1], y[inner], ends[1:]]) + c_i * x
    return float(y.max())

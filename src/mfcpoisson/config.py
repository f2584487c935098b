"""Experiment configuration: JSON schema, validation, hashing."""
from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coefficients import LQParams
from .simulate import InitSpec
from .verify import PERTURBATION_KINDS, MonteCarloSettings, Perturbation


class ConfigError(ValueError):
    """Malformed or schema-violating experiment configuration."""


#: Upper bound on every count field (particles, scenarios, grid points, steps,
#: samples, atoms): the shipped configs and the benchmark stay below 5000, and
#: a count far beyond the bound would only try to allocate.
MAX_COUNT = 10**6


_DEFAULT_VERIFY = {
    "riccati_steps": 4096,
    "tolerances": {"smp": 1e-8, "bsde": 1e-6, "hjb": None},
    "u_grid": {"lo": -4.0, "hi": 4.0, "points": 321},
    "smp_samples": 200,
    "hjb_samples": 100,
    "hjb_max_atoms": 16,
    "perturbations": [
        {"kind": "gain", "amount": 0.5},
        {"kind": "gain", "amount": 1.5},
        {"kind": "offset", "amount": 0.5},
        {"kind": "offset", "amount": -0.5},
    ],
    "fp_ratio_band": [0.3, 0.7],
    "noise_ratio_min": 5.0,
    "chattering": {
        "support": [0.2, 0.8],
        "weights": [0.5, 0.5],
        "levels": [2, 4, 8, 16, 32],
        "sigma_factor": 5.0,
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description plus the hash of its raw JSON."""

    params: LQParams
    mc: MonteCarloSettings
    verify: dict
    output: dict
    raw: dict
    config_hash: str

    @property
    def u_grid(self) -> np.ndarray:
        g = self.verify["u_grid"]
        return np.linspace(float(g["lo"]), float(g["hi"]), int(g["points"]))

    @property
    def perturbations(self) -> list:
        return [
            Perturbation(p["kind"], float(p["amount"]))
            for p in self.verify["perturbations"]
        ]

    def tolerance(self, name: str):
        return self.verify["tolerances"].get(name)


def config_hash(raw: dict) -> str:
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _check_object(value, name: str) -> None:
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be an object, got {value!r}")


def _require(section: dict, name: str, keys) -> None:
    _check_object(section, name)
    missing = [k for k in keys if k not in section]
    if missing:
        raise ConfigError(f"section '{name}' lacks field(s): {', '.join(missing)}")


def _field(name: str, key) -> str:
    """``name.key`` for an object field, ``name[key]`` for a list entry."""
    return f"{name}[{key}]" if isinstance(key, int) else f"{name}.{key}"


def _check_integer(section, name: str, key) -> None:
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{_field(name, key)} must be an integer, got {value!r}")


def _check_count(section, name: str, key, least: int) -> None:
    _check_integer(section, name, key)
    if section[key] < least:
        raise ConfigError(f"{_field(name, key)} must be at least {least}, got {section[key]!r}")
    if section[key] > MAX_COUNT:
        raise ConfigError(
            f"{_field(name, key)} must be at most {MAX_COUNT}, got {section[key]!r}"
        )


def _is_finite(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _check_finite(section: dict, name: str, key: str) -> None:
    value = section[key]
    if not _is_finite(value):
        raise ConfigError(f"{name}.{key} must be a finite number, got {value!r}")


def _check_positive(section: dict, name: str, key: str) -> None:
    _check_finite(section, name, key)
    if not section[key] > 0:
        raise ConfigError(f"{name}.{key} must be positive, got {section[key]!r}")


def _check_tolerances(tolerances) -> None:
    _check_object(tolerances, "verify.tolerances")
    known = _DEFAULT_VERIFY["tolerances"]
    for name, tol in tolerances.items():
        if name not in known:
            raise ConfigError(
                f"verify.tolerances.{name} is not a known check; "
                f"choose from {', '.join(sorted(known))}"
            )
        if tol is None and known[name] is None:
            continue  # derived from the Riccati solution
        _check_positive(tolerances, "verify.tolerances", name)


def _check_perturbations(rows) -> None:
    if not isinstance(rows, list):
        raise ConfigError(f"verify.perturbations must be a list, got {rows!r}")
    for i, row in enumerate(rows):
        name = f"verify.perturbations[{i}]"
        _require(row, name, ["kind", "amount"])
        if row["kind"] not in PERTURBATION_KINDS:
            raise ConfigError(
                f"{name}.kind must be one of {', '.join(PERTURBATION_KINDS)}, "
                f"got {row['kind']!r}"
            )
        _check_finite(row, name, "amount")


def _check_ratio_band(band) -> None:
    if not (
        isinstance(band, list) and len(band) == 2
        and all(_is_finite(v) for v in band) and 0 < band[0] < band[1]
    ):
        raise ConfigError(
            f"verify.fp_ratio_band must be two finite numbers lo, hi with "
            f"0 < lo < hi, got {band!r}"
        )


def _check_chattering(chat) -> None:
    name = "verify.chattering"
    _require(chat, name, ["support", "weights", "levels", "sigma_factor"])
    for key in ("support", "weights"):
        values = chat[key]
        if not (isinstance(values, list) and values and all(_is_finite(v) for v in values)):
            raise ConfigError(
                f"{name}.{key} must be a non-empty list of finite numbers, got {values!r}"
            )
    support, weights = chat["support"], chat["weights"]
    if len(weights) != len(support):
        raise ConfigError(
            f"{name}.weights needs one entry per support point: {len(weights)} weights "
            f"for {len(support)} points"
        )
    total = float(np.sum(weights))
    if any(w < 0 for w in weights) or not 0 < total < math.inf:
        raise ConfigError(
            f"{name}.weights must be nonnegative with a positive finite total, got {weights!r}"
        )
    levels = chat["levels"]
    if not (isinstance(levels, list) and levels):
        raise ConfigError(f"{name}.levels must be a non-empty list of slab counts, got {levels!r}")
    for i in range(len(levels)):
        _check_count(levels, f"{name}.levels", i, 1)
    _check_positive(chat, name, "sigma_factor")


def _check_init_atoms(init: InitSpec) -> None:
    atoms, weights = init.atoms, init.weights
    if atoms.ndim != 1 or not np.all(np.isfinite(atoms)):
        raise ConfigError("sim.init.atoms must be a list of finite numbers")
    if weights.shape != atoms.shape:
        raise ConfigError(
            f"sim.init.weights needs one entry per atom: {weights.size} weights "
            f"for {atoms.size} atoms"
        )
    if not np.all(np.isfinite(weights)) or np.any(weights < 0):
        raise ConfigError("sim.init.weights must be finite and nonnegative")
    if not weights.sum() > 0:
        raise ConfigError("sim.init.weights must have a positive total")


def _check_marks(jumps) -> None:
    if jumps is None:
        return
    _check_object(jumps, "jumps")
    rows = jumps.get("marks", [])
    if not isinstance(rows, list):
        raise ConfigError("jumps.marks must be a list")
    for i, row in enumerate(rows):
        name = f"jumps.marks[{i}]"
        _require(row, name, ["z", "lambda", "gamma"])
        for key in ("z", "lambda", "gamma"):
            _check_finite(row, name, key)


def _merge_defaults(user: dict, defaults: dict) -> dict:
    out = {}
    for key, val in defaults.items():
        if key in user and isinstance(val, dict) and isinstance(user[key], dict):
            out[key] = _merge_defaults(user[key], val)
        elif key in user:
            out[key] = user[key]
        else:
            out[key] = val
    for key in user:
        if key not in out:
            out[key] = user[key]
    return out


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw config dictionary and build the typed pieces."""
    if not isinstance(raw, dict):
        raise ConfigError("top level must be a JSON object")
    _require(raw, "<root>", ["model", "sim"])
    model = raw["model"]
    _require(model, "model", ["b1", "b2", "b3", "sigma", "c", "T"])
    sim = raw["sim"]
    _require(sim, "sim", ["particles", "scenarios", "dt", "seed"])

    for key in ("b1", "b2", "b3", "sigma", "c", "T"):
        _check_finite(model, "model", key)
    for key, least in (("particles", 2), ("scenarios", 1)):
        _check_count(sim, "sim", key, least)
    _check_integer(sim, "sim", "seed")
    if sim["seed"] < 0:
        raise ConfigError(f"sim.seed must be at least 0, got {sim['seed']!r}")
    _check_finite(sim, "sim", "dt")
    _check_marks(raw.get("jumps"))

    try:
        params = LQParams.from_config(model, raw.get("jumps"))
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"model/jumps section: {err}") from err

    if not sim["dt"] > 0:
        raise ConfigError("sim.dt must be positive")
    if sim["dt"] > model["T"]:
        raise ConfigError(f"sim.dt must not exceed model.T, got {sim['dt']!r} > {model['T']!r}")
    mode = sim.get("mode", "common")
    if mode not in ("common", "idiosyncratic"):
        raise ConfigError(f"sim.mode must be common|idiosyncratic, got {mode!r}")

    _check_object(raw.get("verify", {}), "verify")
    output = raw.get("output", {})
    _check_object(output, "output")
    table = output.get("fp_pairings")
    if "fp_pairings" in output and not (isinstance(table, str) and table):
        raise ConfigError(f"output.fp_pairings must be a non-empty file path, got {table!r}")
    verify = _merge_defaults(raw.get("verify", {}), _DEFAULT_VERIFY)
    _check_tolerances(verify["tolerances"])
    _check_perturbations(verify["perturbations"])
    _check_ratio_band(verify["fp_ratio_band"])
    _check_positive(verify, "verify", "noise_ratio_min")
    _check_chattering(verify["chattering"])
    grid = verify["u_grid"]
    _check_object(grid, "verify.u_grid")
    _check_finite(grid, "verify.u_grid", "lo")
    _check_finite(grid, "verify.u_grid", "hi")
    if not grid["lo"] < grid["hi"]:
        raise ConfigError(
            f"verify.u_grid.lo must be below hi, got {grid['lo']!r} >= {grid['hi']!r}"
        )
    _check_count(grid, "verify.u_grid", "points", 3)
    counts = {"riccati_steps": 16, "smp_samples": 1, "hjb_samples": 1, "hjb_max_atoms": 1}
    for key, least in counts.items():
        _check_count(verify, "verify", key, least)

    init_raw = sim.get("init", {"kind": "gaussian", "mean": 1.0, "std": 0.5})
    _check_object(init_raw, "sim.init")
    if init_raw.get("kind", "gaussian") == "gaussian":
        _require(init_raw, "sim.init", ["mean", "std"])
        _check_finite(init_raw, "sim.init", "mean")
        _check_finite(init_raw, "sim.init", "std")
        if init_raw["std"] < 0:
            raise ConfigError(f"sim.init.std must be nonnegative, got {init_raw['std']!r}")
    try:
        init = InitSpec.from_config(init_raw)
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"sim.init section: {err}") from err
    if init.kind == "atoms":
        _check_init_atoms(init)

    mc = MonteCarloSettings(
        particles=int(sim["particles"]),
        scenarios=int(sim["scenarios"]),
        dt=float(sim["dt"]),
        seed=int(sim["seed"]),
        mode=mode,
        init=init,
        riccati_steps=int(verify["riccati_steps"]),
    )
    return ExperimentConfig(
        params=params,
        mc=mc,
        verify=verify,
        output=output,
        raw=raw,
        config_hash=config_hash(raw),
    )


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON config file; parse errors carry line numbers."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"{p}:{err.lineno}:{err.colno}: malformed JSON: {err.msg}"
        ) from err
    return parse_config(raw)


def default_config(seed: int = 20240901) -> dict:
    """A complete runnable configuration for the built-in model."""
    return {
        "model": {"b1": 0.5, "b2": 0.4, "b3": 1.0, "sigma": 0.4, "c": 1.0, "T": 1.0},
        "jumps": {"marks": [{"z": 1.0, "lambda": 1.0, "gamma": 0.3}]},
        "sim": {
            "particles": 500,
            "scenarios": 16,
            "dt": 1e-3,
            "seed": seed,
            "mode": "common",
            "init": {"kind": "gaussian", "mean": 1.0, "std": 0.5},
        },
        "verify": {},
        "output": {},
    }

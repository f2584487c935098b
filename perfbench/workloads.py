"""The benchmark's workloads: configs made from the seed, phases, work counts, checks.

A phase is one CLI subcommand, run in-process through ``mfcpoisson.cli.main``,
or one call sequence of the public API.  Every phase writes its output into
the round directory; the checks read the outputs of the first round.
"""
from __future__ import annotations

import contextlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import checks

#: the program seed of a run is BASE_SEED + the benchmark's --seed.
BASE_SEED = 20240901

MODEL = {"b1": 0.5, "b2": 0.4, "b3": 1.0, "sigma": 0.4, "c": 1.0, "T": 1.0}
JUMPS = {"marks": [{"z": 1.0, "lambda": 1.0, "gamma": 0.3}]}
INIT = {"kind": "gaussian", "mean": 1.0, "std": 0.5}
VERIFY = {
    "riccati_steps": 4096,
    "perturbations": [
        {"kind": "gain", "amount": 0.5},
        {"kind": "gain", "amount": 1.5},
        {"kind": "offset", "amount": 0.5},
        {"kind": "offset", "amount": -0.5},
    ],
    "chattering": {
        "support": [0.2, 0.8], "weights": [0.5, 0.5],
        "levels": [2, 4, 8, 16, 32], "sigma_factor": 5.0,
    },
    "noise_ratio_min": 5.0,
}

FM_ATOMS = 64


class PhaseError(RuntimeError):
    """A phase exited with a non-zero code."""


@dataclass
class Phase:
    name: str
    run: Callable
    #: untimed preparation; its result is passed to ``run``
    prepare: Optional[Callable] = None


def generated_config(seed: int, particles: int, scenarios: int, dt: float, mode: str) -> dict:
    return {
        "model": dict(MODEL),
        "jumps": json.loads(json.dumps(JUMPS)),
        "sim": {
            "particles": particles, "scenarios": scenarios, "dt": dt,
            "seed": BASE_SEED + seed, "mode": mode, "init": dict(INIT),
        },
        "verify": json.loads(json.dumps(VERIFY)),
        "output": {},
    }


def steps(cfg: dict, dt: float) -> int:
    return math.ceil(cfg["model"]["T"] / dt)


def cli_phase(name: str, *argv: str) -> Phase:
    def run(_):
        from mfcpoisson import cli

        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main(list(argv))
        if code != 0:
            raise PhaseError(f"{name} exited with code {code}")

    return Phase(name, run)


def write_pairings(config_path: Path, path: Path):
    """One-step weak-form law predictions along scenario 0, written as CSV."""
    from mfcpoisson import coefficients, config, experiments, lq, verify

    cfg = config.load_config(config_path)
    sol = lq.solve_riccati(cfg.params, cfg.mc.mode, cfg.mc.riccati_steps)
    cloud = verify.simulate_optimal(cfg.params, sol, cfg.mc, 0)
    rows = verify.pairing_table(cloud, coefficients.lq_coefficients(cfg.params))
    experiments.write_csv(
        path, cfg, checks.PAIRINGS_HEADER, rows,
        extra_comment="one-step weak-form predictions, scenario 0",
    )


def write_noise_modes(config_path: Path, path: Path):
    """The noise-mode comparison of ``compare-noise``, written whatever its verdict.

    The CLI exits 1 when the report fails, and the report fails whenever no
    common-noise scenario draws a jump (about e^-3 of seeds at 3 scenarios),
    so the verdict is left to ``checks.check_idiosyncratic``.
    """
    from mfcpoisson import config, experiments, verify

    cfg = config.load_config(config_path)
    report = verify.compare_noise_modes(
        cfg.params, cfg.mc, jump_ratio_min=float(cfg.verify["noise_ratio_min"]),
        config_hash=cfg.config_hash,
    )
    experiments.write_json(path, cfg, {"report": report.to_dict()})


def write_fm_distances(laws: list, seed: int, path: Path, n_atoms: int = FM_ATOMS):
    """FM distances between lattice-rounded subsamples of every pair of laws."""
    from mfcpoisson import measures

    rng = np.random.default_rng(seed)
    atoms = [
        checks.lattice_round(law[rng.choice(law.size, n_atoms, replace=False)])
        for law in laws
    ]
    weights = np.full(n_atoms, 1.0 / n_atoms)
    sub = [measures.EmpiricalMeasure(a, weights) for a in atoms]
    pairs = [
        (i, j, measures.fm_distance(sub[i], sub[j]))
        for i in range(len(sub)) for j in range(i + 1, len(sub))
    ]
    path.write_text(json.dumps({"atoms": [a.tolist() for a in atoms], "pairs": pairs}))


def load_json(path):
    return json.loads(Path(path).read_text())


class Workload:
    """Config files written into the run directory, phases, checks."""

    name = ""
    #: whether the pool phases run with POOL_WORKERS workers when untraced
    pooled = False

    def __init__(self, seed: int, run_dir: Path, root: Path):
        self.seed = seed
        self.root = root
        self.cfg = self.make_config(seed)
        self.config_path = run_dir / "config.json"
        self.config_path.write_text(json.dumps(self.cfg, indent=1))

    def make_config(self, seed: int) -> dict:
        raise NotImplementedError

    def phases(self, out: Path, workers: int) -> list:
        raise NotImplementedError

    def particle_steps(self) -> int:
        """Nominal particle-steps of one round, counted from the config."""
        raise NotImplementedError

    def checks(self, out: Path) -> list:
        """(needed output files, check returning failure messages) pairs."""
        raise NotImplementedError


class PairedMC(Workload):
    """Common noise; paired costs of the optimum, its perturbations and slab rules."""

    name = "paired-mc"
    pooled = True

    def make_config(self, seed):
        return generated_config(seed, 1000, 8, 1e-3, "common")

    def phases(self, out, workers):
        cfg = str(self.config_path)
        return [
            cli_phase("verify-optimality", "verify", "optimality", "--config", cfg,
                      "--out", str(out / "optimality.json")),
            cli_phase("chattering", "chattering", "--config", cfg,
                      "--out", str(out / "chattering.json"), "--threads", str(workers)),
            cli_phase("cost", "cost", "--config", cfg,
                      "--out", str(out / "cost.json"), "--threads", str(workers)),
        ]

    def particle_steps(self):
        sim, v = self.cfg["sim"], self.cfg["verify"]
        clouds = sim["scenarios"] * sim["particles"]
        m = steps(self.cfg, sim["dt"])
        optimality = clouds * (m * (1 + len(v["perturbations"])) + steps(self.cfg, 2 * sim["dt"]))
        chattering = clouds * m * (1 + len(v["chattering"]["levels"]))
        return optimality + chattering + clouds * m

    def checks(self, out):
        files = ("optimality.json", "chattering.json", "cost.json")
        return [(files, lambda: checks.check_paired_mc(
            self.cfg, *(load_json(out / f) for f in files)))]


class LawFlow(Workload):
    """lq_small: SMP/HJB/BSDE checks, trajectory writer, FP pairings, FM distances."""

    name = "law-flow"

    def make_config(self, seed):
        cfg = json.loads((self.root / "configs" / "lq_small.json").read_text())
        cfg["sim"]["seed"] = BASE_SEED + seed
        cfg["verify"]["smp_samples"] = 200
        return cfg

    def phases(self, out, workers):
        cfg = str(self.config_path)
        return [
            cli_phase("verify-smp", "verify", "smp", "--config", cfg, "--out", str(out / "smp.json")),
            cli_phase("verify-hjb", "verify", "hjb", "--config", cfg, "--out", str(out / "hjb.json")),
            cli_phase("verify-bsde", "verify", "bsde", "--config", cfg, "--out", str(out / "bsde.json")),
            cli_phase("simulate", "simulate", "--config", cfg,
                      "--out", str(out / "trajectories.csv")),
            Phase("fp-pairings", lambda _: write_pairings(self.config_path, out / "pairings.csv")),
            Phase(
                "fm-distance",
                lambda laws: write_fm_distances(laws, self.seed, out / "fm.json"),
                prepare=lambda: checks.terminal_states(out / "trajectories.csv"),
            ),
        ]

    def particle_steps(self):
        sim = self.cfg["sim"]
        cloud = sim["particles"] * steps(self.cfg, sim["dt"])
        # smp and fp-pairings simulate one scenario; bsde and simulate all of them
        return cloud * (2 + 2 * sim["scenarios"])

    def checks(self, out):
        def fm():
            data = load_json(out / "fm.json")
            atoms = data["atoms"]
            return checks.check_fm([(atoms[i], atoms[j], d) for i, j, d in data["pairs"]])

        def trajectory_and_pairings():
            data = checks.load_trajectory(out / "trajectories.csv")
            fails = checks.check_trajectory(self.cfg, data)
            if (out / "pairings.csv").exists():
                fails += checks.check_pairings(
                    self.cfg, checks.load_pairings(out / "pairings.csv"), data
                )
            return fails

        reports = [
            ((f"{k}.json",), lambda k=k: checks.report_passes(
                f"verify {k}", load_json(out / f"{k}.json")))
            for k in ("smp", "hjb", "bsde")
        ]
        return reports + [
            (("trajectories.csv",), trajectory_and_pairings),
            (("fm.json",), fm),
        ]


class Idiosyncratic(Workload):
    """Per-particle jumps: every particle's jump time becomes a grid node."""

    name = "idiosyncratic"

    def make_config(self, seed):
        return generated_config(seed, 3000, 3, 1e-3, "idiosyncratic")

    def phases(self, out, workers):
        cfg = str(self.config_path)
        return [
            Phase("compare-noise", lambda _: write_noise_modes(self.config_path, out / "noise.json")),
            cli_phase("cost", "cost", "--config", cfg, "--out", str(out / "cost.json")),
        ]

    def particle_steps(self):
        sim = self.cfg["sim"]
        cloud = sim["particles"] * steps(self.cfg, sim["dt"])
        # compare-noise simulates every scenario in both modes, cost once more
        return cloud * sim["scenarios"] * 3

    def checks(self, out):
        files = ("noise.json", "cost.json")
        return [(files, lambda: checks.check_idiosyncratic(
            self.cfg, *(load_json(out / f) for f in files)))]


WORKLOADS = {w.name: w for w in (PairedMC, LawFlow, Idiosyncratic)}

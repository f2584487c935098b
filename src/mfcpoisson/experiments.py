"""Experiment drivers: wire a validated config into solvers, checks and files.

Scenario-level work (cost estimation, chattering studies) can fan out over a
process pool; workers rebuild everything from the raw config dictionary, and
results are keyed by scenario index, so the output does not depend on worker
count or execution order.
"""
from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .coefficients import lq_coefficients
from .config import ConfigError, ExperimentConfig, parse_config
from .lq import solve_riccati
from .simulate import RelaxedRule, chattering, simulate_cost
from .verify import (
    CheckReport,
    chattering_report,
    check_bsde,
    check_fp,
    check_hjb,
    check_optimality,
    check_smp,
    compare_noise_modes,
    hjb_sample_measures,
    optimal_feedback_rule,
    pairing_table,
    simulate_optimal,
)

VERIFY_KINDS = ("smp", "bsde", "hjb", "fp", "optimality", "noise")


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _provenance(cfg: ExperimentConfig) -> str:
    return f"mfcpoisson {__version__} config_hash={cfg.config_hash}"


def write_csv(path, cfg: ExperimentConfig, header, rows, extra_comment=""):
    lines = [f"# {_provenance(cfg)}"]
    if extra_comment:
        lines.append(f"# {extra_comment}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(
            ",".join(
                format(v, ".17g") if isinstance(v, (float, np.floating)) else str(v)
                for v in row
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_json(path, cfg: ExperimentConfig, payload: dict):
    body = {"version": __version__, "config_hash": cfg.config_hash}
    body.update(payload)
    Path(path).write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Scenario cost tasks (picklable for the worker pool)
# ---------------------------------------------------------------------------

def _relaxed_rule_from_config(cfg: ExperimentConfig) -> RelaxedRule:
    chat = cfg.verify["chattering"]
    return RelaxedRule.constant(
        np.asarray(chat["support"], dtype=float),
        np.asarray(chat["weights"], dtype=float),
    )


def scenario_cost(raw_config: dict, variant: tuple, scenario: int) -> float:
    """Cost of one scenario under one control variant (rebuilt from raw config)."""
    cfg = parse_config(raw_config)
    params, mc = cfg.params, cfg.mc
    kind = variant[0]
    if kind == "optimal":
        rule = optimal_feedback_rule(solve_riccati(params, mc.mode, mc.riccati_steps))
    elif kind == "relaxed":
        rule = _relaxed_rule_from_config(cfg)
    elif kind == "chatter":
        rule = chattering(_relaxed_rule_from_config(cfg), int(variant[1]), params.T)
    else:
        raise ValueError(f"unknown cost variant {variant!r}")
    return simulate_cost(
        lq_coefficients(params), rule, mc.particles, params.T, mc.dt,
        mode=mc.mode, seed=mc.seed, scenario=scenario, init=mc.init,
    )


def _cost_task(args):
    raw, variant, scenario = args
    return scenario_cost(raw, variant, scenario)


def run_cost_tasks(cfg: ExperimentConfig, tasks: list, threads: int) -> list:
    """Evaluate (variant, scenario) cost tasks, optionally on a process pool."""
    args = [(cfg.raw, variant, scenario) for variant, scenario in tasks]
    if threads <= 1 or len(args) <= 1:
        return [_cost_task(a) for a in args]
    with ProcessPoolExecutor(max_workers=min(threads, len(args))) as pool:
        return list(pool.map(_cost_task, args, chunksize=1))


# ---------------------------------------------------------------------------
# Subcommand drivers: each returns (exit_code, summary line)
# ---------------------------------------------------------------------------

def run_riccati(cfg: ExperimentConfig, out: str):
    sol = solve_riccati(cfg.params, cfg.mc.mode, cfg.mc.riccati_steps)
    rows = [(float(t), float(b), float(e)) for t, b, e in zip(sol.ts, sol.beta, sol.eta)]
    write_csv(out, cfg, ["t", "beta", "eta"], rows, extra_comment=f"mode={cfg.mc.mode}")
    return 0, f"riccati: {len(rows)} nodes -> {out}"


def run_simulate(cfg: ExperimentConfig, out: str):
    params, mc = cfg.params, cfg.mc
    sol = solve_riccati(params, mc.mode, mc.riccati_steps)
    rows = []
    for scenario in range(mc.scenarios):
        cloud = simulate_optimal(params, sol, mc, scenario)
        n_steps = cloud.grid.n_steps
        for k, t in enumerate(cloud.times):
            controls = cloud.controls[min(k, n_steps - 1)]
            for i in range(cloud.n_particles):
                rows.append(
                    (scenario, i, float(t), float(cloud.states[k, i]), float(controls[i]))
                )
    write_csv(
        out, cfg,
        ["scenario", "particle", "time", "state", "control"],
        rows,
        extra_comment="control column holds the value applied on the step starting at `time`",
    )
    return 0, f"simulate: {len(rows)} rows -> {out}"


def run_cost(cfg: ExperimentConfig, out: str, threads: int = 1):
    tasks = [(("optimal",), s) for s in range(cfg.mc.scenarios)]
    costs = np.array(run_cost_tasks(cfg, tasks, threads))
    stderr = (
        float(costs.std(ddof=1) / np.sqrt(len(costs))) if len(costs) > 1 else 0.0
    )
    payload = {
        "mean": float(costs.mean()),
        "std_error": stderr,
        "scenarios": int(cfg.mc.scenarios),
        "per_scenario": [float(c) for c in costs],
    }
    if out:
        write_json(out, cfg, payload)
    return 0, f"cost: {payload['mean']:.6g} +/- {stderr:.2g}"


def run_chattering(cfg: ExperimentConfig, out: str, threads: int = 1):
    chat = cfg.verify["chattering"]
    levels = [int(n) for n in chat["levels"]]
    scenarios = range(cfg.mc.scenarios)
    tasks = [(("relaxed",), s) for s in scenarios]
    for n in levels:
        tasks.extend((("chatter", n), s) for s in scenarios)
    flat = run_cost_tasks(cfg, tasks, threads)
    n_s = cfg.mc.scenarios
    relaxed_costs = np.array(flat[:n_s])
    costs_by_level = [
        np.array(flat[n_s * (1 + i) : n_s * (2 + i)]) for i in range(len(levels))
    ]
    report = chattering_report(
        levels, relaxed_costs, costs_by_level,
        float(chat["sigma_factor"]), cfg.mc.seed, cfg.config_hash,
    )
    if out:
        write_json(out, cfg, {"report": report.to_dict()})
    return (0 if report.passed else 1), _report_line(report)


def _report_line(report: CheckReport) -> str:
    flag = "PASS" if report.passed else ("INCONCLUSIVE" if report.inconclusive else "FAIL")
    return f"{report.name}: {flag}"


def run_verify(kind: str, cfg: ExperimentConfig, out: str, threads: int = 1):
    params, mc = cfg.params, cfg.mc
    if kind not in VERIFY_KINDS:
        raise ConfigError(f"unknown verify kind {kind!r}; choose from {VERIFY_KINDS}")
    try:
        if kind == "smp":
            sol = solve_riccati(params, mc.mode, mc.riccati_steps)
            cloud = simulate_optimal(params, sol, mc, scenario=0)
            report = check_smp(
                cloud, sol, cfg.u_grid, cfg.tolerance("smp"),
                n_samples=int(cfg.verify["smp_samples"]),
                sample_seed=mc.seed, config_hash=cfg.config_hash,
            )
        elif kind == "bsde":
            sol = solve_riccati(params, mc.mode, mc.riccati_steps)
            clouds = [
                simulate_optimal(params, sol, mc, scenario=s)
                for s in range(mc.scenarios)
            ]
            report = check_bsde(
                clouds, sol, cfg.tolerance("bsde"), config_hash=cfg.config_hash
            )
        elif kind == "hjb":
            sol = solve_riccati(params, "common", mc.riccati_steps)
            tol = cfg.tolerance("hjb")
            if tol is None:
                tol = 1e-6 + 10.0 * sol.midpoint_residual()
            samples = hjb_sample_measures(
                sol, int(cfg.verify["hjb_samples"]),
                int(cfg.verify["hjb_max_atoms"]), seed=mc.seed,
            )
            report = check_hjb(
                sol, samples, tol, seed=mc.seed, config_hash=cfg.config_hash
            )
        elif kind == "fp":
            report = check_fp(
                params, mc, ratio_band=tuple(cfg.verify["fp_ratio_band"]),
                config_hash=cfg.config_hash,
            )
            table_path = cfg.output.get("fp_pairings")
            if table_path:
                sol = solve_riccati(params, mc.mode, mc.riccati_steps)
                cloud = simulate_optimal(params, sol, mc, scenario=0)
                rows = pairing_table(cloud, lq_coefficients(params))
                write_csv(
                    table_path, cfg,
                    ["step", "phi", "predicted", "observed", "residual"], rows,
                    extra_comment="one-step weak-form predictions, scenario 0",
                )
        elif kind == "optimality":
            report = check_optimality(
                params, cfg.perturbations, mc, config_hash=cfg.config_hash
            )
        else:  # noise
            report = compare_noise_modes(
                params, mc, jump_ratio_min=float(cfg.verify["noise_ratio_min"]),
                config_hash=cfg.config_hash,
            )
    except ValueError as err:
        raise ConfigError(str(err)) from err
    if out:
        write_json(out, cfg, {"report": report.to_dict()})
    return (0 if report.passed else 1), _report_line(report)

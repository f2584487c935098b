"""Experiment drivers: wire a validated config into solvers, checks and files.

Scenario-level work fans out through :func:`simulate.map_scenarios`, whose
results come back in scenario order, so the output does not depend on
``--threads``.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import __version__
from .coefficients import lq_coefficients
from .config import ConfigError, ExperimentConfig
from .lq import solve_riccati
from .simulate import RelaxedRule, map_scenarios, standard_error
from .verify import (
    CheckReport,
    check_bsde,
    check_chattering,
    check_fp,
    check_hjb,
    check_optimality,
    check_smp,
    compare_noise_modes,
    hjb_sample_measures,
    optimal_feedback_rule,
    pairing_table,
    scenario_costs,
    simulate_optimal,
)

VERIFY_KINDS = ("smp", "bsde", "hjb", "fp", "optimality", "noise")


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _provenance(cfg: ExperimentConfig) -> str:
    return f"mfcpoisson {__version__} config_hash={cfg.config_hash}"


def _quoted(text: str) -> str:
    """A CSV string field, quoted when it holds a comma, quote or newline."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path, cfg: ExperimentConfig, header, rows, extra_comment="") -> int:
    """Write ``rows`` (any iterable) as they come; returns the row count.

    A row is a tuple of values, formatted one by one (floats as ``.17g``),
    or a ``str`` of whole lines already formatted that way, such as the
    trajectory writer's block of one grid node.
    """
    n_rows = 0
    with open(path, "w") as fh:
        fh.write(f"# {_provenance(cfg)}\n")
        if extra_comment:
            fh.write(f"# {extra_comment}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            if isinstance(row, str):
                fh.write(row)
                n_rows += row.count("\n")
            else:
                fh.write(",".join(
                    format(v, ".17g") if isinstance(v, (float, np.floating))
                    else _quoted(v) if isinstance(v, str) else str(v)
                    for v in row
                ) + "\n")
                n_rows += 1
    return n_rows


def write_json(path, cfg: ExperimentConfig, payload: dict):
    body = {"version": __version__, "config_hash": cfg.config_hash}
    body.update(payload)
    Path(path).write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Subcommand drivers: each returns (exit_code, summary line)
# ---------------------------------------------------------------------------

def run_riccati(cfg: ExperimentConfig, out: str):
    sol = solve_riccati(cfg.params, cfg.mc.mode, cfg.mc.riccati_steps)
    rows = [(float(t), float(b), float(e)) for t, b, e in zip(sol.ts, sol.beta, sol.eta)]
    write_csv(out, cfg, ["t", "beta", "eta"], rows, extra_comment=f"mode={cfg.mc.mode}")
    return 0, f"riccati: {len(rows)} nodes -> {out}"


def _trajectory_blocks(cfg: ExperimentConfig):
    """Trajectory CSV text, one string per grid node of one scenario.

    One scenario's cloud is in memory at a time.  A node's rows come from
    one ``%`` format of the scenario's template, its ``scenario,particle,``
    prefixes written once; ``"%.17g" % v`` of a Python float is
    ``format(v, ".17g")``, so the bytes are those of row-by-row writing.
    """
    params, mc = cfg.params, cfg.mc
    sol = solve_riccati(params, mc.mode, mc.riccati_steps)
    n = mc.particles
    values = [None] * (3 * n)
    for scenario in range(mc.scenarios):
        cloud = simulate_optimal(params, sol, mc, scenario)
        template = "".join(f"{scenario},{i},%s,%.17g,%.17g\n" for i in range(n))
        last_step = cloud.grid.n_steps - 1
        for k, t in enumerate(cloud.times.tolist()):
            values[0::3] = [format(t, ".17g")] * n
            values[1::3] = cloud.states[k].tolist()
            values[2::3] = cloud.controls[min(k, last_step)].tolist()
            yield template % tuple(values)


def run_simulate(cfg: ExperimentConfig, out: str):
    n_rows = write_csv(
        out, cfg,
        ["scenario", "particle", "time", "state", "control"],
        _trajectory_blocks(cfg),
        extra_comment="control column holds the value applied on the step starting at `time`",
    )
    return 0, f"simulate: {n_rows} rows -> {out}"


def run_cost(cfg: ExperimentConfig, out: str, threads: int = 1):
    params, mc = cfg.params, cfg.mc
    coeffs = lq_coefficients(params)
    rule = optimal_feedback_rule(solve_riccati(params, mc.mode, mc.riccati_steps))
    costs = np.array(map_scenarios(
        lambda s: scenario_costs(coeffs, [rule], params.T, mc, s)[0],
        mc.scenarios, threads,
    ))
    payload = {
        "mean": float(costs.mean()),
        "std_error": standard_error(costs),
        "scenarios": int(cfg.mc.scenarios),
        "per_scenario": [float(c) for c in costs],
    }
    if out:
        write_json(out, cfg, payload)
    return 0, f"cost: {payload['mean']:.6g} +/- {payload['std_error']:.2g}"


def run_chattering(cfg: ExperimentConfig, out: str, threads: int = 1):
    chat = cfg.verify["chattering"]
    report = check_chattering(
        lq_coefficients(cfg.params),
        RelaxedRule.constant(chat["support"], chat["weights"]),
        cfg.params.T, cfg.mc,
        levels=[int(n) for n in chat["levels"]],
        sigma_factor=float(chat["sigma_factor"]),
        config_hash=cfg.config_hash,
        workers=threads,
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
            # one cloud at a time: check_bsde lets each go before the next
            clouds = (
                simulate_optimal(params, sol, mc, scenario=s)
                for s in range(mc.scenarios)
            )
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
                config_hash=cfg.config_hash, workers=threads,
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
                params, cfg.perturbations, mc, config_hash=cfg.config_hash,
                workers=threads,
            )
        else:  # noise
            report = compare_noise_modes(
                params, mc, jump_ratio_min=float(cfg.verify["noise_ratio_min"]),
                config_hash=cfg.config_hash, workers=threads,
            )
    except ValueError as err:
        raise ConfigError(str(err)) from err
    if out:
        write_json(out, cfg, {"report": report.to_dict()})
    return (0 if report.passed else 1), _report_line(report)

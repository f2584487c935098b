"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Every check must accept a correct output and reject a corrupted one: a cost
shifted by 10 standard errors, an FM distance off by 1e-3, a control column
off by 1e-3 and a failed report flag.  The law-flow outputs are real ones,
made by the program on a tiny config; the JSON reports are synthetic, built
around the reference value.  It also checks that BENCHMARK.json names
exactly the metrics the benchmark prints.  Exits 0 when every case behaves.
"""
from __future__ import annotations

import contextlib
import copy
import json
import os
import shutil
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

RESULTS = []


def expect(label: str, fails: list, should_fail: bool):
    ok = bool(fails) == should_fail
    RESULTS.append(ok)
    verdict = "rejected" if fails else "accepted"
    print(f"{'ok ' if ok else 'BAD'} {label}: {verdict}")


def report(passed: bool, **stats) -> dict:
    return {"report": {"name": "x", "passed": passed, "stats": stats}}


def paired_mc_cases():
    cfg = workloads.generated_config(0, 1000, 8, 1e-3, "common")
    value = checks.LQReference(cfg, "common").value(*checks.init_moments(cfg))
    cost_opt = value + 0.004
    optimality = report(True, value_function=value, cost_optimal=cost_opt)
    chattering = report(True, gaps=[0.02, 0.01, 0.004], gap_sigmas=[0.004, 0.003, 0.003])
    cost = {"mean": cost_opt, "std_error": 0.015}
    expect("paired-mc clean", checks.check_paired_mc(cfg, optimality, chattering, cost), False)

    shifted = dict(cost, mean=cost_opt + 10 * cost["std_error"])
    expect("paired-mc cost +10 SE", checks.check_paired_mc(cfg, optimality, chattering, shifted), True)
    for label, bad in (("optimality", optimality), ("chattering", chattering)):
        flipped = copy.deepcopy(bad)
        flipped["report"]["passed"] = False
        args = (flipped, chattering) if label == "optimality" else (optimality, flipped)
        expect(f"paired-mc {label} report flag", checks.check_paired_mc(cfg, *args, cost), True)
    off = copy.deepcopy(optimality)
    off["report"]["stats"]["value_function"] += 1e-5
    expect("paired-mc value_function +1e-5", checks.check_paired_mc(cfg, off, chattering, cost), True)
    worse = report(True, gaps=[0.01, 0.01, 0.05], gap_sigmas=[0.004, 0.003, 0.003])
    expect("paired-mc finest gap above coarsest", checks.check_paired_mc(cfg, optimality, worse, cost), True)


def idiosyncratic_cases():
    cfg = workloads.generated_config(0, 3000, 3, 1e-3, "idiosyncratic")
    value = checks.LQReference(cfg, "idiosyncratic").value(*checks.init_moments(cfg))
    noise = report(True, jump_ratio=1500.0, riccati_gap_no_jumps=0.0, mean_jump_common=0.04,
                   mean_jump_idiosyncratic=2.7e-5, event_increment_ratio_common=40.0)
    se = 0.0023  # the median reported standard error over seeds 0-9
    cost = {"mean": value + se, "std_error": se}
    expect("idiosyncratic clean", checks.check_idiosyncratic(cfg, noise, cost), False)
    shifted = dict(cost, mean=value + 10 * se)
    expect("idiosyncratic cost +10 SE", checks.check_idiosyncratic(cfg, noise, shifted), True)
    flipped = copy.deepcopy(noise)
    flipped["report"]["passed"] = False
    expect("idiosyncratic report flag", checks.check_idiosyncratic(cfg, flipped, cost), True)
    weak = copy.deepcopy(noise)
    weak["report"]["stats"]["jump_ratio"] = 4.0
    expect("idiosyncratic jump ratio 4", checks.check_idiosyncratic(cfg, weak, cost), True)
    # no common-noise jump drawn: the program fails the report, the ratio is not judged
    quiet = report(False, jump_ratio=0.0, riccati_gap_no_jumps=0.0, mean_jump_common=0.0,
                   mean_jump_idiosyncratic=2.7e-5, event_increment_ratio_common=float("nan"))
    expect("idiosyncratic no common jump", checks.check_idiosyncratic(cfg, quiet, cost), False)
    gap = copy.deepcopy(quiet)
    gap["report"]["stats"]["riccati_gap_no_jumps"] = 1e-6
    expect("idiosyncratic no common jump, Riccati gap 1e-6",
           checks.check_idiosyncratic(cfg, gap, cost), True)
    none = copy.deepcopy(noise)
    none["report"]["stats"]["mean_jump_idiosyncratic"] = 0.0
    expect("idiosyncratic no per-particle jump", checks.check_idiosyncratic(cfg, none, cost), True)


def law_flow_cases(work: Path):
    """Real outputs of the program on a tiny common-noise config."""
    from mfcpoisson import cli

    cfg = workloads.generated_config(0, 24, 3, 0.02, "common")
    config_path = work / "config.json"
    config_path.write_text(json.dumps(cfg))
    traj_path = work / "trajectories.csv"
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.main(["simulate", "--config", str(config_path), "--out", str(traj_path)])
    if code != 0:
        raise RuntimeError(f"simulate exited with code {code} on the self-test config")
    workloads.write_pairings(config_path, work / "pairings.csv")
    workloads.write_fm_distances(checks.terminal_states(traj_path), 0, work / "fm.json", 16)

    data = checks.load_trajectory(traj_path)
    pairings = checks.load_pairings(work / "pairings.csv")
    expect("trajectory clean", checks.check_trajectory(cfg, data), False)
    expect("pairings clean", checks.check_pairings(cfg, pairings, data), False)
    bad = data.copy()
    bad[len(bad) // 2, 4] += 1e-3
    expect("trajectory control +1e-3", checks.check_trajectory(cfg, bad), True)
    expect("trajectory row missing", checks.check_trajectory(cfg, data[1:]), True)
    steps, names, vals = pairings
    shifted = vals.copy()
    shifted[names.index("x^1") + len(set(names)) * 3, 0] += 1e-6
    expect("pairings x^1 prediction +1e-6", checks.check_pairings(cfg, (steps, names, shifted), data), True)

    fm = json.loads((work / "fm.json").read_text())
    triples = [(fm["atoms"][i], fm["atoms"][j], d) for i, j, d in fm["pairs"]]
    expect("fm clean", checks.check_fm(triples), False)
    a, b, d = triples[0]
    expect("fm distance +1e-3", checks.check_fm([(a, b, d + 1e-3)] + triples[1:]), True)
    expect("smp report flag", checks.report_passes("verify smp", report(False)), True)


def benchmark_json_cases():
    import run
    import tracing

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    expect("end_to_end names and units", [] if e2e == run.END_TO_END else [e2e], False)
    names = set(tracing.Tracer().metrics()) | {"trace.wall_s", "trace.untraced_wall_s",
                                               "trace.overhead_s"}
    listed = {m["name"] for m in spec["per_layer"]}
    expect("per_layer names", sorted(names ^ listed), False)
    expect("workload names", sorted(set(workloads.WORKLOADS) ^ {w["name"] for w in spec["workloads"]}), False)


def main() -> int:
    work = HERE / "out" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        paired_mc_cases()
        idiosyncratic_cases()
        law_flow_cases(work)
        benchmark_json_cases()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{sum(RESULTS)}/{len(RESULTS)} cases behaved")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Print the cost of one Euler step of the lock-step simulation loop.

    python3 tools/step_cost.py [--steps 200] [--repeats 5]

For R = 1 rule (the optimal feedback) and R = 5 paired rules (the optimum
and its gain 0.5 / 1.5 and offset +-0.5 perturbations, the rules of the
paired-mc benchmark workload) it times ``simulate_records`` on S
common-noise scenarios of the benchmark's model (b1 = 0.5, b2 = 0.4,
b3 = 1, sigma = 0.4, c = 1, T = 1, one jump mark with lambda = 1 and
gamma = 0.3):

* S = 1 at N = 10, 1,000, 2,000 and 20,000 particles;
* S = 2, 3, 4 and 8 at N = 1,000, the scenarios-per-call axis: a block of
  S scenarios runs as the rows of lock-step batches of at most
  ``simulate.BATCH_FLOATS`` floats.

It prints microseconds per grid step of the uniform grid (the whole block),
microseconds per row-step (one rule on one scenario over one step),
nanoseconds per particle-step, and minor page faults per step, read from
``getrusage(RUSAGE_SELF).ru_minflt`` around each run.  Time and faults are
those of the fastest of ``--repeats`` runs, which is the least disturbed by
other load on the host.  At N = 10 the step is nearly all fixed cost: numpy
calls and Python glue that do not grow with N.

Then, for idiosyncratic noise at the cell of the idiosyncratic benchmark
workload (R = 1, S = 3, N = 3,000, lambda = 1), it prints the same columns
for the Euler loop alone, run on scenarios whose events were drawn before
the clock started, and the milliseconds to draw one scenario's per-particle
events (fastest of ``--repeats`` draws).

The program is imported from this checkout's ``src/``.  Nothing is written.
"""
from __future__ import annotations

import argparse
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mfcpoisson import InitSpec, JumpSpec, LQParams, lq_coefficients, simulate_records  # noqa: E402
from mfcpoisson import simulate  # noqa: E402
from mfcpoisson.lq import solve_riccati  # noqa: E402
from mfcpoisson.verify import Perturbation, optimal_feedback_rule  # noqa: E402

#: (scenarios, particles) cells, run for R = 1 and R = 5
CELLS = [(1, 10), (1, 1_000), (1, 2_000), (1, 20_000), (2, 1_000), (3, 1_000), (4, 1_000), (8, 1_000)]
PERTURBATIONS = [("gain", 0.5), ("gain", 1.5), ("offset", 0.5), ("offset", -0.5)]
#: (scenarios, particles) of the idiosyncratic benchmark workload, run for R = 1
IDIOSYNCRATIC_CELL = (3, 3_000)
INIT = InitSpec("gaussian", 1.0, 0.5)


def rule_sets(sol) -> dict:
    optimal = optimal_feedback_rule(sol)
    return {
        1: [optimal],
        5: [optimal] + [Perturbation(kind, amount).wrap(sol) for kind, amount in PERTURBATIONS],
    }


def fastest(run, repeats: int):
    """Seconds and minor faults of the fastest of ``repeats`` calls of ``run``."""
    best = (float("inf"), 0)
    for _ in range(repeats):
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        run()
        seconds = time.perf_counter() - start
        best = min(best, (seconds, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults))
    return best


def step_cost(coeffs, rules, n_scenarios: int, n: int, T: float, steps: int, repeats: int):
    """Seconds and minor faults per uniform grid step of the fastest common-noise run."""
    seconds, faults = fastest(lambda: simulate_records(
        coeffs, rules, n, T, T / steps, mode="common", seed=1,
        scenarios=range(n_scenarios), init=INIT,
    ), repeats)
    return seconds / steps, faults / steps


def idiosyncratic_step_cost(coeffs, rules, n_scenarios: int, n: int, T: float, steps: int,
                            repeats: int):
    """Seconds and minor faults per uniform grid step of the fastest
    idiosyncratic Euler loop, with every scenario's events drawn beforehand."""
    scenarios = [
        simulate._Scenario(coeffs.jumps, n, T, T / steps, "idiosyncratic", 1, s, None, None)
        for s in range(n_scenarios)
    ]
    seconds, faults = fastest(
        lambda: simulate._run(coeffs, rules, n, INIT, scenarios, history=False), repeats
    )
    return seconds / steps, faults / steps


def print_row(n_rules: int, n_scenarios: int, n: int, seconds: float, faults: float):
    row_steps = n_rules * n_scenarios
    print(f"{n_rules:>2} {n_scenarios:>2} {n:>7} {seconds * 1e6:>9.1f} "
          f"{seconds * 1e6 / row_steps:>12.1f} {seconds * 1e9 / (row_steps * n):>17.2f} "
          f"{faults:>12.2f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=200, help="uniform grid steps per run")
    parser.add_argument("--repeats", type=int, default=5, help="runs per cell; the fastest counts")
    args = parser.parse_args(argv)

    params = LQParams(
        b1=0.5, b2=0.4, b3=1.0, sigma=0.4, c=1.0, T=1.0, jumps=JumpSpec([1.0], [1.0], [0.3])
    )
    coeffs = lq_coefficients(params)
    sets = rule_sets(solve_riccati(params, "common", 4096))
    print(f"{'R':>2} {'S':>2} {'N':>7} {'us/step':>9} {'us/row-step':>12} "
          f"{'ns/particle-step':>17} {'faults/step':>12}")
    for n_rules, rules in sets.items():
        for n_scenarios, n in CELLS:
            print_row(n_rules, n_scenarios, n, *step_cost(
                coeffs, rules, n_scenarios, n, params.T, args.steps, args.repeats
            ))

    n_scenarios, n = IDIOSYNCRATIC_CELL
    rules = [optimal_feedback_rule(solve_riccati(params, "idiosyncratic", 4096))]
    print("idiosyncratic noise, the Euler loop alone:")
    print_row(1, n_scenarios, n, *idiosyncratic_step_cost(
        coeffs, rules, n_scenarios, n, params.T, args.steps, args.repeats
    ))
    seconds, _ = fastest(lambda: simulate._draw_events(
        params.jumps, params.T, n, simulate.substream(1, 0, "poisson")
    ), args.repeats)
    print(f"per-particle event draw of one scenario, N = {n}: {seconds * 1e3:.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())

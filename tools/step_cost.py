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
from mfcpoisson.lq import solve_riccati  # noqa: E402
from mfcpoisson.verify import Perturbation, optimal_feedback_rule  # noqa: E402

#: (scenarios, particles) cells, run for R = 1 and R = 5
CELLS = [(1, 10), (1, 1_000), (1, 2_000), (1, 20_000), (2, 1_000), (3, 1_000), (4, 1_000), (8, 1_000)]
PERTURBATIONS = [("gain", 0.5), ("gain", 1.5), ("offset", 0.5), ("offset", -0.5)]


def rule_sets(sol) -> dict:
    optimal = optimal_feedback_rule(sol)
    return {
        1: [optimal],
        5: [optimal] + [Perturbation(kind, amount).wrap(sol) for kind, amount in PERTURBATIONS],
    }


def step_cost(coeffs, rules, n_scenarios: int, n: int, T: float, steps: int, repeats: int):
    """Seconds and minor faults per uniform grid step of the fastest run."""
    best = (float("inf"), 0)
    for _ in range(repeats):
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        simulate_records(
            coeffs, rules, n, T, T / steps, mode="common", seed=1,
            scenarios=range(n_scenarios), init=InitSpec("gaussian", 1.0, 0.5),
        )
        seconds = time.perf_counter() - start
        best = min(best, (seconds, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults))
    return best[0] / steps, best[1] / steps


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
            seconds, faults = step_cost(
                coeffs, rules, n_scenarios, n, params.T, args.steps, args.repeats
            )
            row_steps = n_rules * n_scenarios
            print(f"{n_rules:>2} {n_scenarios:>2} {n:>7} {seconds * 1e6:>9.1f} "
                  f"{seconds * 1e6 / row_steps:>12.1f} {seconds * 1e9 / (row_steps * n):>17.2f} "
                  f"{faults:>12.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

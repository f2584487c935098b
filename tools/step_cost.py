"""Print the cost of one Euler step of the lock-step simulation loop.

    python3 tools/step_cost.py [--steps 200] [--repeats 5]

For R = 1 rule (the optimal feedback) and R = 5 paired rules (the optimum
and its gain 0.5 / 1.5 and offset +-0.5 perturbations, the rules of the
paired-mc benchmark workload), at N = 10, 1,000, 2,000 and 20,000
particles, it times ``simulate_record`` on one common-noise scenario of the
benchmark's model (b1 = 0.5, b2 = 0.4, b3 = 1, sigma = 0.4, c = 1, T = 1,
one jump mark with lambda = 1 and gamma = 0.3) and prints microseconds per
grid step and nanoseconds per particle-step (one particle of one row over
one step).  Each figure is the fastest of ``--repeats`` runs, which is the
least disturbed by other load on the host.  At N = 10 the step is nearly
all fixed cost: numpy calls and Python glue that do not grow with N.

The program is imported from this checkout's ``src/``.  Nothing is written.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mfcpoisson import InitSpec, JumpSpec, LQParams, lq_coefficients, simulate_record  # noqa: E402
from mfcpoisson.lq import solve_riccati  # noqa: E402
from mfcpoisson.verify import Perturbation, optimal_feedback_rule  # noqa: E402

PARTICLES = (10, 1_000, 2_000, 20_000)
PERTURBATIONS = [("gain", 0.5), ("gain", 1.5), ("offset", 0.5), ("offset", -0.5)]


def rule_sets(sol) -> dict:
    optimal = optimal_feedback_rule(sol)
    return {
        1: [optimal],
        5: [optimal] + [Perturbation(kind, amount).wrap(sol) for kind, amount in PERTURBATIONS],
    }


def step_seconds(coeffs, rules, n: int, T: float, steps: int, repeats: int) -> float:
    """Fastest wall time of one ``simulate_record`` run over its grid steps."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        record = simulate_record(
            coeffs, rules, n, T, T / steps, mode="common", seed=1, scenario=0,
            init=InitSpec("gaussian", 1.0, 0.5),
        )
        best = min(best, time.perf_counter() - start)
    return best / (record.means.shape[0] - 1)


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
    print(f"{'R':>2} {'N':>7} {'us/step':>9} {'ns/particle-step':>17}")
    for n_rules, rules in sets.items():
        for n in PARTICLES:
            seconds = step_seconds(coeffs, rules, n, params.T, args.steps, args.repeats)
            print(f"{n_rules:>2} {n:>7} {seconds * 1e6:>9.1f} {seconds * 1e9 / (n_rules * n):>17.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

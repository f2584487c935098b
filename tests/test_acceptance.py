"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every criterion states its tolerance and a wall-clock budget; both are
asserted.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines and timings.
"""
import time

import numpy as np

from mfcpoisson.coefficients import CoefficientSet, JumpSpec, LQParams, lq_coefficients
from mfcpoisson.lq import solve_riccati
from mfcpoisson.measureflow import (
    RelaxedKernel,
    apply_A1,
    default_dictionary,
    shift_adjoint,
)
from mfcpoisson.measures import EmpiricalMeasure, fm_distance
from mfcpoisson.simulate import InitSpec, RelaxedRule
from mfcpoisson.verify import (
    MonteCarloSettings,
    Perturbation,
    check_bsde,
    check_chattering,
    check_fp,
    check_hjb,
    check_optimality,
    check_smp,
    compare_noise_modes,
    hjb_sample_measures,
    simulate_optimal,
)

from _oracles import FM_LATTICE, apply_shift, fm_bruteforce_1d
from conftest import random_measure

SEED = 20240901

BASE_PARAMS = LQParams(
    b1=0.5, b2=0.4, b3=1.0, sigma=0.4, c=1.0, T=1.0,
    jumps=JumpSpec([1.0], [1.0], [0.3]),
)
BASE_INIT = InitSpec("gaussian", 1.0, 0.5)


def _criterion(num, name, limit, fn):
    start = time.perf_counter()
    ok, detail = fn()
    elapsed = time.perf_counter() - start
    in_time = elapsed < limit
    status = "PASS" if (ok and in_time) else "FAIL"
    print(
        f"criterion {num:2d} [{name}]: {status} "
        f"({elapsed:.1f}s / limit {limit:.0f}s) {detail}"
    )
    assert ok, f"criterion {num}: {detail}"
    assert in_time, f"criterion {num}: runtime {elapsed:.1f}s exceeds {limit:.0f}s"


def test_criterion_1_riccati_closed_forms():
    def run():
        p1 = LQParams(b1=0.0, b2=0.0, b3=1.0, sigma=0.0, c=1.0, T=1.0)
        sol1 = solve_riccati(p1, "common", 2048)
        err1 = abs(sol1.beta[0] - 0.5)
        p2 = LQParams(b1=0.0, b2=0.0, b3=0.0, sigma=1.0, c=1.0, T=1.0)
        sol2 = solve_riccati(p2, "common", 2048)
        err2 = abs(sol2.beta[0] - np.e)
        ok = err1 < 1e-8 and err2 < 1e-8
        return ok, f"|beta0 - 1/2| = {err1:.2e}, |beta0 - e| = {err2:.2e}"

    _criterion(1, "riccati closed forms", 1.0, run)


def test_criterion_2_sigma_zero_identity():
    def run():
        gen = np.random.default_rng(SEED)
        worst = 0.0
        for _ in range(5):
            params = LQParams(
                b1=float(gen.uniform(-1.5, 1.5)),
                b2=float(gen.uniform(-1.5, 1.5)),
                b3=float(gen.uniform(-1.5, 1.5)),
                sigma=0.0,
                c=float(gen.uniform(0.1, 2.0)),
                T=float(gen.uniform(0.5, 1.5)),
                jumps=JumpSpec([1.0], [1.0], [float(gen.uniform(0.0, 1.0))]),
            )
            for mode in ("common", "idiosyncratic"):
                sol = solve_riccati(params, mode, 512)
                worst = max(worst, float(np.max(np.abs(sol.beta + sol.eta))))
        return worst < 1e-8, f"max |beta + eta| = {worst:.2e}"

    _criterion(2, "sigma=0 kills the mean channel", 1.0, run)


def test_criterion_3_hjb_residual():
    def run():
        param_sets = [
            BASE_PARAMS,
            LQParams(b1=-0.3, b2=0.8, b3=1.2, sigma=0.6, c=1.5, T=1.0),
            LQParams(
                b1=0.2, b2=-0.4, b3=0.9, sigma=0.3, c=0.8, T=1.2,
                jumps=JumpSpec([1.0, 2.0], [0.7, 0.5], [0.6, -0.4]),
            ),
        ]
        details = []
        ok = True
        for i, params in enumerate(param_sets):
            sol = solve_riccati(params, "common", 4096)
            tol = 1e-6 + 10.0 * sol.midpoint_residual()
            rep = check_hjb(sol, hjb_sample_measures(sol, 100, 16, seed=SEED + i), tol)
            ok = ok and rep.passed
            details.append(f"{rep.stats['max_residual']:.2e}<{tol:.1e}")
        return ok, "max residuals: " + ", ".join(details)

    _criterion(3, "dynamic programming residual", 10.0, run)


def test_criterion_4_bsde_identity():
    def run():
        sol = solve_riccati(BASE_PARAMS, "common", 10_000)
        mc = MonteCarloSettings(
            particles=300, scenarios=10, dt=1e-3, seed=SEED,
            init=BASE_INIT, riccati_steps=10_000,
        )
        clouds = [simulate_optimal(BASE_PARAMS, sol, mc, s) for s in range(10)]
        rep = check_bsde(clouds, sol, 1e-6)
        return rep.passed, (
            f"terminal {rep.stats['terminal_residual']:.1e}, "
            f"drift {rep.stats['drift_residual']:.2e}, "
            f"K {rep.stats['k_fixed_point_residual']:.2e}"
        )

    _criterion(4, "adjoint backward identity", 30.0, run)


def test_criterion_5_smp_inequality():
    def run():
        sol = solve_riccati(BASE_PARAMS, "common", 4096)
        mc = MonteCarloSettings(
            particles=500, scenarios=1, dt=1e-3, seed=SEED, init=BASE_INIT,
        )
        cloud = simulate_optimal(BASE_PARAMS, sol, mc, 0)
        rep = check_smp(
            cloud, sol, np.linspace(-4.0, 4.0, 321), tolerance=1e-8,
            n_samples=200, sample_seed=SEED,
        )
        return rep.passed, (
            f"undercut {rep.stats['max_undercut']:.2e}, "
            f"argmin off by {rep.stats['max_argmin_cells_off']:.2f} cells"
        )

    _criterion(5, "pointwise minimum principle", 30.0, run)


def test_criterion_6_optimality_by_perturbation():
    def run():
        mc = MonteCarloSettings(
            particles=2000, scenarios=64, dt=1e-3, seed=SEED,
            init=BASE_INIT, riccati_steps=4096,
        )
        perts = [
            Perturbation("gain", 0.5),
            Perturbation("gain", 1.5),
            Perturbation("offset", 0.5),
            Perturbation("offset", -0.5),
        ]
        rep = check_optimality(BASE_PARAMS, perts, mc)
        min_gap = min(
            rep.stats["gaps"][p.label] + 3.0 * rep.stats["gap_sigmas"][p.label]
            for p in perts
        )
        return rep.passed, (
            f"worst gap+3sigma {min_gap:.2e}, value gap "
            f"{rep.stats['value_gap']:.2e} <= {rep.stats['value_allowance']:.2e}"
        )

    _criterion(6, "no perturbation beats the candidate", 300.0, run)


def test_criterion_7_fokker_planck_refinement():
    def run():
        mc = MonteCarloSettings(
            particles=1000, scenarios=48, dt=4e-3, seed=SEED,
            init=BASE_INIT, riccati_steps=4096,
        )
        rep = check_fp(BASE_PARAMS, mc, ratio_band=(0.3, 0.7))
        return rep.passed, (
            f"error {rep.stats['coarse_error']:.3e} -> {rep.stats['fine_error']:.3e}, "
            f"ratio {rep.stats['ratio']:.3f} in [0.3, 0.7]"
        )

    _criterion(7, "law-flow prediction halves under 2x2 refinement", 300.0, run)


def test_criterion_8_measure_operator_exactness():
    def run():
        gen = np.random.default_rng(SEED)
        coeffs = lq_coefficients(BASE_PARAMS)
        dictionary = list(default_dictionary())
        worst_dual, worst_mass = 0.0, 0.0
        for _ in range(50):
            n = int(gen.integers(2, 7))
            mu = EmpiricalMeasure(
                gen.normal(size=(n, 1)), gen.dirichlet(np.ones(n))
            )
            kernel = RelaxedKernel(
                gen.normal(size=(n, 2)), np.tile(gen.dirichlet(np.ones(2)), (n, 1))
            )
            phi = dictionary[int(gen.integers(0, len(dictionary)))]
            left = float(mu.weights @ apply_shift(phi.value, mu, kernel, 0, coeffs))
            shifted = shift_adjoint(mu, kernel, 0, coeffs)
            right = float(shifted.weights @ phi.value(shifted.atoms[:, 0]))
            worst_dual = max(worst_dual, abs(left - right))
            worst_mass = max(
                worst_mass, abs(apply_A1(mu, kernel, 0, coeffs).total_mass)
            )
        ok = worst_dual <= 1e-12 and worst_mass <= 1e-12
        return ok, f"duality gap {worst_dual:.1e}, jump-generator mass {worst_mass:.1e}"

    _criterion(8, "shift operator adjoint exactness", 1.0, run)


def _tilted_control_linear_set(kappa=0.25):
    """Control-linear dynamics, state-tilted running cost: the slab sawtooth of
    a chattering control is visible in the cost at order 1/n."""
    spec = JumpSpec([1.0], [1.0], [0.2])
    return CoefficientSet(
        jumps=spec,
        drift=lambda x, rho, u: np.asarray(u, dtype=float) + 0.0 * x,
        diffusion=lambda x, rho, u: 0.2 + 0.0 * np.asarray(x, dtype=float),
        jump=lambda x, rho, u, mark: 0.2 * np.asarray(u, dtype=float) + 0.0 * x,
        running_cost=lambda x, rho, u: 0.5 * np.asarray(u, dtype=float) ** 2
        + kappa * np.asarray(x, dtype=float),
        terminal_cost=lambda x, mu: 0.0 * np.asarray(x, dtype=float),
    )


def test_criterion_9_chattering_convergence():
    def run():
        coeffs = _tilted_control_linear_set()
        rule = RelaxedRule.constant(np.array([0.2, 0.8]), np.array([0.5, 0.5]))
        mc = MonteCarloSettings(
            particles=400, scenarios=24, dt=1 / 1024, seed=SEED,
            init=InitSpec("gaussian", 0.0, 0.3),
        )
        rep = check_chattering(coeffs, rule, 1.0, mc, levels=(2, 4, 8, 16, 32))
        gaps = rep.stats["gaps"]
        decreasing = gaps[-1] < gaps[0]
        ok = rep.passed and decreasing
        return ok, (
            f"gaps {['%.4f' % g for g in gaps]}, final "
            f"{rep.stats['final_gap']:.2e} <= 5x{rep.stats['final_sigma']:.2e}"
        )

    _criterion(9, "slab approximation converges in cost", 300.0, run)


def test_criterion_10_noise_mode_separation():
    def run():
        params = LQParams(
            b1=0.5, b2=0.4, b3=1.0, sigma=0.4, c=1.0, T=1.0,
            jumps=JumpSpec([1.0], [2.0], [0.5]),
        )
        mc = MonteCarloSettings(
            particles=2000, scenarios=4, dt=1e-3, seed=SEED,
            init=InitSpec("gaussian", 1.5, 0.3), riccati_steps=4096,
        )
        rep = compare_noise_modes(params, mc, jump_ratio_min=5.0)
        return rep.passed, (
            f"riccati gap {rep.stats['riccati_gap_no_jumps']:.1e}, "
            f"jump ratio {rep.stats['jump_ratio']:.0f} >= 5"
        )

    _criterion(10, "shared vs per-particle jump regimes", 120.0, run)


def test_criterion_11_metric_sanity():
    def run():
        gen = np.random.default_rng(SEED)
        worst_oracle = 0.0
        for _ in range(10):
            na, nb = gen.integers(1, 5, size=2)
            a = random_measure(gen, int(na), lattice=FM_LATTICE)
            b = random_measure(gen, int(nb), lattice=FM_LATTICE)
            oracle = fm_bruteforce_1d(
                a.atoms.ravel(), a.weights, b.atoms.ravel(), b.weights
            )
            worst_oracle = max(worst_oracle, abs(fm_distance(a, b) - oracle))
        worst_triangle = 0.0
        for _ in range(100):
            triple = [random_measure(gen, int(gen.integers(2, 6))) for _ in range(3)]
            d01 = fm_distance(triple[0], triple[1])
            d12 = fm_distance(triple[1], triple[2])
            d02 = fm_distance(triple[0], triple[2])
            worst_triangle = max(worst_triangle, d02 - (d01 + d12))
        ok = worst_oracle <= 1e-6 and worst_triangle <= 1e-9
        return ok, (
            f"oracle gap {worst_oracle:.1e} <= 1e-6, "
            f"triangle slack {worst_triangle:.1e}"
        )

    _criterion(11, "transport metric against brute force", 10.0, run)

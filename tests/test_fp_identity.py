"""The one-pass Fokker-Planck pairings against the entry-by-entry oracle, bit for bit.

``fp_step``, ``pairing_table``, the accumulated error behind ``check_fp``
and ``pair_A0`` must reproduce the oracle's floats exactly: the compensator
formed once per step, the trusted law views and the shared derivative
evaluations may not move a single bit.  Floats are compared through
``float.hex`` so that a sign of zero counts too.
"""
import numpy as np
import pytest

from mfcpoisson.coefficients import JumpSpec, LQParams, lq_coefficients
from mfcpoisson.lq import solve_riccati
from mfcpoisson.measureflow import (
    RelaxedKernel,
    default_dictionary,
    fp_step,
)
from mfcpoisson.measures import EmpiricalMeasure
from mfcpoisson.simulate import InitSpec
from mfcpoisson.verify import (
    MonteCarloSettings,
    _fp_terminal_error,
    pairing_table,
    simulate_optimal,
)

from _oracles import (
    aggregate_reference,
    dictionary_reference,
    fp_step_reference,
    fp_terminal_error_reference,
    pair_A0,
    pair_A0_reference,
    pairing_table_reference,
)

JUMPS = {
    "one-mark": JumpSpec([1.0], [4.0], [0.3]),
    "two-marks": JumpSpec([1.0, 2.0], [3.0, 2.5], [0.3, -0.2]),
}
MC = MonteCarloSettings(
    particles=150, scenarios=1, dt=0.01, seed=13,
    init=InitSpec("gaussian", 1.0, 0.5), riccati_steps=1024,
)


def bits(values):
    return [float(v).hex() for v in values]


def row_bits(rows):
    return [
        tuple(float(v).hex() if isinstance(v, float) else v for v in row)
        for row in rows
    ]


@pytest.fixture(scope="module", params=sorted(JUMPS))
def lq_cloud(request):
    params = LQParams(
        b1=0.5, b2=0.4, b3=1.0, sigma=0.4, c=1.0, T=1.0, jumps=JUMPS[request.param]
    )
    sol = solve_riccati(params, MC.mode, MC.riccati_steps)
    cloud = simulate_optimal(params, sol, MC, 0)
    marks = {mark for _, mark, _ in cloud.event_log}
    assert marks == set(range(params.jumps.n_marks))  # every mark fires
    return params, sol, cloud


class TestDictionary:
    def test_entries_equal_their_formulas(self, rng):
        x = np.concatenate([
            [-0.0, 0.0, 1.0, -1.0, 2.0, 1e-300, -37.5],
            rng.normal(1.0, 2.0, size=200),
        ])
        entries = list(default_dictionary())
        references = dictionary_reference()
        assert [phi.name for phi in entries] == [ref.name for ref in references]
        for phi, ref in zip(entries, references):
            want = [np.asarray(f(x), dtype=float).tobytes() for f in (ref.value, ref.dx, ref.dxx)]
            got = [np.asarray(f(x), dtype=float).tobytes() for f in (phi.value, phi.dx, phi.dxx)]
            assert got == want, phi.name
            d1, d2 = phi.derivatives(x)
            assert [np.asarray(d, dtype=float).tobytes() for d in (d1, d2)] == want[1:]


class TestFpStep:
    def test_every_step_equals_oracle(self, lq_cloud):
        params, _, cloud = lq_cloud
        coeffs = lq_coefficients(params)
        events = {}
        for node, mark, _ in cloud.event_log:
            events.setdefault(node, []).append(mark)
        names = [phi.name for phi in default_dictionary()]
        for k in range(cloud.grid.n_steps):
            mu = EmpiricalMeasure.from_samples(cloud.states[k])
            kernel = RelaxedKernel.dirac(cloud.controls[k])
            h = float(cloud.times[k + 1] - cloud.times[k])
            marks = events.get(k + 1, [])
            jump_state = None
            if marks:
                jump_state = (EmpiricalMeasure.from_samples(cloud.pre_jump_states[k + 1]), kernel)
            got = fp_step(mu, kernel, h, marks, coeffs, default_dictionary(), jump_state)
            want = fp_step_reference(
                mu, kernel, h, marks, coeffs, dictionary_reference(), jump_state
            )
            assert bits(got[n] for n in names) == bits(want[n] for n in names), k

    def test_relaxed_kernel_with_both_marks_equals_oracle(self, rng):
        params = LQParams(
            b1=0.5, b2=0.4, b3=1.0, sigma=0.4, c=1.0, T=1.0, jumps=JUMPS["two-marks"]
        )
        coeffs = lq_coefficients(params)
        for _ in range(5):
            mu = EmpiricalMeasure(rng.normal(1.0, 0.7, size=9), rng.dirichlet(np.ones(9)))
            kernel = RelaxedKernel(
                rng.normal(size=(9, 3)), rng.dirichlet(np.ones(3), size=9)
            )
            got = fp_step(mu, kernel, 0.01, [1, 0], coeffs, default_dictionary())
            want = fp_step_reference(mu, kernel, 0.01, [1, 0], coeffs, dictionary_reference())
            assert bits(got.values()) == bits(want.values())


class TestPairA0:
    def test_relaxed_kernel_equals_oracle(self, rng):
        for jumps in JUMPS.values():
            params = LQParams(b1=0.5, b2=0.4, b3=1.0, sigma=0.4, c=1.0, T=1.0, jumps=jumps)
            coeffs = lq_coefficients(params)
            mu = EmpiricalMeasure(rng.normal(size=11), rng.dirichlet(np.ones(11)))
            kernel = RelaxedKernel(
                rng.normal(size=(11, 4)), rng.dirichlet(np.ones(4), size=11)
            )
            aggregated = aggregate_reference(mu, kernel, coeffs)
            got = [pair_A0(phi, mu, kernel, coeffs) for phi in default_dictionary()]
            want = [
                pair_A0_reference(ref, mu, aggregated, coeffs)
                for ref in dictionary_reference()
            ]
            assert bits(got) == bits(want)
            assert any(abs(v) > 1e-3 for v in got)  # not a comparison of zeros


class TestAlongClouds:
    def test_pairing_table_equals_oracle(self, lq_cloud):
        params, _, cloud = lq_cloud
        coeffs = lq_coefficients(params)
        got = pairing_table(cloud, coeffs, default_dictionary())
        want = pairing_table_reference(cloud, coeffs, dictionary_reference())
        assert row_bits(got) == row_bits(want)

    def test_terminal_error_equals_oracle(self, lq_cloud):
        params, sol, cloud = lq_cloud
        got = _fp_terminal_error(params, sol, MC, default_dictionary(), 0)
        want = fp_terminal_error_reference(
            cloud, lq_coefficients(params), dictionary_reference()
        )
        assert bits(got) == bits(want)
        assert np.max(np.abs(got)) > 1e-3

import json
import os

import numpy as np
import pytest

from mfcpoisson.coefficients import CoefficientSet, JumpSpec, LQParams, lq_coefficients
from mfcpoisson.errors import DivergenceError
from mfcpoisson import simulate
from mfcpoisson.measures import EmpiricalMeasure, fm_distance
from mfcpoisson.simulate import (
    ChatteringRule,
    FeedbackRule,
    InitSpec,
    PoissonPath,
    RelaxedRule,
    build_grid,
    cost_of_cloud,
    map_blocks,
    sample_poisson_path,
    simulate_record,
    simulate_records,
    simulate_relaxed,
    simulate_strict,
    substream,
)

from _oracles import OpenLoopRule


def lq(**kw):
    defaults = dict(b1=0.0, b2=0.0, b3=1.0, sigma=0.0, c=1.0, T=1.0)
    defaults.update(kw)
    return lq_coefficients(LQParams(**defaults))


TWO_POINT_INIT = InitSpec("atoms", atoms=np.array([0.0, 2.0]), weights=np.array([0.5, 0.5]))


class TestPoissonPath:
    def test_zero_intensity_gives_empty_path(self):
        path = sample_poisson_path(JumpSpec.empty(), 1.0, substream(0, 0, "poisson"))
        assert path.n_events == 0

    def test_event_count_matches_intensity(self):
        spec = JumpSpec([1.0, 2.0], [1.5, 0.5], [0.0, 0.0])
        gen = substream(7, 0, "poisson")
        counts = [sample_poisson_path(spec, 2.0, gen).n_events for _ in range(2000)]
        lam_t = spec.total_intensity * 2.0
        stderr = np.sqrt(lam_t / len(counts))
        assert abs(np.mean(counts) - lam_t) < 3 * stderr

    def test_single_mark_indices(self):
        spec = JumpSpec([5.0], [3.0], [1.0])
        path = sample_poisson_path(spec, 2.0, substream(1, 0, "poisson"))
        assert path.n_events > 0
        assert np.all(path.marks == 0)

    def test_times_sorted_and_inside_horizon(self):
        spec = JumpSpec([1.0], [4.0], [1.0])
        for scen in range(5):
            path = sample_poisson_path(spec, 1.5, substream(3, scen, "poisson"))
            assert np.all(np.diff(path.times) > 0)
            assert path.times.size == 0 or (path.times[0] > 0 and path.times[-1] <= 1.5)


def _generator_state(gen):
    return json.dumps(gen.bit_generator.state, default=lambda a: a.tolist(), sort_keys=True)


class TestFlatEventDraw:
    """Idiosyncratic events are drawn flat, with the draws of one path per particle."""

    SPECS = {
        "1-mark": JumpSpec([1.0], [1.0], [0.3]),
        "3-marks": JumpSpec([1.0, 2.0, 3.0], [1.0, 0.5, 1.5], [0.3, -0.2, 0.1]),
        "empty": JumpSpec.empty(),
        "lambda-T-40": JumpSpec([1.0, 2.0], [30.0, 10.0], [0.1, -0.1]),
    }

    @pytest.mark.parametrize("name", list(SPECS))
    def test_flat_draw_equals_one_path_per_particle(self, name):
        spec, n = self.SPECS[name], 60
        gen = substream(9, 1, "poisson")
        paths = [sample_poisson_path(spec, 1.0, gen) for _ in range(n)]
        flat_gen = substream(9, 1, "poisson")
        times, marks, counts = simulate._draw_events(spec, 1.0, n, flat_gen)
        want_times = np.concatenate([p.times for p in paths])
        want_marks = np.concatenate([p.marks for p in paths])
        assert times.dtype == want_times.dtype and times.tobytes() == want_times.tobytes()
        assert marks.dtype == want_marks.dtype and marks.tobytes() == want_marks.tobytes()
        assert counts.tolist() == [p.n_events for p in paths]
        assert _generator_state(flat_gen) == _generator_state(gen)
        if name == "1-mark":
            assert 0 in counts.tolist()  # a particle without events sits between others

    def test_a_history_cloud_keeps_the_paths_of_its_particles(self):
        spec = self.SPECS["3-marks"]
        cloud = simulate_strict(
            lq(jumps=spec), FeedbackRule.constant(0.0), 40, 1.0, 0.05, seed=9, scenario=1,
            mode="idiosyncratic",
        )
        gen = substream(9, 1, "poisson")
        want = [sample_poisson_path(spec, 1.0, gen) for _ in range(40)]
        assert len(cloud.paths) == len(want)
        for path, expected in zip(cloud.paths, want):
            assert isinstance(path, PoissonPath)
            assert path.times.tobytes() == expected.times.tobytes()
            assert path.marks.tobytes() == expected.marks.tobytes()
            assert not path.times.flags.writeable and not path.marks.flags.writeable


class TestGrid:
    def test_contains_events_exactly_and_respects_dt(self):
        events = [0.1234567, 0.25, 0.99]
        grid = build_grid(1.0, 0.1, events)
        for t in events:
            assert t in grid.times
        assert np.max(np.diff(grid.times)) <= 0.1 + 1e-15

    def test_rejects_event_outside_horizon(self):
        with pytest.raises(ValueError):
            build_grid(1.0, 0.1, [1.5])


class TestStrictSimulation:
    def test_frozen_dynamics(self):
        coeffs = lq(b3=0.0, c=0.0)
        cloud = simulate_strict(
            coeffs, FeedbackRule.constant(0.0), 8, 1.0, 0.05, seed=1
        )
        np.testing.assert_array_equal(cloud.states, np.tile(cloud.states[0], (cloud.states.shape[0], 1)))

    def test_compensated_jump_hand_integration(self):
        # gamma(z)*u with u=1: one jump of 0.7 at tau, drift -gamma*lambda elsewhere
        spec = JumpSpec([1.0], [1.2], [0.7])
        coeffs = lq(b3=0.0, jumps=spec)
        path = PoissonPath(np.array([0.35]), np.array([0]))
        cloud = simulate_strict(
            coeffs,
            FeedbackRule.constant(1.0),
            2,
            1.0,
            1 / 64,
            seed=5,
            path=path,
            init=TWO_POINT_INIT,
        )
        ts = cloud.times[:, None]
        analytic = cloud.states[0][None, :] - 0.7 * 1.2 * ts + 0.7 * (ts >= 0.35)
        assert np.abs(cloud.states - analytic).max() < 1e-12

    def test_mean_follows_linear_ode(self):
        coeffs = lq(b1=0.8, b3=0.0, c=0.0)
        cloud = simulate_strict(
            coeffs, FeedbackRule.constant(0.0), 64, 1.0, 1e-3, seed=3,
            init=InitSpec("gaussian", mean=1.0, std=0.0),
        )
        assert cloud.states[-1].mean() == pytest.approx(np.exp(0.8), abs=2e-3)

    def test_divergence_reports_step(self):
        blowup = CoefficientSet(
            jumps=JumpSpec.empty(),
            drift=lambda x, rho, u: x**3 * 1e6,
            diffusion=lambda x, rho, u: 0.0 * x,
            jump=lambda x, rho, u, mark: 0.0 * x,
            running_cost=lambda x, rho, u: 0.0 * x,
            terminal_cost=lambda x, mu: 0.0 * x,
        )
        with pytest.raises(DivergenceError) as err, np.errstate(over="ignore", invalid="ignore"):
            simulate_strict(
                blowup, FeedbackRule.constant(0.0), 4, 1.0, 0.05, seed=2,
                init=InitSpec("gaussian", mean=2.0, std=0.1),
            )
        assert err.value.step >= 1

    def test_open_loop_rule(self):
        coeffs = lq(c=0.0)
        rule = OpenLoopRule([0.0, 0.5], np.array([[1.0] * 4, [-1.0] * 4]))
        cloud = simulate_strict(coeffs, rule, 4, 1.0, 0.25, seed=1)
        np.testing.assert_allclose(cloud.controls[:2], 1.0)
        np.testing.assert_allclose(cloud.controls[2:], -1.0)

    def test_reproducible_and_scenario_dependent(self):
        coeffs = lq(sigma=0.5, jumps=JumpSpec([1.0], [2.0], [0.4]))
        rule = FeedbackRule(lambda t, x, m: -0.5 * x)
        a = simulate_strict(coeffs, rule, 16, 1.0, 0.02, seed=11, scenario=3)
        b = simulate_strict(coeffs, rule, 16, 1.0, 0.02, seed=11, scenario=3)
        c = simulate_strict(coeffs, rule, 16, 1.0, 0.02, seed=11, scenario=4)
        np.testing.assert_array_equal(a.states, b.states)
        assert not np.array_equal(a.states, c.states)


class TestJumpCoupling:
    def test_common_mode_shares_jumps(self):
        spec = JumpSpec([1.0], [3.0], [0.5])
        coeffs = lq(jumps=spec)
        cloud = simulate_strict(
            coeffs, FeedbackRule.constant(1.0), 6, 1.0, 0.02, seed=21, mode="common"
        )
        assert cloud.path.n_events > 0
        for node, mark, _ in cloud.event_log:
            pre = cloud.pre_jump_states[node]
            post = cloud.states[node]
            assert np.all(np.abs(post - pre) > 1e-12)

    def test_idiosyncratic_jump_times_disjoint(self):
        spec = JumpSpec([1.0], [2.0], [0.5])
        coeffs = lq(jumps=spec)
        cloud = simulate_strict(
            coeffs, FeedbackRule.constant(1.0), 12, 1.0, 0.05, seed=13,
            mode="idiosyncratic",
        )
        all_times = np.concatenate([p.times for p in cloud.paths])
        assert len(np.unique(all_times)) == len(all_times)

    def test_state_and_law_jumps_are_synchronized(self):
        # the cloud and its empirical law jump at exactly the recorded event
        # nodes: both the state vector and the second-moment pairing move
        spec = JumpSpec([1.0], [3.0], [0.5])
        coeffs = lq(jumps=spec)
        cloud = simulate_strict(
            coeffs, FeedbackRule.constant(1.0), 8, 1.0, 0.02, seed=23, mode="common"
        )
        event_nodes = {node for node, _, _ in cloud.event_log}
        assert event_nodes == set(cloud.pre_jump_states)
        for node in event_nodes:
            pre = cloud.pre_jump_states[node]
            post = cloud.states[node]
            assert np.all(pre != post)
            assert np.mean(pre**2) != np.mean(post**2)

    def test_idiosyncratic_moves_only_owner(self):
        # the particles moved at a node are exactly the owners of its events;
        # seeds 0, 2 and 16 put two particles' events in one step
        spec = JumpSpec([1.0], [1.0], [0.8])
        coeffs = lq(b3=0.0, jumps=spec)  # no drift except compensator
        multi_event_nodes = 0
        for seed in range(60):
            cloud = simulate_strict(
                coeffs, FeedbackRule.constant(1.0), 5, 1.0, 0.05, seed=seed,
                mode="idiosyncratic",
            )
            owners = {}
            for i, p in enumerate(cloud.paths):
                for node in np.searchsorted(cloud.grid.times, p.times, side="left"):
                    owners.setdefault(int(node), set()).add(i)
            assert set(cloud.pre_jump_states) == set(owners)
            for node, pre in cloud.pre_jump_states.items():
                moved = np.abs(cloud.states[node] - pre) > 1e-12
                assert set(np.flatnonzero(moved).tolist()) == owners[node]
                multi_event_nodes += len(owners[node]) > 1
        assert multi_event_nodes > 0


def _mean_reverting_jumps():
    """Jumps toward the cloud mean, mark-dependent; no drift, no diffusion."""
    return CoefficientSet(
        jumps=JumpSpec([1.0, 2.0], [1.0, 1.0], [0.0, 0.0]),
        drift=lambda x, rho, u: 0.0 * x,
        diffusion=lambda x, rho, u: 0.0 * x,
        jump=lambda x, rho, u, mark: (0.5 + mark) * (rho.mean_state[0] - x) + 0.1 * (mark + 1),
        running_cost=lambda x, rho, u: 0.0 * x,
        terminal_cost=lambda x, mu: 0.0 * x,
    )


def _jump(x, mean, mark):
    return (0.5 + mark) * (mean - x) + 0.1 * (mark + 1)


def _idio_cloud(paths, n=4):
    return simulate_strict(
        _mean_reverting_jumps(), FeedbackRule.constant(0.0), n, 1.0, 0.25, seed=5,
        mode="idiosyncratic", paths=paths,
        init=InitSpec("gaussian", mean=1.0, std=0.8),
    )


def _hand_paths(rows):
    return [PoissonPath(np.array(t, dtype=float), np.array(m, dtype=int)) for t, m in rows]


class TestIdiosyncraticWithinStep:
    # grid 0, .25, .5, .75, 1: an event at t in (t_k, t_{k+1}] lands on node k + 1
    ROWS = [
        ([0.3], [0]),  # node 2
        ([0.4], [1]),  # node 2, same step as particle 0
        ([0.55, 0.6], [0, 1]),  # node 3, twice in one step
        ([0.75], [0]),  # node 3, exactly on the node
    ]

    def test_grid_is_uniform(self):
        cloud = _idio_cloud(_hand_paths(self.ROWS))
        np.testing.assert_array_equal(cloud.times, np.linspace(0.0, 1.0, 5))
        assert set(cloud.pre_jump_states) == {2, 3}

    def test_event_inside_step_moves_only_its_owners_at_the_next_node(self):
        cloud = _idio_cloud(_hand_paths(self.ROWS))
        pre = cloud.pre_jump_states[2]
        mean = pre.mean()
        want = pre.copy()
        want[0] += _jump(pre[0], mean, 0)
        want[1] += _jump(pre[1], mean, 1)
        np.testing.assert_allclose(cloud.states[2], want, rtol=0, atol=1e-14)
        assert np.array_equal(cloud.states[2][2:], pre[2:])
        assert not np.array_equal(pre, cloud.states[1])  # the step's Euler move came first

    def test_same_step_jumps_read_the_same_pre_jump_law(self):
        first = _idio_cloud(_hand_paths([([0.3], [0]), ([0.4], [0]), ([], []), ([], [])]))
        swapped = _idio_cloud(_hand_paths([([0.4], [0]), ([0.3], [0]), ([], []), ([], [])]))
        np.testing.assert_array_equal(first.states, swapped.states)
        assert sorted(first.event_log) == sorted(swapped.event_log)

    def test_two_jumps_in_one_step_both_apply(self):
        cloud = _idio_cloud(_hand_paths(self.ROWS))
        pre = cloud.pre_jump_states[3]
        mean = pre.mean()
        want = pre.copy()
        want[2] += _jump(pre[2], mean, 0) + _jump(pre[2], mean, 1)
        want[3] += _jump(pre[3], mean, 0)
        np.testing.assert_allclose(cloud.states[3], want, rtol=0, atol=1e-14)
        assert np.array_equal(cloud.states[3][:2], pre[:2])

    def test_event_log_has_one_entry_per_event(self):
        cloud = _idio_cloud(_hand_paths(self.ROWS))
        owners = [0, 1, 2, 2, 3]
        assert [(node, mark) for node, mark, _ in cloud.event_log] == [
            (2, 0), (2, 1), (3, 0), (3, 1), (3, 0)
        ]
        for (node, mark, disp), i in zip(cloud.event_log, owners):
            pre = cloud.pre_jump_states[node]
            assert disp == pytest.approx(_jump(pre[i], pre.mean(), mark) / 4, abs=1e-15)

    def test_needs_one_path_per_particle(self):
        with pytest.raises(ValueError):
            _idio_cloud(_hand_paths(self.ROWS[:3]))

    def test_rejects_event_after_horizon(self):
        with pytest.raises(ValueError):
            _idio_cloud(_hand_paths(self.ROWS[:3] + [([1.5], [0])]))


class TestIdiosyncraticCostIsLinear:
    @pytest.mark.parametrize("n", [50, 500, 2000])
    def test_steps_and_history_do_not_grow_with_particles(self, n):
        T, dt = 1.0, 1e-2
        coeffs = lq(sigma=0.3, jumps=JumpSpec([1.0], [2.0], [0.3]))
        cloud = simulate_strict(
            coeffs, FeedbackRule(lambda t, x, m: -0.5 * x), n, T, dt, seed=9,
            mode="idiosyncratic",
        )
        steps = int(np.ceil(T / dt))
        assert len(cloud.event_log) > n  # about 2n jumps in all
        assert cloud.grid.n_steps == steps
        assert cloud.states.nbytes == (steps + 1) * n * 8
        # at most one stored pre-jump cloud per step
        assert sum(a.nbytes for a in cloud.pre_jump_states.values()) <= steps * n * 8


class TestScenarioRecord:
    """A history-free run keeps the means and events of the stored history."""

    COEFFS = lq(b1=0.5, b2=0.4, sigma=0.4, jumps=JumpSpec([1.0, 2.0], [2.0, 1.5], [0.3, -0.2]))
    RUN = dict(n_particles=40, T=1.0, dt=1 / 64, seed=5, scenario=2)

    @pytest.mark.parametrize("mode", ["common", "idiosyncratic"])
    @pytest.mark.parametrize(
        "rule",
        [
            FeedbackRule(lambda t, x, m: -0.7 * x + 0.2 * m),
            RelaxedRule.constant([-0.4, 0.9], [0.3, 0.7]),
        ],
        ids=["strict", "relaxed"],
    )
    def test_record_matches_the_cloud_bit_for_bit(self, mode, rule):
        run = dict(self.RUN, mode=mode)
        full = simulate_strict if rule.kind == "strict" else simulate_relaxed
        cloud = full(self.COEFFS, rule, **run)
        record = simulate_record(self.COEFFS, [rule], **run)
        assert cloud.event_log
        assert record.event_log == cloud.event_log
        expected = cloud.states.mean(axis=1)
        assert record.means.shape == expected.shape
        assert record.means.tobytes() == expected.tobytes()
        assert record.costs == [cost_of_cloud(cloud, self.COEFFS)]

    @pytest.mark.parametrize("mode", ["common", "idiosyncratic"])
    def test_paired_rows_match_their_rules_alone(self, mode):
        rules = [FeedbackRule(lambda t, x, m, g=g: -g * x) for g in (0.3, 0.9, 1.4)]
        run = dict(self.RUN, mode=mode)
        paired = simulate_record(self.COEFFS, rules, **run)
        alone = [simulate_record(self.COEFFS, [rule], **run) for rule in rules]
        assert paired.means.shape == (alone[0].means.size, len(rules))
        assert paired.costs == [rec.costs[0] for rec in alone]
        for r, rec in enumerate(alone):
            assert paired.means[:, r].tobytes() == rec.means.tobytes()
            assert [(n, k, d[r]) for n, k, d in paired.event_log] == rec.event_log

    def test_rejects_an_unknown_rule_kind(self):
        class Odd:
            kind = "odd"

        with pytest.raises(TypeError):
            simulate_record(self.COEFFS, [Odd()], **self.RUN)


class TestRelaxedSimulation:
    def test_dirac_rule_is_bit_identical_to_strict(self):
        coeffs = lq(b1=0.5, b2=0.4, sigma=0.4, jumps=JumpSpec([1.0], [1.0], [0.3]))
        fb = FeedbackRule(lambda t, x, m: 0.3 * x - 0.1 * m)
        rr = RelaxedRule(lambda t, x, m: ((0.3 * x - 0.1 * m)[:, None], np.ones((len(x), 1))))
        a = simulate_strict(coeffs, fb, 50, 1.0, 1 / 128, seed=9)
        b = simulate_relaxed(coeffs, rr, 50, 1.0, 1 / 128, seed=9)
        np.testing.assert_array_equal(a.states, b.states)

    def test_symmetric_two_point_control_cancels(self):
        coeffs = lq(c=0.0)  # drift b3*u only
        rule = RelaxedRule.constant(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        cloud = simulate_relaxed(coeffs, rule, 8, 1.0, 0.05, seed=4)
        np.testing.assert_allclose(cloud.states, np.tile(cloud.states[0], (cloud.states.shape[0], 1)), atol=1e-14)

    def test_two_point_rule_matches_mean_control_when_linear(self):
        coeffs = lq(b2=0.7, sigma=0.0, jumps=JumpSpec([1.0], [1.0], [0.4]))
        w = np.array([0.3, 0.7])
        support = np.array([-0.5, 1.5])
        mean_u = float(w @ support)
        relaxed = simulate_relaxed(
            coeffs, RelaxedRule.constant(support, w), 16, 1.0, 0.02, seed=6
        )
        strict = simulate_strict(
            coeffs, FeedbackRule.constant(mean_u), 16, 1.0, 0.02, seed=6
        )
        np.testing.assert_allclose(relaxed.states, strict.states, atol=1e-12)

    def test_rejects_wrong_rule_kind(self):
        coeffs = lq()
        with pytest.raises(TypeError):
            simulate_relaxed(coeffs, FeedbackRule.constant(0.0), 4, 1.0, 0.1)
        with pytest.raises(TypeError):
            simulate_strict(coeffs, RelaxedRule.constant([0.0], [1.0]), 4, 1.0, 0.1)

    def test_negative_weight_rejected(self):
        coeffs = lq()
        bad = RelaxedRule.constant(np.array([0.2, 0.8]), np.array([-0.5, 1.5]))
        with pytest.raises(ValueError, match="nonnegative"):
            bad.evaluate(0.0, np.zeros(4), 0.0)
        with pytest.raises(ValueError):
            simulate_relaxed(coeffs, bad, 4, 1.0, 0.1, seed=1)
        with pytest.raises(ValueError):
            simulate_record(coeffs, [bad], 4, 1.0, 0.1, seed=1)

    def test_shared_atoms_match_per_row_normalization(self):
        support = np.array([0.1, -0.4, 0.9, 0.3, 1.7, -1.1, 0.0, 0.6, 2.2])
        weights = np.random.default_rng(3).uniform(0.0, 1.0, size=support.size)
        x = np.linspace(-1.0, 1.0, 5)
        shared = RelaxedRule.constant(support, weights)
        rows = RelaxedRule(lambda t, x, m: (np.tile(support, (len(x), 1)), np.tile(weights, (len(x), 1))))
        for a, b in zip(shared.evaluate(0.3, x, 0.0), rows.evaluate(0.3, x, 0.0)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        for t in np.linspace(0.0, 1.0, 41):
            np.testing.assert_array_equal(
                ChatteringRule(shared, 4, 1.0).evaluate(t, x, 0.0),
                ChatteringRule(rows, 4, 1.0).evaluate(t, x, 0.0),
            )

    @pytest.mark.parametrize(
        "support,weights,match",
        [
            ([0.2, 0.8], [np.nan, 1.0], "nonnegative"),
            ([0.2, 0.8], [np.inf, 1.0], "nonnegative"),
            ([0.2, np.inf], [0.5, 0.5], "finite"),
            ([np.nan, 0.8], [0.5, 0.5], "finite"),
        ],
    )
    def test_non_finite_atoms_rejected(self, support, weights, match):
        x = np.zeros(3)
        constant = RelaxedRule.constant(support, weights)
        shared = RelaxedRule(lambda t, x, m: (np.array(support), np.array(weights)))
        per_row = RelaxedRule(
            lambda t, x, m: (np.tile(support, (len(x), 1)), np.tile(weights, (len(x), 1)))
        )
        for rule in (constant, shared, per_row):
            with pytest.raises(ValueError, match=match):
                rule.evaluate(0.0, x, 0.0)
        with pytest.raises(ValueError, match=match):
            simulate_record(lq(), [constant], 4, 1.0, 0.1, seed=1)

    def test_a_zero_row_among_rows_rejected(self):
        x = np.zeros(2)
        rows = RelaxedRule(lambda t, x, m: (np.zeros((2, 2)), np.array([[0.5, 0.5], [0.0, 0.0]])))
        with pytest.raises(ValueError, match="positive total"):
            rows.evaluate(0.0, x, 0.0)

    def test_zero_weight_rows_rejected(self):
        coeffs = lq()
        bad = RelaxedRule(lambda t, x, m: (np.array([0.0, 1.0]), np.array([0.0, 0.0])))
        with pytest.raises(ValueError):
            simulate_relaxed(coeffs, bad, 4, 1.0, 0.1, seed=1)


class TestControlBox:
    def test_foreign_mark_indices_rejected(self):
        coeffs = lq(jumps=JumpSpec([1.0], [1.0], [0.3]))
        bad_path = PoissonPath(np.array([0.5]), np.array([3]))
        with pytest.raises(ValueError):
            simulate_strict(
                coeffs, FeedbackRule.constant(0.0), 4, 1.0, 0.25, seed=1, path=bad_path
            )


class TestSecondMomentStability:
    def test_dt_refinement_keeps_moments(self):
        params = LQParams(
            b1=0.5, b2=0.4, b3=1.0, sigma=0.4, c=1.0, T=1.0,
            jumps=JumpSpec([1.0], [1.0], [0.3]),
        )
        coeffs = lq_coefficients(params)
        rule = FeedbackRule(lambda t, x, m: -0.8 * (x - m) - 0.2 * m)
        sups = []
        for dt in (0.02, 0.01):
            tops = []
            for scen in range(4):
                cloud = simulate_strict(
                    coeffs, rule, 256, 1.0, dt, seed=33, scenario=scen,
                    init=InitSpec("gaussian", mean=1.0, std=0.5),
                )
                tops.append(np.max(np.mean(cloud.states**2, axis=1)))
            sups.append(np.mean(tops))
        assert np.isfinite(sups).all()
        assert 0.5 < sups[0] / sups[1] < 2.0


class TestCost:
    def test_pure_terminal_unit_cost(self):
        coeffs = CoefficientSet(
            jumps=JumpSpec.empty(),
            drift=lambda x, rho, u: 0.0 * x,
            diffusion=lambda x, rho, u: 0.0 * x,
            jump=lambda x, rho, u, mark: 0.0 * x,
            running_cost=lambda x, rho, u: 0.0 * x,
            terminal_cost=lambda x, mu: np.ones_like(x),
        )
        cloud = simulate_strict(coeffs, FeedbackRule.constant(0.0), 4, 1.0, 0.25, seed=1)
        assert cost_of_cloud(cloud, coeffs) == 1.0

    def test_pure_running_cost_is_horizon(self):
        coeffs = CoefficientSet(
            jumps=JumpSpec.empty(),
            drift=lambda x, rho, u: 0.0 * x,
            diffusion=lambda x, rho, u: 0.0 * x,
            jump=lambda x, rho, u, mark: 0.0 * x,
            running_cost=lambda x, rho, u: np.ones_like(x),
            terminal_cost=lambda x, mu: 0.0 * x,
        )
        cloud = simulate_strict(coeffs, FeedbackRule.constant(0.0), 4, 0.7, 0.05, seed=1)
        assert cost_of_cloud(cloud, coeffs) == pytest.approx(0.7, abs=1e-12)

    def test_frozen_lq_cost_is_initial_variance(self):
        coeffs = lq(b3=0.0, c=2.0)
        cloud = simulate_strict(
            coeffs, FeedbackRule.constant(0.0), 128, 1.0, 0.1, seed=8,
            init=InitSpec("gaussian", mean=0.5, std=0.7),
        )
        x0 = cloud.states[0]
        want = 0.5 * 2.0 * np.mean((x0 - x0.mean()) ** 2)
        assert cost_of_cloud(cloud, coeffs) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("case", ["optimal", "gain", "relaxed", "chattering", "idiosyncratic"])
    def test_history_free_cost_equals_cost_of_cloud(self, case):
        from mfcpoisson.lq import solve_riccati
        from mfcpoisson.verify import Perturbation, optimal_feedback_rule

        params = LQParams(
            b1=0.5, b2=0.4, b3=1.0, sigma=0.4, c=1.0, T=1.0,
            jumps=JumpSpec([1.0, 2.0], [1.5, 1.0], [0.3, -0.2]),
        )
        coeffs = lq_coefficients(params)
        mode = "idiosyncratic" if case == "idiosyncratic" else "common"
        sol = solve_riccati(params, mode, 1024)
        relaxed = RelaxedRule.constant(np.array([0.2, 0.8]), np.array([0.3, 0.7]))
        rule = {
            "optimal": optimal_feedback_rule(sol),
            "gain": Perturbation("gain", 1.5).wrap(sol),
            "relaxed": relaxed,
            "chattering": ChatteringRule(relaxed, 8, params.T),
            "idiosyncratic": optimal_feedback_rule(sol),
        }[case]
        run = dict(mode=mode, seed=11, scenario=2, init=InitSpec("gaussian", 1.0, 0.5))
        simulate = simulate_relaxed if case == "relaxed" else simulate_strict
        cloud = simulate(coeffs, rule, 60, params.T, 1 / 200, **run)
        assert cloud.event_log  # the run exercises the jump branch
        assert simulate_record(coeffs, [rule], 60, params.T, 1 / 200, **run).costs[0] == cost_of_cloud(
            cloud, coeffs
        )


class TestChattering:
    def test_dirac_rule_is_constant(self):
        rule = ChatteringRule(RelaxedRule.constant([0.4], [1.0]), 8, 1.0)
        x = np.zeros(3)
        for t in (0.0, 0.1, 0.73, 0.99):
            np.testing.assert_allclose(rule.evaluate(t, x, 0.0), 0.4)

    def test_uniform_two_point_splits_slab_in_half(self):
        rule = ChatteringRule(
            RelaxedRule.constant(np.array([1.0, 2.0]), np.array([0.5, 0.5])), 4, 1.0
        )
        x = np.zeros(1)
        # slab length 0.25: first half at atom 1, second half at atom 2
        assert rule.evaluate(0.0, x, 0.0)[0] == 1.0
        assert rule.evaluate(0.124, x, 0.0)[0] == 1.0
        assert rule.evaluate(0.125, x, 0.0)[0] == 2.0
        assert rule.evaluate(0.249, x, 0.0)[0] == 2.0
        assert rule.evaluate(0.25, x, 0.0)[0] == 1.0

    def test_window_averaged_law_converges(self):
        # FM distance between window-averaged occupation and the target measure
        q = RelaxedRule.constant(np.array([0.2, 0.8]), np.array([0.5, 0.5]))
        # a control measure is a kernel row: its support carries the atoms
        target = EmpiricalMeasure(np.array([0.2, 0.8]), np.array([0.5, 0.5]))
        ts = np.arange(0, 1, 1 / 1024)
        window = 3 / 16

        def diag(n):
            rule = ChatteringRule(q, n, 1.0)
            us = np.array([float(rule.evaluate(t, np.zeros(1), 0.0)[0]) for t in ts])
            vals = []
            for j in range(int(1 / window)):
                sel = us[(ts >= j * window) & (ts < (j + 1) * window)]
                freq = np.array([np.mean(sel == 0.2), np.mean(sel == 0.8)])
                emp = EmpiricalMeasure(np.array([0.2, 0.8]), freq)
                vals.append(fm_distance(emp, target))
            return max(vals)

        ds = [diag(n) for n in (2, 8, 32)]
        assert ds[2] < ds[0]
        assert ds[2] <= 0.5 * ds[0]
        assert ds[1] <= ds[0] + 1e-12


class TestChatteringOracle:
    """Slab controls equal those summed afresh from the relaxed atoms each call."""

    N = 12
    SUPPORT = np.array([0.2, -0.3, 0.8])
    WEIGHTS = np.array([0.25, 0.25, 0.5])  # exact cumulative edges at 1/4 and 1/2

    def rules(self, atoms):
        support, weights = self.SUPPORT, self.WEIGHTS
        if atoms == "shared":
            general = RelaxedRule(lambda t, x, m: (support, weights))
            return RelaxedRule.constant(support, weights), general
        if atoms == "per-row constant":
            rows = np.tile(support, (self.N, 1)) + np.linspace(0.0, 1.0, self.N)[:, None]
            qs = np.tile(weights, (self.N, 1))
            return RelaxedRule.constant(rows, qs), RelaxedRule(lambda t, x, m: (rows, qs))
        fn = lambda t, x, m: (  # noqa: E731
            np.stack([x - m, 0.5 + 0.0 * x, -x], axis=1),
            np.stack([1.0 + 0.0 * x, np.exp(-(x**2)), 0.5 + 0.25 * np.tanh(x)], axis=1),
        )
        return RelaxedRule(fn), RelaxedRule(fn)

    @pytest.mark.parametrize("atoms", ["shared", "per-row constant", "per-row"])
    def test_controls_at_every_node_equal_the_oracle(self, atoms):
        from _oracles import chattering_reference

        relaxed, fresh = self.rules(atoms)
        coeffs = lq(b1=0.5, b2=0.4, sigma=0.4, jumps=JumpSpec([1.0], [2.0], [0.3]))
        cloud = simulate_strict(coeffs, ChatteringRule(relaxed, 4, 1.0), self.N, 1.0, 1 / 64, seed=5)
        thetas = set()
        for k in range(cloud.grid.n_steps):
            t, x = cloud.times[k], cloud.states[k]
            expected = chattering_reference(fresh, 4, 1.0, t, x, x.mean())
            assert cloud.controls[k].tobytes() == expected.tobytes()
            thetas.add(float((t / 0.25) % 1.0))
        assert {0.25, 0.5} <= thetas  # phases exactly on a cumulative-weight edge


class TestConstantRuleCache:
    RUN = dict(n_particles=16, T=1.0, dt=1 / 64, seed=2, scenario=1)
    COEFFS = lq(b1=0.5, b2=0.4, sigma=0.4, jumps=JumpSpec([1.0], [2.0], [0.3]))

    def test_mutating_the_inputs_after_a_run_keeps_the_cost(self):
        support, weights = np.array([0.2, 0.8]), np.array([0.5, 0.5])
        rule = RelaxedRule.constant(support, weights)
        slabs = ChatteringRule(rule, 4, 1.0)
        before = [simulate_record(self.COEFFS, [r], **self.RUN).costs[0] for r in (rule, slabs)]
        support[:] = 5.0
        weights[:] = [1.0, 0.0]
        after = [simulate_record(self.COEFFS, [r], **self.RUN).costs[0] for r in (rule, slabs)]
        assert after == before

    def test_cached_rows_are_read_only_and_built_once_per_cloud_size(self):
        rule = RelaxedRule.constant([0.2, 0.8], [1.0, 3.0])
        rows = rule.evaluate(0.0, np.zeros(5), 0.0)
        assert all(r.shape == (5, 2) and not r.flags.writeable for r in rows)
        assert all(r.flags.c_contiguous for r in rows)
        assert all(not a.flags.writeable for a in rule.atoms(0.0, np.zeros(5), 0.0))
        np.testing.assert_array_equal(rows[1], np.tile([0.25, 0.75], (5, 1)))
        again = rule.evaluate(0.5, np.ones(5), 1.0)
        assert all(a is b for a, b in zip(rows, again))
        assert rule.evaluate(0.0, np.zeros(3), 0.0)[0].shape == (3, 2)
        with pytest.raises(ValueError):
            rows[0][0, 0] = 1.0

    def test_a_rejected_constant_rule_stays_rejected(self):
        rule = RelaxedRule.constant([0.0, np.inf], [0.5, 0.5])
        for t in (0.0, 0.5):
            with pytest.raises(ValueError, match=f"at t={t:.6g}"):
                rule.evaluate(t, np.zeros(4), 0.0)

    def test_a_general_rule_calls_its_function_once_per_step(self):
        calls = []

        def fn(t, x, m):
            calls.append(t)
            return np.array([0.2, 0.8]), np.array([0.5, 0.5])

        n_steps = simulate_strict(self.COEFFS, FeedbackRule.constant(0.0), **self.RUN).grid.n_steps
        simulate_record(self.COEFFS, [RelaxedRule(fn)], **self.RUN)
        assert len(calls) == n_steps
        calls.clear()
        simulate_record(self.COEFFS, [ChatteringRule(RelaxedRule(fn), 4, 1.0)], **self.RUN)
        assert len(calls) == n_steps


def _blows_up_from(t_blow):
    """A control that turns infinite at ``t_blow``; the cloud diverges a step later."""
    return FeedbackRule(lambda t, x, m: np.full_like(x, np.inf if t >= t_blow else -0.5))


class TestPairedFailures:
    """Lock-step raises what running the rules one after another raises first."""

    RUN = dict(n_particles=20, T=1.0, dt=0.01, seed=3, scenario=1)

    def raised(self, rules):
        coeffs = lq(jumps=JumpSpec([1.0], [2.0], [0.3]))
        with np.errstate(all="ignore"):
            try:
                simulate_record(coeffs, rules, **self.RUN)
            except Exception as err:
                paired = err
            for rule in rules:
                try:
                    simulate_record(coeffs, [rule], **self.RUN)
                except Exception as err:
                    return paired, err
        raise AssertionError("no rule failed")

    def test_lowest_rule_divergence_wins_over_an_earlier_one(self):
        paired, alone = self.raised([_blows_up_from(0.6), _blows_up_from(0.2)])
        assert isinstance(paired, DivergenceError) and isinstance(alone, DivergenceError)
        assert (paired.step, paired.time) == (alone.step, alone.time)
        assert paired.time > 0.6  # rule 0's step, not rule 1's

    def test_failure_of_a_higher_rule_is_raised_at_the_end(self):
        def fails_from_04(t, x, m):
            if t >= 0.4:
                raise ValueError(f"rule 1 refuses t={t:.6g}")
            return np.zeros_like(x)

        rules = [FeedbackRule.constant(0.1), FeedbackRule(fails_from_04), _blows_up_from(0.1)]
        paired, alone = self.raised(rules)
        assert type(paired) is ValueError and str(paired) == str(alone)
        assert "rule 1 refuses" in str(paired)

    def test_coefficient_error_is_attributed_to_its_rule(self):
        def running_cost(x, rho, u):
            if np.any(np.asarray(rho.mean_control[0]) > 1.0):
                raise FloatingPointError(f"control mean {np.max(rho.mean_control[0])}")
            return 0.5 * u**2

        coeffs = CoefficientSet(
            jumps=JumpSpec.empty(),
            drift=lambda x, rho, u: u + 0.0 * x,
            diffusion=lambda x, rho, u: 0.1 + 0.0 * x,
            jump=lambda x, rho, u, mark: 0.0 * x,
            running_cost=running_cost,
            terminal_cost=lambda x, mu: 0.0 * x,
        )
        # the whole batch would report 4.0; rule 1 alone reports 3.0
        rules = [FeedbackRule.constant(0.5), FeedbackRule.constant(3.0),
                 FeedbackRule.constant(4.0)]
        with pytest.raises(FloatingPointError, match="control mean 3.0"):
            simulate_record(coeffs, [rules[1]], **self.RUN)
        with pytest.raises(FloatingPointError, match="control mean 3.0"):
            simulate_record(coeffs, rules, **self.RUN)
        assert simulate_record(coeffs, rules[:1], **self.RUN).costs == [
            simulate_record(coeffs, [rules[0]], **self.RUN).costs[0]
        ]

    def test_relaxed_rules_run_alone(self):
        relaxed = RelaxedRule.constant([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="strict"):
            simulate_record(lq(), [FeedbackRule.constant(0.0), relaxed], **self.RUN)


class _CountingRule(FeedbackRule):
    def __init__(self, fn):
        super().__init__(fn)
        self.calls = 0

    def evaluate(self, t, states, cond_mean):
        self.calls += 1
        return super().evaluate(t, states, cond_mean)


class TestReplay:
    """A lock-step failure is told apart by replaying the rules one by one."""

    RUN = dict(n_particles=20, T=1.0, dt=0.01, seed=3, scenario=3)
    COEFFS = lq(jumps=JumpSpec([1.0], [2.0], [0.3]))

    def test_a_successful_run_calls_each_rule_once_per_step(self):
        rules = [_CountingRule(lambda t, x, m: -0.5 * x), _CountingRule(lambda t, x, m: 0.2 + 0.0 * x)]
        simulate_record(self.COEFFS, rules, **self.RUN)
        n_steps = simulate_strict(self.COEFFS, FeedbackRule.constant(0.0), **self.RUN).grid.n_steps
        assert n_steps > 100  # the grid holds event nodes
        assert [rule.calls for rule in rules] == [n_steps, n_steps]

    def test_a_lock_step_only_error_is_raised_when_every_rule_succeeds_alone(self):
        def drift(x, rho, u):
            if np.shape(x)[0] > 1:
                raise FloatingPointError("lock-step input")
            return u + 0.0 * x

        coeffs = CoefficientSet(
            jumps=JumpSpec.empty(),
            drift=drift,
            diffusion=lambda x, rho, u: 0.1 + 0.0 * x,
            jump=lambda x, rho, u, mark: 0.0 * x,
            running_cost=lambda x, rho, u: 0.5 * u**2,
            terminal_cost=lambda x, mu: 0.0 * x,
        )
        rules = [FeedbackRule.constant(0.5), FeedbackRule.constant(-0.5)]
        alone = [simulate_record(coeffs, [rule], **self.RUN).costs[0] for rule in rules]
        assert np.isfinite(alone).all()
        with pytest.raises(FloatingPointError, match="lock-step input"):
            simulate_record(coeffs, rules, **self.RUN)

    def test_a_failing_last_rule_reports_its_serial_step_and_time(self):
        rules = [FeedbackRule.constant(0.1), FeedbackRule.constant(-0.2), _blows_up_from(0.3)]
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError) as alone:
                simulate_record(self.COEFFS, [rules[-1]], **self.RUN)
            with pytest.raises(DivergenceError) as paired:
                simulate_record(self.COEFFS, rules, **self.RUN)
        assert (paired.value.step, paired.value.time) == (alone.value.step, alone.value.time)
        assert paired.value.time > 0.3


class TestDivergenceOnTheLastStep:
    """The finite test covers the final node: a control that turns infinite on
    the last step only diverges at step m_steps, time T."""

    RUN = dict(n_particles=20, T=1.0, dt=0.01, seed=3, scenario=1)
    COEFFS = lq(jumps=JumpSpec([1.0], [2.0], [0.3]))

    def test_alone_and_in_lock_step(self):
        times = simulate_strict(self.COEFFS, FeedbackRule.constant(0.0), **self.RUN).grid.times
        t_last = float(times[-2])
        blow = _blows_up_from(t_last)
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError) as err:
                simulate_strict(self.COEFFS, blow, **self.RUN)
            assert (err.value.step, err.value.time) == (len(times) - 1, 1.0)
            for rules in ([blow], [FeedbackRule.constant(0.1), blow]):
                with pytest.raises(DivergenceError) as err:
                    simulate_record(self.COEFFS, rules, **self.RUN)
                assert (err.value.step, err.value.time) == (len(times) - 1, 1.0)
            # a step earlier, the same rule diverges a node earlier
            with pytest.raises(DivergenceError) as err:
                simulate_record(self.COEFFS, [_blows_up_from(float(times[-3]))], **self.RUN)
            assert (err.value.step, err.value.time) == (len(times) - 2, float(times[-2]))

    def test_derived_rules_sharing_a_feedback(self):
        times = simulate_strict(self.COEFFS, FeedbackRule.constant(0.0), **self.RUN).grid.times
        base = _blows_up_from(float(times[-2])).fn
        rules = [FeedbackRule.derived(base, gain=0.5), FeedbackRule.derived(base)]
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
            simulate_record(self.COEFFS, rules, **self.RUN)
        assert (err.value.step, err.value.time) == (len(times) - 1, 1.0)

    def test_finite_states_whose_sum_overflows_do_not_diverge(self):
        init = InitSpec("atoms", atoms=np.array([1e308]), weights=np.array([1.0]))
        coeffs = lq(b3=0.0, c=0.0)
        run = dict(n_particles=4, T=1.0, dt=0.25, seed=1, init=init)
        rules = [FeedbackRule.constant(0.0), FeedbackRule.constant(1.0)]
        with np.errstate(over="ignore"):
            cloud = simulate_strict(coeffs, rules[0], **run)
            record = simulate_record(coeffs, rules, **run)
            assert np.isfinite(cloud.states).all()
            assert np.isinf(record.means).all()
            assert (record.means[:, 0] == cloud.states.mean(axis=1)).all()


# hand-made common Poisson paths, keyed by scenario, on the base grid of
# dt = 1/64: one event inside base step 10; two inside base step 20; one on
# base node 32; none; one inside base step 10 and one on the last node; one
# on node 32 followed by one inside the next step
HAND_PATHS = {
    0: ([10.5 / 64], [0]),
    1: ([20.25 / 64, 20.75 / 64], [0, 1]),
    2: ([0.5], [1]),
    3: ([], []),
    4: ([10.25 / 64, 1.0], [1, 0]),
    5: ([0.5, 32.5 / 64], [0, 1]),
}


@pytest.fixture
def hand_paths(monkeypatch):
    """Scenario s of a common-noise run gets ``paths[s]``, set by the test."""
    paths = {}
    substream_of = simulate.substream

    def keyed(seed, scenario, purpose):
        return ("poisson", scenario) if purpose == "poisson" else substream_of(seed, scenario, purpose)

    def hand_path(jumps, T, gen):
        return PoissonPath(*paths[gen[1]])

    monkeypatch.setattr(simulate, "substream", keyed)
    monkeypatch.setattr(simulate, "sample_poisson_path", hand_path)
    return paths


class _CountingRelaxed(RelaxedRule):
    def __init__(self, fn):
        super().__init__(fn)
        self.slab_calls = 0

    def slab_atoms(self, t, states, cond_mean):
        self.slab_calls += 1
        return super().slab_atoms(t, states, cond_mean)


class TestScenarioBlocks:
    """Every rule on every scenario of a block is one row of one lock-step
    cloud, and each scenario's record keeps the bits of its run alone."""

    COEFFS = lq(b1=0.5, b2=0.4, sigma=0.4, jumps=JumpSpec([1.0, 2.0], [2.0, 1.5], [0.3, -0.2]))
    RUN = dict(n_particles=40, T=1.0, dt=1 / 64, seed=5)

    def assert_each_alone(self, rules, scenarios, coeffs=None, **run):
        coeffs = coeffs or self.COEFFS
        run = dict(self.RUN, **run)
        block = simulate_records(coeffs, rules, scenarios=scenarios, **run)
        assert len(block) == len(scenarios)
        for s, record in zip(scenarios, block):
            alone = simulate_record(coeffs, rules, scenario=s, **run)
            assert np.array(record.costs).tobytes() == np.array(alone.costs).tobytes()
            assert record.means.shape == alone.means.shape
            assert record.means.tobytes() == alone.means.tobytes()
            assert record.event_log == alone.event_log
        return block

    @staticmethod
    def strict_rules():
        base = lambda t, x, m: -0.7 * x + 0.2 * m  # noqa: E731
        return [
            FeedbackRule.derived(base),
            FeedbackRule(lambda t, x, m: -0.3 * x + np.sin(t)),
            FeedbackRule.derived(base, gain=1.5),
            FeedbackRule.derived(base, offset=-0.25),
        ]

    @pytest.mark.parametrize("mode", ["common", "idiosyncratic"])
    @pytest.mark.parametrize("n_rules", [1, 4])
    def test_each_record_equals_its_scenario_alone(self, mode, n_rules):
        rules = self.strict_rules()[:n_rules]
        block = self.assert_each_alone(rules, range(2, 8), mode=mode)
        assert sum(len(record.event_log) for record in block) > 6

    @pytest.mark.parametrize("n_rules", [1, 3])
    def test_sub_steps_of_events_inside_base_steps(self, hand_paths, n_rules):
        hand_paths.update(HAND_PATHS)
        rules = self.strict_rules()[:n_rules]
        block = self.assert_each_alone(rules, list(HAND_PATHS))
        nodes = [record.means.shape[0] for record in block]
        # the base grid's 65 nodes plus one per event off a base node
        assert nodes == [66, 67, 65, 65, 66, 66]
        assert [len(record.event_log) for record in block] == [1, 2, 1, 0, 2, 2]
        for s, record in zip(HAND_PATHS, block):
            cloud = simulate_strict(self.COEFFS, rules[0], scenario=s, **self.RUN)
            means = record.means if n_rules == 1 else record.means[:, 0]
            assert means.tobytes() == cloud.states.mean(axis=1).tobytes()
            assert record.costs[0] == cost_of_cloud(cloud, self.COEFFS)

    @pytest.mark.parametrize("mode", ["common", "idiosyncratic"])
    @pytest.mark.parametrize("n_atoms", [2, 9])
    def test_a_block_of_a_constant_relaxed_rule(self, mode, n_atoms):
        gen = np.random.default_rng(n_atoms)
        rule = RelaxedRule.constant(gen.normal(size=n_atoms), gen.uniform(0.1, 1.0, n_atoms))
        self.assert_each_alone([rule], range(5), mode=mode)

    def test_a_block_of_a_general_relaxed_rule(self):
        rule = RelaxedRule(lambda t, x, m: (
            np.stack([-0.5 * x, 0.2 + 0.0 * x], axis=1),
            np.stack([1.0 + 0.0 * x, np.exp(-(x**2))], axis=1),
        ))
        self.assert_each_alone([rule], range(3))

    @pytest.mark.parametrize("mode", ["common", "idiosyncratic"])
    def test_a_block_of_slab_rules_shares_one_slab_atoms_call_per_step(self, mode):
        relaxed = _CountingRelaxed.constant([-0.4, 0.3, 1.1], [0.2, 0.5, 0.3])
        rules = [ChatteringRule(relaxed, n, 1.0) for n in (1, 2, 4, 8, 16)]
        self.assert_each_alone(rules, range(4), mode=mode)
        if mode == "idiosyncratic":
            relaxed.slab_calls = 0
            simulate_records(self.COEFFS, rules, scenarios=range(4), mode=mode, **self.RUN)
            assert relaxed.slab_calls == 64  # one per step of the uniform grid

    def test_a_block_over_the_batch_bound_is_split(self, monkeypatch):
        batches = []
        run_batch = simulate._run

        def recording(coeffs, rules, n_particles, init, scenarios, history):
            batches.append([scen.scenario for scen in scenarios])
            return run_batch(coeffs, rules, n_particles, init, scenarios, history)

        rules = self.strict_rules()[:3]
        monkeypatch.setattr(simulate, "BATCH_FLOATS", 2 * 3 * 40 + 1)
        monkeypatch.setattr(simulate, "_run", recording)
        self.assert_each_alone(rules, range(1, 6))
        # 5 scenarios of 3 x 40 floats, at most 2 a batch: 2 + 2 + 1
        assert batches[0] == [1, 2] and batches[1] == [3, 4] and batches[2] == [5]
        assert all(len(batch) == 1 for batch in batches[3:])  # the runs alone

    @pytest.mark.parametrize("n_rules", [1, 2])
    def test_the_error_is_the_one_the_serial_run_raises_first(self, hand_paths, n_rules):
        # a mark-1 event lifts the cloud mean by 50, and the first rule then
        # plays an infinite control; scenario 3's event comes first in time
        hand_paths.update({0: ([0.2], [0]), 1: ([], []), 2: ([0.7], [1]), 3: ([0.3], [1])})
        coeffs = lq(jumps=JumpSpec([1.0, 2.0], [1.0, 0.01], [0.3, 50.0]))
        rules = [
            FeedbackRule(lambda t, x, m: np.full_like(x, np.inf if m > 20.0 else 1.0)),
            FeedbackRule.constant(0.1),
        ][:n_rules]
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError) as alone:
                simulate_record(coeffs, rules, scenario=2, **self.RUN)
            with pytest.raises(DivergenceError) as block:
                simulate_records(coeffs, rules, scenarios=range(4), **self.RUN)
        assert type(block.value) is type(alone.value)
        assert (block.value.step, block.value.time) == (alone.value.step, alone.value.time)
        assert 0.7 < block.value.time < 0.75

    def test_a_later_rule_in_an_earlier_scenario_wins(self, hand_paths):
        # rule 1 diverges late on scenario 0; rule 0 diverges earlier in time,
        # but on scenario 1, after its mark-1 event lifts the mean by 50
        hand_paths.update({0: ([], []), 1: ([0.3], [1])})
        coeffs = lq(jumps=JumpSpec([1.0, 2.0], [1.0, 0.01], [0.3, 50.0]))
        rules = [
            FeedbackRule(lambda t, x, m: np.full_like(x, np.inf if m > 20.0 else 1.0)),
            _blows_up_from(0.8),
        ]
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError) as first:
                simulate_record(coeffs, [rules[1]], scenario=0, **self.RUN)
            with pytest.raises(DivergenceError) as earlier:
                simulate_record(coeffs, [rules[0]], scenario=1, **self.RUN)
            with pytest.raises(DivergenceError) as block:
                simulate_records(coeffs, rules, scenarios=range(2), **self.RUN)
        assert earlier.value.time < first.value.time
        assert (block.value.step, block.value.time) == (first.value.step, first.value.time)
        assert 0.8 < block.value.time < 0.85


class TestLeanStepMeans:
    """The step's batched means have the bits of each row's own computation."""

    @staticmethod
    def clouds(gen):
        """(R, N) arrays: R in 1..16, N in 2..5,000, scales 1e-3..1e3.

        16 rows of 1,000 particles is the largest batch at that N
        (``simulate.BATCH_FLOATS``)."""
        sizes = [2, 3, 7, 8, 9, 16, 17, 127, 128, 129, 1000, 4999, 5000]
        sizes += [int(n) for n in np.exp(gen.uniform(np.log(2), np.log(5000), 60))]
        for n in sizes:
            for n_rows in range(1, 17):
                scale = 10.0 ** gen.uniform(-3.0, 3.0)
                yield scale * (gen.normal() + gen.standard_normal((n_rows, n)))

    def test_batched_law_means_equal_the_per_row_products(self):
        gen = np.random.default_rng(18)
        for x in self.clouds(gen):
            n_rows, n = x.shape
            u = np.ascontiguousarray(-0.7 * x[::-1] + gen.normal())
            w = np.full(n, 1.0 / n)
            law = simulate._PairedLaw(x, u, w)
            assert law.mean_state.shape == law.mean_control.shape == (1, n_rows, 1)
            for r in range(n_rows):
                assert law.mean_state[0, r].tobytes() == (w @ x[r].reshape(-1, 1)).tobytes()
                assert law.mean_control[0, r].tobytes() == (w @ u[r].reshape(-1, 1)).tobytes()

    def test_row_sums_over_n_equal_each_rows_mean(self):
        gen = np.random.default_rng(19)
        for x in self.clouds(gen):
            means = np.add.reduce(x, axis=1) / x.shape[1]
            assert means.tobytes() == np.array([row.mean() for row in x]).tobytes()


class TestRelaxedLoopOracle:
    """The loop equals a step-by-step run through validated joints, under a
    relaxed rule or under a strict one, whose oracle runs its Dirac rule."""

    @staticmethod
    def rule(atoms):
        if atoms == "strict":
            return FeedbackRule(lambda t, x, m: 0.3 * m - 0.5 * x + np.sin(3.0 * t))
        if atoms == "shared":
            return RelaxedRule.constant([-0.4, 0.3, 1.1], [0.2, 0.5, 0.3])
        return RelaxedRule(lambda t, x, m: (
            np.stack([-0.5 * x, 0.2 + 0.0 * x, m - x + np.sin(3.0 * t)], axis=1),
            np.stack([1.0 + 0.0 * x, np.exp(-(x**2)), 0.5 + 0.25 * np.tanh(x)], axis=1),
        ))

    @pytest.mark.parametrize("marks", [1, 2])
    @pytest.mark.parametrize("mode", ["common", "idiosyncratic"])
    @pytest.mark.parametrize("atoms", ["shared", "per-row", "strict"])
    def test_states_and_costs_equal_the_oracle(self, atoms, mode, marks):
        from _oracles import relaxed_euler_reference

        spec = JumpSpec([1.0], [2.0], [0.3]) if marks == 1 else JumpSpec(
            [1.0, 2.0], [1.5, 1.0], [0.3, -0.2]
        )
        coeffs = lq(b1=0.5, b2=0.4, sigma=0.4, jumps=spec)
        rule = self.rule(atoms)
        run = dict(mode=mode, seed=4, scenario=2, init=InitSpec("gaussian", 1.0, 0.5))
        oracle_rule, simulate = rule, simulate_relaxed
        if rule.kind == "strict":
            oracle_rule = RelaxedRule(
                lambda t, x, m: (rule.evaluate(t, x, m)[:, None], np.ones((len(x), 1)))
            )
            simulate = simulate_strict
        states, cost = relaxed_euler_reference(coeffs, oracle_rule, 30, 1.0, 0.01, **run)
        cloud = simulate(coeffs, rule, 30, 1.0, 0.01, **run)
        assert {mark for _, mark, _ in cloud.event_log} == set(range(marks))
        assert cloud.states.shape == states.shape
        assert np.array_equal(cloud.states, states)
        assert cost_of_cloud(cloud, coeffs) == cost
        assert simulate_record(coeffs, [rule], 30, 1.0, 0.01, **run).costs[0] == cost


    def test_two_marks_of_one_particle_in_one_step_equal_the_oracle(self):
        """A block of S = 3 scenarios x R = 3 paired rules; at lambda = 40 and
        dt = 0.05 a particle owns events of both marks in one step, and its
        jumps add up in their time order."""
        from _oracles import relaxed_euler_reference

        spec = JumpSpec([1.0, 2.0], [25.0, 15.0], [0.3, -0.2])
        coeffs = lq(b1=0.5, b2=0.4, sigma=0.4, jumps=spec)
        base = self.rule("strict").fn
        rules = [FeedbackRule.derived(base), FeedbackRule.derived(base, gain=1.5),
                 FeedbackRule.derived(base, offset=-0.2)]
        n, T, dt, seed, scenarios = 30, 1.0, 0.05, 4, [2, 3, 4]
        init = InitSpec("gaussian", 1.0, 0.5)
        records = simulate_records(coeffs, rules, n, T, dt, mode="idiosyncratic", seed=seed,
                                   scenarios=scenarios, init=init)
        mixed_steps = 0
        for s, record in zip(scenarios, records):
            for r, rule in enumerate(rules):
                oracle_rule = RelaxedRule(lambda t, x, m, rule=rule: (
                    rule.evaluate(t, x, m)[:, None], np.ones((len(x), 1))
                ))
                run = dict(mode="idiosyncratic", seed=seed, scenario=s, init=init)
                states, cost = relaxed_euler_reference(coeffs, oracle_rule, n, T, dt, **run)
                cloud = simulate_strict(coeffs, rule, n, T, dt, **run)
                assert np.array_equal(cloud.states, states)
                assert record.costs[r] == cost
            for path in cloud.paths:
                steps = np.searchsorted(cloud.grid.times, path.times, side="left")
                for step in set(steps.tolist()):
                    mixed_steps += len(set(path.marks[steps == step].tolist())) > 1
        assert mixed_steps > 0


class TestMapScenarios:
    def test_forked_workers_run_a_closure_in_scenario_order(self):
        offset = 10
        results = map_blocks(
            lambda block: [(s + offset, os.getpid()) for s in block], 5, workers=2
        )
        assert [value for value, _ in results] == [10, 11, 12, 13, 14]
        pids = {pid for _, pid in results}
        assert os.getpid() not in pids and 1 <= len(pids) <= 2

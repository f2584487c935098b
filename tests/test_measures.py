import numpy as np
import pytest

from mfcpoisson.errors import CoverageError, DimensionMismatchError, SizeLimitError
from mfcpoisson.measures import (
    EmpiricalMeasure,
    JointEmpiricalMeasure,
    RelaxedKernel,
    extend,
    fm_distance,
    joint_with_kernel,
    kr_distance,
    second_moment,
    transport_cost,
)

from _oracles import FM_LATTICE, fm_bruteforce_1d, project_reference
from conftest import random_measure


def dirac(x):
    return EmpiricalMeasure(np.array([[float(x)]]), np.array([1.0]))


class TestConstruction:
    def test_weights_must_normalize(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.6]))

    def test_weights_nonnegative(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure(np.array([[0.0], [1.0]]), np.array([1.5, -0.5]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure(np.array([[0.0]]), np.array([0.5, 0.5]))

    @pytest.mark.parametrize(
        "weights",
        [[np.nan, 1.0], [np.nan, np.nan], [0.5, np.nan], [np.inf, 1.0], [np.inf, -np.inf]],
    )
    def test_non_finite_weights_rejected(self, weights):
        with pytest.raises(ValueError):
            EmpiricalMeasure(np.array([0.0, 1.0]), np.array(weights))
        with pytest.raises(ValueError):
            JointEmpiricalMeasure.strict([0.0, 1.0], [0.0, 0.0], np.array(weights))

    def test_atoms_are_immutable(self):
        mu = dirac(0.0)
        with pytest.raises(ValueError):
            mu.atoms[0, 0] = 1.0


class TestSerialization:
    def test_round_trip(self):
        mu = EmpiricalMeasure(np.array([[0.0, 1.0], [2.0, -1.0]]), np.array([0.25, 0.75]))
        back = EmpiricalMeasure.from_json(mu.to_json())
        np.testing.assert_array_equal(back.atoms, mu.atoms)
        np.testing.assert_allclose(back.weights, mu.weights, rtol=0, atol=1e-15)

    def test_load_renormalizes_within_tolerance(self):
        data = {"atoms": [[0.0], [1.0]], "weights": [0.5 + 2e-10, 0.5]}
        mu = EmpiricalMeasure.from_dict(data)
        assert abs(mu.weights.sum() - 1.0) < 1e-15

    def test_load_rejects_bad_normalization(self):
        data = {"atoms": [[0.0], [1.0]], "weights": [0.6, 0.5]}
        with pytest.raises(ValueError):
            EmpiricalMeasure.from_dict(data)

    @pytest.mark.parametrize("weights", ["[NaN, 1.0]", "[NaN, NaN]", "[Infinity, 1.0]"])
    def test_load_rejects_non_finite_weights(self, weights):
        with pytest.raises(ValueError):
            EmpiricalMeasure.from_json(f'{{"atoms": [[0.0], [1.0]], "weights": {weights}}}')

    def test_joint_round_trip(self):
        rho = JointEmpiricalMeasure.strict([[0.0], [1.0]], [[2.0], [3.0]])
        back = JointEmpiricalMeasure.from_json(rho.to_json())
        np.testing.assert_array_equal(back.states, rho.states)
        np.testing.assert_array_equal(back.controls, rho.controls)


class TestFmDistance:
    def test_identical_measures(self):
        assert fm_distance(dirac(0.0), dirac(0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_distant_diracs_truncate_at_two(self):
        # oracle: f(0)=1, f(3)=-1 is feasible, so the sup saturates at 2
        val = fm_distance(dirac(0.0), dirac(3.0))
        assert val == pytest.approx(2.0, abs=1e-9)
        assert val == pytest.approx(
            fm_bruteforce_1d([0.0], [1.0], [3.0], [1.0]), abs=1e-9
        )

    def test_close_diracs_untruncated(self):
        val = fm_distance(dirac(0.0), dirac(0.5))
        assert val == pytest.approx(0.5, abs=1e-9)
        assert val == pytest.approx(
            fm_bruteforce_1d([0.0], [1.0], [0.5], [1.0]), abs=1e-9
        )

    def test_agrees_with_bruteforce_on_random_pairs(self, rng):
        for _ in range(10):
            na, nb = rng.integers(1, 5, size=2)
            a = random_measure(rng, int(na), lattice=FM_LATTICE)
            b = random_measure(rng, int(nb), lattice=FM_LATTICE)
            oracle = fm_bruteforce_1d(
                a.atoms.ravel(), a.weights, b.atoms.ravel(), b.weights
            )
            assert fm_distance(a, b) == pytest.approx(oracle, abs=1e-6)

    def test_dimension_mismatch(self):
        a = EmpiricalMeasure(np.zeros((1, 1)), np.array([1.0]))
        b = EmpiricalMeasure(np.zeros((1, 2)), np.array([1.0]))
        with pytest.raises(DimensionMismatchError):
            fm_distance(a, b)

    def test_size_limit(self, rng):
        big = random_measure(rng, 65)
        with pytest.raises(SizeLimitError):
            fm_distance(big, big)

    def test_bounded_by_two(self, rng):
        for _ in range(20):
            a = random_measure(rng, int(rng.integers(1, 6)), span=50.0)
            b = random_measure(rng, int(rng.integers(1, 6)), span=50.0)
            assert fm_distance(a, b) <= 2.0 + 1e-9

    def test_metric_properties(self, rng):
        for _ in range(12):
            triple = [random_measure(rng, 5) for _ in range(3)]
            d01 = fm_distance(triple[0], triple[1])
            d10 = fm_distance(triple[1], triple[0])
            d12 = fm_distance(triple[1], triple[2])
            d02 = fm_distance(triple[0], triple[2])
            assert d01 >= -1e-12
            assert d01 == pytest.approx(d10, abs=1e-9)
            assert d02 <= d01 + d12 + 1e-9


#: support value of the zero-weight atoms that pad ragged kernel rows
PAD = 7.0


def relaxed_point(x, support, weights=(1.0,)):
    """The one-atom relaxed joint at x with control measure (support, weights)."""
    return dirac(x), RelaxedKernel([support], [weights])


def ragged_joint(states, rows, weights, width=None):
    """(mu, kernel) of a relaxed joint whose (support, weights) rows have any
    lengths, padded with zero-weight atoms at PAD to ``width`` columns (by
    default the longest row)."""
    width = width or max(len(support) for support, _ in rows)
    supports = np.full((len(rows), width), PAD)
    q = np.zeros((len(rows), width))
    for i, (support, q_weights) in enumerate(rows):
        supports[i, : len(support)] = np.ravel(support)
        q[i, : len(q_weights)] = q_weights
    return EmpiricalMeasure(states, weights), RelaxedKernel(supports, q)


def random_ragged_rows(rng, n_atoms, lengths=(1, 2)):
    rows = []
    for _ in range(n_atoms):
        k = int(rng.integers(lengths[0], lengths[1] + 1))
        w = rng.uniform(0.2, 1.0, size=k)
        rows.append((rng.uniform(-1, 1, size=k), w / w.sum()))
    return rows


def random_relaxed(rng, n_atoms=5):
    rows = random_ragged_rows(rng, n_atoms)
    w = rng.uniform(0.2, 1.0, size=n_atoms)
    return ragged_joint(rng.uniform(-2, 2, size=(n_atoms, 1)), rows, w / w.sum())


class TestKrDistance:
    def test_identity(self):
        xi = relaxed_point(0.0, [0.3])
        assert kr_distance(*xi, *xi) == pytest.approx(0.0, abs=1e-12)

    def test_state_shift_only(self):
        assert kr_distance(
            *relaxed_point(0.0, [0.7]), *relaxed_point(1.0, [0.7])
        ) == pytest.approx(1.0, abs=1e-9)

    def test_control_shift_only(self):
        assert kr_distance(
            *relaxed_point(0.0, [0.1]), *relaxed_point(0.0, [0.4])
        ) == pytest.approx(0.3, abs=1e-9)

    def test_rejects_kernel_not_covering_its_law(self):
        mu = EmpiricalMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        kernel = RelaxedKernel.dirac([0.0])
        xi = relaxed_point(0.0, [0.0])
        with pytest.raises(CoverageError):
            kr_distance(mu, kernel, *xi)
        with pytest.raises(CoverageError):
            kr_distance(*xi, mu, kernel)

    def test_metric_properties(self, rng):
        for _ in range(6):
            xs = [random_relaxed(rng) for _ in range(3)]
            d01 = kr_distance(*xs[0], *xs[1])
            assert d01 >= -1e-12
            assert d01 == pytest.approx(kr_distance(*xs[1], *xs[0]), abs=1e-9)
            assert kr_distance(*xs[0], *xs[2]) <= d01 + kr_distance(*xs[1], *xs[2]) + 1e-9

    def test_dominates_projected_transport_for_dirac_controls(self, rng):
        # strict-joint FM transport with cost min(|dx|+|du|, 2) never exceeds kr
        for _ in range(8):
            n = int(rng.integers(1, 5))
            xis = []
            for _ in range(2):
                kernel = RelaxedKernel.dirac(rng.uniform(-1, 1, size=n))
                w = rng.uniform(0.2, 1.0, size=n)
                mu = EmpiricalMeasure(rng.uniform(-2, 2, size=(n, 1)), w / w.sum())
                xis.append((mu, kernel))
            p0, p1 = joint_with_kernel(*xis[0]), joint_with_kernel(*xis[1])
            dx = np.abs(p0.states[:, None, 0] - p1.states[None, :, 0])
            du = np.abs(p0.controls[:, None, 0] - p1.controls[None, :, 0])
            proj_dist = transport_cost(p0.weights, p1.weights, np.minimum(dx + du, 2.0))
            assert kr_distance(*xis[0], *xis[1]) >= proj_dist - 1e-9


class TestProject:
    def test_dirac_control(self):
        rho = joint_with_kernel(*relaxed_point(1.5, [0.25]))
        assert rho.n_atoms == 1
        assert rho.states[0, 0] == 1.5
        assert rho.controls[0, 0] == 0.25
        assert rho.weights[0] == 1.0

    def test_two_point_expansion(self):
        rho = joint_with_kernel(*relaxed_point(0.0, [-1.0, 1.0], [0.5, 0.5]))
        np.testing.assert_allclose(rho.controls.ravel(), [-1.0, 1.0])
        np.testing.assert_allclose(rho.weights, [0.5, 0.5])

    def test_mixture_expands_to_four_atoms(self):
        rows = [([0.0, 1.0], [0.3, 0.7]), ([-1.0, 2.0], [0.6, 0.4])]
        rho = joint_with_kernel(*ragged_joint([0.0, 5.0], rows, [0.25, 0.75]))
        assert rho.n_atoms == 4
        np.testing.assert_allclose(
            rho.weights, [0.25 * 0.3, 0.25 * 0.7, 0.75 * 0.6, 0.75 * 0.4]
        )

    def test_affine_in_the_measure(self, rng):
        # projecting a lambda-mixture equals the mixture of projections atomwise
        lam = 0.3
        rows = [(rng.uniform(-1, 1, size=2), [0.4, 0.6]) for _ in range(4)]
        xi1 = ragged_joint(rng.normal(size=(2, 1)), rows[:2], [0.5, 0.5])
        xi2 = ragged_joint(rng.normal(size=(2, 1)), rows[2:], [0.2, 0.8])
        mix = ragged_joint(
            np.vstack([xi1[0].atoms, xi2[0].atoms]),
            rows,
            np.concatenate([lam * xi1[0].weights, (1 - lam) * xi2[0].weights]),
        )
        got = joint_with_kernel(*mix)
        p1, p2 = joint_with_kernel(*xi1), joint_with_kernel(*xi2)
        np.testing.assert_allclose(got.states, np.vstack([p1.states, p2.states]))
        np.testing.assert_allclose(
            got.weights, np.concatenate([lam * p1.weights, (1 - lam) * p2.weights])
        )

    def test_rejects_a_law_that_is_not_scalar(self):
        mu = EmpiricalMeasure(np.array([[1.0, 5.0], [2.0, -3.0]]), np.array([0.5, 0.5]))
        with pytest.raises(DimensionMismatchError):
            joint_with_kernel(mu, RelaxedKernel.dirac([0.0, 0.0]))

    def test_equals_the_ragged_oracle_bit_for_bit(self, rng):
        for n, a in ((1, 1), (3, 1), (4, 3), (7, 5)):
            rows = random_ragged_rows(rng, n, lengths=(a, a))
            w = rng.uniform(0.2, 1.0, size=n)
            mu, kernel = ragged_joint(rng.normal(size=n), rows, w / w.sum())
            got = joint_with_kernel(mu, kernel)
            want = project_reference(mu.atoms[:, 0], rows, mu.weights)
            for name in ("states", "controls", "weights"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    def test_padded_kernel_equals_the_oracle_without_its_padding(self, rng):
        for n, width in ((2, 3), (5, 3), (6, 6)):
            rows = random_ragged_rows(rng, n, lengths=(1, 3))
            w = rng.uniform(0.2, 1.0, size=n)
            mu, kernel = ragged_joint(rng.normal(size=n), rows, w / w.sum(), width)
            got = joint_with_kernel(mu, kernel)
            want = project_reference(mu.atoms[:, 0], rows, mu.weights)
            real = (np.arange(width) < np.array([len(s) for s, _ in rows])[:, None]).ravel()
            assert np.all(got.weights[~real] == 0.0)
            for name in ("states", "controls", "weights"):
                np.testing.assert_array_equal(getattr(got, name)[real], getattr(want, name))


def clipped_m2sq(rho):
    vals = np.sum(rho.states**2, axis=1) + np.sum(rho.controls**2, axis=1)
    return float(rho.weights @ np.minimum(vals, 1.0))


class TestExtend:
    def test_total_mass(self):
        xi = relaxed_point(3.0, [-1.0])
        assert extend(lambda rho: float(rho.weights.sum()), *xi) == pytest.approx(1.0)

    def test_dirac_control_consistency(self):
        # lifting a strict joint through Dirac controls changes nothing
        rho = JointEmpiricalMeasure.strict(
            [[0.5], [1.0], [-2.0]], [[0.1], [0.2], [0.3]], [0.2, 0.3, 0.5]
        )
        h = lambda r: second_moment(r) ** 2
        xi = (rho.state_marginal(), RelaxedKernel.dirac(rho.controls))
        assert extend(h, *xi) == pytest.approx(h(rho), abs=1e-12)

    def test_linear_functional_mixes(self):
        h = lambda r: float(r.weights @ r.controls[:, 0])
        rows = [([0.0, 1.0], [0.5, 0.5]), ([2.0], [1.0])]
        xi = ragged_joint(np.zeros((2, 1)), rows, np.array([0.5, 0.5]))
        assert extend(h, *xi) == pytest.approx(0.5 * 0.5 + 0.5 * 2.0)

    def test_lipschitz_transfer(self, rng):
        # clip(|x|^2+|u|^2, 1) is 2-Lipschitz and bounded by 1, so its measure
        # functional transfers through the projection with constant 2
        for _ in range(6):
            xis = []
            for _ in range(2):
                n = int(rng.integers(1, 4))
                rows = [(rng.uniform(-1, 1, size=2), [0.5, 0.5]) for _ in range(n)]
                w = rng.uniform(0.2, 1.0, size=n)
                states = rng.uniform(-1.5, 1.5, size=(n, 1))
                xis.append(ragged_joint(states, rows, w / w.sum()))
            gap = abs(extend(clipped_m2sq, *xis[0]) - extend(clipped_m2sq, *xis[1]))
            assert gap <= 2.0 * kr_distance(*xis[0], *xis[1]) + 1e-9


class TestZeroWeightPadding:
    """Zero-weight atoms padding a kernel's rows leave the relaxed joint as it is."""

    @staticmethod
    def _forms(rng, n_atoms, lengths):
        # one relaxed joint at its narrowest width, and padded two columns wider
        rows = random_ragged_rows(rng, n_atoms, lengths)
        w = rng.uniform(0.2, 1.0, size=n_atoms)
        states = rng.uniform(-2, 2, size=(n_atoms, 1))
        width = max(len(support) for support, _ in rows)
        return [ragged_joint(states, rows, w / w.sum(), width + extra) for extra in (0, 2)]

    @pytest.mark.parametrize("lengths", [(2, 2), (1, 3)], ids=["unpadded", "ragged"])
    def test_kr_distance(self, rng, lengths):
        for _ in range(4):
            a, a_padded = self._forms(rng, 4, lengths)
            b, b_padded = self._forms(rng, 3, lengths)
            assert kr_distance(*a_padded, *b_padded) == pytest.approx(
                kr_distance(*a, *b), abs=1e-12
            )

    @pytest.mark.parametrize("lengths", [(2, 2), (1, 3)], ids=["unpadded", "ragged"])
    def test_extend(self, rng, lengths):
        for _ in range(4):
            xi, padded = self._forms(rng, 5, lengths)
            assert extend(clipped_m2sq, *padded) == pytest.approx(
                extend(clipped_m2sq, *xi), abs=1e-12
            )


class TestKernelAverage:
    """``RelaxedKernel.average`` has the bits of numpy's row sum of products."""

    @staticmethod
    def _values(rng, n, a):
        vals = rng.standard_normal((n, a)) * 10.0 ** rng.integers(-6, 7, (n, a))
        vals[rng.random((n, a)) < 0.25] = -0.0
        return vals

    @staticmethod
    def _weights(rng, a):
        w = rng.random(a)
        w[rng.random(a) < 0.3] = 0.0
        w[rng.integers(a)] += 0.5
        return w / w.sum()

    @pytest.mark.parametrize("n", [1, 7, 1000])
    @pytest.mark.parametrize("a", range(1, 13))
    def test_bits_equal_the_row_sum(self, rng, a, n):
        for _ in range(4):
            w = self._weights(rng, a)
            for weights in (np.broadcast_to(w, (n, a)), np.tile(w, (n, 1))):
                kernel = RelaxedKernel.trusted(np.zeros((n, a)), weights)
                vals = self._values(rng, n, a)
                for v in (vals, vals[:, :1], np.float64(-0.0)):
                    expected = (np.broadcast_to(v, (n, a)) * weights).sum(axis=1)
                    got = kernel.average(v)
                    assert got.shape == expected.shape
                    assert got.tobytes() == expected.tobytes()


class TestSecondMoment:
    def test_zero(self):
        rho = JointEmpiricalMeasure.strict([[0.0]], [[0.0]])
        assert second_moment(rho) == 0.0

    def test_pythagorean_point(self):
        rho = JointEmpiricalMeasure.strict([[3.0]], [[4.0]])
        assert second_moment(rho) == pytest.approx(5.0, abs=1e-12)

    def test_two_point_average(self):
        rho = JointEmpiricalMeasure.strict(
            [[1.0], [0.0]], [[0.0], [1.0]], [0.5, 0.5]
        )
        assert second_moment(rho) == pytest.approx(1.0, abs=1e-12)

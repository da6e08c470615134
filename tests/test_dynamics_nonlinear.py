"""State-dependent precession: right-hand side, closed form, integrator, policies.

The closed form is checked against the fixed-step integrator, which consumes
only the right-hand side; expected waveforms are written out locally where a
test asserts them.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import bloch_array, closed_form, eom_rhs, integrate_rk4
from spinpair.cli import CROSSOVER
from spinpair.dynamics_nonlinear import (
    ROWS,
    EvolutionPolicy,
    Rotation,
    WeightedSum,
    _rotation_points,
    evolve_ensemble,
    grid_points,
    time_grid,
)
from spinpair.scenarios import MAX_ANGLE
from spinpair.states import (
    DIAG_MINUS,
    DIAG_PLUS,
    DOWN,
    SINGLET,
    UP,
    BlochVector,
    Branch,
    Ensemble,
    NotProductError,
    correlated_ensemble,
    product_ensemble,
)

SQRT2 = np.sqrt(2.0)

# The three standard initial conditions: poles, diagonal pure state,
# diagonal mixture.
POLE = BlochVector(0.0, 0.0, 1.0)
DIAG = BlochVector(1.0 / SQRT2, 0.0, 1.0 / SQRT2)


def mixture_bloch(p):
    a = (2.0 * p - 1.0) / SQRT2
    return BlochVector(a, 0.0, a)


BLOCH_BALL = (
    st.tuples(*[st.floats(-1.0, 1.0)] * 3)
    .filter(lambda c: c[0] ** 2 + c[1] ** 2 + c[2] ** 2 <= 1.0)
    .map(lambda c: BlochVector(*c))
)


def pure_state(theta, phi):
    """Normalized 2-vector at polar angle theta and azimuth phi on the Bloch sphere."""
    return np.array([np.cos(theta / 2.0), np.exp(1.0j * phi) * np.sin(theta / 2.0)])


class TestEomRhs:
    def test_pole_is_a_fixed_point(self):
        np.testing.assert_array_equal(eom_rhs(POLE, 1.0), np.zeros(3))

    def test_diagonal_state_value(self):
        """Direct substitution: (-2*1*(1/sqrt2)*0, 2*1*(1/sqrt2)*(1/sqrt2), 0)."""
        np.testing.assert_allclose(eom_rhs(DIAG, 1.0), [0.0, 1.0, 0.0], atol=1e-15)

    def test_equator_is_frozen(self):
        """Zero third component means zero precession frequency."""
        np.testing.assert_array_equal(eom_rhs(BlochVector(0.6, -0.3, 0.0), 2.5), np.zeros(3))

    def test_scales_linearly_with_epsilon(self):
        b = BlochVector(0.2, 0.4, 0.5)
        np.testing.assert_allclose(eom_rhs(b, 3.0), 3.0 * eom_rhs(b, 1.0), atol=1e-15)


class TestClosedForm:
    def test_time_zero_returns_start(self):
        out = closed_form(DIAG, 1.0, 0.0)
        assert (out.s1, out.s2, out.s3) == (DIAG.s1, DIAG.s2, DIAG.s3)

    def test_diagonal_state_waveform(self):
        """s2(t) = (1/sqrt2) sin(sqrt2 eps t) for the diagonal pure state."""
        eps = 1.3
        for t in np.linspace(0.0, 8.0, 17):
            out = closed_form(DIAG, eps, t)
            assert out.s2 == pytest.approx(np.sin(SQRT2 * eps * t) / SQRT2, abs=1e-12)
            assert out.s3 == DIAG.s3

    def test_mixture_waveform(self):
        """s2(t) = ((2p-1)/sqrt2) sin(sqrt2 (2p-1) eps t) for the mixture."""
        p, eps = 0.75, 1.0
        for t in np.linspace(0.0, 8.0, 17):
            out = closed_form(mixture_bloch(p), eps, t)
            expected = ((2.0 * p - 1.0) / SQRT2) * np.sin(SQRT2 * (2.0 * p - 1.0) * eps * t)
            assert out.s2 == pytest.approx(expected, abs=1e-12)

    def test_sign_cases_give_identical_second_component(self):
        """Flipping the diagonal state flips both the amplitude and the
        frequency; the second component comes out the same, exactly."""
        flipped = BlochVector(-DIAG.s1, 0.0, -DIAG.s3)
        for t in np.linspace(0.0, 8.0, 33):
            assert closed_form(DIAG, 1.0, t).s2 == closed_form(flipped, 1.0, t).s2

    def test_radius_is_preserved(self):
        b = BlochVector(0.3, -0.4, 0.5)
        out = closed_form(b, 2.0, 7.7)
        radius = np.linalg.norm(bloch_array(b))
        assert np.linalg.norm(bloch_array(out)) == pytest.approx(radius, abs=1e-12)
        assert out.s3 == b.s3


class TestTimeGrid:
    def test_exact_multiple(self):
        grid = time_grid(1.0, 0.25)
        np.testing.assert_allclose(grid, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-15)
        assert grid[-1] == 1.0

    def test_partial_final_step(self):
        grid = time_grid(1.0, 0.3)
        np.testing.assert_allclose(grid, [0.0, 0.3, 0.6, 0.9, 1.0], atol=1e-15)

    def test_default_scale_lands_exactly(self):
        grid = time_grid(10.0, 1e-3)
        assert grid[0] == 0.0
        assert grid[-1] == 10.0
        assert grid.size == 10001

    def test_zero_horizon(self):
        np.testing.assert_array_equal(time_grid(0.0, 0.1), [0.0])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(t_max=st.floats(1e-3, 50.0), dt=st.floats(1e-3, 1.0))
    def test_matches_the_step_by_step_construction(self, t_max, dt):
        """Steps of dt up to t_max, the last one landing on t_max exactly or
        shortened; grid_points counts them without building the grid."""
        assume(dt <= t_max)
        count = int(np.floor(t_max / dt + 1e-9))
        expected = dt * np.arange(count + 1, dtype=float)
        if expected[-1] >= t_max - 1e-9 * dt:
            expected[-1] = t_max
        else:
            expected = np.append(expected, t_max)
        np.testing.assert_array_equal(time_grid(t_max, dt), expected)
        assert grid_points(t_max, dt) == expected.size


class TestIntegrateRk4:
    def test_pole_stays_put(self):
        times, points = integrate_rk4(POLE, 1.0, 2.0, 1e-2)
        np.testing.assert_array_equal(points, np.tile([0.0, 0.0, 1.0], (times.size, 1)))

    @pytest.mark.parametrize(
        "start", [POLE, BlochVector(0.0, 0.0, -1.0), DIAG, mixture_bloch(0.75)]
    )
    def test_agrees_with_closed_form(self, start):
        """The integrator sees only the right-hand side; agreement with the
        rotation kernel that closed_form shares with evolve_ensemble
        validates both."""
        times, points = integrate_rk4(start, 1.0, 10.0, 1e-3)
        expected = np.array([bloch_array(closed_form(start, 1.0, t)) for t in times])
        assert np.max(np.abs(points - expected)) < 1e-8

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(start=BLOCH_BALL, eps=st.floats(-3.0, 3.0), t_max=st.floats(0.5, 5.0))
    def test_agrees_with_closed_form_anywhere_in_the_ball(self, start, eps, t_max):
        """The same agreement for any start, coupling and horizon."""
        times, points = integrate_rk4(start, eps, t_max, 1e-3)
        expected = np.array([bloch_array(closed_form(start, eps, t)) for t in times])
        assert np.max(np.abs(points - expected)) < 1e-8

    def test_third_component_never_drifts(self):
        """The third derivative component is the literal constant 0."""
        _, points = integrate_rk4(DIAG, 1.0, 10.0, 1e-3)
        assert np.max(np.abs(points[:, 2] - DIAG.s3)) == 0.0

    def test_radius_drift_is_tiny(self):
        _, points = integrate_rk4(DIAG, 1.0, 10.0, 1e-3)
        radii = np.linalg.norm(points, axis=1)
        assert np.max(np.abs(radii - radii[0])) < 1e-8

    def test_grid_contract(self):
        times, points = integrate_rk4(DIAG, 1.0, 1.0, 0.3)
        assert times[0] == 0.0
        assert times[-1] == 1.0
        assert points.shape == (times.size, 3)


class TestEvolveEnsemble:
    def make_uncorrelated(self, p):
        plus, minus = DIAG_PLUS, DIAG_MINUS
        return product_ensemble([(p, plus), (1.0 - p, minus)], [(1.0, UP)])

    def test_aggregate_mixture_waveform(self):
        p, eps = 0.75, 1.0
        times = time_grid(10.0, 1e-3)
        traj, _ = evolve_ensemble(
            self.make_uncorrelated(p), EvolutionPolicy.AGGREGATE_MEANS, eps, times
        )
        expected = ((2.0 * p - 1.0) / SQRT2) * np.sin(SQRT2 * (2.0 * p - 1.0) * eps * times)
        assert np.max(np.abs(traj.rows()[:, 1] - expected)) < 1e-12

    def test_branch_means_over_diagonal_branches(self):
        """Both diagonal branches produce the same full-amplitude waveform,
        so any weighting of them does too."""
        plus, minus = DIAG_PLUS, DIAG_MINUS
        times = time_grid(5.0, 1e-3)
        ens = correlated_ensemble(0.6, plus, UP, minus, DOWN)
        traj, _ = evolve_ensemble(ens, EvolutionPolicy.BRANCH_MEANS, 1.0, times)
        expected = np.sin(SQRT2 * times) / SQRT2
        assert np.max(np.abs(traj.rows()[:, 1] - expected)) < 1e-12

    def test_branch_means_over_pole_branches_is_silent(self):
        times = time_grid(5.0, 1e-2)
        ens = correlated_ensemble(0.5, UP, UP, DOWN, DOWN)
        traj, _ = evolve_ensemble(ens, EvolutionPolicy.BRANCH_MEANS, 1.0, times)
        assert np.max(np.abs(traj.rows()[:, 1])) == 0.0

    def test_policies_differ_on_balanced_mixture(self):
        """Same ensemble, same reduced density matrix: the aggregate policy is
        silent, the branch policy oscillates at full amplitude."""
        times = time_grid(5.0, 1e-3)
        ens = self.make_uncorrelated(0.5)
        aggregate, _ = evolve_ensemble(ens, EvolutionPolicy.AGGREGATE_MEANS, 1.0, times)
        branchwise, _ = evolve_ensemble(ens, EvolutionPolicy.BRANCH_MEANS, 1.0, times)
        assert np.max(np.abs(aggregate.rows()[:, 1])) < 1e-12
        expected = np.sin(SQRT2 * times) / SQRT2
        assert np.max(np.abs(branchwise.rows()[:, 1] - expected)) < 1e-12

    def test_control_makes_policies_agree(self):
        """The control rotates at the state-independent rate 2 * eps, under
        which the decomposition is invisible."""
        plus, minus = DIAG_PLUS, DIAG_MINUS
        times = time_grid(5.0, 1e-2)
        ensembles = [
            self.make_uncorrelated(0.75),
            correlated_ensemble(0.75, plus, UP, minus, DOWN),
            correlated_ensemble(0.5, UP, UP, DOWN, DOWN),
        ]
        for ens, eps in itertools.product(ensembles, (0.4, -1.0, 3.0)):
            aggregate = evolve_ensemble(ens, EvolutionPolicy.AGGREGATE_MEANS, eps, times)
            branchwise = evolve_ensemble(ens, EvolutionPolicy.BRANCH_MEANS, eps, times)
            assert np.max(np.abs(aggregate[1].rows() - branchwise[1].rows())) < 1e-10

    def test_control_rotates_at_twice_epsilon(self):
        """The control of a single vector is its rotation by 2 * eps * t,
        whatever its third component."""
        times = time_grid(3.0, 1e-2)
        ens = self.make_uncorrelated(0.75)
        b = mixture_bloch(0.75)
        _, control = evolve_ensemble(ens, EvolutionPolicy.AGGREGATE_MEANS, 1.5, times)
        expected = np.stack(
            [b.s1 * np.cos(3.0 * times), b.s1 * np.sin(3.0 * times), np.full(times.size, b.s3)], axis=1
        )
        assert np.max(np.abs(control.rows() - expected)) < 1e-12

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        parts=st.lists(
            st.tuples(st.floats(0.01, 1.0), st.floats(0.0, np.pi), st.floats(0.0, 2.0 * np.pi)),
            min_size=1,
            max_size=4,
        ),
        eps=st.floats(-3.0, 3.0),
        data=st.data(),
    )
    def test_branch_means_ignores_branch_order(self, parts, eps, data):
        """Permuting the product branches of an ensemble leaves the branch-wise
        trajectory unchanged: it is a weighted sum over branches."""
        total = sum(weight for weight, _, _ in parts)
        remote = pure_state(1.1, 0.4)
        branches = [
            Branch(weight / total, np.kron(pure_state(theta, phi), remote))
            for weight, theta, phi in parts
        ]
        order = data.draw(st.permutations(range(len(branches))))
        times = time_grid(5.0, 1e-2)
        policy = EvolutionPolicy.BRANCH_MEANS
        original = evolve_ensemble(Ensemble(tuple(branches)), policy, eps, times)
        permuted = evolve_ensemble(Ensemble(tuple(branches[i] for i in order)), policy, eps, times)
        for before, after in zip(original, permuted):  # the trajectory and its control
            assert np.max(np.abs(before.rows() - after.rows())) < 1e-12

    def test_closed_forms_follow_the_policy(self):
        """AGGREGATE_MEANS gives one rotation of the reduced Bloch vector;
        BRANCH_MEANS a weighted sum of one rotation per branch, in ensemble
        order. Both are bound to the grid they were given, not a copy."""
        times = time_grid(1.0, 0.1)
        ens = correlated_ensemble(0.25, DIAG_PLUS, UP, DIAG_MINUS, DOWN)
        for traj in evolve_ensemble(ens, EvolutionPolicy.AGGREGATE_MEANS, 0.4, times):
            assert isinstance(traj, Rotation) and traj.times is times
        traj, control = evolve_ensemble(ens, EvolutionPolicy.BRANCH_MEANS, 0.4, times)
        for form in (traj, control):
            assert isinstance(form, WeightedSum) and form.times is times
            assert [weight for weight, _ in form.terms] == [branch.weight for branch in ens.branches]
        assert [term.omega for _, term in control.terms] == [0.8, 0.8]

    def test_shared_turns_give_the_same_bits(self):
        """Calls on one slice of the grid that share a `turns` dict evaluate
        cos and sin once per distinct rate, with every output bit as it is
        without the dict. A zero rate of either sign is its own rate: -0.0
        turns zeros negative."""
        times = time_grid(5.0, 1e-2)
        ensembles = [
            self.make_uncorrelated(0.75),
            correlated_ensemble(0.5, UP, UP, DOWN, DOWN),
            correlated_ensemble(0.25, DIAG_PLUS, UP, DIAG_MINUS, DOWN),
            Ensemble((Branch(1.0, np.kron(DIAG_PLUS, UP)),)),
        ]
        turns, rotations = {}, 0
        for ens, eps, policy in itertools.product(ensembles, (0.4, -1.0), EvolutionPolicy):
            for form in evolve_ensemble(ens, policy, eps, times):
                alone, shared = form.rows(100, 300), form.rows(100, 300, turns)
                np.testing.assert_array_equal(alone.view(np.uint64), shared.view(np.uint64))
            rotations += 2 * (len(ens.branches) if policy is EvolutionPolicy.BRANCH_MEANS else 1)
        # the correlated up/down mixture's aggregate s3 is 0.0, so its rate is 0.0 * eps
        assert {(0.0).hex(), (-0.0).hex()} <= set(turns)
        # Both branches of the up/down mixture sit at the poles, so its
        # branch-wise sums are constant and fill no pair: the down branch's
        # rates 2 * eps * -1, -0.8 and 2.0, come from those sums alone.
        assert {(-0.8).hex(), (2.0).hex()}.isdisjoint(turns)
        assert len(turns) == 12 < rotations == 44
        assert all(len(c) == len(s) == 200 for c, s in turns.values())

    def test_entangled_branch_rejected_under_branch_means(self):
        ens = Ensemble((Branch(1.0, SINGLET),))
        with pytest.raises(NotProductError):
            evolve_ensemble(ens, EvolutionPolicy.BRANCH_MEANS, 1.0, time_grid(1.0, 0.1))


class TestChunkedRows:
    """Every consumer of a trajectory evaluates it a chunk of rows at a time
    and relies on each row coming out as it does on the whole grid. That
    holds if numpy's cos and sin of an angle, and the products and sums of
    the closed forms, do not depend on where the slice starts or how long it
    is; a numpy whose vector kernels treat a slice's head or tail otherwise
    fails here."""

    # rates of either zero sign, a subnormal, ordinary ones, and the largest
    # the angle cap allows on this grid, of either sign
    T_MAX = 50.0
    RATES = [0.0, -0.0, 5e-324, 1.0, -2.5, SQRT2, 2.0 * 0.3 * -0.7, MAX_ANGLE / T_MAX, -MAX_ANGLE / T_MAX]
    STARTS = [BlochVector(0.6, -0.0, 0.8), BlochVector(-0.0, 0.0, -1.0), BlochVector(0.3, -0.4, 0.5), DIAG]

    def grid(self):
        times = time_grid(self.T_MAX, self.T_MAX / (3 * ROWS + 4))  # three full chunks and a short one
        assert times.size == 3 * ROWS + 5 and float(np.max(np.abs(self.RATES[-1] * times))) == MAX_ANGLE
        return times

    def forms(self, times):
        rotations = [Rotation(times, b, omega) for b in self.STARTS for omega in self.RATES]
        sums = [
            WeightedSum(times, tuple((weight, rotation) for weight, rotation in zip((0.25, 0.75, 1.0, -0.0), rotations[k::9])))
            for k in range(9)
        ]
        nested = WeightedSum(times, ((0.4999999999999999, sums[0]), (0.5, sums[4]), (1.0, rotations[-1])))
        return rotations + sums + [nested]

    @pytest.mark.parametrize("rows", [7, 1000, ROWS])
    def test_chunks_give_the_bits_of_the_whole_grid(self, rows):
        times = self.grid()
        for b, omega in itertools.product(self.STARTS, self.RATES):
            whole = _rotation_points(b, omega, times)
            chunked = np.concatenate([_rotation_points(b, omega, times[k : k + rows]) for k in range(0, times.size, rows)])
            np.testing.assert_array_equal(whole.view(np.uint64), chunked.view(np.uint64))
        forms = self.forms(times)
        wholes = [form.rows() for form in forms]
        chunks = [[] for _ in forms]
        for start in range(0, times.size, rows):
            turns = {}  # shared by every form on the chunk, as run_scenario shares it
            for parts, form in zip(chunks, forms):
                parts.append(form.rows(start, start + rows, turns))
        for whole, parts in zip(wholes, chunks):
            np.testing.assert_array_equal(whole.view(np.uint64), np.concatenate(parts).view(np.uint64))
        # A form in `kept` is evaluated into its rows there, as a sum or as a
        # sum's term (every rotation is a term of a sum, and two sums of the
        # nested one), with the same bits.
        kept = {form: np.empty((times.size, 3)) for form in forms if not form.constant}
        for start in range(0, times.size, rows):
            turns = {}
            for form in forms:
                if isinstance(form, WeightedSum):
                    assert np.shares_memory(form.rows(start, start + rows, turns, kept), kept[form])
        for form, whole in zip(forms, wholes):
            np.testing.assert_array_equal(whole.view(np.uint64), kept[form].view(np.uint64))


def general_rows(form, start, stop):
    """Rows [start, stop) of a closed form the general way, whatever it is:
    every rotation evaluated on the slice, sums from zeros in term order."""
    times = form.times[start:stop]
    if isinstance(form, Rotation):
        return _rotation_points(form.b0, form.omega, times)
    points = np.zeros((times.size, 3))
    for weight, term in form.terms:
        points += weight * general_rows(term, start, stop)
    return points


def build_form(spec, times):
    """A closed form on `times` from a drawn spec: ("rotation", b, omega)
    or ("sum", [(weight, spec), ...])."""
    if spec[0] == "rotation":
        return Rotation(times, spec[1], spec[2])
    return WeightedSum(times, tuple((weight, build_form(term, times)) for weight, term in spec[1]))


def all_poles(spec) -> bool:
    if spec[0] == "rotation":
        return spec[1].s1 == 0.0 == spec[1].s2
    return all(all_poles(term) for _, term in spec[1])


ZEROS = st.sampled_from([0.0, -0.0])
POLE_VECTORS = st.builds(BlochVector, ZEROS, ZEROS, st.one_of(st.sampled_from([1.0, -1.0, 0.0, -0.0]), st.floats(-1.0, 1.0)))
# s1 or s2 nonzero, of either sign, and inside the Bloch ball
OFF_POLE_VECTORS = st.one_of(
    st.builds(BlochVector, st.floats(-0.5, 0.5).filter(bool), st.floats(-0.5, 0.5), st.floats(-0.7, 0.7)),
    st.builds(BlochVector, ZEROS, st.sampled_from([5e-324, -5e-324, 0.5]), st.floats(-0.7, 0.7)),
)
DRAWN_RATES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 2.0, -2.0]), st.floats(-50.0, 50.0))
DRAWN_WEIGHTS = st.one_of(st.sampled_from([-0.0, 0.0, -1.0, 0.25, 0.5]), st.floats(-2.0, 2.0))
ROTATION_SPECS = st.tuples(st.just("rotation"), st.one_of(POLE_VECTORS, POLE_VECTORS, OFF_POLE_VECTORS), DRAWN_RATES)


def sum_specs(terms):
    return st.tuples(st.just("sum"), st.lists(st.tuples(DRAWN_WEIGHTS, terms), max_size=4))


SUM_SPECS = sum_specs(st.recursive(ROTATION_SPECS, sum_specs, max_leaves=6))  # sums of rotations and nested sums


class TestConstantSums:
    """A sum of pole rotations, or of such sums, is constant: its rows are
    one row repeated, with the bits of the general evaluation."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        spec=SUM_SPECS,
        points=st.sampled_from([1, 2, CROSSOVER - 1, ROWS + 1]),
        t_max=st.floats(0.5, 100.0),
        cut=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    )
    def test_constant_rows_have_the_general_bits(self, spec, points, t_max, cut):
        times = np.linspace(0.0, t_max, points)
        form = build_form(spec, times)
        # any term off the poles, however deep, sends the sum the general way
        assert form.constant is all_poles(spec)
        start = int(cut[0] * points)  # mid-grid starts, and the end itself
        stop = start + int(cut[1] * (points - start))
        for rows, end in ((form.rows(start, stop), stop), (form.rows(start, stop, {}), stop), (form.rows(start), None)):
            expected = general_rows(form, start, end)
            np.testing.assert_array_equal(rows.view(np.uint64), expected.view(np.uint64))
            if form.constant:
                assert not rows.flags.writeable and rows.strides[0] == 0

    def test_infinite_angles_and_weights_take_the_general_route(self):
        """cos and sin of an infinite angle are NaN, and an infinite weight
        times a zero is NaN: neither sum is constant, and both come out NaN
        where the general evaluation is."""
        times = np.linspace(0.0, 10.0, 5)
        up = BlochVector(0.0, 0.0, 1.0)
        overflowing = WeightedSum(times, ((1.0, Rotation(times, up, 1e308)),))
        infinite = WeightedSum(times, ((np.inf, Rotation(times, up, 1.0)),))
        finite = WeightedSum(times, ((1.0, Rotation(times, up, 1e307)),))
        assert (overflowing.constant, infinite.constant, finite.constant) == (False, False, True)
        with np.errstate(over="ignore", invalid="ignore"):
            for form in (overflowing, infinite, finite):
                np.testing.assert_array_equal(form.rows().view(np.uint64), general_rows(form, 0, None).view(np.uint64))
            assert np.isnan(overflowing.rows()[1:, 0]).all() and np.isnan(infinite.rows()[:, 0]).all()

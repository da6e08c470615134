"""Projective measurement: probabilities, collapse, and the outcome decomposition.

The branch-level collapse is checked against the matrix-level projection
E Pi E / Tr[E Pi E] computed independently in the tests.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinpair.dynamics_linear import random_basis, random_ensemble, random_projector_2
from spinpair.measurement import (
    PROB_FLOOR,
    ImpossibleOutcomeError,
    MeasurementBasis,
    basis_from_vectors,
    collapse,
    joint_probability_total,
    measure_all,
    outcome_probability,
    validate_basis,
)
from spinpair.qmath import IDENTITY_2, mean_value, projector, tensor, trace_out_remote, trace_out_system
from spinpair.states import (
    DOWN,
    UP,
    Branch,
    Ensemble,
    correlated_ensemble,
    density_of,
    diag_eigenstates,
    product_ensemble,
    singlet,
)

ATOL = 1e-12


def marker_basis():
    return basis_from_vectors(UP, DOWN)


def classical_prep(p):
    plus, minus = diag_eigenstates()
    return correlated_ensemble(p, plus, UP, minus, DOWN)


def singlet_prep():
    return Ensemble((Branch(1.0, singlet()),))


def luders_density(ensemble, effect, subsystem="remote"):
    """Independent matrix-level route: project the density matrix and renormalize."""
    e4 = tensor(IDENTITY_2, effect) if subsystem == "remote" else tensor(effect, IDENTITY_2)
    projected = e4 @ density_of(ensemble) @ e4
    return projected / np.trace(projected)


class TestValidateBasis:
    def test_marker_basis_ok(self):
        report = validate_basis(marker_basis())
        assert report.ok
        assert report.violations == ()

    def test_duplicate_projector_fails_completeness_and_orthogonality(self):
        p = projector(UP)
        report = validate_basis(MeasurementBasis((p, p)))
        assert not report.ok
        assert any("sum to the identity" in v for v in report.violations)
        assert any("orthogonal" in v for v in report.violations)

    def test_non_idempotent_projector_reported(self):
        report = validate_basis(MeasurementBasis((0.5 * IDENTITY_2, 0.5 * IDENTITY_2)))
        assert not report.ok
        assert any("idempotent" in v for v in report.violations)

    def test_random_complement_pairs_ok(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            assert validate_basis(random_basis(rng)).ok


class TestOutcomeProbability:
    def test_classical_prep_first_marker(self):
        """The first marker fires with exactly the mixing weight."""
        p = 0.65
        assert outcome_probability(classical_prep(p), projector(UP)) == pytest.approx(p, abs=ATOL)

    def test_singlet_marker_is_half(self):
        assert outcome_probability(singlet_prep(), projector(UP)) == pytest.approx(0.5, abs=ATOL)

    def test_identity_effect_is_one(self):
        rng = np.random.default_rng(31)
        assert outcome_probability(random_ensemble(rng), IDENTITY_2) == pytest.approx(1.0, abs=ATOL)

    def test_non_projector_rejected(self):
        with pytest.raises(ValueError):
            outcome_probability(singlet_prep(), 0.5 * IDENTITY_2)

    def test_probabilities_stay_in_unit_interval(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            prob = outcome_probability(random_ensemble(rng), random_projector_2(rng))
            assert -ATOL <= prob <= 1.0 + ATOL


class TestCollapse:
    def test_classical_prep_collapses_to_single_branch(self):
        plus, _ = diag_eigenstates()
        post = collapse(classical_prep(0.75), projector(UP))
        assert len(post) == 1
        assert post.branches[0].weight == pytest.approx(1.0, abs=ATOL)
        overlap = abs(np.vdot(post.branches[0].vector, np.kron(plus, UP)))
        assert overlap == pytest.approx(1.0, abs=ATOL)

    def test_singlet_diag_outcome_is_anticorrelated(self):
        """Projecting the remote spin onto the +1 diagonal state leaves the
        system spin in the -1 diagonal state."""
        plus, minus = diag_eigenstates()
        post = collapse(singlet_prep(), projector(plus))
        assert len(post) == 1
        overlap = abs(np.vdot(post.branches[0].vector, np.kron(minus, plus)))
        assert overlap == pytest.approx(1.0, abs=ATOL)

    def test_product_preparation_leaves_system_marginal_unchanged(self):
        """With no correlations, the remote measurement cannot move the
        system's reduced state."""
        rng = np.random.default_rng(33)
        plus, minus = diag_eigenstates()
        prep = product_ensemble(
            [(0.3, plus), (0.7, minus)],
            [(0.5, (UP + DOWN) / np.sqrt(2.0)), (0.5, (UP - DOWN) / np.sqrt(2.0))],
        )
        before = trace_out_remote(density_of(prep))
        effect = random_projector_2(rng)
        after = trace_out_remote(density_of(collapse(prep, effect)))
        np.testing.assert_allclose(after, before, atol=ATOL)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), subsystem=st.sampled_from(["remote", "system"]))
    def test_matches_matrix_level_projection(self, seed, subsystem):
        """Every outcome measure_all reports has exactly outcome_probability's
        probability, and its post-state, like collapse's, reproduces
        E Pi E / Tr[E Pi E] entrywise; the outcomes it drops cannot fire."""
        rng = np.random.default_rng(seed)
        ens = random_ensemble(rng)
        basis = random_basis(rng)
        probs = [outcome_probability(ens, effect, subsystem) for effect in basis.projectors]
        outcomes = measure_all(ens, basis, subsystem)
        assert [o.outcome_index for o in outcomes] == [
            index for index, prob in enumerate(probs) if prob > PROB_FLOOR
        ]
        for outcome in outcomes:
            effect = basis.projectors[outcome.outcome_index]
            assert outcome.probability == probs[outcome.outcome_index]
            if outcome.probability < 1e-6:  # renormalizing amplifies roundoff past ATOL
                continue
            expected = luders_density(ens, effect, subsystem)
            np.testing.assert_allclose(density_of(outcome.post_state), expected, atol=ATOL)
            collapsed = collapse(ens, effect, subsystem)
            np.testing.assert_allclose(density_of(collapsed), expected, atol=ATOL)

    def test_repeatability(self):
        rng = np.random.default_rng(35)
        ens = random_ensemble(rng)
        effect = random_projector_2(rng)
        once = collapse(ens, effect)
        twice = collapse(once, effect)
        np.testing.assert_allclose(density_of(twice), density_of(once), atol=ATOL)

    def test_impossible_outcome_raises(self):
        prep = Ensemble((Branch(1.0, np.kron(UP, UP)),))
        with pytest.raises(ImpossibleOutcomeError):
            collapse(prep, projector(DOWN))

    def test_system_side_measurement_leaves_remote_marginal_unchanged(self):
        rng = np.random.default_rng(36)
        plus, minus = diag_eigenstates()
        prep = product_ensemble([(1.0, (UP + DOWN) / np.sqrt(2.0))], [(0.4, plus), (0.6, minus)])
        before = trace_out_system(density_of(prep))
        after = trace_out_system(density_of(collapse(prep, random_projector_2(rng), subsystem="system")))
        np.testing.assert_allclose(after, before, atol=ATOL)


class TestMeasureAll:
    def test_half_half_marker_mixture(self):
        """Both markers fire with probability 1/2 and reveal the matching branch."""
        outcomes = measure_all(correlated_ensemble(0.5, UP, UP, DOWN, DOWN), marker_basis())
        assert [o.outcome_index for o in outcomes] == [0, 1]
        for outcome, expected in zip(outcomes, (np.kron(UP, UP), np.kron(DOWN, DOWN))):
            assert outcome.probability == pytest.approx(0.5, abs=ATOL)
            assert len(outcome.post_state) == 1
            overlap = abs(np.vdot(outcome.post_state.branches[0].vector, expected))
            assert overlap == pytest.approx(1.0, abs=ATOL)

    def test_pure_product_state_has_one_outcome(self):
        prep = Ensemble((Branch(1.0, np.kron(UP, UP)),))
        outcomes = measure_all(prep, marker_basis())
        assert len(outcomes) == 1
        assert outcomes[0].outcome_index == 0
        assert outcomes[0].probability == pytest.approx(1.0, abs=ATOL)

    def test_singlet_marker_outcomes(self):
        """Each marker outcome flips the system spin the other way."""
        outcomes = measure_all(singlet_prep(), marker_basis())
        assert len(outcomes) == 2
        expected = (np.kron(DOWN, UP), np.kron(UP, DOWN))
        for outcome, vec in zip(outcomes, expected):
            assert outcome.probability == pytest.approx(0.5, abs=ATOL)
            overlap = abs(np.vdot(outcome.post_state.branches[0].vector, vec))
            assert overlap == pytest.approx(1.0, abs=ATOL)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            outcomes = measure_all(random_ensemble(rng), random_basis(rng))
            assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-10)

    def test_invalid_basis_rejected(self):
        p = projector(UP)
        with pytest.raises(ValueError):
            measure_all(singlet_prep(), MeasurementBasis((p, p)))


class TestJointProbabilityTotal:
    def test_identity_proposition(self):
        rng = np.random.default_rng(38)
        total = joint_probability_total(IDENTITY_2, random_ensemble(rng), random_basis(rng))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_equals_undisturbed_expectation(self):
        """Summing joint probabilities over remote outcomes reproduces the
        plain system expectation: the linear no-influence identity."""
        rng = np.random.default_rng(39)
        for _ in range(25):
            ens = random_ensemble(rng)
            basis = random_basis(rng)
            prop = random_projector_2(rng)
            direct = mean_value(prop, trace_out_remote(density_of(ens)))
            assert joint_probability_total(prop, ens, basis) == pytest.approx(direct, abs=1e-10)

    def test_singlet_up_proposition_is_half(self):
        rng = np.random.default_rng(40)
        total = joint_probability_total(projector(UP), singlet_prep(), random_basis(rng))
        assert total == pytest.approx(0.5, abs=1e-10)

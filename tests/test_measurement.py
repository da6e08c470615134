"""Projective measurement: probabilities, collapse, and the outcome decomposition.

The branch-level collapse is checked against the matrix-level projection
E Pi E / Tr[E Pi E] computed independently in the tests.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import collapse, joint_probability_total, mean_value, outcome_probability
from random_inputs import random_basis, random_ensemble, random_projector_2
from spinpair.measurement import (
    PROB_FLOOR,
    ImpossibleOutcomeError,
    MeasurementBasis,
    basis_from_vectors,
    measure_all,
    validate_basis,
)
from spinpair.qmath import IDENTITY_2, projector, trace_out_remote
from spinpair.states import (
    DIAG_MINUS,
    DIAG_PLUS,
    DOWN,
    SINGLET,
    UP,
    Branch,
    Ensemble,
    correlated_ensemble,
    density_of,
    product_ensemble,
)

ATOL = 1e-12


def marker_basis():
    return basis_from_vectors(UP, DOWN)


def classical_prep(p):
    plus, minus = DIAG_PLUS, DIAG_MINUS
    return correlated_ensemble(p, plus, UP, minus, DOWN)


def singlet_prep():
    return Ensemble((Branch(1.0, SINGLET),))


def luders_density(ensemble, effect):
    """Independent matrix-level route: project the density matrix and renormalize."""
    e4 = np.kron(IDENTITY_2, effect)
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
        plus = DIAG_PLUS
        post = collapse(classical_prep(0.75), projector(UP))
        assert len(post.branches) == 1
        assert post.branches[0].weight == pytest.approx(1.0, abs=ATOL)
        overlap = abs(np.vdot(post.branches[0].vector, np.kron(plus, UP)))
        assert overlap == pytest.approx(1.0, abs=ATOL)

    def test_singlet_diag_outcome_is_anticorrelated(self):
        """Projecting the remote spin onto the +1 diagonal state leaves the
        system spin in the -1 diagonal state."""
        plus, minus = DIAG_PLUS, DIAG_MINUS
        post = collapse(singlet_prep(), projector(plus))
        assert len(post.branches) == 1
        overlap = abs(np.vdot(post.branches[0].vector, np.kron(minus, plus)))
        assert overlap == pytest.approx(1.0, abs=ATOL)

    def test_product_preparation_leaves_system_marginal_unchanged(self):
        """With no correlations, the remote measurement cannot move the
        system's reduced state."""
        rng = np.random.default_rng(33)
        plus, minus = DIAG_PLUS, DIAG_MINUS
        prep = product_ensemble(
            [(0.3, plus), (0.7, minus)],
            [(0.5, (UP + DOWN) / np.sqrt(2.0)), (0.5, (UP - DOWN) / np.sqrt(2.0))],
        )
        before = trace_out_remote(density_of(prep))
        effect = random_projector_2(rng)
        after = trace_out_remote(density_of(collapse(prep, effect)))
        np.testing.assert_allclose(after, before, atol=ATOL)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_matrix_level_projection(self, seed):
        """Every outcome measure_all reports has exactly outcome_probability's
        probability, and its post-state, like collapse's, reproduces
        E Pi E / Tr[E Pi E] entrywise; the outcomes it drops cannot fire."""
        rng = np.random.default_rng(seed)
        ens = random_ensemble(rng)
        basis = random_basis(rng)
        probs = [outcome_probability(ens, effect) for effect in basis.projectors]
        outcomes = measure_all(ens, basis)
        assert [o.outcome_index for o in outcomes] == [
            index for index, prob in enumerate(probs) if prob > PROB_FLOOR
        ]
        for outcome in outcomes:
            effect = basis.projectors[outcome.outcome_index]
            assert outcome.probability == probs[outcome.outcome_index]
            if outcome.probability < 1e-6:  # renormalizing amplifies roundoff past ATOL
                continue
            expected = luders_density(ens, effect)
            np.testing.assert_allclose(density_of(outcome.post_state), expected, atol=ATOL)
            collapsed = collapse(ens, effect)
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


class TestMeasureAll:
    def test_half_half_marker_mixture(self):
        """Both markers fire with probability 1/2 and reveal the matching branch."""
        outcomes = measure_all(correlated_ensemble(0.5, UP, UP, DOWN, DOWN), marker_basis())
        assert [o.outcome_index for o in outcomes] == [0, 1]
        for outcome, expected in zip(outcomes, (np.kron(UP, UP), np.kron(DOWN, DOWN))):
            assert outcome.probability == pytest.approx(0.5, abs=ATOL)
            assert len(outcome.post_state.branches) == 1
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
        basis = MeasurementBasis((p, p))
        for _ in range(2):  # at every measurement, not only the first
            with pytest.raises(ValueError, match="invalid measurement basis"):
                measure_all(singlet_prep(), basis)

    def test_a_basis_is_validated_once(self):
        basis = marker_basis()
        with mock.patch("spinpair.measurement.validate_basis", wraps=validate_basis) as spy:
            first = measure_all(singlet_prep(), basis)
            second = measure_all(singlet_prep(), basis)
        assert spy.call_count == 1
        assert [o.probability for o in first] == [o.probability for o in second]
        embedded = basis.embedded
        assert embedded is basis.embedded and not embedded.flags.writeable
        for effect, lifted in zip(basis.projectors, embedded):
            np.testing.assert_array_equal(lifted, np.kron(IDENTITY_2, effect))

    def test_probabilities_match_the_single_outcome_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            ens, basis = random_ensemble(rng), random_basis(rng)
            for outcome in measure_all(ens, basis):
                effect = basis.projectors[outcome.outcome_index]
                assert outcome.probability == outcome_probability(ens, effect)


class TestJointProbabilityTotal:
    def test_identity_proposition(self):
        rng = np.random.default_rng(38)
        total = joint_probability_total(
            IDENTITY_2, measure_all(random_ensemble(rng), random_basis(rng))
        )
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
            total = joint_probability_total(prop, measure_all(ens, basis))
            assert total == pytest.approx(direct, abs=1e-10)

    def test_singlet_up_proposition_is_half(self):
        rng = np.random.default_rng(40)
        total = joint_probability_total(
            projector(UP), measure_all(singlet_prep(), random_basis(rng))
        )
        assert total == pytest.approx(0.5, abs=1e-10)

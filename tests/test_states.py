"""Ensemble construction, reduced Bloch vectors, and the standard preparations."""

import numpy as np
import pytest

from oracles import bloch_array, is_density, is_hermitian, mean_value, pauli
from random_inputs import random_ensemble, random_state_vector
from spinpair.qmath import projector, trace_out_remote
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
    branch_bloch,
    correlated_ensemble,
    density_of,
    product_ensemble,
    reduced_bloch,
)

ATOL = 1e-12
SQRT2 = np.sqrt(2.0)


class TestDiagEigenstates:
    def test_eigenvalue_equations(self):
        """(Sigma1 + Sigma3)/sqrt(2) has the two states as +1/-1 eigenvectors."""
        op = (pauli(1) + pauli(3)) / SQRT2
        plus, minus = DIAG_PLUS, DIAG_MINUS
        np.testing.assert_allclose(op @ plus, plus, atol=ATOL)
        np.testing.assert_allclose(op @ minus, -minus, atol=ATOL)

    def test_orthonormal(self):
        plus, minus = DIAG_PLUS, DIAG_MINUS
        assert abs(np.vdot(plus, minus)) <= ATOL
        assert abs(np.linalg.norm(plus) - 1.0) <= ATOL
        assert abs(np.linalg.norm(minus) - 1.0) <= ATOL

    def test_phase_convention(self):
        plus, minus = DIAG_PLUS, DIAG_MINUS
        for vec in (plus, minus):
            assert vec[0].imag == 0.0
            assert vec[0].real > 0.0

    def test_bloch_components(self):
        """Both states have (s1, s2, s3) = (+-1/sqrt(2), 0, +-1/sqrt(2))."""
        plus, minus = DIAG_PLUS, DIAG_MINUS
        for vec, sign in ((plus, 1.0), (minus, -1.0)):
            rho = projector(vec)
            assert mean_value(pauli(1), rho) == pytest.approx(sign / SQRT2, abs=ATOL)
            assert mean_value(pauli(2), rho) == pytest.approx(0.0, abs=ATOL)
            assert mean_value(pauli(3), rho) == pytest.approx(sign / SQRT2, abs=ATOL)


class TestBranchAndEnsemble:
    def test_branch_rejects_bad_weight(self):
        vec = np.kron(UP, UP)
        with pytest.raises(ValueError):
            Branch(1.5, vec)
        with pytest.raises(ValueError):
            Branch(-0.2, vec)

    def test_branch_rejects_unnormalized_vector(self):
        with pytest.raises(ValueError):
            Branch(1.0, np.array([1.0, 1.0, 0.0, 0.0], dtype=complex))

    def test_branch_vector_is_frozen(self):
        b = Branch(1.0, np.kron(UP, DOWN))
        with pytest.raises(ValueError):
            b.vector[0] = 1.0

    def test_ensemble_rejects_bad_weight_sum(self):
        b = Branch(0.4, np.kron(UP, UP))
        with pytest.raises(ValueError):
            Ensemble((b, b))

    def test_ensemble_rejects_empty(self):
        with pytest.raises(ValueError):
            Ensemble(())

    def test_ensemble_preserves_branch_order(self):
        first = Branch(0.25, np.kron(UP, UP))
        second = Branch(0.75, np.kron(DOWN, DOWN))
        e = Ensemble((first, second))
        assert [b.weight for b in e.branches] == [0.25, 0.75]
        assert len(e.branches) == 2


class TestBlochVector:
    def test_outside_unit_ball_rejected(self):
        with pytest.raises(ValueError):
            BlochVector(1.0, 1.0, 0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            BlochVector(np.nan, 0.0, 0.0)


class TestDensityOf:
    def test_single_branch_is_rank_one_projector(self):
        vec = np.kron(DIAG_PLUS, DIAG_MINUS)
        e = Ensemble((Branch(1.0, vec),))
        np.testing.assert_allclose(density_of(e), np.outer(vec, vec.conj()), atol=ATOL)

    def test_half_half_marker_mixture_matrix(self):
        """Up/down halves with orthogonal markers give diag(1/2, 0, 0, 1/2)."""
        e = correlated_ensemble(0.5, UP, UP, DOWN, DOWN)
        np.testing.assert_allclose(
            density_of(e), np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex), atol=ATOL
        )

    def test_same_reduced_state_different_composites(self):
        """The two half-half preparations share a reduced state but not a
        composite density matrix."""
        plus, minus = DIAG_PLUS, DIAG_MINUS
        updown = correlated_ensemble(0.5, UP, UP, DOWN, DOWN)
        diag = correlated_ensemble(0.5, plus, UP, minus, DOWN)
        composite_gap = np.max(np.abs(density_of(updown) - density_of(diag)))
        assert composite_gap > 0.1
        np.testing.assert_allclose(
            trace_out_remote(density_of(updown)), np.eye(2) / 2.0, atol=ATOL
        )
        np.testing.assert_allclose(
            trace_out_remote(density_of(diag)), np.eye(2) / 2.0, atol=ATOL
        )

    def test_density_flags_on_random_ensembles(self):
        rng = np.random.default_rng(20)
        for _ in range(25):
            rho = density_of(random_ensemble(rng))
            assert is_hermitian(rho, atol=ATOL)
            assert is_density(rho, atol=1e-10)


class TestReducedBloch:
    def test_diagonal_mixture(self):
        """Both nonzero components equal (2p - 1)/sqrt(2)."""
        p = 0.75
        plus, minus = DIAG_PLUS, DIAG_MINUS
        e = product_ensemble([(p, plus), (1.0 - p, minus)], [(1.0, UP)])
        b = reduced_bloch(e)
        expected = (2.0 * p - 1.0) / SQRT2
        assert b.s1 == pytest.approx(expected, abs=ATOL)
        assert b.s2 == pytest.approx(0.0, abs=ATOL)
        assert b.s3 == pytest.approx(expected, abs=ATOL)

    def test_singlet_is_unpolarized(self):
        e = Ensemble((Branch(1.0, SINGLET),))
        np.testing.assert_allclose(bloch_array(reduced_bloch(e)), np.zeros(3), atol=ATOL)

    def test_balanced_mixture_cancels(self):
        plus, minus = DIAG_PLUS, DIAG_MINUS
        e = product_ensemble([(0.5, plus), (0.5, minus)], [(1.0, UP)])
        np.testing.assert_allclose(bloch_array(reduced_bloch(e)), np.zeros(3), atol=ATOL)

    def test_equals_weighted_branch_average_for_products(self):
        """Aggregate Bloch vector = weight-average of branch Bloch vectors
        whenever every branch is a product."""
        rng = np.random.default_rng(21)
        for _ in range(20):
            count = int(rng.integers(1, 5))
            weights = rng.dirichlet(np.ones(count))
            branches = tuple(
                Branch(
                    float(w),
                    np.kron(random_state_vector(rng, 2), random_state_vector(rng, 2)),
                )
                for w in weights
            )
            e = Ensemble(branches)
            average = sum(b.weight * bloch_array(branch_bloch(b)) for b in e.branches)
            np.testing.assert_allclose(bloch_array(reduced_bloch(e)), average, atol=ATOL)


class TestBranchBloch:
    def test_diag_product_branch(self):
        plus = DIAG_PLUS
        b = branch_bloch(Branch(1.0, np.kron(plus, UP)))
        np.testing.assert_allclose(bloch_array(b), [1.0 / SQRT2, 0.0, 1.0 / SQRT2], atol=ATOL)

    def test_down_product_branch(self):
        b = branch_bloch(Branch(1.0, np.kron(DOWN, DOWN)))
        np.testing.assert_allclose(bloch_array(b), [0.0, 0.0, -1.0], atol=ATOL)

    def test_entangled_branch_rejected(self):
        with pytest.raises(NotProductError):
            branch_bloch(Branch(1.0, SINGLET))

    def test_same_bits_as_the_oracle(self):
        """branch_bloch and reduced_bloch give the bits of one checked
        mean_value per spin matrix on the reduced state."""
        rng = np.random.default_rng(23)
        for _ in range(200):
            vec = np.kron(random_state_vector(rng, 2), random_state_vector(rng, 2))
            rho = trace_out_remote(np.outer(vec, vec.conj()))
            expected = [mean_value(pauli(k), rho) for k in (1, 2, 3)]
            assert list(bloch_array(branch_bloch(Branch(1.0, vec)))) == expected
            ens = random_ensemble(rng)
            rho = trace_out_remote(density_of(ens))
            assert list(bloch_array(reduced_bloch(ens))) == [mean_value(pauli(k), rho) for k in (1, 2, 3)]


class TestProductEnsemble:
    def test_mixture_with_fixed_remote(self):
        p = 0.75
        plus, minus = DIAG_PLUS, DIAG_MINUS
        e = product_ensemble([(p, plus), (1.0 - p, minus)], [(1.0, UP)])
        assert len(e.branches) == 2
        assert [b.weight for b in e.branches] == [p, 1.0 - p]
        np.testing.assert_allclose(e.branches[0].vector, np.kron(plus, UP), atol=ATOL)

    def test_single_pair_gives_one_branch(self):
        e = product_ensemble([(1.0, UP)], [(1.0, DOWN)])
        assert len(e.branches) == 1

    def test_density_factorizes(self):
        """density_of equals kron of the two marginal densities, built here
        directly from the parts."""
        rng = np.random.default_rng(22)
        for _ in range(10):
            sys_parts = [(0.4, random_state_vector(rng, 2)), (0.6, random_state_vector(rng, 2))]
            rem_parts = [(0.7, random_state_vector(rng, 2)), (0.3, random_state_vector(rng, 2))]
            e = product_ensemble(sys_parts, rem_parts)
            rho_sys = sum(w * np.outer(v, v.conj()) for w, v in sys_parts)
            rho_rem = sum(w * np.outer(v, v.conj()) for w, v in rem_parts)
            np.testing.assert_allclose(density_of(e), np.kron(rho_sys, rho_rem), atol=ATOL)

    def test_weight_sum_violation_rejected(self):
        with pytest.raises(ValueError):
            product_ensemble([(0.5, UP)], [(1.0, UP)])


class TestCorrelatedEnsemble:
    def test_matches_weighted_projector_sum(self):
        p = 0.6
        plus, minus = DIAG_PLUS, DIAG_MINUS
        e = correlated_ensemble(p, plus, UP, minus, DOWN)
        expected = p * np.kron(projector(plus), projector(UP)) + (1.0 - p) * np.kron(
            projector(minus), projector(DOWN)
        )
        np.testing.assert_allclose(density_of(e), expected, atol=ATOL)

    def test_non_orthogonal_markers_rejected(self):
        plus, minus = DIAG_PLUS, DIAG_MINUS
        with pytest.raises(ValueError):
            correlated_ensemble(0.5, plus, UP, minus, UP)

    def test_degenerate_weight_gives_rank_one_density(self):
        plus, minus = DIAG_PLUS, DIAG_MINUS
        e = correlated_ensemble(1.0, plus, UP, minus, DOWN)
        assert np.linalg.matrix_rank(density_of(e), tol=1e-10) == 1


class TestSinglet:
    def test_reduced_state_is_maximally_mixed(self):
        vec = SINGLET
        np.testing.assert_allclose(
            trace_out_remote(np.outer(vec, vec.conj())), np.eye(2) / 2.0, atol=ATOL
        )

    def test_orthogonal_to_parallel_spins(self):
        assert abs(np.vdot(np.kron(UP, UP), SINGLET)) <= ATOL
        assert abs(np.vdot(np.kron(DOWN, DOWN), SINGLET)) <= ATOL

    def test_rotated_decomposition_identity(self):
        """The same state written with the diagonal pair, up to a global phase."""
        plus, minus = DIAG_PLUS, DIAG_MINUS
        rotated = (np.kron(plus, minus) - np.kron(minus, plus)) / SQRT2
        assert abs(abs(np.vdot(rotated, SINGLET)) - 1.0) <= ATOL

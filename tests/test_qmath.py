"""Algebraic identities of the dense matrix layer.

Every assertion comes from a textbook identity or an independent entrywise
construction written out in the test body.
"""

import re

import numpy as np
import pytest

from spinpair import qmath
from spinpair.dynamics_linear import ProductUnitary, heisenberg_probability
from spinpair.measurement import MeasurementBasis
from spinpair.qmath import (
    ConsistencyError,
    IDENTITY_2,
    dagger,
    is_density,
    is_hermitian,
    is_projector,
    is_unitary,
    mean_value,
    pauli,
    projector,
    spin_unitary,
    tensor,
    trace_out_remote,
    trace_out_system,
)
from spinpair.states import DOWN, UP, Branch, Ensemble, correlated_ensemble, product_ensemble

ATOL = 1e-12


def random_matrix(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def random_vector(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


class TestPauli:
    def test_third_axis_is_diagonal(self):
        np.testing.assert_array_equal(pauli(3), np.diag([1.0, -1.0]).astype(complex))

    def test_first_times_second_gives_third(self):
        np.testing.assert_allclose(pauli(1) @ pauli(2), 1j * pauli(3), atol=ATOL)

    def test_product_algebra_exhaustive(self):
        """sigma_j sigma_k = delta_jk I + i eps_jkl sigma_l over all j, k."""
        eps = np.zeros((3, 3, 3))
        for j, k, l in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            eps[j, k, l] = 1.0
            eps[k, j, l] = -1.0
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                expected = (j == k) * IDENTITY_2.copy()
                for l in (1, 2, 3):
                    expected = expected + 1j * eps[j - 1, k - 1, l - 1] * pauli(l)
                np.testing.assert_allclose(pauli(j) @ pauli(k), expected, atol=ATOL)

    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_traceless_hermitian_unit_determinant(self, axis):
        m = pauli(axis)
        assert abs(np.trace(m)) <= ATOL
        assert is_hermitian(m)
        assert abs(abs(np.linalg.det(m)) - 1.0) <= ATOL

    @pytest.mark.parametrize("axis", [0, 4, -1, "z"])
    def test_invalid_axis_rejected(self, axis):
        with pytest.raises(ValueError):
            pauli(axis)

    def test_returned_matrix_is_a_copy(self):
        m = pauli(1)
        m[0, 0] = 99.0
        assert pauli(1)[0, 0] == 0.0


class TestDagger:
    def test_involution(self):
        rng = np.random.default_rng(1)
        m = random_matrix(rng, 4)
        np.testing.assert_array_equal(dagger(dagger(m)), m)

    def test_second_axis_self_adjoint(self):
        np.testing.assert_array_equal(dagger(pauli(2)), pauli(2))

    def test_imaginary_identity_flips_sign(self):
        np.testing.assert_array_equal(dagger(1j * IDENTITY_2), -1j * IDENTITY_2)

    def test_product_rule(self):
        """dagger(A B) = dagger(B) dagger(A), checked entrywise on random pairs."""
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = random_matrix(rng, 2)
            b = random_matrix(rng, 2)
            np.testing.assert_allclose(dagger(a @ b), dagger(b) @ dagger(a), atol=ATOL)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            dagger(np.array([[np.nan, 0], [0, 1]], dtype=complex))


class TestTensor:
    def test_identity_pair(self):
        np.testing.assert_array_equal(tensor(IDENTITY_2, IDENTITY_2), np.eye(4, dtype=complex))

    def test_trace_multiplicativity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = random_matrix(rng, 2)
            b = random_matrix(rng, 2)
            assert abs(np.trace(tensor(a, b)) - np.trace(a) * np.trace(b)) <= 1e-10

    def test_system_factor_is_slow(self):
        """tensor(pauli(3), I) leaves any up (x) r vector with eigenvalue +1."""
        rng = np.random.default_rng(4)
        r = random_vector(rng, 2)
        vec = np.kron(np.array([1.0, 0.0], dtype=complex), r)
        np.testing.assert_allclose(tensor(pauli(3), IDENTITY_2) @ vec, vec, atol=ATOL)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tensor(np.eye(4), np.eye(2))


class TestPartialTrace:
    def test_product_state_factorizes(self):
        """trace_out_remote(rho (x) mu) = rho * trace(mu) entrywise."""
        rng = np.random.default_rng(5)
        for _ in range(20):
            rho = random_matrix(rng, 2)
            mu = random_matrix(rng, 2)
            np.testing.assert_allclose(
                trace_out_remote(np.kron(rho, mu)), rho * np.trace(mu), atol=1e-10
            )

    def test_singlet_reduces_to_maximally_mixed(self):
        vec = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
        np.testing.assert_allclose(
            trace_out_remote(np.outer(vec, vec.conj())), IDENTITY_2 / 2.0, atol=ATOL
        )

    def test_half_half_marker_state_reduces_to_maximally_mixed(self):
        composite = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        np.testing.assert_allclose(trace_out_remote(composite), IDENTITY_2 / 2.0, atol=ATOL)

    def test_trace_is_preserved(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m = random_matrix(rng, 4)
            assert abs(np.trace(trace_out_remote(m)) - np.trace(m)) <= 1e-10
            assert abs(np.trace(trace_out_system(m)) - np.trace(m)) <= 1e-10

    def test_hermiticity_is_preserved(self):
        rng = np.random.default_rng(7)
        m = random_matrix(rng, 4)
        h = m + dagger(m)
        assert is_hermitian(trace_out_remote(h), atol=1e-10)

    def test_remote_and_system_sides_differ(self):
        up_down = np.kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])).astype(complex)
        np.testing.assert_allclose(trace_out_remote(up_down), np.diag([1.0, 0.0]), atol=ATOL)
        np.testing.assert_allclose(trace_out_system(up_down), np.diag([0.0, 1.0]), atol=ATOL)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError):
            trace_out_remote(np.eye(2))


class TestMeanValue:
    def test_identity_on_any_density_is_one(self):
        rng = np.random.default_rng(8)
        v = random_vector(rng, 2)
        w = random_vector(rng, 2)
        rho = 0.3 * np.outer(v, v.conj()) + 0.7 * np.outer(w, w.conj())
        assert mean_value(IDENTITY_2, rho) == pytest.approx(1.0, abs=ATOL)

    def test_diagonal_state_first_component(self):
        """<Sigma1> of the +1 diagonal eigenstate is 1/sqrt(2)."""
        c, s = np.cos(np.pi / 8.0), np.sin(np.pi / 8.0)
        plus = np.array([c, s], dtype=complex)
        assert mean_value(pauli(1), projector(plus)) == pytest.approx(1.0 / np.sqrt(2.0), abs=ATOL)

    def test_diagonal_mixture_second_component_is_zero(self):
        """<Sigma2> vanishes for any mixture of the two diagonal eigenstates."""
        c, s = np.cos(np.pi / 8.0), np.sin(np.pi / 8.0)
        plus = np.array([c, s], dtype=complex)
        minus = np.array([s, -c], dtype=complex)
        p = 0.3
        rho = p * projector(plus) + (1.0 - p) * projector(minus)
        assert mean_value(pauli(2), rho) == pytest.approx(0.0, abs=ATOL)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mean_value(np.eye(2), np.eye(4) / 4.0)

    def test_imaginary_residue_raises(self):
        """An anti-hermitian operator makes the trace imaginary; must be caught."""
        c, s = np.cos(np.pi / 8.0), np.sin(np.pi / 8.0)
        rho = projector(np.array([c, s], dtype=complex))
        with pytest.raises(ConsistencyError):
            mean_value(1j * pauli(1), rho)


class TestSpinUnitary:
    def test_zero_angle_is_identity(self):
        rng = np.random.default_rng(9)
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        np.testing.assert_allclose(spin_unitary(axis, 0.0), IDENTITY_2, atol=1e-15)

    def test_full_turn_is_minus_identity(self):
        """A 2*pi rotation flips the spinor sign."""
        np.testing.assert_allclose(
            spin_unitary([0.0, 0.0, 1.0], 2.0 * np.pi), -IDENTITY_2, atol=ATOL
        )

    def test_unitarity_and_determinant(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            u = spin_unitary(axis, rng.uniform(0.0, 2.0 * np.pi))
            np.testing.assert_allclose(dagger(u) @ u, IDENTITY_2, atol=ATOL)
            assert abs(abs(np.linalg.det(u)) - 1.0) <= ATOL

    def test_non_unit_axis_rejected(self):
        with pytest.raises(ValueError):
            spin_unitary([1.0, 1.0, 0.0], 0.5)


class TestProjector:
    def test_up_state(self):
        np.testing.assert_array_equal(
            projector(np.array([1.0, 0.0], dtype=complex)), np.diag([1.0, 0.0]).astype(complex)
        )

    def test_idempotent_hermitian_trace_one(self):
        rng = np.random.default_rng(11)
        for dim in (2, 4):
            for _ in range(10):
                p = projector(random_vector(rng, dim))
                np.testing.assert_allclose(p @ p, p, atol=ATOL)
                assert is_projector(p)
                assert abs(np.trace(p) - 1.0) <= ATOL

    def test_unnormalized_vector_rejected(self):
        with pytest.raises(ValueError):
            projector(np.array([1.0, 1.0], dtype=complex))


class TestPredicates:
    def test_density_flag(self):
        assert is_density(IDENTITY_2 / 2.0)
        assert not is_density(IDENTITY_2)
        assert not is_density(pauli(1))

    def test_unitary_flag(self):
        assert is_unitary(pauli(2))
        assert not is_unitary(0.5 * IDENTITY_2)

    def test_projector_flag(self):
        assert is_projector(np.diag([1.0, 0.0]).astype(complex))
        assert not is_projector(0.5 * IDENTITY_2)


# Every public entry point that takes an array: (call on the array, the
# name its error gives the array, the shape it accepts).
SINGLE_UP = Ensemble((Branch(1.0, np.kron(UP, UP)),))
BOUNDARIES = {
    "Branch": (lambda x: Branch(1.0, x), "branch vector", (4,)),
    "MeasurementBasis": (lambda x: MeasurementBasis((x, IDENTITY_2)), "projector 0", (2, 2)),
    "ProductUnitary": (lambda x: ProductUnitary(IDENTITY_2, x), "remote_u", (2, 2)),
    "product_ensemble": (
        lambda x: product_ensemble([(1.0, x)], [(1.0, UP)]), "system vector", (2,)
    ),
    "correlated_ensemble": (
        lambda x: correlated_ensemble(0.5, UP, UP, DOWN, x), "remote_b", (2,)
    ),
    "tensor": (lambda x: tensor(IDENTITY_2, x), "b", (2, 2)),
    "trace_out_remote": (trace_out_remote, "composite", (4, 4)),
    "projector": (projector, "vector", (2,)),
    "heisenberg_probability": (
        lambda x: heisenberg_probability(x, ProductUnitary(IDENTITY_2, IDENTITY_2), SINGLE_UP),
        "proposition",
        (2, 2),
    ),
}


@pytest.mark.parametrize("defect", ["nan-entry", "wrong-shape"])
@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_boundary_rejects_bad_array_by_name(boundary, defect):
    """One shared validator guards every boundary and names the argument."""
    call, name, shape = BOUNDARIES[boundary]
    if defect == "nan-entry":
        value = np.zeros(shape)
        value.flat[-1] = np.nan
        reason = " contains non-finite entries"
    else:
        value = np.zeros((3,) * len(shape))
        reason = " must have shape "
    with pytest.raises(ValueError, match=re.escape(name + reason)):
        call(value)

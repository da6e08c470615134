"""Seeded per-trial random inputs for the tests: states, rotations, projectors,
bases, product unitaries and ensembles, one value at a time."""

import numpy as np

from oracles import ProductUnitary, pauli
from spinpair.measurement import MeasurementBasis
from spinpair.qmath import ATOL, IDENTITY_2, projector
from spinpair.states import Branch, Ensemble


def spin_unitary(axis, angle: float) -> np.ndarray:
    """Spin rotation cos(angle/2)*I - i*sin(angle/2)*(n . Sigma) about unit axis n."""
    n = np.asarray(axis, dtype=float)
    if n.shape != (3,) or not np.all(np.isfinite(n)):
        raise ValueError("axis must be a finite real 3-vector")
    norm = float(np.linalg.norm(n))
    if abs(norm - 1.0) > ATOL:
        raise ValueError(f"axis must have unit norm, got {norm!r}")
    half = 0.5 * float(angle)
    n_dot_sigma = n[0] * pauli(1) + n[1] * pauli(2) + n[2] * pauli(3)
    return np.cos(half) * np.eye(2, dtype=complex) - 1.0j * np.sin(half) * n_dot_sigma


def random_state_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Normalized complex Gaussian vector; uniform on the unit sphere."""
    vec = rng.standard_normal(dim) + 1.0j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def random_unitary_2(rng: np.random.Generator) -> np.ndarray:
    """Spin rotation with uniform random axis and uniform angle in [0, 2*pi)."""
    axis = rng.standard_normal(3)
    norm = np.linalg.norm(axis)
    while norm < 1e-8:
        axis = rng.standard_normal(3)
        norm = np.linalg.norm(axis)
    return spin_unitary(axis / norm, rng.uniform(0.0, 2.0 * np.pi))


def random_product_unitary(rng: np.random.Generator) -> ProductUnitary:
    return ProductUnitary(random_unitary_2(rng), random_unitary_2(rng))


def random_projector_2(rng: np.random.Generator) -> np.ndarray:
    return projector(random_state_vector(rng, 2))


def random_basis(rng: np.random.Generator) -> MeasurementBasis:
    """Two-outcome basis {P, I - P} from a random rank-1 projector."""
    p = random_projector_2(rng)
    return MeasurementBasis((p, IDENTITY_2 - p))


def random_ensemble(rng: np.random.Generator) -> Ensemble:
    """1 to 4 branches, each product or entangled with equal chance, Dirichlet weights."""
    count = int(rng.integers(1, 5))
    weights = rng.dirichlet(np.ones(count))
    weights = weights / weights.sum()
    branches = []
    for w in weights:
        if rng.random() < 0.5:
            vec = np.kron(random_state_vector(rng, 2), random_state_vector(rng, 2))
        else:
            vec = random_state_vector(rng, 4)
        branches.append(Branch(float(w), vec))
    return Ensemble(tuple(branches))

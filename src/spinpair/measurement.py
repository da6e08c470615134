"""Projective measurements on the remote spin of the pair.

Every contrast measures the remote spin, so measure_all always embeds a
projector on that side. Collapse acts branch by branch, so the result of a
measurement is still a preparation record: each surviving branch is the
projection of an input branch, renormalized and reweighted by how much of it
survived. The density matrix of the collapsed ensemble always equals the
projected-and-renormalized density matrix of the input, which the tests check
against that independent route. The single-outcome routes (outcome
probability, collapse onto one projector, the joint probability summed over
a decomposition) are test oracles in tests/oracles.py.

A basis is validated when it is built, and its embedded projectors
I (x) P_k are built with it; a measurement only collapses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .qmath import ATOL, IDENTITY_2, _real_traces, checked, projector
from .states import Branch, Ensemble, density_of

# Outcomes and branches below this probability are treated as impossible;
# the threshold sits below double-precision resolution of any scenario
# amplitude in this package.
PROB_FLOOR = 1e-12


class ImpossibleOutcomeError(ValueError):
    """Collapse was requested onto an outcome of zero probability."""


@dataclass(frozen=True, eq=False)
class MeasurementBasis:
    """Ordered projectors of a projective measurement on one spin.

    Validated when built: ValueError naming the first projector of a wrong
    shape, or else every violation validate_basis finds. embedded holds the
    remote-side projectors I (x) P_k as one read-only (n, 4, 4) stack.
    """

    projectors: tuple[np.ndarray, ...]
    embedded: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        frozen = []
        for index, raw in enumerate(self.projectors):
            arr = checked(raw, f"projector {index}", (2, 2)).copy()
            arr.setflags(write=False)
            frozen.append(arr)
        violations = validate_basis(frozen)
        if violations:
            raise ValueError("invalid measurement basis: " + "; ".join(violations))
        stack = np.stack([np.kron(IDENTITY_2, effect) for effect in frozen])
        stack.setflags(write=False)
        object.__setattr__(self, "projectors", tuple(frozen))
        object.__setattr__(self, "embedded", stack)

    def __len__(self) -> int:  # perfbench's tracer counts the projectors tried with len()
        return len(self.projectors)


@dataclass(frozen=True, eq=False)
class OutcomeBranch:
    """One measurement outcome: its index, probability, and collapsed ensemble."""

    outcome_index: int
    probability: float
    post_state: Ensemble


def basis_from_vectors(*vectors) -> MeasurementBasis:
    """Basis of rank-1 projectors onto the given normalized 2-vectors."""
    return MeasurementBasis(tuple(projector(v) for v in vectors))


def validate_basis(projectors) -> tuple[str, ...]:
    """Check hermiticity, idempotence, pairwise orthogonality and completeness
    of (2, 2) projectors; the violations, each naming the offending projector
    (pair) and its magnitude, or () for a projective measurement.
    """
    violations: list[str] = []
    for j, ej in enumerate(projectors):
        dev = float(np.max(np.abs(ej - ej.conj().T)))
        if dev > ATOL:
            violations.append(f"projector {j} is not hermitian (deviation {dev:.3e})")
        dev = float(np.max(np.abs(ej @ ej - ej)))
        if dev > ATOL:
            violations.append(f"projector {j} is not idempotent (deviation {dev:.3e})")
        for k in range(j + 1, len(projectors)):
            dev = float(np.max(np.abs(ej @ projectors[k])))
            if dev > ATOL:
                violations.append(f"projectors {j} and {k} are not orthogonal (deviation {dev:.3e})")
    total = np.zeros((2, 2), dtype=complex)
    for ej in projectors:
        total = total + ej
    dev = float(np.max(np.abs(total - IDENTITY_2)))
    if dev > ATOL:
        violations.append(f"projectors do not sum to the identity (deviation {dev:.3e})")
    return tuple(violations)


def _collapse(ensemble: Ensemble, embedded: np.ndarray) -> Ensemble:
    """Project every branch onto the embedded outcome, drop annihilated
    branches, reweight; ImpossibleOutcomeError when the outcome has zero
    probability."""
    kept: list[tuple[float, np.ndarray]] = []
    total_mass = 0.0
    for branch in ensemble.branches:
        phi = embedded @ branch.vector
        overlap = float(np.vdot(phi, phi).real)
        total_mass += branch.weight * overlap
        if overlap > PROB_FLOOR:
            kept.append((branch.weight * overlap, phi / np.sqrt(overlap)))
    if total_mass <= PROB_FLOOR or not kept:
        raise ImpossibleOutcomeError(
            f"outcome has probability {total_mass:.3e}; the state cannot collapse onto it"
        )
    kept_mass = math.fsum(mass for mass, _ in kept)
    return Ensemble._computed(tuple(Branch._computed(mass / kept_mass, vec) for mass, vec in kept))


def measure_all(ensemble: Ensemble, basis: MeasurementBasis) -> tuple[OutcomeBranch, ...]:
    """Full outcome decomposition of a measurement on the remote spin: one
    OutcomeBranch per projector that can fire."""
    embedded = basis.embedded
    probabilities = _real_traces(embedded, density_of(ensemble))
    return tuple(
        OutcomeBranch(index, prob, _collapse(ensemble, embedded[index]))
        for index, prob in enumerate(probabilities)
        if prob > PROB_FLOOR
    )

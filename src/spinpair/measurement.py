"""Projective measurements on one spin of the pair.

Collapse acts branch by branch, so the result of a measurement is still a
preparation record: each surviving branch is the projection of an input
branch, renormalized and reweighted by how much of it survived. The density
matrix of the collapsed ensemble always equals the projected-and-renormalized
density matrix of the input, which the tests check against that independent
route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qmath import ATOL, IDENTITY_2, checked, is_projector, mean_value, projector
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

    Construction only checks shapes; orthogonality, idempotence and
    completeness are checked by validate_basis so that defective bases can
    be diagnosed rather than rejected blind.
    """

    projectors: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not self.projectors:
            raise ValueError("measurement basis needs at least one projector")
        frozen = []
        for index, raw in enumerate(self.projectors):
            arr = checked(raw, f"projector {index}", (2, 2)).copy()
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "projectors", tuple(frozen))

    def __len__(self) -> int:
        return len(self.projectors)


@dataclass(frozen=True)
class BasisReport:
    """Outcome of validate_basis: ok, or a list of named violations."""

    ok: bool
    violations: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class OutcomeBranch:
    """One measurement outcome: its index, probability, and collapsed ensemble."""

    outcome_index: int
    probability: float
    post_state: Ensemble


def basis_from_vectors(*vectors) -> MeasurementBasis:
    """Basis of rank-1 projectors onto the given normalized 2-vectors."""
    return MeasurementBasis(tuple(projector(v) for v in vectors))


def validate_basis(basis: MeasurementBasis, atol: float = ATOL) -> BasisReport:
    """Check hermiticity, idempotence, pairwise orthogonality and completeness.

    Each violation names the offending projector (pair) and its magnitude.
    """
    violations: list[str] = []
    ps = basis.projectors
    for j, ej in enumerate(ps):
        dev = float(np.max(np.abs(ej - ej.conj().T)))
        if dev > atol:
            violations.append(f"projector {j} is not hermitian (deviation {dev:.3e})")
        dev = float(np.max(np.abs(ej @ ej - ej)))
        if dev > atol:
            violations.append(f"projector {j} is not idempotent (deviation {dev:.3e})")
        for k in range(j + 1, len(ps)):
            dev = float(np.max(np.abs(ej @ ps[k])))
            if dev > atol:
                violations.append(f"projectors {j} and {k} are not orthogonal (deviation {dev:.3e})")
    total = np.zeros((2, 2), dtype=complex)
    for ej in ps:
        total = total + ej
    dev = float(np.max(np.abs(total - IDENTITY_2)))
    if dev > atol:
        violations.append(f"projectors do not sum to the identity (deviation {dev:.3e})")
    return BasisReport(not violations, tuple(violations))


def _embed(effect: np.ndarray, subsystem: str) -> np.ndarray:
    if subsystem == "remote":
        return np.kron(IDENTITY_2, effect)
    if subsystem == "system":
        return np.kron(effect, IDENTITY_2)
    raise ValueError(f"subsystem must be 'remote' or 'system', got {subsystem!r}")


def _require_projector(effect, name: str = "effect") -> np.ndarray:
    arr = checked(effect, name, (2, 2))
    if not is_projector(arr):
        raise ValueError(f"{name} must be a hermitian projector")
    return arr


def outcome_probability(ensemble: Ensemble, effect, subsystem: str = "remote") -> float:
    """Probability that the projector's proposition is true for this preparation."""
    embedded = _embed(_require_projector(effect), subsystem)
    return mean_value(embedded, density_of(ensemble))


def collapse(ensemble: Ensemble, effect, subsystem: str = "remote") -> Ensemble:
    """Project every branch onto the outcome, drop annihilated branches, reweight.

    Raises ImpossibleOutcomeError when the outcome has zero probability.
    """
    return _collapse(ensemble, _embed(_require_projector(effect), subsystem))


def _collapse(ensemble: Ensemble, embedded: np.ndarray) -> Ensemble:
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
    return Ensemble(tuple(Branch(mass / kept_mass, vec) for mass, vec in kept))


def measure_all(
    ensemble: Ensemble, basis: MeasurementBasis, subsystem: str = "remote"
) -> tuple[OutcomeBranch, ...]:
    """Full outcome decomposition: one OutcomeBranch per projector that can fire."""
    report = validate_basis(basis)
    if not report.ok:
        raise ValueError("invalid measurement basis: " + "; ".join(report.violations))
    rho = density_of(ensemble)
    outcomes = []
    for index, effect in enumerate(basis.projectors):
        embedded = _embed(effect, subsystem)
        prob = mean_value(embedded, rho)
        if prob > PROB_FLOOR:
            outcomes.append(OutcomeBranch(index, prob, _collapse(ensemble, embedded)))
    return tuple(outcomes)


def joint_probability_total(proposition, outcomes: tuple[OutcomeBranch, ...]) -> float:
    """Sum over remote outcomes of P(outcome) * P(system proposition | outcome).

    Computed the long way round, over a measure_all outcome decomposition;
    the no-signalling suite checks it against the undisturbed expectation.
    """
    embedded = _embed(_require_projector(proposition, "proposition"), "system")
    total = 0.0
    for outcome in outcomes:
        total += outcome.probability * mean_value(embedded, density_of(outcome.post_state))
    return total

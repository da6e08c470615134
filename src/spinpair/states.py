"""Preparation-aware states of the two-spin pair.

An Ensemble is a full preparation record: an ordered, weighted list of pure
composite vectors. Its density matrix is derived data. Two ensembles with
identical density matrices are still distinct values, because the branch
decomposition is exactly what the nonlinear dynamics responds to; nothing
in this package ever silently replaces an ensemble by its density matrix.

The remote spin is always modelled as a 2-dimensional system. Where only
two orthonormal remote states are needed as markers, they are the remote
basis vectors UP and DOWN.

The fixed states (UP, DOWN, the diagonal eigenstates DIAG_PLUS and
DIAG_MINUS, and SINGLET) are built once, at import, as read-only arrays that
every command shares. branch_bloch and reduced_bloch take validated values
only, so they call the unchecked qmath kernels; a branch's norm and a Bloch
vector's range are still checked where those values are constructed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qmath import PAULI, _real_traces, _reduce, checked

NORM_ATOL = 1e-12

# A pure product branch has a system Bloch vector of length 1; entangled
# branches fall measurably short of that.
BLOCH_PURITY_ATOL = 1e-9
BLOCH_BALL_SLACK = 1e-10

UP = np.array([1.0, 0.0], dtype=complex)
DOWN = np.array([0.0, 1.0], dtype=complex)
# Eigenvectors of (Sigma1 + Sigma3)/sqrt(2) for eigenvalues +1 and -1. Phase
# convention: the first nonzero component is real and positive.
DIAG_PLUS = np.array([np.cos(np.pi / 8.0), np.sin(np.pi / 8.0)], dtype=complex)
DIAG_MINUS = np.array([np.sin(np.pi / 8.0), -np.cos(np.pi / 8.0)], dtype=complex)
# Total-spin-zero composite vector (|up,down> - |down,up>)/sqrt(2).
SINGLET = np.array([0.0, 1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0), 0.0], dtype=complex)
for _state in (UP, DOWN, DIAG_PLUS, DIAG_MINUS, SINGLET):
    _state.setflags(write=False)


class NotProductError(ValueError):
    """A per-branch Bloch vector was requested for an entangled branch."""


@dataclass(frozen=True, eq=False)
class Branch:
    """One weighted pure composite state inside an ensemble."""

    weight: float
    vector: np.ndarray

    def __post_init__(self) -> None:
        weight = float(self.weight)
        if not np.isfinite(weight) or weight < -NORM_ATOL or weight > 1.0 + NORM_ATOL:
            raise ValueError(f"branch weight must lie in [0, 1], got {weight!r}")
        vec = checked(self.vector, "branch vector", (4,))
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"branch vector must be normalized, got norm {norm!r}")
        vec = vec.copy()
        vec.setflags(write=False)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "vector", vec)


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Ordered, weighted list of pure composite states; weights sum to 1.

    The branch order is part of the value's identity: it records how the
    state was assembled, not just which density matrix results.
    """

    branches: tuple[Branch, ...]

    def __post_init__(self) -> None:
        branches = tuple(self.branches)
        if not branches:
            raise ValueError("ensemble needs at least one branch")
        for branch in branches:
            if not isinstance(branch, Branch):
                raise TypeError(f"ensemble branches must be Branch values, got {type(branch)!r}")
        total = math.fsum(branch.weight for branch in branches)
        if abs(total - 1.0) > NORM_ATOL:
            raise ValueError(f"branch weights must sum to 1, got {total!r}")
        object.__setattr__(self, "branches", branches)


@dataclass(frozen=True)
class BlochVector:
    """Triple of spin mean values (s1, s2, s3); the state of the mean-value dynamics."""

    s1: float
    s2: float
    s3: float

    def __post_init__(self) -> None:
        comps = (float(self.s1), float(self.s2), float(self.s3))
        if not all(np.isfinite(c) for c in comps):
            raise ValueError("Bloch components must be finite")
        norm_sq = comps[0] ** 2 + comps[1] ** 2 + comps[2] ** 2
        if norm_sq > 1.0 + BLOCH_BALL_SLACK:
            raise ValueError(f"Bloch vector lies outside the unit ball (|b|^2 = {norm_sq!r})")
        object.__setattr__(self, "s1", comps[0])
        object.__setattr__(self, "s2", comps[1])
        object.__setattr__(self, "s3", comps[2])


def density_of(ensemble: Ensemble) -> np.ndarray:
    """Density matrix of an ensemble: the weighted sum of branch projectors."""
    rho = np.zeros((4, 4), dtype=complex)
    for branch in ensemble.branches:
        rho += branch.weight * np.outer(branch.vector, branch.vector.conj())
    return rho


def reduced_bloch(ensemble: Ensemble) -> BlochVector:
    """Bloch vector of the system spin for the whole preparation."""
    return BlochVector(*_real_traces(PAULI, _reduce(density_of(ensemble))))


def branch_bloch(branch: Branch) -> BlochVector:
    """Bloch vector of one branch's system factor.

    Defined only for product branches: an entangled branch has no pure
    system factor, and asking for one raises NotProductError instead of
    returning a shortened vector.
    """
    rho = _reduce(np.outer(branch.vector, branch.vector.conj()))
    comps = _real_traces(PAULI, rho)
    norm = float(np.sqrt(sum(c * c for c in comps)))
    if abs(norm - 1.0) > BLOCH_PURITY_ATOL:
        raise NotProductError(
            f"branch is not a product state: system Bloch norm {norm!r} differs from 1"
        )
    return BlochVector(*comps)


def _weighted_parts(parts, name: str) -> list[tuple[float, np.ndarray]]:
    out = []
    for weight, vector in parts:
        out.append((float(weight), checked(vector, f"{name} vector", (2,))))
    if not out:
        raise ValueError(f"{name} parts must not be empty")
    total = math.fsum(w for w, _ in out)
    if abs(total - 1.0) > NORM_ATOL:
        raise ValueError(f"{name} weights must sum to 1, got {total!r}")
    return out


def product_ensemble(
    system_parts: Sequence[tuple[float, np.ndarray]],
    remote_parts: Sequence[tuple[float, np.ndarray]],
) -> Ensemble:
    """Uncorrelated pair state: every system branch paired with every remote branch.

    Both arguments are sequences of (weight, 2-vector) pairs whose weights
    sum to 1. The result's density matrix is the Kronecker product of the
    two marginal densities, and no measurement on the remote spin can move
    the system marginal.
    """
    sys_parts = _weighted_parts(system_parts, "system")
    rem_parts = _weighted_parts(remote_parts, "remote")
    branches = tuple(
        Branch(ws * wr, np.outer(vs, vr).ravel())
        for ws, vs in sys_parts
        for wr, vr in rem_parts
    )
    return Ensemble(branches)


def correlated_ensemble(
    p: float,
    system_a: np.ndarray,
    remote_a: np.ndarray,
    system_b: np.ndarray,
    remote_b: np.ndarray,
) -> Ensemble:
    """Classically correlated mixture: weight p on system_a with marker remote_a,
    weight 1-p on system_b with marker remote_b.

    The remote markers must be orthogonal, so measuring them reveals which
    branch was prepared without ever interacting with the system spin.
    """
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    ra = checked(remote_a, "remote_a", (2,))
    rb = checked(remote_b, "remote_b", (2,))
    overlap = abs(complex(np.vdot(ra, rb)))
    if overlap > NORM_ATOL:
        raise ValueError(f"remote marker states must be orthogonal, got overlap {overlap:.3e}")
    return Ensemble(
        (
            Branch(p, np.outer(checked(system_a, "system_a", (2,)), ra).ravel()),
            Branch(1.0 - p, np.outer(checked(system_b, "system_b", (2,)), rb).ravel()),
        )
    )

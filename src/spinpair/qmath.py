"""Dense complex linear algebra for one and two spin-1/2 systems.

All values are plain numpy arrays (dtype complex128): 2x2 or 4x4 matrices
and 2- or 4-component vectors. Composite operators follow one fixed index
convention used everywhere in this package: the watched spin ("system") is
the slow, left Kronecker factor and the non-interacting companion spin
("remote") is the fast, right factor.

Only dimensions 2 and 4 are supported, and every eigenvector the package
needs has a closed form, so there is no general eigensolver here. Composite
operators are built with np.kron directly. The adjoint and the hermitian,
unitary, projector and density predicates are test oracles and live in
tests/oracles.py.

Arrays are validated once, where they enter: public functions and value-type
constructors pass array arguments through checked, which names the argument
in its error; internal code passes already validated arrays straight to numpy.
The constants (PAULI, IDENTITY_2) are built once, at import, and are
read-only. The kernels _reduce and _real_traces skip checked: they take only
arrays the package computed from validated values. _reduce is the float
operation of trace_out_remote, and _real_traces gives the bits of one
checked trace per operator (the oracle mean_value in tests/oracles.py).
_real_traces still raises ConsistencyError on an imaginary residue, which
no validation of the inputs rules out.
"""

from __future__ import annotations

import numpy as np

# Tolerance for algebraic identities along exact closed-form paths: well
# above double-precision noise, well below any physical effect simulated.
ATOL = 1e-12

# Expectation values of hermitian operators must be real; a larger
# imaginary residue signals corrupted inputs, not roundoff.
MEAN_IMAG_TOL = 1e-10


class ConsistencyError(RuntimeError):
    """An algebraic identity that must hold exactly failed beyond tolerance."""


# The spin matrices Sigma1, Sigma2, Sigma3, stacked: PAULI[k - 1] is axis k.
PAULI = np.array(
    [[[0.0, 1.0], [1.0, 0.0]], [[0.0, -1.0j], [1.0j, 0.0]], [[1.0, 0.0], [0.0, -1.0]]],
    dtype=complex,
)
PAULI.setflags(write=False)

IDENTITY_2 = np.eye(2, dtype=complex)
IDENTITY_2.setflags(write=False)


def checked(value, name: str, *shapes: tuple[int, ...]) -> np.ndarray:
    """value as a complex array of one of the given shapes with only finite entries;
    ValueError naming the argument otherwise."""
    arr = np.asarray(value, dtype=complex)
    if arr.shape not in shapes:
        expected = " or ".join(map(str, shapes))
        raise ValueError(f"{name} must have shape {expected}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _reduce(composite: np.ndarray) -> np.ndarray:
    return np.trace(composite.reshape(2, 2, 2, 2), axis1=1, axis2=3)


def trace_out_remote(composite) -> np.ndarray:
    """Reduced 2x2 operator for the system spin: partial trace over the remote factor."""
    return _reduce(checked(composite, "composite", (4, 4)))


def _real_traces(operators: np.ndarray, rho: np.ndarray) -> list[float]:
    """Real expectations Tr[A @ rho] of a stack of hermitian operators A on one
    state; ConsistencyError if one has an imaginary residue above MEAN_IMAG_TOL."""
    values = (operators @ rho).trace(axis1=-2, axis2=-1)
    for residue in values.imag.tolist():
        if abs(residue) > MEAN_IMAG_TOL:
            raise ConsistencyError(
                f"expectation value has imaginary residue {residue:.3e}; "
                "operator or state is not what it claims to be"
            )
    return values.real.tolist()


def projector(vector) -> np.ndarray:
    """Rank-1 projector |v><v| onto a normalized vector."""
    v = checked(vector, "vector", (2,), (4,))
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > ATOL:
        raise ValueError(f"vector must be normalized, got norm {norm!r}")
    return np.outer(v, v.conj())

"""Dense complex linear algebra for one and two spin-1/2 systems.

All values are plain numpy arrays (dtype complex128): 2x2 or 4x4 matrices
and 2- or 4-component vectors. Composite operators follow one fixed index
convention used everywhere in this package: the watched spin ("system") is
the slow, left Kronecker factor and the non-interacting companion spin
("remote") is the fast, right factor.

Only dimensions 2 and 4 are supported, and every eigenvector the package
needs has a closed form, so there is no general eigensolver here.

Arrays are validated once, where they enter: public functions and value-type
constructors pass array arguments through checked, which names the argument
in its error; internal code passes already validated arrays straight to numpy.
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


_PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)
for _m in _PAULI:
    _m.setflags(write=False)

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


def pauli(axis: int) -> np.ndarray:
    """Return the 2x2 spin matrix for the given axis (1, 2, or 3)."""
    if axis not in (1, 2, 3):
        raise ValueError(f"axis must be 1, 2, or 3, got {axis!r}")
    return _PAULI[axis - 1].copy()


def dagger(matrix) -> np.ndarray:
    """Conjugate transpose."""
    return checked(matrix, "matrix", (2, 2), (4, 4)).conj().T.copy()


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two 2x2 operators, system factor slow, remote fast."""
    return np.kron(checked(a, "a", (2, 2)), checked(b, "b", (2, 2)))


def trace_out_remote(composite) -> np.ndarray:
    """Reduced 2x2 operator for the system spin: partial trace over the remote factor."""
    m = checked(composite, "composite", (4, 4))
    return np.trace(m.reshape(2, 2, 2, 2), axis1=1, axis2=3)


def trace_out_system(composite) -> np.ndarray:
    """Reduced 2x2 operator for the remote spin: partial trace over the system factor."""
    m = checked(composite, "composite", (4, 4))
    return np.trace(m.reshape(2, 2, 2, 2), axis1=0, axis2=2)


def mean_value(operator, rho) -> float:
    """Real expectation Tr[operator @ rho] of a hermitian operator on a state."""
    a = checked(operator, "operator", (2, 2), (4, 4))
    r = checked(rho, "rho", (2, 2), (4, 4))
    if a.shape != r.shape:
        raise ValueError(f"operator and state dimensions differ: {a.shape} vs {r.shape}")
    value = complex(np.trace(a @ r))
    if abs(value.imag) > MEAN_IMAG_TOL:
        raise ConsistencyError(
            f"expectation value has imaginary residue {value.imag:.3e}; "
            "operator or state is not what it claims to be"
        )
    return value.real


def spin_unitary(axis, angle: float) -> np.ndarray:
    """Spin rotation cos(angle/2)*I - i*sin(angle/2)*(n . Sigma) about unit axis n."""
    n = np.asarray(axis, dtype=float)
    if n.shape != (3,) or not np.all(np.isfinite(n)):
        raise ValueError("axis must be a finite real 3-vector")
    norm = float(np.linalg.norm(n))
    if abs(norm - 1.0) > ATOL:
        raise ValueError(f"axis must have unit norm, got {norm!r}")
    half = 0.5 * float(angle)
    n_dot_sigma = n[0] * _PAULI[0] + n[1] * _PAULI[1] + n[2] * _PAULI[2]
    return np.cos(half) * np.eye(2, dtype=complex) - 1.0j * np.sin(half) * n_dot_sigma


def projector(vector) -> np.ndarray:
    """Rank-1 projector |v><v| onto a normalized vector."""
    v = checked(vector, "vector", (2,), (4,))
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > ATOL:
        raise ValueError(f"vector must be normalized, got norm {norm!r}")
    return np.outer(v, v.conj())


def is_hermitian(matrix, atol: float = ATOL) -> bool:
    m = checked(matrix, "matrix", (2, 2), (4, 4))
    return bool(np.max(np.abs(m - m.conj().T)) <= atol)


def is_unitary(matrix, atol: float = ATOL) -> bool:
    m = checked(matrix, "matrix", (2, 2), (4, 4))
    return bool(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) <= atol)


def is_projector(matrix, atol: float = ATOL) -> bool:
    m = checked(matrix, "matrix", (2, 2), (4, 4))
    return is_hermitian(m, atol) and bool(np.max(np.abs(m @ m - m)) <= atol)


def is_density(matrix, atol: float = ATOL) -> bool:
    """Hermitian, unit trace, and no negative real part on the diagonal."""
    m = checked(matrix, "matrix", (2, 2), (4, 4))
    if not is_hermitian(m, atol):
        return False
    if abs(complex(np.trace(m)) - 1.0) > atol:
        return False
    return bool(np.min(np.diag(m).real) >= -atol)

"""Linear dynamics of the non-interacting pair, plus its verification suite.

With no interaction, a time step is a product unitary: one factor acts on
the system spin, one on the remote spin. Linear theory then guarantees that
nothing done on the remote side, neither its unitary nor a projective
measurement, can move any system-side probability. no_signalling_suite
checks that guarantee on seeded random inputs and reports the worst
deviation it found.

The suite works on trials in batches of at most CHUNK. draw_trials draws a
batch as stacked arrays, trial axis first. trial_probabilities moves that
axis last, so an operator is a (4, 4, n) array and every product, density
and trace over the batch is a few elementwise operations on n-long rows.
Each route is still computed the long way round (collapse onto each remote
outcome, the full composite Heisenberg operator, evolution of the collapsed
branches), so no checked identity holds by construction. The per-trial
forms of the same routes (ProductUnitary, evolve, heisenberg_probability)
are in tests/oracles.py; the tests rebuild single trials with them as the
oracle for the batched kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measurement import PROB_FLOOR
from .qmath import IDENTITY_2, MEAN_IMAG_TOL, PAULI, ConsistencyError

# Trials per batch. The suite's working memory is one batch (about 18 MB
# traced at this size), whatever the trial count.
CHUNK = 4096

# Branch slots per trial: an ensemble has 1 to 4 branches, and the slots
# past a trial's branch count are padding with weight 0.
BRANCH_SLOTS = 4


@dataclass(frozen=True)
class NoSignallingReport:
    """Worst deviations found by the randomized linear-theory checks."""

    trials: int
    seed: int
    outcome_sum_deviation: float
    remote_choice_deviation: float
    interposed_deviation: float


@dataclass(frozen=True, eq=False)
class TrialBatch:
    """Stacked random inputs of n suite trials, leading axis the trial.

    branches (n,) is each trial's branch count; weights (n, 4) and vectors
    (n, 4, 4) hold the branches in the first branches[i] slots and padding
    with weight 0 in the rest. basis (n, 2, 2, 2) holds each trial's remote
    projectors {P, I - P}, proposition (n, 2, 2) its system projector, and
    u, v, v_alt (n, 2, 2) its system unitary and two remote unitaries.
    """

    branches: np.ndarray
    weights: np.ndarray
    vectors: np.ndarray
    basis: np.ndarray
    proposition: np.ndarray
    u: np.ndarray
    v: np.ndarray
    v_alt: np.ndarray


@dataclass(frozen=True, eq=False)
class TrialProbabilities:
    """Per-trial probabilities of the system proposition, each an (n,) array.

    direct: Tr(Q rho_sys) on the undisturbed reduced state.
    joint: sum over remote outcomes k that fire of P(k) Tr((Q x I) rho_k).
    heisenberg, heisenberg_alt: Tr(W^dagger (Q x I) W rho) with W = u x v
        and W = u x v_alt.
    reduced: Tr(u^dagger Q u rho_sys).
    interposed: sum over remote outcomes k of P(k) Tr((Q x I) W rho_k W^dagger),
        with W = u x v applied to the collapsed branches.
    """

    direct: np.ndarray
    joint: np.ndarray
    heisenberg: np.ndarray
    heisenberg_alt: np.ndarray
    reduced: np.ndarray
    interposed: np.ndarray


def _random_vectors(rng: np.random.Generator, shape: tuple[int, ...], dim: int) -> np.ndarray:
    """Normalized complex Gaussian vectors, uniform on the unit sphere."""
    vec = rng.standard_normal((*shape, dim)) + 1.0j * rng.standard_normal((*shape, dim))
    return vec / np.linalg.norm(vec, axis=-1, keepdims=True)


def _random_projectors(rng: np.random.Generator, n: int) -> np.ndarray:
    vec = _random_vectors(rng, (n,), 2)
    return np.einsum("ni,nj->nij", vec, vec.conj())


def _random_unitaries(rng: np.random.Generator, n: int) -> np.ndarray:
    """Spin rotations with uniform random axis and uniform angle in [0, 2*pi)."""
    axis = rng.standard_normal((n, 3))
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    half = 0.5 * rng.uniform(0.0, 2.0 * np.pi, n)[:, None, None]
    n_dot_sigma = np.einsum("nk,kij->nij", axis, PAULI)
    return np.cos(half) * IDENTITY_2 - 1.0j * np.sin(half) * n_dot_sigma


def draw_trials(rng: np.random.Generator, n: int) -> TrialBatch:
    """n random suite trials: 1 to 4 branches each, every branch product or
    entangled with equal chance, Dirichlet weights over the used slots, a
    random two-outcome remote basis, system proposition and spin rotations."""
    branches = rng.integers(1, BRANCH_SLOTS + 1, n)
    used = np.arange(BRANCH_SLOTS) < branches[:, None]
    # normalized unit-rate exponentials are Dirichlet(1, ..., 1)
    mass = np.where(used, rng.standard_exponential((n, BRANCH_SLOTS)), 0.0)
    product = rng.random((n, BRANCH_SLOTS)) < 0.5
    system = _random_vectors(rng, (n, BRANCH_SLOTS), 2)
    remote = _random_vectors(rng, (n, BRANCH_SLOTS), 2)
    entangled = _random_vectors(rng, (n, BRANCH_SLOTS), 4)
    pairs = np.einsum("nbi,nbj->nbij", system, remote).reshape(n, BRANCH_SLOTS, 4)
    p = _random_projectors(rng, n)
    return TrialBatch(
        branches=branches,
        weights=mass / mass.sum(axis=1, keepdims=True),
        vectors=np.where(product[..., None], pairs, entangled),
        basis=np.stack([p, IDENTITY_2 - p], axis=1),
        proposition=_random_projectors(rng, n),
        u=_random_unitaries(rng, n),
        v=_random_unitaries(rng, n),
        v_alt=_random_unitaries(rng, n),
    )


EYE = IDENTITY_2[:, :, None]  # broadcasts over the trial axis


def _trials_last(a: np.ndarray, *axes: int) -> np.ndarray:
    """A TrialBatch field with its other axes in the given order, then the trial axis."""
    return np.ascontiguousarray(a.transpose(*axes, 0))


def _adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(0, 1)


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix products a (i, j, ...) times b (j, c, ...), giving (i, c, ...);
    the axes after the first two broadcast, the trial axis last."""
    out = a[:, 0, None] * b[0]
    for j in range(1, len(b)):
        out += a[:, j, None] * b[j]
    return out


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker products of stacked 2x2 operators (2, 2, ...), system factor slow."""
    rest = np.broadcast_shapes(a.shape[2:], b.shape[2:])
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4, *rest)


def _density(weights: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Weighted sums of branch projectors: (b, ...) weights, (4, b, ...) vectors."""
    rho = np.zeros((4, 4, *vectors.shape[2:]), complex)
    for w, psi in zip(weights, vectors.swapaxes(0, 1)):
        rho += (w * psi)[:, None] * psi.conj()[None]
    return rho


def _expect(operator: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Real expectations Tr(operator rho) over stacks; ConsistencyError when an
    imaginary residue exceeds MEAN_IMAG_TOL, as qmath._real_traces raises. The
    terms are added in order: numpy would sum a lone trial's terms pairwise, so
    a trial's bits would depend on its batch."""
    terms = operator * rho.swapaxes(0, 1)
    terms = terms.reshape(-1, *terms.shape[2:])
    value = sum(terms[1:], terms[0])
    residue = float(np.max(np.abs(value.imag)))
    if not residue <= MEAN_IMAG_TOL:
        raise ConsistencyError(
            f"expectation value has imaginary residue {residue:.3e}; "
            "operator or state is not what it claims to be"
        )
    return value.real


def _collapse(weights, psi, basis, rho):
    """Every branch collapsed onto each remote outcome I x P_k, as measure_all
    does: the outcome probabilities (k, n), 0 for an outcome that does not
    fire, and the post-measurement weights (b, k, n) and branches (4, b, k, n)."""
    remote = _kron(EYE[..., None], basis)
    prob = _expect(remote, rho[:, :, None])
    post = _mul(remote, psi[:, :, None])
    overlap = (post.real**2 + post.imag**2).sum(axis=0)
    kept = overlap > PROB_FLOOR
    mass = np.where(kept, weights[:, None] * overlap, 0.0)
    kept_mass = mass.sum(axis=0)
    post /= np.sqrt(np.where(kept, overlap, 1.0))
    # an outcome that keeps no branch does not fire; its post-state stays zero
    return np.where(prob > PROB_FLOOR, prob, 0.0), mass / np.where(kept_mass > 0.0, kept_mass, 1.0), post


def trial_probabilities(batch: TrialBatch) -> TrialProbabilities:
    """Every route of every trial in the batch; see TrialProbabilities. The
    batch is taken as draw_trials draws it and is not validated."""
    weights = _trials_last(batch.weights, 1)  # (b, n)
    psi = _trials_last(batch.vectors, 2, 1)  # (4, b, n): branch vectors as columns
    basis = _trials_last(batch.basis, 2, 3, 1)  # (2, 2, k, n)
    q, u, v, v_alt = (_trials_last(m, 1, 2) for m in (batch.proposition, batch.u, batch.v, batch.v_alt))
    rho = _density(weights, psi)
    rho_sys = rho.reshape(2, 2, 2, 2, -1).trace(axis1=1, axis2=3)
    q_composite = _kron(q, EYE)
    w, w_alt = _kron(u, v), _kron(u, v_alt)
    outcome_prob, post_weights, branches = _collapse(weights, psi, basis, rho)
    q_outcomes = q_composite[:, :, None]
    joint = outcome_prob * _expect(q_outcomes, _density(post_weights, branches))
    branches[...] = _mul(w[:, :, None], branches)  # evolve in place: no second copy held
    interposed = outcome_prob * _expect(q_outcomes, _density(post_weights, branches))
    return TrialProbabilities(
        direct=_expect(q, rho_sys),
        joint=joint.sum(axis=0),
        heisenberg=_expect(_mul(_mul(_adjoint(w), q_composite), w), rho),
        heisenberg_alt=_expect(_mul(_mul(_adjoint(w_alt), q_composite), w_alt), rho),
        reduced=_expect(_mul(_mul(_adjoint(u), q), u), rho_sys),
        interposed=interposed.sum(axis=0),
    )


def no_signalling_suite(trials: int, rng_seed: int) -> NoSignallingReport:
    """Randomized verification that remote operations cannot move system probabilities.

    Each trial draws a random ensemble, remote basis, system proposition and
    product unitary, then measures three gaps that linear theory says are zero:

    * outcome_sum_deviation: summing joint probabilities over all remote
      outcomes versus the undisturbed system expectation;
    * remote_choice_deviation: the evolved probability under two different
      remote unitaries;
    * interposed_deviation: measure the remote spin, then evolve, then ask the
      system question, versus the time-advanced expectation on the reduced state.

    Trials are drawn and evaluated in batches of at most CHUNK. The report is
    a pure function of (trials, rng_seed).
    """
    rng = np.random.default_rng(rng_seed)
    worst = np.zeros(3)
    for start in range(0, trials, CHUNK):
        p = trial_probabilities(draw_trials(rng, min(CHUNK, trials - start)))
        gaps = (p.joint - p.direct, p.heisenberg - p.heisenberg_alt, p.interposed - p.reduced)
        worst = np.maximum(worst, [np.max(np.abs(gap)) for gap in gaps])
    return NoSignallingReport(trials, rng_seed, *(float(x) for x in worst))

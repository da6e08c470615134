"""Linear dynamics of the non-interacting pair, plus its verification suite.

With no interaction, a time step is a product unitary: one factor acts on
the system spin, one on the remote spin. Linear theory then guarantees that
nothing done on the remote side, neither its unitary nor a projective
measurement, can move any system-side probability. no_signalling_suite
checks that guarantee on seeded random inputs and reports the worst
deviation it found.

The suite works on trials in batches of at most CHUNK. draw_trials draws a
batch as stacked arrays, and trial_probabilities evaluates every route of
every trial at once on (n, 4, 4) stacks. Each route is still computed the
long way round (collapse onto each remote outcome, the full composite
Heisenberg operator, evolution of the collapsed branches), so no checked
identity holds by construction. The per-trial forms of the same routes
(ProductUnitary, evolve, heisenberg_probability) are in tests/oracles.py;
the tests rebuild single trials with them as the oracle for the batched
kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measurement import PROB_FLOOR
from .qmath import ATOL, IDENTITY_2, MEAN_IMAG_TOL, ConsistencyError, pauli
from .states import NORM_ATOL

# Trials per batch. The suite's working memory is one batch (about 21 MB
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

    def __len__(self) -> int:
        return len(self.branches)


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
    n_dot_sigma = np.einsum("nk,kij->nij", axis, np.stack([pauli(k) for k in (1, 2, 3)]))
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


def _adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker products of stacked 2x2 operators, system factor slow."""
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    return np.einsum("...ac,...bd->...abcd", a, b).reshape(*lead, 4, 4)


def _density(weights: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Weighted sums of branch projectors: (..., b) weights, (..., b, 4) vectors."""
    return np.einsum("...b,...bi,...bj->...ij", weights, vectors, vectors.conj())


def _expect(operator: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Real expectations Tr(operator rho) over stacks; ConsistencyError when an
    imaginary residue exceeds MEAN_IMAG_TOL, as mean_value raises."""
    value = np.einsum("...ij,...ji->...", operator, rho)
    residue = float(np.max(np.abs(value.imag)))
    if not residue <= MEAN_IMAG_TOL:
        raise ConsistencyError(
            f"expectation value has imaginary residue {residue:.3e}; "
            "operator or state is not what it claims to be"
        )
    return value.real


def _require(ok: np.ndarray, what: str) -> None:
    """ValueError naming the first trial whose entries of ok are not all true."""
    per_trial = ok.reshape(len(ok), -1).all(axis=1)
    if not per_trial.all():
        raise ValueError(f"{what} (trial {int(np.argmin(per_trial))} of the batch)")


def _max_dev(m: np.ndarray, target) -> np.ndarray:
    return np.abs(m - target).max(axis=(-2, -1))


def _check_inputs(batch: TrialBatch) -> None:
    """The checks the per-trial constructors make, once per batch."""
    w = batch.weights
    _require(np.abs(np.linalg.norm(batch.vectors, axis=-1) - 1.0) <= NORM_ATOL,
             "branch vectors must be normalized")
    _require((w >= 0.0) & (w <= 1.0) & (np.abs(w.sum(axis=1) - 1.0) <= NORM_ATOL)[:, None],
             "branch weights must lie in [0, 1] and sum to 1")
    for name in ("u", "v", "v_alt"):
        m = getattr(batch, name)
        _require(_max_dev(_adjoint(m) @ m, IDENTITY_2) <= ATOL,
                 f"{name} is not unitary within tolerance")
    ps = np.concatenate([batch.basis, batch.proposition[:, None]], axis=1)
    _require(_max_dev(ps, _adjoint(ps)) <= ATOL, "basis and proposition must be hermitian")
    _require(_max_dev(ps @ ps, ps) <= ATOL, "basis and proposition must be idempotent")
    _require(_max_dev(batch.basis[:, 0] @ batch.basis[:, 1], 0.0) <= ATOL,
             "basis projectors must be orthogonal")
    _require(_max_dev(batch.basis.sum(axis=1), IDENTITY_2) <= ATOL,
             "basis projectors must sum to the identity")


def trial_probabilities(batch: TrialBatch) -> TrialProbabilities:
    """Every route of every trial in the batch; see TrialProbabilities."""
    _check_inputs(batch)
    n = len(batch)
    psi = batch.vectors
    rho = _density(batch.weights, psi)
    rho_sys = np.einsum("niaja->nij", rho.reshape(n, 2, 2, 2, 2))
    q = batch.proposition
    q_composite = _kron(q, IDENTITY_2)

    # collapse every branch onto each remote outcome I x P_k, as measure_all does
    remote = _kron(IDENTITY_2, batch.basis)
    prob = _expect(remote, rho[:, None])
    fires = prob > PROB_FLOOR
    phi = np.einsum("nkij,nbj->nkbi", remote, psi)
    overlap = np.einsum("nkbi,nkbi->nkb", phi.conj(), phi).real
    kept = overlap > PROB_FLOOR
    mass = np.where(kept, batch.weights[:, None] * overlap, 0.0)
    kept_mass = mass.sum(axis=2, keepdims=True)
    # an outcome that keeps no branch does not fire; its post-state stays zero
    post_weights = mass / np.where(kept_mass > 0.0, kept_mass, 1.0)
    post = phi / np.sqrt(np.where(kept, overlap, 1.0))[..., None]
    outcome_prob = np.where(fires, prob, 0.0)

    w = _kron(batch.u, batch.v)
    w_alt = _kron(batch.u, batch.v_alt)
    evolved = np.einsum("nij,nkbj->nkbi", w, post)
    q_outcomes = q_composite[:, None]
    joint = outcome_prob * _expect(q_outcomes, _density(post_weights, post))
    interposed = outcome_prob * _expect(q_outcomes, _density(post_weights, evolved))
    return TrialProbabilities(
        direct=_expect(q, rho_sys),
        joint=joint.sum(axis=1),
        heisenberg=_expect(_adjoint(w) @ q_composite @ w, rho),
        heisenberg_alt=_expect(_adjoint(w_alt) @ q_composite @ w_alt, rho),
        reduced=_expect(_adjoint(batch.u) @ q @ batch.u, rho_sys),
        interposed=interposed.sum(axis=1),
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
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    rng = np.random.default_rng(rng_seed)
    worst = np.zeros(3)
    for start in range(0, trials, CHUNK):
        p = trial_probabilities(draw_trials(rng, min(CHUNK, trials - start)))
        gaps = (p.joint - p.direct, p.heisenberg - p.heisenberg_alt, p.interposed - p.reduced)
        worst = np.maximum(worst, [np.max(np.abs(gap)) for gap in gaps])
    return NoSignallingReport(trials, rng_seed, *(float(x) for x in worst))

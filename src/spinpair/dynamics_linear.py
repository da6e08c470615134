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
and trace over the batch is a few elementwise operations on n-long rows;
operator-sized results go through out= into one Workspace every chunk of a
suite reuses, with the ufuncs and order of fresh arrays, so the same bits.
Each route is still computed the long way round (collapse onto each remote
outcome, the full composite Heisenberg operator, evolution of the collapsed
branches), so no checked identity holds by construction. The per-trial
forms of the same routes (ProductUnitary, evolve, heisenberg_probability)
are in tests/oracles.py; the tests rebuild single trials with them as the
oracle for the batched kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measurement import PROB_FLOOR
from .qmath import IDENTITY_2, MEAN_IMAG_TOL, ConsistencyError

# Trials per batch. The suite's working memory is one batch, its draw and its
# workspace (about 21 MB traced at this size), whatever the trial count.
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
    vec = np.stack([rng.standard_normal((*shape, dim)), rng.standard_normal((*shape, dim))], axis=-1).view(complex)[..., 0]
    return vec / np.linalg.norm(vec, axis=-1, keepdims=True)


def _random_projectors(rng: np.random.Generator, n: int) -> np.ndarray:
    vec = _random_vectors(rng, (n,), 2)
    return np.einsum("ni,nj->nij", vec, vec.conj())


def _random_unitaries(rng: np.random.Generator, n: int) -> np.ndarray:
    """Spin rotations with uniform random axis and uniform angle in [0, 2*pi):
    cos(a/2) I - i sin(a/2) (axis . sigma) as each entry's real and imaginary
    part, a cosine or one product: the bits of tests/oracles.py spin_rotations."""
    axis = rng.standard_normal((n, 3))
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    half = 0.5 * rng.uniform(0.0, 2.0 * np.pi, n)
    c, (x, y, z) = np.cos(half), (np.sin(half)[:, None] * axis).T
    return np.stack([c, -z, -y, -x, y, -x, c, z], axis=1).view(complex).reshape(n, 2, 2)


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


class Workspace:
    """Scratch for trial_probabilities on up to n trials: one complex block whose
    top is handed out as contiguous arrays, each a whole number of words per
    trial, and given back stack-wise. A suite's chunks all run in one."""

    WORDS_PER_TRIAL = 222  # the peak of trial_probabilities' stack

    def __init__(self, n: int):
        self.block, self.top = np.empty(self.WORDS_PER_TRIAL * n, complex), 0

    def take(self, shape: tuple[int, ...], dtype=complex) -> np.ndarray:
        """An uninitialised array of the given shape, trial axis last."""
        words = -(-math.prod(shape[:-1]) * np.dtype(dtype).itemsize // 16)  # per trial, rounded up
        start, self.top = self.top, self.top + words * shape[-1]
        return self.block[start : self.top].view(dtype)[: math.prod(shape)].reshape(shape)


def _trials_last(ws: Workspace, a: np.ndarray, *axes: int) -> np.ndarray:
    """A TrialBatch field with its other axes in the given order, then the trial axis."""
    moved = a.transpose(*axes, 0)
    np.copyto(out := ws.take(moved.shape, a.dtype), moved)
    return out


def _mul(ws: Workspace, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Matrix products a (i, j, ...) times b (j, c, ...) into out (i, c, ...);
    the axes after the first two broadcast, the trial axis last."""
    mark = ws.top
    term = ws.take(out.shape)
    np.multiply(a[:, 0, None], b[0], out=out)
    for j in range(1, len(b)):
        out += np.multiply(a[:, j, None], b[j], out=term)
    ws.top = mark
    return out


def _kron(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Kronecker products of stacked 2x2 operators (2, 2, ...) into out, system factor slow."""
    np.multiply(a[:, None, :, None], b[None, :, None, :], out=out.reshape(2, 2, 2, 2, *out.shape[2:]))
    return out


def _density(ws: Workspace, weights: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Weighted sums of branch projectors, taken from ws: (b, ...) weights, (4, b, ...) vectors."""
    out = ws.take((4, 4, *vectors.shape[2:]))
    out.fill(0.0)
    mark = ws.top
    scaled, conj, outer = (ws.take(shape) for shape in (vectors[:, 0].shape, vectors[:, 0].shape, out.shape))
    for w, psi in zip(weights, vectors.swapaxes(0, 1)):
        out += np.multiply(np.multiply(w, psi, out=scaled)[:, None], np.conjugate(psi, out=conj)[None], out=outer)
    ws.top = mark
    return out


def _expect(ws: Workspace, operator: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Real expectations Tr(operator rho) over stacks; ConsistencyError when an
    imaginary residue exceeds MEAN_IMAG_TOL, as qmath._real_traces raises. The
    terms are added in order: numpy would sum a lone trial's terms pairwise, so
    a trial's bits would depend on its batch."""
    mark = ws.top
    terms = ws.take(np.broadcast_shapes(operator.shape, rho.shape))
    terms = np.multiply(operator, rho.swapaxes(0, 1), out=terms).reshape(-1, *terms.shape[2:])
    value = terms[0] + terms[1]
    for term in terms[2:]:
        value += term
    ws.top = mark
    residue = float(np.max(np.abs(value.imag)))
    if not residue <= MEAN_IMAG_TOL:
        raise ConsistencyError(
            f"expectation value has imaginary residue {residue:.3e}; "
            "operator or state is not what it claims to be"
        )
    return value.real


def _advanced(ws: Workspace, w: np.ndarray, q: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Tr(w^dagger q w rho)."""
    mark = ws.top
    left = _mul(ws, np.conjugate(w, out=ws.take(w.shape)).swapaxes(0, 1), q, ws.take(w.shape))
    value = _expect(ws, _mul(ws, left, w, ws.take(w.shape)), rho)
    ws.top = mark
    return value


def _collapse(ws: Workspace, weights, psi, basis, rho):
    """Every branch collapsed onto each remote outcome I x P_k, as measure_all
    does: the outcome probabilities (k, n), 0 for an outcome that does not fire,
    and the post-measurement weights (b, k, n) and branches (4, b, k, n), in ws."""
    post = ws.take((4, len(weights), *basis.shape[2:]))
    mark = ws.top
    remote = _kron(EYE[..., None], basis, ws.take((4, 4, *basis.shape[2:])))
    prob = _expect(ws, remote, rho[:, :, None])
    _mul(ws, remote, psi[:, :, None], post)
    squares = np.square(post.real, out=ws.take(post.shape, float))
    overlap = np.add(squares, np.square(post.imag, out=ws.take(post.shape, float)), out=squares).sum(axis=0)
    ws.top = mark
    kept = overlap > PROB_FLOOR
    mass = np.where(kept, weights[:, None] * overlap, 0.0)
    kept_mass = mass.sum(axis=0)
    overlap[~kept] = 1.0
    post /= np.sqrt(overlap, out=overlap)
    # an outcome that keeps no branch does not fire; its post-state stays zero
    return np.where(prob > PROB_FLOOR, prob, 0.0), mass / np.where(kept_mass > 0.0, kept_mass, 1.0), post


def trial_probabilities(batch: TrialBatch, ws: Workspace | None = None) -> TrialProbabilities:
    """Every route of every trial in the batch; see TrialProbabilities. The
    batch is taken as draw_trials draws it and is not validated. Its scratch
    is ws, which must have room for it, or a workspace of its own."""
    ws = Workspace(len(batch.branches)) if ws is None else ws
    mark = ws.top
    weights = _trials_last(ws, batch.weights, 1)  # (b, n)
    psi = _trials_last(ws, batch.vectors, 2, 1)  # (4, b, n): branch vectors as columns
    basis = _trials_last(ws, batch.basis, 2, 3, 1)  # (2, 2, k, n)
    q, u, v, v_alt = (_trials_last(ws, m, 1, 2) for m in (batch.proposition, batch.u, batch.v, batch.v_alt))
    rho = _density(ws, weights, psi)
    rho_sys = rho.reshape(2, 2, 2, 2, -1).trace(axis1=1, axis2=3, out=ws.take(q.shape))
    q_composite = _kron(q, EYE, ws.take(rho.shape))
    w, w_alt = _kron(u, v, ws.take(rho.shape)), _kron(u, v_alt, ws.take(rho.shape))
    outcome_prob, post_weights, branches = _collapse(ws, weights, psi, basis, rho)
    q_outcomes, collapsed = q_composite[:, :, None], ws.top
    joint = (outcome_prob * _expect(ws, q_outcomes, _density(ws, post_weights, branches))).sum(axis=0)
    ws.top = collapsed
    np.copyto(branches, _mul(ws, w[:, :, None], branches, ws.take(branches.shape)))  # evolve in place
    ws.top = collapsed
    interposed = (outcome_prob * _expect(ws, q_outcomes, _density(ws, post_weights, branches))).sum(axis=0)
    ws.top = collapsed
    direct = _expect(ws, q, rho_sys)
    heisenberg, heisenberg_alt = _advanced(ws, w, q_composite, rho), _advanced(ws, w_alt, q_composite, rho)
    reduced = _advanced(ws, u, q, rho_sys)
    ws.top = mark
    return TrialProbabilities(direct, joint, heisenberg, heisenberg_alt, reduced, interposed)


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
    ws = Workspace(min(trials, CHUNK))
    worst = np.zeros(3)
    for start in range(0, trials, CHUNK):
        p = trial_probabilities(draw_trials(rng, min(CHUNK, trials - start)), ws)
        gaps = (p.joint - p.direct, p.heisenberg - p.heisenberg_alt, p.interposed - p.reduced)
        worst = np.maximum(worst, [np.max(np.abs(gap)) for gap in gaps])
    return NoSignallingReport(trials, rng_seed, *(float(x) for x in worst))

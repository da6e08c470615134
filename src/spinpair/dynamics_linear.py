"""Linear dynamics of the non-interacting pair, plus its verification suite.

With no interaction, a time step is a product unitary: one factor acts on
the system spin, one on the remote spin. Linear theory then guarantees that
nothing done on the remote side, neither its unitary nor a projective
measurement, can move any system-side probability. no_signalling_suite
checks that guarantee on seeded random inputs and reports the worst
deviation it found.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measurement import (
    MeasurementBasis,
    _require_projector,
    joint_probability_total,
    measure_all,
)
from .qmath import (
    IDENTITY_2,
    checked,
    dagger,
    is_unitary,
    mean_value,
    projector,
    spin_unitary,
    trace_out_remote,
)
from .states import Branch, Ensemble, density_of


@dataclass(frozen=True, eq=False)
class ProductUnitary:
    """One time step of the pair: a system unitary times a remote unitary."""

    system_u: np.ndarray
    remote_u: np.ndarray

    def __post_init__(self) -> None:
        frozen = []
        for name, raw in (("system_u", self.system_u), ("remote_u", self.remote_u)):
            arr = checked(raw, name, (2, 2))
            if not is_unitary(arr):
                raise ValueError(f"{name} is not unitary within tolerance")
            arr = arr.copy()
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "system_u", frozen[0])
        object.__setattr__(self, "remote_u", frozen[1])

    def composite(self) -> np.ndarray:
        return np.kron(self.system_u, self.remote_u)


def evolve(ensemble: Ensemble, uv: ProductUnitary) -> Ensemble:
    """Apply the product unitary to every branch; weights are untouched."""
    w = uv.composite()
    return Ensemble(tuple(Branch(b.weight, w @ b.vector) for b in ensemble.branches))


def heisenberg_probability(proposition, uv: ProductUnitary, ensemble: Ensemble) -> float:
    """Probability of a system proposition after one time step, computed in the
    Heisenberg picture on the full composite state.

    The full composite expression is evaluated on purpose: that the result
    never depends on the remote factor is a consequence to be verified, not
    an assumption to be baked in.
    """
    prop = _require_projector(proposition, "proposition")
    w = uv.composite()
    advanced = dagger(w) @ np.kron(prop, IDENTITY_2) @ w
    return mean_value(advanced, density_of(ensemble))


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


@dataclass(frozen=True)
class NoSignallingReport:
    """Worst deviations found by the randomized linear-theory checks."""

    trials: int
    seed: int
    outcome_sum_deviation: float
    remote_choice_deviation: float
    interposed_deviation: float

    @property
    def max_deviation(self) -> float:
        return max(
            self.outcome_sum_deviation,
            self.remote_choice_deviation,
            self.interposed_deviation,
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

    The report is a pure function of (trials, rng_seed).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    rng = np.random.default_rng(rng_seed)
    dev_sum = 0.0
    dev_choice = 0.0
    dev_inter = 0.0
    for _ in range(trials):
        ens = random_ensemble(rng)
        basis = random_basis(rng)
        prop = random_projector_2(rng)
        u = random_unitary_2(rng)
        v = random_unitary_2(rng)
        v_alt = random_unitary_2(rng)
        uv = ProductUnitary(u, v)

        rho_sys = trace_out_remote(density_of(ens))
        direct = mean_value(prop, rho_sys)
        dev_sum = max(dev_sum, abs(joint_probability_total(prop, ens, basis) - direct))

        h_first = heisenberg_probability(prop, uv, ens)
        h_second = heisenberg_probability(prop, ProductUnitary(u, v_alt), ens)
        dev_choice = max(dev_choice, abs(h_first - h_second))

        advanced = dagger(u) @ prop @ u
        reduced_value = mean_value(advanced, rho_sys)
        prop_composite = np.kron(prop, IDENTITY_2)
        interposed = 0.0
        for outcome in measure_all(ens, basis):
            evolved = evolve(outcome.post_state, uv)
            interposed += outcome.probability * mean_value(prop_composite, density_of(evolved))
        dev_inter = max(dev_inter, abs(interposed - reduced_value))
    return NoSignallingReport(trials, rng_seed, dev_sum, dev_choice, dev_inter)

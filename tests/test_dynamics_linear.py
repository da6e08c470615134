"""Linear evolution and the randomized no-influence suite.

Schroedinger and Heisenberg routes are computed independently and compared;
the suite itself is the oracle for the no-influence identities, and the
per-trial routes in oracles.py are the oracle for the suite's batched kernel.
"""

import hashlib
import tracemalloc
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ProductUnitary,
    bloch_array,
    dagger,
    evolve,
    heisenberg_probability,
    is_unitary,
    joint_probability_total,
    mean_value,
    pauli,
)
from random_inputs import (
    random_ensemble,
    random_product_unitary,
    random_projector_2,
    random_unitary_2,
)
from spinpair.dynamics_linear import (
    CHUNK,
    NoSignallingReport,
    TrialBatch,
    draw_trials,
    no_signalling_suite,
    trial_probabilities,
)
from spinpair.measurement import MeasurementBasis, measure_all
from spinpair.qmath import IDENTITY_2, ConsistencyError, projector, trace_out_remote
from spinpair.scenarios import SUITE_DEVIATIONS, ScenarioConfig, ScenarioId, run_scenario
from spinpair.states import UP, Branch, Ensemble, density_of, reduced_bloch

ATOL = 1e-12

ROUTES = ("direct", "joint", "heisenberg", "heisenberg_alt", "reduced", "interposed")

# SHA-256 over every TrialBatch field (name, dtype, shape, C-order bytes) of
# draw_trials(default_rng(DRAW_SEED), CHUNK + 3). The draws are part of the
# report: a seed must keep naming the same trials whatever the kernel does.
DRAW_SEED = 2010
DRAW_SHA256 = "d4fa60f05002a3795e42dab32b701464d207903943e72b9dbd7c0e72c41f17a7"


def oracle(batch: TrialBatch, i: int) -> dict:
    """Trial i of a draw_trials batch rebuilt as value types and run through
    the per-trial routes, one route per TrialProbabilities field."""
    ens = Ensemble(
        tuple(Branch(batch.weights[i, b], batch.vectors[i, b]) for b in range(batch.branches[i]))
    )
    basis = MeasurementBasis(tuple(batch.basis[i]))
    prop, u, v, v_alt = batch.proposition[i], batch.u[i], batch.v[i], batch.v_alt[i]
    uv = ProductUnitary(u, v)
    rho_sys = trace_out_remote(density_of(ens))
    outcomes = measure_all(ens, basis)
    prop_composite = np.kron(prop, IDENTITY_2)
    interposed = 0.0
    for outcome in outcomes:
        evolved = evolve(outcome.post_state, uv)
        interposed += outcome.probability * mean_value(prop_composite, density_of(evolved))
    return {
        "direct": mean_value(prop, rho_sys),
        "joint": joint_probability_total(prop, outcomes),
        "heisenberg": heisenberg_probability(prop, uv, ens),
        "heisenberg_alt": heisenberg_probability(prop, ProductUnitary(u, v_alt), ens),
        "reduced": mean_value(dagger(u) @ prop @ u, rho_sys),
        "interposed": interposed,
    }


class TestProductUnitary:
    def test_rejects_non_unitary_factor(self):
        with pytest.raises(ValueError):
            ProductUnitary(0.5 * IDENTITY_2, IDENTITY_2)

    def test_composite_is_kron(self):
        rng = np.random.default_rng(50)
        u = random_unitary_2(rng)
        v = random_unitary_2(rng)
        np.testing.assert_array_equal(ProductUnitary(u, v).composite(), np.kron(u, v))


class TestEvolve:
    def test_identity_pair_changes_nothing(self):
        rng = np.random.default_rng(51)
        ens = random_ensemble(rng)
        evolved = evolve(ens, ProductUnitary(IDENTITY_2, IDENTITY_2))
        for before, after in zip(ens.branches, evolved.branches):
            assert before.weight == after.weight
            np.testing.assert_allclose(after.vector, before.vector, atol=ATOL)

    def test_branches_stay_normalized(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            evolved = evolve(random_ensemble(rng), random_product_unitary(rng))
            for branch in evolved.branches:
                assert abs(np.linalg.norm(branch.vector) - 1.0) <= ATOL

    def test_density_transforms_by_conjugation(self):
        """density_of(evolved) = W rho W^dagger, with the right side built here."""
        rng = np.random.default_rng(53)
        for _ in range(20):
            ens = random_ensemble(rng)
            uv = random_product_unitary(rng)
            w = uv.composite()
            np.testing.assert_allclose(
                density_of(evolve(ens, uv)), w @ density_of(ens) @ dagger(w), atol=ATOL
            )

    def test_reduced_bloch_ignores_remote_unitary(self):
        """Swapping the remote factor moves nothing on the system side."""
        rng = np.random.default_rng(54)
        for _ in range(10):
            ens = random_ensemble(rng)
            u = random_unitary_2(rng)
            first = reduced_bloch(evolve(ens, ProductUnitary(u, random_unitary_2(rng))))
            second = reduced_bloch(evolve(ens, ProductUnitary(u, random_unitary_2(rng))))
            np.testing.assert_allclose(bloch_array(first), bloch_array(second), atol=ATOL)


class TestHeisenbergProbability:
    def test_identity_proposition_is_one(self):
        rng = np.random.default_rng(55)
        value = heisenberg_probability(
            IDENTITY_2, random_product_unitary(rng), random_ensemble(rng)
        )
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_identity_step_reduces_to_static_expectation(self):
        rng = np.random.default_rng(56)
        ens = random_ensemble(rng)
        prop = random_projector_2(rng)
        static = mean_value(prop, trace_out_remote(density_of(ens)))
        moved = heisenberg_probability(prop, ProductUnitary(IDENTITY_2, IDENTITY_2), ens)
        assert moved == pytest.approx(static, abs=ATOL)

    def test_agrees_with_schroedinger_picture(self):
        """Evolve-then-measure equals measure-the-advanced-operator."""
        rng = np.random.default_rng(57)
        for _ in range(20):
            ens = random_ensemble(rng)
            uv = random_product_unitary(rng)
            prop = random_projector_2(rng)
            schroedinger = mean_value(np.kron(prop, IDENTITY_2), density_of(evolve(ens, uv)))
            heisenberg = heisenberg_probability(prop, uv, ens)
            assert heisenberg == pytest.approx(schroedinger, abs=1e-10)

    def test_equals_reduced_picture(self):
        """The composite expression collapses to the system-only expression."""
        rng = np.random.default_rng(58)
        for _ in range(20):
            ens = random_ensemble(rng)
            uv = random_product_unitary(rng)
            prop = random_projector_2(rng)
            advanced = dagger(uv.system_u) @ prop @ uv.system_u
            reduced = mean_value(advanced, trace_out_remote(density_of(ens)))
            assert heisenberg_probability(prop, uv, ens) == pytest.approx(reduced, abs=1e-10)

    def test_non_projector_rejected(self):
        rng = np.random.default_rng(59)
        with pytest.raises(ValueError):
            heisenberg_probability(pauli(1), random_product_unitary(rng), random_ensemble(rng))


class TestRandomGenerators:
    def test_random_unitary_is_unitary(self):
        rng = np.random.default_rng(60)
        for _ in range(20):
            assert is_unitary(random_unitary_2(rng))

    def test_random_ensemble_is_valid(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            ens = random_ensemble(rng)
            assert 1 <= len(ens.branches) <= 4
            assert sum(b.weight for b in ens.branches) == pytest.approx(1.0, abs=ATOL)

    def test_generators_are_seed_deterministic(self):
        first = random_ensemble(np.random.default_rng(62))
        second = random_ensemble(np.random.default_rng(62))
        assert len(first.branches) == len(second.branches)
        for a, b in zip(first.branches, second.branches):
            assert a.weight == b.weight
            np.testing.assert_array_equal(a.vector, b.vector)


class TestBatchedKernel:
    def test_draws_are_pinned(self):
        batch = draw_trials(np.random.default_rng(DRAW_SEED), CHUNK + 3)
        digest = hashlib.sha256()
        for field in fields(batch):
            arr = getattr(batch, field.name)
            digest.update(f"{field.name} {arr.dtype.str} {arr.shape}".encode())
            digest.update(np.ascontiguousarray(arr).tobytes())
        assert digest.hexdigest() == DRAW_SHA256

    def test_matches_the_per_trial_oracle(self):
        """Each of the six routes, trial by trial; the gaps alone would not do,
        since both sides sit near 1e-16 even when one route is wrong."""
        counts, kinds = set(), set()
        for seed in (70, 71, 72):
            batch = draw_trials(np.random.default_rng(seed), 20)
            batched = trial_probabilities(batch)
            for i in range(len(batch.branches)):
                counts.add(int(batch.branches[i]))
                for vec in batch.vectors[i, : batch.branches[i]]:
                    kinds.add(abs(np.linalg.det(vec.reshape(2, 2))) < 1e-12)  # True: product
                expected = oracle(batch, i)
                for route in ROUTES:
                    got = getattr(batched, route)[i]
                    assert got == pytest.approx(expected[route], abs=ATOL), (seed, i, route)
        assert counts == {1, 2, 3, 4}
        assert kinds == {True, False}

    @pytest.mark.parametrize("n", [1, 2, 7, 20, CHUNK + 1])
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_every_route_matches_the_oracle_across_the_batch(self, n, seed):
        """Trials from the start, middle and end of the batch: a kernel that
        mixes up the trial axis gives one trial another's operator or state."""
        batch = draw_trials(np.random.default_rng(seed), n)
        batched = trial_probabilities(batch)
        for i in sorted({0, n // 2, n - 1}):
            expected = oracle(batch, i)
            for route in ROUTES:
                assert getattr(batched, route)[i] == pytest.approx(expected[route], abs=ATOL), (i, route)

    @pytest.mark.parametrize("n, cut", [(2, 1), (20, 1), (20, 7), (20, 19), (CHUNK + 1, CHUNK)])
    def test_a_batch_and_its_slices_give_the_same_bits(self, n, cut):
        batch = draw_trials(np.random.default_rng(79), n)
        whole = trial_probabilities(batch)
        parts = [
            trial_probabilities(replace(batch, **{f.name: getattr(batch, f.name)[rows] for f in fields(batch)}))
            for rows in (slice(None, cut), slice(cut, None))
        ]
        for route in ROUTES:
            np.testing.assert_array_equal(
                getattr(whole, route), np.concatenate([getattr(part, route) for part in parts]), err_msg=route
            )

    def test_padding_slots_carry_no_weight(self):
        batch = draw_trials(np.random.default_rng(73), 200)
        padding = np.arange(4) >= batch.branches[:, None]
        assert padding.any()
        assert np.all(batch.weights[padding] == 0.0)
        assert np.all(batch.weights[~padding] > 0.0)

    def test_imaginary_expectation_raises(self):
        """Complex 'weights' whose sum is still 1 make Tr(Q rho) complex."""
        batch = draw_trials(np.random.default_rng(76), 5)
        weights = batch.weights.astype(complex)
        weights[0, 0] += 1e-3j
        weights[0, 1] -= 1e-3j
        with pytest.raises(ConsistencyError, match="imaginary residue"):
            trial_probabilities(replace(batch, weights=weights))


class TestNoSignallingSuite:
    def test_small_run_stays_below_tolerance(self):
        report = no_signalling_suite(200, 42)
        assert max(getattr(report, key) for key in SUITE_DEVIATIONS) < 1e-10

    def test_single_trial_runs(self):
        report = no_signalling_suite(1, 0)
        assert report.trials == 1
        assert max(getattr(report, key) for key in SUITE_DEVIATIONS) < 1e-10

    def test_identity_inputs_give_exactly_zero_deviation(self):
        """Hand-built identity trial: the three compared routes coincide exactly."""
        ens = Ensemble((Branch(1.0, np.kron(UP, UP)),))
        prop = projector(UP)
        uv = ProductUnitary(IDENTITY_2, IDENTITY_2)
        static = mean_value(prop, trace_out_remote(density_of(ens)))
        assert heisenberg_probability(prop, uv, ens) == static

    def test_report_is_deterministic(self):
        assert no_signalling_suite(50, 7) == no_signalling_suite(50, 7)
        assert no_signalling_suite(50, 7) != no_signalling_suite(50, 8)

    def test_memory_stays_within_one_chunk(self):
        """Trials are drawn and evaluated a chunk at a time, so tripling the
        trial count past one chunk must not triple the peak."""
        peaks = []
        for trials in (CHUNK, 3 * CHUNK):
            tracemalloc.start()
            no_signalling_suite(trials, 77)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]

    def test_max_deviation_is_the_componentwise_max(self):
        """The linear baseline's divergence is the largest of the suite's gaps."""
        report = NoSignallingReport(1, 0, 1e-13, 3e-13, 2e-13)
        with mock.patch("spinpair.scenarios.no_signalling_suite", return_value=report):
            divergence = run_scenario(ScenarioId.LINEAR_BASELINE, ScenarioConfig()).divergence
        assert divergence == 3e-13

"""Statevector simulator tests.

The reference oracle here is deliberately independent of the package's
tensordot/axis-permutation machinery: every gate is expanded to a dense
2**n x 2**n matrix by explicit bit bookkeeping and applied with plain
matrix-vector multiplication.  Agreement between the two routes on random
circuits is the core correctness argument for the simulator.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest

from diqrng.simulator import (
    MAX_QUBITS,
    CapacityError,
    CountsRecord,
    DataFormatError,
    DataIntegrityError,
    Gate,
    OutcomeDistribution,
    StateVector,
    apply_circuit,
    apply_gate,
    bitstring,
    depolarize,
    new_state,
    probabilities,
    record_from_indices,
    sample,
    sample_indices,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# independent dense-matrix oracle
# ---------------------------------------------------------------------------

def _gate_matrix(gate: Gate) -> np.ndarray:
    if gate.kind == "H":
        return np.array([[INV_SQRT2, INV_SQRT2], [INV_SQRT2, -INV_SQRT2]], dtype=complex)
    if gate.kind == "X":
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if gate.kind == "RY":
        c, s = math.cos(gate.theta / 2.0), math.sin(gate.theta / 2.0)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if gate.kind == "CNOT":
        return np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
    raise AssertionError(gate.kind)


def _dense_operator(gate: Gate, n_qubits: int) -> np.ndarray:
    """Expand `gate` to the full 2**n matrix, qubit 0 = most significant bit."""
    small = _gate_matrix(gate)
    targets = gate.targets
    dim = 1 << n_qubits
    full = np.zeros((dim, dim), dtype=complex)
    shifts = [n_qubits - 1 - q for q in targets]
    for col in range(dim):
        sub_col = 0
        for t, sh in enumerate(shifts):
            sub_col = (sub_col << 1) | ((col >> sh) & 1)
        for sub_row in range(small.shape[0]):
            amp = small[sub_row, sub_col]
            if amp == 0:
                continue
            row = col
            for t, sh in enumerate(shifts):
                bit = (sub_row >> (len(shifts) - 1 - t)) & 1
                row = (row & ~(1 << sh)) | (bit << sh)
            full[row, col] += amp
    return full


def _oracle_run(gates, n_qubits: int) -> np.ndarray:
    vec = np.zeros(1 << n_qubits, dtype=complex)
    vec[0] = 1.0
    for gate in gates:
        vec = _dense_operator(gate, n_qubits) @ vec
    return vec


def _random_circuit(rng: np.random.Generator, n_qubits: int, depth: int):
    gates = []
    for _ in range(depth):
        kind = rng.choice(["H", "X", "RY", "CNOT"] if n_qubits > 1 else ["H", "X", "RY"])
        if kind == "CNOT":
            control, target = rng.choice(n_qubits, size=2, replace=False)
            gates.append(Gate.cnot(int(control), int(target)))
        elif kind == "RY":
            gates.append(Gate.ry(float(rng.uniform(-2 * math.pi, 2 * math.pi)),
                                 int(rng.integers(n_qubits))))
        elif kind == "H":
            gates.append(Gate.h(int(rng.integers(n_qubits))))
        else:
            gates.append(Gate.x(int(rng.integers(n_qubits))))
    return gates


# ---------------------------------------------------------------------------
# states and gates
# ---------------------------------------------------------------------------

class TestStateConstruction:
    def test_new_state_is_all_zeros_ket(self):
        state = new_state(3)
        expected = np.zeros(8, dtype=complex)
        expected[0] = 1.0
        assert state.n_qubits == 3
        np.testing.assert_array_equal(state.amplitudes, expected)

    def test_capacity_bounds(self):
        with pytest.raises(CapacityError):
            new_state(0)
        with pytest.raises(CapacityError):
            new_state(MAX_QUBITS + 1)
        # the documented ceiling itself is fine
        assert new_state(MAX_QUBITS).n_qubits == MAX_QUBITS

    def test_statevector_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="norm"):
            StateVector(1, np.array([0.5, 0.5], dtype=complex))
        with pytest.raises(ValueError, match="norm"):
            StateVector(1, np.array([np.nan, 0.0], dtype=complex))

    def test_statevector_amplitudes_are_frozen(self):
        state = new_state(1)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0


class TestGateValidation:
    def test_arity_checks(self):
        with pytest.raises(ValueError):
            Gate(kind="H", targets=(0, 1))
        with pytest.raises(ValueError):
            Gate(kind="CNOT", targets=(2,))

    def test_cnot_targets_must_differ(self):
        with pytest.raises(ValueError, match="differ"):
            Gate.cnot(1, 1)

    def test_targets_must_be_ints(self):
        # catches swapped (theta, qubit) arguments at construction time
        with pytest.raises(ValueError, match="non-negative ints"):
            Gate(kind="RY", targets=(0.5,), theta=0.0)
        with pytest.raises(ValueError, match="non-negative ints"):
            Gate.h(-1)

    def test_theta_only_for_ry(self):
        with pytest.raises(ValueError):
            Gate(kind="H", targets=(0,), theta=0.3)
        with pytest.raises(ValueError):
            Gate(kind="RY", targets=(0,))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown gate"):
            Gate(kind="CZ", targets=(0, 1)).matrix()

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            apply_gate(new_state(2), Gate.h(2))


class TestGateApplication:
    def test_bell_pair_amplitudes(self):
        """H(0) then CNOT(0,1) maps |00> to (|00>+|11>)/sqrt(2)."""
        state = apply_circuit(new_state(2), [Gate.h(0), Gate.cnot(0, 1)])
        expected = np.array([INV_SQRT2, 0.0, 0.0, INV_SQRT2], dtype=complex)
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)

    def test_x_flips_msb_first_ordering(self):
        """Qubit 0 is the most significant bit of the outcome index."""
        state = apply_gate(new_state(2), Gate.x(0))
        assert abs(state.amplitudes[2] - 1.0) < 1e-15  # |10>
        state = apply_gate(new_state(2), Gate.x(1))
        assert abs(state.amplitudes[1] - 1.0) < 1e-15  # |01>

    def test_ry_rotation_on_single_qubit(self):
        theta = 0.7312
        state = apply_gate(new_state(1), Gate.ry(theta, 0))
        expected = np.array([math.cos(theta / 2), math.sin(theta / 2)], dtype=complex)
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)

    def test_cnot_both_orientations(self):
        # control above target
        state = apply_circuit(new_state(2), [Gate.x(0), Gate.cnot(0, 1)])
        assert abs(state.amplitudes[3] - 1.0) < 1e-15  # |11>
        # control below target
        state = apply_circuit(new_state(2), [Gate.x(1), Gate.cnot(1, 0)])
        assert abs(state.amplitudes[3] - 1.0) < 1e-15

    @pytest.mark.parametrize("n_qubits", [1, 2, 3])
    def test_random_circuits_match_dense_oracle(self, n_qubits):
        rng = np.random.default_rng(900 + n_qubits)
        for _ in range(10):
            gates = _random_circuit(rng, n_qubits, depth=12)
            got = apply_circuit(new_state(n_qubits), gates).amplitudes
            want = _oracle_run(gates, n_qubits)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_gate_application_preserves_norm(self):
        rng = np.random.default_rng(31)
        gates = _random_circuit(rng, 3, depth=40)
        state = apply_circuit(new_state(3), gates)
        assert abs(np.vdot(state.amplitudes, state.amplitudes).real - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------

class TestDistributions:
    def test_born_rule(self):
        state = apply_circuit(new_state(2), [Gate.h(0), Gate.cnot(0, 1)])
        dist = probabilities(state)
        np.testing.assert_allclose(dist.probs, [0.5, 0.0, 0.0, 0.5], atol=1e-15)
        assert abs(dist.probs.sum() - 1.0) < 1e-12

    def test_distribution_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            OutcomeDistribution(1, np.array([1.5, -0.5]))
        with pytest.raises(ValueError, match="sum"):
            OutcomeDistribution(1, np.array([0.6, 0.6]))
        with pytest.raises(ValueError, match="non-negative"):
            OutcomeDistribution(1, np.array([np.nan, np.nan]))
        with pytest.raises(ValueError, match="shape"):
            OutcomeDistribution(2, np.array([0.5, 0.5]))

    def test_cdf_is_built_once_and_pinned_to_one(self):
        dist = OutcomeDistribution(2, np.array([0.1, 0.2, 0.3, 0.4]))
        assert dist.cdf is dist.cdf
        np.testing.assert_allclose(dist.cdf, [0.1, 0.3, 0.6, 1.0], atol=1e-15)
        assert dist.cdf[-1] == 1.0
        assert not dist.cdf.flags.writeable

    def test_depolarize_endpoints_and_affinity(self):
        dist = OutcomeDistribution(1, np.array([0.9, 0.1]))
        same = depolarize(dist, 0.0)
        np.testing.assert_allclose(same.probs, dist.probs, atol=0)
        flat = depolarize(dist, 1.0)
        np.testing.assert_allclose(flat.probs, [0.5, 0.5], atol=1e-15)
        # affine in lambda: midpoint of endpoints
        mid = depolarize(dist, 0.5)
        np.testing.assert_allclose(mid.probs, (dist.probs + flat.probs) / 2, atol=1e-15)

    def test_depolarize_rejects_bad_lambda(self):
        dist = OutcomeDistribution(1, np.array([1.0, 0.0]))
        for lam in (-0.01, 1.01, float("nan")):
            with pytest.raises(ValueError):
                depolarize(dist, lam)

    def test_bitstring_is_msb_first(self):
        assert bitstring(0, 2) == "00"
        assert bitstring(1, 2) == "01"
        assert bitstring(2, 2) == "10"
        assert bitstring(5, 4) == "0101"


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

class TestSampling:
    def test_deterministic_for_fixed_seed(self):
        dist = OutcomeDistribution(2, np.array([0.1, 0.2, 0.3, 0.4]))
        a = sample_indices(dist, 500, rng_seed=12)
        b = sample_indices(dist, 500, rng_seed=12)
        np.testing.assert_array_equal(a, b)
        c = sample_indices(dist, 500, rng_seed=13)
        assert not np.array_equal(a, c)

    def test_empirical_frequencies_within_4_sigma(self):
        probs = np.array([0.15, 0.35, 0.05, 0.45])
        dist = OutcomeDistribution(2, probs)
        shots = 40_000
        idx = sample_indices(dist, shots, rng_seed=77)
        counts = np.bincount(idx, minlength=4)
        for k in range(4):
            sigma = math.sqrt(shots * probs[k] * (1 - probs[k]))
            assert abs(counts[k] - shots * probs[k]) < 4 * sigma, (
                f"outcome {k}: {counts[k]} vs {shots * probs[k]:.1f} (sigma {sigma:.1f})"
            )

    def test_zero_probability_outcomes_never_drawn(self):
        dist = OutcomeDistribution(2, np.array([0.5, 0.0, 0.0, 0.5]))
        idx = sample_indices(dist, 10_000, rng_seed=5)
        assert set(np.unique(idx)) <= {0, 3}

    def test_shots_must_be_positive(self):
        dist = OutcomeDistribution(1, np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="shots"):
            sample_indices(dist, 0, rng_seed=1)


# ---------------------------------------------------------------------------
# counts records
# ---------------------------------------------------------------------------

class TestCountsRecord:
    def test_record_from_indices_tallies(self):
        idx = np.array([0, 3, 3, 1, 0, 3], dtype=np.int64)
        rec = record_from_indices(idx, 2, memory=True)
        assert rec.shots == 6
        assert rec.counts == {"00": 2, "01": 1, "11": 3}
        assert rec.memory == ["00", "11", "11", "01", "00", "11"]
        rec.validate()

    def test_sample_produces_consistent_record(self):
        dist = OutcomeDistribution(2, np.array([0.5, 0.0, 0.0, 0.5]))
        rec = sample(dist, 200, rng_seed=4, memory=True, metadata={"lane": "unit"})
        rec.validate()
        assert sum(rec.counts.values()) == 200
        assert rec.metadata == {"lane": "unit"}

    def test_json_round_trip(self):
        idx = np.array([2, 1, 2], dtype=np.int64)
        rec = record_from_indices(idx, 2, memory=True, metadata={"k": 1})
        obj = rec.to_json_obj()
        back = CountsRecord.from_json_obj(json.loads(json.dumps(obj)))
        assert back.shots == rec.shots
        assert back.counts == rec.counts
        assert back.memory == rec.memory
        assert back.metadata == rec.metadata

    def test_from_json_rejects_malformed(self):
        good = record_from_indices(np.array([0, 1]), 1, memory=True).to_json_obj()
        cases = []
        missing = dict(good)
        del missing["counts"]
        cases.append(missing)
        bad_key = dict(good, counts={"0x": 2})
        cases.append(bad_key)
        mixed_width = dict(good, counts={"0": 1, "01": 1})
        cases.append(mixed_width)
        bad_count = dict(good, counts={"0": -1, "1": 3})
        cases.append(bad_count)
        bad_memory = dict(good, memory=["0", "xx"])
        cases.append(bad_memory)
        cases.append(["not", "an", "object"])
        for obj in cases:
            with pytest.raises(DataFormatError):
                CountsRecord.from_json_obj(obj)

    @pytest.mark.parametrize("memory, named", [
        (["0", "xx", "1", 7, "xx"], "'xx'"),
        (["1", 7, "xx", "0"], "7"),
        (["0", ["1"], "xx"], "['1']"),  # unhashable
        (["0", "1", {"0": 1}], "{'0': 1}"),
    ], ids=["repeated", "non-string", "list", "dict"])
    def test_bad_memory_names_the_first_bad_entry(self, memory, named):
        obj = {"shots": len(memory), "counts": {"0": len(memory)}, "memory": memory}
        with pytest.raises(DataFormatError, match=rf"memory entry {re.escape(named)} is not"):
            CountsRecord.from_json_obj(obj)

    def test_record_from_indices_names_every_outcome(self):
        idx = np.arange(16).repeat(3)
        rec = record_from_indices(idx, 4, memory=True)
        assert rec.memory == [format(i, "04b") for i in idx.tolist()]
        assert rec.counts == {format(i, "04b"): 3 for i in range(16)}
        rec.validate()

    def test_validate_detects_inconsistency(self):
        rec = CountsRecord(shots=3, counts={"0": 1, "1": 1}, memory=None, metadata={})
        with pytest.raises(DataIntegrityError, match="sum"):
            rec.validate()
        rec = CountsRecord(shots=2, counts={"0": 1, "1": 1}, memory=["0", "0"], metadata={})
        with pytest.raises(DataIntegrityError, match="memory"):
            rec.validate()

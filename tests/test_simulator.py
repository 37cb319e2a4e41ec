"""Outcome-distribution, sampling and counts-record tests.

The package computes its circuits' Born probabilities in closed form.  The
reference oracle here is deliberately independent of those formulas: every
gate is expanded to a dense 2**n x 2**n matrix by explicit bit bookkeeping
and applied to |0...0> with plain matrix-vector multiplication.  Agreement
between the two routes, for the CHSH round and both qrng circuits, is the
core correctness argument for the distributions the package samples.
"""

from __future__ import annotations

import collections
import json
import math
import re

import numpy as np
import pytest

from diqrng.game import ALL_SETTINGS, QuantumStrategy, round_distribution
from diqrng.randomness import qrng_distribution
from diqrng.simulator import (
    CountsRecord,
    DataFormatError,
    DataIntegrityError,
    OutcomeDistribution,
    bitstring,
    depolarize,
    record_from_indices,
    sample,
    sample_indices,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# independent dense-matrix oracle
# ---------------------------------------------------------------------------
# A gate is a plain tuple: ("H", (q,)), ("X", (q,)), ("RY", (q,), theta) or
# ("CNOT", (control, target)).

def _gate_matrix(gate) -> np.ndarray:
    kind = gate[0]
    if kind == "H":
        return np.array([[INV_SQRT2, INV_SQRT2], [INV_SQRT2, -INV_SQRT2]], dtype=complex)
    if kind == "X":
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if kind == "RY":
        theta = gate[2]
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "CNOT":
        return np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
    raise AssertionError(kind)


def _dense_operator(gate, n_qubits: int) -> np.ndarray:
    """Expand `gate` to the full 2**n matrix, qubit 0 = most significant bit."""
    small = _gate_matrix(gate)
    targets = gate[1]
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


class TestOracle:
    def test_oracle_basics(self):
        """Bell pair, qubit order and both CNOT orientations, by hand."""
        bell = _oracle_run([("H", (0,)), ("CNOT", (0, 1))], 2)
        np.testing.assert_allclose(bell, [INV_SQRT2, 0, 0, INV_SQRT2], atol=1e-15)
        np.testing.assert_array_equal(_oracle_run([("X", (0,))], 2), [0, 0, 1, 0])  # |10>
        for gates in ([("X", (0,)), ("CNOT", (0, 1))], [("X", (1,)), ("CNOT", (1, 0))]):
            np.testing.assert_array_equal(_oracle_run(gates, 2), [0, 0, 0, 1])

    @pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
    def test_round_distribution_matches_oracle(self, lam):
        """H, CNOT, then Ry(2*angle) on each side, as a 4 x 4 Kronecker product."""
        rng = np.random.default_rng(404)
        bell = _oracle_run([("H", (0,)), ("CNOT", (0, 1))], 2)
        offsets = [0.0, *rng.uniform(-2 * math.pi, 2 * math.pi, 5)]
        for offset in offsets:
            strategy = QuantumStrategy(global_offset=float(offset))
            for setting in ALL_SETTINGS:
                rotate = np.kron(_gate_matrix(("RY", (0,), 2 * strategy.angle_a(setting.x))),
                                 _gate_matrix(("RY", (1,), 2 * strategy.angle_b(setting.y))))
                want = (1 - lam) * np.abs(rotate @ bell) ** 2 + lam / 4
                got = round_distribution(setting, strategy, lam).probs
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("mode, n_qubits", [
        *(("hadamard", n) for n in range(1, 6)),
        *(("parity", n) for n in range(3, 6)),
    ])
    def test_qrng_distribution_matches_oracle(self, mode, n_qubits):
        if mode == "hadamard":
            gates = [("H", (q,)) for q in range(n_qubits)]
        else:
            last = n_qubits - 1
            gates = [("H", (q,)) for q in range(last)] + [("CNOT", (q, last)) for q in range(last)]
        want = np.abs(_oracle_run(gates, n_qubits)) ** 2
        got = qrng_distribution(mode, n_qubits).probs
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------

class TestDistributions:
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

    @pytest.mark.parametrize("metadata", [[], 0, "", False, None, ["mode"], 1.5],
                             ids=["empty-list", "zero", "empty-string", "false", "null",
                                  "list", "float"])
    def test_metadata_other_than_an_object_is_refused(self, metadata):
        obj = {"shots": 1, "counts": {"0": 1}, "memory": ["0"], "metadata": metadata}
        with pytest.raises(DataFormatError, match="metadata must be an object"):
            CountsRecord.from_json_obj(obj)

    def test_absent_metadata_reads_as_empty(self):
        rec = CountsRecord.from_json_obj({"shots": 1, "counts": {"0": 1}})
        assert rec.metadata == {} and rec.memory is None

    @pytest.mark.parametrize("memory", [
        ["00", "00", "11"],  # same length, one outcome too many and one too few
        ["11", "00", "00"],
        ["01", "00", "11"],  # an outcome counts does not hold
    ])
    def test_memory_multiset_that_disagrees_is_refused(self, memory):
        obj = {"shots": 3, "counts": {"00": 1, "01": 0, "11": 2}, "memory": memory}
        with pytest.raises(DataIntegrityError, match="memory tallies disagree with counts"):
            CountsRecord.from_json_obj(obj)

    @pytest.mark.parametrize("width", [1, 4, 12, 13, 20])
    def test_memory_tally_matches_counter(self, width):
        # 13 and 20 qubits are wider than the bincount tally and take Counter's
        idx = np.random.default_rng(width).integers(0, 2 ** width, 300)
        memory = [format(i, f"0{width}b") for i in idx.tolist()]
        counts = dict(collections.Counter(memory))
        rec = CountsRecord.from_json_obj({"shots": 300, "counts": counts, "memory": memory})
        assert rec.memory_digits().tobytes().decode() == "".join(memory)
        swapped = dict(counts)
        first, second = sorted(swapped)[:2]
        swapped[first] -= 1
        swapped[second] += 1
        with pytest.raises(DataIntegrityError, match="memory tallies disagree with counts"):
            CountsRecord.from_json_obj({"shots": 300, "counts": swapped, "memory": memory})

    @pytest.mark.parametrize("memory, named", [
        (["01", "0", "11"], "'0'"),  # mixed widths, the joined length short
        (["011", "0", "11"], "'011'"),  # mixed widths, the joined length right
        (["01", "0,1"], "'0,1'"),  # a comma inside an entry
        (["01", "0\u00e9"], "'0\u00e9'"),
        (["01", "2 "], "'2 '"),
        (["01", b"01"], "b'01'"),
    ], ids=["short", "long-then-short", "comma", "non-ascii", "non-bit", "bytes"])
    def test_joined_memory_check_names_the_bad_entry(self, memory, named):
        obj = {"shots": len(memory), "counts": {"01": len(memory)}, "memory": memory}
        with pytest.raises(DataFormatError, match=rf"memory entry {re.escape(named)} is not"):
            CountsRecord.from_json_obj(obj)

    def test_validate_detects_inconsistency(self):
        rec = CountsRecord(shots=3, counts={"0": 1, "1": 1}, memory=None, metadata={})
        with pytest.raises(DataIntegrityError, match="sum"):
            rec.validate()
        rec = CountsRecord(shots=2, counts={"0": 1, "1": 1}, memory=["0", "0"], metadata={})
        with pytest.raises(DataIntegrityError, match="memory"):
            rec.validate()

"""Bit-pipeline tests: source circuits, debiasing, Toeplitz hashing, and
the statistical battery.

Two in-test oracles anchor this file:
  * a pure-Python pair scanner for the von Neumann debiaser, and
  * a dense GF(2) matrix product (nested loops, integer arithmetic) for
    the Toeplitz extractor, built from the documented construction rule
    T[i][j] = seed[(in_len - 1) + i - j].
Battery p-values are frozen from the standard worked examples of the
monobit, block-frequency, and runs procedures.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from diqrng.randomness import (
    BATTERY_TESTS,
    _gammaincc,
    DEFAULT_SECURITY_MARGIN,
    ExtractionBudgetError,
    block_frequency_test,
    bits_to_text,
    hadamard_circuit,
    hadamard_qrng,
    indices_to_bits,
    load_bits_packed,
    load_bits_text,
    monobit_test,
    parity_qrng,
    parity_state,
    run_battery,
    runs_test,
    save_bits_packed,
    save_bits_text,
    toeplitz_extract,
    toeplitz_matrix,
    toeplitz_seed_bits,
    von_neumann,
)
from diqrng.simulator import DataFormatError


def _stream(text: str) -> np.ndarray:
    return np.frombuffer(text.encode(), dtype=np.uint8) - ord("0")


# inputs every stream-taking function refuses: a value above 1, and 2-d
NOT_A_STREAM = pytest.mark.parametrize("bad,match", [
    (np.array([0, 2], dtype=np.uint8), "0 or 1"),
    (np.zeros((2, 2), dtype=np.uint8), "one-dimensional"),
], ids=["above-one", "two-d"])


# ---------------------------------------------------------------------------
# in-test oracles
# ---------------------------------------------------------------------------

def _oracle_von_neumann(bits: np.ndarray) -> list[int]:
    out = []
    for k in range(0, len(bits) - 1, 2):
        a, b = int(bits[k]), int(bits[k + 1])
        if a != b:
            out.append(a)
    return out


def _oracle_toeplitz(seed: np.ndarray, x: np.ndarray, out_len: int) -> np.ndarray:
    in_len = len(x)
    out = np.zeros(out_len, dtype=np.uint8)
    for i in range(out_len):
        acc = 0
        for j in range(in_len):
            acc += int(seed[(in_len - 1) + i - j]) * int(x[j])
        out[i] = acc % 2
    return out


# ---------------------------------------------------------------------------
# source circuits
# ---------------------------------------------------------------------------

class TestSources:
    def test_hadamard_circuit_is_one_h_per_qubit(self):
        gates = hadamard_circuit(4)
        assert [(g.kind, g.targets) for g in gates] == [
            ("H", (0,)), ("H", (1,)), ("H", (2,)), ("H", (3,))]

    def test_parity_state_layout(self):
        gates = parity_state(4)
        kinds = [(g.kind, g.targets) for g in gates]
        assert kinds == [("H", (0,)), ("H", (1,)), ("H", (2,)),
                         ("CNOT", (0, 3)), ("CNOT", (1, 3)), ("CNOT", (2, 3))]
        with pytest.raises(ValueError, match=">= 3"):
            parity_state(2)

    def test_indices_to_bits_bit_order(self):
        # qubit 0 is the most significant bit of each outcome index
        idx = np.array([0b10, 0b01, 0b11], dtype=np.int64)
        bits = indices_to_bits(idx, 2)
        np.testing.assert_array_equal(bits[:, 0], [1, 0, 1])
        np.testing.assert_array_equal(bits[:, 1], [0, 1, 1])

    def test_hadamard_qrng_shape_and_determinism(self):
        streams = hadamard_qrng(3, 250, rng_seed=5)
        assert streams.shape == (3, 250) and streams.dtype == np.uint8
        assert len(streams) == 3
        assert all(len(s) == 250 for s in streams)
        again = hadamard_qrng(3, 250, rng_seed=5)
        for a, b in zip(streams, again):
            np.testing.assert_array_equal(a, b)

    def test_hadamard_bits_are_roughly_balanced(self):
        streams = hadamard_qrng(2, 20_000, rng_seed=8)
        for s in streams:
            assert abs(s.mean() - 0.5) < 4 * math.sqrt(0.25 / 20_000)

    @pytest.mark.parametrize("n_qubits", [3, 4, 5, 6])
    def test_parity_xor_invariant(self, n_qubits):
        """The last output bit equals the XOR of all the others, every shot."""
        streams = parity_qrng(n_qubits, 2000, rng_seed=n_qubits)
        assert len(streams) == n_qubits
        acc = np.zeros(2000, dtype=np.uint8)
        for s in streams[:-1]:
            acc ^= s
        np.testing.assert_array_equal(acc, streams[-1])


# ---------------------------------------------------------------------------
# von Neumann debiasing
# ---------------------------------------------------------------------------

class TestVonNeumann:
    def test_worked_example(self):
        out = von_neumann(_stream("0110"))
        np.testing.assert_array_equal(out, [0, 1])

    def test_pair_table(self):
        # pairs 00,11,01,10: the first two drop, 01 -> 0, 10 -> 1
        out = von_neumann(_stream("00110110"))
        np.testing.assert_array_equal(out, [0, 1])
        out = von_neumann(_stream("10"))
        np.testing.assert_array_equal(out, [1])

    def test_odd_trailing_bit_is_ignored(self):
        np.testing.assert_array_equal(von_neumann(_stream("011")), [0])

    def test_empty_output(self):
        assert len(von_neumann(_stream("0011"))) == 0

    def test_matches_oracle_on_random_streams(self):
        rng = np.random.default_rng(300)
        for _ in range(50):
            n = int(rng.integers(0, 400))
            bits = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(np.uint8)
            got = von_neumann(bits)
            np.testing.assert_array_equal(got, _oracle_von_neumann(bits))

    def test_debiases_bernoulli_stream(self):
        rng = np.random.default_rng(41)
        bias = 0.7
        raw = (rng.random(200_000) < bias).astype(np.uint8)
        out = von_neumann(raw)
        # expected yield 2*p*(1-p) per pair
        pairs = 100_000
        yield_p = 2 * bias * (1 - bias)
        sigma_len = math.sqrt(pairs * yield_p * (1 - yield_p))
        assert abs(len(out) - pairs * yield_p) < 4 * sigma_len
        # output is balanced
        sigma_bit = math.sqrt(0.25 / len(out))
        assert abs(out.mean() - 0.5) < 4 * sigma_bit

    @NOT_A_STREAM
    def test_rejects_non_streams(self, bad, match):
        with pytest.raises(ValueError, match=match):
            von_neumann(bad)


# ---------------------------------------------------------------------------
# Toeplitz hashing
# ---------------------------------------------------------------------------

class TestToeplitz:
    def test_worked_example(self):
        """seed 01100, input 101, 3 output bits -> 111.

        T = [[1,1,0],[0,1,1],[0,0,1]] from T[i][j] = seed[2 + i - j].
        """
        seed = np.array([0, 1, 1, 0, 0], dtype=np.uint8)
        matrix = toeplitz_matrix(seed, 3, 3)
        np.testing.assert_array_equal(matrix, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
        out = toeplitz_extract(_stream("101"), seed, 3)
        np.testing.assert_array_equal(out, [1, 1, 1])

    def test_identity_pattern_reproduces_input(self):
        in_len, out_len = 9, 9
        seed = np.zeros(in_len + out_len - 1, dtype=np.uint8)
        seed[in_len - 1] = 1  # T[i][j] = 1 iff i == j
        x = _stream("101100111")
        np.testing.assert_array_equal(toeplitz_extract(x, seed, out_len), x)

    def test_matches_dense_oracle_on_random_instances(self):
        rng = np.random.default_rng(500)
        for _ in range(50):
            in_len = int(rng.integers(1, 17))
            out_len = int(rng.integers(1, 17))
            seed = (rng.random(in_len + out_len - 1) < 0.5).astype(np.uint8)
            x = (rng.random(in_len) < 0.5).astype(np.uint8)
            got = toeplitz_extract(x, seed, out_len)
            want = _oracle_toeplitz(seed, x, out_len)
            np.testing.assert_array_equal(got, want)

    def test_linearity_over_gf2(self):
        """T(x1 xor x2) == T(x1) xor T(x2) for random pairs."""
        rng = np.random.default_rng(501)
        in_len, out_len = 96, 48
        seed = toeplitz_seed_bits(in_len, out_len, rng_seed=77)
        for _ in range(100):
            x1 = (rng.random(in_len) < 0.5).astype(np.uint8)
            x2 = (rng.random(in_len) < 0.5).astype(np.uint8)
            t1 = toeplitz_extract(x1, seed, out_len)
            t2 = toeplitz_extract(x2, seed, out_len)
            t12 = toeplitz_extract(x1 ^ x2, seed, out_len)
            np.testing.assert_array_equal(t12, t1 ^ t2)

    def test_seed_bits_length_and_determinism(self):
        seed = toeplitz_seed_bits(100, 40, rng_seed=3)
        assert seed.shape == (139,)
        assert set(np.unique(seed)) <= {0, 1}
        np.testing.assert_array_equal(seed, toeplitz_seed_bits(100, 40, rng_seed=3))

    def test_seed_length_mismatch(self):
        with pytest.raises(ValueError, match="in_len \\+ out_len - 1"):
            toeplitz_extract(_stream("1010"), np.ones(5, dtype=np.uint8), 3)

    def test_budget_enforcement(self):
        n, rate = 1000, 0.2
        budget = math.floor(n * rate - DEFAULT_SECURITY_MARGIN)  # 136
        assert budget == 136
        bits = np.ones(n, dtype=np.uint8) * 0
        seed_ok = toeplitz_seed_bits(n, budget, rng_seed=1)
        out = toeplitz_extract(bits, seed_ok, budget, min_entropy_rate=rate)
        assert len(out) == budget
        seed_bad = toeplitz_seed_bits(n, budget + 1, rng_seed=1)
        with pytest.raises(ExtractionBudgetError, match="budget"):
            toeplitz_extract(bits, seed_bad, budget + 1, min_entropy_rate=rate)

    def test_budget_rate_validation(self):
        bits = _stream("1111")
        seed = np.ones(4 + 2 - 1, dtype=np.uint8)
        with pytest.raises(ValueError, match="rate"):
            toeplitz_extract(bits, seed, 2, min_entropy_rate=1.5)
        # a negative margin would lift the budget past n * rate
        with pytest.raises(ValueError, match="security_margin"):
            toeplitz_extract(bits, seed, 2, min_entropy_rate=0.5, security_margin=-64)

    @NOT_A_STREAM
    def test_rejects_non_streams(self, bad, match):
        seed = np.ones(bad.size + 2 - 1, dtype=np.uint8)
        with pytest.raises(ValueError, match=match):
            toeplitz_extract(bad, seed, 2)
        # the same check guards the seed
        with pytest.raises(ValueError, match=match):
            toeplitz_extract(_stream("1" * bad.size), bad, 1)

    def test_zero_rate_allows_nothing(self):
        bits = np.zeros(500, dtype=np.uint8)
        seed = toeplitz_seed_bits(500, 1, rng_seed=0)
        with pytest.raises(ExtractionBudgetError):
            toeplitz_extract(bits, seed, 1, min_entropy_rate=0.0)


# ---------------------------------------------------------------------------
# statistical battery
# ---------------------------------------------------------------------------

class TestMonobit:
    def test_worked_example(self):
        report = monobit_test(_stream("1011010101"), enforce_length=False)
        assert report.test_name == "monobit"
        assert report.statistic == pytest.approx(2 / math.sqrt(10), abs=1e-15)
        assert report.p_value == pytest.approx(0.5270892568655381, abs=1e-12)
        assert report.passed

    def test_length_gate(self):
        with pytest.raises(ValueError, match="at least 100"):
            monobit_test(_stream("1" * 99))
        # the gate can be lifted explicitly
        assert monobit_test(_stream("10" * 40), enforce_length=False).passed

    @NOT_A_STREAM
    def test_rejects_non_streams(self, bad, match):
        with pytest.raises(ValueError, match=match):
            monobit_test(bad, enforce_length=False)

    def test_constant_stream_fails(self):
        report = monobit_test(np.ones(1000, dtype=np.uint8))
        assert not report.passed
        assert report.p_value < 1e-100

    def test_balanced_stream_has_p_one(self):
        report = monobit_test(_stream("10" * 100))
        assert report.p_value == pytest.approx(1.0, abs=0)
        assert report.passed


class TestBlockFrequency:
    def test_worked_example(self):
        report = block_frequency_test(_stream("0110011010"), block_len=3)
        assert report.test_name == "block_frequency"
        assert report.statistic == pytest.approx(1.0, abs=1e-12)
        assert report.p_value == pytest.approx(0.8012519569012009, abs=1e-9)
        assert report.passed

    def test_validation(self):
        with pytest.raises(ValueError, match="block_len"):
            block_frequency_test(_stream("0101"), block_len=0)
        with pytest.raises(ValueError):
            block_frequency_test(_stream("01"), block_len=3)  # no complete block

    def test_blocky_stream_fails(self):
        bits = np.concatenate([np.ones(512, dtype=np.uint8),
                               np.zeros(512, dtype=np.uint8)])
        report = block_frequency_test(bits, block_len=128)
        assert not report.passed

    def test_trailing_partial_block_is_discarded(self):
        a = block_frequency_test(_stream("011001101"), block_len=3)
        b = block_frequency_test(_stream("0110011010"), block_len=3)
        assert a.statistic == pytest.approx(b.statistic, abs=1e-12)


def _oracle_gammaincc(a: float, x: float) -> float:
    """Q(a, x) for integer or half-integer a > 0 and x > 0, exactly summed.

    Starts from Q(1, x) = exp(-x) or Q(1/2, x) = erfc(sqrt(x)) and climbs
    with Q(k+1, x) = Q(k, x) + x**k exp(-x) / Gamma(k+1); every term is
    positive, so the fsum of terms computed in log space loses nothing to
    cancellation.
    """
    k0 = 0.5 if a % 1 else 1.0
    base = math.erfc(math.sqrt(x)) if k0 == 0.5 else math.exp(-x)
    log_x = math.log(x)
    terms = [math.exp(k * log_x - x - math.lgamma(k + 1.0))
             for k in np.arange(k0, a, 1.0).tolist()]
    return math.fsum([base, *terms])


class TestIncompleteGamma:
    """The stdlib Q(a, x) behind block_frequency_test, against the oracle."""

    @pytest.mark.parametrize("a", [0.5, 1.0, 1.5, 50.0, 6806.0, 39062.5])
    def test_matches_the_half_integer_recursion(self, a):
        spread = math.sqrt(a)
        # below the series/continued-fraction switch at x = a + 1, and above it
        for x in (0.5 * (a + 1.0), a + 0.5, a + 1.5, a + 1.0 + 2.0 * spread):
            assert _gammaincc(a, x) == pytest.approx(_oracle_gammaincc(a, x), rel=1e-9), x
        assert _gammaincc(a, 0.0) == 1.0


class TestRuns:
    def test_worked_example(self):
        report = runs_test(_stream("1001101011"))
        assert report.test_name == "runs"
        assert report.statistic == 7.0  # number of runs
        assert report.p_value == pytest.approx(0.1472322553636657, abs=1e-12)
        assert report.passed

    def test_prerequisite_gate_on_biased_stream(self):
        # |pi - 1/2| >= 2/sqrt(n) short-circuits to a hard fail
        report = runs_test(np.ones(1000, dtype=np.uint8))
        assert report.p_value == 0.0
        assert not report.passed

    def test_alternating_stream_fails(self):
        # maximal run count is as non-random as a constant stream
        report = runs_test(_stream("10" * 500))
        assert not report.passed

    def test_needs_two_bits(self):
        with pytest.raises(ValueError, match="at least 2"):
            runs_test(_stream("1"))


class TestBattery:
    def test_full_battery_on_good_stream(self):
        streams = hadamard_qrng(1, 20_000, rng_seed=1)
        reports = run_battery(streams[0])
        assert [r.test_name for r in reports] == list(BATTERY_TESTS)
        assert all(r.passed for r in reports)

    def test_subset_selection_preserves_order(self):
        streams = hadamard_qrng(1, 5000, rng_seed=2)
        reports = run_battery(streams[0], tests=("runs", "monobit"))
        assert [r.test_name for r in reports] == ["runs", "monobit"]

    def test_unknown_test_name(self):
        with pytest.raises(ValueError, match="unknown test"):
            run_battery(_stream("10" * 100), tests=("monobit", "entropy"))

    def test_report_json_shape(self):
        report = monobit_test(_stream("10" * 100))
        obj = report.to_json_obj()
        assert set(obj) == {"test_name", "statistic", "p_value", "passed"}


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

class TestPersistence:
    def test_text_round_trip(self, tmp_path):
        bits = (np.random.default_rng(9).random(257) < 0.5).astype(np.uint8)
        path = tmp_path / "bits.txt"
        save_bits_text(path, bits, line_width=64)
        text = path.read_text()
        assert all(len(line) <= 64 for line in text.splitlines())
        np.testing.assert_array_equal(load_bits_text(path), bits)

    def test_bits_to_text_no_wrap(self):
        # one line, newline-terminated
        assert bits_to_text(np.array([1, 0, 1, 1], dtype=np.uint8)) == "1011\n"

    def test_text_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0101x01")
        with pytest.raises(DataFormatError, match="non-bit"):
            load_bits_text(path)
        path.write_text("")
        with pytest.raises(DataFormatError, match="empty"):
            load_bits_text(path)

    def test_text_prefix_count(self, tmp_path):
        bits = (np.random.default_rng(11).random(203) < 0.5).astype(np.uint8)
        path = tmp_path / "bits.txt"
        save_bits_text(path, bits, line_width=64)
        for n_bits in (1, 63, 64, 65, 203):
            np.testing.assert_array_equal(load_bits_text(path, n_bits=n_bits), bits[:n_bits])
        for n_bits in (0, 204):
            with pytest.raises(DataFormatError, match="requested"):
                load_bits_text(path, n_bits=n_bits)

    def test_packed_round_trip_with_padding(self, tmp_path):
        bits = (np.random.default_rng(10).random(203) < 0.5).astype(np.uint8)
        path = tmp_path / "bits.bin"
        save_bits_packed(path, bits)
        assert path.stat().st_size == math.ceil(203 / 8)
        # without an explicit count, zero padding comes back too
        full = load_bits_packed(path)
        assert len(full) == math.ceil(203 / 8) * 8
        np.testing.assert_array_equal(full[:203], bits)
        assert not full[203:].any()
        # a count returns exactly that prefix, padding included
        for n_bits in (1, 7, 8, 9, 100, 202, 203, 208):
            np.testing.assert_array_equal(load_bits_packed(path, n_bits=n_bits), full[:n_bits])

    def test_packed_rejects_oversized_count(self, tmp_path):
        path = tmp_path / "bits.bin"
        save_bits_packed(path, np.ones(8, dtype=np.uint8))
        with pytest.raises(DataFormatError):
            load_bits_packed(path, n_bits=9)
        with pytest.raises(DataFormatError):
            load_bits_packed(path, n_bits=0)

"""Bit-stream generation, debiasing, extraction, and statistical testing.

Two seeded pipelines produce raw bits: per-qubit superposition sampling
(independent unbiased streams) and an even-parity entangled state whose
per-shot bits always XOR to zero.  Downstream, von Neumann debiasing
removes bias from independent bits, and Toeplitz hashing over GF(2)
compresses a stream to its certified entropy budget.  The test battery
is the monobit, block-frequency, and runs subset with the usual
pass mark p >= 0.01.  Every bit stream is a 1-d uint8 array of 0s and 1s.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from .io import atomic_write_bytes, atomic_write_text, read_text
from .rng import uniform_bits
from .simulator import DataFormatError, Gate, apply_circuit, new_state, probabilities, sample_indices

PASS_P = 0.01
MONOBIT_MIN_LEN = 100
DEFAULT_BLOCK_LEN = 128
DEFAULT_SECURITY_MARGIN = 64


class ExtractionBudgetError(ValueError):
    """Requested more output bits than the certified budget allows."""


# ============================================================
# seeded generation pipelines
# ============================================================

def hadamard_circuit(n_qubits: int) -> list[Gate]:
    """Superpose every qubit: the sampled outcomes are uniform n-bit strings."""
    return [Gate.h(q) for q in range(n_qubits)]


def parity_state(n_qubits: int) -> list[Gate]:
    """Uniform superposition over even-parity strings.

    Qubits 0..n-2 are superposed and each is a CNOT control onto the last
    qubit, which therefore always carries the XOR of the others.
    """
    if n_qubits < 3:
        raise ValueError(f"parity pipeline needs n_qubits >= 3, got {n_qubits}")
    gates = [Gate.h(q) for q in range(n_qubits - 1)]
    gates += [Gate.cnot(q, n_qubits - 1) for q in range(n_qubits - 1)]
    return gates


def qrng_indices(gates: list[Gate], n_qubits: int, shots: int, rng_seed: int) -> np.ndarray:
    """Outcome indices of `shots` draws from the circuit's output state."""
    dist = probabilities(apply_circuit(new_state(n_qubits), gates))
    return sample_indices(dist, shots, rng_seed)


def indices_to_bits(idx: np.ndarray, n_qubits: int) -> np.ndarray:
    """Shots x qubits bit matrix; qubit 0 is the most significant index bit."""
    shifts = np.arange(n_qubits - 1, -1, -1, dtype=np.int64)
    return ((idx[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def hadamard_qrng(n_qubits: int, shots: int, rng_seed: int) -> np.ndarray:
    """(n_qubits, shots) array of independent unbiased bits, one row per qubit."""
    idx = qrng_indices(hadamard_circuit(n_qubits), n_qubits, shots, rng_seed)
    return indices_to_bits(idx, n_qubits).T


def parity_qrng(n_qubits: int, shots: int, rng_seed: int) -> np.ndarray:
    """(n_qubits, shots) array, one row per qubit; each column XORs to zero."""
    idx = qrng_indices(parity_state(n_qubits), n_qubits, shots, rng_seed)
    return indices_to_bits(idx, n_qubits).T


# ============================================================
# debiasing and extraction
# ============================================================

def _as_bits(bits: np.ndarray | Sequence[int]) -> np.ndarray:
    """`bits` as a 1-d uint8 array, refused unless every value is 0 or 1."""
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError("bits must be one-dimensional")
    if arr.size and arr.max() > 1:
        raise ValueError("bits must be 0 or 1")
    return arr


def von_neumann(stream: np.ndarray) -> np.ndarray:
    """Debias via non-overlapping pairs: 01 -> 0, 10 -> 1, others dropped.

    Output bits are unbiased whenever input bits are independent and
    identically biased; the expected yield is 2*p*(1-p) per pair.
    """
    return _kernels.von_neumann_pairs(_as_bits(stream))


def toeplitz_seed_bits(in_len: int, out_len: int, rng_seed: int) -> np.ndarray:
    """Seed bits of the required length in_len + out_len - 1, from a seed."""
    n = in_len + out_len - 1
    if n < 1:
        raise ValueError("seed length must be positive")
    return uniform_bits(rng_seed, n)


def toeplitz_matrix(seed_bits: np.ndarray, in_len: int, out_len: int) -> np.ndarray:
    """Dense T with T[i, j] = seed[(in_len - 1) + i - j].

    Row 0 is seed[0:in_len] reversed; column 0 is seed[in_len-1:].  The
    kernels compute T @ x without materializing this matrix; it exists
    for documentation and cross-checking.
    """
    seed_bits = np.asarray(seed_bits, dtype=np.uint8)
    i = np.arange(out_len)[:, None]
    j = np.arange(in_len)[None, :]
    return seed_bits[(in_len - 1) + i - j]


def toeplitz_extract(stream: np.ndarray, seed_bits: np.ndarray, out_len: int, *,
                     min_entropy_rate: float | None = None,
                     security_margin: int = DEFAULT_SECURITY_MARGIN) -> np.ndarray:
    """Hash the stream down to out_len bits with the seeded Toeplitz family.

    When a certified min-entropy rate is supplied, the output length is
    capped at floor(len * rate - security_margin); exceeding it raises
    ExtractionBudgetError.  Without a rate the caller takes responsibility
    for the budget (the identity-pattern seed then reproduces the input).
    """
    bits = _as_bits(stream)
    if bits.size < 1:
        raise ValueError("cannot extract from an empty stream")
    if out_len < 1:
        raise ValueError(f"out_len must be >= 1, got {out_len}")
    if security_margin < 0:
        raise ValueError(f"security_margin must be >= 0, got {security_margin}")
    seed_bits = _as_bits(seed_bits)
    want = bits.size + out_len - 1
    if seed_bits.size != want:
        raise ValueError(
            f"seed_bits must have length in_len + out_len - 1 = {want}, "
            f"got {seed_bits.size}")
    if min_entropy_rate is not None:
        if not (0.0 <= min_entropy_rate <= 1.0):
            raise ValueError(f"rate must be in [0, 1], got {min_entropy_rate!r}")
        budget = math.floor(bits.size * min_entropy_rate - security_margin)
        if out_len > budget:
            raise ExtractionBudgetError(
                f"out_len {out_len} exceeds certified budget {budget} "
                f"(= floor({bits.size} * {min_entropy_rate:g} - {security_margin}))")
    return _kernels.toeplitz_gf2(seed_bits, bits, out_len)


# ============================================================
# statistical tests
# ============================================================

@dataclass(frozen=True)
class TestReport:
    """One test outcome; passed means p_value >= 0.01."""

    test_name: str
    statistic: float
    p_value: float
    passed: bool

    def to_json_obj(self) -> dict:
        return {
            "test_name": self.test_name,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "passed": self.passed,
        }


def monobit_test(bits, *, enforce_length: bool = True) -> TestReport:
    """Frequency of ones vs zeros: p = erfc(|sum(2b-1)| / sqrt(2n))."""
    b = _as_bits(bits)
    n = b.size
    if enforce_length and n < MONOBIT_MIN_LEN:
        raise ValueError(f"monobit needs at least {MONOBIT_MIN_LEN} bits, got {n}")
    if n < 1:
        raise ValueError("monobit needs a non-empty stream")
    s_obs = abs(2.0 * int(np.count_nonzero(b)) - n) / math.sqrt(n)
    p = math.erfc(s_obs / math.sqrt(2.0))
    return TestReport("monobit", s_obs, p, p >= PASS_P)


def _gammaincc(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) for a > 0, x >= 0.

    The series for P = 1 - Q below x = a + 1, the continued fraction for Q
    by the modified Lentz method above it (Numerical Recipes section 6.2,
    as in NIST SP 800-22's igamc).
    """
    if x <= 0.0:
        return 1.0
    eps, tiny = sys.float_info.epsilon, 1e-300
    log_prefactor = a * math.log(x) - x - math.lgamma(a)
    # both need O(sqrt(a)) terms near x = a + 1: about 1 600 at a = 39 062.5
    terms = range(1, 200 + int(10.0 * math.sqrt(a)))
    if x < a + 1.0:
        term = total = 1.0 / a
        for i in terms:
            term *= x / (a + i)
            total += term
            if abs(term) <= abs(total) * eps:
                return 1.0 - total * math.exp(log_prefactor)
    else:
        b = x + 1.0 - a
        c, d = 1.0 / tiny, 1.0 / b
        h = d
        for i in terms:
            an = -i * (i - a)
            b += 2.0
            d = an * d + b
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = b + an / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
            if abs(d * c - 1.0) <= eps:
                return h * math.exp(log_prefactor)
    raise FloatingPointError(f"incomplete gamma Q({a!r}, {x!r}) did not converge")


def block_frequency_test(bits, block_len: int = DEFAULT_BLOCK_LEN) -> TestReport:
    """Chi-square of ones-proportions over disjoint blocks (tail discarded)."""
    b = _as_bits(bits)
    if block_len < 1:
        raise ValueError(f"block_len must be >= 1, got {block_len}")
    n_blocks = b.size // block_len
    if n_blocks < 1:
        raise ValueError(
            f"need at least one full block of {block_len} bits, got {b.size}")
    blocks = b[: n_blocks * block_len].reshape(n_blocks, block_len)
    pi = blocks.mean(axis=1)
    chi2 = 4.0 * block_len * float(np.sum((pi - 0.5) ** 2))
    p = _gammaincc(n_blocks / 2.0, chi2 / 2.0)
    return TestReport("block_frequency", chi2, p, p >= PASS_P)


def runs_test(bits) -> TestReport:
    """Total runs vs expectation, gated on the monobit precondition.

    When the ones-proportion is farther than 2/sqrt(n) from 1/2 the run
    statistic is meaningless and the report fails with p = 0.
    """
    b = _as_bits(bits)
    n = b.size
    if n < 2:
        raise ValueError("runs test needs at least 2 bits")
    pi = float(np.count_nonzero(b)) / n
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        return TestReport("runs", 0.0, 0.0, False)
    v_obs = 1 + int(np.count_nonzero(np.diff(b)))
    p = math.erfc(abs(v_obs - 2.0 * n * pi * (1.0 - pi))
                  / (2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)))
    return TestReport("runs", float(v_obs), p, p >= PASS_P)


BATTERY_TESTS = ("monobit", "block_frequency", "runs")


def run_battery(bits, tests: Iterable[str] = BATTERY_TESTS, *,
                block_len: int = DEFAULT_BLOCK_LEN) -> list[TestReport]:
    """Run the named tests in order; same input always gives identical reports."""
    reports = []
    for name in tests:
        if name == "monobit":
            reports.append(monobit_test(bits))
        elif name == "block_frequency":
            reports.append(block_frequency_test(bits, block_len))
        elif name == "runs":
            reports.append(runs_test(bits))
        else:
            raise ValueError(f"unknown test {name!r}; choose from {BATTERY_TESTS}")
    return reports


# ============================================================
# persistence
# ============================================================
# Text: '0'/'1' characters, optionally wrapped into fixed-width lines.
# Packed: 8 bits per byte, first bit in the byte's most significant
# position; the final byte is zero-padded, so exact lengths that are not
# byte multiples need the text twin or an explicit bit count to recover.

def bits_to_text(bits: np.ndarray, line_width: int | None = None) -> str:
    digits = (np.asarray(bits, dtype=np.uint8) != 0) + np.uint8(ord("0"))
    if line_width:
        breaks = np.arange(line_width, digits.size, line_width)
        digits = np.insert(digits, breaks, np.uint8(ord("\n")))
    return digits.tobytes().decode("ascii") + "\n"


def save_bits_text(path, bits, line_width: int | None = None) -> None:
    atomic_write_text(path, bits_to_text(_as_bits(bits), line_width))


def _check_count(path, n_bits: int | None, available: int) -> None:
    if n_bits is not None and not (0 < n_bits <= available):
        raise DataFormatError(f"{path}: requested {n_bits} bits from a file holding {available}")


def load_bits_text(path, n_bits: int | None = None) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = np.frombuffer(fh.read(), dtype=np.uint8)
    bits = raw[(raw != ord("\n")) & (raw != ord("\r"))] - np.uint8(ord("0"))
    # a byte below "0" wraps above 1
    if bits.size and bits.max() > 1:
        bad = set(read_text(path, "ascii")) - set("01\n\r")
        raise DataFormatError(f"{path}: bit text contains non-bit characters {sorted(bad)}")
    if not bits.size:
        raise DataFormatError(f"{path}: bit text file is empty")
    _check_count(path, n_bits, bits.size)
    return bits[:n_bits]


def save_bits_packed(path, bits) -> None:
    atomic_write_bytes(path, np.packbits(_as_bits(bits)).tobytes())


def load_bits_packed(path, n_bits: int | None = None) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    if not data:
        raise DataFormatError(f"{path}: packed bit file is empty")
    _check_count(path, n_bits, 8 * len(data))
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=n_bits)

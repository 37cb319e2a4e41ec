"""Bit-stream generation, debiasing, extraction, and statistical testing.

Two seeded pipelines produce raw bits: `qrng_distribution` is the Born
distribution of per-qubit superposition (independent unbiased streams) or
of an even-parity entangled state whose per-shot bits always XOR to zero,
and `simulator.indices_to_bits` turns its sampled outcomes into one row of
bits per shot.  Downstream, von Neumann debiasing removes bias from independent
bits, and Toeplitz hashing over GF(2) compresses a stream to its
certified entropy budget.  The test battery is the monobit,
block-frequency, and runs subset with the usual pass mark p >= 0.01.
Every bit stream is a 1-d uint8 array of 0s and 1s, except that Toeplitz
extraction also takes `PackedBits`, bits held 8 to a byte and unpacked one
slice at a time.  `extract` holds its input that way (n/8 bytes: a .bin
file read with one `np.fromfile`, a .txt stream packed after loading) and
its seed ((n + m - 1)/8 bytes: a `--seed-file` packed after loading, or
`toeplitz_seed_bits` drawn and packed chunk by chunk before the hash, on
the calling thread).  Streams are saved as text or packed files, each
written from one uint8 array of the file's bytes (`bits_to_text`,
`np.packbits`) with no string or bytes copy of the file.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from .io import DataFormatError, atomic_write_bytes, read_text
from .rng import bit_chunks
from .simulator import OutcomeDistribution, check_qubits, indices_to_bits

PASS_P = 0.01
MONOBIT_MIN_LEN = 100
DEFAULT_BLOCK_LEN = 128
DEFAULT_SECURITY_MARGIN = 64


class ExtractionBudgetError(ValueError):
    """Requested more output bits than the certified budget allows."""


# ============================================================
# seeded generation pipelines
# ============================================================

def qrng_distribution(mode: str, n_qubits: int) -> OutcomeDistribution:
    """Born distribution of a qrng mode's circuit on n_qubits.

    "hadamard" puts H on every qubit: each n-bit string has probability
    1/2**n.  "parity" puts H on qubits 0..n-2 and makes each a CNOT
    control onto the last qubit, which therefore carries the XOR of the
    others: each even-parity string has probability 2/2**n, the rest 0.
    The qubit count is checked before anything of size 2**n is built.
    """
    check_qubits(n_qubits)
    size = 2 ** n_qubits
    if mode == "hadamard":
        return OutcomeDistribution(n_qubits, np.full(size, 1.0 / size))
    if mode == "parity":
        if n_qubits < 3:
            raise ValueError(f"parity pipeline needs n_qubits >= 3, got {n_qubits}")
        odd = indices_to_bits(np.arange(size), n_qubits).sum(axis=1) % 2
        return OutcomeDistribution(n_qubits, np.where(odd, 0.0, 2.0 / size))
    raise ValueError(f"unknown qrng mode {mode!r}")


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


def toeplitz_seed_bits(in_len: int, out_len: int, rng_seed: int) -> PackedBits:
    """The in_len + out_len - 1 seed bits `rng.uniform_bits(rng_seed, ...)` gives.

    They are drawn here, before the hash, and packed chunk by chunk as they
    are drawn, so they are never held unpacked whole.
    """
    n = in_len + out_len - 1
    if n < 1:
        raise ValueError("seed length must be positive")
    data = np.empty(-(-n // 8), dtype=np.uint8)
    for lo, bits in bit_chunks(rng_seed, n):
        data[lo // 8:(lo + bits.size + 7) // 8] = np.packbits(bits)
    return PackedBits(data, n)


def check_budget(in_len: int, out_len: int, min_entropy_rate: float,
                 security_margin: int = DEFAULT_SECURITY_MARGIN) -> None:
    """Refuse an out_len past floor(in_len * rate - security_margin)."""
    if not (0.0 <= min_entropy_rate <= 1.0):
        raise ValueError(f"rate must be in [0, 1], got {min_entropy_rate!r}")
    budget = math.floor(in_len * min_entropy_rate - security_margin)
    if out_len > budget:
        raise ExtractionBudgetError(
            f"out_len {out_len} exceeds certified budget {budget} "
            f"(= floor({in_len} * {min_entropy_rate:g} - {security_margin}))")


def toeplitz_extract(stream: PackedBits | np.ndarray, seed_bits: PackedBits | np.ndarray,
                     out_len: int, *,
                     min_entropy_rate: float | None = None,
                     security_margin: int = DEFAULT_SECURITY_MARGIN) -> np.ndarray:
    """Hash the stream down to out_len bits with the seeded Toeplitz family.

    When a certified min-entropy rate is supplied, the output length is
    capped at floor(len * rate - security_margin); exceeding it raises
    ExtractionBudgetError.  Without a rate the caller takes responsibility
    for the budget (the identity-pattern seed then reproduces the input).
    Stream and seed may each be `PackedBits`, which the kernel unpacks one
    slice at a time: `extract` passes an n-bit input in n/8 bytes and its
    seed in (n + out_len - 1)/8.
    """
    bits = stream if isinstance(stream, PackedBits) else _as_bits(stream)
    if bits.size < 1:
        raise ValueError("cannot extract from an empty stream")
    if out_len < 1:
        raise ValueError(f"out_len must be >= 1, got {out_len}")
    if security_margin < 0:
        raise ValueError(f"security_margin must be >= 0, got {security_margin}")
    seed_bits = seed_bits if isinstance(seed_bits, PackedBits) else _as_bits(seed_bits)
    want = bits.size + out_len - 1
    if seed_bits.size != want:
        raise ValueError(
            f"seed_bits must have length in_len + out_len - 1 = {want}, "
            f"got {seed_bits.size}")
    if min_entropy_rate is not None:
        check_budget(bits.size, out_len, min_entropy_rate, security_margin)
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

_ZERO, _NEWLINE = np.uint8(ord("0")), np.uint8(ord("\n"))


def bits_to_text(bits: np.ndarray, line_width: int | None = None) -> np.ndarray:
    """The bytes of a bit text file as one uint8 array.

    `bits` holds 0s and 1s.  With `line_width` every full line of that many
    digits ends in a newline, then a shorter last line if the width does not
    divide the length; without it the digits are one line.  An empty stream
    is a lone newline.
    """
    bits = np.asarray(bits, dtype=np.uint8).reshape(-1)
    n = bits.size
    width = line_width or max(n, 1)
    full, rest = divmod(n, width)
    out = np.empty(n + max(1, -(-n // width)), dtype=np.uint8)
    lines = out[:full * (width + 1)].reshape(full, width + 1)
    np.add(bits[:full * width].reshape(full, width), _ZERO, out=lines[:, :width])
    lines[:, width] = _NEWLINE
    tail = out[full * (width + 1):]
    np.add(bits[full * width:], _ZERO, out=tail[:rest])
    tail[rest:] = _NEWLINE
    return out


def save_bits_text(path, bits, line_width: int | None = None) -> None:
    atomic_write_bytes(path, bits_to_text(_as_bits(bits), line_width))


def _check_count(path, n_bits: int | None, available: int) -> None:
    if n_bits is not None and not (0 < n_bits <= available):
        raise DataFormatError(f"{path}: requested {n_bits} bits from a file holding {available}")


def load_bits_text(path, n_bits: int | None = None) -> np.ndarray:
    with open(path, "rb") as fh:
        digits = fh.read().translate(None, b"\r\n")
    bits = np.frombuffer(digits, dtype=np.uint8) - np.uint8(ord("0"))
    # a byte below "0" wraps above 1
    if bits.size and bits.max() > 1:
        bad = set(read_text(path, "ascii")) - set("01\n\r")
        raise DataFormatError(f"{path}: bit text contains non-bit characters {sorted(bad)}")
    if not bits.size:
        raise DataFormatError(f"{path}: bit text file is empty")
    _check_count(path, n_bits, bits.size)
    return bits[:n_bits]


def save_bits_packed(path, bits) -> None:
    atomic_write_bytes(path, np.packbits(_as_bits(bits)))


class PackedBits:
    """`size` bits held 8 to a byte, the first in the most significant position.

    `bits[lo:hi]` is a new uint8 array of bits lo .. hi-1, unpacked from
    only the bytes that hold them, and `bits[:]` is the whole stream.
    """

    def __init__(self, data: np.ndarray, size: int):
        self.data = data
        self.size = size

    @classmethod
    def pack(cls, bits: np.ndarray) -> PackedBits:
        return cls(np.packbits(bits), bits.size)

    @classmethod
    def read(cls, path, n_bits: int | None = None) -> PackedBits:
        """The first `n_bits` of a packed .bin file (all of it by default).

        The whole file is read once, so the count is checked against the
        bytes actually read.
        """
        data = np.fromfile(path, dtype=np.uint8)
        if not data.size:
            raise DataFormatError(f"{path}: packed bit file is empty")
        _check_count(path, n_bits, 8 * data.size)
        size = 8 * data.size if n_bits is None else n_bits
        return cls(data[:-(-size // 8)], size)

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, key: slice) -> np.ndarray:
        if not isinstance(key, slice) or key.step not in (None, 1):
            raise TypeError("PackedBits takes only contiguous slices")
        lo, hi, _ = key.indices(self.size)
        if lo >= hi:
            return np.zeros(0, dtype=np.uint8)
        first = lo // 8
        return np.unpackbits(self.data[first:-(-hi // 8)], count=hi - 8 * first)[lo - 8 * first:]


def load_bits_packed(path, n_bits: int | None = None) -> np.ndarray:
    return PackedBits.read(path, n_bits)[:]

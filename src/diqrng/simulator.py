"""Outcome distributions of small measurement circuits, and sampling from them.

A distribution covers the 2**n outcomes of n = 1..12 qubits.  Qubit 0 is
the leftmost bit of an outcome string, so basis index i spells the outcome
``format(i, "0nb")``.  The package's circuits have Born probabilities in
closed form (`game.round_distribution`, `randomness.qrng_distribution`);
this module checks, depolarizes and samples them.  Sampling is the only
randomized step and is fully determined by its seed.

The counts-record format (schema, checks, tally, reader, writer) lives
here whole; a record's per-shot outcomes are one bit array.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

import numpy as np

from . import _kernels
from .io import (DataFormatError, DataIntegrityError, _json_int, atomic_write_pieces,
                 atomic_write_text, canonical_json, load_json)
from .rng import make_rng

MAX_QUBITS = 12
DIST_TOL = 1e-9


class CapacityError(ValueError):
    """Qubit count outside the supported 1..MAX_QUBITS range."""


def check_qubits(n_qubits: int) -> None:
    """Raise CapacityError unless n_qubits is an int in 1..MAX_QUBITS.

    Callers check before building anything of size 2**n_qubits.
    """
    if not isinstance(n_qubits, (int, np.integer)) or not (1 <= n_qubits <= MAX_QUBITS):
        raise CapacityError(f"n_qubits must be an int in 1..{MAX_QUBITS}, got {n_qubits!r}")


# ============================================================
# distributions
# ============================================================

@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities over the 2**n_qubits outcomes, in basis order."""

    n_qubits: int
    probs: np.ndarray

    def __post_init__(self):
        check_qubits(self.n_qubits)
        p = np.asarray(self.probs, dtype=np.float64)
        if p.shape != (2 ** self.n_qubits,):
            raise ValueError(f"probs must have shape (2**{self.n_qubits},)")
        if not np.all(p >= -DIST_TOL):  # NaN fails too
            raise ValueError("probabilities must be non-negative")
        total = float(p.sum())
        if not abs(total - 1.0) <= DIST_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1 within {DIST_TOL}")
        p = np.clip(p, 0.0, None)
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    @functools.cached_property
    def cdf(self) -> np.ndarray:
        """Cumulative table for inverse-CDF sampling, pinned to 1 at the end."""
        cdf = np.cumsum(self.probs)
        cdf[-1] = 1.0
        cdf.flags.writeable = False
        return cdf


def depolarize(dist: OutcomeDistribution, lam: float) -> OutcomeDistribution:
    """Mix with the uniform distribution: (1-lam)*p + lam/2**n."""
    if not (0.0 <= lam <= 1.0):
        raise ValueError(f"lambda must be in [0, 1], got {lam!r}")
    size = dist.probs.size
    return OutcomeDistribution(dist.n_qubits, (1.0 - lam) * dist.probs + lam / size)


# ============================================================
# sampling and the counts interchange record
# ============================================================

def bitstring(index: int, n_qubits: int) -> str:
    return format(index, f"0{n_qubits}b")


def sample_indices(dist: OutcomeDistribution, shots: int, rng_seed: int) -> np.ndarray:
    """Outcome indices for `shots` draws; pure function of (dist, seed)."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    return _kernels.sample_outcomes(dist.cdf, make_rng(rng_seed).random(shots))


def indices_to_bits(idx: np.ndarray, n_qubits: int) -> np.ndarray:
    """Shots x qubits bit matrix; qubit 0 is the most significant index bit."""
    shifts = np.arange(n_qubits - 1, -1, -1, dtype=np.int64)
    return ((idx[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


@dataclass(eq=False)
class CountsRecord:
    """Counts (and optionally the per-shot outcomes) of one sampling run.

    `memory` is None or a (shots, width) uint8 array of outcome bits, one
    row per shot, qubit 0 in column 0.  JSON form: {"shots": int, "counts":
    {bitstring: int}, "memory": [bitstring, ...] | null, "metadata": {...}};
    bitstrings exist only there.
    """

    shots: int
    counts: dict[str, int]
    memory: np.ndarray | None = None
    metadata: dict[str, Any] = field(default_factory=dict)

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "shots": self.shots,
            "counts": dict(sorted(self.counts.items())),
            "memory": None if self.memory is None else _bitstrings(self.memory),
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping[str, Any]) -> "CountsRecord":
        if not isinstance(obj, Mapping):
            raise DataFormatError("counts record must be a JSON object")
        missing = {"shots", "counts"} - set(obj)
        if missing:
            raise DataFormatError(f"counts record missing fields: {sorted(missing)}")
        # a present "metadata" must be an object: null, [] or 0 is refused, not read as {}
        rec = cls(shots=obj["shots"], counts=obj["counts"], metadata=obj.get("metadata", {}))
        memory = obj.get("memory")
        if memory is not None:
            if not isinstance(memory, list):
                raise DataFormatError("memory must be a list or null")
            rec.memory = _bit_rows(memory, rec._width())
        rec.validate()
        rec.counts, rec.metadata = dict(rec.counts), dict(rec.metadata)
        return rec

    def _width(self) -> int:
        """The width of the counts keys, after checking shots and counts."""
        shots, counts = self.shots, self.counts
        if _json_int(shots, "shots") < 1:
            raise DataFormatError(f"shots must be a positive int, got {shots!r}")
        if not isinstance(counts, Mapping) or not counts:
            raise DataFormatError("counts must be a non-empty object")
        widths = set()
        for key, value in counts.items():
            if not isinstance(key, str) or not key or set(key) - {"0", "1"}:
                raise DataFormatError(f"counts key {key!r} is not a bitstring")
            if _json_int(value, f"count for {key!r}") < 0:
                raise DataFormatError(f"count for {key!r} must be a non-negative int")
            widths.add(len(key))
        if len(widths) != 1:
            raise DataFormatError(f"counts keys have mixed widths {sorted(widths)}")
        return widths.pop()

    def validate(self) -> None:
        """Check every field as the loader does.

        Raises DataFormatError for a field outside the schema and
        DataIntegrityError when the fields disagree with each other.
        """
        width, memory = self._width(), self.memory
        if memory is not None and not (
                isinstance(memory, np.ndarray) and memory.dtype == np.uint8
                and memory.ndim == 2 and memory.shape[1] == width and not np.any(memory > 1)):
            raise DataFormatError(f"memory must be None or a (shots, {width}) uint8 bit array")
        if not isinstance(self.metadata, Mapping):
            raise DataFormatError("metadata must be an object")
        total = sum(self.counts.values())
        if total != self.shots:
            raise DataIntegrityError(f"counts sum to {total}, shots field says {self.shots}")
        if memory is not None:
            if memory.shape[0] != self.shots:
                raise DataIntegrityError(
                    f"memory holds {memory.shape[0]} entries for {self.shots} shots")
            if _tally(memory) != {k: v for k, v in self.counts.items() if v > 0}:
                raise DataIntegrityError("memory tallies disagree with counts")


_ZERO = np.uint8(ord("0"))


def _bitstrings(bits: np.ndarray) -> list[str]:
    """Each row of a 2-d bit array as a string of 0s and 1s."""
    width = bits.shape[1]
    text = (bits + _ZERO).tobytes().decode("ascii")
    return [text[i:i + width] for i in range(0, len(text), width)]


def _bit_rows(memory: list[Any], width: int) -> np.ndarray:
    """The entries as a (len, width) uint8 array of bits.

    Every entry must be a str of `width` 0s and 1s; DataFormatError names
    the first that is not.  The entries are joined with "," between and
    after them: they are all such strings exactly when the text is ASCII,
    len * (width + 1) characters long, with a comma at every (width + 1)-th
    place and a 0 or 1 everywhere else.
    """
    n = len(memory)
    try:
        text = (",".join(memory) + "," if memory else "").encode("ascii")
    except (TypeError, UnicodeEncodeError):  # an entry that is not an ASCII str
        text = b""
    if (len(text) == n * (width + 1)
            and np.all(np.frombuffer(text, dtype=np.uint8)[width::width + 1] == ord(","))):
        # n * width bytes are left without the commas only if no other byte is one;
        # uint8 wraps, so every byte but "0" and "1" exceeds 1
        bits = np.frombuffer(text.translate(None, b","), dtype=np.uint8) - _ZERO
        if bits.size == n * width and not np.any(bits > 1):
            return bits.reshape(n, width)
    entry = next(e for e in memory if not (
        isinstance(e, str) and len(e) == width and not set(e) - {"0", "1"}))
    raise DataFormatError(f"memory entry {entry!r} is not a width-{width} bitstring")


def _tally(bits: np.ndarray) -> dict[str, int]:
    """How often each outcome occurs, keyed by its bitstring.

    Rows up to MAX_QUBITS wide are tallied by a bincount of their basis
    indices; wider rows, whose index range would not fit a bincount, by
    `np.unique` over the rows.
    """
    shots, width = bits.shape
    if width > MAX_QUBITS:
        rows, tally = np.unique(bits, axis=0, return_counts=True)
        return dict(zip(_bitstrings(rows), tally.tolist()))
    idx = np.zeros(shots, dtype=np.int64)
    for k in range(width):
        idx <<= 1
        idx |= bits[:, k]
    tally = np.bincount(idx, minlength=1 << width)
    seen = np.flatnonzero(tally)
    return {bitstring(i, width): c for i, c in zip(seen.tolist(), tally[seen].tolist())}


def record_from_indices(idx: np.ndarray, n_qubits: int, *, memory: bool = False,
                        metadata: dict[str, Any] | None = None) -> CountsRecord:
    """Build a CountsRecord from sampled outcome indices; its counts are its bits' tally."""
    bits = indices_to_bits(idx, n_qubits)
    return CountsRecord(shots=int(idx.size), counts=_tally(bits),
                        memory=bits if memory else None, metadata=dict(metadata or {}))


def load_counts_record(path: str | os.PathLike) -> CountsRecord:
    return load_json(path, CountsRecord.from_json_obj)


# rows of a counts record's memory block per write: 160 kB of text at 4 qubits
_MEMORY_ROWS = 1 << 14


def save_counts_record(path: str | os.PathLike, record: CountsRecord) -> None:
    """Write the record; the bytes equal `atomic_write_json` of `record.to_json_obj()`.

    The fields other than memory go through the one JSON encoder, at full
    precision.  The memory block is built from the record's bits as uint8
    lines ``  "0101",`` and written a bounded number of lines at a time.
    A record the loader would refuse raises before anything is written.
    """
    record.validate()
    head = canonical_json(replace(record, memory=None).to_json_obj(), precise=True)
    bits = record.memory
    if bits is None:
        atomic_write_text(path, head + "\n")
        return
    # a top-level key is the only line indented by one space: nested lines
    # take more, and a newline inside a string is escaped
    before, _, after = head.partition('\n "memory": null')
    shots, width = bits.shape
    line = np.frombuffer(b'  "' + b" " * width + b'",\n', dtype=np.uint8)

    def pieces():
        yield (before + '\n "memory": [\n').encode("ascii")
        for lo in range(0, shots, _MEMORY_ROWS):
            rows = bits[lo:lo + _MEMORY_ROWS]
            lines = np.empty((rows.shape[0], line.size), dtype=np.uint8)
            lines[:] = line
            np.add(rows, _ZERO, out=lines[:, 3:3 + width])
            # the last line ends without its ",\n", where the list closes
            yield lines if lo + _MEMORY_ROWS < shots else lines.reshape(-1)[:-2]
        yield f"\n ]{after}\n".encode("ascii")

    atomic_write_pieces(path, pieces())

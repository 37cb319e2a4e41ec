"""Outcome distributions of small measurement circuits, and sampling from them.

A distribution covers the 2**n outcomes of n = 1..12 qubits.  Qubit 0 is
the leftmost bit of an outcome string, so basis index i spells the outcome
``format(i, "0nb")``.  The package's circuits have Born probabilities in
closed form (`game.round_distribution`, `randomness.qrng_distribution`);
this module checks, depolarizes and samples them.  Sampling is the only
randomized step and is fully determined by its seed.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from . import _kernels
from .io import DataFormatError, DataIntegrityError, _json_int
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


@dataclass
class CountsRecord:
    """Counts (and optionally the per-shot outcome list) of one sampling run.

    JSON form: {"shots": int, "counts": {bitstring: int}, "memory":
    [bitstring, ...] | null, "metadata": {...}}.
    """

    shots: int
    counts: dict[str, int]
    memory: list[str] | None = None
    metadata: dict[str, Any] = field(default_factory=dict)

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "shots": self.shots,
            "counts": dict(sorted(self.counts.items())),
            "memory": list(self.memory) if self.memory is not None else None,
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
        rec = cls(shots=obj["shots"], counts=obj["counts"], memory=obj.get("memory"),
                  metadata=obj.get("metadata", {}))
        rec.validate()
        rec.counts, rec.metadata = dict(rec.counts), dict(rec.metadata)
        return rec

    def validate(self) -> None:
        """Check every field as the loader does.

        Raises DataFormatError for a field outside the schema and
        DataIntegrityError when the fields disagree with each other.
        """
        self.memory_digits()

    def memory_digits(self) -> np.ndarray | None:
        """`validate`, then the memory as a (shots, width) uint8 array of ASCII digits.

        None for a record without memory.  The entries are checked and
        tallied from one joined text, not one string at a time.
        """
        shots, counts, memory = self.shots, self.counts, self.memory
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
        (width,) = widths
        digits = None
        if memory is not None:
            if not isinstance(memory, (list, tuple)):
                raise DataFormatError("memory must be a list or null")
            digits = _bit_rows(memory, width)
            if digits is None:
                entry = next(e for e in memory if not (
                    isinstance(e, str) and len(e) == width and not set(e) - {"0", "1"}))
                raise DataFormatError(f"memory entry {entry!r} is not a width-{width} bitstring")
        if not isinstance(self.metadata, Mapping):
            raise DataFormatError("metadata must be an object")
        total = sum(counts.values())
        if total != shots:
            raise DataIntegrityError(f"counts sum to {total}, shots field says {shots}")
        if digits is not None:
            if len(memory) != shots:
                raise DataIntegrityError(f"memory holds {len(memory)} entries for {shots} shots")
            if _tally(digits, memory) != {k: v for k, v in counts.items() if v > 0}:
                raise DataIntegrityError("memory tallies disagree with counts")
        return digits


def _bit_rows(memory: Sequence[Any], width: int) -> np.ndarray | None:
    """The entries as a (len, width) uint8 array of the ASCII digits "0" and "1".

    None unless every entry is a str of `width` 0s and 1s.  The entries are
    joined with "," between and after them: they are all such strings
    exactly when the text is ASCII, len * (width + 1) characters long, with a
    comma at every (width + 1)-th place and a 0 or 1 everywhere else.  The
    array is a view of the joined text's bytes, the one copy made.
    """
    try:
        text = (",".join(memory) + "," if memory else "").encode("ascii")
    except (TypeError, UnicodeEncodeError):  # an entry that is not an ASCII str
        return None
    if len(text) != len(memory) * (width + 1):
        return None
    codes = np.frombuffer(text, dtype=np.uint8)
    rows = codes.reshape(-1, width + 1)
    # every comma column holds a ",", and no other byte is outside "0" and "1"
    # (uint8 wraps, so codes below "0" exceed 1 too)
    if (rows.shape[0] and (rows[:, width].min() != ord(",") or rows[:, width].max() != ord(","))
            or np.count_nonzero(codes - np.uint8(ord("0")) > 1) != rows.shape[0]):
        return None
    return rows[:, :width]


# rows tallied per bincount, so that the int64 indices stay at 128 kB
_TALLY_ROWS = 1 << 14


def _tally(digits: np.ndarray, memory: Sequence[str]) -> dict[str, int]:
    """How often each outcome occurs, by bincounts of the rows' basis indices.

    Rows wider than MAX_QUBITS, whose index range would not fit a bincount,
    are tallied string by string.
    """
    shots, width = digits.shape
    if width > MAX_QUBITS:
        return dict(Counter(memory))
    tally = np.zeros(1 << width, dtype=np.int64)
    for lo in range(0, shots, _TALLY_ROWS):
        block = digits[lo:lo + _TALLY_ROWS]
        idx = np.zeros(block.shape[0], dtype=np.int64)
        for k in range(width):
            idx <<= 1
            idx |= block[:, k] & 1  # the low bit of ASCII "0" and "1" is the digit
        tally += np.bincount(idx, minlength=1 << width)
    seen = np.flatnonzero(tally)
    return {bitstring(i, width): c for i, c in zip(seen.tolist(), tally[seen].tolist())}


def record_from_indices(idx: np.ndarray, n_qubits: int, *, memory: bool = False,
                        metadata: dict[str, Any] | None = None) -> CountsRecord:
    """Build a CountsRecord from sampled outcome indices."""
    names = [bitstring(i, n_qubits) for i in range(2 ** n_qubits)]
    raw = np.bincount(idx, minlength=len(names))
    counts = {names[i]: int(c) for i, c in enumerate(raw.tolist()) if c > 0}
    mem = [names[i] for i in idx.tolist()] if memory else None
    return CountsRecord(shots=int(idx.size), counts=counts, memory=mem,
                        metadata=dict(metadata or {}))


def sample(dist: OutcomeDistribution, shots: int, rng_seed: int, *,
           memory: bool = False, metadata: dict[str, Any] | None = None) -> CountsRecord:
    """Draw shots from dist; same (dist, shots, seed) gives an identical record."""
    idx = sample_indices(dist, shots, rng_seed)
    return record_from_indices(idx, dist.n_qubits, memory=memory, metadata=metadata)

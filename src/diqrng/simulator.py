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
from typing import Any, Mapping

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
        shots = obj["shots"]
        counts = obj["counts"]
        memory = obj.get("memory")
        metadata = obj.get("metadata") or {}
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
        if memory is not None:
            if not isinstance(memory, list):
                raise DataFormatError("memory must be a list or null")

            def bad(entry: Any) -> bool:
                return (not isinstance(entry, str) or len(entry) != width
                        or bool(set(entry) - {"0", "1"}))

            # each distinct entry is checked once; an unhashable one is bad
            try:
                ok = not any(map(bad, set(memory)))
            except TypeError:
                ok = False
            if not ok:
                entry = next(filter(bad, memory))
                raise DataFormatError(f"memory entry {entry!r} is not a width-{width} bitstring")
        if not isinstance(metadata, Mapping):
            raise DataFormatError("metadata must be an object")
        rec = cls(shots=shots, counts=dict(counts),
                  memory=list(memory) if memory is not None else None,
                  metadata=dict(metadata))
        rec.validate()
        return rec

    def validate(self) -> None:
        """Cross-field consistency; raises DataIntegrityError on mismatch."""
        total = sum(self.counts.values())
        if total != self.shots:
            raise DataIntegrityError(f"counts sum to {total}, shots field says {self.shots}")
        if self.memory is not None:
            if len(self.memory) != self.shots:
                raise DataIntegrityError(
                    f"memory holds {len(self.memory)} entries for {self.shots} shots")
            if Counter(self.memory) != {k: v for k, v in self.counts.items() if v > 0}:
                raise DataIntegrityError("memory tallies disagree with counts")


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

"""Pure-state simulation of small gate circuits.

States live on 1..12 qubits as complex statevectors.  Qubit 0 is the
leftmost bit of an outcome string, so basis index i spells the outcome
``format(i, "0nb")``.  Every operation is pure: gates return new states,
and the norm is re-checked to 1e-12 after each application.  Sampling is
the only randomized step and is fully determined by its seed.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from . import _kernels
from .io import DataFormatError
from .rng import make_rng

MAX_QUBITS = 12
NORM_TOL = 1e-12
DIST_TOL = 1e-9

_SQRT2_INV = 1.0 / math.sqrt(2.0)

GATE_KINDS = ("H", "X", "CNOT", "RY")


class CapacityError(ValueError):
    """Qubit count outside the supported 1..MAX_QUBITS range."""


class DataIntegrityError(ValueError):
    """A record is well-formed but internally inconsistent."""


# ============================================================
# gates
# ============================================================

@dataclass(frozen=True)
class Gate:
    """One circuit element: kind, target qubits, optional rotation angle."""

    kind: str
    targets: tuple[int, ...]
    theta: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        arity = 2 if self.kind == "CNOT" else 1
        if len(self.targets) != arity:
            raise ValueError(f"{self.kind} takes {arity} target(s), got {len(self.targets)}")
        if not all(isinstance(t, (int, np.integer)) and t >= 0 for t in self.targets):
            raise ValueError(f"targets must be non-negative ints, got {self.targets!r}")
        if self.kind == "CNOT" and self.targets[0] == self.targets[1]:
            raise ValueError("CNOT control and target must differ")
        if (self.theta is not None) != (self.kind == "RY"):
            raise ValueError("theta is required for RY and only for RY")

    @classmethod
    def h(cls, qubit: int) -> "Gate":
        return cls("H", (qubit,))

    @classmethod
    def x(cls, qubit: int) -> "Gate":
        return cls("X", (qubit,))

    @classmethod
    def cnot(cls, control: int, target: int) -> "Gate":
        return cls("CNOT", (control, target))

    @classmethod
    def ry(cls, theta: float, qubit: int) -> "Gate":
        return cls("RY", (qubit,), float(theta))

    def matrix(self) -> np.ndarray:
        """Unitary matrix of the gate (2x2, or 4x4 for CNOT)."""
        if self.kind == "H":
            return np.array([[1, 1], [1, -1]], dtype=np.complex128) * _SQRT2_INV
        if self.kind == "X":
            return np.array([[0, 1], [1, 0]], dtype=np.complex128)
        if self.kind == "RY":
            c = math.cos(self.theta / 2.0)
            s = math.sin(self.theta / 2.0)
            return np.array([[c, -s], [s, c]], dtype=np.complex128)
        return np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
            dtype=np.complex128,
        )


# ============================================================
# states
# ============================================================

@dataclass(frozen=True)
class StateVector:
    """Unit-norm pure state on n_qubits; amplitudes are read-only."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if not (1 <= self.n_qubits <= MAX_QUBITS):
            raise CapacityError(f"n_qubits must be in 1..{MAX_QUBITS}, got {self.n_qubits}")
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (2 ** self.n_qubits,):
            raise ValueError(f"amplitudes must have shape (2**{self.n_qubits},)")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm_sq - 1.0) <= NORM_TOL:  # NaN fails too
            raise ValueError(f"state norm**2 = {norm_sq!r}, not 1 within {NORM_TOL}")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)


def new_state(n_qubits: int) -> StateVector:
    """|0...0> on n_qubits.  Raises CapacityError outside 1..MAX_QUBITS."""
    if not isinstance(n_qubits, (int, np.integer)) or not (1 <= n_qubits <= MAX_QUBITS):
        raise CapacityError(f"n_qubits must be an int in 1..{MAX_QUBITS}, got {n_qubits!r}")
    amps = np.zeros(2 ** n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(int(n_qubits), amps)


def _check_target(q: int, n: int) -> None:
    if not (0 <= q < n):
        raise IndexError(f"qubit {q} out of range for {n}-qubit state")


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate, returning a new state."""
    n = state.n_qubits
    for q in gate.targets:
        _check_target(q, n)
    psi = state.amplitudes.reshape([2] * n)
    if gate.kind == "CNOT":
        control, target = gate.targets
        out = psi.copy()
        sel: list[Any] = [slice(None)] * n
        sel[control] = 1
        sub = out[tuple(sel)]
        t_axis = target - 1 if target > control else target
        out[tuple(sel)] = np.flip(sub, axis=t_axis).copy()
    else:
        m = gate.matrix()
        moved = np.tensordot(m, psi, axes=([1], [gate.targets[0]]))
        out = np.moveaxis(moved, 0, gate.targets[0])
    return StateVector(n, out.reshape(-1))


def apply_circuit(state: StateVector, gates: Sequence[Gate]) -> StateVector:
    for g in gates:
        state = apply_gate(state, g)
    return state


# ============================================================
# distributions
# ============================================================

@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities over the 2**n_qubits outcomes, in basis order."""

    n_qubits: int
    probs: np.ndarray

    def __post_init__(self):
        if not (1 <= self.n_qubits <= MAX_QUBITS):
            raise CapacityError(f"n_qubits must be in 1..{MAX_QUBITS}, got {self.n_qubits}")
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


def probabilities(state: StateVector) -> OutcomeDistribution:
    """Born-rule outcome distribution of a state."""
    return OutcomeDistribution(state.n_qubits, np.abs(state.amplitudes) ** 2)


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


def sample_indices(dist: OutcomeDistribution, shots: int, rng_seed: int | None = None,
                   *, rng: np.random.Generator | None = None) -> np.ndarray:
    """Outcome indices for `shots` draws; pure function of (dist, seed).

    Callers that thread one stream across several draws pass `rng`
    instead of a seed; exactly one of the two must be given.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if (rng is None) == (rng_seed is None):
        raise ValueError("provide exactly one of rng_seed or rng")
    gen = rng if rng is not None else make_rng(rng_seed)
    return _kernels.sample_outcomes(dist.cdf, gen.random(shots))


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
        if not isinstance(shots, int) or isinstance(shots, bool) or shots < 1:
            raise DataFormatError(f"shots must be a positive int, got {shots!r}")
        if not isinstance(counts, Mapping) or not counts:
            raise DataFormatError("counts must be a non-empty object")
        widths = set()
        for key, value in counts.items():
            if not isinstance(key, str) or not key or set(key) - {"0", "1"}:
                raise DataFormatError(f"counts key {key!r} is not a bitstring")
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
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

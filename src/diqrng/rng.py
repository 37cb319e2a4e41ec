"""Seed derivation and referee input sources.

Randomness scheme: "diqrng/philox-sha256/v1". Per-stream seeds are derived
by hashing (scheme label, master seed, path parts) with SHA-256 and taking
the first 8 bytes little-endian; each seed keys an independent numpy Philox
stream. Philox is counter-based, so derived streams never overlap and any
round can be replayed in isolation from its own seed.
"""

from __future__ import annotations

import hashlib
from typing import Protocol

import numpy as np

SCHEME = "diqrng/philox-sha256/v1"


class SourceDepleted(Exception):
    """A bit source ran out of recorded material."""


def derive_seed(master_seed: int, *path: int | str) -> int:
    """Derive a 64-bit stream seed from a master seed and a label path."""
    preimage = "::".join([SCHEME, str(int(master_seed)), *map(str, path)])
    digest = hashlib.sha256(preimage.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "little")


def make_rng(seed: int) -> np.random.Generator:
    """Philox generator for a derived seed."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


class BitSource(Protocol):
    """Yields bits on demand; identity is compared for independence checks."""

    identity: object

    def take(self, n: int) -> np.ndarray: ...


class SeededBitSource:
    """Uniform bits from a dedicated Philox stream.

    Bits come from the high half of unit doubles, the same primitive the
    sampler uses, so the whole package rests on one generator contract.
    """

    def __init__(self, seed: int):
        self.identity = ("seeded", int(seed))
        self.seed = int(seed)
        self._rng = make_rng(seed)

    def take(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("bit count must be non-negative")
        return (self._rng.random(n) < 0.5).astype(np.uint8)


class RecordedBitSource:
    """Replays a fixed bit array in order; raises SourceDepleted at the end."""

    def __init__(self, bits: np.ndarray, identity: object):
        self.identity = identity
        self._bits = np.asarray(bits, dtype=np.uint8)
        self._pos = 0

    def remaining(self) -> int:
        return self._bits.size - self._pos

    def take(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("bit count must be non-negative")
        if self._pos + n > self._bits.size:
            raise SourceDepleted(
                f"source {self.identity!r} exhausted: "
                f"{self.remaining()} bits left, {n} requested")
        out = self._bits[self._pos:self._pos + n]
        self._pos += n
        return out

"""Seed derivation and the Philox streams behind every draw.

Randomness scheme: "diqrng/philox-sha256/v1". Per-stream seeds are derived
by hashing (scheme label, master seed, path parts) with SHA-256 and taking
the first 8 bytes little-endian; each seed keys an independent numpy Philox
stream. Philox is counter-based, so derived streams never overlap and any
round can be replayed in isolation from its own seed.

A run hashes the shared "<scheme>::<master>::round::" prefix once and takes
each round's seed from a copy of that hash state (`derive_seeds`).  It
builds one generator and re-keys it to each round's seed before drawing
the round's row (`rekeyer`), which draws exactly what a fresh `make_rng` of
that seed would.

Seeded bits (`uniform_bits`) come from one chunked draw loop
(`bit_chunks`).  The referee's input bits are kept unpacked; a Toeplitz
seed of n + m - 1 bits is packed chunk by chunk as it is drawn
(`randomness.toeplitz_seed_bits`), on the calling thread before the hash,
so it is held in (n + m - 1)/8 bytes and never unpacked whole.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Iterator
from itertools import count

import numpy as np

SCHEME = "diqrng/philox-sha256/v1"

# doubles per draw in bit_chunks: a 2 MB buffer drew 1.17e7 seed bits
# as fast as 8 MB ones and faster than one whole-length draw on a 2-vCPU
# x86 host (about 90 ms against 150 ms)
_BITS_CHUNK = 1 << 18


class SourceDepleted(Exception):
    """A recorded bit stream holds fewer bits than a run needs."""


def derive_seed(master_seed: int, *path: int | str) -> int:
    """Derive a 64-bit stream seed from a master seed and a label path."""
    preimage = "::".join([SCHEME, str(int(master_seed)), *map(str, path)])
    digest = hashlib.sha256(preimage.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_seeds(master_seed: int, *path: int | str) -> Iterator[int]:
    """`derive_seed(master_seed, *path, i)` for i = 0, 1, 2, ...

    The shared prefix is hashed once; each seed then costs one copy of
    that hash state and one short update.
    """
    prefix = hashlib.sha256(
        "::".join([SCHEME, str(int(master_seed)), *map(str, path), ""]).encode("ascii"))
    for i in count():
        h = prefix.copy()
        h.update(str(i).encode("ascii"))
        yield int.from_bytes(h.digest()[:8], "little")


def make_rng(seed: int) -> np.random.Generator:
    """Philox generator for a derived seed."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def rekeyer(rng: np.random.Generator) -> Callable[[int], None]:
    """`rekey(seed)`, which resets `rng` to the state `make_rng(seed)` starts in.

    The draws that follow equal `make_rng(seed)`'s: key, counter, buffer,
    buffer position (4: exhausted) and the cached half-word are all reset.
    Assigning a whole state skips a fresh `Philox(key=...)`'s SeedSequence,
    drawn from OS entropy that the key then overrides.  The state is plain
    ints, as the setter reads it element by element, and one mapping serves
    every re-key, as the setter copies it: 10^4 re-keys took 4.8 ms against
    10.3 ms with a new mapping each and 28 ms from uint64 arrays (2-vCPU x86
    host, numpy 2.4, best of 7).
    """
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    key, bitgen = state["state"]["key"], rng.bit_generator

    def rekey(seed: int) -> None:
        key[0] = seed
        bitgen.state = state

    return rekey


def bit_chunks(seed: int, n: int) -> Iterator[tuple[int, np.ndarray]]:
    """(lo, bits lo .. lo+k-1) of the uniform bit stream keyed by seed, for bits 0 .. n-1.

    Bits come from the high half of unit doubles, the same primitive the
    sampler uses, so the whole package rests on one generator contract.
    The doubles are drawn _BITS_CHUNK at a time into one reused buffer, so
    every chunk starts on a byte; draws are sequential, so the bits equal
    those of one `random(n)` without its float64s.  Each chunk is a bool
    array that the next one overwrites.
    """
    rng = make_rng(seed)
    buf = np.empty(min(n, _BITS_CHUNK))
    bits = np.empty(buf.size, dtype=bool)
    for lo in range(0, n, _BITS_CHUNK):
        u = rng.random(out=buf[:min(_BITS_CHUNK, n - lo)])
        yield lo, np.less(u, 0.5, out=bits[:u.size])


def uniform_bits(seed: int, n: int) -> np.ndarray:
    """Bits 0 .. n-1 of the uniform bit stream keyed by seed, as a uint8 array."""
    out = np.empty(n, dtype=np.uint8)
    for lo, bits in bit_chunks(seed, n):
        out[lo:lo + bits.size] = bits
    return out

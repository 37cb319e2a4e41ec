"""Hot numeric kernels, vectorized with numpy.

Three loops dominate runtime at production sizes: inverse-CDF shot
sampling, von Neumann pair scanning, and the GF(2) Toeplitz product
(~1e13 bit operations for a 1e7-bit stream hashed to 1e6 bits if done
naively).  The Toeplitz product is an integer convolution computed with
block-partitioned FFTs, so its working memory grows with the block size
and the shorter of input and output, not with one whole-stream transform.
It slices its input and seed one block at a time and requests each seed
bit once, so a stream read from a packed file and seed bits drawn by range
(``randomness.BitSource``) are never held whole.  Its seed segments are
sliced and transformed on one helper thread, overlapped with the rest of
the product on the calling thread; ``numpy.fft`` releases the GIL.
``benchmarks/bench_kernels.py`` checks each kernel against a reference and
times it.
"""

from __future__ import annotations

import numpy as np

# ============================================================
# inverse-CDF sampling
# ============================================================

def sample_outcomes(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Map uniforms in [0,1) to outcome indices via the cumulative table.

    A 1-d table of K entries serves every uniform by binary search and
    gives int64 indices.  A (rows, K) table, K <= 256, gives row r of a
    (rows, shots) block of uniforms its own table and uint8 indices
    idx = sum over k < K-1 of [u >= cdf[r, k]].  For a table that does not
    decrease before its last entry and ends at 1 > u, that count is the
    binary search clipped to K-1; over four entries it is also faster.
    """
    if cdf.ndim == 1:
        idx = np.searchsorted(cdf, u, side="right")
        return np.minimum(idx, cdf.size - 1).astype(np.int64)
    idx = np.zeros(u.shape, dtype=np.uint8)
    for k in range(cdf.shape[1] - 1):
        idx += u >= cdf[:, k, None]
    return idx


# ============================================================
# von Neumann pair scan
# ============================================================

def von_neumann_pairs(bits: np.ndarray) -> np.ndarray:
    """Keep the first bit of each non-overlapping unequal pair."""
    m = bits.size // 2
    pairs = bits[: 2 * m].reshape(m, 2)
    keep = pairs[:, 0] != pairs[:, 1]
    return np.ascontiguousarray(pairs[keep, 0])


# ============================================================
# GF(2) Toeplitz product
# ============================================================
# Convention (documented in randomness.toeplitz_extract): T[i, j] =
# seed[(n-1) + i - j] for input length n, so row i of T*x is the full
# convolution of seed and x sampled at position (n-1) + i.
#
# Uniformly partitioned overlap-save: x and the output are cut into
# blocks of p bits.  Output block o gets a contribution from every input
# block b through the seed segment of length 2p-1 that starts at
# n + (o-b-1)*p, so segments depend only on d = o - b.  A 2p-point
# circular convolution of a segment with a zero-padded input block holds
# the p wanted outputs at positions p-1 .. 2p-2, clear of wrap-around.
# Products are summed in the frequency domain and each output block is
# inverted once.  The sums are exact integers (at most n), far inside
# float64's exact range, and the rounding check still guards them.
#
# Segments are visited in increasing d, each transformed once.  Input
# block b is needed for d in [-b, n_out-1-b] and output block o is
# complete after d = o, so at most min(n_in, n_out) input spectra and
# open sums are alive at once: a short output keeps the working memory
# at a few blocks however long the input is.
#
# Segment d+1 depends on nothing the loop computes, so a helper thread
# transforms it while the calling thread does step d's input transform,
# products and output inversion.  That puts one segment and its spectrum
# in flight beyond the serial schedule.  One helper, not a pool: it
# takes about half of the transforms, which keeps both cores of a 2-vCPU
# host busy, and each further worker would hold one more spectrum in
# flight.  Consecutive segments overlap by p-1 bits, so the helper carries
# the last p-1 bits of one segment into the next and slices only the p new
# ones: a seed drawn by range is drawn once, on the helper.  Beyond numpy
# the helper runs only that slice (`rng.uniform_bits` for a drawn seed),
# so wrappers around the other package functions always see one thread.

# 2**18-bit blocks take 2**19-point transforms.  Hashing 1e7 bits to
# 1.74e6 with the helper took 0.94 / 0.74 / 0.82 / 0.89 s at 2**17 /
# 2**18 / 2**19 / 2**20 on a 2-vCPU x86 host (serial at 2**19: 1.34 s),
# and to 9e6 bits 4.72 / 2.89 / 2.32 / 2.15 s (serial at 2**19: 3.00 s).
# 2**18 wins at the certified budget.  A fresh `extract` of many_shots'
# .bin at that budget (stream read and seed drawn per block, 33 MB of it
# the imported program) peaked at 108 / 124 / 163 / 233 MB RSS at
# 2**17 / 2**18 / 2**19 / 2**20, against 129 / 144 / 182 / 242 MB when
# the stream and seed were whole arrays.
_MAX_BLOCK = 1 << 18


def _block_size(n: int, out_len: int) -> int:
    """Block length p: _MAX_BLOCK, or the next power of two for small inputs."""
    return min(_MAX_BLOCK, 1 << (max(n, out_len) - 1).bit_length())


def toeplitz_gf2(seed_bits: np.ndarray, x_bits: np.ndarray, out_len: int) -> np.ndarray:
    """T @ x mod 2 by block-partitioned FFT convolution, rounded to exact integers.

    Either input may be any object with a `size` whose contiguous slices
    are uint8 bit arrays, such as a `randomness.BitSource`; it is sliced
    one block at a time, and each seed bit is requested once, in order.
    """
    from concurrent.futures import ThreadPoolExecutor  # only extraction needs it

    n = x_bits.size
    p = _block_size(n, out_len)
    size = 2 * p
    n_in = -(-n // p)
    n_out = -(-out_len // p)
    tail = None  # the last p - 1 bits of the previous seed segment

    def seed_spectrum(d: int) -> np.ndarray:
        # segment d's first p - 1 bits are segment d-1's last p - 1: carry them
        nonlocal tail
        start = n + (d - 1) * p
        segment = np.zeros(size)
        first = start
        if tail is not None:
            segment[:p - 1] = tail
            first += p - 1
        lo, hi = max(first, 0), min(start + size - 1, seed_bits.size)
        if lo < hi:
            segment[lo - start:hi - start] = seed_bits[lo:hi]
        tail = segment[p:size - 1].astype(np.uint8)
        return np.fft.rfft(segment)

    out = np.empty(out_len, dtype=np.uint8)
    spectra: dict[int, np.ndarray] = {}  # input blocks a later segment still needs
    sums: dict[int, np.ndarray] = {}  # output blocks still collecting terms
    with ThreadPoolExecutor(max_workers=1) as helper:
        ahead = helper.submit(seed_spectrum, 1 - n_in)
        for d in range(1 - n_in, n_out):
            fs = ahead.result()
            if d + 1 < n_out:
                ahead = helper.submit(seed_spectrum, d + 1)
            for b in range(max(0, -d), min(n_in, n_out - d)):
                if b not in spectra:
                    spectra[b] = np.fft.rfft(x_bits[b * p:(b + 1) * p], size)
                if b + d in sums:
                    sums[b + d] += fs * spectra[b]
                else:
                    sums[b + d] = fs * spectra[b]
            spectra.pop(n_out - 1 - d, None)  # its last segment was this one
            if d < 0:
                continue
            start = d * p
            conv = np.fft.irfft(sums.pop(d), size)[p - 1:p - 1 + min(p, out_len - start)]
            ints = np.rint(conv)
            # counts are small integers; drift past 0.25 means the transform failed
            if np.max(np.abs(conv - ints)) > 0.25:
                raise FloatingPointError("convolution drifted off integer lattice")
            out[start:start + ints.size] = ints.astype(np.int64) & 1
    return out

"""Hot numeric kernels, vectorized with numpy.

Three loops dominate runtime at production sizes: inverse-CDF shot
sampling, von Neumann pair scanning, and the GF(2) Toeplitz product
(~1e13 bit operations for a 1e7-bit stream hashed to 1e6 bits if done
naively).  The Toeplitz product is an integer convolution computed with
block-partitioned FFTs, so its working memory grows with the block size
and the shorter of input and output, not with one whole-stream transform.
Its seed-segment transforms run on one helper thread, overlapped with the
rest of the product on the calling thread; ``numpy.fft`` releases the GIL.
``benchmarks/bench_kernels.py`` checks each kernel against a reference and
times it.
"""

from __future__ import annotations

import numpy as np

# ============================================================
# inverse-CDF sampling
# ============================================================

def sample_outcomes(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Map uniforms in [0,1) to outcome indices via the cumulative table."""
    idx = np.searchsorted(cdf, u, side="right")
    return np.minimum(idx, cdf.size - 1).astype(np.int64)


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
# flight.  The helper runs only numpy code, so wrappers around package
# functions always see one thread.

# 2**18-bit blocks take 2**19-point transforms.  Hashing 1e7 bits to
# 1.74e6 with the helper took 0.94 / 0.74 / 0.82 / 0.89 s at 2**17 /
# 2**18 / 2**19 / 2**20 on a 2-vCPU x86 host (serial at 2**19: 1.34 s),
# and to 9e6 bits 4.72 / 2.89 / 2.32 / 2.15 s (serial at 2**19: 3.00 s).
# 2**18 wins at the certified budget; each doubling past it adds about
# 40 MB of peak RSS there (147 / 187 / 251 MB with the inputs' 136 MB).
_MAX_BLOCK = 1 << 18


def _block_size(n: int, out_len: int) -> int:
    """Block length p: _MAX_BLOCK, or the next power of two for small inputs."""
    return min(_MAX_BLOCK, 1 << (max(n, out_len) - 1).bit_length())


def toeplitz_gf2(seed_bits: np.ndarray, x_bits: np.ndarray, out_len: int) -> np.ndarray:
    """T @ x mod 2 by block-partitioned FFT convolution, rounded to exact integers."""
    from concurrent.futures import ThreadPoolExecutor  # only extraction needs it

    n = x_bits.size
    p = _block_size(n, out_len)
    size = 2 * p
    n_in = -(-n // p)
    n_out = -(-out_len // p)

    def seed_spectrum(d: int) -> np.ndarray:
        start = n + (d - 1) * p
        lo, hi = max(start, 0), min(start + size - 1, seed_bits.size)
        segment = np.zeros(size)
        segment[lo - start:hi - start] = seed_bits[lo:hi]
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

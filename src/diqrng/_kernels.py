"""Hot numeric kernels, vectorized with numpy.

Three loops dominate runtime at production sizes: inverse-CDF shot
sampling, von Neumann pair scanning, and the GF(2) Toeplitz product
(~1e13 bit operations for a 1e7-bit stream hashed to 1e6 bits if done
naively).  The Toeplitz product is an integer convolution computed with
block-partitioned FFTs, so its working memory grows with the block size
and the shorter of input and output, not with one whole-stream transform;
the block follows the output, from 2**15 to 2**18 bits, or one block for
short inputs.  Each block product is computed as two half-size residues,
one pass each, so only half-size spectra are alive.  It slices its input
and seed 2**15 bits at a time, so either may be held packed
(``randomness.PackedBits``): `extract` passes an n-bit input in n/8 bytes
and its n + m - 1 seed bits in (n + m - 1)/8, drawn before the call.  Its
seed segments are sliced and transformed on one helper thread, overlapped
with the rest of the product on the calling thread; ``numpy.fft`` releases
the GIL.
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

# pairs per block: np.compress builds an int64 index of the kept positions,
# 256 kB at most per block where a whole 2.56e6-bit stream's took 5 MB
_PAIR_BLOCK = 1 << 15


def von_neumann_pairs(bits: np.ndarray) -> np.ndarray:
    """Keep the first bit of each non-overlapping unequal pair.

    The pairs' halves are strided views of the input; each block of pairs
    is selected by one `np.compress`, and the blocks are joined into an
    array that owns its data.
    """
    end = bits.size - bits.size % 2
    first, second = bits[0:end:2], bits[1:end:2]
    return np.concatenate([
        np.compress(first[lo:lo + _PAIR_BLOCK] != second[lo:lo + _PAIR_BLOCK],
                    first[lo:lo + _PAIR_BLOCK])
        for lo in range(0, max(first.size, 1), _PAIR_BLOCK)])


# ============================================================
# GF(2) Toeplitz product
# ============================================================
# Convention (documented in randomness.toeplitz_extract): T[i, j] =
# seed[(n-1) + i - j] for input length n, so row i of T*x is the full
# convolution of seed and x sampled at position (n-1) + i.
#
# Uniformly partitioned overlap-save: x and the output are cut into
# blocks of p bits.  Output block o gets a contribution from every input
# block b through the 2p seed bits s that start at n + (o-b-1)*p - 1, so
# segments depend only on d = o - b.  The 2p-point circular product c of
# s with a zero-padded input block x holds the p wanted outputs at
# c[p .. 2p-1], clear of wrap-around.
#
# c is never formed.  By the CRT over z**2p - 1 = (z**p - 1)(z**p + 1),
#   cyc = cyclic product of s[:p] + s[p:] with x       (mod z**p - 1)
#   neg = negacyclic product of s[:p] - s[p:] with x   (mod z**p + 1)
# give c[j + p] = (cyc[j] - neg[j]) / 2.  cyc takes a p-point rfft.  neg
# packs a[j] + i*a[j+p/2], weights it by exp(i*pi*j/p) and takes a
# p/2-point fft, whose unweighted inverse holds neg[:p/2] + i*neg[p/2:]
# (the right-angle convolution of Crandall and Fagin, Math. Comp. 62, 305,
# 1994).  Each residue is summed over the input blocks in the frequency
# domain, into C and N, and inverted once per output block.  C and N are
# exact integers (|.| at most 2n), far inside float64's exact range.
#
# One pass per residue keeps only half-size spectra and sums alive, for
# the same transformed points as one 2p-point pass.  The cyclic pass
# leaves C mod 4 in the output; the negacyclic pass turns it into the bit
# ((C - N) mod 4) >> 1.  A drift past 0.25 from an integer, or an odd
# C - N, means a transform left the integer lattice, and raises.
#
# Within a pass segments are visited in increasing d, each transformed
# once.  Input block b is needed for d in [-b, n_out-1-b] and output block
# o is complete after d = o, so at most min(n_in, n_out) input spectra and
# open sums are alive at once: a short output keeps the working memory at
# a few blocks however long the input is.
#
# Segment d+1 depends on nothing the loop computes, so a helper thread
# transforms it while the calling thread does step d's input transform,
# products and output inversion.  One helper, not a pool: it takes about
# half of the transforms, which keeps both cores of a 2-vCPU host busy,
# and each further worker would hold one more spectrum in flight.
# Consecutive segments share p bits, so the helper carries one segment's
# upper half into the next and slices only the p new bits; both passes
# slice the same seed.  Beyond numpy the helper runs only those slices of
# an array or of `randomness.PackedBits`, so wrappers around the package's
# functions always see one thread.

# p-bit blocks take p-point rffts and p/2-point ffts.  Hashing a packed
# 1e7-bit file with drawn seed bits, as `extract` does, on a 2-vCPU x86
# host (best of 3, and the RSS rise of a fresh process past its 32 MB after
# import) at p = 2**15 / 2**16 / 2**17 / 2**18 / 2**19 took
#   to 1.74e6 bits   1.82 / 1.28 / 0.70 / 0.69 / 0.78 s,  37 / 40 / 46 / 58 / 84 MB
#   to 3.57e6 bits   2.91 / 1.92 / 1.57 / 1.08 / 1.02 s,  67 / 70 / 76 / 88 / 110 MB
#   to 9e6 bits     11.25 / 5.15 / 2.98 / 2.00 / 1.52 s,  155 / 159 / 164 / 177 / 204 MB
# so the largest power of two <= out_len / 8 is within 6 % of the best time
# and 11 MB or more below the next size up, and half of it takes 45-85 %
# longer.  Above 2**18 only the longest output gains (24 % for 27 MB).
_MAX_BLOCK = 1 << 18
# bits per slice of an input: a slice unpacked from packed bits then stays
# far smaller than a spectrum
_SLICE = 1 << 15
# spectrum bins per product step: 256 kB of complex128, so a chunk of the
# seed spectrum stays in cache while every open sum takes its term
_CHUNK = 1 << 14


def _block_size(n: int, out_len: int) -> int:
    """Block length p: the largest power of two <= out_len / 8 within
    [_SLICE, _MAX_BLOCK], and no more than one block for small inputs."""
    by_output = max(_SLICE, 1 << (max(out_len // 8, 1).bit_length() - 1))
    return min(_MAX_BLOCK, by_output, 1 << (max(n, out_len) - 1).bit_length())


def toeplitz_gf2(seed_bits: np.ndarray, x_bits: np.ndarray, out_len: int) -> np.ndarray:
    """T @ x mod 2 by block-partitioned FFT convolution, rounded to exact integers.

    Either input may be any object with a `size` whose contiguous slices
    are uint8 bit arrays, such as `randomness.PackedBits`; it is sliced at
    most _SLICE bits at a time, so a packed input of n bits and a packed
    seed of n + out_len - 1 bits are unpacked one slice at a time, each seed
    slice once per pass.
    """
    from concurrent.futures import ThreadPoolExecutor  # only extraction needs it

    n = x_bits.size
    p = max(_block_size(n, out_len), 2)  # the negacyclic residue pairs bit j with j + p/2
    h = p // 2
    n_in = -(-n // p)
    n_out = -(-out_len // p)
    live = min(n_in, n_out)
    spectra = np.empty((live, h + 1), dtype=np.complex128)  # input block b in row b % live
    sums = np.empty((live, h + 1), dtype=np.complex128)  # open output block o in row o % live
    term = np.empty(min(_CHUNK, h + 1), dtype=np.complex128)
    buf = np.empty(h + 1, dtype=np.complex128)  # the calling thread's transform input
    helper_buf = np.empty(h + 1, dtype=np.complex128)
    segment = np.empty(2 * p, dtype=np.uint8)  # on the helper
    twist = np.exp(1j * np.pi / p * np.arange(h))
    out = np.empty(out_len, dtype=np.uint8)

    def halves(dst: np.ndarray, cyclic: bool) -> tuple[np.ndarray, np.ndarray]:
        # where a pass's transform input takes the two halves of its p reals
        flat = dst.view(np.float64)
        return (flat[:h], flat[h:p]) if cyclic else (dst.real[:h], dst.imag[:h])

    def put(bits, lo: int, dst: np.ndarray) -> None:
        # bits lo .. lo + dst.size - 1, with 0 where there are none
        first, last = max(lo, 0), min(lo + dst.size, bits.size)
        dst[:] = 0
        for at in range(first, last, _SLICE):
            dst[at - lo:min(at + _SLICE, last) - lo] = bits[at:min(at + _SLICE, last)]

    def forward(src: np.ndarray, cyclic: bool) -> np.ndarray:
        if cyclic:
            return np.fft.rfft(src.view(np.float64)[:p])
        packed = src[:h]
        packed *= twist
        return np.fft.fft(packed)

    def inverse(spectrum: np.ndarray, cyclic: bool) -> np.ndarray:
        # the p reals of a summed residue; the negacyclic ones in `buf`
        if cyclic:
            return np.fft.irfft(spectrum, p)
        packed = np.fft.ifft(spectrum)
        packed /= twist
        return np.concatenate((packed.real, packed.imag), out=buf.view(np.float64)[:p])

    def input_spectrum(cyclic: bool, b: int) -> np.ndarray:
        for at, dst in zip((0, h), halves(buf, cyclic)):
            put(x_bits, b * p + at, dst)
        return forward(buf, cyclic)

    def seed_spectrum(cyclic: bool, d: int) -> np.ndarray:
        start = n + (d - 1) * p - 1
        if d == 1 - n_in:
            put(seed_bits, start, segment[:p])
        else:
            segment[:p] = segment[p:]  # segment d-1's upper half
        put(seed_bits, start + p, segment[p:])
        fold = np.add if cyclic else np.subtract
        for at, dst in zip((0, h), halves(helper_buf, cyclic)):
            fold(segment[at:at + h], segment[p + at:p + at + h], out=dst, dtype=np.float64)
        return forward(helper_buf, cyclic)

    # the cyclic pass, then the negacyclic one; the helper runs one step ahead
    steps = [(cyclic, d) for cyclic in (True, False) for d in range(1 - n_in, n_out)]
    with ThreadPoolExecutor(max_workers=1) as helper:
        ahead = helper.submit(seed_spectrum, *steps[0])
        for k, (cyclic, d) in enumerate(steps):
            fs = ahead.result()
            if k + 1 < len(steps):
                ahead = helper.submit(seed_spectrum, *steps[k + 1])
            width = h + 1 if cyclic else h
            if d <= 0:  # input block -d is first needed now
                spectra[-d % live, :width] = input_spectrum(cyclic, -d)
            for lo in range(0, width, _CHUNK):
                hi = min(lo + _CHUNK, width)
                for b in range(max(0, -d), min(n_in, n_out - d)):
                    acc = sums[(b + d) % live, lo:hi]
                    if b == n_in - 1:  # the first term of output block b + d
                        np.multiply(fs[lo:hi], spectra[b % live, lo:hi], out=acc)
                    else:
                        acc += np.multiply(fs[lo:hi], spectra[b % live, lo:hi],
                                           out=term[:hi - lo])
            if d < 0:
                continue
            bits = out[d * p:(d + 1) * p]
            v = inverse(sums[d % live, :width], cyclic)[:bits.size]
            counts = np.rint(v, out=sums[d % live].view(np.float64)[:bits.size])  # a spent sum
            v -= counts
            # counts are small integers; drift past 0.25 means the transform failed
            if np.abs(v, out=v).max() > 0.25:
                raise FloatingPointError("convolution drifted off integer lattice")
            ints = buf.view(np.int64)[:bits.size]  # float mod is some 40 times slower
            np.copyto(ints, counts, casting="unsafe")
            if cyclic:
                np.bitwise_and(ints, 3, out=bits, casting="unsafe")  # C mod 4
                continue
            np.subtract(bits, ints, out=ints)  # (C mod 4) - N
            if np.bitwise_and(ints, 1, out=counts.view(np.int64)).any():
                raise FloatingPointError("residues differ by an odd count: off the "
                                         "integer lattice")
            np.right_shift(np.bitwise_and(ints, 3, out=ints), 1, out=bits, casting="unsafe")
    return out

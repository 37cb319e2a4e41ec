"""Benchmark the hot kernels.

Usage:
    python3 benchmarks/bench_kernels.py [--repeats N]

Each kernel is first checked against a reference on the benchmark
inputs (a benchmark of wrong answers is worthless), then runs
`--repeats` times; the table reports the best wall time.  The
`uniform_bits` row draws the 1.17e7 Toeplitz seed bits of a 1e7 -> 1 742 455
hash in chunks and is checked against one whole-length draw.  The Toeplitz
rows are checked against one FFT convolution over the whole stream.
The two large rows hash a 1e7-bit stream to 1 742 455 bits (the
budget-sized output of a 1e3 x 1e4-shot run) and to 9e6 bits; their
reference needs about 1.1 GB.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from diqrng import _kernels
from diqrng.rng import make_rng, uniform_bits


def _best_time(fn, args, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def _whole_stream_toeplitz(seed_bits, x_bits, out_len):
    """T @ x mod 2 from a single FFT convolution over the whole stream."""
    n = x_bits.size
    size = 1 << (seed_bits.size + n - 2).bit_length()
    fs = np.fft.rfft(seed_bits.astype(np.float64), size)
    fs *= np.fft.rfft(x_bits.astype(np.float64), size)
    conv = np.fft.irfft(fs, size)[n - 1:n - 1 + out_len]
    return (np.rint(conv).astype(np.int64) & 1).astype(np.uint8)


def _row(name: str, fn, args, want, repeats: int) -> str:
    if not np.array_equal(fn(*args), want):
        raise AssertionError(f"{name}: kernel disagrees with its reference")
    return f"{name:<28} {_best_time(fn, args, repeats) * 1e3:>10.2f}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed repetitions per kernel (best is reported)")
    args = parser.parse_args()

    rng = np.random.default_rng(12345)

    # sampling: 4-outcome distribution, 10M draws
    probs = np.array([0.15, 0.35, 0.05, 0.45])
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    u = rng.random(10_000_000)
    want_idx = np.minimum((u[:, None] >= cdf[None, :]).sum(axis=1), cdf.size - 1)

    # von Neumann: 20M biased bits
    vn_bits = (rng.random(20_000_000) < 0.7).astype(np.uint8)
    pairs = vn_bits.reshape(-1, 2)
    want_vn = pairs[pairs[:, 0] != pairs[:, 1], 0]

    print(f"{'kernel':<28} {'best ms':>10}")
    print("-" * 39)
    print(_row("sample_outcomes 1e7", _kernels.sample_outcomes, (cdf, u),
               want_idx, args.repeats))
    print(_row("von_neumann_pairs 2e7", _kernels.von_neumann_pairs, (vn_bits,),
               want_vn, args.repeats))
    del u, want_idx, vn_bits, pairs, want_vn

    n_seed = 10_000_000 + 1_742_455 - 1
    want_seed = (make_rng(7).random(n_seed) < 0.5).astype(np.uint8)
    print(_row("uniform_bits 1.17e7", uniform_bits, (7, n_seed), want_seed, args.repeats))
    del want_seed

    for label, in_len, out_len in (("1e6->4096", 1_000_000, 4096),
                                   ("1e7->1742455", 10_000_000, 1_742_455),
                                   ("1e7->9e6", 10_000_000, 9_000_000)):
        seed_bits = (rng.random(in_len + out_len - 1) < 0.5).astype(np.uint8)
        x_bits = (rng.random(in_len) < 0.5).astype(np.uint8)
        toeplitz_args = (seed_bits, x_bits, out_len)
        print(_row(f"toeplitz_gf2 {label}", _kernels.toeplitz_gf2, toeplitz_args,
                   _whole_stream_toeplitz(*toeplitz_args), args.repeats))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

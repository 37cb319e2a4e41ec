"""Benchmark the hot kernels.

Usage:
    python3 benchmarks/bench_kernels.py [--repeats N]

Each kernel is first checked against a reference on the benchmark
inputs (a benchmark of wrong answers is worthless), then runs
`--repeats` times; the table reports the best wall time.  The two
`von_neumann_pairs` rows are checked against the pair rule as a boolean
mask over a (pairs, 2) view; 2.56e6 bits is the stream `replay_lossy`
debiases.  The two
per-row sampling rows draw 1e5 rounds x 100 shots, each round from one of
four tables, once by a binary search per table and once by the (rows, K)
form of `sample_outcomes` that the round engine uses.  The round-loop row
is the engine's per-round fixed cost: 1e4 rounds each take the next round
seed from `derive_seeds`, `rekey` one generator and draw a 100-shot row;
it is checked against rows from a fresh
`make_rng(derive_seed(seed, "round", i))` per round.  The `uniform_bits`
row draws the 1.17e7 Toeplitz seed bits of a 1e7 -> 1 742 455 hash in
chunks and is checked against one whole-length draw.  The Toeplitz rows
are checked against one FFT convolution over the whole stream.
The two large rows hash a 1e7-bit stream to 1 742 455 bits (the
budget-sized output of a 1e3 x 1e4-shot run) and to 9e6 bits; their
reference needs about 1.1 GB.  The `extract .bin` row runs the first of
them as `extract --method toeplitz --extractor-seed` does: the stream is
read from a packed file and the seed bits drawn, one block at a time.
It and the `toeplitz_gf2 1e7->1742455` row also print their peak memory
as `tracemalloc` sees it; the kernel row's inputs are allocated before
the call, the `extract .bin` row holds no whole input.  The two
`gaussian_kde` rows are `report`'s density estimate on its 1001-point grid:
of 1e4 win fractions spread over the grid, and of 2e3 clustered as
`replay_lossy`'s are (1280 kept shots a round at p = 0.82), where most grid
rows are past the kernel's reach and skipped.  Both are checked against the
whole grid x values matrix (about 240 MB for 1e4), and the first also
prints the estimate's peak memory as `tracemalloc` sees it.  The two writer
rows save a 1e7-bit stream as text (`save_bits_text`) and a 1e5-shot
4-qubit counts record with memory as JSON (`save_counts_record`, whose
memory block is built from the digits, not encoded string by string); each
file is first checked byte for byte against the whole file built as one
string (the digits decoded to text, `json.dumps` of the record), and each
row prints the write's peak memory as `tracemalloc` sees it.  The
`load_counts_record` row reads that record back; the loaded record is
first checked against the written one and its memory against a
`collections.Counter` tally of the counts.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import tempfile
import time
import tracemalloc

import numpy as np

from diqrng import _kernels
from diqrng.harness import _gaussian_kde, load_counts_record, save_counts_record
from diqrng.randomness import (PackedBits, save_bits_packed, save_bits_text, toeplitz_extract,
                               toeplitz_seed_bits)
from diqrng.rng import derive_seed, derive_seeds, make_rng, rekey, uniform_bits
from diqrng.simulator import record_from_indices


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


def _extract_from_file(path, in_len, out_len, seed):
    """Toeplitz extraction of a packed file's first in_len bits with drawn seed bits."""
    return toeplitz_extract(PackedBits(path, in_len), toeplitz_seed_bits(in_len, out_len, seed),
                            out_len)


def _searchsorted_by_table(tables, table_of_row, u):
    """Per-row sampling as one 1-d binary search per table."""
    out = np.empty(u.shape, dtype=np.int64)
    for t, cdf in enumerate(tables):
        rows = table_of_row == t
        out[rows] = _kernels.sample_outcomes(cdf, u[rows])
    return out


def _round_loop(master_seed, rounds, shots):
    """The round engine's per-round steps: next seed, re-key, draw a row."""
    rng = make_rng(0)
    u = np.empty((rounds, shots))
    for row, seed in zip(u, derive_seeds(master_seed, "round")):
        rekey(rng, seed)
        rng.random(out=row)
    return u


def _whole_matrix_kde(values, grid):
    """The density estimate from one grid x values matrix."""
    n = values.size
    h = max(1.06 * float(values.std(ddof=0)) * n ** (-0.2), 1e-3)
    z = (grid[:, None] - values[None, :]) / h
    return np.exp(-0.5 * z * z).sum(axis=1) / (n * h * math.sqrt(2.0 * math.pi))


def _traced_peak_mb(fn, args) -> float:
    """The peak of memory allocated during one call, as tracemalloc sees it."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        fn(*args)
        return (tracemalloc.get_traced_memory()[1] - before) / 2 ** 20
    finally:
        tracemalloc.stop()


def _row(name: str, fn, args, want, repeats: int) -> str:
    if not np.array_equal(fn(*args), want):
        raise AssertionError(f"{name}: kernel disagrees with its reference")
    return f"{name:<28} {_best_time(fn, args, repeats) * 1e3:>10.2f}"


def _writer_row(name: str, write, args, want: bytes, repeats: int) -> str:
    """Check the file `write(path, *args)` makes against `want`, then time it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out")
        write(path, *args)
        with open(path, "rb") as fh:
            if fh.read() != want:
                raise AssertionError(f"{name}: file differs from its string form")
        call_args = (path, *args)
        return (f"{name:<28} {_best_time(write, call_args, repeats) * 1e3:>10.2f}"
                f"   traced peak {_traced_peak_mb(write, call_args):.1f} MB")


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
    vn_small = (rng.random(2_560_000) < 0.5).astype(np.uint8)
    small_pairs = vn_small.reshape(-1, 2)
    print(_row("von_neumann_pairs 2.56e6", _kernels.von_neumann_pairs, (vn_small,),
               small_pairs[small_pairs[:, 0] != small_pairs[:, 1], 0], args.repeats))
    del u, want_idx, vn_bits, pairs, want_vn, vn_small, small_pairs

    # per-row sampling: 1e5 rounds x 100 shots over four 4-outcome tables
    tables = np.cumsum(rng.dirichlet(np.ones(4), size=4), axis=1)
    tables[:, -1] = 1.0
    table_of_row = rng.integers(0, 4, 100_000)
    row_cdfs = tables[table_of_row]
    u_rows = rng.random((100_000, 100))
    want_rows = np.minimum((u_rows[..., None] >= row_cdfs[:, None, :]).sum(axis=-1), 3)
    print(_row("searchsorted by table 1e7", _searchsorted_by_table,
               (tables, table_of_row, u_rows), want_rows, args.repeats))
    print(_row("sample_outcomes rows 1e7", _kernels.sample_outcomes, (row_cdfs, u_rows),
               want_rows, args.repeats))
    del u_rows, want_rows

    want_loop = np.stack([make_rng(derive_seed(1, "round", i)).random(100)
                          for i in range(10_000)])
    print(_row("round loop 1e4 x 100", _round_loop, (1, 10_000, 100), want_loop,
               args.repeats))
    del want_loop

    n_seed = 10_000_000 + 1_742_455 - 1
    want_seed = (make_rng(7).random(n_seed) < 0.5).astype(np.uint8)
    print(_row("uniform_bits 1.17e7", uniform_bits, (7, n_seed), want_seed, args.repeats))
    del want_seed

    fractions = rng.binomial(100, 0.85, 10_000) / 100
    grid = np.linspace(0.0, 1.0, 1001)
    kde_args = (fractions, grid)
    print(_row("gaussian_kde 1e4 rounds", _gaussian_kde, kde_args,
               _whole_matrix_kde(*kde_args), args.repeats)
          + f"   traced peak {_traced_peak_mb(_gaussian_kde, kde_args):.1f} MB")
    clustered = (rng.binomial(1280, 0.82, 2000) / 1280, grid)
    print(_row("gaussian_kde 2e3 clustered", _gaussian_kde, clustered,
               _whole_matrix_kde(*clustered), args.repeats))

    text_bits = (rng.random(10_000_000) < 0.5).astype(np.uint8)
    text_want = (((text_bits != 0) + np.uint8(ord("0"))).tobytes().decode("ascii")
                 + "\n").encode("ascii")
    print(_writer_row("save_bits_text 1e7", save_bits_text, (text_bits,), text_want,
                      args.repeats))
    del text_bits, text_want

    record = record_from_indices(rng.integers(0, 16, 100_000), 4, memory=True,
                                 metadata={"mode": "hadamard", "seed": 1})
    record_want = (json.dumps(record.to_json_obj(), sort_keys=True, separators=(",", ": "),
                              indent=1) + "\n").encode("ascii")
    print(_writer_row("save_counts_record 1e5", save_counts_record, (record,), record_want,
                      args.repeats))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "record.json")
        save_counts_record(path, record)
        loaded = load_counts_record(path)
        if (loaded.memory != record.memory or loaded.counts != record.counts
                or collections.Counter(loaded.memory) != loaded.counts):
            raise AssertionError("load_counts_record: record differs from its reference")
        print(f"{'load_counts_record 1e5':<28} "
              f"{_best_time(load_counts_record, (path,), args.repeats) * 1e3:>10.2f}")
    del record, record_want

    for label, in_len, out_len in (("1e6->4096", 1_000_000, 4096),
                                   ("1e7->1742455", 10_000_000, 1_742_455),
                                   ("1e7->9e6", 10_000_000, 9_000_000)):
        seed_bits = uniform_bits(7, in_len + out_len - 1)
        x_bits = (rng.random(in_len) < 0.5).astype(np.uint8)
        toeplitz_args = (seed_bits, x_bits, out_len)
        want = _whole_stream_toeplitz(*toeplitz_args)
        row = _row(f"toeplitz_gf2 {label}", _kernels.toeplitz_gf2, toeplitz_args, want,
                   args.repeats)
        if label != "1e7->1742455":
            print(row)
            continue
        kernel_peak = _traced_peak_mb(_kernels.toeplitz_gf2, toeplitz_args)
        print(row + f"   traced peak {kernel_peak:.1f} MB")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "x.bin")
            save_bits_packed(path, x_bits)
            file_args = (path, in_len, out_len, 7)
            print(_row(f"extract .bin {label}", _extract_from_file, file_args, want, args.repeats)
                  + f"   traced peak {_traced_peak_mb(_extract_from_file, file_args):.1f} MB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Kernel tests.

Every hot kernel must agree bit for bit with simple reference code on
seeded inputs.  The Toeplitz kernel is also checked with a shrunken
block size, so that small inputs exercise several input and output
blocks, short last blocks and the bounded-memory schedule.
"""

from __future__ import annotations

import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diqrng import _kernels
from diqrng.randomness import PackedBits, save_bits_packed, toeplitz_matrix


def _reference_sample(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    out = np.empty(u.size, dtype=np.int64)
    for i, v in enumerate(u):
        k = 0
        while k < cdf.size - 1 and cdf[k] <= v:
            k += 1
        out[i] = k
    return out


def _reference_toeplitz(seed: np.ndarray, x: np.ndarray, out_len: int) -> np.ndarray:
    n = len(x)
    out = np.zeros(out_len, dtype=np.uint8)
    for i in range(out_len):
        acc = 0
        for j in range(n):
            acc ^= int(seed[(n - 1) + i - j]) & int(x[j])
        out[i] = acc
    return out


class _CountingSeed:
    """Seed bits that record each range the kernel asks for, and on which thread."""

    def __init__(self, bits: np.ndarray):
        self.bits = bits
        self.size = bits.size
        self.requests: list[tuple[int, int, threading.Thread]] = []

    def __getitem__(self, key: slice) -> np.ndarray:
        self.requests.append((key.start, key.stop, threading.current_thread()))
        return self.bits[key]


@st.composite
def _row_tables(draw):
    """(rows, K) cumulative tables and a (rows, shots) block of uniforms.

    Weights may be zero, so tables hold tied entries; the last-but-one
    entry may sit one ulp above 1.0, as a rounded cumulative sum can; and
    uniforms may equal a table entry exactly.
    """
    rows = draw(st.integers(1, 5))
    k = draw(st.integers(1, 6))
    shots = draw(st.integers(1, 12))
    weight = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    cdf = np.empty((rows, k))
    u = np.empty((rows, shots))
    for r in range(rows):
        w = np.array(draw(st.lists(weight, min_size=k, max_size=k)))
        if w.sum() == 0.0:
            w[:] = 1.0
        cdf[r] = np.cumsum(w / w.sum())
        cdf[r, -1] = 1.0
        if k > 1 and draw(st.booleans()):
            cdf[r, -2] = np.nextafter(1.0, 2.0)
        entry = st.sampled_from(sorted(set(cdf[r][cdf[r] < 1.0].tolist())) or [0.0])
        u[r] = draw(st.lists(st.one_of(entry, st.floats(0.0, 1.0, exclude_max=True)),
                             min_size=shots, max_size=shots))
    return cdf, u


class TestSampleOutcomes:
    def _cases(self):
        rng = np.random.default_rng(700)
        cases = []
        for _ in range(30):
            k = int(rng.integers(1, 20))
            probs = rng.dirichlet(np.ones(k))
            cdf = np.cumsum(probs)
            cdf[-1] = 1.0
            u = rng.random(int(rng.integers(1, 500)))
            cases.append((cdf, u))
        # hand-built edges: u exactly on a boundary, zero-width bins
        cases.append((np.array([0.25, 0.25, 1.0]), np.array([0.0, 0.25, 0.2499, 0.999999])))
        cases.append((np.array([1.0]), np.array([0.0, 0.5, 0.99])))
        return cases

    def test_numpy_path_matches_reference(self):
        for cdf, u in self._cases():
            got = _kernels.sample_outcomes(cdf, u)
            np.testing.assert_array_equal(got, _reference_sample(cdf, u))

    @settings(deadline=None)
    @given(_row_tables())
    def test_row_tables_match_the_search_row_by_row(self, case):
        cdf, u = case
        got = _kernels.sample_outcomes(cdf, u)
        assert got.dtype == np.uint8 and got.shape == u.shape
        for r in range(cdf.shape[0]):
            want = _kernels.sample_outcomes(cdf[r], u[r])
            np.testing.assert_array_equal(got[r], want)
            np.testing.assert_array_equal(got[r], _reference_sample(cdf[r], u[r]))

    def test_zero_width_bin_is_never_selected(self):
        cdf = np.array([0.5, 0.5, 1.0])  # outcome 1 has zero probability
        u = np.linspace(0.0, 0.999999, 10_001)
        got = _kernels.sample_outcomes(cdf, u)
        assert 1 not in np.unique(got)


class TestVonNeumannPairs:
    def _cases(self):
        rng = np.random.default_rng(701)
        cases = [np.array([], dtype=np.uint8),
                 np.array([1], dtype=np.uint8),
                 np.array([0, 1, 1, 0, 1, 1, 0, 0, 1], dtype=np.uint8)]
        for _ in range(30):
            n = int(rng.integers(0, 600))
            cases.append((rng.random(n) < rng.uniform(0.2, 0.8)).astype(np.uint8))
        return cases

    def test_numpy_path_matches_reference(self):
        for bits in self._cases():
            want = [int(bits[k]) for k in range(0, len(bits) - 1, 2)
                    if bits[k] != bits[k + 1]]
            np.testing.assert_array_equal(_kernels.von_neumann_pairs(bits), want)

    @staticmethod
    def _pair_rule(bits):
        return [int(bits[k]) for k in range(0, len(bits) - 1, 2) if bits[k] != bits[k + 1]]

    # the last two cross one and two blocks of pairs
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 101, 2 * _kernels._PAIR_BLOCK + 1,
                                   4 * _kernels._PAIR_BLOCK + 5])
    def test_lengths_and_odd_tails(self, n):
        bits = (np.random.default_rng(n).random(n) < 0.3).astype(np.uint8)
        got = _kernels.von_neumann_pairs(bits)
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, np.array(self._pair_rule(bits), dtype=np.uint8))

    @pytest.mark.parametrize("n", [0, 1, 10, 1001, 3 * _kernels._PAIR_BLOCK])
    def test_strided_input(self, n):
        whole = (np.random.default_rng(7 + n).random(3 * n) < 0.6).astype(np.uint8)
        bits = whole[::3]
        assert not bits.flags.c_contiguous or n <= 1
        np.testing.assert_array_equal(_kernels.von_neumann_pairs(bits),
                                      np.array(self._pair_rule(bits), dtype=np.uint8))

    def test_output_owns_its_data(self):
        bits = np.array([0, 1, 1, 0, 1, 1, 1, 0], dtype=np.uint8)
        got = _kernels.von_neumann_pairs(bits)
        assert got.flags.owndata and got.flags.c_contiguous
        got[:] = 1
        np.testing.assert_array_equal(bits, [0, 1, 1, 0, 1, 1, 1, 0])


class TestToeplitzGf2:
    def _cases(self):
        rng = np.random.default_rng(702)
        sizes = [(1, 1), (3, 3), (5, 2), (2, 5),
                 (63, 64), (64, 64), (65, 63), (64, 1), (1, 64),
                 (127, 129), (128, 128), (200, 70), (70, 200), (1000, 256)]
        for _ in range(20):
            sizes.append((int(rng.integers(1, 300)), int(rng.integers(1, 300))))
        cases = []
        for in_len, out_len in sizes:
            seed = (rng.random(in_len + out_len - 1) < 0.5).astype(np.uint8)
            x = (rng.random(in_len) < 0.5).astype(np.uint8)
            cases.append((seed, x, out_len))
        return cases

    def test_numpy_path_matches_reference(self):
        for seed, x, out_len in self._cases():
            if len(x) * out_len > 40_000:
                continue  # keep the python reference loop cheap
            got = _kernels.toeplitz_gf2(seed, x, out_len)
            np.testing.assert_array_equal(got, _reference_toeplitz(seed, x, out_len))

    def test_output_dtype_and_range(self):
        seed = np.ones(10, dtype=np.uint8)
        x = np.ones(6, dtype=np.uint8)
        out = _kernels.toeplitz_gf2(seed, x, 5)
        assert out.dtype == np.uint8
        assert set(np.unique(out)) <= {0, 1}

    def test_block_size_shrinks_to_next_power_of_two(self):
        assert _kernels._block_size(1, 1) == 1
        assert _kernels._block_size(5, 3) == 8
        assert _kernels._block_size(8, 8) == 8
        assert _kernels._block_size(9, 1) == 16
        assert _kernels._block_size(10_000_000, 1) == _kernels._MAX_BLOCK


class TestToeplitzPartitioned:
    """Small inputs under a patched block size of 8 bits."""

    BLOCK = 8
    # several input and output blocks, lengths off the block grid on
    # either side, out_len > n, and single-bit input or output
    SIZES = [(37, 21), (21, 37), (64, 64), (8, 8), (9, 17), (17, 9), (100, 3),
             (3, 100), (40, 41), (1, 1), (1, 20), (20, 1), (1, 8), (8, 1)]

    @pytest.fixture(autouse=True)
    def _small_blocks(self, monkeypatch):
        monkeypatch.setattr(_kernels, "_MAX_BLOCK", self.BLOCK)

    @pytest.mark.parametrize("in_len, out_len", SIZES)
    def test_matches_reference_and_dense_matrix(self, in_len, out_len):
        rng = np.random.default_rng(704 + in_len * 1000 + out_len)
        seed = (rng.random(in_len + out_len - 1) < 0.5).astype(np.uint8)
        x = (rng.random(in_len) < 0.5).astype(np.uint8)
        got = _kernels.toeplitz_gf2(seed, x, out_len)
        np.testing.assert_array_equal(got, _reference_toeplitz(seed, x, out_len))
        dense = toeplitz_matrix(seed, in_len, out_len).astype(np.int64) @ x % 2
        np.testing.assert_array_equal(got, dense)

    @pytest.mark.parametrize("in_len, out_len", SIZES)
    def test_each_seed_bit_is_requested_once_in_order(self, in_len, out_len):
        rng = np.random.default_rng(707 + in_len * 1000 + out_len)
        bits = (rng.random(in_len + out_len - 1) < 0.5).astype(np.uint8)
        x = (rng.random(in_len) < 0.5).astype(np.uint8)
        seed = _CountingSeed(bits)
        np.testing.assert_array_equal(_kernels.toeplitz_gf2(seed, x, out_len),
                                      _reference_toeplitz(bits, x, out_len))
        starts = [lo for lo, _, _ in seed.requests]
        stops = [hi for _, hi, _ in seed.requests]
        assert starts == [0] + stops[:-1] and stops[-1] == bits.size
        assert all(lo < hi for lo, hi in zip(starts, stops))
        # drawn where the segments are transformed, off the calling thread
        assert threading.main_thread() not in {t for _, _, t in seed.requests}

    @pytest.mark.parametrize("in_len, out_len", [(37, 21), (21, 37), (9, 17), (100, 3),
                                                 (1, 20), (3, 100)])
    def test_packed_view_input_matches_the_array(self, tmp_path, in_len, out_len):
        rng = np.random.default_rng(708 + in_len * 1000 + out_len)
        seed = (rng.random(in_len + out_len - 1) < 0.5).astype(np.uint8)
        x = (rng.random(in_len) < 0.5).astype(np.uint8)
        path = tmp_path / "x.bin"
        save_bits_packed(path, x)
        got = _kernels.toeplitz_gf2(seed, PackedBits(path, in_len), out_len)
        np.testing.assert_array_equal(got, _kernels.toeplitz_gf2(seed, x, out_len))

    def test_sizes_span_several_blocks(self):
        assert _kernels._block_size(37, 21) == self.BLOCK
        assert _kernels._block_size(1, 1) == 1
        assert max(-(-n // self.BLOCK) for n, _ in self.SIZES) > 2
        assert max(-(-m // self.BLOCK) for _, m in self.SIZES) > 2


def test_peak_memory_is_bounded_by_the_block(monkeypatch):
    block = 1 << 12
    monkeypatch.setattr(_kernels, "_MAX_BLOCK", block)
    rng = np.random.default_rng(705)
    in_len, out_len = 1 << 18, 1 << 14
    seed = (rng.random(in_len + out_len - 1) < 0.5).astype(np.uint8)
    x = (rng.random(in_len) < 0.5).astype(np.uint8)
    tracemalloc.start()
    try:
        _kernels.toeplitz_gf2(seed, x, out_len)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One 2p-point float64 array; a block spectrum is as large.  Four
    # output blocks keep up to four input spectra and four open sums
    # alive, plus the segment and product in flight and the next seed
    # segment and its spectrum on the helper thread.  A whole-stream
    # transform needs 2**20-point arrays, each 128 times this.
    block_array = 2 * block * 8
    assert peak <= 16 * block_array


class TestHelperThread:
    """The seed-segment transforms run on one helper thread that never outlives the call."""

    BLOCK = 8

    @pytest.fixture(autouse=True)
    def _small_blocks(self, monkeypatch):
        monkeypatch.setattr(_kernels, "_MAX_BLOCK", self.BLOCK)

    def _args(self):
        rng = np.random.default_rng(706)
        in_len, out_len = 37, 21
        seed = (rng.random(in_len + out_len - 1) < 0.5).astype(np.uint8)
        x = (rng.random(in_len) < 0.5).astype(np.uint8)
        return seed, x, out_len

    def test_helper_exception_propagates(self, monkeypatch):
        rfft = np.fft.rfft
        helper_calls = []

        def failing_off_main(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                helper_calls.append(1)
                raise RuntimeError("helper transform failed")
            return rfft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", failing_off_main)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="helper transform failed"):
            _kernels.toeplitz_gf2(*self._args())
        assert helper_calls == [1]
        assert threading.active_count() == before

    def test_main_thread_exception_joins_helper(self, monkeypatch):
        monkeypatch.setattr(np.fft, "irfft", lambda a, n: np.full(n, 0.5))
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="integer lattice"):
            _kernels.toeplitz_gf2(*self._args())
        assert threading.active_count() == before

    def test_success_leaves_no_thread(self):
        before = threading.active_count()
        seed, x, out_len = self._args()
        np.testing.assert_array_equal(_kernels.toeplitz_gf2(seed, x, out_len),
                                      _reference_toeplitz(seed, x, out_len))
        assert threading.active_count() == before

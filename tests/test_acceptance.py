"""End-to-end acceptance suite.

One test per shipped guarantee, each printing a single PASS/FAIL line
(run with ``pytest -s tests/test_acceptance.py`` to see the lines; under
plain pytest the printed lines appear for failing tests only).  Every
tolerance and runtime bound asserted here is part of the package's
contract:

  1. classical ceiling is exactly 3/4 by exhaustive rational enumeration
  2. the entangled strategy wins with probability cos^2(pi/8), analytically
     and by Monte Carlo
  3. all five shipped device profiles reproduce their published win
     averages under the fitted depolarizing level, and certify
  4. the strategy family is invariant under a global rotation offset, with
     the (1,1) same-bit probability pinned at cos^2(3*pi/8)
  5. the certification chain has exact endpoints and a monotone
     min-entropy rate on the violation interval
  6. the raw QRNG pipelines deliver the advertised bit volume, pass the
     battery, and satisfy the parity invariant on every shot
  7. both extractors agree with independent reference constructions
  8. per-device reference spreads (min/max/sigma) are metadata the
     simulation does not reproduce -- stated explicitly -- while the
     simulated round-to-round sigma falls in the band bracketing them
  9. identical flags and seeds give byte-identical outputs; replayed-input
     runs are bit-reproducible
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from diqrng.certify import TSIRELSON_S, Verdict, certify, min_entropy_rate, s_value
from diqrng.cli import EXIT_OK, main
from diqrng.game import (
    ALL_SETTINGS,
    GameSetting,
    QuantumStrategy,
    analytic_win_probability,
    best_classical_win_probability,
    round_distribution,
)
from diqrng.harness import ExperimentConfig, load_device_profiles, run_certified_experiment
from diqrng.randomness import (
    hadamard_qrng,
    monobit_test,
    parity_qrng,
    runs_test,
    toeplitz_extract,
    toeplitz_seed_bits,
    von_neumann,
)

IDEAL = math.cos(math.pi / 8) ** 2


def _criterion(number: int, slug: str, body):
    """Run one criterion body; print exactly one PASS/FAIL line for it."""
    try:
        detail = body()
    except AssertionError as exc:
        print(f"criterion {number} ({slug}): FAIL - {exc}")
        raise
    print(f"criterion {number} ({slug}): PASS - {detail}")


@lru_cache(maxsize=1)
def _device_runs():
    """One 100x1000 experiment per shipped profile (shared by tests 3 and 8)."""
    runs = {}
    for profile in load_device_profiles():
        config = ExperimentConfig(rounds=100, shots=1000, lam=profile.fitted_lambda,
                                  master_seed=7)
        runs[profile.name] = (profile, run_certified_experiment(config).experiment)
    return runs


def test_criterion_1_classical_ceiling():
    def body():
        start = time.perf_counter()
        best = Fraction(0)
        for a0, a1, b0, b1 in itertools.product((0, 1), repeat=4):
            wins = sum(
                ((a0, a1)[x] ^ (b0, b1)[y]) == (x & y)
                for x in (0, 1) for y in (0, 1))
            best = max(best, Fraction(wins, 4))
        assert best == Fraction(3, 4), f"brute force gives {best}, not 3/4"
        assert best_classical_win_probability() == Fraction(3, 4), \
            "packaged enumeration disagrees with 3/4"
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s, bound is 1s"
        return f"max over 16 deterministic strategies = 3/4 exactly, {elapsed * 1e3:.1f} ms"

    _criterion(1, "classical ceiling", body)


def test_criterion_2_quantum_value():
    def body():
        start = time.perf_counter()
        for setting in ALL_SETTINGS:
            p = analytic_win_probability(setting, QuantumStrategy())
            assert abs(p - IDEAL) < 1e-9, \
                f"setting ({setting.x},{setting.y}): {p!r} vs cos^2(pi/8)"
        experiment = run_certified_experiment(
            ExperimentConfig(rounds=100, shots=1000, master_seed=42)).experiment
        pooled = experiment.pooled_win_fraction()
        assert abs(pooled - 0.8536) <= 0.004, \
            f"pooled Monte-Carlo value {pooled:.5f} outside 0.8536 +/- 0.004"
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s, bound is 10s"
        return (f"analytic = cos^2(pi/8) on all settings; "
                f"pooled MC {pooled:.5f} in 0.8536 +/- 0.004, {elapsed:.2f}s")

    _criterion(2, "quantum strategy value", body)


def test_criterion_3_device_profile_reproduction():
    def body():
        start = time.perf_counter()
        details = []
        for name, (profile, experiment) in sorted(_device_runs().items()):
            gap = abs(experiment.p_avg - profile.avg_win_target)
            assert gap <= 0.01, (
                f"{name}: p_avg {experiment.p_avg:.5f} misses target "
                f"{profile.avg_win_target} by {gap:.5f} (> 0.01)")
            certificate = certify(experiment)
            assert certificate.verdict is Verdict.CERTIFIED, \
                f"{name}: verdict {certificate.verdict.value}, z={certificate.z:.2f}"
            details.append(f"{name} {experiment.p_avg:.5f}")
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s, bound is 60s"
        return f"all five targets within 0.01 and CERTIFIED ({'; '.join(details)}), {elapsed:.1f}s"

    _criterion(3, "device win-average reproduction", body)


def test_criterion_4_offset_invariance():
    def body():
        base = [analytic_win_probability(s, QuantumStrategy()) for s in ALL_SETTINGS]
        same_target = math.cos(3 * math.pi / 8) ** 2
        rng = np.random.default_rng(44)
        for _ in range(20):
            strategy = QuantumStrategy(
                global_offset=float(rng.uniform(-2 * math.pi, 2 * math.pi)))
            for setting, want in zip(ALL_SETTINGS, base):
                got = analytic_win_probability(setting, strategy)
                assert abs(got - want) < 1e-9, (
                    f"offset {strategy.global_offset:.4f}, setting "
                    f"({setting.x},{setting.y}): {got!r} vs {want!r}")
            dist = round_distribution(GameSetting(1, 1), strategy)
            p_same = float(dist.probs[0] + dist.probs[3])
            assert abs(p_same - same_target) < 1e-9, \
                f"same-bit probability {p_same!r} vs cos^2(3pi/8) {same_target!r}"
        return ("20 random global offsets leave all four win probabilities "
                f"fixed; (1,1) same-bit prob = {same_target:.10f}")

    _criterion(4, "global-offset invariance", body)


def test_criterion_5_certification_endpoints():
    def body():
        assert s_value(0.75) == 2.0, f"s(0.75) = {s_value(0.75)!r}, want exactly 2"
        assert min_entropy_rate(2.0) == 0.0, \
            f"rate(2) = {min_entropy_rate(2.0)!r}, want exactly 0"
        top = min_entropy_rate(TSIRELSON_S)
        assert abs(top - 1.0) < 1e-9, f"rate(2*sqrt(2)) = {top!r}, want 1 within 1e-9"
        grid = np.linspace(2.0, TSIRELSON_S, 100)
        rates = [min_entropy_rate(float(s)) for s in grid]
        violations = [(a, b) for a, b in zip(rates, rates[1:]) if b < a]
        assert not violations, f"rate not monotone: first decrease {violations[0]}"
        return "s(0.75)=2 and rate(2)=0 exact; rate(2*sqrt(2))=1; monotone on 100-point grid"

    _criterion(5, "certification endpoints", body)


def test_criterion_6_qrng_pipelines():
    def body():
        streams = hadamard_qrng(5, 20_000, rng_seed=1)
        total = sum(len(s) for s in streams)
        assert total == 100_000, f"hadamard pipeline yielded {total} bits, want 100000"
        for k, stream in enumerate(streams):
            for report in (monobit_test(stream), runs_test(stream)):
                assert report.passed, (
                    f"stream {k}: {report.test_name} p={report.p_value:.4f} < 0.01")
        shots = 100_000
        streams = parity_qrng(3, shots, rng_seed=1)
        parity = streams[0] ^ streams[1]
        good = int(np.count_nonzero(parity == streams[2]))
        assert good == shots, f"parity invariant held on {good}/{shots} shots only"
        return (f"hadamard 5x20000 = 100000 bits, all streams pass monobit+runs; "
                f"parity XOR invariant on {shots}/{shots} shots")

    _criterion(6, "qrng pipelines", body)


def test_criterion_7_extractor_correctness():
    def body():
        # --- von Neumann on a biased source ---
        bias = 0.7
        n_raw = 1_000_000
        rng = np.random.default_rng(2024)
        raw = (rng.random(n_raw) < bias).astype(np.uint8)
        out = von_neumann(raw)
        pairs = n_raw // 2
        yield_per_pair = 2 * bias * (1 - bias)           # 0.42
        expected = pairs * yield_per_pair                # 210000
        sigma = math.sqrt(pairs * yield_per_pair * (1 - yield_per_pair))
        assert abs(len(out) - expected) <= 3 * sigma, (
            f"output length {len(out)} vs expected {expected:.0f} "
            f"(3*sigma = {3 * sigma:.0f})")
        report = monobit_test(out)
        assert report.passed, f"debiased stream fails monobit, p={report.p_value:.4f}"

        # --- Toeplitz linearity over GF(2) ---
        in_len, out_len = 96, 48
        seed = toeplitz_seed_bits(in_len, out_len, rng_seed=77)
        for _ in range(100):
            x1 = (rng.random(in_len) < 0.5).astype(np.uint8)
            x2 = (rng.random(in_len) < 0.5).astype(np.uint8)
            t1 = toeplitz_extract(x1, seed, out_len)
            t2 = toeplitz_extract(x2, seed, out_len)
            t12 = toeplitz_extract(x1 ^ x2, seed, out_len)
            assert np.array_equal(t12, t1 ^ t2), "linearity broken on a random pair"

        # --- Toeplitz equals the dense GF(2) matrix product ---
        for _ in range(50):
            m = int(rng.integers(1, 17))
            k = int(rng.integers(1, 17))
            seed_small = (rng.random(k + m - 1) < 0.5).astype(np.uint8)
            x = (rng.random(k) < 0.5).astype(np.uint8)
            want = np.zeros(m, dtype=np.uint8)
            for i in range(m):
                acc = 0
                for j in range(k):
                    acc += int(seed_small[(k - 1) + i - j]) * int(x[j])
                want[i] = acc % 2
            got = toeplitz_extract(x, seed_small, m)
            assert np.array_equal(got, want), "dense matrix-product oracle disagrees"
        return (f"von Neumann yield {len(out)} within 3 sigma of {expected:.0f} "
                f"and monobit-clean; Toeplitz linear on 100 pairs and equal to "
                f"the dense oracle on 50 instances")

    _criterion(7, "extractor correctness", body)


def test_criterion_8_reference_spreads_are_metadata():
    def body():
        profiles = load_device_profiles()
        # the explicit statement, in the data file and on this line:
        # per-device min/max/sigma figures are reference metadata from the
        # recorded hardware runs; a single fitted depolarizing level only
        # reproduces the average, so those spreads are NOT reproduced here.
        data_path = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                                 "src", "diqrng", "data", "device_profiles.json")
        comment = json.loads(Path(data_path).read_text())["comment"]
        assert "not quantities the simulation reproduces" in comment, \
            "data file no longer states the reference-metadata caveat"
        reference_sigmas = [p.metadata["reference_sigma"] for p in profiles]
        low, high = 0.005, 0.05
        assert all(low <= s <= high for s in reference_sigmas), \
            f"reference sigmas {reference_sigmas} not bracketed by [{low}, {high}]"
        sigmas = {}
        for name, (profile, experiment) in sorted(_device_runs().items()):
            assert low <= experiment.sigma <= high, (
                f"{name}: simulated sigma {experiment.sigma:.4f} outside "
                f"[{low}, {high}]")
            sigmas[name] = experiment.sigma
        pretty = "; ".join(f"{k} {v:.4f}" for k, v in sigmas.items())
        return ("per-device min/max/sigma are declared reference-only "
                f"(not reproduced); simulated sigmas all in [{low}, {high}]: "
                f"{pretty}")

    _criterion(8, "reference spreads are metadata", body)


def test_criterion_9_determinism(tmp_path):
    def body():
        def read_all(directory):
            return {name: Path(directory, name).read_bytes()
                    for name in sorted(os.listdir(directory))}

        seeded = ["play", "--rounds", "5", "--shots", "200", "--seed", "3"]
        d1, d2 = tmp_path / "seeded-1", tmp_path / "seeded-2"
        assert main(seeded + ["--out-dir", str(d1)]) == EXIT_OK
        assert main(seeded + ["--out-dir", str(d2)]) == EXIT_OK
        seeded_files = read_all(d1)
        assert seeded_files == read_all(d2), "seeded reruns differ byte-for-byte"

        for side, seed in (("x", 31), ("y", 32)):
            code = main(["qrng", "--mode", "hadamard", "--qubits", "1",
                         "--shots", "60", "--seed", str(seed),
                         "--out", str(tmp_path / f"in-{side}"),
                         "--counts-out", str(tmp_path / f"in-{side}.json")])
            assert code == EXIT_OK, "replay input preparation failed"
        replay = ["play", "--rounds", "50", "--shots", "40", "--seed", "8",
                  "--replay-x", str(tmp_path / "in-x.json"),
                  "--replay-y", str(tmp_path / "in-y.json")]
        r1, r2 = tmp_path / "replay-1", tmp_path / "replay-2"
        assert main(replay + ["--out-dir", str(r1)]) == EXIT_OK
        assert main(replay + ["--out-dir", str(r2)]) == EXIT_OK
        assert read_all(r1) == read_all(r2), "replayed runs differ byte-for-byte"
        return (f"{len(seeded_files)} seeded output files byte-identical across "
                f"reruns; replayed-input runs bit-reproducible")

    _criterion(9, "deterministic outputs", body)

"""Experiment-harness tests: noise fitting, device profiles, loophole
bookkeeping, replayable input sources, CSV/report persistence, and the
canonical-serialization helpers underneath them.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from diqrng import _kernels, harness
from diqrng import rng as rng_module
from diqrng.certify import Verdict
from diqrng.game import (
    ConfigError,
    ExperimentResult,
    GameSetting,
    QuantumStrategy,
    referee_inputs,
    result_from_indices,
)
from diqrng.harness import (
    DEFAULT_SHOTS,
    FORMAT_VERSION,
    IDEAL_WIN_PROBABILITY,
    DeviceProfile,
    ExperimentConfig,
    UnfittableTargetError,
    emit_reports,
    fit_lambda,
    get_device_profile,
    load_counts_record,
    load_device_profiles,
    read_rounds_csv,
    replay_backend,
    rounds_csv_text,
    run_certified_experiment,
    save_counts_record,
    write_rounds_csv,
)
from diqrng.game import analytic_win_probability, round_distribution, win_probability_from_dist
from diqrng.io import (atomic_write_json, atomic_write_text, canonical_json, format_sig,
                       round_sig)
from diqrng.rng import (
    SourceDepleted,
    derive_seed,
    derive_seeds,
    make_rng,
    rekey,
    uniform_bits,
)
from diqrng.simulator import (
    CountsRecord,
    DataFormatError,
    DataIntegrityError,
    OutcomeDistribution,
    record_from_indices,
    sample,
)

# frozen: (cos^2(pi/8) - target) / (cos^2(pi/8) - 1/2)
LAMBDA_BELEM = 0.1621633171076834    # target 0.79622
LAMBDA_LIMA = 0.08223196656235618    # target 0.82448

DEVICE_TARGETS = {
    "ibmq_belem": 0.79622,
    "ibmq_quito": 0.80335,
    "ibmq_manila": 0.82014,
    "ibmq_lima": 0.82448,
    "ibmq_jakarta": 0.82245,
}


# ---------------------------------------------------------------------------
# noise fitting
# ---------------------------------------------------------------------------

class TestFitLambda:
    def test_frozen_values(self):
        assert fit_lambda(0.79622) == pytest.approx(LAMBDA_BELEM, abs=1e-15)
        assert fit_lambda(0.82448) == pytest.approx(LAMBDA_LIMA, abs=1e-15)

    def test_endpoints(self):
        assert fit_lambda(IDEAL_WIN_PROBABILITY) == pytest.approx(0.0, abs=1e-12)
        assert fit_lambda(0.5) == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_through_the_noise_channel(self):
        """Fitted lambda reproduces the target analytically, not just nearby."""
        for target in DEVICE_TARGETS.values():
            lam = fit_lambda(target)
            dist = round_distribution(GameSetting(0, 0), QuantumStrategy(), lam=lam)
            got = win_probability_from_dist(GameSetting(0, 0), dist)
            assert abs(got - target) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(UnfittableTargetError):
            fit_lambda(0.49)
        with pytest.raises(UnfittableTargetError):
            fit_lambda(IDEAL_WIN_PROBABILITY + 1e-6)


class TestDeviceProfiles:
    def test_all_five_profiles_load(self):
        profiles = load_device_profiles()
        assert sorted(p.name for p in profiles) == sorted(DEVICE_TARGETS)
        for p in profiles:
            assert p.avg_win_target == DEVICE_TARGETS[p.name]
            assert 0.0 < p.fitted_lambda < 1.0
            assert p.metadata["shots_per_round"] == DEFAULT_SHOTS
            # reference-only fields travel as metadata, never as model inputs
            assert "reference_sigma" in p.metadata

    def test_lookup_by_name(self):
        profile = get_device_profile("ibmq_lima")
        assert profile.fitted_lambda == pytest.approx(LAMBDA_LIMA, abs=1e-15)
        with pytest.raises(KeyError, match="no device profile"):
            get_device_profile("ibmq_nowhere")

    def test_malformed_profile_file(self, tmp_path):
        bad = tmp_path / "profiles.json"
        bad.write_text('{"format_version": 99, "profiles": []}')
        with pytest.raises(DataFormatError, match="format_version"):
            load_device_profiles(bad)
        bad.write_text("not json")
        with pytest.raises(DataFormatError, match="JSON"):
            load_device_profiles(bad)
        for target in ('"0.8"', "true"):
            bad.write_text('{"format_version": 1, "profiles": [{"name": "d", '
                           f'"avg_win_target": {target}}}]}}')
            with pytest.raises(DataFormatError, match="malformed profile row"):
                load_device_profiles(bad)

    @pytest.mark.parametrize("body", ['"profiles": 5', '"profiles": []', '"profiles": [7]',
                                      '"profiles": [{"name": "d", "avg_win_target": 1%s}]'
                                      % ("0" * 400),
                                      '"profiles": [{"name": "d", "avg_win_target": 0.8, '
                                      '"metadata": [1]}]'])
    def test_malformed_profile_file_is_named(self, tmp_path, body):
        bad = tmp_path / "profiles.json"
        bad.write_text(f'{{"format_version": 1, {body}}}')
        with pytest.raises(DataFormatError) as info:
            load_device_profiles(bad)
        assert str(info.value).startswith(f"{bad}: ")
        # after the path, which holds this test's name and so the word itself
        assert "profile" in str(info.value).split(f"{bad}: ", 1)[1]

    def test_undecodable_profile_file_is_named(self, tmp_path):
        bad = tmp_path / "profiles.json"
        bad.write_bytes(b'{"format_version": 1\xff}')
        with pytest.raises(DataFormatError) as info:
            load_device_profiles(bad)
        assert str(info.value).startswith(f"{bad}: 'utf-8' codec")

    def test_run_device_profile_smoke(self):
        profile = get_device_profile("ibmq_belem")
        config = ExperimentConfig(rounds=5, shots=300, lam=profile.fitted_lambda,
                                  master_seed=1)
        run = run_certified_experiment(config)
        assert run.experiment.total_shots() == 1500
        assert 0.6 < run.experiment.p_avg < 0.95


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------

class TestExperimentConfig:
    def test_json_round_trip(self, tmp_path):
        config = ExperimentConfig(rounds=7, shots=123, lam=0.25, master_seed=42,
                                  threshold_z=3.5, independent_inputs=False,
                                  fresh_state_per_round=False, detection_efficiency=0.7,
                                  report_all_events=True)
        path = tmp_path / "config.json"
        atomic_write_text(path, canonical_json(config.to_json_obj(), precise=True))
        back = ExperimentConfig.from_file(path)
        assert back == config  # exact: the default strategy angles round-trip
        # a file without the loopholes object (as every file written before it
        # existed) means every switch at its default
        obj = config.to_json_obj()
        del obj["loopholes"]
        assert ExperimentConfig.from_json_obj(obj) == dataclasses.replace(
            config, independent_inputs=True, fresh_state_per_round=True,
            detection_efficiency=1.0, report_all_events=False)

    def test_json_integers_become_floats(self):
        obj = {"format_version": 1, "rounds": 2, "shots": 10, "lambda": 0, "threshold_z": 3,
               "strategy": {"global_offset": 0}, "loopholes": {"detection_efficiency": 1}}
        config = ExperimentConfig.from_json_obj(obj)
        # so summary.json and certificate.json bytes do not depend on the spelling
        for value in (config.lam, config.threshold_z, config.strategy.global_offset,
                      config.detection_efficiency):
            assert type(value) is float

    def test_replay_round_trip(self):
        config = ExperimentConfig(replay_x=("a.json",), replay_y=("b.json",))
        obj = config.to_json_obj()
        back = ExperimentConfig.from_json_obj(obj)
        assert back.replay_x == ("a.json",)
        assert obj["input_source"]["mode"] == "replay"

    def test_validation(self):
        with pytest.raises(ConfigError, match="rounds"):
            ExperimentConfig(rounds=0)
        with pytest.raises(ConfigError, match="lambda"):
            ExperimentConfig(lam=1.5)
        with pytest.raises(ConfigError, match="replay"):
            ExperimentConfig(replay_x=("a.json",))
        # the mode is worked out from the files; a JSON mode must agree with them
        for source in ({"mode": "live"}, {"mode": "replay"},
                       {"mode": "seeded", "x_files": ["a.json"], "y_files": ["b.json"]},
                       {"x_files": ["a.json"], "y_files": ["b.json"]},
                       {"mode": "replay", "x_files": ["a.json"]}):
            obj = {"format_version": 1, "rounds": 5, "shots": 10, "input_source": source}
            with pytest.raises(DataFormatError, match="malformed experiment config"):
                ExperimentConfig.from_json_obj(obj)

    def test_malformed_json_objects(self):
        with pytest.raises(DataFormatError):
            ExperimentConfig.from_json_obj({"rounds": 5})  # no format_version
        with pytest.raises(DataFormatError):
            ExperimentConfig.from_json_obj({"format_version": 1, "shots": 10})

    def test_loophole_config_validation(self):
        with pytest.raises(ConfigError, match="detection_efficiency"):
            ExperimentConfig(detection_efficiency=0.0)
        with pytest.raises(ConfigError, match="detection_efficiency"):
            ExperimentConfig(detection_efficiency=1.2)


# ---------------------------------------------------------------------------
# certified runs
# ---------------------------------------------------------------------------

class TestCertifiedRuns:
    def test_ideal_run_is_certified(self):
        run = run_certified_experiment(ExperimentConfig(rounds=10, shots=500))
        assert run.certificate.verdict is Verdict.CERTIFIED
        assert len(run.alice_bits) == 10 * 500
        assert run.alice_bits.dtype == np.uint8 and run.alice_bits.ndim == 1

    def test_reproducible_end_to_end(self):
        config = ExperimentConfig(rounds=6, shots=200, master_seed=9)
        a = run_certified_experiment(config)
        b = run_certified_experiment(config)
        np.testing.assert_array_equal(a.alice_bits, b.alice_bits)
        assert a.certificate == b.certificate

    # (rounds, shots, eta, report_all_events, fresh_state, independent, replay)
    _CHUNK = harness._CHUNK_DRAWS
    _PER_ROUND_CASES = {
        "1.0": (5, 400, 1.0, False, True, True, False),
        "0.8": (5, 400, 0.8, False, True, True, False),
        "0.8-all-events": (5, 400, 0.8, True, True, True, False),
        # most rounds keep no shot: they tally zeros and add no all-event fraction
        "rounds-losing-every-shot": (40, 2, 0.3, True, True, True, False),
        "stale-state": (5, 400, 1.0, False, False, True, False),
        "stale-state-0.8": (5, 400, 0.8, True, False, True, False),
        "dependent-inputs": (40, 10, 0.8, False, True, False, False),
        "replay": (30, 50, 0.8, True, True, True, True),
        # 163 rounds of 400 shots fill a chunk; the second chunk is short
        "ragged-last-chunk": (_CHUNK // 400 + 7, 400, 1.0, False, True, True, False),
        "shots-above-one-chunk": (2, _CHUNK + 1, 0.8, True, True, True, False),
    }

    @pytest.mark.parametrize("case", list(_PER_ROUND_CASES))
    def test_fresh_state_rounds_match_isolated_replay(self, case, tmp_path):
        """Each round is the per-round recipe: with fresh state, a generator
        built from the round's derived seed; otherwise the next draws of one
        stream run through every round.  The round samples its shots, then
        under lossy detection draws Alice's and then Bob's detector
        uniforms.  The chunked engine must give exactly these tallies,
        Alice bits and all-event fractions, whatever the chunk boundaries."""
        rounds, shots, eta, all_events, fresh, independent, replay = \
            self._PER_ROUND_CASES[case]
        replay_x = replay_y = ()
        if replay:
            dist = OutcomeDistribution(1, np.array([0.5, 0.5]))
            for side, seed in (("x", 6), ("y", 7)):
                path = tmp_path / f"{side}.json"
                save_counts_record(path, sample(dist, rounds, rng_seed=seed, memory=True))
            replay_x, replay_y = (str(tmp_path / "x.json"),), (str(tmp_path / "y.json"),)
        config = ExperimentConfig(rounds=rounds, shots=shots, lam=0.1, master_seed=77,
                                  replay_x=replay_x, replay_y=replay_y,
                                  independent_inputs=independent, fresh_state_per_round=fresh,
                                  detection_efficiency=eta, report_all_events=all_events)
        run = run_certified_experiment(config)
        e = run.experiment
        if replay:
            np.testing.assert_array_equal(e.x, replay_backend(replay_x)[:rounds])
            np.testing.assert_array_equal(e.y, replay_backend(replay_y)[:rounds])
        rng = make_rng(derive_seed(config.master_seed, "shared-stream"))
        start = 0
        all_event = []
        for i in range(config.rounds):
            if fresh:
                rng = make_rng(derive_seed(config.master_seed, "round", i))
            setting = GameSetting(int(e.x[i]), int(e.y[i]))
            dist = round_distribution(setting, config.strategy, config.lam)
            emitted = _kernels.sample_outcomes(dist.cdf, rng.random(config.shots))
            idx = emitted
            if eta < 1.0:
                detected_a = rng.random(config.shots) < eta
                detected_b = rng.random(config.shots) < eta
                idx = idx[detected_a & detected_b]
            (same,), (diff,) = result_from_indices(idx[None])
            assert (same, diff) == (e.same[i], e.diff[i])
            if idx.size and all_events and eta < 1.0:
                (same_all,), (diff_all,) = result_from_indices(emitted[None])
                all_event.append((diff_all if setting.x & setting.y else same_all) / shots)
            alice = run.alice_bits[start:start + idx.size]
            np.testing.assert_array_equal(alice, (idx >> 1) & 1)
            start += idx.size
        assert start == len(run.alice_bits)
        assert run.all_event_win_fractions.tolist() == all_event

    def test_rekey_gives_a_fresh_generators_draws(self):
        rng = make_rng(5)
        rng.random(3)
        # an odd number of 32-bit draws leaves half a word cached
        rng.integers(0, 2 ** 32, size=3, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1
        seed = derive_seed(1, "round", 2)
        rekey(rng, seed)
        fresh = make_rng(seed)
        np.testing.assert_array_equal(rng.integers(0, 2 ** 32, size=5, dtype=np.uint32),
                                      fresh.integers(0, 2 ** 32, size=5, dtype=np.uint32))
        np.testing.assert_array_equal(rng.random(7), fresh.random(7))

    @pytest.mark.parametrize("seed", [0, 2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1],
                             ids=["0", "2**63-1", "2**63", "2**64-1"])
    def test_rekey_matches_make_rng_at_the_key_edges(self, seed):
        rng = make_rng(5)
        rng.random(3)
        rng.integers(0, 2 ** 32, size=3, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1
        rekey(rng, seed)
        fresh = make_rng(seed)
        np.testing.assert_array_equal(rng.integers(0, 2 ** 32, size=5, dtype=np.uint32),
                                      fresh.integers(0, 2 ** 32, size=5, dtype=np.uint32))
        np.testing.assert_array_equal(rng.random(7), fresh.random(7))

    @settings(deadline=None, max_examples=40)
    @given(master=st.one_of(st.sampled_from([0, -1, 2 ** 64, 2 ** 64 + 1]),
                            st.integers(-2 ** 70, 2 ** 70)),
           n=st.integers(0, 3000))
    def test_derive_seeds_equal_one_derive_seed_per_index(self, master, n):
        seeds = derive_seeds(master, "round")
        assert [next(seeds) for _ in range(n)] == [derive_seed(master, "round", i)
                                                   for i in range(n)]

    def test_derive_seeds_with_a_longer_path(self):
        seeds = derive_seeds(-3, "bits", 12)
        assert [next(seeds) for _ in range(50)] == [derive_seed(-3, "bits", 12, i)
                                                    for i in range(50)]

    def test_chunked_uniform_bits_equal_one_whole_draw(self):
        chunk = rng_module._BITS_CHUNK
        for n in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
            seed = derive_seed(4, "bits", n)
            got = uniform_bits(seed, n)
            assert got.dtype == np.uint8
            np.testing.assert_array_equal(got, (make_rng(seed).random(n) < 0.5).astype(np.uint8))

    def test_stale_state_stream_changes_outcomes(self):
        config = ExperimentConfig(rounds=5, shots=400, master_seed=77)
        fresh = run_certified_experiment(config)
        stale = run_certified_experiment(
            dataclasses.replace(config, fresh_state_per_round=False))
        fresh_fracs = fresh.experiment.win_fractions.tolist()
        stale_fracs = stale.experiment.win_fractions.tolist()
        assert fresh_fracs != stale_fracs
        # but the stale stream is itself reproducible
        again = run_certified_experiment(
            dataclasses.replace(config, fresh_state_per_round=False))
        assert again.experiment.win_fractions.tolist() == stale_fracs

    def test_dependent_inputs_change_settings(self):
        config = ExperimentConfig(rounds=40, shots=10, master_seed=3)
        indep = run_certified_experiment(config)
        dep = run_certified_experiment(dataclasses.replace(config, independent_inputs=False))
        indep_settings = list(zip(indep.experiment.x.tolist(), indep.experiment.y.tolist()))
        dep_settings = list(zip(dep.experiment.x.tolist(), dep.experiment.y.tolist()))
        assert indep_settings != dep_settings

    def test_dependent_inputs_split_the_alice_stream(self):
        config = ExperimentConfig(rounds=40, shots=10, master_seed=3)
        dep = run_certified_experiment(dataclasses.replace(config, independent_inputs=False))
        alice = uniform_bits(derive_seed(3, "alice-inputs"), 80)
        np.testing.assert_array_equal(dep.experiment.x, alice[:40])
        np.testing.assert_array_equal(dep.experiment.y, alice[40:])

    def test_detection_efficiency_bookkeeping(self):
        eta = 0.8
        config = ExperimentConfig(rounds=8, shots=2000, master_seed=5,
                                  detection_efficiency=eta, report_all_events=True)
        run = run_certified_experiment(config)
        e = run.experiment
        assert e.x.size == 8
        assert (e.shots <= 2000).all()
        # one all-event fraction per round that kept a shot
        assert run.all_event_win_fractions.size == np.count_nonzero(e.shots)
        total_kept = e.total_shots()
        # with outcome-independent losses the all-event fraction sits at
        # the ideal value, same as the post-selected fraction
        for fraction in run.all_event_win_fractions:
            assert abs(fraction - IDEAL_WIN_PROBABILITY) < 0.05
        for fraction in e.win_fractions:
            assert abs(fraction - IDEAL_WIN_PROBABILITY) < 0.05
        expect = eta * eta * 8 * 2000
        sigma = math.sqrt(8 * 2000 * eta * eta * (1 - eta * eta))
        assert abs(total_kept - expect) < 4 * sigma
        assert len(run.alice_bits) == total_kept

    def test_all_shots_lost_round_survives(self):
        config = ExperimentConfig(rounds=12, shots=2, master_seed=0, detection_efficiency=0.05)
        run = run_certified_experiment(config)
        e = run.experiment
        assert e.x.size == 12
        empty = e.shots == 0
        assert empty.any(), "expected at least one fully-lost round at eta=0.05, shots=2"
        assert (e.same[empty] == 0).all() and (e.diff[empty] == 0).all()
        assert (e.win_fractions[empty] == 0.0).all()
        assert e.total_shots() == sum(e.shots.tolist())

    def test_distribution_built_once_per_setting(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return round_distribution(*args, **kwargs)

        monkeypatch.setattr(harness, "round_distribution", counting)
        run = run_certified_experiment(ExperimentConfig(rounds=200, shots=10, master_seed=4))
        assert run.experiment.x.size == 200
        assert len(calls) <= 4


# ---------------------------------------------------------------------------
# replayable input sources
# ---------------------------------------------------------------------------

class TestReplayBackend:
    def _write_record(self, path, seed, shots=40):
        dist = OutcomeDistribution(1, np.array([0.5, 0.5]))
        rec = sample(dist, shots, rng_seed=seed, memory=True)
        save_counts_record(path, rec)
        return rec

    def test_bits_come_from_memory_in_order(self, tmp_path):
        path = tmp_path / "rec.json"
        rec = self._write_record(path, seed=1, shots=16)
        bits = replay_backend([path])
        want = np.array([int(m[0]) for m in rec.memory], dtype=np.uint8)
        np.testing.assert_array_equal(bits[:16], want)

    def test_multiple_files_concatenate(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        r1 = self._write_record(p1, seed=1, shots=8)
        r2 = self._write_record(p2, seed=2, shots=8)
        got = replay_backend([p1, p2])[:16]
        want = [int(m[0]) for m in r1.memory] + [int(m[0]) for m in r2.memory]
        np.testing.assert_array_equal(got, want)

    def test_depletion_raises(self, tmp_path):
        path = tmp_path / "rec.json"
        self._write_record(path, seed=3, shots=10)
        bits = replay_backend([path])
        assert bits.size == 10
        referee_inputs(10, bits, bits)
        with pytest.raises(SourceDepleted, match="exhausted"):
            referee_inputs(11, bits, bits)

    def test_rejects_shared_source(self, tmp_path):
        path = tmp_path / "rec.json"
        self._write_record(path, seed=8, shots=40)
        config = ExperimentConfig(rounds=10, shots=10,
                                  replay_x=(str(path),), replay_y=(str(path),))
        with pytest.raises(ConfigError, match="independent"):
            run_certified_experiment(config)
        # leaving the loophole open on purpose reads x and y from one stream
        run = run_certified_experiment(dataclasses.replace(config, independent_inputs=False))
        bits = replay_backend([path])
        np.testing.assert_array_equal(run.experiment.x, bits[:10])
        np.testing.assert_array_equal(run.experiment.y, bits[10:20])

    def test_record_without_memory_is_rejected(self, tmp_path):
        dist = OutcomeDistribution(1, np.array([0.5, 0.5]))
        rec = sample(dist, 10, rng_seed=4, memory=False)
        path = tmp_path / "rec.json"
        save_counts_record(path, rec)
        with pytest.raises(DataFormatError, match="memory"):
            replay_backend([path])

    def test_counts_record_file_round_trip(self, tmp_path):
        path = tmp_path / "rec.json"
        rec = self._write_record(path, seed=5)
        back = load_counts_record(path)
        assert back.counts == rec.counts
        assert back.memory == rec.memory

    def test_counts_record_writes_in_bounded_memory(self, tmp_path):
        idx = np.random.default_rng(16).integers(0, 16, 10 ** 5)
        rec = record_from_indices(idx, 4, memory=True, metadata={"mode": "hadamard"})
        path = tmp_path / "rec.json"
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            save_counts_record(path, rec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not was_tracing:
                tracemalloc.stop()
        # the file is about 1 MB; streamed, the peak is about 1.3 MB (the
        # memory list copied once), where the whole text as one string read 8.9 MB
        assert peak - before <= 3 * 2 ** 20
        assert load_counts_record(path).memory == rec.memory

    def test_replayed_run_is_bit_reproducible(self, tmp_path):
        px, py = tmp_path / "x.json", tmp_path / "y.json"
        self._write_record(px, seed=6, shots=30)
        self._write_record(py, seed=7, shots=30)
        config = ExperimentConfig(rounds=30, shots=50,
                                  replay_x=(str(px),), replay_y=(str(py),))
        a = run_certified_experiment(config)
        b = run_certified_experiment(config)
        np.testing.assert_array_equal(a.alice_bits, b.alice_bits)
        assert a.certificate == b.certificate


# ---------------------------------------------------------------------------
# persistence: rounds CSV and reports
# ---------------------------------------------------------------------------

class TestRoundsCsv:
    def test_round_trip(self, tmp_path):
        run = run_certified_experiment(ExperimentConfig(rounds=9, shots=150))
        path = tmp_path / "rounds.csv"
        write_rounds_csv(path, run.experiment)
        back = read_rounds_csv(path)
        assert back.x.size == 9
        for column in ("x", "y", "same", "diff"):
            np.testing.assert_array_equal(getattr(back, column), getattr(run.experiment, column))
        # exact, via repr round-trip
        assert back.win_fractions.tolist() == run.experiment.win_fractions.tolist()
        assert back.p_avg == run.experiment.p_avg
        assert back.sigma == run.experiment.sigma

    def test_header_and_field_order(self):
        run = run_certified_experiment(ExperimentConfig(rounds=2, shots=50))
        text = rounds_csv_text(run.experiment)
        lines = text.splitlines()
        assert lines[0] == f"# format_version={FORMAT_VERSION}"
        assert lines[1] == "round_index,x,y,same_count,diff_count,win_fraction"

    def test_tampered_fraction_is_detected(self, tmp_path):
        run = run_certified_experiment(ExperimentConfig(rounds=3, shots=64))
        path = tmp_path / "rounds.csv"
        write_rounds_csv(path, run.experiment)
        lines = path.read_text().splitlines()
        head, first = lines[2].rsplit(",", 1)
        # NaN and inf must fail the consistency check too
        for stored in (repr(float(first) + 0.25), "nan", "inf"):
            lines[2] = head + "," + stored
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(DataIntegrityError, match="win_fraction"):
                read_rounds_csv(path)

    def test_large_table_reads_in_bounded_memory(self, tmp_path):
        n = 10 ** 5
        rng = np.random.default_rng(3)
        same = rng.integers(0, 1000, n)
        experiment = ExperimentResult.from_rounds(rng.integers(0, 2, n), rng.integers(0, 2, n),
                                                  same, 1000 - same)
        path = tmp_path / "rounds.csv"
        write_rounds_csv(path, experiment)
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            back = read_rounds_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not was_tracing:
                tracemalloc.stop()
        # a tuple per row, parsed in Python, peaked at about 25 MB here
        assert peak - before < 20 * 2 ** 20
        for column in ("x", "y", "same", "diff"):
            np.testing.assert_array_equal(getattr(back, column), getattr(experiment, column))

    def test_malformed_files(self, tmp_path):
        path = tmp_path / "rounds.csv"
        path.write_text("round_index,x,y\n0,0,1\n")
        with pytest.raises(DataFormatError, match="format_version"):
            read_rounds_csv(path)
        path.write_text(f"# format_version={FORMAT_VERSION}\nwrong,fields\n")
        with pytest.raises(DataFormatError):
            read_rounds_csv(path)
        for version in ("10", "1x"):
            path.write_text(f"# format_version={version}\n"
                            "round_index,x,y,same_count,diff_count,win_fraction\n"
                            "0,0,0,90,10,0.9\n")
            with pytest.raises(DataFormatError, match="format_version"):
                read_rounds_csv(path)
        path.write_text(f"# format_version={FORMAT_VERSION}\n"
                        "round_index,x,y,same_count,diff_count,win_fraction\n")
        with pytest.raises(DataFormatError, match="no data"):
            read_rounds_csv(path)
        for row in ("0,0,0,-10,20,-1.0", "0,1,1,20,-10,-1.0", "0,2,0,3,1,0.75"):
            path.write_text(f"# format_version={FORMAT_VERSION}\n"
                            "round_index,x,y,same_count,diff_count,win_fraction\n"
                            f"{row}\n")
            with pytest.raises(DataFormatError, match="malformed row"):
                read_rounds_csv(path)
        path.write_text(f"# format_version={FORMAT_VERSION}\n"
                        "round_index,x,y,same_count,diff_count,win_fraction\n"
                        f"0,0,0,{2 ** 62},0,1.0\n1,0,0,{2 ** 62},0,1.0\n")
        with pytest.raises(DataFormatError, match="int64"):
            read_rounds_csv(path)


class TestReports:
    def test_report_files_and_shapes(self, tmp_path):
        run = run_certified_experiment(ExperimentConfig(rounds=25, shots=200))
        paths = emit_reports(run.experiment, tmp_path, label="unit")
        assert set(paths) == {"running_avg", "hist", "density", "summary"}
        for p in paths.values():
            assert os.path.exists(p)

        running = Path(paths["running_avg"]).read_text().splitlines()
        assert running[0] == f"# format_version={FORMAT_VERSION}"
        assert len(running) == 2 + 25  # header + columns + one row per round
        last_avg = float(running[-1].split(",")[-1])
        assert last_avg == pytest.approx(run.experiment.p_avg, abs=1e-5)

        hist_rows = Path(paths["hist"]).read_text().splitlines()[2:]
        assert sum(int(r.split(",")[-1]) for r in hist_rows) == 25

        summary = json.loads(Path(paths["summary"]).read_text())
        assert summary["format_version"] == FORMAT_VERSION
        assert summary["label"] == "unit"
        assert summary["rounds"] == 25
        assert summary["p_avg"] == pytest.approx(run.experiment.p_avg, rel=1e-5)

    def test_reports_are_deterministic_bytes(self, tmp_path):
        run = run_certified_experiment(ExperimentConfig(rounds=10, shots=100))
        d1, d2 = tmp_path / "one", tmp_path / "two"
        p1 = emit_reports(run.experiment, d1, label="same")
        p2 = emit_reports(run.experiment, d2, label="same")
        for key in p1:
            assert Path(p1[key]).read_bytes() == Path(p2[key]).read_bytes()


def _whole_matrix_kde(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """The density from one grid x values matrix, the form the blocks reproduce."""
    n = values.size
    h = max(1.06 * float(values.std(ddof=0)) * n ** (-0.2), 1e-3)
    z = (grid[:, None] - values[None, :]) / h
    return np.exp(-0.5 * z * z).sum(axis=1) / (n * h * math.sqrt(2.0 * math.pi))


_ROWS_AT_2000 = harness._KDE_BLOCK // 2000


class TestGaussianKde:
    @pytest.mark.parametrize("n, grid_size", [
        (1, 1001), (100, 1001), (2000, 1001),
        (2000, _ROWS_AT_2000 + 1), (2000, 3 * _ROWS_AT_2000 + 7),
        (harness._KDE_BLOCK + 1, 11),
    ], ids=["1-round", "100-rounds", "2000-rounds", "one-block-plus-1-row",
            "three-blocks-plus-7-rows", "one-row-per-block"])
    def test_blocks_equal_the_whole_matrix(self, n, grid_size):
        values = np.random.default_rng(n).binomial(200, 0.85, n) / 200
        grid = np.linspace(0.0, 1.0, grid_size)
        assert np.array_equal(harness._gaussian_kde(values, grid),
                              _whole_matrix_kde(values, grid))

    @pytest.mark.parametrize("values", [
        # replay_lossy's spread: about 1280 kept shots per round at p = 0.82
        np.random.default_rng(1).binomial(1280, 0.82, 2000) / 1280,
        np.random.default_rng(2).normal(0.5, 0.008, 2000),
        np.concatenate([np.full(500, 0.3), np.full(500, 0.9)]),  # two clusters
        np.random.default_rng(3).random(2000),  # spread over the whole grid
        np.array([0.75]),
        np.full(300, 0.85),  # zero variance: the floored bandwidth
        np.array([0.0, 1.0]),
    ], ids=["replay-lossy", "clustered", "two-clusters", "spread", "1-round",
            "zero-variance", "ends"])
    def test_skipped_rows_equal_the_whole_matrix(self, values):
        grid = np.linspace(0.0, 1.0, 1001)
        assert np.array_equal(harness._gaussian_kde(values, grid),
                              _whole_matrix_kde(values, grid))

    def test_clustered_values_leave_rows_at_zero(self):
        # the rows skipped are ones the whole matrix sums to exactly 0.0
        values = np.random.default_rng(1).binomial(1280, 0.82, 2000) / 1280
        dens = harness._gaussian_kde(values, np.linspace(0.0, 1.0, 1001))
        assert 100 < np.count_nonzero(dens) < 500

    def test_working_memory_is_linear_in_rounds(self):
        values = np.random.default_rng(4).random(10_000)
        grid = np.linspace(0.0, 1.0, 1001)
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            harness._gaussian_kde(values, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not was_tracing:
                tracemalloc.stop()
        # the whole-matrix form needs about 240 MB here
        assert peak - before < 16 * 2 ** 20


# ---------------------------------------------------------------------------
# canonical serialization helpers
# ---------------------------------------------------------------------------

# JSON values as the package's writers see them: floats include -0.0,
# subnormals and infinities (written as strings); text includes non-ASCII
# and control characters
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False) | st.sampled_from([-0.0, 5e-324, 1e308, math.inf, -math.inf]),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=25)


class TestCanonicalIo:
    def test_round_sig_six_digits(self):
        assert round_sig(0.8535533905932737) == 0.853553
        assert round_sig(1 / 3) == 0.333333
        assert round_sig(123456789.0) == 123457000.0
        assert round_sig(0.0) == 0.0

    @pytest.mark.parametrize("x", [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                                   1.7976931348623157e308, 0.9999995, 999999.5, 1 / 3,
                                   -123456789.0, 0.8535533905932737, 2.5e-7])
    def test_format_sig_prints_the_six_digit_rounding(self, x):
        assert format_sig(x) == f"{round_sig(x):g}"

    def test_canonical_json_is_sorted_and_stable(self):
        text = canonical_json({"b": 1, "a": {"d": 2.0, "c": [3, 4]}})
        assert text.index('"a"') < text.index('"b"')
        assert canonical_json(json.loads(text)) == text

    def test_canonical_json_encodes_infinities_as_strings(self):
        text = canonical_json({"z": math.inf, "w": -math.inf})
        obj = json.loads(text)
        assert obj == {"z": "inf", "w": "-inf"}

    def test_precise_mode_keeps_full_float_precision(self):
        value = math.pi / 4
        rounded = json.loads(canonical_json({"v": value}))["v"]
        exact = json.loads(canonical_json({"v": value}, precise=True))["v"]
        assert rounded == 0.785398
        assert exact == value
        # infinities are still encoded as strings in precise mode
        assert json.loads(canonical_json({"v": math.inf}, precise=True))["v"] == "inf"

    @pytest.mark.parametrize("precise", [False, True], ids=["rounded", "precise"])
    def test_mixed_nested_object_text(self, precise):
        obj = {"label": "run", "n": 3, "ok": True, "missing": None, "p": 0.123456789,
               "big": 123456789.0, "hi": math.inf, "lo": -math.inf,
               "third": np.float64(1 / 3),
               "rows": [1, "a", False, None, 2.0000001,
                        [math.inf, {"k": -math.inf, "v": [7, 0.5, "s"]}]],
               "pair": (1, math.e)}
        want = {"label": "run", "n": 3, "ok": True, "missing": None,
                "p": 0.123456789 if precise else 0.123457,
                "big": 123456789.0 if precise else 123457000.0, "hi": "inf", "lo": "-inf",
                "third": 1 / 3 if precise else 0.333333,
                "rows": [1, "a", False, None, 2.0000001 if precise else 2.0,
                         ["inf", {"k": "-inf", "v": [7, 0.5, "s"]}]],
                "pair": [1, math.e if precise else 2.71828]}
        assert canonical_json(obj, precise=precise) == json.dumps(
            want, sort_keys=True, separators=(",", ": "), indent=1)

    @settings(deadline=None, max_examples=150,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(obj=_JSON_VALUES, precise=st.booleans())
    @example(obj={"": [], "e": {}, "z": [-0.0, 5e-324, 1e308, math.inf, -math.inf],
                  "s": "\u00e9\u4e2d\x00\x1f\n\"\\", "t": (1, "a", None, True)},
             precise=False)
    @example(obj=[], precise=True)
    @example(obj={}, precise=False)
    # more chunks than one write batch holds
    @example(obj={"memory": [f"{i:04b}" for i in range(16)] * 1000, "p": 1 / 3}, precise=True)
    def test_streamed_json_file_is_canonical_json(self, tmp_path, obj, precise):
        path = tmp_path / "out.json"
        atomic_write_json(path, obj, precise=precise)
        assert path.read_bytes() == (canonical_json(obj, precise=precise) + "\n").encode()

    @pytest.mark.parametrize("bad,error", [(math.nan, ValueError), ({1, 2}, TypeError)],
                             ids=["nan", "set"])
    @pytest.mark.parametrize("precise", [False, True], ids=["rounded", "precise"])
    def test_streamed_json_refusal_leaves_target_untouched(self, tmp_path, bad, error, precise):
        # keys sort "a" first: its 10^4 entries are encoded before the refusal
        obj = {"a": list(range(10 ** 4)), "b": bad}
        with pytest.raises(error) as want:
            canonical_json(obj, precise=precise)
        path = tmp_path / "out.json"
        with pytest.raises(error) as got:
            atomic_write_json(path, obj, precise=precise)
        assert str(got.value) == str(want.value)
        assert os.listdir(tmp_path) == []
        path.write_text("earlier\n")
        with pytest.raises(error):
            atomic_write_json(path, obj, precise=precise)
        assert path.read_text() == "earlier\n"
        assert os.listdir(tmp_path) == ["out.json"]

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "payload")
        assert path.read_text() == "payload"
        assert os.listdir(tmp_path) == ["out.txt"]


# ---------------------------------------------------------------------------
# the counts-record writer
# ---------------------------------------------------------------------------

# metadata keys include non-ASCII text and a nested "memory", the key the
# writer splices the memory block in at
_METADATA = st.dictionaries(
    st.sampled_from(["memory", "mode", "seed", "\u00e9t\u00e9", "\u4e2d"]) | st.text(),
    _JSON_VALUES, max_size=4)


def _record(width: int, shots: int, seed: int, *, memory: bool = True,
            metadata: dict | None = None) -> CountsRecord:
    idx = np.random.default_rng(seed).integers(0, 2 ** width, shots)
    return record_from_indices(idx, width, memory=memory, metadata=metadata)


class TestCountsRecordWriter:
    @settings(deadline=None, max_examples=80,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(width=st.sampled_from([1, 2, 4, 12]), shots=st.integers(1, 40),
           memory=st.booleans(), metadata=_METADATA, rows=st.integers(1, 9),
           seed=st.integers(0, 2 ** 32))
    @example(width=1, shots=1, memory=True, metadata={}, rows=1, seed=0)
    @example(width=12, shots=1, memory=True, metadata={}, rows=1, seed=0)
    @example(width=12, shots=1, memory=False, metadata={}, rows=1, seed=0)
    @example(width=4, shots=7, memory=True, rows=3, seed=1, metadata={
        "memory": {"memory": [" \"memory\": null", None]}, "\u00e9": "\u4e2d\n \"memory\": null",
        "nested": {"a": [1, {"b": 1 / 3}], "memory": None}})
    def test_bytes_equal_the_encoder(self, tmp_path, width, shots, memory, metadata, rows,
                                     seed):
        rec = _record(width, shots, seed, memory=memory, metadata=metadata)
        got, want = tmp_path / "got.json", tmp_path / "want.json"
        # a few lines per piece, so that the pieces' joins are crossed
        with mock.patch.object(harness, "_MEMORY_ROWS", rows):
            save_counts_record(got, rec)
        atomic_write_json(want, rec.to_json_obj(), precise=True)
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("shots", [harness._MEMORY_ROWS, 2 * harness._MEMORY_ROWS + 1])
    def test_bytes_equal_the_encoder_at_whole_pieces(self, tmp_path, shots):
        rec = _record(4, shots, shots, metadata={"mode": "hadamard", "seed": 1})
        save_counts_record(tmp_path / "got.json", rec)
        atomic_write_json(tmp_path / "want.json", rec.to_json_obj(), precise=True)
        assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()

    @pytest.mark.parametrize("memory, error", [
        (["01", "0", "11"], DataFormatError),
        (["01", "011", "1"], DataFormatError),
        (["01", "0x", "11"], DataFormatError),
        (["01", 1, "11"], DataFormatError),
        (["01", "01", "11"], DataIntegrityError),
        (["01", "11"], DataIntegrityError),
    ], ids=["short", "long", "non-bit", "non-string", "tally", "length"])
    def test_record_the_loader_refuses_writes_nothing(self, tmp_path, memory, error):
        rec = CountsRecord(shots=3, counts={"01": 1, "11": 2}, memory=memory, metadata={})
        path = tmp_path / "rec.json"
        with pytest.raises(error):
            save_counts_record(path, rec)
        assert os.listdir(tmp_path) == []
        path.write_text("earlier\n")
        with pytest.raises(error):
            save_counts_record(path, rec)
        assert os.listdir(tmp_path) == ["rec.json"]
        assert path.read_text() == "earlier\n"

    def test_metadata_that_does_not_encode_writes_nothing(self, tmp_path):
        rec = _record(2, 5, 0, metadata={"x": math.nan})
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_counts_record(tmp_path / "rec.json", rec)
        assert os.listdir(tmp_path) == []

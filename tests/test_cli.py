"""Command-line interface tests, run in-process through main().

Exit-code contract: 0 success, 1 battery failure, 2 not violated,
64 usage, 65 data, 74 I/O.  The determinism tests compare output files
byte for byte across reruns.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from diqrng.certify import certificate_text, certify_pooled
from diqrng.cli import (
    EXIT_DATA,
    EXIT_IO,
    EXIT_NOT_VIOLATED,
    EXIT_OK,
    EXIT_TEST_FAIL,
    EXIT_USAGE,
    main,
)
from diqrng.harness import ExperimentConfig
from diqrng.io import atomic_write_text, canonical_json
from oracles import config_json_obj

PLAY_FILES = ("rounds.csv", "certificate.json", "summary.json",
              "alice_bits.txt", "alice_bits.bin")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _fresh_python(code: str) -> str:
    """Stdout of `code` run in a new interpreter that imports diqrng from SRC."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def _read_all(directory) -> dict[str, bytes]:
    return {name: Path(directory, name).read_bytes()
            for name in sorted(os.listdir(directory))}


def _certified(directory) -> str:
    """A CERTIFIED certificate file: p_win 0.85 over 10^4 shots gives rate 0.73697.

    Its Toeplitz budget on an n-bit stream is floor(0.73697 n) - 64 bits.
    """
    path = os.path.join(directory, "certified.json")
    atomic_write_text(path, certificate_text(certify_pooled(0.85, 10_000)))
    return path


class TestPlay:
    def test_small_ideal_run(self, tmp_path, capsys):
        code = main(["play", "--rounds", "5", "--shots", "200", "--seed", "3",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "verdict=CERTIFIED" in out
        for name in PLAY_FILES:
            assert (tmp_path / name).exists(), name
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["rounds"] == 5
        assert summary["total_shots"] == 1000
        assert summary["verdict"] == "CERTIFIED"
        assert summary["loopholes"]["independent_inputs"] is True
        assert "single-process" in summary["loopholes"]["spacelike_separation"]
        bits = (tmp_path / "alice_bits.txt").read_text().replace("\n", "")
        assert len(bits) == 1000

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        args = ["play", "--rounds", "4", "--shots", "100", "--seed", "11"]
        d1, d2 = tmp_path / "one", tmp_path / "two"
        assert main(args + ["--out-dir", str(d1)]) == EXIT_OK
        assert main(args + ["--out-dir", str(d2)]) == EXIT_OK
        assert _read_all(d1) == _read_all(d2)

    def test_noisy_run_exits_2(self, tmp_path, capsys):
        code = main(["play", "--rounds", "4", "--shots", "100", "--lambda", "0.9",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_NOT_VIOLATED
        assert "verdict=NOT_VIOLATED" in capsys.readouterr().out
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert cert["verdict"] == "NOT_VIOLATED"

    def test_profile_sets_lambda_and_label(self, tmp_path, capsys):
        code = main(["play", "--profile", "ibmq_belem", "--rounds", "5",
                     "--shots", "2000", "--out-dir", str(tmp_path)])
        assert code == EXIT_OK  # 10^4 shots: z ~ 11 at the belem target
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["label"] == "ibmq_belem"
        assert summary["avg_win_target"] == 0.79622
        assert summary["lambda"] == pytest.approx(0.162163, abs=1e-6)

    def test_profile_and_lambda_conflict(self, tmp_path, capsys):
        code = main(["play", "--profile", "ibmq_belem", "--lambda", "0.1",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_USAGE
        assert "mutually exclusive" in capsys.readouterr().err

    def test_unknown_profile(self, tmp_path, capsys):
        code = main(["play", "--profile", "nope", "--out-dir", str(tmp_path)])
        assert code == EXIT_USAGE

    def test_bad_flag_values(self, tmp_path, capsys):
        assert main(["play", "--rounds", "0", "--out-dir", str(tmp_path)]) == EXIT_USAGE
        assert main(["play", "--lambda", "2", "--out-dir", str(tmp_path)]) == EXIT_USAGE
        assert main(["play", "--efficiency", "0", "--rounds", "2", "--shots", "10",
                     "--out-dir", str(tmp_path)]) == EXIT_USAGE
        # every value is refused before a round is played
        assert not (tmp_path / "rounds.csv").exists()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = ExperimentConfig(rounds=3, shots=150, master_seed=21)
        config_path = tmp_path / "config.json"
        atomic_write_text(config_path, canonical_json(config_json_obj(config), precise=True))
        out_dir = tmp_path / "out"
        code = main(["play", "--config", str(config_path), "--rounds", "6",
                     "--out-dir", str(out_dir)])
        assert code == EXIT_OK
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["rounds"] == 6          # flag wins
        assert summary["shots_per_round"] == 150  # file value survives
        assert summary["master_seed"] == 21

    @pytest.mark.parametrize("field", [
        {"strategy": {"alice_angles": 5}},
        {"strategy": [1]},
        {"input_source": "x"},
        {"rounds": float("inf")},
        {"strategy": {"alice_angles": [math.nan, math.nan], "bob_angles": [math.nan, math.nan]}},
        {"strategy": {"global_offset": math.nan}},
        {"rounds": 2.7},
        {"shots": True},
        {"master_seed": 1.5},
        {"rounds": 2.0},
        {"master_seed": "3"},
        # threshold_z is no setting: a config holding it is refused whatever its value
        {"threshold_z": math.nan},
        {"threshold_z": math.inf},
        {"lambda": "0.3"},
        {"lambda": True},
        {"threshold_z": True},
        {"threshold_z": "3"},
        {"threshold_z": 5.0},
        {"strategy": {"global_offset": "0.1"}},
        {"loopholes": {"detection_efficiency": "0.8"}},
        {"loopholes": {"detection_efficiency": True}},
        {"loopholes": {"detection_efficiency": 0}},
        {"loopholes": {"report_all_events": 0}},
        {"loopholes": {"report_all_events": "false"}},
        {"loopholes": {"report_all_events": None}},
        {"loopholes": {"fresh_state": False}},
        # inputs and per-round state are always independent and fresh: no switch left
        {"loopholes": {"independent_inputs": False}},
        {"loopholes": {"fresh_state_per_round": True}},
        {"loopholes": [False]},
        {"lambd": 0.9},
        {"strategy": {"alice_angle": [0.0, 0.5]}},
        {"input_source": {"mode": "seeded", "xfiles": ["x.json"]}},
        {"strategy": False},
        {"input_source": ""},
        # the measurement layout is fixed: a strategy object is refused, even the default one
        {"strategy": {}},
        {"strategy": {"alice_angles": [0.0, math.pi / 4], "bob_angles": [math.pi / 8, -math.pi / 8],
                      "global_offset": 0.0}},
    ], ids=["angles-not-a-list", "strategy-not-an-object", "source-not-an-object",
            "rounds-infinite", "angles-nan", "offset-nan", "rounds-fraction", "shots-bool",
            "seed-fraction", "rounds-float", "seed-string", "threshold-nan", "threshold-inf",
            "lambda-string", "lambda-bool", "threshold-bool", "threshold-string",
            "threshold-key-unknown",
            "offset-string", "efficiency-string", "efficiency-bool", "efficiency-zero",
            "switch-int", "switch-string", "switch-null", "switch-unknown",
            "independent-inputs-key-unknown", "fresh-state-key-unknown",
            "loopholes-not-an-object", "key-unknown", "strategy-key-unknown",
            "source-key-unknown", "strategy-false", "source-empty-string", "strategy-empty",
            "strategy-default"])
    def test_malformed_config_file_exits_65(self, tmp_path, capsys, field):
        config = {"format_version": 1, "rounds": 2, "shots": 10, **field}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        code = main(["play", "--config", str(config_path), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "malformed experiment config" in err
        (key,) = field
        if key in ("strategy", "threshold_z", "lambd"):  # no config key: refused by name
            assert f"unknown keys [{key!r}]" in err
        switches = field.get("loopholes")
        if switches in ({"independent_inputs": False}, {"fresh_state_per_round": True}):
            assert f"loopholes holds unknown keys {list(switches)}" in err
        assert not (tmp_path / "out" / "rounds.csv").exists()

    @pytest.mark.parametrize("files", ["abc", [1], [0]],
                             ids=["string", "stdout-descriptor", "stdin-descriptor"])
    def test_config_file_lists_must_be_lists_of_names(self, tmp_path, capsys, files):
        # "abc" would open files a, b and c; an int is opened as a file descriptor
        config = {"format_version": 1, "rounds": 2, "shots": 10,
                  "input_source": {"mode": "replay", "x_files": files, "y_files": ["y.json"]}}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        code = main(["play", "--config", str(config_path), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_DATA
        assert "x_files must be a list of file names" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_undecodable_config_file_exits_65(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_bytes(b'{"rounds": 2, "shots": 10\xff}')
        code = main(["play", "--config", str(config_path), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_DATA
        assert f"data error: {config_path}: 'utf-8' codec" in capsys.readouterr().err
        assert not (tmp_path / "out" / "rounds.csv").exists()

    def test_out_dir_env_fallback(self, tmp_path, capsys, monkeypatch):
        env_dir = tmp_path / "from-env"
        monkeypatch.setenv("DIQRNG_OUT_DIR", str(env_dir))
        code = main(["play", "--rounds", "2", "--shots", "50"])
        assert code in (EXIT_OK, EXIT_NOT_VIOLATED)  # tiny run may not certify
        assert (env_dir / "rounds.csv").exists()

    def test_loophole_flags_recorded(self, tmp_path, capsys):
        code = main(["play", "--rounds", "4", "--shots", "400", "--seed", "2",
                     "--efficiency", "0.7", "--report-all-events",
                     "--out-dir", str(tmp_path)])
        assert code in (EXIT_OK, EXIT_NOT_VIOLATED)
        summary = json.loads((tmp_path / "summary.json").read_text())
        loopholes = summary["loopholes"]
        # closed in every run: no flag opens them
        assert loopholes["independent_inputs"] is True
        assert loopholes["fresh_state_per_round"] is True
        assert loopholes["detection_efficiency"] == 0.7
        assert "all_event_p_avg" in summary
        assert summary["all_event_p_avg"] == pytest.approx(0.8536, abs=0.05)
        assert summary["detected_fraction"] == pytest.approx(0.49, abs=0.08)
        for flag in ("--dependent-inputs", "--stale-state"):
            assert main(["play", "--rounds", "4", "--shots", "400", flag,
                         "--out-dir", str(tmp_path / "removed")]) == EXIT_USAGE
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "removed").exists()

    def test_lossy_run_reports_detected_fraction(self, tmp_path, capsys):
        code = main(["play", "--rounds", "4", "--shots", "400", "--seed", "2",
                     "--efficiency", "0.7", "--out-dir", str(tmp_path)])
        assert code in (EXIT_OK, EXIT_NOT_VIOLATED)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["detected_fraction"] == pytest.approx(0.49, abs=0.08)
        assert summary["detected_fraction"] == summary["total_shots"] / 1600
        assert "all_event_p_avg" not in summary


class TestReplayFlow:
    def _make_inputs(self, tmp_path):
        xa, ya = tmp_path / "xa.json", tmp_path / "ya.json"
        assert main(["qrng", "--mode", "hadamard", "--qubits", "1", "--shots", "120",
                     "--seed", "31", "--out", str(tmp_path / "xa"),
                     "--counts-out", str(xa)]) == EXIT_OK
        assert main(["qrng", "--mode", "hadamard", "--qubits", "1", "--shots", "120",
                     "--seed", "32", "--out", str(tmp_path / "ya"),
                     "--counts-out", str(ya)]) == EXIT_OK
        return xa, ya

    def test_replay_play_is_reproducible(self, tmp_path, capsys):
        xa, ya = self._make_inputs(tmp_path)
        args = ["play", "--rounds", "100", "--shots", "50", "--seed", "8",
                "--replay-x", str(xa), "--replay-y", str(ya)]
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert main(args + ["--out-dir", str(d1)]) == EXIT_OK
        assert main(args + ["--out-dir", str(d2)]) == EXIT_OK
        assert _read_all(d1) == _read_all(d2)

    def test_depleted_replay_exits_65(self, tmp_path, capsys):
        xa, ya = self._make_inputs(tmp_path)
        code = main(["play", "--rounds", "121", "--shots", "10",
                     "--replay-x", str(xa), "--replay-y", str(ya),
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_DATA
        assert "exhausted" in capsys.readouterr().err

    @pytest.mark.parametrize("side", ["x", "y"])
    def test_undecodable_replay_record_exits_65(self, tmp_path, capsys, side):
        records = dict(zip("xy", self._make_inputs(tmp_path)))
        records[side].write_bytes(records[side].read_bytes() + b"\xff")
        code = main(["play", "--rounds", "10", "--shots", "10",
                     "--replay-x", str(records["x"]), "--replay-y", str(records["y"]),
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_DATA
        assert f"data error: {records[side]}: " in capsys.readouterr().err
        assert not (tmp_path / "out" / "rounds.csv").exists()

    @pytest.mark.parametrize("metadata", [[], 0, "", False, None],
                             ids=["empty-list", "zero", "empty-string", "false", "null"])
    def test_replay_record_with_non_object_metadata_exits_65(self, tmp_path, capsys, metadata):
        xa, ya = self._make_inputs(tmp_path)
        record = json.loads(xa.read_text())
        record["metadata"] = metadata
        xa.write_text(json.dumps(record))
        code = main(["play", "--rounds", "10", "--shots", "10",
                     "--replay-x", str(xa), "--replay-y", str(ya),
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_DATA
        assert f"data error: {xa}: metadata must be an object" in capsys.readouterr().err

    def test_undecodable_second_replay_file_is_named(self, tmp_path, capsys):
        xa, ya = self._make_inputs(tmp_path)
        xb = tmp_path / "xb.json"
        xb.write_bytes(xa.read_bytes() + b"\xff")
        code = main(["play", "--rounds", "10", "--shots", "10",
                     "--replay-x", str(xa), str(xb), "--replay-y", str(ya),
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert f"data error: {xb}: 'utf-8' codec can't decode byte 0xff" in err
        assert str(xa) not in err

    def test_same_file_both_sides_is_rejected(self, tmp_path, capsys):
        xa, _ = self._make_inputs(tmp_path)
        code = main(["play", "--rounds", "10", "--shots", "10",
                     "--replay-x", str(xa), "--replay-y", str(xa),
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_USAGE
        assert "independent" in capsys.readouterr().err

    @pytest.mark.parametrize("sides", [(["xa.json"], ["./xa.json"]),
                                       (["xa.json", "ya.json"], ["ya.json"])],
                             ids=["respelled-path", "overlapping-lists"])
    def test_file_on_both_sides_is_rejected(self, tmp_path, capsys, monkeypatch, sides):
        self._make_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        x_files, y_files = sides
        code = main(["play", "--rounds", "10", "--shots", "10", "--replay-x", *x_files,
                     "--replay-y", *y_files, "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_USAGE
        assert "independent" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sides", [(["a.json"], ["b.json"]),
                                       (["a.json", "c.json"], ["d.json", "b.json"])],
                             ids=["copy", "copy-second-in-lists"])
    def test_record_copy_on_both_sides_is_rejected(self, tmp_path, capsys, monkeypatch, sides):
        monkeypatch.chdir(tmp_path)
        for name, seed in (("a", 5), ("c", 6), ("d", 7)):
            assert main(["qrng", "--mode", "hadamard", "--qubits", "1", "--shots", "400",
                         "--seed", str(seed), "--out", name,
                         "--counts-out", f"{name}.json"]) == EXIT_OK
        (tmp_path / "b.json").write_bytes((tmp_path / "a.json").read_bytes())
        x_files, y_files = sides
        code = main(["play", "--rounds", "200", "--shots", "1000", "--seed", "1",
                     "--replay-x", *x_files, "--replay-y", *y_files, "--out-dir", "out"])
        assert code == EXIT_USAGE
        assert ("input sources must be independent (x record a.json and y record b.json "
                "hold the same bits)") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_replay_needs_both_sides(self, tmp_path, capsys):
        xa, _ = self._make_inputs(tmp_path)
        code = main(["play", "--rounds", "5", "--replay-x", str(xa),
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_USAGE


class TestQrng:
    def test_hadamard_outputs(self, tmp_path, capsys):
        base = tmp_path / "bits"
        code = main(["qrng", "--mode", "hadamard", "--qubits", "3",
                     "--shots", "40", "--seed", "5", "--out", str(base)])
        assert code == EXIT_OK
        lines = (tmp_path / "bits.txt").read_text().splitlines()
        assert len(lines) == 40
        assert all(len(line) == 3 and set(line) <= {"0", "1"} for line in lines)
        packed = (tmp_path / "bits.bin").read_bytes()
        assert len(packed) == (40 * 3 + 7) // 8

    def test_parity_counts_record(self, tmp_path, capsys):
        rec_path = tmp_path / "rec.json"
        code = main(["qrng", "--mode", "parity", "--qubits", "3", "--shots", "64",
                     "--seed", "9", "--out", str(tmp_path / "p"),
                     "--counts-out", str(rec_path)])
        assert code == EXIT_OK
        rec = json.loads(rec_path.read_text())
        assert rec["shots"] == 64
        assert len(rec["memory"]) == 64
        # every recorded outcome satisfies the parity invariant
        for word in rec["memory"]:
            assert int(word[-1]) == sum(int(c) for c in word[:-1]) % 2

    def test_parity_needs_three_qubits(self, tmp_path, capsys):
        code = main(["qrng", "--mode", "parity", "--qubits", "2", "--shots", "10",
                     "--out", str(tmp_path / "p")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("mode", ["hadamard", "parity"])
    @pytest.mark.parametrize("qubits", [13, 40])
    def test_qubit_limit_exits_64(self, tmp_path, capsys, mode, qubits):
        code = main(["qrng", "--mode", mode, "--qubits", str(qubits), "--shots", "10",
                     "--out", str(tmp_path / "q"), "--counts-out", str(tmp_path / "rec.json")])
        assert code == EXIT_USAGE
        assert "1..12" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("seed", [-1, 2 ** 64], ids=["-1", "2**64"])
    def test_out_of_range_seed_exits_64(self, tmp_path, capsys, seed):
        code = main(["qrng", "--mode", "hadamard", "--qubits", "2", "--shots", "10",
                     "--seed", str(seed), "--out", str(tmp_path / "q"),
                     "--counts-out", str(tmp_path / "rec.json")])
        assert code == EXIT_USAGE
        assert "must be in [0, 2**64)" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_deterministic_for_seed(self, tmp_path, capsys):
        for name in ("a", "b"):
            main(["qrng", "--mode", "hadamard", "--qubits", "2", "--shots", "100",
                  "--seed", "77", "--out", str(tmp_path / name)])
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


class TestExtract:
    def _bits_file(self, tmp_path, text, name="in.txt"):
        path = tmp_path / name
        path.write_text(text + "\n")
        return path

    def test_von_neumann(self, tmp_path, capsys):
        path = self._bits_file(tmp_path, "01100110")
        code = main(["extract", "--in", str(path), "--method", "von-neumann",
                     "--out", str(tmp_path / "vn")])
        assert code == EXIT_OK
        assert (tmp_path / "vn.txt").read_text().strip() == "0101"

    def test_von_neumann_empty_output(self, tmp_path, capsys):
        path = self._bits_file(tmp_path, "0011" * 3)
        # a stream left by an earlier run under the same base name
        (tmp_path / "vn.txt").write_text("0101\n")
        (tmp_path / "vn.bin").write_bytes(b"\x50")
        code = main(["extract", "--in", str(path), "--method", "von-neumann",
                     "--out", str(tmp_path / "vn")])
        assert code == EXIT_OK
        assert "no bits" in capsys.readouterr().out
        assert not (tmp_path / "vn.txt").exists()
        assert not (tmp_path / "vn.bin").exists()

    def test_toeplitz_with_generated_seed(self, tmp_path, capsys):
        path = self._bits_file(tmp_path, "10110010" * 32)  # 256 bits: budget 124
        code = main(["extract", "--in", str(path), "--method", "toeplitz",
                     "--out-len", "32", "--extractor-seed", "4",
                     "--certificate", _certified(tmp_path), "--out", str(tmp_path / "tp")])
        assert code == EXIT_OK
        assert len((tmp_path / "tp.txt").read_text().strip()) == 32

    def test_over_budget_is_refused_before_the_seed_is_drawn(self, tmp_path, capsys,
                                                              monkeypatch):
        from diqrng import cli

        draws = []
        monkeypatch.setattr(cli, "toeplitz_seed_bits", lambda *args: draws.append(args))
        path = self._bits_file(tmp_path, "10110010" * 32)  # 256 bits: budget 124
        code = main(["extract", "--in", str(path), "--method", "toeplitz",
                     "--out-len", str(10 ** 15), "--extractor-seed", "4",
                     "--certificate", _certified(tmp_path), "--out", str(tmp_path / "tp")])
        assert code == EXIT_USAGE
        assert "exceeds certified budget 124" in capsys.readouterr().err
        assert draws == [] and not (tmp_path / "tp.txt").exists()

    @pytest.mark.parametrize("source", ["extractor-seed", "missing-seed-file", "short-seed-file"])
    def test_over_budget_is_refused_whatever_the_seed_source(self, tmp_path, capsys, source):
        # the budget is checked before either seed source is read
        path = self._bits_file(tmp_path, "10110010" * 32)  # 256 bits: budget 124
        short = self._bits_file(tmp_path, "0110010111", name="short.txt")
        seed_flags = {"extractor-seed": ["--extractor-seed", "4"],
                      "missing-seed-file": ["--seed-file", str(tmp_path / "absent.txt")],
                      "short-seed-file": ["--seed-file", str(short)]}[source]
        code = main(["extract", "--in", str(path), "--method", "toeplitz", "--out-len", "200",
                     *seed_flags, "--certificate", _certified(tmp_path),
                     "--out", str(tmp_path / "tp")])
        assert code == EXIT_USAGE
        assert "exceeds certified budget 124" in capsys.readouterr().err
        assert not (tmp_path / "tp.txt").exists()

    def test_toeplitz_with_seed_file(self, tmp_path, capsys):
        path = self._bits_file(tmp_path, "1011" * 25)  # 100 bits: budget 9
        seed = self._bits_file(tmp_path, "0110010" * 14 + "01110", name="seed.txt")  # 100 + 4 - 1
        code = main(["extract", "--in", str(path), "--method", "toeplitz",
                     "--out-len", "4", "--seed-file", str(seed),
                     "--certificate", _certified(tmp_path), "--out", str(tmp_path / "tp")])
        assert code == EXIT_OK

    def test_toeplitz_seed_file_length_mismatch(self, tmp_path, capsys):
        path = self._bits_file(tmp_path, "1011" * 25)
        seed = self._bits_file(tmp_path, "0110", name="seed.txt")
        code = main(["extract", "--in", str(path), "--method", "toeplitz",
                     "--out-len", "4", "--seed-file", str(seed),
                     "--certificate", _certified(tmp_path), "--out", str(tmp_path / "tp")])
        assert code == EXIT_DATA
        assert "need 103" in capsys.readouterr().err

    def test_toeplitz_flag_validation(self, tmp_path, capsys):
        path = self._bits_file(tmp_path, "1011")
        base = ["extract", "--in", str(path), "--method", "toeplitz",
                "--out", str(tmp_path / "tp")]
        assert main(base + ["--extractor-seed", "1"]) == EXIT_USAGE  # no --out-len
        assert main(base + ["--out-len", "2"]) == EXIT_USAGE  # no seed source
        assert main(base + ["--out-len", "2", "--extractor-seed", "1",
                            "--seed-file", str(path)]) == EXIT_USAGE

    @pytest.mark.parametrize("stream", ["missing.bin", "bad.txt", "in.txt"])
    def test_toeplitz_flags_are_checked_before_the_stream_is_read(self, tmp_path, capsys,
                                                                  monkeypatch, stream):
        from diqrng import cli

        self._bits_file(tmp_path, "1011")
        self._bits_file(tmp_path, "01x1", name="bad.txt")
        loads = []
        for name in ("_load_stream", "_load_packed"):
            load = getattr(cli, name)
            monkeypatch.setattr(cli, name,
                                lambda *args, load=load: loads.append(args) or load(*args))
        base = ["extract", "--in", str(tmp_path / stream), "--method", "toeplitz",
                "--out", str(tmp_path / "tp")]
        certificate = ["--certificate", _certified(tmp_path)]
        for flags in (["--extractor-seed", "1", *certificate],  # no --out-len
                      ["--out-len", "2", *certificate],  # no seed source
                      ["--out-len", "2", "--extractor-seed", "1"]):  # no certificate
            assert main(base + flags) == EXIT_USAGE
        assert loads == []
        assert "tp.txt" not in os.listdir(tmp_path)

    @pytest.mark.parametrize("seed_flag", ["--extractor-seed", "--seed-file"])
    def test_toeplitz_without_a_certificate_exits_64(self, tmp_path, capsys, seed_flag):
        # 2000 bits hashed to 5000 with no rate: more bits out than in
        path = self._bits_file(tmp_path, "10110010" * 250)
        seed = self._bits_file(tmp_path, "01" * 3499 + "0", name="seed.txt")
        code = main(["extract", "--in", str(path), "--method", "toeplitz", "--out-len", "5000",
                     seed_flag, "1" if seed_flag == "--extractor-seed" else str(seed),
                     "--out", str(tmp_path / "tp")])
        assert code == EXIT_USAGE
        assert "needs --certificate" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["in.txt", "seed.txt"]

    @pytest.mark.parametrize("flag, value", [
        ("--certificate", "nonexist.json"), ("--out-len", "3"),
        ("--extractor-seed", "1"), ("--seed-file", "seed.txt"),
    ])
    def test_von_neumann_refuses_toeplitz_flags(self, tmp_path, capsys, flag, value):
        path = self._bits_file(tmp_path, "01100110")
        code = main(["extract", "--in", str(path), "--method", "von-neumann",
                     "--out", str(tmp_path / "vn"), flag, value])
        assert code == EXIT_USAGE
        assert f"{flag} applies only to --method toeplitz" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["in.txt"]

    @pytest.mark.parametrize("seed", [-1, 2 ** 64], ids=["-1", "2**64"])
    def test_out_of_range_extractor_seed_exits_64(self, tmp_path, capsys, seed):
        path = self._bits_file(tmp_path, "10110010" * 4)
        code = main(["extract", "--in", str(path), "--method", "toeplitz",
                     "--out-len", "8", "--extractor-seed", str(seed),
                     "--out", str(tmp_path / "tp")])
        assert code == EXIT_USAGE
        assert "must be in [0, 2**64)" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["in.txt"]

    def test_kernel_drift_exits_65(self, tmp_path, capsys, monkeypatch):
        from diqrng import _kernels

        def drifted(seed_bits, x_bits, out_len):
            raise FloatingPointError("convolution drifted off integer lattice")

        monkeypatch.setattr(_kernels, "toeplitz_gf2", drifted)
        path = self._bits_file(tmp_path, "10110010" * 32)
        code = main(["extract", "--in", str(path), "--method", "toeplitz",
                     "--out-len", "32", "--extractor-seed", "4",
                     "--certificate", _certified(tmp_path), "--out", str(tmp_path / "tp")])
        assert code == EXIT_DATA
        assert "drifted" in capsys.readouterr().err
        assert not (tmp_path / "tp.txt").exists()

    def test_budget_from_certificate(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["play", "--rounds", "5", "--shots", "200", "--seed", "3",
                     "--out-dir", str(run_dir)]) == EXIT_OK
        code = main(["extract", "--in", str(run_dir / "alice_bits.txt"),
                     "--method", "toeplitz", "--out-len", "256",
                     "--extractor-seed", "6",
                     "--certificate", str(run_dir / "certificate.json"),
                     "--out", str(tmp_path / "hashed")])
        assert code == EXIT_OK
        assert len((tmp_path / "hashed.txt").read_text().strip()) == 256

    @pytest.mark.parametrize("play", [
        ["--rounds", "1", "--shots", "12", "--seed", "2"],
        ["--rounds", "1", "--shots", "1", "--seed", "2", "--efficiency", "0.01"],
    ], ids=["not-violated", "insufficient-data"])
    def test_uncertified_certificate_exits_65(self, tmp_path, capsys, play):
        run_dir = tmp_path / "run"
        assert main(["play", *play, "--out-dir", str(run_dir)]) == EXIT_NOT_VIOLATED
        cert_path = run_dir / "certificate.json"
        verdict = json.loads(cert_path.read_text())["verdict"]
        assert verdict != "CERTIFIED"
        path = self._bits_file(tmp_path, "10" * 1000)
        code = main(["extract", "--in", str(path), "--method", "toeplitz",
                     "--out-len", "1900", "--extractor-seed", "6",
                     "--certificate", str(cert_path), "--out", str(tmp_path / "hashed")])
        assert code == EXIT_DATA
        assert verdict in capsys.readouterr().err
        assert not (tmp_path / "hashed.txt").exists()
        assert not (tmp_path / "hashed.bin").exists()

    def test_not_violated_certificate_states_rate_zero(self, tmp_path, capsys):
        # 11 of 12 shots won: s = 3.33 puts the clipped rate at 1.0, z = 2.09 certifies nothing
        run_dir = tmp_path / "run"
        assert main(["play", "--rounds", "1", "--shots", "12", "--seed", "2",
                     "--out-dir", str(run_dir)]) == EXIT_NOT_VIOLATED
        cert = json.loads((run_dir / "certificate.json").read_text())
        assert cert["verdict"] == "NOT_VIOLATED" and cert["s"] > 2
        assert cert["min_entropy_rate"] == 0.0

    def test_not_violated_certificate_with_a_rate_exits_65(self, tmp_path, capsys):
        # the form such a certificate took before only CERTIFIED carried a rate
        run_dir = tmp_path / "run"
        assert main(["play", "--rounds", "1", "--shots", "12", "--seed", "2",
                     "--out-dir", str(run_dir)]) == EXIT_NOT_VIOLATED
        cert = json.loads((run_dir / "certificate.json").read_text())
        cert["min_entropy_rate"] = 1.0
        stored = tmp_path / "stored.json"
        stored.write_text(canonical_json(cert, precise=True) + "\n")
        path = self._bits_file(tmp_path, "10" * 100)
        code = main(["extract", "--in", str(path), "--method", "toeplitz",
                     "--out-len", "10", "--extractor-seed", "6",
                     "--certificate", str(stored), "--out", str(tmp_path / "hashed")])
        assert code == EXIT_DATA
        assert "bad certificate" in capsys.readouterr().err
        assert not (tmp_path / "hashed.txt").exists()

    @pytest.mark.parametrize("field", [
        {"verdict": "BOGUS"},
        {"n": "abc"},
        {"s": 0.5},  # inconsistent with p_win
        {"n": float("inf")},
    ], ids=["bad-verdict", "n-not-a-number", "s-inconsistent", "n-infinite"])
    def test_malformed_certificate_fields_exit_65(self, tmp_path, capsys, field):
        run_dir = tmp_path / "run"
        assert main(["play", "--rounds", "5", "--shots", "200", "--seed", "3",
                     "--out-dir", str(run_dir)]) == EXIT_OK
        cert_path = run_dir / "certificate.json"
        cert = json.loads(cert_path.read_text())
        cert.update(field)
        cert_path.write_text(json.dumps(cert))
        code = main(["extract", "--in", str(run_dir / "alice_bits.txt"),
                     "--method", "toeplitz", "--out-len", "256",
                     "--extractor-seed", "6", "--certificate", str(cert_path),
                     "--out", str(tmp_path / "hashed")])
        assert code == EXIT_DATA
        assert "bad certificate" in capsys.readouterr().err
        assert not (tmp_path / "hashed.txt").exists()

    def test_forged_certificate_exits_65(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["play", "--rounds", "20", "--shots", "200", "--lambda", "0.6",
                     "--seed", "3", "--out-dir", str(run_dir)]) == EXIT_NOT_VIOLATED
        cert = json.loads((run_dir / "certificate.json").read_text())
        assert cert["verdict"] == "NOT_VIOLATED" and cert["s"] < 2
        cert.update({"verdict": "CERTIFIED", "min_entropy_rate": 1.0})
        forged = tmp_path / "forged.json"
        forged.write_text(json.dumps(cert))
        code = main(["extract", "--in", str(run_dir / "alice_bits.txt"),
                     "--method", "toeplitz", "--out-len", "3000", "--extractor-seed", "6",
                     "--certificate", str(forged), "--out", str(tmp_path / "hashed")])
        assert code == EXIT_DATA
        assert "bad certificate" in capsys.readouterr().err
        assert not (tmp_path / "hashed.txt").exists()
        assert not (tmp_path / "hashed.bin").exists()

    def test_certificate_issued_at_another_threshold_exits_65(self, tmp_path, capsys):
        # one shot at p_win 0.85 (z = 0.28) certifies at rate 0.737 under threshold 0
        stored = tmp_path / "threshold-0.json"
        stored.write_text(json.dumps({
            "min_entropy_rate": 0.7369655941662054, "n": 1, "p_win": 0.85, "s": 2.8,
            "threshold_z": 0.0, "verdict": "CERTIFIED", "z": 0.2800560168056019}))
        path = self._bits_file(tmp_path, "10110010" * 250)  # 2000 bits
        code = main(["extract", "--in", str(path), "--method", "toeplitz",
                     "--out-len", "1409", "--extractor-seed", "1",
                     "--certificate", str(stored), "--out", str(tmp_path / "hashed")])
        assert code == EXIT_DATA
        assert "bad certificate" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["in.txt", "threshold-0.json"]

    def test_undecodable_certificate_is_named(self, tmp_path, capsys):
        path = self._bits_file(tmp_path, "10" * 100)
        cert_path = tmp_path / "certificate.json"
        cert_path.write_bytes(b'{"verdict": "CERTIFIED\xff"}')
        code = main(["extract", "--in", str(path), "--method", "toeplitz",
                     "--out-len", "10", "--extractor-seed", "6",
                     "--certificate", str(cert_path), "--out", str(tmp_path / "hashed")])
        assert code == EXIT_DATA
        assert f"data error: {cert_path}: 'utf-8' codec" in capsys.readouterr().err

    def test_rate_and_certificate_conflict(self, tmp_path, capsys):
        # the rate comes only from --certificate: --rate beside it is an unknown flag
        path = self._bits_file(tmp_path, "10" * 100)
        code = main(["extract", "--in", str(path), "--method", "toeplitz",
                     "--out-len", "8", "--extractor-seed", "1", "--rate", "0.5",
                     "--certificate", "whatever.json",
                     "--out", str(tmp_path / "tp")])
        assert code == EXIT_USAGE
        assert "unrecognized arguments: --rate" in capsys.readouterr().err

    def test_bits_flag_trims_packed_padding(self, tmp_path, capsys):
        base = tmp_path / "src"
        main(["qrng", "--mode", "hadamard", "--qubits", "1", "--shots", "300",
              "--seed", "4", "--out", str(base)])
        out_txt = tmp_path / "from-txt"
        out_bin = tmp_path / "from-bin"
        assert main(["extract", "--in", str(base) + ".txt", "--method", "von-neumann",
                     "--out", str(out_txt)]) == EXIT_OK
        assert main(["extract", "--in", str(base) + ".bin", "--bits", "300",
                     "--method", "von-neumann", "--out", str(out_bin)]) == EXIT_OK
        assert Path(str(out_txt) + ".txt").read_text() == Path(str(out_bin) + ".txt").read_text()

    def test_toeplitz_outputs_agree_across_stream_and_seed_forms(self, tmp_path, capsys,
                                                                  monkeypatch):
        from diqrng import _kernels
        from diqrng.randomness import load_bits_text, save_bits_text
        from diqrng.rng import uniform_bits
        from oracles import toeplitz_matrix

        monkeypatch.setattr(_kernels, "_MAX_BLOCK", 64)  # several blocks of each input
        run_dir = tmp_path / "run"
        assert main(["play", "--rounds", "6", "--shots", "200", "--seed", "3",
                     "--out-dir", str(run_dir)]) == EXIT_OK
        n_bits, out_len, seed = 1003, 300, 6  # 1003 is no multiple of 8 or of the block
        seed_file = tmp_path / "seed.txt"
        save_bits_text(seed_file, uniform_bits(seed, n_bits + out_len - 1))
        bin_in, txt_in = str(run_dir / "alice_bits.bin"), str(run_dir / "alice_bits.txt")
        certificate = ["--certificate", str(run_dir / "certificate.json")]
        outputs = []
        for name, source in (("bin", [bin_in, "--extractor-seed", str(seed)]),
                             ("txt", [txt_in, "--extractor-seed", str(seed)]),
                             ("seed-file", [bin_in, "--seed-file", str(seed_file)])):
            out = tmp_path / name
            assert main(["extract", "--in", *source, "--bits", str(n_bits),
                         "--method", "toeplitz", "--out-len", str(out_len), *certificate,
                         "--out", str(out)]) == EXIT_OK
            outputs.append((Path(f"{out}.txt").read_bytes(), Path(f"{out}.bin").read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]
        dense = toeplitz_matrix(uniform_bits(seed, n_bits + out_len - 1), n_bits, out_len)
        want = dense.astype(np.int64) @ load_bits_text(txt_in, n_bits) % 2
        np.testing.assert_array_equal(load_bits_text(tmp_path / "bin.txt"), want)

        past_end = str(8 * (run_dir / "alice_bits.bin").stat().st_size + 1)
        capsys.readouterr()
        assert main(["extract", "--in", bin_in, "--bits", past_end, "--method", "toeplitz",
                     "--out-len", "8", "--extractor-seed", str(seed), *certificate,
                     "--out", str(tmp_path / "past")]) == EXIT_DATA
        assert f"requested {past_end} bits" in capsys.readouterr().err
        assert not (tmp_path / "past.txt").exists()

    def test_toeplitz_text_stream_is_kept_packed(self, tmp_path):
        from diqrng import cli
        from diqrng.randomness import PackedBits, save_bits_text

        bits = (np.random.default_rng(17).random(1003) < 0.5).astype(np.uint8)
        path = tmp_path / "in.txt"
        save_bits_text(path, bits, line_width=10)
        stream = cli._load_packed(str(path), 1001)
        assert isinstance(stream, PackedBits) and stream.data.size == 126
        np.testing.assert_array_equal(stream[:], bits[:1001])

    def test_unrecognized_extension(self, tmp_path, capsys):
        path = tmp_path / "bits.csv"
        path.write_text("0101")
        code = main(["extract", "--in", str(path), "--method", "von-neumann",
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_DATA


class TestBatteryCommand:
    def test_passing_stream(self, tmp_path, capsys):
        base = tmp_path / "bits"
        main(["qrng", "--mode", "hadamard", "--qubits", "1", "--shots", "5000",
              "--seed", "1", "--out", str(base)])
        report = tmp_path / "report.json"
        code = main(["test", "--in", str(base) + ".txt", "--report", str(report)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") == 3 and "FAIL" not in out
        reports = json.loads(report.read_text())
        assert [r["test_name"] for r in reports] == ["monobit", "block_frequency", "runs"]

    def test_failing_stream_exits_1(self, tmp_path, capsys):
        path = tmp_path / "ones.txt"
        path.write_text("1" * 512 + "\n")
        code = main(["test", "--in", str(path)])
        assert code == EXIT_TEST_FAIL
        assert "FAIL" in capsys.readouterr().out

    def test_subset_and_block_len(self, tmp_path, capsys):
        path = tmp_path / "bits.txt"
        path.write_text("10" * 128 + "\n")
        code = main(["test", "--in", str(path), "--tests", "monobit,block_frequency",
                     "--block-len", "16"])
        out = capsys.readouterr().out
        assert "monobit" in out and "block_frequency" in out and "runs" not in out
        assert code in (EXIT_OK, EXIT_TEST_FAIL)

    def test_unknown_test_name(self, tmp_path, capsys):
        path = tmp_path / "bits.txt"
        path.write_text("10" * 100 + "\n")
        assert main(["test", "--in", str(path), "--tests", "entropy"]) == EXIT_USAGE

    @pytest.mark.parametrize("command", ["test", "extract"])
    def test_undecodable_text_input_exits_65(self, tmp_path, capsys, command):
        path = tmp_path / "bits.txt"
        path.write_bytes(b"0101\xe9\n")
        extra = (["--method", "von-neumann", "--out", str(tmp_path / "x")]
                 if command == "extract" else [])
        assert main([command, "--in", str(path), *extra]) == EXIT_DATA
        assert f"data error: {path}: 'ascii' codec" in capsys.readouterr().err

    def test_non_bit_characters_are_listed(self, tmp_path, capsys):
        path = tmp_path / "bits.txt"
        path.write_bytes(b"01x1\r\n0 2\n")
        assert main(["test", "--in", str(path)]) == EXIT_DATA
        assert (f"data error: {path}: bit text contains non-bit characters [' ', '2', 'x']"
                in capsys.readouterr().err)

    def test_missing_input_file_exits_74(self, tmp_path, capsys):
        code = main(["test", "--in", str(tmp_path / "absent.txt")])
        assert code == EXIT_IO


class TestCertifyCommand:
    def test_recompute_from_csv(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["play", "--rounds", "5", "--shots", "200", "--seed", "3",
                     "--out-dir", str(run_dir)]) == EXIT_OK
        cert_path = tmp_path / "recert.json"
        code = main(["certify", "--rounds-csv", str(run_dir / "rounds.csv"),
                     "--out", str(cert_path)])
        assert code == EXIT_OK
        original = json.loads((run_dir / "certificate.json").read_text())
        recomputed = json.loads(cert_path.read_text())
        assert recomputed == original

    def test_not_violated_exits_2(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        main(["play", "--rounds", "4", "--shots", "100", "--lambda", "0.9",
              "--out-dir", str(run_dir)])
        code = main(["certify", "--rounds-csv", str(run_dir / "rounds.csv")])
        assert code == EXIT_NOT_VIOLATED

    def test_tampered_csv_exits_65(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        main(["play", "--rounds", "3", "--shots", "64", "--out-dir", str(run_dir)])
        csv_path = run_dir / "rounds.csv"
        lines = csv_path.read_text().splitlines()
        head, _ = lines[2].rsplit(",", 1)
        lines[2] = head + ",0.999999"
        csv_path.write_text("\n".join(lines) + "\n")
        assert main(["certify", "--rounds-csv", str(csv_path)]) == EXIT_DATA

    @pytest.mark.parametrize("command", ["certify", "report"])
    @pytest.mark.parametrize("tamper", ["reversed", "unnumbered"])
    def test_round_index_out_of_place_exits_65(self, tmp_path, capsys, command, tamper):
        run_dir = tmp_path / "run"
        main(["play", "--rounds", "4", "--shots", "64", "--out-dir", str(run_dir)])
        csv_path = run_dir / "rounds.csv"
        lines = csv_path.read_text().splitlines()
        rows = lines[2:][::-1]
        if tamper == "unnumbered":
            rows = ["zz," + row.split(",", 1)[1] for row in rows]
        csv_path.write_text("\n".join(lines[:2] + rows) + "\n")
        args = [command, "--rounds-csv", str(csv_path)]
        if command == "report":
            args += ["--out-dir", str(tmp_path / "reports")]
        assert main(args) == EXIT_DATA
        # after the path, which holds this test's name and so the word itself
        assert "round_index" in capsys.readouterr().err.split(f"{csv_path}: ", 1)[1]
        assert not (tmp_path / "reports").exists()

    # int() reads "1_0" as 10, and numpy 1.x's loadtxt reads 10.7 or 1e1 as 10 with no
    # more than a DeprecationWarning, which is ignored outside the test suite; the
    # stored fraction 10/15 agrees with each such reading
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    @pytest.mark.parametrize("row", ["0,0,0,1_0,5", "0,0,0,10.0,5", "0,0,0,10.7,5",
                                     "0,0,0,1e1,5", "0,0.9,0,10,5"])
    @pytest.mark.parametrize("command", ["certify", "report"])
    def test_tally_not_plain_decimal_exits_65(self, tmp_path, capsys, command, row):
        csv_path = tmp_path / "rounds.csv"
        csv_path.write_text("# format_version=1\n"
                            "round_index,x,y,same_count,diff_count,win_fraction\n"
                            f"{row},0.6666666666666666\n")
        args = [command, "--rounds-csv", str(csv_path)]
        if command == "report":
            args += ["--out-dir", str(tmp_path / "reports")]
        assert main(args) == EXIT_DATA
        assert "malformed row" in capsys.readouterr().err.split(f"{csv_path}: ", 1)[1]
        assert not (tmp_path / "reports").exists()

    def test_undecodable_table_exits_65(self, tmp_path, capsys):
        csv_path = tmp_path / "rounds.csv"
        csv_path.write_bytes(b"# format_version=1\n"
                             b"round_index,x,y,same_count,diff_count,win_fraction\n"
                             b"0,0,0,90,10,0.9\xff\n")
        assert main(["certify", "--rounds-csv", str(csv_path)]) == EXIT_DATA
        assert f"data error: {csv_path}: 'utf-8' codec" in capsys.readouterr().err

    def test_negative_tally_exits_65(self, tmp_path, capsys):
        csv_path = tmp_path / "rounds.csv"
        csv_path.write_text("# format_version=1\n"
                            "round_index,x,y,same_count,diff_count,win_fraction\n"
                            "0,0,0,-10,20,-1.0\n")
        assert main(["certify", "--rounds-csv", str(csv_path)]) == EXIT_DATA
        assert "malformed row" in capsys.readouterr().err

    def test_nan_win_fraction_exits_65(self, tmp_path, capsys):
        csv_path = tmp_path / "rounds.csv"
        csv_path.write_text("# format_version=1\n"
                            "round_index,x,y,same_count,diff_count,win_fraction\n"
                            "0,0,0,90,10,nan\n")
        assert main(["certify", "--rounds-csv", str(csv_path)]) == EXIT_DATA
        assert "win_fraction" in capsys.readouterr().err


class TestRefusedInputIsNamed:
    """A refused input file exits 65, is named in the message, and nothing is written."""

    def _argv(self, tmp_path, reader, bad):
        out = str(tmp_path / "out")
        bits = tmp_path / "in.txt"
        bits.write_text("10" * 100 + "\n")
        for side in "xy":
            assert main(["qrng", "--mode", "hadamard", "--qubits", "1", "--shots", "20",
                         "--seed", str(ord(side)), "--out", str(tmp_path / side),
                         "--counts-out", str(tmp_path / f"{side}.json")]) == EXIT_OK
        toeplitz = ["extract", "--in", str(bits), "--method", "toeplitz", "--out-len", "10",
                    "--out", out]
        return {
            "play-config": ["play", "--config", str(bad), "--out-dir", out],
            # the bad record second, after a good one
            "play-replay-x": ["play", "--rounds", "5", "--shots", "5",
                              "--replay-x", str(tmp_path / "x.json"), str(bad),
                              "--replay-y", str(tmp_path / "y.json"), "--out-dir", out],
            "extract-certificate": [*toeplitz, "--extractor-seed", "6", "--certificate", str(bad)],
            "extract-seed-file": [*toeplitz, "--seed-file", str(bad),
                                  "--certificate", _certified(tmp_path)],
            "test": ["test", "--in", str(bad)],
            "test-9-bits": ["test", "--in", str(bad), "--bits", "9"],
        }[reader]

    def _refused(self, tmp_path, capsys, reader, bad) -> str:
        argv = self._argv(tmp_path, reader, bad)
        before = sorted(os.listdir(tmp_path))
        capsys.readouterr()
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"data error: {bad}: " in err
        assert sorted(os.listdir(tmp_path)) == before
        return err

    @pytest.mark.parametrize("text", ["[" * 10 ** 5, "[" + "1" * 5000 + "]"],
                             ids=["nested-1e5-deep", "int-of-5000-digits"])
    @pytest.mark.parametrize("reader", ["play-config", "play-replay-x", "extract-certificate"])
    def test_json_that_does_not_parse(self, tmp_path, capsys, reader, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert "not valid JSON" in self._refused(tmp_path, capsys, reader, bad)

    @pytest.mark.parametrize("reader, name, content", [
        ("extract-seed-file", "seed.txt", b"\x00"),
        ("test-9-bits", "one.bin", b"a"),
        ("test", "empty.txt", b""),
        ("test", "empty.bin", b""),
        ("play-replay-x", "bad.json",
         b'{"shots": 2, "counts": {"0": 1, "1": 1}, "memory": ["0", "x"], "metadata": {}}'),
        ("play-config", "bad.json", b'{"format_version": 1, "rounds": 2, "shots": "10"}'),
    ], ids=["seed-file-nul", "bits-past-a-bin", "empty-txt", "empty-bin",
            "record-memory-entry", "config-field"])
    def test_refusal_names_the_file(self, tmp_path, capsys, reader, name, content):
        bad = tmp_path / name
        bad.write_bytes(content)
        self._refused(tmp_path, capsys, reader, bad)


class TestMiscCommands:
    @pytest.mark.parametrize("argv", [
        ["play", "--threshold-z", "0"],
        ["certify", "--rounds-csv", "rounds.csv", "--threshold-z", "0"],
        ["extract", "--in", "in.txt", "--method", "toeplitz", "--out", "tp", "--out-len", "8",
         "--extractor-seed", "1", "--rate", "0.5"],
        ["extract", "--in", "in.txt", "--method", "toeplitz", "--out", "tp", "--out-len", "8",
         "--extractor-seed", "1", "--certificate", "c.json", "--security-margin", "0"],
    ], ids=["play-threshold-z", "certify-threshold-z", "extract-rate", "extract-margin"])
    def test_security_settings_are_not_flags(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == EXIT_USAGE
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_fit_noise_prints_lambda(self, capsys):
        assert main(["fit-noise", "--target", "0.79622"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "0.162163"

    def test_fit_noise_domain_error(self, capsys):
        assert main(["fit-noise", "--target", "0.99"]) == EXIT_USAGE

    def test_report_command(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        main(["play", "--rounds", "6", "--shots", "100", "--out-dir", str(run_dir)])
        out_dir = tmp_path / "reports"
        code = main(["report", "--rounds-csv", str(run_dir / "rounds.csv"),
                     "--label", "demo", "--out-dir", str(out_dir)])
        assert code == EXIT_OK
        for name in ("running_avg.csv", "hist.csv", "density.csv", "summary.json"):
            assert (out_dir / name).exists()
        assert json.loads((out_dir / "summary.json").read_text())["label"] == "demo"

    def test_cli_import_loads_no_scipy(self):
        code = ("import sys, diqrng, diqrng.cli\n"
                "print(diqrng.__file__)\n"
                "print([m for m in sys.modules if m.partition('.')[0] == 'scipy'])\n")
        loaded_from, scipy_modules = _fresh_python(code).splitlines()
        assert loaded_from.startswith(SRC)
        assert scipy_modules == "[]"

    def test_play_loads_no_numpy_ma(self, tmp_path):
        # numpy.ma costs about 8 ms to import; np.unique would load it
        code = ("import sys\n"
                "from diqrng.cli import main\n"
                f"main(['play', '--rounds', '4', '--shots', '10', '--out-dir', {str(tmp_path)!r}])\n"
                "print('numpy.ma' in sys.modules)\n")
        assert _fresh_python(code).splitlines()[-1] == "False"

    def test_startup_loads_no_unused_stdlib(self):
        # fractions (which loads decimal) served only the classical strategy
        # table; the Toeplitz kernel imports its thread pool when it runs
        code = ("import sys, diqrng.cli\n"
                "diqrng.cli.build_parser()\n"
                "print([m for m in ('fractions', 'decimal', 'concurrent.futures')\n"
                "       if m in sys.modules])\n")
        assert _fresh_python(code).strip() == "[]"

    def test_version_and_usage(self, capsys):
        assert main(["--version"]) == EXIT_OK
        assert "diqrng" in capsys.readouterr().out
        assert main([]) == EXIT_USAGE
        assert main(["bogus"]) == EXIT_USAGE

"""The three benchmark workloads: CLI argument lists and output checks.

Every workload is a fixed chain of ``diqrng`` commands whose arguments
are generated from the benchmark seed; the program sees nothing else.
Each check re-derives a property of the outputs without calling diqrng,
so a wrong answer that keeps its digest stable across runs still fails.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

# exit codes the CLI documents as outcomes rather than failures:
# 1 = test battery failed, 2 = certification not violated
SUCCESS_CODES = {
    "play": {0, 2},
    "certify": {0, 2},
    "test": {0, 1},
    "qrng": {0},
    "extract": {0},
    "report": {0},
}

SECURITY_MARGIN = 64  # diqrng's default --security-margin
TOEPLITZ_IN_BITS = 10_000_000
TOEPLITZ_SPOT_CHECKS = 4


def command_failed(command: str, exit_code: int | None, raised: bool) -> bool:
    """A command fails on a traceback or an exit code outside its success set."""
    return raised or exit_code not in SUCCESS_CODES.get(command, {0})


def derived_seed(seed: int, label: str) -> int:
    """A 63-bit seed for one CLI argument, so no two arguments share a stream."""
    digest = hashlib.sha256(f"perfbench:{seed}:{label}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


@dataclass(frozen=True)
class Step:
    command: str
    argv: Callable[[], list[str]]  # built when the step runs, after earlier steps


class CheckFailed(Exception):
    """The outputs of a workload are wrong."""


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _text_bits(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read().replace(b"\n", b"")
    return np.frombuffer(raw, dtype=np.uint8) - ord("0")


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _check_certified(path: str) -> None:
    verdict = _read_json(path)["verdict"]
    _expect(verdict == "CERTIFIED", f"{path}: verdict {verdict!r}, expected CERTIFIED")


def _check_battery(path: str) -> None:
    names = [r["test_name"] for r in _read_json(path)]
    _expect(names == ["monobit", "block_frequency", "runs"], f"{path}: battery ran {names}")


def _check_von_neumann(raw: np.ndarray, out_path: str) -> None:
    pairs = raw[: raw.size // 2 * 2].reshape(-1, 2)
    expected = pairs[pairs[:, 0] != pairs[:, 1], 0]
    _expect(np.array_equal(_text_bits(out_path), expected),
            f"{out_path}: von Neumann output disagrees with the pair rule")


def _rounds_csv_shots(path: str) -> int:
    """Sum of same_count + diff_count over the rows of a rounds table."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [ln for ln in fh.read().splitlines() if ln.strip() and not ln.startswith("#")]
    reader = csv.DictReader(rows)
    return sum(int(r["same_count"]) + int(r["diff_count"]) for r in reader)


def _toeplitz_out_len(cert_path: str) -> int:
    rate = float(_read_json(cert_path)["min_entropy_rate"])
    return math.floor(TOEPLITZ_IN_BITS * rate - SECURITY_MARGIN)


def _check_toeplitz(in_path: str, out_path: str, extractor_seed: int, out_len: int) -> None:
    with open(in_path, "rb") as fh:
        x = np.unpackbits(np.frombuffer(fh.read(), dtype=np.uint8))[:TOEPLITZ_IN_BITS]
    out = _text_bits(out_path)
    _expect(out.size == out_len, f"{out_path}: {out.size} bits, expected {out_len}")
    # seed bits under the documented scheme: one Philox stream keyed by the
    # extractor seed, bit = uniform < 1/2; row i of T @ x is the parity of
    # seed[i : i + n] reversed against x
    n = x.size
    seed = (np.random.Generator(np.random.Philox(key=np.uint64(extractor_seed)))
            .random(n + out_len - 1) < 0.5).astype(np.uint8)
    rows = np.linspace(0, out_len - 1, TOEPLITZ_SPOT_CHECKS).astype(np.int64)
    for i in rows:
        bit = int(np.count_nonzero(seed[i:i + n][::-1] & x)) & 1
        _expect(bit == out[i], f"{out_path}: bit {i} is {out[i]}, direct product gives {bit}")


class Workload:
    """A named chain of commands plus the checks on what they wrote."""

    name = ""

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def steps(self) -> list[Step]:
        raise NotImplementedError

    def final_stream(self) -> str:
        """The bit file the battery tested."""
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError


class ManyRounds(Workload):
    name = "many_rounds"
    rounds, shots = 10_000, 100

    def steps(self) -> list[Step]:
        p = self.path
        return [
            Step("play", lambda: ["play", "--profile", "ibmq_belem", "--rounds", str(self.rounds),
                                  "--shots", str(self.shots),
                                  "--seed", str(derived_seed(self.seed, "play")),
                                  "--out-dir", p("play")]),
            Step("extract", lambda: ["extract", "--in", p("play", "alice_bits.bin"),
                                     "--bits", str(self.rounds * self.shots),
                                     "--method", "von-neumann", "--out", p("vn")]),
            Step("test", lambda: ["test", "--in", p("vn.txt"), "--report", p("battery.json")]),
        ]

    def final_stream(self) -> str:
        return self.path("vn.txt")

    def check(self) -> None:
        _check_certified(self.path("play", "certificate.json"))
        _check_von_neumann(_text_bits(self.path("play", "alice_bits.txt")), self.path("vn.txt"))
        _check_battery(self.path("battery.json"))


class ManyShots(Workload):
    name = "many_shots"
    rounds, shots = 1_000, 10_000

    def steps(self) -> list[Step]:
        p = self.path
        return [
            Step("play", lambda: ["play", "--profile", "ibmq_belem", "--rounds", str(self.rounds),
                                  "--shots", str(self.shots),
                                  "--seed", str(derived_seed(self.seed, "play")),
                                  "--out-dir", p("play")]),
            Step("extract", lambda: ["extract", "--in", p("play", "alice_bits.bin"),
                                     "--bits", str(TOEPLITZ_IN_BITS), "--method", "toeplitz",
                                     "--extractor-seed", str(derived_seed(self.seed, "extractor")),
                                     "--certificate", p("play", "certificate.json"),
                                     "--out-len", str(_toeplitz_out_len(p("play", "certificate.json"))),
                                     "--out", p("toeplitz")]),
            Step("test", lambda: ["test", "--in", p("toeplitz.txt"), "--report", p("battery.json")]),
        ]

    def final_stream(self) -> str:
        return self.path("toeplitz.txt")

    def check(self) -> None:
        cert = self.path("play", "certificate.json")
        _check_certified(cert)
        _check_toeplitz(self.path("play", "alice_bits.bin"), self.path("toeplitz.txt"),
                        derived_seed(self.seed, "extractor"), _toeplitz_out_len(cert))
        _check_battery(self.path("battery.json"))


class ReplayLossy(Workload):
    name = "replay_lossy"
    rounds, shots, efficiency = 2_000, 2_000, 0.8

    def steps(self) -> list[Step]:
        p = self.path

        def qrng(side: str) -> Step:
            return Step("qrng", lambda: ["qrng", "--mode", "hadamard", "--qubits", "4",
                                         "--shots", "100000",
                                         "--seed", str(derived_seed(self.seed, f"qrng-{side}")),
                                         "--out", p(f"q{side}"), "--counts-out", p(f"q{side}.json")])

        return [
            qrng("x"),
            qrng("y"),
            Step("play", lambda: ["play", "--profile", "ibmq_lima", "--rounds", str(self.rounds),
                                  "--shots", str(self.shots),
                                  "--seed", str(derived_seed(self.seed, "play")),
                                  "--replay-x", p("qx.json"), "--replay-y", p("qy.json"),
                                  "--efficiency", str(self.efficiency), "--report-all-events",
                                  "--out-dir", p("play")]),
            Step("certify", lambda: ["certify", "--rounds-csv", p("play", "rounds.csv"),
                                     "--out", p("recertified.json")]),
            Step("report", lambda: ["report", "--rounds-csv", p("play", "rounds.csv"),
                                    "--label", self.name, "--out-dir", p("report")]),
            Step("extract", lambda: ["extract", "--in", p("play", "alice_bits.txt"),
                                     "--method", "von-neumann", "--out", p("vn")]),
            Step("test", lambda: ["test", "--in", p("vn.txt"), "--report", p("battery.json")]),
        ]

    def final_stream(self) -> str:
        return self.path("vn.txt")

    def check(self) -> None:
        cert = self.path("play", "certificate.json")
        _check_certified(cert)
        with open(cert, "rb") as a, open(self.path("recertified.json"), "rb") as b:
            _expect(a.read() == b.read(), "certify on rounds.csv disagrees with play's certificate")
        # the kept shots, counted twice from the outputs: one Alice bit per
        # kept shot, and same + diff tallies per round in rounds.csv
        alice = _text_bits(self.path("play", "alice_bits.txt"))
        tallied = _rounds_csv_shots(self.path("play", "rounds.csv"))
        _expect(alice.size == tallied,
                f"alice_bits.txt holds {alice.size} bits, rounds.csv tallies {tallied} shots")
        kept = alice.size / (self.rounds * self.shots)
        # coincident detection keeps eta**2 of the shots; 4e6 shots put the
        # standard error near 2.4e-4
        _expect(abs(kept - self.efficiency ** 2) < 0.005,
                f"kept fraction {kept}, expected about {self.efficiency ** 2}")
        # summary.json stores floats at 6 significant digits
        reported = _read_json(self.path("play", "summary.json"))["detected_fraction"]
        _expect(abs(reported - kept) <= 5e-6 * kept,
                f"summary.json reports detected_fraction {reported}, the outputs give {kept}")
        _check_von_neumann(alice, self.path("vn.txt"))
        _check_battery(self.path("battery.json"))


WORKLOADS = {w.name: w for w in (ManyRounds, ManyShots, ReplayLossy)}

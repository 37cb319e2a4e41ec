"""The certificate and extraction defects that ROADMAP.md lists, as tests.

Each test asserts what a sound pipeline does and is marked strict xfail
with the ROADMAP item that fixes it: it fails today, and the suite fails
the moment a change fixes the defect without removing the marker, so
that change flips the test and says so.  `pytest -rx` lists the open ones.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from diqrng.certify import TSIRELSON_S, Verdict, certify
from diqrng.cli import main
from diqrng.game import ExperimentResult
from diqrng.harness import ExperimentConfig, _referee_columns, run_certified_experiment
from diqrng.randomness import DEFAULT_SECURITY_MARGIN, load_bits_text


def _open(item: int):
    # only a failed assertion counts as the open defect; any other error fails
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"ROADMAP item {item}")


@_open(1)
def test_no_certified_rate_rests_on_s_past_the_quantum_bound():
    # ideal devices (lambda = 0) at the default 100 x 1000: sampling noise
    # lifts s past 2*sqrt(2) in 17 of these 40 runs, and each certifies at rate 1
    past = []
    for seed in range(40):
        cert = run_certified_experiment(ExperimentConfig(master_seed=seed)).certificate
        if cert.verdict is Verdict.CERTIFIED and cert.s > TSIRELSON_S:
            past.append((seed, cert.s))
    assert past == []


@_open(1)
def test_an_unbalanced_input_mix_is_not_certified():
    # 30 rounds that cycle over (0,0), (0,1) and (1,0), every shot a matching
    # pair, then one (1,1) round of matching pairs: each setting alone is
    # classical, but pooled the run reads s = 3.742
    settings = [(0, 0), (0, 1), (1, 0)] * 10 + [(1, 1)]
    x, y = zip(*settings)
    experiment = ExperimentResult.from_rounds(x, y, [1000] * 31, [0] * 31)
    assert certify(experiment).verdict is not Verdict.CERTIFIED


@_open(3)
def test_a_device_that_always_outputs_0_is_never_certified():
    # both parties answer 0 on every shot: a local device that wins exactly
    # the rounds whose setting is not (1,1), on the engine's own referee draws
    certified = []
    for seed in range(200):
        x, y = _referee_columns(ExperimentConfig(rounds=100, shots=1000, master_seed=seed))
        experiment = ExperimentResult.from_rounds(x, y, [1000] * 100, [0] * 100)
        if certify(experiment).verdict is Verdict.CERTIFIED:
            certified.append(seed)
    assert certified == []


# A local device that abstains: five hidden states, equally likely, each a
# pair of deterministic answer tables, -1 meaning no click.  In the first
# four, one party skips one input and every coincidence wins; the fifth
# answers 0 everywhere and loses only at (1,1).  Each party clicks in four
# of the five states for either input, the detection efficiency 0.8 of an
# honest lossy run, while coincidences read s = 2/(2*0.8 - 1) = 3.33.
_ALICE = np.array([[0, -1], [-1, 0], [0, 0], [0, 1], [0, 0]])
_BOB = np.array([[0, 0], [0, 1], [0, -1], [-1, 0], [0, 0]])


def test_the_abstaining_device_clicks_at_efficiency_0_8():
    for table in (_ALICE, _BOB):
        np.testing.assert_array_equal((table >= 0).mean(axis=0), [0.8, 0.8])


@_open(2)
def test_an_abstaining_local_device_is_not_certified():
    x, y = _referee_columns(ExperimentConfig(rounds=100, shots=1000, master_seed=0))
    state = np.random.default_rng(0).integers(0, 5, (100, 1000))
    a, b = _ALICE[state, x[:, None]], _BOB[state, y[:, None]]
    kept = (a >= 0) & (b >= 0)
    same = np.count_nonzero(kept & (a == b), axis=1)
    experiment = ExperimentResult.from_rounds(x, y, same, np.count_nonzero(kept, axis=1) - same)
    assert certify(experiment).verdict is not Verdict.CERTIFIED


@_open(11)
def test_von_neumann_stays_within_the_certified_budget(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["play", "--profile", "ibmq_belem", "--seed", "7",
                 "--out-dir", str(run_dir)]) == 0
    stream = run_dir / "alice_bits.txt"
    rate = json.loads((run_dir / "certificate.json").read_text())["min_entropy_rate"]
    budget = math.floor(load_bits_text(stream).size * rate - DEFAULT_SECURITY_MARGIN)
    out = tmp_path / "vn"
    code = main(["extract", "--in", str(stream), "--method", "von-neumann", "--out", str(out)])
    # 25 030 bits written today against a budget of 18 636
    assert code != 0 or load_bits_text(f"{out}.txt").size <= budget


@_open(20)
def test_a_toeplitz_output_states_its_seed_bits_and_source(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["play", "--rounds", "5", "--shots", "200", "--seed", "3",
                 "--out-dir", str(run_dir)]) == 0
    capsys.readouterr()
    assert main(["extract", "--in", str(run_dir / "alice_bits.txt"), "--method", "toeplitz",
                 "--out-len", "256", "--extractor-seed", "6",
                 "--certificate", str(run_dir / "certificate.json"),
                 "--out", str(tmp_path / "hashed")]) == 0
    stated = capsys.readouterr().out
    assert "seed_bits" in stated and "seed_source" in stated

"""Reference definitions the tests share and the pipeline never calls.

- The classical side of the game: the win condition and the 16
  deterministic strategies, valued in exact rationals.  Their maximum is
  the 3/4 ceiling that certification measures a violation against.
- The entangled strategy's win probability, read off
  `game.round_distribution`.
- The two qrng pipelines as (qubits, shots) bit matrices, built from the
  calls the `qrng` command makes.
- The dense Toeplitz matrix that the FFT kernel is checked against.
- A counts record sampled straight from a distribution.
- rounds.csv as first written, each row's win fraction by its own repr.
- An experiment config as the JSON object a config file holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Any

import numpy as np

from diqrng.game import ExperimentResult, GameSetting, round_distribution
from diqrng.harness import FORMAT_VERSION, LOOPHOLE_FIELDS, ExperimentConfig
from diqrng.randomness import qrng_distribution
from diqrng.simulator import (CountsRecord, OutcomeDistribution, indices_to_bits,
                              record_from_indices, sample_indices)

ALL_SETTINGS = tuple(GameSetting(x, y) for x, y in product((0, 1), repeat=2))


def win_condition(setting: GameSetting, a: int, b: int) -> bool:
    """a XOR b must equal x AND y."""
    if a not in (0, 1) or b not in (0, 1):
        raise ValueError(f"answers must be bits, got a={a!r} b={b!r}")
    return (a ^ b) == (setting.x & setting.y)


# ============================================================
# classical strategies
# ============================================================

@dataclass(frozen=True)
class ClassicalStrategy:
    """Deterministic answer tables: a_table[x] and b_table[y]."""

    a_table: tuple[int, int]
    b_table: tuple[int, int]

    def __post_init__(self):
        for v in (*self.a_table, *self.b_table):
            if v not in (0, 1):
                raise ValueError("answer tables must contain bits")


def all_classical_strategies() -> list[ClassicalStrategy]:
    """All 16 deterministic strategies."""
    bits = (0, 1)
    return [
        ClassicalStrategy((a0, a1), (b0, b1))
        for a0, a1, b0, b1 in product(bits, bits, bits, bits)
    ]


def play_classical_round(setting: GameSetting, strategy: ClassicalStrategy) -> bool:
    return win_condition(setting, strategy.a_table[setting.x], strategy.b_table[setting.y])


def classical_win_value(strategy: ClassicalStrategy) -> Fraction:
    """Win probability under uniform inputs, as an exact rational."""
    wins = sum(play_classical_round(s, strategy) for s in ALL_SETTINGS)
    return Fraction(wins, len(ALL_SETTINGS))


def best_classical_win_probability() -> Fraction:
    """Exact ceiling over all deterministic strategies: 3/4."""
    return max(classical_win_value(s) for s in all_classical_strategies())


# ============================================================
# the entangled strategy
# ============================================================

def win_probability_from_dist(setting: GameSetting, dist: OutcomeDistribution) -> float:
    """P(win) for a 2-qubit round distribution (outcomes 00,01,10,11)."""
    p = dist.probs
    same = float(p[0] + p[3])
    return 1.0 - same if setting.x & setting.y else same


def analytic_win_probability(setting: GameSetting, lam: float = 0.0) -> float:
    """Exact win probability of the entangled strategy at noise level lam."""
    return win_probability_from_dist(setting, round_distribution(setting, lam))


# ============================================================
# bit pipelines and records
# ============================================================

def _qrng(mode: str, n_qubits: int, shots: int, rng_seed: int) -> np.ndarray:
    idx = sample_indices(qrng_distribution(mode, n_qubits), shots, rng_seed)
    return indices_to_bits(idx, n_qubits).T


def hadamard_qrng(n_qubits: int, shots: int, rng_seed: int) -> np.ndarray:
    """(n_qubits, shots) array of independent unbiased bits, one row per qubit."""
    return _qrng("hadamard", n_qubits, shots, rng_seed)


def parity_qrng(n_qubits: int, shots: int, rng_seed: int) -> np.ndarray:
    """(n_qubits, shots) array, one row per qubit; each column XORs to zero."""
    return _qrng("parity", n_qubits, shots, rng_seed)


def toeplitz_matrix(seed_bits: np.ndarray, in_len: int, out_len: int) -> np.ndarray:
    """Dense T with T[i, j] = seed[(in_len - 1) + i - j].

    Row 0 is seed[0:in_len] reversed; column 0 is seed[in_len-1:].
    """
    seed_bits = np.asarray(seed_bits, dtype=np.uint8)
    i = np.arange(out_len)[:, None]
    j = np.arange(in_len)[None, :]
    return seed_bits[(in_len - 1) + i - j]


def sample(dist: OutcomeDistribution, shots: int, rng_seed: int, *,
           memory: bool = False, metadata: dict[str, Any] | None = None) -> CountsRecord:
    """Draw shots from dist; same (dist, shots, seed) gives an identical record."""
    return record_from_indices(sample_indices(dist, shots, rng_seed), dist.n_qubits,
                               memory=memory, metadata=metadata)


# ============================================================
# report files
# ============================================================

def rounds_csv_text_per_row(experiment: ExperimentResult) -> str:
    """rounds.csv with each row's win fraction spelled by its own repr."""
    e = experiment
    lines = ["# format_version=1", "round_index,x,y,same_count,diff_count,win_fraction"]
    rows = zip(range(e.x.size), e.x.tolist(), e.y.tolist(), e.same.tolist(), e.diff.tolist(),
               e.win_fractions.tolist())
    lines += [f"{i},{x},{y},{same},{diff},{f!r}" for i, x, y, same, diff, f in rows]
    return "\n".join(lines) + "\n"


# ============================================================
# config files
# ============================================================

def config_json_obj(config: ExperimentConfig) -> dict[str, Any]:
    """The config-file object that `ExperimentConfig.from_json_obj` reads back as config."""
    return {
        "format_version": FORMAT_VERSION,
        "rounds": config.rounds,
        "shots": config.shots,
        "lambda": config.lam,
        "master_seed": config.master_seed,
        "input_source": (
            {"mode": "replay", "x_files": list(config.replay_x),
             "y_files": list(config.replay_y)} if config.replay_x else
            {"mode": "seeded"}
        ),
        "loopholes": {name: getattr(config, name) for name in LOOPHOLE_FIELDS},
    }

"""The two-player binary nonlocal game and strategies for it.

Referee draws inputs x, y in {0,1}; players answer a, b; they win iff
a XOR b = x AND y.  Deterministic classical strategies are exhaustively
enumerable (16 of them) and top out at 3/4 exactly.  The entangled
strategy prepares (|00> + |11>)/sqrt(2) and rotates each side by twice
its planar measurement angle, which makes P(a = b) = cos^2(alpha - beta)
for effective angles alpha, beta.  With the standard angle table every
input pair wins with probability cos^2(pi/8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .rng import SourceDepleted
from .simulator import (
    Gate,
    OutcomeDistribution,
    StateVector,
    apply_circuit,
    depolarize,
    new_state,
    probabilities,
)

_ANGLE_TOL = 1e-12

# relative planar angles that define the optimal measurement layout
_REL_NEAR = math.pi / 8
_REL_FAR = 3 * math.pi / 8


class ConfigError(ValueError):
    """An experiment configuration violates a stated assumption."""


@dataclass(frozen=True)
class GameSetting:
    """One referee input pair."""

    x: int
    y: int

    def __post_init__(self):
        if self.x not in (0, 1) or self.y not in (0, 1):
            raise ValueError(f"inputs must be bits, got x={self.x!r} y={self.y!r}")


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

@dataclass(frozen=True)
class QuantumStrategy:
    """Planar measurement angles per input, plus a free global offset.

    The relative layout is fixed: the three winning-aligned pairs sit
    pi/8 apart and the (1,1) pair 3*pi/8 apart.  A global offset shifts
    every angle together and cancels in all win probabilities.
    """

    alice_angles: tuple[float, float] = (0.0, math.pi / 4)
    bob_angles: tuple[float, float] = (math.pi / 8, -math.pi / 8)
    global_offset: float = 0.0

    def __post_init__(self):
        a0, a1 = self.alice_angles
        b0, b1 = self.bob_angles
        if not math.isfinite(self.global_offset):
            raise ValueError(f"global offset must be finite, got {self.global_offset!r}")
        checks = (
            (abs(a0 - b0), _REL_NEAR),
            (abs(a1 - b0), _REL_NEAR),
            (abs(a0 - b1), _REL_NEAR),
            (abs(a1 - b1), _REL_FAR),
        )
        for got, want in checks:
            # written so that a NaN (or infinite) angle fails it
            if not abs(got - want) <= _ANGLE_TOL:
                raise ValueError(
                    f"angle layout broken: relative angle {got!r}, expected {want!r}")

    def angle_a(self, x: int) -> float:
        return self.alice_angles[x] + self.global_offset

    def angle_b(self, y: int) -> float:
        return self.bob_angles[y] + self.global_offset


def compile_round(setting: GameSetting, strategy: QuantumStrategy) -> list[Gate]:
    """Gate list for one round: Bell pair, then each side's basis rotation.

    Planar angles double on the sphere, so each side applies Ry(2*angle).
    Exact zero rotations are omitted.
    """
    gates = [Gate.h(0), Gate.cnot(0, 1)]
    theta_a = 2.0 * strategy.angle_a(setting.x)
    theta_b = 2.0 * strategy.angle_b(setting.y)
    if theta_a != 0.0:
        gates.append(Gate.ry(theta_a, 0))
    if theta_b != 0.0:
        gates.append(Gate.ry(theta_b, 1))
    return gates


def round_state(setting: GameSetting, strategy: QuantumStrategy) -> StateVector:
    return apply_circuit(new_state(2), compile_round(setting, strategy))


def round_distribution(setting: GameSetting, strategy: QuantumStrategy,
                       lam: float = 0.0) -> OutcomeDistribution:
    """Outcome distribution of one round, optionally depolarized."""
    dist = probabilities(round_state(setting, strategy))
    if lam != 0.0:
        dist = depolarize(dist, lam)
    return dist


def win_probability_from_dist(setting: GameSetting, dist: OutcomeDistribution) -> float:
    """P(win) for a 2-qubit round distribution (outcomes 00,01,10,11)."""
    p = dist.probs
    same = float(p[0] + p[3])
    return 1.0 - same if setting.x & setting.y else same


def analytic_win_probability(setting: GameSetting,
                             strategy: QuantumStrategy | None = None,
                             lam: float = 0.0) -> float:
    """Exact win probability of the entangled strategy at noise level lam."""
    strategy = strategy or QuantumStrategy()
    return win_probability_from_dist(setting, round_distribution(setting, strategy, lam))


# ============================================================
# rounds and experiments
# ============================================================

def result_from_indices(idx: np.ndarray, kept: np.ndarray | None = None) -> tuple:
    """Per-round (same-bit, different-bit) shot counts of a (rounds, shots) outcome block.

    `kept`, a boolean mask of idx's shape, limits the tally to the shots it marks.
    """
    is_same = (idx == 0) | (idx == 3)
    if kept is None:
        total = idx.shape[1]
    else:
        is_same &= kept
        total = np.count_nonzero(kept, axis=1)
    same = np.count_nonzero(is_same, axis=1)
    return same, total - same


def referee_inputs(rounds: int, bits_a: np.ndarray,
                   bits_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The referee's x and y columns: the first `rounds` bits of each stream.

    Raises SourceDepleted when a stream holds fewer than `rounds` bits.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    for side, bits in (("x", bits_a), ("y", bits_b)):
        if bits.size < rounds:
            raise SourceDepleted(
                f"{side} input stream exhausted: {bits.size} bits, {rounds} requested")
    return bits_a[:rounds], bits_b[:rounds]


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """Per-round columns: referee inputs x, y and the same/diff bit tallies.

    Everything else (shots, wins, win fractions and their statistics) is
    derived from these four equal-length int64 arrays.
    """

    x: np.ndarray
    y: np.ndarray
    same: np.ndarray
    diff: np.ndarray

    @classmethod
    def from_rounds(cls, x, y, same, diff) -> "ExperimentResult":
        cols = [np.asarray(c, dtype=np.int64) for c in (x, y, same, diff)]
        shape = cols[0].shape
        if len(shape) != 1 or shape == (0,) or any(c.shape != shape for c in cols):
            raise ValueError("x, y, same and diff must be equal-length, non-empty 1-d arrays")
        return cls(*cols)

    @property
    def shots(self) -> np.ndarray:
        return self.same + self.diff

    @property
    def wins(self) -> np.ndarray:
        """Winning shots: different bits at (1,1), matching bits otherwise."""
        return np.where(self.x & self.y, self.diff, self.same)

    @property
    def win_fractions(self) -> np.ndarray:
        """wins / shots per round; a round with no shots has fraction 0.0."""
        shots = self.shots
        return np.divide(self.wins, shots, out=np.zeros(shots.size), where=shots > 0)

    @property
    def p_min(self) -> float:
        return float(self.win_fractions.min())

    @property
    def p_avg(self) -> float:
        return float(self.win_fractions.mean())

    @property
    def p_max(self) -> float:
        return float(self.win_fractions.max())

    @property
    def sigma(self) -> float:
        return float(self.win_fractions.std(ddof=0))

    def total_shots(self) -> int:
        return int(self.shots.sum())

    def pooled_win_fraction(self) -> float:
        total = self.total_shots()
        return int(self.wins.sum()) / total if total else 0.0

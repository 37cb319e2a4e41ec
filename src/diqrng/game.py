"""The two-player binary nonlocal game and the entangled strategy for it.

Referee draws inputs x, y in {0,1}; players answer a, b; they win iff
a XOR b = x AND y.  No classical strategy wins more than 3/4 of the input
pairs (the tests enumerate all 16 deterministic ones).  The entangled
strategy prepares (|00> + |11>)/sqrt(2) and rotates each side by twice
its planar measurement angle, which makes P(a = b) = cos^2(alpha - beta)
for angles alpha, beta.  The angles are fixed at the optimal CHSH layout,
ALICE_ANGLES and BOB_ANGLES, where every input pair wins with probability
cos^2(pi/8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import SourceDepleted
from .simulator import OutcomeDistribution, depolarize

# planar measurement angles per input: the three winning-aligned pairs sit
# pi/8 apart and the (1,1) pair 3*pi/8 apart
ALICE_ANGLES = (0.0, math.pi / 4)
BOB_ANGLES = (math.pi / 8, -math.pi / 8)


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


def round_distribution(setting: GameSetting, lam: float = 0.0) -> OutcomeDistribution:
    """Outcome distribution of one round at the fixed layout, optionally depolarized.

    The round's circuit is H on qubit 0 and CNOT(0, 1), which prepare
    (|00> + |11>)/sqrt(2), then Ry(2*ALICE_ANGLES[x]) on qubit 0 and
    Ry(2*BOB_ANGLES[y]) on qubit 1: planar angles double on the sphere.
    Its Born probabilities, with d = ALICE_ANGLES[x] - BOB_ANGLES[y], are
    P(00) = P(11) = cos^2(d)/2 and P(01) = P(10) = sin^2(d)/2.
    """
    d = ALICE_ANGLES[setting.x] - BOB_ANGLES[setting.y]
    same, diff = math.cos(d) ** 2 / 2.0, math.sin(d) ** 2 / 2.0
    dist = OutcomeDistribution(2, np.array([same, diff, diff, same]))
    if lam != 0.0:
        dist = depolarize(dist, lam)
    return dist


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

"""Nonlocal-game layer tests.

The classical ceiling is re-derived here with a brute-force enumeration
written directly in the test (itertools + Fraction), independent of the
package's strategy iterator, so the 3/4 bound is confirmed by two separate
code paths in exact rational arithmetic.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from diqrng.game import (
    ALL_SETTINGS,
    ClassicalStrategy,
    ExperimentResult,
    GameSetting,
    QuantumStrategy,
    all_classical_strategies,
    analytic_win_probability,
    best_classical_win_probability,
    classical_win_value,
    compile_round,
    referee_inputs,
    result_from_indices,
    round_distribution,
    round_state,
    win_condition,
    win_probability_from_dist,
)
from diqrng.harness import ExperimentConfig, run_certified_experiment
from diqrng.rng import uniform_bits
from diqrng.simulator import Gate

COS2_PI_8 = 0.8535533905932737  # cos^2(pi/8), ideal win probability
COS2_3PI_8 = 0.1464466094067263  # cos^2(3pi/8), same-bit probability at (1,1)


# ---------------------------------------------------------------------------
# settings and win condition
# ---------------------------------------------------------------------------

class TestWinCondition:
    def test_truth_table(self):
        """Win iff a XOR b equals x AND y, checked over all 16 combinations."""
        for x, y, a, b in itertools.product((0, 1), repeat=4):
            expected = ((a + b) % 2) == (1 if (x == 1 and y == 1) else 0)
            assert win_condition(GameSetting(x, y), a, b) is expected

    def test_setting_validation(self):
        with pytest.raises(ValueError):
            GameSetting(2, 0)
        with pytest.raises(ValueError):
            win_condition(GameSetting(0, 0), 1, 2)

    def test_all_settings_enumeration(self):
        assert [(s.x, s.y) for s in ALL_SETTINGS] == [(0, 0), (0, 1), (1, 0), (1, 1)]


# ---------------------------------------------------------------------------
# classical ceiling
# ---------------------------------------------------------------------------

class TestClassicalCeiling:
    def test_brute_force_maximum_is_exactly_three_quarters(self):
        """Independent enumeration: 16 deterministic strategies, exact rationals."""
        best = Fraction(0)
        values = []
        for a0, a1, b0, b1 in itertools.product((0, 1), repeat=4):
            wins = 0
            for x, y in ((0, 0), (0, 1), (1, 0), (1, 1)):
                a = (a0, a1)[x]
                b = (b0, b1)[y]
                if (a ^ b) == (x & y):
                    wins += 1
            value = Fraction(wins, 4)
            values.append(value)
            best = max(best, value)
        assert best == Fraction(3, 4)
        # no deterministic strategy wins all four settings
        assert Fraction(1) not in values

    def test_package_agrees_with_brute_force(self):
        assert best_classical_win_probability() == Fraction(3, 4)
        strategies = all_classical_strategies()
        assert len(strategies) == 16
        assert len(set(strategies)) == 16
        assert max(classical_win_value(s) for s in strategies) == Fraction(3, 4)

    def test_win_values_are_exact_fractions(self):
        for strategy in all_classical_strategies():
            value = classical_win_value(strategy)
            assert isinstance(value, Fraction)
            assert value.denominator in (1, 2, 4)

    def test_specific_strategy_values(self):
        # constant-zero answers win except at (1,1): value 3/4
        assert classical_win_value(ClassicalStrategy((0, 0), (0, 0))) == Fraction(3, 4)
        # anti-correlated constants lose except at (1,1): value 1/4
        assert classical_win_value(ClassicalStrategy((0, 0), (1, 1))) == Fraction(1, 4)


# ---------------------------------------------------------------------------
# quantum strategy
# ---------------------------------------------------------------------------

class TestQuantumStrategy:
    def test_default_angles(self):
        strategy = QuantumStrategy()
        assert strategy.alice_angles == (0.0, math.pi / 4)
        assert strategy.bob_angles == (math.pi / 8, -math.pi / 8)

    def test_rejects_broken_angle_layout(self):
        with pytest.raises(ValueError, match="angle layout"):
            QuantumStrategy(alice_angles=(0.0, 0.5), bob_angles=(math.pi / 8, -math.pi / 8))
        with pytest.raises(ValueError, match="angle layout"):
            QuantumStrategy(alice_angles=(math.nan, math.nan), bob_angles=(math.nan, math.nan))
        for offset in (math.nan, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                QuantumStrategy(global_offset=offset)

    def test_offset_shifts_both_parties(self):
        strategy = QuantumStrategy(global_offset=0.3)
        assert strategy.angle_a(0) == pytest.approx(0.3)
        assert strategy.angle_b(1) == pytest.approx(-math.pi / 8 + 0.3)

    def test_compiled_circuit_shape(self):
        gates = compile_round(GameSetting(1, 1), QuantumStrategy())
        kinds = [g.kind for g in gates]
        assert kinds[:2] == ["H", "CNOT"]
        assert all(k == "RY" for k in kinds[2:])

    def test_zero_rotation_is_omitted(self):
        # x=0 with the default strategy means Alice's angle is exactly 0
        gates = compile_round(GameSetting(0, 0), QuantumStrategy())
        ry_targets = [g.targets[0] for g in gates if g.kind == "RY"]
        assert ry_targets == [1]  # only Bob rotates


class TestAnalyticValue:
    def test_each_setting_hits_ideal_value(self):
        strategy = QuantumStrategy()
        for setting in ALL_SETTINGS:
            p = analytic_win_probability(setting, strategy)
            assert abs(p - COS2_PI_8) < 1e-12

    def test_analytic_matches_simulated_distribution(self):
        """Closed form and full statevector route agree for random offsets."""
        rng = np.random.default_rng(404)
        for _ in range(5):
            strategy = QuantumStrategy(global_offset=float(rng.uniform(-math.pi, math.pi)))
            for setting in ALL_SETTINGS:
                dist = round_distribution(setting, strategy)
                p_sim = win_probability_from_dist(setting, dist)
                p_formula = analytic_win_probability(setting, strategy)
                assert abs(p_sim - p_formula) < 1e-12

    def test_offset_invariance_and_same_bit_probability(self):
        rng = np.random.default_rng(11)
        base = [analytic_win_probability(s, QuantumStrategy()) for s in ALL_SETTINGS]
        for _ in range(20):
            strategy = QuantumStrategy(global_offset=float(rng.uniform(-2 * math.pi, 2 * math.pi)))
            shifted = [analytic_win_probability(s, strategy) for s in ALL_SETTINGS]
            np.testing.assert_allclose(shifted, base, atol=1e-9)
            dist = round_distribution(GameSetting(1, 1), strategy)
            p_same = float(dist.probs[0] + dist.probs[3])
            assert abs(p_same - COS2_3PI_8) < 1e-9

    def test_depolarized_value_interpolates_to_half(self):
        strategy = QuantumStrategy()
        for lam in (0.0, 0.25, 0.5, 1.0):
            dist = round_distribution(GameSetting(0, 0), strategy, lam=lam)
            p = win_probability_from_dist(GameSetting(0, 0), dist)
            expected = (1 - lam) * COS2_PI_8 + lam * 0.5
            assert abs(p - expected) < 1e-12

    def test_round_state_is_normalized_two_qubit(self):
        state = round_state(GameSetting(1, 0), QuantumStrategy())
        assert state.n_qubits == 2
        assert abs(np.vdot(state.amplitudes, state.amplitudes).real - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# round bookkeeping
# ---------------------------------------------------------------------------

class TestRoundResults:
    def test_result_from_indices_counts_same_and_diff(self):
        # outcomes 0 ("00") and 3 ("11") are same-bit; 1 and 2 differ
        idx = np.array([0, 3, 1, 2, 3, 0, 0], dtype=np.int64)
        same, diff = result_from_indices(idx[None])
        result = ExperimentResult.from_rounds([0], [0], same, diff)
        assert result.shots[0] == 7
        assert result.same[0] == 5
        assert result.diff[0] == 2
        # at x*y = 0 a win is a same-bit outcome
        assert result.wins[0] == 5
        assert result.win_fractions[0] == pytest.approx(5 / 7)

    def test_win_flips_at_setting_one_one(self):
        idx = np.array([0, 3, 1, 2], dtype=np.int64)
        same, diff = result_from_indices(idx[None])
        result = ExperimentResult.from_rounds([1], [1], same, diff)
        assert result.wins[0] == 2  # the two different-bit outcomes

    def test_columns_must_be_equal_length_and_non_empty(self):
        with pytest.raises(ValueError, match="equal-length"):
            ExperimentResult.from_rounds([0, 1], [0], [1, 1], [0, 0])
        with pytest.raises(ValueError, match="non-empty"):
            ExperimentResult.from_rounds([], [], [], [])

    def test_play_round_deterministic(self):
        config = ExperimentConfig(rounds=1, shots=300, master_seed=9)
        a = run_certified_experiment(config).experiment
        b = run_certified_experiment(config).experiment
        assert a.win_fractions[0] == b.win_fractions[0]
        assert (a.same[0], a.diff[0]) == (b.same[0], b.diff[0])

    def test_play_round_statistics(self):
        shots = 20_000
        # every setting of the ideal strategy wins with probability cos^2(pi/8)
        config = ExperimentConfig(rounds=1, shots=shots, master_seed=21)
        result = run_certified_experiment(config).experiment
        sigma = math.sqrt(COS2_PI_8 * (1 - COS2_PI_8) / shots)
        assert abs(result.win_fractions[0] - COS2_PI_8) < 4 * sigma


# ---------------------------------------------------------------------------
# referee inputs and experiments
# ---------------------------------------------------------------------------

class TestRefereeInputs:
    def test_settings_are_reproducible(self):
        x_a, y_a = referee_inputs(64, uniform_bits(1, 64), uniform_bits(2, 64))
        x_b, y_b = referee_inputs(64, uniform_bits(1, 64), uniform_bits(2, 64))
        np.testing.assert_array_equal(x_a, x_b)
        np.testing.assert_array_equal(y_a, y_b)
        # and both input values actually vary
        assert set(x_a.tolist()) == {0, 1}
        assert set(y_a.tolist()) == {0, 1}

    def test_takes_the_first_bits_of_each_stream(self):
        x, y = referee_inputs(3, np.array([1, 0, 1, 1], dtype=np.uint8),
                              np.array([0, 1, 1], dtype=np.uint8))
        assert x.tolist() == [1, 0, 1]
        assert y.tolist() == [0, 1, 1]


class TestExperiment:
    def test_stats_match_hand_computation(self):
        fractions = [0.8, 0.9, 0.85, 0.75]
        shots = 20
        wins = [int(round(f * shots)) for f in fractions]
        # x*y = 0: wins are same-bit outcomes
        result = ExperimentResult.from_rounds([0] * 4, [0] * 4, wins,
                                              [shots - w for w in wins])
        mean = sum(fractions) / 4
        var = sum((f - mean) ** 2 for f in fractions) / 4  # population variance
        assert result.p_min == pytest.approx(min(fractions))
        assert result.p_max == pytest.approx(max(fractions))
        assert result.p_avg == pytest.approx(mean)
        assert result.sigma == pytest.approx(math.sqrt(var))
        assert result.total_shots() == 80
        assert result.pooled_win_fraction() == pytest.approx(
            sum(wins) / 80)

    def test_run_experiment_reproducible(self):
        config = ExperimentConfig(rounds=10, shots=200, master_seed=5)
        a = run_certified_experiment(config).experiment
        b = run_certified_experiment(config).experiment
        assert a.win_fractions.tolist() == b.win_fractions.tolist()
        assert list(zip(a.x.tolist(), a.y.tolist())) == list(zip(b.x.tolist(), b.y.tolist()))

    def test_run_experiment_seed_sensitivity(self):
        a = run_certified_experiment(ExperimentConfig(rounds=10, shots=200, master_seed=5))
        b = run_certified_experiment(ExperimentConfig(rounds=10, shots=200, master_seed=6))
        a, b = a.experiment, b.experiment
        assert a.win_fractions.tolist() != b.win_fractions.tolist()

    def test_noisy_experiment_depresses_value(self):
        noisy = run_certified_experiment(
            ExperimentConfig(rounds=20, shots=500, lam=0.6, master_seed=8)).experiment
        assert noisy.p_avg < 0.8
        assert noisy.p_avg > 0.5 - 0.1  # still above coin flipping minus slack

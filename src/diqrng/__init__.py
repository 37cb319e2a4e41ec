"""Device-independent randomness, desk scale.

Simulate the two-player nonlocal game from the entangled strategy's Born
probabilities in closed form, certify the violation of the classical 3/4
ceiling, fit a depolarizing noise level to recorded device averages, and
turn the certified outcomes into tested bit streams.
"""

from .certify import (
    CLASSICAL_S,
    DEFAULT_THRESHOLD_Z,
    TSIRELSON_S,
    Certificate,
    Verdict,
    certify,
    certify_pooled,
    min_entropy_rate,
    s_value,
    violation_significance,
)
from .game import (
    ALL_SETTINGS,
    ClassicalStrategy,
    ConfigError,
    ExperimentResult,
    GameSetting,
    QuantumStrategy,
    all_classical_strategies,
    analytic_win_probability,
    best_classical_win_probability,
    classical_win_value,
    play_classical_round,
    referee_inputs,
    round_distribution,
    win_condition,
)
from .harness import (
    CertifiedRun,
    DeviceProfile,
    ExperimentConfig,
    IDEAL_WIN_PROBABILITY,
    UnfittableTargetError,
    emit_reports,
    fit_lambda,
    get_device_profile,
    load_device_profiles,
    read_rounds_csv,
    replay_backend,
    run_certified_experiment,
    write_rounds_csv,
)
from .randomness import (
    ExtractionBudgetError,
    TestReport,
    block_frequency_test,
    hadamard_qrng,
    monobit_test,
    parity_qrng,
    run_battery,
    runs_test,
    toeplitz_extract,
    toeplitz_matrix,
    toeplitz_seed_bits,
    von_neumann,
)
from .rng import SourceDepleted, derive_seed, make_rng, uniform_bits
from .simulator import (
    CapacityError,
    CountsRecord,
    DataFormatError,
    DataIntegrityError,
    MAX_QUBITS,
    OutcomeDistribution,
    depolarize,
    sample,
    sample_indices,
)

__version__ = "0.1.0"

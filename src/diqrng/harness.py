"""End-to-end experiment orchestration.

Ties the pieces together: fit a depolarizing level to a device's published
average, play seeded or replayed rounds under explicit loophole controls,
certify the pooled statistics, hand back Alice's outcome bits as the
certified stream, and emit the standard report files.

Loophole posture (ExperimentConfig fields, documented, not silently assumed):

* independent_inputs — x and y come from two independently seeded (or
  separately recorded) sources; turning this off reuses one stream for
  both sides and is flagged in the summary.
* fresh_state_per_round — every round derives its own sampling stream
  from (master_seed, round index), so no round's data feeds another;
  turning this off threads one stream through all rounds.
* detection_efficiency — each party's detector fires per shot with
  probability eta; only coincident shots enter the tallies, and
  report_all_events additionally records each round's win fraction over
  every emitted pair, undetected shots scored by their true outcome.
* Spacelike separation cannot hold between two software-simulated
  parties; that loophole stays open here by construction.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import Any, Mapping, NamedTuple, Sequence

import numpy as np

from . import _kernels
from .certify import DEFAULT_THRESHOLD_Z, Certificate, certify
from .game import (
    ConfigError,
    ExperimentResult,
    GameSetting,
    QuantumStrategy,
    referee_inputs,
    result_from_indices,
    round_distribution,
)
from .io import (DataFormatError, DataIntegrityError, _json_bool, _json_float, _json_int,
                 _known_keys, atomic_write_json, atomic_write_pieces, atomic_write_text,
                 canonical_json, format_sig, load_json, parse_json, read_text)
from .rng import derive_seed, derive_seeds, make_rng, rekey, uniform_bits
from .simulator import CountsRecord

IDEAL_WIN_PROBABILITY = math.cos(math.pi / 8) ** 2
DEFAULT_ROUNDS = 100
DEFAULT_SHOTS = 1000
FORMAT_VERSION = 1

# uniforms per chunk of rounds (about 0.5 MB), never less than one round
_CHUNK_DRAWS = 1 << 16

ROUNDS_CSV_FIELDS = ("round_index", "x", "y", "same_count", "diff_count", "win_fraction")
# one row of rounds.csv as np.loadtxt parses it: five integers, then the stored fraction
_ROUNDS_DTYPE = np.dtype({"names": ROUNDS_CSV_FIELDS, "formats": 5 * ["i8"] + ["f8"]})


class UnfittableTargetError(ValueError):
    """Target average outside [1/2, cos^2(pi/8)] has no depolarizing fit."""


def fit_lambda(target_win_probability: float) -> float:
    """Depolarizing level whose analytic win probability equals the target.

    Closed form: (ideal - target) / (ideal - 1/2), the inverse of the
    affine noise response, so round-tripping through the model is exact.
    """
    if not (0.5 <= target_win_probability <= IDEAL_WIN_PROBABILITY):
        raise UnfittableTargetError(
            f"target {target_win_probability!r} outside "
            f"[0.5, {IDEAL_WIN_PROBABILITY!r}]")
    return (IDEAL_WIN_PROBABILITY - target_win_probability) / (IDEAL_WIN_PROBABILITY - 0.5)


# ============================================================
# device profiles
# ============================================================

@dataclass(frozen=True)
class DeviceProfile:
    """A published device average plus its fitted noise level."""

    name: str
    avg_win_target: float
    fitted_lambda: float
    metadata: dict[str, Any] = field(default_factory=dict)


def _profiles_from_obj(obj: Any) -> list[DeviceProfile]:
    if not isinstance(obj, Mapping) or obj.get("format_version") != FORMAT_VERSION:
        raise DataFormatError("profile file missing a supported format_version")
    rows = obj.get("profiles")
    if type(rows) is not list or not rows:
        raise DataFormatError("profile file holds no list of profiles")
    profiles = []
    for row in rows:
        try:
            name, target = row["name"], _json_float(row["avg_win_target"], "avg_win_target")
            metadata = dict(row.get("metadata") or {})
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise DataFormatError(f"malformed profile row: {row!r}") from exc
        profiles.append(DeviceProfile(name, target, fit_lambda(target), metadata))
    return profiles


def load_device_profiles(path: str | os.PathLike | None = None) -> list[DeviceProfile]:
    """Load the bundled profile table (or one from an explicit path)."""
    if path is not None:
        return load_json(path, _profiles_from_obj)
    bundled = resources.files("diqrng.data").joinpath("device_profiles.json")
    return _profiles_from_obj(parse_json(bundled.read_text("utf-8"), "device_profiles.json"))


def get_device_profile(name: str, path: str | os.PathLike | None = None) -> DeviceProfile:
    profiles = load_device_profiles(path)
    for p in profiles:
        if p.name == name:
            return p
    known = ", ".join(p.name for p in profiles)
    raise KeyError(f"no device profile named {name!r}; known: {known}")


# ============================================================
# configuration
# ============================================================

def _json_names(value: Any, name: str) -> tuple[str, ...]:
    """A JSON list of file names; a bare string or a number (a descriptor) is refused."""
    if type(value) is not list or not all(type(v) is str for v in value):
        raise TypeError(f"{name} must be a list of file names, got {value!r}")
    return tuple(value)


# the loophole switches, keyed as in a config's and summary.json's "loopholes" object
LOOPHOLE_FIELDS = ("independent_inputs", "fresh_state_per_round", "detection_efficiency",
                   "report_all_events")
# the keys a config file may hold, at the top level and in its two sub-objects
_CONFIG_KEYS = ("format_version", "rounds", "shots", "lambda", "master_seed", "strategy",
                "input_source", "threshold_z", "loopholes")
_STRATEGY_KEYS = ("alice_angles", "bob_angles", "global_offset")
_INPUT_SOURCE_KEYS = ("mode", "x_files", "y_files")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce a run, serializable as JSON."""

    rounds: int = DEFAULT_ROUNDS
    shots: int = DEFAULT_SHOTS
    lam: float = 0.0
    master_seed: int = 0
    strategy: QuantumStrategy = field(default_factory=QuantumStrategy)
    # a run replays recorded inputs exactly when both file lists are given
    replay_x: tuple[str, ...] = ()
    replay_y: tuple[str, ...] = ()
    threshold_z: float = DEFAULT_THRESHOLD_Z
    independent_inputs: bool = True
    fresh_state_per_round: bool = True
    detection_efficiency: float = 1.0
    report_all_events: bool = False

    def __post_init__(self):
        if self.rounds < 1:
            raise ConfigError(f"rounds must be >= 1, got {self.rounds}")
        if self.shots < 1:
            raise ConfigError(f"shots must be >= 1, got {self.shots}")
        if not (0.0 <= self.lam <= 1.0):
            raise ConfigError(f"lambda must be in [0, 1], got {self.lam!r}")
        if bool(self.replay_x) != bool(self.replay_y):
            raise ConfigError("replay needs both replay_x and replay_y file lists")
        if not math.isfinite(self.threshold_z):
            raise ConfigError(f"threshold_z must be finite, got {self.threshold_z!r}")
        eta = self.detection_efficiency
        if not (0.0 < eta <= 1.0):
            raise ConfigError(f"detection_efficiency must be in (0, 1], got {eta!r}")

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "format_version": FORMAT_VERSION,
            "rounds": self.rounds,
            "shots": self.shots,
            "lambda": self.lam,
            "master_seed": self.master_seed,
            "strategy": {
                "alice_angles": list(self.strategy.alice_angles),
                "bob_angles": list(self.strategy.bob_angles),
                "global_offset": self.strategy.global_offset,
            },
            "input_source": (
                {"mode": "replay", "x_files": list(self.replay_x),
                 "y_files": list(self.replay_y)} if self.replay_x else
                {"mode": "seeded"}
            ),
            "threshold_z": self.threshold_z,
            "loopholes": {name: getattr(self, name) for name in LOOPHOLE_FIELDS},
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping[str, Any]) -> "ExperimentConfig":
        """Parse a config object; a missing `loopholes` object means the defaults."""
        try:
            _known_keys(obj, _CONFIG_KEYS, "experiment config")
            if obj.get("format_version") != FORMAT_VERSION:
                raise ValueError("missing a supported format_version")
            strat = obj.get("strategy", {})
            _known_keys(strat, _STRATEGY_KEYS, "strategy")
            strategy = QuantumStrategy(
                alice_angles=tuple(strat.get("alice_angles", (0.0, math.pi / 4))),
                bob_angles=tuple(strat.get("bob_angles", (math.pi / 8, -math.pi / 8))),
                global_offset=_json_float(strat.get("global_offset", 0.0), "global_offset"),
            )
            source = obj.get("input_source", {"mode": "seeded"})
            _known_keys(source, _INPUT_SOURCE_KEYS, "input_source")
            replay_x = _json_names(source.get("x_files", []), "x_files")
            replay_y = _json_names(source.get("y_files", []), "y_files")
            mode = source.get("mode", "seeded")
            if mode not in ("seeded", "replay") or (mode == "replay") != bool(replay_x or replay_y):
                raise ValueError(f"input_source mode {mode!r} does not match the files given")
            switches = obj.get("loopholes", {})
            _known_keys(switches, LOOPHOLE_FIELDS, "loopholes")
            loopholes = {
                name: (_json_float if name == "detection_efficiency" else _json_bool)(value, name)
                for name, value in switches.items()}
            return cls(
                rounds=_json_int(obj["rounds"], "rounds"),
                shots=_json_int(obj["shots"], "shots"),
                lam=_json_float(obj.get("lambda", 0.0), "lambda"),
                master_seed=_json_int(obj.get("master_seed", 0), "master_seed"),
                strategy=strategy,
                replay_x=replay_x,
                replay_y=replay_y,
                threshold_z=_json_float(obj.get("threshold_z", DEFAULT_THRESHOLD_Z),
                                        "threshold_z"),
                **loopholes,
            )
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise DataFormatError(f"malformed experiment config: {exc}") from exc

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "ExperimentConfig":
        return load_json(path, cls.from_json_obj)


# ============================================================
# replay backend
# ============================================================

def load_counts_record(path: str | os.PathLike) -> CountsRecord:
    return load_json(path, CountsRecord.from_json_obj)


# rows of a counts record's memory block per write: 160 kB of text at 4 qubits
_MEMORY_ROWS = 1 << 14


def save_counts_record(path: str | os.PathLike, record: CountsRecord) -> None:
    """Write the record; the bytes equal `atomic_write_json` of `record.to_json_obj()`.

    The fields other than memory go through the one JSON encoder, at full
    precision.  The memory block is built from the record's digits as
    uint8 lines ``  "0101",`` and written a bounded number of lines at a
    time.  A record the loader would refuse raises before anything is
    written.
    """
    digits = record.memory_digits()
    head = canonical_json(replace(record, memory=None).to_json_obj(), precise=True)
    if digits is None:
        atomic_write_text(path, head + "\n")
        return
    # a top-level key is the only line indented by one space: nested lines
    # take more, and a newline inside a string is escaped
    before, _, after = head.partition('\n "memory": null')
    width = digits.shape[1]
    line = np.frombuffer(b'  "' + b" " * width + b'",\n', dtype=np.uint8)

    def pieces():
        yield (before + '\n "memory": [\n').encode("ascii")
        shots = digits.shape[0]
        for lo in range(0, shots, _MEMORY_ROWS):
            rows = digits[lo:lo + _MEMORY_ROWS]
            lines = np.empty((rows.shape[0], line.size), dtype=np.uint8)
            lines[:] = line
            lines[:, 3:3 + width] = rows
            # the last line ends without its ",\n", where the list closes
            yield lines if lo + _MEMORY_ROWS < shots else lines.reshape(-1)[:-2]
        yield f"\n ]{after}\n".encode("ascii")

    atomic_write_pieces(path, pieces())


def replay_backend(paths: Sequence[str | os.PathLike]) -> np.ndarray:
    """The bits of recorded per-shot outcomes, in file order.

    Each file must be a CountsRecord with its memory list present (the
    counts alone cannot restore shot order).  Every outcome contributes
    its bits most-significant-qubit first.
    """
    if not paths:
        raise ConfigError("replay needs at least one record file")
    chunks = []
    for path in paths:
        rec = load_counts_record(path)
        if rec.memory is None:
            raise DataFormatError(
                f"{path}: record has no memory list; shot order is required for replay")
        joined = "".join(rec.memory)
        chunks.append(np.frombuffer(joined.encode("ascii"), dtype=np.uint8) - ord("0"))
    return np.concatenate(chunks)


# ============================================================
# certified runs
# ============================================================

class CertifiedRun(NamedTuple):
    experiment: ExperimentResult
    certificate: Certificate
    alice_bits: np.ndarray
    # with report_all_events under lossy detection: per round that kept a
    # shot, the win fraction over every emitted pair; empty otherwise
    all_event_win_fractions: np.ndarray


def _referee_columns(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    n = config.rounds
    if config.replay_x:
        bits_x = replay_backend(config.replay_x)
        bits_y = replay_backend(config.replay_y)
        # resolved, so that q.json and ./q.json count as one source
        shared = set(map(os.path.realpath, config.replay_x)) & set(
            map(os.path.realpath, config.replay_y))
        if config.independent_inputs and shared:
            raise ConfigError("input sources must be independent "
                              f"(file given on both sides: {sorted(shared)[0]})")
    else:
        # 2n Alice bits: the second n are y when the inputs are dependent
        bits_x = uniform_bits(derive_seed(config.master_seed, "alice-inputs"), 2 * n)
        bits_y = uniform_bits(derive_seed(config.master_seed, "bob-inputs"), n)
    if not config.independent_inputs:
        # loophole left open on purpose: one stream feeds both sides
        bits_y = bits_x[n:]
    return referee_inputs(n, bits_x, bits_y)


def run_certified_experiment(config: ExperimentConfig) -> CertifiedRun:
    """Play, certify, and collect Alice's outcome bits for one config.

    Round i draws one row of uniforms: its shots' outcome uniforms and,
    under lossy detection, Alice's and then Bob's detector uniforms.  A
    fresh-state round re-keys the generator to its own seed and draws its
    row; a stale-state run draws each chunk of rows in one call.  Sampling,
    detection and tallying run once per chunk.
    """
    x, y = _referee_columns(config)
    n, shots = config.rounds, config.shots
    eta = config.detection_efficiency
    lossy = eta < 1.0
    # one generator per run; with fresh state each round re-keys it to the
    # round's own seed, otherwise one stream runs through every round
    rng = make_rng(derive_seed(config.master_seed, "shared-stream"))
    round_seeds = (derive_seeds(config.master_seed, "round")
                   if config.fresh_state_per_round else None)
    # setting code 2x + y; each distribution present is built once
    settings = 2 * x + y
    cdfs = np.zeros((4, 4))
    for s in np.flatnonzero(np.bincount(settings, minlength=4)).tolist():
        cdfs[s] = round_distribution(GameSetting(s >> 1, s & 1), config.strategy,
                                     config.lam).cdf
    width = 3 * shots if lossy else shots
    chunk_rows = max(1, _CHUNK_DRAWS // width)
    u = np.empty((min(chunk_rows, n), width))
    same = np.empty(n, dtype=np.int64)
    diff = np.empty(n, dtype=np.int64)
    all_event: list[np.ndarray] = []
    alice_chunks: list[np.ndarray] = []
    for lo in range(0, n, chunk_rows):
        block = u[:min(chunk_rows, n - lo)]
        hi = lo + block.shape[0]
        if round_seeds is None:
            # one stream: the block's rows in order are one sequential draw
            rng.random(out=block)
        else:
            # rows first: zip stops on them without pulling one seed too many
            for row, seed in zip(block, round_seeds):
                rekey(rng, seed)
                rng.random(out=row)
        idx = _kernels.sample_outcomes(cdfs[settings[lo:hi]], block[:, :shots])
        if not lossy:
            same[lo:hi], diff[lo:hi] = result_from_indices(idx)
            alice_chunks.append((idx >> 1).ravel())
            continue
        kept = (block[:, shots:2 * shots] < eta) & (block[:, 2 * shots:] < eta)
        same[lo:hi], diff[lo:hi] = result_from_indices(idx, kept)
        if config.report_all_events:
            # ground truth over every emitted pair, detected or not -- the
            # quantity a real experiment cannot observe; rounds that lost
            # every shot to the detectors are left out
            same_all, diff_all = result_from_indices(idx)
            wins_all = np.where(x[lo:hi] & y[lo:hi], diff_all, same_all)
            all_event.append(wins_all[(same[lo:hi] + diff[lo:hi]) > 0] / shots)
        # the kept shots in row order, which is round order
        alice_chunks.append(np.compress(kept.ravel(), idx.ravel()) >> 1)
    experiment = ExperimentResult.from_rounds(x, y, same, diff)
    certificate = certify(experiment, config.threshold_z)
    return CertifiedRun(experiment, certificate, np.concatenate(alice_chunks),
                        np.concatenate(all_event) if all_event else np.zeros(0))


# ============================================================
# rounds table and report files
# ============================================================

def rounds_csv_text(experiment: ExperimentResult) -> str:
    e = experiment
    lines = [f"# format_version={FORMAT_VERSION}", ",".join(ROUNDS_CSV_FIELDS)]
    # tolist() hands back Python ints and floats, so repr is the plain float text
    rows = zip(range(e.x.size), e.x.tolist(), e.y.tolist(), e.same.tolist(), e.diff.tolist(),
               e.win_fractions.tolist())
    lines += [f"{i},{x},{y},{same},{diff},{f!r}" for i, x, y, same, diff, f in rows]
    return "\n".join(lines) + "\n"


def write_rounds_csv(path: str | os.PathLike, experiment: ExperimentResult) -> None:
    atomic_write_text(path, rounds_csv_text(experiment))


def read_rounds_csv(path: str | os.PathLike) -> ExperimentResult:
    """Rebuild an ExperimentResult from a rounds table, parsed in one pass."""
    lines = read_text(path).splitlines()
    header = [f"# format_version={FORMAT_VERSION}", ",".join(ROUNDS_CSV_FIELDS)]
    if lines[:2] != header:
        raise DataFormatError(f"{path}: want the header lines {header!r}, got {lines[:2]!r}")
    # loadtxt skips empty lines, and warns on a table that has nothing else
    if not any(lines[2:]):
        raise DataFormatError(f"{path}: no data rows")
    try:
        # numpy 1.x reads an int field such as 10.7 via a float and only warns: refuse it
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            table = np.loadtxt(lines, dtype=_ROUNDS_DTYPE, delimiter=",", comments=None,
                               skiprows=2, ndmin=1)
    except ValueError as exc:
        raise DataFormatError(f"{path}: malformed row: want {len(ROUNDS_CSV_FIELDS)} plain "
                              f"decimal fields, the first the round_index: {exc}") from exc
    del lines  # parsed: the checks below need only the columns
    x, y, same, diff, stored = (table[name] for name in ROUNDS_CSV_FIELDS[1:])
    bad = np.flatnonzero((table["round_index"] != np.arange(table.size))
                         | (x < 0) | (x > 1) | (y < 0) | (y > 1) | (same < 0) | (diff < 0))
    if bad.size:
        raise DataFormatError(f"{path}: malformed row {table[bad[0]].tolist()!r}: want "
                              f"round_index {bad[0]}, bits x and y, non-negative tallies")
    # int64 columns would wrap past 2^63 instead of failing, so the total is a Python int
    if same.sum(dtype=object) + diff.sum(dtype=object) >= 2 ** 63:
        raise DataFormatError(f"{path}: total shots exceed the int64 range")
    experiment = ExperimentResult.from_rounds(x, y, same, diff)
    # written so that a NaN or infinite stored fraction fails it
    bad = np.flatnonzero(~(np.abs(experiment.win_fractions - stored) <= 1e-9))
    if bad.size:
        raise DataIntegrityError(
            f"{path}: stored win_fraction {stored[bad[0]].item()!r} disagrees with tallies")
    return experiment


# a block of the density estimate holds at most about this many grid x value
# elements, and at least one grid row.  A block of 2^14-2^16 stays in L2: on
# 10^4 values it took 127 ms against 158 ms at 2^20 and 225 ms for the whole
# matrix (2-vCPU x86-64 host, medians of 7)
_KDE_BLOCK = 1 << 16
# past this many bandwidths exp(-z^2/2) is exactly 0.0 in float64: the
# smallest subnormal is exp(-744.4), and 39^2/2 = 760.5
_KDE_REACH = 39.0


def _gaussian_kde(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Plain Gaussian KDE with a floored Silverman bandwidth.

    The floor keeps single-round and zero-variance inputs finite.  Only
    grid rows with a value within _KDE_REACH bandwidths are computed: every
    term of any other row underflows to 0.0, so its sum is 0.0.  Computed
    rows are summed a block at a time, so working memory is linear in
    `values.size`; each row is still one contiguous sum of the same length,
    so the result equals the whole-matrix form bit for bit.
    """
    n = values.size
    sigma = float(values.std(ddof=0))
    h = max(1.06 * sigma * n ** (-0.2), 1e-3)
    # float subtraction is monotone, so each grid point's nearest value is
    # one of its two neighbours in sorted order
    ordered = np.sort(values)
    right = np.searchsorted(ordered, grid)
    nearest = np.minimum(np.abs(ordered[np.maximum(right - 1, 0)] - grid),
                         np.abs(ordered[np.minimum(right, n - 1)] - grid))
    live = np.flatnonzero(~(nearest > _KDE_REACH * h))  # a NaN row is computed
    sums = np.zeros(grid.size)
    step = max(1, _KDE_BLOCK // n)
    for lo in range(0, live.size, step):
        rows = live[lo:lo + step]
        z = (grid[rows, None] - values[None, :]) / h
        sums[rows] = np.exp(-0.5 * z * z).sum(axis=1)
    return sums / (n * h * math.sqrt(2.0 * math.pi))


def run_summary(experiment: ExperimentResult, label: str) -> dict[str, Any]:
    """The summary.json fields shared by `play` and `report`."""
    return {
        "format_version": FORMAT_VERSION,
        "label": label,
        "rounds": experiment.x.size,
        "total_shots": experiment.total_shots(),
        "p_min": experiment.p_min,
        "p_avg": experiment.p_avg,
        "p_max": experiment.p_max,
        "sigma": experiment.sigma,
        "pooled_win_fraction": experiment.pooled_win_fraction(),
    }


def emit_reports(experiment: ExperimentResult, out_dir: str | os.PathLike,
                 label: str = "experiment") -> dict[str, str]:
    """Write running_avg.csv, hist.csv, density.csv, and summary.json.

    Returns a name -> path map.  All floats are written at 6 significant
    digits; every file carries a format_version marker.
    """
    out_dir = os.fspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    fractions = experiment.win_fractions
    paths = {}

    running = np.cumsum(fractions) / np.arange(1, fractions.size + 1)
    lines = [f"# format_version={FORMAT_VERSION}", "round_index,win_fraction,running_avg"]
    lines += [f"{i},{format_sig(f)},{format_sig(r)}"
              for i, (f, r) in enumerate(zip(fractions, running))]
    paths["running_avg"] = os.path.join(out_dir, "running_avg.csv")
    atomic_write_text(paths["running_avg"], "\n".join(lines) + "\n")

    edges = np.linspace(0.0, 1.0, 101)
    counts, _ = np.histogram(fractions, bins=edges)
    lines = [f"# format_version={FORMAT_VERSION}", "bin_left,bin_right,count"]
    lines += [f"{format_sig(edges[i])},{format_sig(edges[i + 1])},{int(c)}"
              for i, c in enumerate(counts)]
    paths["hist"] = os.path.join(out_dir, "hist.csv")
    atomic_write_text(paths["hist"], "\n".join(lines) + "\n")

    grid = np.linspace(0.0, 1.0, 1001)
    dens = _gaussian_kde(fractions, grid)
    lines = [f"# format_version={FORMAT_VERSION}", "win_fraction,density"]
    lines += [f"{format_sig(g)},{format_sig(d)}" for g, d in zip(grid, dens)]
    paths["density"] = os.path.join(out_dir, "density.csv")
    atomic_write_text(paths["density"], "\n".join(lines) + "\n")

    paths["summary"] = os.path.join(out_dir, "summary.json")
    atomic_write_json(paths["summary"], run_summary(experiment, label))
    return paths

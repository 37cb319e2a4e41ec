"""Which diqrng functions the traced run wraps, and the per-layer metrics.

Each probe names a span ``<layer>.<what>`` and a function in one of the
layers under ``src/diqrng/``.  The ``_kernels`` layer appears as
``kernels`` because metric names must start with a letter.  A probe whose
module or function no longer exists fails the traced run, so a change that
renames or removes a probed function has to update ``PROBES`` with it.
"""

from __future__ import annotations

import importlib
import inspect
import math
import os
import statistics
import sys
from typing import Any, Callable, NamedTuple, Sequence

from tracer import END, NAME, PARENT, REQUEST, START, Tracer, percentile, self_times, union_length


class Probe(NamedTuple):
    span: str
    module: str
    attr: str  # "func" or "Class.method"
    hook: Callable | None = None


def _add(counters: dict[str, Any], key: str, amount: float) -> None:
    counters[key] = counters.get(key, 0) + amount


# count hooks: hook(counters, args, kwargs, result) after the call returns

def _distinct_distribution(c, args, kwargs, result):
    c.setdefault("game.distinct", set()).add((args, tuple(sorted(kwargs.items()))))


def _shots(c, args, kwargs, result):
    _add(c, "simulator.shots_sampled", int(result.size))


def _detected(c, args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    _add(c, "harness.shots_kept", result.experiment.total_shots())
    _add(c, "harness.shots_emitted", config.rounds * config.shots)


def _text_bits(c, args, kwargs, result):
    _add(c, "randomness.text_bits_written", len(args[0]) if args else len(kwargs["bits"]))


def _bits_read(c, args, kwargs, result):
    _add(c, "randomness.bits_read", int(result.size))


def _von_neumann(c, args, kwargs, result):
    stream = args[0] if args else kwargs["stream"]
    _add(c, "randomness.vn_in_bits", len(stream))
    _add(c, "randomness.vn_out_bits", len(result))


def _toeplitz(c, args, kwargs, result):
    from diqrng import randomness
    bound = inspect.signature(randomness.toeplitz_extract).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    n = len(a["stream"])
    _add(c, "randomness.toeplitz_in_bits", n)
    _add(c, "randomness.toeplitz_out_bits", len(result))
    rate = a.get("min_entropy_rate")
    if rate is not None:
        budget = math.floor(n * rate - a["security_margin"])
        _add(c, "randomness.budget_bits", budget)
        _add(c, "randomness.budget_out_bits", len(result))


def _fft(c, args, kwargs, result):
    # computed from argument sizes, not measured: the points of one
    # whole-stream FFT and the bytes of the arrays that transform builds
    # (two padded float64 inputs, three complex spectra, one float64 output)
    seed_bits, x_bits = args[0], args[1]
    full = seed_bits.size + x_bits.size - 1
    size = 1 << max(full - 1, 1).bit_length()
    _add(c, "kernels.toeplitz_fft_points", size)
    _add(c, "kernels.toeplitz_bytes_computed", 3 * 8 * size + 3 * 16 * (size // 2 + 1))


def _bytes_written(c, args, kwargs, result):
    _add(c, "io.bytes_written", os.path.getsize(args[0] if args else kwargs["path"]))


PROBES = (
    Probe("cli.main", "cli", "main"),
    Probe("cli.play", "cli", "cmd_play"),
    Probe("cli.extract", "cli", "cmd_extract"),
    Probe("cli.test", "cli", "cmd_test"),
    Probe("cli.qrng", "cli", "cmd_qrng"),
    Probe("cli.certify", "cli", "cmd_certify"),
    Probe("cli.report", "cli", "cmd_report"),
    Probe("harness.run", "harness", "run_certified_experiment", _detected),
    Probe("harness.replay_load", "harness", "replay_backend"),
    Probe("harness.rounds_csv_read", "harness", "read_rounds_csv"),
    Probe("harness.rounds_csv_write", "harness", "write_rounds_csv"),
    Probe("harness.emit_reports", "harness", "emit_reports"),
    Probe("game.round_distribution", "game", "round_distribution", _distinct_distribution),
    Probe("game.referee", "game", "referee_inputs"),
    Probe("game.tally", "game", "result_from_indices"),
    Probe("game.from_rounds", "game", "ExperimentResult.from_rounds"),
    Probe("simulator.sample", "simulator", "sample_indices", _shots),
    Probe("simulator.record", "simulator", "record_from_indices"),
    Probe("simulator.counts_load", "simulator", "CountsRecord.from_json_obj"),
    Probe("rng.derive_seed", "rng", "derive_seed"),
    Probe("rng.make_rng", "rng", "make_rng"),
    Probe("certify.certify", "certify", "certify"),
    Probe("randomness.bits_to_text", "randomness", "bits_to_text", _text_bits),
    Probe("randomness.load_bits", "randomness", "load_bits_text", _bits_read),
    Probe("randomness.load_bits", "randomness", "load_bits_packed", _bits_read),
    Probe("randomness.von_neumann", "randomness", "von_neumann", _von_neumann),
    Probe("randomness.toeplitz", "randomness", "toeplitz_extract", _toeplitz),
    Probe("randomness.toeplitz_seed_bits", "randomness", "toeplitz_seed_bits"),
    Probe("randomness.battery", "randomness", "run_battery"),
    Probe("io.write", "io", "atomic_write_text", _bytes_written),
    Probe("io.write", "io", "atomic_write_bytes", _bytes_written),
    Probe("io.canonical_json", "io", "canonical_json"),
    Probe("kernels.sample_outcomes", "_kernels", "sample_outcomes"),
    Probe("kernels.von_neumann_pairs", "_kernels", "von_neumann_pairs"),
    Probe("kernels.toeplitz_gf2", "_kernels", "toeplitz_gf2", _fft),
)


class MissingProbe(Exception):
    """A probed module or function does not exist in the program."""


def install(tracer: Tracer) -> None:
    """Wrap every probe; raises MissingProbe, before wrapping any, if one is gone."""
    targets, missing = [], []
    for probe in PROBES:
        try:
            mod = importlib.import_module(f"diqrng.{probe.module}")
        except ImportError:
            missing.append(f"{probe.module}.{probe.attr}")
            continue
        owner_name, _, method = probe.attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        if owner is None or method not in vars(owner):
            missing.append(f"{probe.module}.{probe.attr}")
        else:
            targets.append((probe, owner, owner_name, method))
    if missing:
        raise MissingProbe(f"probed functions not found in diqrng: {', '.join(missing)}; "
                           f"update PROBES in perfbench/probes.py")
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "diqrng" or name.startswith("diqrng."))]
    for probe, owner, owner_name, method in targets:
        if owner_name:
            tracer.patch_method(owner, method, probe.span, probe.hook)
        else:
            tracer.patch_function(modules, vars(owner)[method], probe.span, probe.hook)


# metric -> span name; the metric names match BENCHMARK.json's per_layer
TIME_SPANS = {
    "game.round_distribution_s": "game.round_distribution",
    "game.referee_s": "game.referee",
    "game.tally_s": "game.tally",
    "game.from_rounds_s": "game.from_rounds",
    "rng.derive_seed_s": "rng.derive_seed",
    "rng.make_rng_s": "rng.make_rng",
    "simulator.sample_s": "simulator.sample",
    "simulator.record_s": "simulator.record",
    "simulator.counts_load_s": "simulator.counts_load",
    "kernels.sample_outcomes_s": "kernels.sample_outcomes",
    "randomness.bits_to_text_s": "randomness.bits_to_text",
    "io.write_s": "io.write",
    "io.canonical_json_s": "io.canonical_json",
    "randomness.toeplitz_s": "randomness.toeplitz",
    "randomness.toeplitz_seed_bits_s": "randomness.toeplitz_seed_bits",
    "kernels.toeplitz_gf2_s": "kernels.toeplitz_gf2",
    "harness.replay_load_s": "harness.replay_load",
    "harness.rounds_csv_read_s": "harness.rounds_csv_read",
    "harness.rounds_csv_write_s": "harness.rounds_csv_write",
    "harness.emit_reports_s": "harness.emit_reports",
    "harness.run_s": "harness.run",
    "randomness.load_bits_s": "randomness.load_bits",
    "randomness.von_neumann_s": "randomness.von_neumann",
    "kernels.von_neumann_pairs_s": "kernels.von_neumann_pairs",
    "randomness.battery_s": "randomness.battery",
    "certify.certify_s": "certify.certify",
    "cli.qrng_s": "cli.qrng",
    "cli.certify_s": "cli.certify",
    "cli.report_s": "cli.report",
    "cli.test_s": "cli.test",
}
SELF_SPANS = {
    "harness.run.self_s": "harness.run",
    "cli.play.self_s": "cli.play",
    "cli.extract.self_s": "cli.extract",
}
CALL_SPANS = {
    "game.round_distribution_calls": "game.round_distribution",
    "rng.derive_seed_calls": "rng.derive_seed",
    "rng.make_rng_calls": "rng.make_rng",
    "simulator.sample_calls": "simulator.sample",
    "io.write_calls": "io.write",
    "certify.calls": "certify.certify",
}
COUNTERS = (
    "simulator.shots_sampled",
    "randomness.text_bits_written",
    "io.bytes_written",
    "randomness.toeplitz_in_bits",
    "randomness.toeplitz_out_bits",
    "kernels.toeplitz_fft_points",
    "kernels.toeplitz_bytes_computed",
    "randomness.bits_read",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def request_metrics(spans: Sequence[Sequence[Any]], selfs: Sequence[float],
                    counters: dict[str, Any], pipeline_s: float) -> dict[str, float]:
    """Per-layer figures of one traced request (one pipeline pass)."""
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    top = []
    for span, self_s in zip(spans, selfs):
        name = span[NAME]
        busy[name] = busy.get(name, 0.0) + (span[END] - span[START])
        own[name] = own.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1
        if span[PARENT] < 0:
            top.append((span[START], span[END]))
    out: dict[str, float] = {}
    for metric, name in TIME_SPANS.items():
        out[metric] = busy.get(name, 0.0)
    for metric, name in SELF_SPANS.items():
        out[metric] = own.get(name, 0.0)
    for metric, name in CALL_SPANS.items():
        out[metric] = calls.get(name, 0)
    for key in COUNTERS:
        out[key] = counters.get(key, 0)
    out["game.distinct_distributions"] = len(counters.get("game.distinct", ()))
    out["harness.detected_fraction"] = _ratio(counters.get("harness.shots_kept", 0),
                                              counters.get("harness.shots_emitted", 0))
    out["randomness.vn_yield"] = _ratio(counters.get("randomness.vn_out_bits", 0),
                                        counters.get("randomness.vn_in_bits", 0))
    out["randomness.budget_used"] = _ratio(counters.get("randomness.budget_out_bits", 0),
                                           counters.get("randomness.budget_bits", 0))
    out["trace.unattributed_s"] = pipeline_s - union_length(top)
    return out


def layer_metrics(tracer: Tracer, pipelines: dict[int, float],
                  untraced_pipeline_s: Sequence[float]) -> dict[str, float]:
    """Medians over traced requests of every per-layer metric.

    ``pipelines`` maps each traced request id to its pipeline_s.
    """
    selfs = self_times(tracer.spans)
    by_request: dict[int, list[int]] = {r: [] for r in pipelines}
    for i, span in enumerate(tracer.spans):
        if span[REQUEST] in by_request:
            by_request[span[REQUEST]].append(i)
    per_request = [
        request_metrics([tracer.spans[i] for i in idx], [selfs[i] for i in idx],
                        tracer.counters.get(request, {}), pipelines[request])
        for request, idx in by_request.items()
    ]
    out = {key: statistics.median(r[key] for r in per_request) for key in per_request[0]}
    durations = [(s[END] - s[START]) * 1e6 for s in tracer.spans
                 if s[NAME] == "game.round_distribution" and s[REQUEST] in pipelines]
    out["game.round_distribution.p50_us"] = percentile(durations, 50) if durations else 0.0
    out["game.round_distribution.p99_us"] = percentile(durations, 99) if durations else 0.0
    out["trace.overhead_s"] = (statistics.median(pipelines.values())
                               - statistics.median(untraced_pipeline_s))
    out["trace.exceptions"] = sum(tracer.exceptions.values())
    return out

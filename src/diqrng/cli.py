"""Command-line interface.

Subcommands: play, certify, qrng, extract, test, fit-noise, report.
Every command is deterministic given its flags and seeds: reruns produce
byte-identical files.  Exit codes: 0 success, 1 test-battery failure,
2 certification not violated, 64 usage error, 65 data-format error
(including a numeric failure of the extraction kernel), 74 I/O error.
DIQRNG_OUT_DIR sets the default output directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from typing import Sequence

import numpy as np

from . import __version__
from .certify import (DEFAULT_THRESHOLD_Z, Certificate, Verdict, certificate_text,
                      certified_rate, certify)
from .game import ConfigError
from .harness import (
    LOOPHOLE_FIELDS,
    ExperimentConfig,
    emit_reports,
    fit_lambda,
    get_device_profile,
    read_rounds_csv,
    run_certified_experiment,
    run_summary,
    save_counts_record,
    write_rounds_csv,
)
from .io import atomic_write_text, canonical_json, round_sig
from .randomness import (
    BATTERY_TESTS,
    DEFAULT_BLOCK_LEN,
    DEFAULT_SECURITY_MARGIN,
    hadamard_circuit,
    indices_to_bits,
    load_bits_packed,
    load_bits_text,
    parity_state,
    qrng_indices,
    run_battery,
    save_bits_packed,
    save_bits_text,
    toeplitz_extract,
    toeplitz_seed_bits,
    von_neumann,
)
from .rng import SourceDepleted
from .simulator import DataFormatError, DataIntegrityError, record_from_indices

EXIT_OK = 0
EXIT_TEST_FAIL = 1
EXIT_NOT_VIOLATED = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_IO = 74

ENV_OUT_DIR = "DIQRNG_OUT_DIR"
OUT_DIR_HELP = f"output directory (default ${ENV_OUT_DIR} or .)"

# play's flags whose dest is the ExperimentConfig field they override
_PLAY_FIELDS = ("rounds", "shots", "lam", "master_seed", "threshold_z", *LOOPHOLE_FIELDS)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 64 on usage errors (argparse default is 2)."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _default_out_dir() -> str:
    return os.environ.get(ENV_OUT_DIR, ".")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _unit_float(text: str) -> float:
    value = float(text)
    if not (0.0 <= value <= 1.0):
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {value}")
    return value


def _seed64(text: str) -> int:
    """A seed used directly as a Philox key, so it must fit 64 bits."""
    value = int(text)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"must be in [0, 2**64), got {value}")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="diqrng", description=__doc__.splitlines()[0] if __doc__ else None)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", parser_class=_Parser)
    sub.required = True

    p = sub.add_parser("play",
                       help="play seeded or replayed rounds and certify them")
    p.add_argument("--rounds", type=_positive_int, default=None, help="rounds to play (default 100)")
    p.add_argument("--shots", type=_positive_int, default=None, help="shots per round (default 1000)")
    p.add_argument("--lambda", dest="lam", type=_unit_float, default=None,
                   help="depolarizing level in [0,1]")
    p.add_argument("--profile", default=None,
                   help="device profile name; sets lambda from its fitted value")
    p.add_argument("--seed", dest="master_seed", type=int, default=None, metavar="SEED",
                   help="master seed (default 0)")
    p.add_argument("--threshold-z", type=_finite_float, default=None,
                   help=f"certification z threshold (default {DEFAULT_THRESHOLD_Z:g})")
    p.add_argument("--config", default=None, help="experiment config JSON to start from")
    p.add_argument("--replay-x", nargs="+", default=None, metavar="FILE",
                   help="counts-record files replayed for Alice's inputs")
    p.add_argument("--replay-y", nargs="+", default=None, metavar="FILE",
                   help="counts-record files replayed for Bob's inputs")
    p.add_argument("--efficiency", dest="detection_efficiency", type=float, default=None,
                   metavar="EFFICIENCY", help="per-party detection efficiency in (0,1] (default 1)")
    p.add_argument("--report-all-events", action="store_const", const=True, default=None,
                   help="also record win fractions over every emitted pair, "
                        "undetected shots scored by their true outcome")
    p.add_argument("--dependent-inputs", dest="independent_inputs", action="store_const",
                   const=False, default=None,
                   help="leave the input-independence loophole open (one stream for x and y)")
    p.add_argument("--stale-state", dest="fresh_state_per_round", action="store_const",
                   const=False, default=None,
                   help="leave the memory loophole open (one stream across rounds)")
    p.add_argument("--out-dir", default=None, help=OUT_DIR_HELP)
    p.set_defaults(func=cmd_play)

    p = sub.add_parser("certify",
                       help="recompute a certificate from a rounds table")
    p.add_argument("--rounds-csv", required=True, help="rounds.csv from a previous play")
    p.add_argument("--threshold-z", type=_finite_float, default=DEFAULT_THRESHOLD_Z)
    p.add_argument("--out", default=None, help="certificate JSON path (default: print)")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("qrng",
                       help="sample raw bit streams from a seeded pipeline")
    p.add_argument("--mode", choices=("hadamard", "parity"), required=True)
    p.add_argument("--qubits", type=_positive_int, required=True)
    p.add_argument("--shots", type=_positive_int, required=True)
    p.add_argument("--seed", type=_seed64, default=0)
    p.add_argument("--out", required=True, metavar="BASE",
                   help="output basename; writes BASE.txt (one line per shot) and BASE.bin")
    p.add_argument("--counts-out", default=None, metavar="FILE",
                   help="also write the counts record (with per-shot memory) as JSON")
    p.set_defaults(func=cmd_qrng)

    p = sub.add_parser("extract",
                       help="debias or hash a recorded bit stream")
    p.add_argument("--in", dest="infile", required=True, help="input .txt or .bin bit stream")
    p.add_argument("--bits", type=_positive_int, default=None,
                   help="use only the first N input bits (trims .bin padding)")
    p.add_argument("--method", choices=("von-neumann", "toeplitz"), required=True)
    p.add_argument("--out", required=True, metavar="BASE",
                   help="output basename; writes BASE.txt and BASE.bin")
    p.add_argument("--out-len", type=_positive_int, default=None,
                   help="toeplitz output length")
    p.add_argument("--extractor-seed", type=_seed64, default=None,
                   help="seed for generating the toeplitz seed bits")
    p.add_argument("--seed-file", default=None,
                   help="text file holding the toeplitz seed bits")
    p.add_argument("--rate", type=_unit_float, default=None,
                   help="certified min-entropy rate bounding the output length")
    p.add_argument("--certificate", default=None,
                   help="certificate JSON supplying the min-entropy rate")
    p.add_argument("--security-margin", type=int, default=DEFAULT_SECURITY_MARGIN)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("test",
                       help="run the statistical test battery on a bit stream")
    p.add_argument("--in", dest="infile", required=True, help="input .txt or .bin bit stream")
    p.add_argument("--bits", type=_positive_int, default=None,
                   help="use only the first N input bits (trims .bin padding)")
    p.add_argument("--tests", default=",".join(BATTERY_TESTS),
                   help=f"comma-separated subset of {','.join(BATTERY_TESTS)}")
    p.add_argument("--block-len", type=_positive_int, default=DEFAULT_BLOCK_LEN)
    p.add_argument("--report", default=None, help="write the report array as JSON here")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("fit-noise",
                       help="closed-form depolarizing fit for a target win average")
    p.add_argument("--target", type=float, required=True)
    p.set_defaults(func=cmd_fit_noise)

    p = sub.add_parser("report",
                       help="emit running-average, histogram, density, and summary files")
    p.add_argument("--rounds-csv", required=True)
    p.add_argument("--label", default="experiment")
    p.add_argument("--out-dir", default=None, help=OUT_DIR_HELP)
    p.set_defaults(func=cmd_report)

    return parser


# ============================================================
# command bodies
# ============================================================

def _load_stream(path: str, n_bits: int | None) -> np.ndarray:
    if path.endswith(".txt"):
        return load_bits_text(path, n_bits)
    if path.endswith(".bin"):
        return load_bits_packed(path, n_bits)
    raise DataFormatError(f"{path}: expected a .txt or .bin bit stream")


def cmd_play(args) -> int:
    config = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    if args.lam is not None and args.profile:
        raise ConfigError("--lambda and --profile are mutually exclusive")
    updates = {name: getattr(args, name) for name in _PLAY_FIELDS
               if getattr(args, name) is not None}
    profile = None
    if args.profile:
        profile = get_device_profile(args.profile)
        updates["lam"] = profile.fitted_lambda
    if args.replay_x or args.replay_y:
        updates["replay_x"] = tuple(args.replay_x or ())
        updates["replay_y"] = tuple(args.replay_y or ())
    config = dataclasses.replace(config, **updates)
    run = run_certified_experiment(config)
    out_dir = args.out_dir or _default_out_dir()
    os.makedirs(out_dir, exist_ok=True)

    write_rounds_csv(os.path.join(out_dir, "rounds.csv"), run.experiment)
    atomic_write_text(os.path.join(out_dir, "certificate.json"),
                      certificate_text(run.certificate))
    summary = run_summary(run.experiment, args.profile or "experiment")
    summary.update({
        "shots_per_round": config.shots,
        "lambda": config.lam,
        "master_seed": config.master_seed,
        "verdict": run.certificate.verdict.value,
        "loopholes": {**{name: getattr(config, name) for name in LOOPHOLE_FIELDS},
                      "spacelike_separation": "open (single-process simulation)"},
    })
    if profile is not None:
        summary["avg_win_target"] = profile.avg_win_target
    if config.detection_efficiency < 1.0:
        summary["detected_fraction"] = (run.experiment.total_shots()
                                        / (config.rounds * config.shots))
    # present only with report_all_events, and only if some round kept a shot
    if run.all_event_win_fractions.size:
        summary["all_event_p_avg"] = float(run.all_event_win_fractions.mean())
    atomic_write_text(os.path.join(out_dir, "summary.json"),
                      canonical_json(summary) + "\n")
    save_bits_text(os.path.join(out_dir, "alice_bits.txt"), run.alice_bits)
    save_bits_packed(os.path.join(out_dir, "alice_bits.bin"), run.alice_bits)

    print(f"{_verdict_line(run.certificate)} bits={len(run.alice_bits)} out={out_dir}")
    return EXIT_OK if run.certificate.verdict is Verdict.CERTIFIED else EXIT_NOT_VIOLATED


def _fmt(x: float | None) -> str:
    if x is None:
        return "n/a"
    return f"{round_sig(x):g}"  # infinities pass round_sig and print as inf, -inf


def _verdict_line(cert: Certificate) -> str:
    return (f"verdict={cert.verdict.value} p_win={_fmt(cert.p_win)} s={_fmt(cert.s)} "
            f"z={_fmt(cert.z)} min_entropy_rate={_fmt(cert.min_entropy_rate)}")


def cmd_certify(args) -> int:
    experiment = read_rounds_csv(args.rounds_csv)
    cert = certify(experiment, args.threshold_z)
    text = certificate_text(cert)
    if args.out:
        atomic_write_text(args.out, text)
    print(_verdict_line(cert))
    if not args.out:
        sys.stdout.write(text)
    return EXIT_OK if cert.verdict is Verdict.CERTIFIED else EXIT_NOT_VIOLATED


def cmd_qrng(args) -> int:
    n = args.qubits
    gates = hadamard_circuit(n) if args.mode == "hadamard" else parity_state(n)
    idx = qrng_indices(gates, n, args.shots, args.seed)
    flat = indices_to_bits(idx, n).reshape(-1)
    save_bits_text(args.out + ".txt", flat, line_width=n)
    save_bits_packed(args.out + ".bin", flat)
    if args.counts_out:
        rec = record_from_indices(idx, n, memory=True,
                                  metadata={"mode": args.mode, "seed": args.seed})
        save_counts_record(args.counts_out, rec)
    print(f"wrote {flat.size} bits ({args.shots} shots x {n} qubits) to "
          f"{args.out}.txt and {args.out}.bin")
    return EXIT_OK


def cmd_extract(args) -> int:
    stream = _load_stream(args.infile, args.bits)
    if args.method == "von-neumann":
        out = von_neumann(stream)
    else:
        if args.out_len is None:
            raise ConfigError("toeplitz extraction needs --out-len")
        if (args.extractor_seed is None) == (args.seed_file is None):
            raise ConfigError("provide exactly one of --extractor-seed or --seed-file")
        rate = args.rate
        if args.certificate:
            if rate is not None:
                raise ConfigError("--rate and --certificate are mutually exclusive")
            rate = certified_rate(args.certificate)
        need = len(stream) + args.out_len - 1
        if args.seed_file:
            seed_bits = load_bits_text(args.seed_file)
        else:
            seed_bits = toeplitz_seed_bits(len(stream), args.out_len, args.extractor_seed)
        if seed_bits.size != need:
            raise DataFormatError(
                f"seed bits: need {need} (in_len + out_len - 1), got {seed_bits.size}")
        out = toeplitz_extract(stream, seed_bits, args.out_len,
                               min_entropy_rate=rate,
                               security_margin=args.security_margin)
    if len(out) == 0:
        print("extraction produced no bits (all input pairs were equal)")
        return EXIT_OK
    save_bits_text(args.out + ".txt", out)
    save_bits_packed(args.out + ".bin", out)
    print(f"wrote {len(out)} bits to {args.out}.txt and {args.out}.bin")
    return EXIT_OK


def cmd_test(args) -> int:
    stream = _load_stream(args.infile, args.bits)
    names = [t.strip() for t in args.tests.split(",") if t.strip()]
    if not names:
        raise ConfigError("no tests selected")
    reports = run_battery(stream, names, block_len=args.block_len)
    text = canonical_json([r.to_json_obj() for r in reports]) + "\n"
    if args.report:
        atomic_write_text(args.report, text)
    for r in reports:
        print(f"{r.test_name}: statistic={_fmt(r.statistic)} p={_fmt(r.p_value)} "
              f"{'PASS' if r.passed else 'FAIL'}")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_TEST_FAIL


def cmd_fit_noise(args) -> int:
    lam = fit_lambda(args.target)
    print(f"{round_sig(lam):g}")
    return EXIT_OK


def cmd_report(args) -> int:
    experiment = read_rounds_csv(args.rounds_csv)
    out_dir = args.out_dir or _default_out_dir()
    paths = emit_reports(experiment, out_dir, label=args.label)
    for name in sorted(paths):
        print(f"{name}: {paths[name]}")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse help/version exit 0; usage errors exit 64 via _Parser
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DataFormatError, DataIntegrityError, SourceDepleted) as exc:
        print(f"diqrng: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FloatingPointError as exc:
        print(f"diqrng: numeric error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ConfigError, ValueError, KeyError) as exc:
        print(f"diqrng: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"diqrng: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

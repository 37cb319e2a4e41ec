"""End-to-end benchmark of the diqrng pipeline: play -> extract -> test.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload many_rounds --seed 1 --seconds 35 --trace 0

One process, one client, closed loop: the benchmark imports ``diqrng``
from ``src/`` and calls the CLI entry point ``diqrng.cli.main`` in-process,
each command after the previous one returns, for as many passes of the
workload as fit in ``--seconds``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics of the traced ones.  Every pass must write the same
files byte for byte; at the default seed they must also match the sha256
digests recorded in ``perfbench/digests.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when the outputs are correct and no command failed; without a
``src/diqrng`` package next to ``perfbench/`` it is 2 and nothing is printed
on standard output.  Full results, machine facts and spans go to
``.perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# thread pools are pinned before numpy loads: the load is one client on one
# thread, so no BLAS/OpenMP pool may compete with it
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

import probes  # noqa: E402
from tracer import Tracer, percentile, tail_percentile  # noqa: E402
from workloads import WORKLOADS, CheckFailed, command_failed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
DIGESTS = os.path.join(HERE, "digests.json")

DEFAULT_SEED = 1
SETUP_RUNS = 5          # timed fresh-interpreter imports per run, after one warm-up
MIN_PASSES = {0: 3, 1: 2}
HARD_LIMIT_S = 130.0    # no pass starts if it would end past this; runs must end within 180 s

SETUP_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import diqrng.cli\n"
    "diqrng.cli.build_parser()\n"
    "print(repr(time.perf_counter() - t0))\n"
)


class SetupError(Exception):
    """The checkout does not hold a diqrng package to benchmark."""


def load_program():
    """Import diqrng from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "diqrng", "cli.py")):
        raise SetupError(f"no diqrng package under {SRC}")
    sys.path.insert(0, SRC)
    import diqrng
    import diqrng.cli
    if os.path.dirname(os.path.abspath(diqrng.__file__)) != os.path.join(SRC, "diqrng"):
        raise SetupError(f"imported diqrng from {diqrng.__file__}, not from {SRC}")
    return diqrng


@dataclass
class Pass:
    """One run of a workload's command chain."""

    request: int
    traced: bool
    pipeline_s: float = 0.0
    play_s: float = 0.0
    out_bits: int = 0
    commands: list[dict] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(c["failed"] for c in self.commands)


def call_cli(cli, argv: list[str]) -> tuple[int | None, str | None]:
    """Run one command in-process; returns (exit code, traceback or stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:
        return None, traceback.format_exc()
    return code, err.getvalue() or None


def digest_tree(top: str) -> dict[str, str]:
    out = {}
    for dirpath, _, files in os.walk(top):
        for name in files:
            path = os.path.join(dirpath, name)
            h = hashlib.sha256()
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
            out[os.path.relpath(path, top)] = h.hexdigest()
    return dict(sorted(out.items()))


def count_bits(path: str) -> int:
    with open(path, "rb") as fh:
        data = fh.read()
    return data.count(b"0") + data.count(b"1")


def run_pass(cli, workload, request: int, traced: bool) -> Pass:
    shutil.rmtree(workload.work, ignore_errors=True)
    os.makedirs(workload.work)
    gc.collect()
    record = Pass(request, traced)
    steps = workload.steps()
    start = time.perf_counter()
    for step in steps:
        argv = step.argv()
        t0 = time.perf_counter()
        code, detail = call_cli(cli, argv)
        t1 = time.perf_counter()
        failed = command_failed(step.command, code, code is None)
        record.commands.append({"command": step.command, "exit": code, "s": t1 - t0,
                                "failed": failed, "detail": detail if failed else None})
        if step.command == "play":
            record.play_s = t1 - t0
        if failed:
            print(f"perfbench: {' '.join(argv)} failed (exit {code}):\n{detail}", file=sys.stderr)
            break
    record.pipeline_s = time.perf_counter() - start
    if not record.failed:
        record.out_bits = count_bits(workload.final_stream())
        record.digests = digest_tree(workload.work)
    return record


def keep_going(passes: list[Pass], elapsed: float, seconds: float, min_passes: int) -> bool:
    """Start another pass while it is expected to end within the time given."""
    if not passes:
        return True
    if passes[-1].failed:
        return False
    expected = elapsed + elapsed / len(passes)
    if expected > HARD_LIMIT_S:
        return False
    return len(passes) < min_passes or expected <= seconds


def measure_setup() -> list[float]:
    """Fresh-interpreter time to import diqrng and build the CLI parser."""
    times = []
    for i in range(SETUP_RUNS + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE, SRC], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        if i:  # the first run writes bytecode caches, which users pay once
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown (git not available)"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def machine_facts(diqrng) -> dict:
    backend = getattr(diqrng, "backend", None)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "diqrng_backend": backend() if callable(backend) else "n/a",
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "thread_limits": {var: os.environ.get(var) for var in THREAD_VARS},
        "scheme": scheme_of(diqrng),
        "git_commit": git_commit(),
        "load": "closed loop, one client: one process runs each command after the previous one ends",
        "file_cache": ("not dropped (no permission in this sandbox): reads of just-written "
                       "files hit the page cache, so no real disk behaviour is measured"),
    }


def scheme_of(diqrng) -> str:
    rng = getattr(diqrng, "rng", None)
    return getattr(rng, "SCHEME", "unknown")


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def check_digests(passes: list[Pass], workload: str, seed: int, scheme: str) -> list[str]:
    """Problems with the digests: passes that disagree, or a recorded mismatch."""
    problems = []
    first = passes[0].digests
    for p in passes[1:]:
        if p.digests != first:
            kind = "traced" if p.traced != passes[0].traced else "repeated"
            problems.append(f"pass {p.request} ({kind}) wrote different files than pass 0: "
                            f"{sorted(k for k in first.keys() | p.digests.keys() if first.get(k) != p.digests.get(k))}")
    if seed == DEFAULT_SEED:
        recorded = load_digests().get(scheme, {}).get("workloads", {}).get(workload)
        if recorded is None:
            problems.append(f"no digests recorded for {workload} under scheme {scheme!r}")
        elif recorded != first:
            diff = sorted(k for k in recorded.keys() | first.keys() if recorded.get(k) != first.get(k))
            problems.append(f"digests differ from {os.path.relpath(DIGESTS, ROOT)}: {diff}; "
                            f"this run's digests are under \"digests\" in its details file")
    return problems


def spec_metrics(trace: int) -> dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def summarize(name: str, values: list[float], unit: str) -> str:
    tail = tail_percentile(len(values))
    tail_text = (f", p{tail:g}={percentile(values, tail):.6g}" if tail
                 else ", no tail percentile (fewer than 20 samples)")
    return f"  {name:<16} {statistics.median(values):>14.6g} {unit:<6} median of {len(values)}{tail_text}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        diqrng = load_program()
    except (SetupError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    cli = diqrng.cli

    os.chdir(ROOT)  # CLI paths are relative, so outputs do not depend on the checkout's location
    units = spec_metrics(args.trace)
    scheme = scheme_of(diqrng)
    results_dir = os.path.join(OUT, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    workload = WORKLOADS[args.workload](args.seed, os.path.relpath(os.path.join(OUT, "work", args.workload), ROOT))

    setup = measure_setup() if args.trace == 0 else []
    tracer = Tracer()
    problems: list[str] = []
    passes: list[Pass] = []
    start = time.perf_counter()
    while keep_going(passes, time.perf_counter() - start, args.seconds, MIN_PASSES[args.trace]):
        traced = args.trace == 1 and len(passes) % 2 == 1
        try:
            if traced:
                tracer.begin(len(passes))
                probes.install(tracer)
            passes.append(run_pass(cli, workload, len(passes), traced))
        except probes.MissingProbe as exc:
            problems.append(str(exc))
            break
        finally:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = sum(len(p.commands) for p in passes)
    failed = sum(p.failed for p in passes)
    if not failed:
        problems += check_digests(passes, args.workload, args.seed, scheme)
        try:
            workload.check()
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            problems.append(f"output check: {exc}")
    if args.trace == 1 and not problems and not any(p.traced for p in passes):
        problems.append(f"no traced pass fitted within {HARD_LIMIT_S:g} s")
    correct = not failed and not problems

    untraced = [p for p in passes if not p.traced]
    samples: dict[str, list[float]] = {}
    if args.trace == 0:
        samples = {
            "pipeline_s": [p.pipeline_s for p in untraced],
            "play_s": [p.play_s for p in untraced],
            "out_bits_per_s": [p.out_bits / p.pipeline_s for p in untraced],
            "peak_rss_mb": [peak_rss_mb],
            "setup_s": setup,
        }
        metrics = {k: statistics.median(v) for k, v in samples.items()}
    elif correct:
        traced_pipelines = {p.request: p.pipeline_s for p in passes if p.traced}
        metrics = probes.layer_metrics(tracer, traced_pipelines, [p.pipeline_s for p in untraced])
    else:
        metrics = {}
    if correct and set(metrics) != set(units):
        problems.append(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
        correct = False

    facts = machine_facts(diqrng)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": facts, "correct": correct, "problems": problems,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "samples": samples, "metrics": metrics,
        "exceptions_by_layer": dict(tracer.exceptions),
        "passes": [{"request": p.request, "traced": p.traced, "pipeline_s": p.pipeline_s,
                    "play_s": p.play_s, "out_bits": p.out_bits, "commands": p.commands}
                   for p in passes],
        "digests": passes[0].digests if passes else {},
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    if tracer.spans:
        tracer.write(stem + "-spans.csv.gz")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {len(passes)} passes, "
          f"nproc={facts['nproc']} python={facts['python']} numpy={facts['numpy']} "
          f"scipy={facts['scipy']} backend={facts['diqrng_backend']} "
          f"numba={facts['numba_importable']} commit={facts['git_commit'][:12]}")
    for name, values in samples.items():
        print(summarize(name, values, units.get(name, "")))
    if args.trace == 1:
        for name in units:
            if name in metrics:
                print(f"  {name:<36} {metrics[name]:>14.6g} {units[name]}")
    print(f"  {'failed_frac':<16} {detail['failed_frac']:>14.6g} {'ratio':<6} "
          f"{failed} of {attempted} commands failed")
    for problem in problems:
        print(f"  INCORRECT: {problem}")
    print(f"  details: {os.path.relpath(stem, ROOT)}.json")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

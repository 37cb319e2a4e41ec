"""Self-tests for the benchmark's own arithmetic.

Run from the repository root with ``python3 -m pytest perfbench -q``.
They need neither diqrng nor a benchmark run.
"""

import itertools
import types

import pytest

import probes
from probes import Probe, request_metrics
from tracer import Tracer, percentile, self_times, tail_percentile, union_length
from workloads import command_failed


# ---- the percentile rule: the highest percentile with ten samples beyond it

@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10_000, 99.9), (100_000, 99.99), (10**6, 99.999),
])
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_tail_percentile_really_has_ten_beyond():
    for n in (20, 137, 1000, 12_345):
        values = list(range(n))
        p = tail_percentile(n)
        beyond = [v for v in values if v > percentile(values, p)]
        assert len(beyond) >= 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99.9) == 7.0
    assert percentile([3, 1, 2], 50) == 2


# ---- self time with nested spans

def test_union_length_merges_overlaps():
    assert union_length([]) == 0
    assert union_length([(0, 1), (2, 3)]) == 2
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([(0, 10), (2, 3)]) == 10


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.inner", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["b.inner", 5.0, 9.0, 3, 0],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 0.0, 4.0]


def _fake_clock():
    ticks = itertools.count()
    return lambda: float(next(ticks))


def test_tracer_records_nesting_and_self_time():
    tracer = Tracer(clock=_fake_clock())
    mod = types.ModuleType("fake")

    def leaf():
        return 1

    def middle():
        return mod.leaf() + mod.leaf()

    def top():
        return mod.middle()

    mod.leaf, mod.middle, mod.top = leaf, middle, top
    tracer.begin(0)
    for fn, name in ((leaf, "x.leaf"), (middle, "x.middle"), (top, "x.top")):
        assert tracer.patch_function([mod], fn, name) == 1
    assert mod.top() == 2
    tracer.uninstall()
    assert (mod.leaf, mod.middle, mod.top) == (leaf, middle, top)

    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["x.top", "x.middle", "x.leaf", "x.leaf"]
    assert parents == [-1, 0, 1, 1]
    # each clock read is one tick: top spans 0..7, middle 1..6, leaves 2..3 and 4..5
    assert self_times(tracer.spans) == [2.0, 3.0, 1.0, 1.0]


def test_tracer_counts_exceptions_per_layer_and_closes_the_span():
    tracer = Tracer(clock=_fake_clock())
    mod = types.ModuleType("fake")

    def boom():
        raise KeyError("x")

    mod.boom = boom
    tracer.begin(0)
    tracer.patch_function([mod], boom, "io.boom")
    with pytest.raises(KeyError):
        mod.boom()
    with pytest.raises(KeyError):
        mod.boom()
    tracer.uninstall()
    assert tracer.exceptions == {"io": 2}
    assert all(s[2] > s[1] for s in tracer.spans)
    assert tracer._stack == []


def test_tracer_wraps_classmethods_and_restores_them():
    class Record:
        @classmethod
        def load(cls, x):
            return (cls, x)

    original = Record.__dict__["load"]
    tracer = Tracer(clock=_fake_clock())
    tracer.begin(0)
    tracer.patch_method(Record, "load", "simulator.load",
                        hook=lambda c, args, kwargs, result: c.update(n=args[1]))
    assert Record.load(5) == (Record, 5)
    tracer.uninstall()
    assert Record.__dict__["load"] is original
    assert tracer.counters[0] == {"n": 5}
    assert [s[0] for s in tracer.spans] == ["simulator.load"]


def test_unattributed_time_is_pipeline_minus_top_level_spans():
    spans = [["cli.main", 0.0, 1.0, -1, 0], ["cli.play", 0.2, 0.8, 0, 0],
             ["cli.main", 2.0, 2.5, -1, 0]]
    out = request_metrics(spans, self_times(spans), {}, pipeline_s=3.0)
    assert out["trace.unattributed_s"] == pytest.approx(1.5)
    assert out["cli.play.self_s"] == pytest.approx(0.6)


def test_a_missing_probe_fails_the_traced_run(monkeypatch):
    monkeypatch.setattr(probes, "PROBES", (Probe("game.gone", "no_such_module", "gone"),
                                           Probe("io.gone", "no_such_module", "Cls.gone")))
    tracer = Tracer()
    with pytest.raises(probes.MissingProbe, match=r"no_such_module\.gone, no_such_module\.Cls\.gone"):
        probes.install(tracer)
    assert tracer._restore == []


# ---- failure classification

@pytest.mark.parametrize("command, code, raised, failed", [
    ("test", 0, False, False),
    ("test", 1, False, False),      # battery failure is a valid outcome
    ("play", 2, False, False),      # so is "not violated"
    ("certify", 2, False, False),
    ("play", 0, False, False),
    ("extract", 1, False, True),    # exit 1 is only documented for test
    ("extract", 64, False, True),
    ("test", 65, False, True),
    ("play", 74, False, True),
    ("qrng", None, True, True),     # a traceback
    ("test", 0, True, True),
])
def test_command_failed(command, code, raised, failed):
    assert command_failed(command, code, raised) is failed

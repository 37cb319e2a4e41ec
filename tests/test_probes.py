"""Every function the pipeline benchmark's traced run wraps still exists.

``perfbench/probes.py`` names about thirty functions across the diqrng
modules.  A refactor that renames or removes one of them would only show
up when the traced benchmark runs; installing the probes here makes it a
tier-1 failure instead.
"""

from __future__ import annotations

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture
def perfbench_modules(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import probes
    import tracer
    return probes, tracer


def test_every_probed_function_exists_and_is_restored(perfbench_modules):
    probes, tracer = perfbench_modules
    from diqrng import game, harness

    originals = (game.result_from_indices, harness.result_from_indices,
                 game.ExperimentResult.__dict__["from_rounds"])
    t = tracer.Tracer()
    try:
        probes.install(t)
        assert harness.result_from_indices is not originals[1]
    finally:
        t.uninstall()
    assert (game.result_from_indices, harness.result_from_indices,
            game.ExperimentResult.__dict__["from_rounds"]) == originals

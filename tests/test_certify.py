"""Certification-chain tests.

Every frozen constant below was computed from the closed forms with an
independent calculator before being written down here, and the same
formulas are re-evaluated inline (math.erfc-free, plain arithmetic) as a
second route where that is practical.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diqrng.certify import (
    CLASSICAL_S,
    DEFAULT_THRESHOLD_Z,
    TSIRELSON_S,
    Certificate,
    Verdict,
    certificate_text,
    certified_rate,
    certify,
    certify_pooled,
    load_certificate,
    min_entropy_rate,
    s_value,
    violation_significance,
)
from diqrng.harness import ExperimentConfig, run_certified_experiment
from diqrng.io import DataFormatError, atomic_write_text

# frozen reference values (independent evaluation of the closed forms)
S_AT_BELEM_TARGET = 2.3697600000000003          # 8 * 0.79622 - 4
Z_BELEM_1E5 = 36.285458991622896                # (0.79622 - 0.75) / sqrt(p(1-p)/1e5)
Z_MARGINAL = 0.23414645289542368                # (0.76 - 0.75) / sqrt(p(1-p)/100)
RATE_AT_2_4 = 0.19402125944147164               # 1 - log2(1 + sqrt(2 - 1.44))


class TestSValue:
    def test_anchor_points(self):
        assert s_value(0.75) == 2.0
        assert s_value(0.5) == 0.0
        assert s_value(1.0) == 4.0
        assert abs(s_value(0.79622) - S_AT_BELEM_TARGET) < 1e-15

    def test_tsirelson_point(self):
        p_ideal = math.cos(math.pi / 8) ** 2
        assert abs(s_value(p_ideal) - TSIRELSON_S) < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            s_value(-0.1)
        with pytest.raises(ValueError):
            s_value(1.1)


class TestViolationSignificance:
    def test_frozen_values(self):
        assert abs(violation_significance(0.79622, 100_000) - Z_BELEM_1E5) < 1e-9
        assert abs(violation_significance(0.76, 100) - Z_MARGINAL) < 1e-12

    def test_zero_at_classical_point(self):
        assert violation_significance(0.75, 10_000) == 0.0

    def test_matches_inline_formula_on_random_inputs(self):
        rng = np.random.default_rng(60)
        for _ in range(20):
            p = float(rng.uniform(0.01, 0.99))
            n = int(rng.integers(1, 10**6))
            want = (p - 0.75) / math.sqrt(p * (1 - p) / n)
            assert violation_significance(p, n) == pytest.approx(want, abs=1e-12)

    def test_degenerate_inputs_are_signed_infinities(self):
        assert violation_significance(1.0, 100) == math.inf
        assert violation_significance(0.0, 100) == -math.inf

    def test_underflowing_variance_is_a_signed_infinity(self):
        # p * (1 - p) / n rounds to 0.0 here; dividing by its root would raise
        assert violation_significance(5e-324, 10**12) == -math.inf
        assert certify_pooled(5e-324, 10**12).z == -math.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            violation_significance(0.8, 0)
        with pytest.raises(ValueError):
            violation_significance(1.2, 10)


class TestMinEntropyRate:
    def test_classical_point_is_exactly_zero(self):
        assert min_entropy_rate(2.0) == 0.0
        assert min_entropy_rate(CLASSICAL_S) == 0.0

    def test_below_classical_is_zero(self):
        for s in (0.0, 1.0, 1.999, -2.0):
            assert min_entropy_rate(s) == 0.0

    def test_tsirelson_point_is_one(self):
        assert abs(min_entropy_rate(TSIRELSON_S) - 1.0) < 1e-9

    def test_frozen_interior_value(self):
        assert abs(min_entropy_rate(2.4) - RATE_AT_2_4) < 1e-12

    def test_symmetric_in_sign(self):
        assert min_entropy_rate(-2.4) == pytest.approx(min_entropy_rate(2.4), abs=0)

    def test_monotone_on_violation_interval(self):
        grid = np.linspace(2.0, TSIRELSON_S, 100)
        rates = [min_entropy_rate(float(s)) for s in grid]
        assert all(b >= a for a, b in zip(rates, rates[1:]))
        assert rates[0] == 0.0
        assert rates[-1] == pytest.approx(1.0, abs=1e-9)

    def test_beyond_quantum_bound_is_domain_error(self):
        with pytest.raises(ValueError, match="quantum bound"):
            min_entropy_rate(TSIRELSON_S + 1e-9)
        with pytest.raises(ValueError, match="quantum bound"):
            min_entropy_rate(-3.0)


class TestCertifyPooled:
    def test_certified_case(self):
        cert = certify_pooled(0.79622, 100_000)
        assert cert.verdict is Verdict.CERTIFIED
        assert cert.s == pytest.approx(S_AT_BELEM_TARGET, abs=1e-15)
        assert cert.z == pytest.approx(Z_BELEM_1E5, abs=1e-9)
        assert cert.min_entropy_rate == pytest.approx(
            min_entropy_rate(S_AT_BELEM_TARGET), abs=0)
        assert cert.threshold_z == DEFAULT_THRESHOLD_Z

    def test_marginal_violation_is_not_certified(self):
        # z ~ 0.23 at n=100 stays far below the default threshold of 5
        cert = certify_pooled(0.76, 100)
        assert cert.verdict is Verdict.NOT_VIOLATED
        assert cert.z == pytest.approx(Z_MARGINAL, abs=1e-12)

    def test_classical_point_fails_even_at_zero_threshold(self):
        # s = 2 exactly does not violate at any n: its z is 0, which only a
        # threshold of 0 would let through, and the threshold is fixed at 5
        for n in (1, 10**6, 10**12):
            cert = certify_pooled(0.75, n)
            assert cert.z == 0.0 and cert.s == CLASSICAL_S
            assert cert.verdict is Verdict.NOT_VIOLATED
            assert cert.min_entropy_rate == 0.0

    def test_losing_run_rate_is_zero(self):
        cert = certify_pooled(0.3, 1000)
        assert cert.verdict is Verdict.NOT_VIOLATED
        assert cert.min_entropy_rate == 0.0
        assert cert.s == pytest.approx(8 * 0.3 - 4, abs=1e-15)

    def test_perfect_run_rate_clips_at_one(self):
        # p = 1 gives s = 4, past the quantum bound; the reported rate is
        # evaluated at the bound rather than raising
        cert = certify_pooled(1.0, 1000)
        assert cert.z == math.inf
        assert cert.min_entropy_rate == pytest.approx(1.0, abs=1e-9)
        assert cert.verdict is Verdict.CERTIFIED

    def test_insufficient_data(self):
        cert = certify_pooled(0.9, 0)
        assert cert.verdict is Verdict.INSUFFICIENT_DATA
        assert cert.p_win is None and cert.s is None and cert.z is None
        assert cert.min_entropy_rate is None
        assert cert.n == 0

    def test_threshold_is_respected(self):
        # at p = 0.8, z = 0.125 * sqrt(n): 1599 shots fall just short of 5, 1601 clear it
        below, above = certify_pooled(0.8, 1599), certify_pooled(0.8, 1601)
        z = DEFAULT_THRESHOLD_Z
        assert z - 0.01 < below.z < z < above.z < z + 0.01
        assert below.verdict is Verdict.NOT_VIOLATED and below.min_entropy_rate == 0.0
        assert above.verdict is Verdict.CERTIFIED and above.min_entropy_rate > 0.0
        assert below.threshold_z == above.threshold_z == DEFAULT_THRESHOLD_Z


def _save(path, cert: Certificate):
    atomic_write_text(path, certificate_text(cert))
    return path


# a JSON value of each kind, to stand in for a stored field
_json_values = st.one_of(st.none(), st.booleans(), st.integers(),
                         st.floats(allow_infinity=False), st.text(max_size=12),
                         st.sampled_from([v.value for v in Verdict] + ["inf", "-inf"]))


class TestCertificate:
    def test_consistency_check(self, tmp_path):
        # the loader, not the constructor, refuses an s that p_win does not give
        path = _save(tmp_path / "c.json", dataclasses.replace(certify_pooled(0.8, 10), s=2.0))
        with pytest.raises(DataFormatError, match="bad certificate"):
            load_certificate(path)

    def test_json_round_trip_is_exact(self, tmp_path):
        cert = certify_pooled(0.82448, 100_000)
        assert load_certificate(_save(tmp_path / "c.json", cert)) == cert

    def test_marginal_violation_round_trips(self, tmp_path):
        # s - 2 = 8*(p - 3/4) carries fewer leading digits than p itself, so
        # a rounding serializer would break the re-issued comparison; the
        # precise writer must not
        cert = certify_pooled(0.750001, 10**6)
        assert load_certificate(_save(tmp_path / "c.json", cert)) == cert

    def test_infinite_z_survives_canonical_json(self, tmp_path):
        cert = certify_pooled(1.0, 50)
        assert '"inf"' in certificate_text(cert)
        back = load_certificate(_save(tmp_path / "c.json", cert))
        assert back.z == math.inf

    @settings(deadline=None, max_examples=200)
    @given(p=st.one_of(st.sampled_from([0.0, 0.75, 1.0]), st.floats(0.0, 1.0)),
           n=st.one_of(st.just(0), st.integers(1, 10**12)))
    def test_save_then_load_gives_back_the_certificate(self, p, n):
        cert = certify_pooled(p, n)
        with tempfile.TemporaryDirectory() as d:
            assert load_certificate(_save(os.path.join(d, "c.json"), cert)) == cert

    @settings(deadline=None, max_examples=300)
    @given(p=st.one_of(st.sampled_from([0.0, 0.75, 1.0]), st.floats(0.0, 1.0)),
           n=st.one_of(st.just(0), st.integers(1, 10**12)),
           field=st.sampled_from(["s", "z", "min_entropy_rate", "verdict", "threshold_z"]),
           value=_json_values)
    def test_any_one_forged_field_is_refused(self, p, n, field, value):
        cert = certify_pooled(p, n)
        obj = json.loads(certificate_text(cert))
        assume(type(value) is not type(obj[field]) or value != obj[field])
        obj[field] = value
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "c.json")
            atomic_write_text(path, json.dumps(obj))
            with pytest.raises(DataFormatError, match="bad certificate"):
                load_certificate(path)

    @pytest.mark.parametrize("field", [
        {"n": 1000.0}, {"n": True}, {"threshold_z": math.inf}, {"threshold_z": "5"},
        {"threshold_z": 0.0}, {"threshold_z": 5}, {"p_win": "0.8"}, {"p_win": None},
        {"extra": 1},
    ], ids=["n-float", "n-bool", "threshold-infinite", "threshold-string",
            "threshold-zero", "threshold-int", "p-string", "p-null", "extra-field"])
    def test_malformed_inputs_are_refused(self, tmp_path, field):
        obj = {**json.loads(certificate_text(certify_pooled(0.85, 1000))), **field}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(DataFormatError, match="bad certificate"):
            load_certificate(path)

    def test_only_certified_authorises_a_rate(self, tmp_path):
        cert = certify_pooled(0.85, 10_000)
        assert cert.verdict is Verdict.CERTIFIED
        assert certified_rate(_save(tmp_path / "ok.json", cert)) == cert.min_entropy_rate
        for p, n in ((0.7, 10_000), (0.85, 0)):
            path = _save(tmp_path / "no.json", certify_pooled(p, n))
            with pytest.raises(DataFormatError, match="only a CERTIFIED"):
                certified_rate(path)


class TestCertifyExperiment:
    def test_ideal_experiment_is_certified(self):
        exp = run_certified_experiment(
            ExperimentConfig(rounds=20, shots=500, master_seed=2)).experiment
        cert = certify(exp)
        assert cert.verdict is Verdict.CERTIFIED
        assert cert.n == 10_000
        assert cert.p_win == pytest.approx(exp.pooled_win_fraction(), abs=0)

    def test_fully_depolarized_experiment_is_not(self):
        exp = run_certified_experiment(
            ExperimentConfig(rounds=10, shots=500, lam=1.0, master_seed=2)).experiment
        cert = certify(exp)
        assert cert.verdict is Verdict.NOT_VIOLATED
        assert cert.min_entropy_rate == 0.0

    def test_wrapper_agrees_with_pooled(self):
        exp = run_certified_experiment(
            ExperimentConfig(rounds=5, shots=300, master_seed=14)).experiment
        a = certify(exp)
        b = certify_pooled(exp.pooled_win_fraction(), exp.total_shots())
        assert a == b

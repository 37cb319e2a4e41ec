"""Randomness certification from game statistics.

The chain is: pooled win probability -> correlation value s = 8*p - 4 ->
(a) significance z of the gap above the classical ceiling 3/4 under the
binomial null, and (b) a certified min-entropy rate per output bit,
max(0, 1 - log2(1 + sqrt(2 - s^2/4))).  The rate is 0 at or below the
classical point s = 2 and reaches 1 at the maximal quantum value
s = 2*sqrt(2).  A run is CERTIFIED only when z clears the threshold
(default 5) and s exceeds 2, and only a CERTIFIED certificate carries that
rate: any other verdict states rate 0.

certificate.json is written, read and gated here only.  Loading re-issues
the certificate from its stored p_win, n and threshold_z and refuses the
file unless every stored field agrees with the re-issued one.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import asdict, dataclass
from typing import Any

from .game import ExperimentResult
from .io import DataFormatError, _json_float, _json_int, canonical_json, load_json

CLASSICAL_S = 2.0
TSIRELSON_S = 2.0 * math.sqrt(2.0)
DEFAULT_THRESHOLD_Z = 5.0


class Verdict(str, enum.Enum):
    CERTIFIED = "CERTIFIED"
    NOT_VIOLATED = "NOT_VIOLATED"
    INSUFFICIENT_DATA = "INSUFFICIENT_DATA"


def s_value(p_win: float) -> float:
    """Correlation value s = 8*p_win - 4 for a uniform-input experiment."""
    if not (0.0 <= p_win <= 1.0):
        raise ValueError(f"p_win must be in [0, 1], got {p_win!r}")
    return 8.0 * p_win - 4.0


def violation_significance(p_win: float, n: int) -> float:
    """Z-score of p_win above 3/4 under the binomial null with n shots.

    Where the estimated variance is zero (p_win in {0, 1}, or so small against
    n that it underflows) the z-score is a signed infinity, the sign of p_win - 3/4.
    """
    if not (0.0 <= p_win <= 1.0):
        raise ValueError(f"p_win must be in [0, 1], got {p_win!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    variance = p_win * (1.0 - p_win) / n
    if variance == 0.0:
        return math.inf if p_win > 0.75 else -math.inf
    return (p_win - 0.75) / math.sqrt(variance)


def min_entropy_rate(s: float) -> float:
    """Certified min-entropy per bit at correlation value s.

    Identically 0 for |s| <= 2, increasing to 1 at |s| = 2*sqrt(2).
    Values beyond the quantum bound are a domain error.
    """
    if abs(s) > TSIRELSON_S:
        raise ValueError(
            f"|s| = {abs(s)!r} exceeds the quantum bound {TSIRELSON_S!r}")
    inner = max(0.0, 2.0 - 0.25 * s * s)
    return max(0.0, 1.0 - math.log2(1.0 + math.sqrt(inner)))


@dataclass(frozen=True)
class Certificate:
    """Certification outcome for one experiment."""

    p_win: float | None
    n: int
    s: float | None
    z: float | None
    min_entropy_rate: float | None
    verdict: Verdict
    threshold_z: float


def certify_pooled(p_win: float, n: int,
                   threshold_z: float = DEFAULT_THRESHOLD_Z) -> Certificate:
    """Certificate from an already-pooled win probability."""
    if n < 1:
        return Certificate(p_win=None, n=0, s=None, z=None, min_entropy_rate=None,
                           verdict=Verdict.INSUFFICIENT_DATA, threshold_z=threshold_z)
    s = s_value(p_win)
    z = violation_significance(p_win, n)
    verdict = (Verdict.CERTIFIED if z >= threshold_z and s > CLASSICAL_S
               else Verdict.NOT_VIOLATED)
    # only a certified run carries a rate; sampling noise can push s past
    # the quantum bound, so the rate is evaluated with s clipped to 2*sqrt(2)
    rate = (min_entropy_rate(min(s, TSIRELSON_S)) if verdict is Verdict.CERTIFIED
            else 0.0)
    return Certificate(p_win=p_win, n=n, s=s, z=z, min_entropy_rate=rate,
                       verdict=verdict, threshold_z=threshold_z)


def certify(experiment: ExperimentResult,
            threshold_z: float = DEFAULT_THRESHOLD_Z) -> Certificate:
    """Pool all shots of an experiment and certify the result."""
    return certify_pooled(experiment.pooled_win_fraction(), experiment.total_shots(),
                          threshold_z)


def certificate_text(cert: Certificate) -> str:
    """The bytes of certificate.json: every field, canonical JSON at full float precision."""
    obj = {**asdict(cert), "verdict": cert.verdict.value}
    return canonical_json(obj, precise=True) + "\n"


def _certificate_from_obj(obj: Any) -> Certificate:
    """Re-issue a stored certificate from its p_win, n and threshold_z.

    The object is refused unless it holds exactly the re-issued certificate's
    fields and values, so no field can be edited on its own.
    """
    try:
        p_win, n, threshold_z = obj["p_win"], _json_int(obj["n"], "n"), obj["threshold_z"]
        # checked, not converted: a stored int must re-issue as the same int
        if p_win is not None:
            _json_float(p_win, "p_win")
        if not math.isfinite(_json_float(threshold_z, "threshold_z")):
            raise ValueError(f"threshold_z must be finite, got {threshold_z!r}")
        cert = certify_pooled(p_win, n, threshold_z)
        if canonical_json(obj, precise=True) + "\n" != certificate_text(cert):
            raise ValueError("stored fields differ from the certificate that "
                             "p_win, n and threshold_z give")
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise DataFormatError(f"bad certificate: {exc}") from exc
    return cert


def load_certificate(path: str | os.PathLike) -> Certificate:
    return load_json(path, _certificate_from_obj)


def certified_rate(path: str | os.PathLike) -> float:
    """The min-entropy rate a certificate file authorises; only CERTIFIED has one."""
    cert = load_certificate(path)
    if cert.verdict is not Verdict.CERTIFIED:
        raise DataFormatError(
            f"{os.fspath(path)}: only a CERTIFIED certificate with a rate "
            f"authorises extraction, got {cert.verdict.value}")
    return cert.min_entropy_rate

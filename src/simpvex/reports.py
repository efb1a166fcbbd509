"""Shared report record for sampled property checks."""

from __future__ import annotations

from typing import Optional, Tuple

from .record import Record

VERIFIED = "verified_on_samples"
VIOLATED = "violated"


class PropertyReport(Record):
    """Outcome of a sampled check of a pointwise property.

    property is one of "invex_set", "preinvex", "prequasiinvex" or
    "derivative".  worst_violation is the maximum signed excess seen over
    all samples; it exceeds the tolerance used for the check exactly when
    verdict == "violated", in which case witness holds the sample that
    attained it.  A "verified_on_samples" verdict never claims a proof,
    only that every sample stayed within tolerance.
    """

    property: str
    verdict: str
    worst_violation: float
    witness: Optional[Tuple[float, ...]]
    samples: int
    exponent_q: Optional[float] = None

    def __post_init__(self):
        if self.verdict not in (VERIFIED, VIOLATED):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == VIOLATED and self.witness is None:
            raise ValueError("violated verdict requires a witness")

    @property
    def violated(self) -> bool:
        return self.verdict == VIOLATED

    def to_dict(self) -> dict:
        return {
            "property": self.property,
            "exponent_q": self.exponent_q,
            "verdict": self.verdict,
            "worst_violation": self.worst_violation,
            "witness": list(self.witness) if self.witness is not None else None,
            "samples": self.samples,
        }

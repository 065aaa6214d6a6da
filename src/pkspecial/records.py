"""Identity-audit record types shared by the identity catalog and the audit engine."""

from __future__ import annotations

import math
from collections import namedtuple

from .core import _ValueType

__all__ = ["IdentityRecord", "AuditSummary", "SUMMARY_FIELDS", "relative_error", "make_record", "skipped_record"]


def relative_error(lhs: float, rhs: float) -> float:
    """|lhs - rhs| scaled by the larger magnitude; 0 when both vanish."""
    if lhs == rhs:
        return 0.0
    scale = max(abs(lhs), abs(rhs))
    if scale == 0.0 or not math.isfinite(scale):
        return math.inf
    return abs(lhs - rhs) / scale


class IdentityRecord(
    _ValueType,
    namedtuple(
        "IdentityRecord",
        "identity_id grid_point lhs rhs_printed rhs_corrected rel_err_printed rel_err_corrected "
        "printed_pass corrected_pass skipped skip_reason",
        defaults=(None,) * 7 + (False, None),
    ),
):
    """One grid-point verification outcome.

    ``rhs_printed`` and ``rhs_corrected`` coincide for identities that needed
    no correction.  Skipped records (near-pole points) carry no numbers and
    no pass flags.  Every field after ``grid_point`` defaults to None, except
    ``skipped``, which defaults to False.
    """

    __slots__ = ()
    identity_id: str
    grid_point: dict[str, float]
    lhs: float | None
    rhs_printed: float | None
    rhs_corrected: float | None
    rel_err_printed: float | None
    rel_err_corrected: float | None
    printed_pass: bool | None
    corrected_pass: bool | None
    skipped: bool
    skip_reason: str | None


def make_record(
    identity_id: str,
    grid_point: dict[str, float],
    lhs: float,
    rhs_printed: float,
    rhs_corrected: float,
    tol: float,
    error=relative_error,
) -> IdentityRecord:
    """Compare lhs with both right sides by ``error`` and flag each against tol."""
    ep = error(lhs, rhs_printed)
    ec = error(lhs, rhs_corrected)
    return IdentityRecord(
        identity_id=identity_id,
        grid_point=dict(grid_point),
        lhs=lhs,
        rhs_printed=rhs_printed,
        rhs_corrected=rhs_corrected,
        rel_err_printed=ep,
        rel_err_corrected=ec,
        printed_pass=bool(ep <= tol),
        corrected_pass=bool(ec <= tol),
    )


def skipped_record(identity_id: str, grid_point: dict[str, float], reason: str) -> IdentityRecord:
    return IdentityRecord(
        identity_id=identity_id,
        grid_point=dict(grid_point),
        skipped=True,
        skip_reason=reason,
    )


# the keys of one identity's summary in the report
SUMMARY_FIELDS = (
    "count", "skipped", "max_rel_err_printed", "max_rel_err_corrected",
    "printed_pass_rate", "corrected_pass_rate", "verdict",
)


class AuditSummary:
    """Per-identity aggregate over one audited grid; the report keeps its ``SUMMARY_FIELDS``."""

    __slots__ = (
        "identity_id", "count", "skipped", "max_rel_err_printed", "max_rel_err_corrected",
        "printed_passes", "corrected_passes",
    )
    identity_id: str
    count: int
    skipped: int
    max_rel_err_printed: float
    max_rel_err_corrected: float
    printed_passes: int
    corrected_passes: int

    def __init__(self, identity_id: str) -> None:
        self.identity_id = identity_id
        self.count = self.skipped = self.printed_passes = self.corrected_passes = 0
        self.max_rel_err_printed = self.max_rel_err_corrected = 0.0

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"AuditSummary({fields})"

    def add(self, rec: IdentityRecord) -> None:
        if rec.skipped:
            self.skipped += 1
            return
        self.count += 1
        self.max_rel_err_printed = max(self.max_rel_err_printed, rec.rel_err_printed)
        self.max_rel_err_corrected = max(self.max_rel_err_corrected, rec.rel_err_corrected)
        self.printed_passes += bool(rec.printed_pass)
        self.corrected_passes += bool(rec.corrected_pass)

    @property
    def printed_pass_rate(self) -> float:
        return self.printed_passes / self.count if self.count else 1.0

    @property
    def corrected_pass_rate(self) -> float:
        return self.corrected_passes / self.count if self.count else 1.0

    @property
    def verdict(self) -> str:
        if self.count == 0:
            return "skipped"
        if self.corrected_pass_rate < 1.0:
            return "fail"
        if self.printed_pass_rate < 1.0:
            return "corrected-only"
        return "ok"

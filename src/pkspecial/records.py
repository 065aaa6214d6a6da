"""Identity-audit record types shared by the identity catalog and the audit engine."""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["IdentityRecord", "AuditSummary", "relative_error", "make_record", "skipped_record"]


def relative_error(lhs: float, rhs: float) -> float:
    """|lhs - rhs| scaled by the larger magnitude; 0 when both vanish."""
    if lhs == rhs:
        return 0.0
    scale = max(abs(lhs), abs(rhs))
    if scale == 0.0 or not math.isfinite(scale):
        return math.inf
    return abs(lhs - rhs) / scale


@dataclass(frozen=True)
class IdentityRecord:
    """One grid-point verification outcome.

    ``rhs_printed`` and ``rhs_corrected`` coincide for identities that needed
    no correction.  Skipped records (near-pole points) carry no numbers and
    no pass flags.
    """

    identity_id: str
    grid_point: dict[str, float]
    lhs: float | None = None
    rhs_printed: float | None = None
    rhs_corrected: float | None = None
    rel_err_printed: float | None = None
    rel_err_corrected: float | None = None
    printed_pass: bool | None = None
    corrected_pass: bool | None = None
    skipped: bool = False
    skip_reason: str | None = None


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


@dataclass
class AuditSummary:
    """Per-identity aggregate over one audited grid."""

    identity_id: str
    count: int = 0
    skipped: int = 0
    max_rel_err_printed: float = 0.0
    max_rel_err_corrected: float = 0.0
    printed_passes: int = 0
    corrected_passes: int = 0

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

"""Identity-audit value types shared by the identity catalog and the audit engine.

``IdentityRecord`` is one grid point's outcome and ``AuditSummary`` one
identity's aggregate; their fields are the keys of a report's records and
identity summaries.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Iterable

from .core import _ValueType

__all__ = ["IdentityRecord", "AuditSummary", "summarize", "relative_error", "make_record", "skipped_record"]


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


class AuditSummary(
    _ValueType,
    namedtuple(
        "AuditSummary",
        "count skipped max_rel_err_printed max_rel_err_corrected "
        "printed_pass_rate corrected_pass_rate verdict",
    ),
):
    """One identity's aggregate over an audited grid; its fields are the report's summary keys."""

    __slots__ = ()
    count: int
    skipped: int
    max_rel_err_printed: float
    max_rel_err_corrected: float
    printed_pass_rate: float
    corrected_pass_rate: float
    verdict: str


def summarize(records: Iterable[IdentityRecord]) -> AuditSummary:
    """Fold one identity's records, in the order they were made, into its summary.

    The maxima start at 0.0; with no evaluated point both rates are 1.0.
    """
    count = skipped = printed_passes = corrected_passes = 0
    max_printed = max_corrected = 0.0
    for rec in records:
        if rec.skipped:
            skipped += 1
            continue
        count += 1
        max_printed = max(max_printed, rec.rel_err_printed)
        max_corrected = max(max_corrected, rec.rel_err_corrected)
        printed_passes += bool(rec.printed_pass)
        corrected_passes += bool(rec.corrected_pass)
    printed_rate = printed_passes / count if count else 1.0
    corrected_rate = corrected_passes / count if count else 1.0
    if count == 0:
        verdict = "skipped"
    elif corrected_rate < 1.0:
        verdict = "fail"
    elif printed_rate < 1.0:
        verdict = "corrected-only"
    else:
        verdict = "ok"
    return AuditSummary(count, skipped, max_printed, max_corrected, printed_rate, corrected_rate, verdict)

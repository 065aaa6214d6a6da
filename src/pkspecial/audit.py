"""Grid audit engine: the report's record types, suite runs, and deterministic reports.

``IdentityRecord`` is one grid point's outcome and ``AuditSummary`` one
identity's aggregate, which ``summarize`` folds from its records; their
fields are the keys of a report's records and identity summaries.
Reports are deterministic single-line JSON: records are sorted by
(identity_id, grid point), floats serialize via their shortest round-trip
representation, and nothing time- or host-dependent enters the canonical body.
``validate_report`` checks a report dict against that format.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from operator import itemgetter
from typing import Iterable

from .core import DomainError, _ValueType

__all__ = [
    "IdentityRecord",
    "AuditSummary",
    "AuditReport",
    "summarize",
    "relative_error",
    "run_suite",
    "report_to_dict",
    "canonical_json",
    "write_report",
    "validate_report",
]


def relative_error(lhs: float, rhs: float) -> float:
    """|lhs - rhs| scaled by the larger magnitude; 0 when both vanish, inf where a side is not finite."""
    if lhs == rhs:
        return 0.0
    scale = max(abs(lhs), abs(rhs))
    if scale == 0.0 or not math.isfinite(scale) or lhs != lhs or rhs != rhs:  # max() drops a nan in second place
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


class AuditReport(_ValueType, namedtuple("AuditReport", "suite grid records summaries")):
    """A suite's records, sorted, and its per-identity summaries."""

    __slots__ = ()
    suite: str
    grid: AuditGrid
    records: list[IdentityRecord]
    summaries: dict[str, AuditSummary]

    @property
    def all_corrected_pass(self) -> bool:
        return all(s.corrected_pass_rate == 1.0 for s in self.summaries.values())


def run_suite(
    suite: str,
    grid: AuditGrid | None = None,
    tol_overrides: dict[str, float] | None = None,
) -> AuditReport:
    """Evaluate every catalog identity of the suite over the grid."""
    from .identities import AuditGrid, catalog_for_suite

    grid = grid or AuditGrid.default()
    overrides = tol_overrides or {}
    checked_by_id: dict[str, list[IdentityRecord]] = {}
    summaries: dict[str, AuditSummary] = {}
    for check in catalog_for_suite(suite):
        checked = list(check.run(grid, overrides.get(check.identity_id, check.tol)))
        if checked:
            summaries[check.identity_id] = summarize(checked)
            # an identity's points share their keys: its records sort by their values, in key order
            point = itemgetter(*sorted(checked[0].grid_point))
            checked.sort(key=lambda rec: point(rec.grid_point))
            checked_by_id[check.identity_id] = checked
    ids = sorted(checked_by_id)
    records = [rec for key in ids for rec in checked_by_id[key]]
    summaries = {key: summaries[key] for key in ids}
    return AuditReport(suite=suite, grid=grid, records=records, summaries=summaries)


def _clean_float(v: float | None) -> float | None:
    if v is None:
        return None
    if math.isinf(v):
        return 1e308 if v > 0 else -1e308
    if math.isnan(v):
        return None
    return v


def report_to_dict(report: AuditReport) -> dict:
    return {
        "suite": report.suite,
        "grid": report.grid.as_dict(),
        "records": [
            {
                "identity_id": r.identity_id,
                "grid_point": r.grid_point,
                "lhs": _clean_float(r.lhs),
                "rhs_printed": _clean_float(r.rhs_printed),
                "rhs_corrected": _clean_float(r.rhs_corrected),
                "rel_err_printed": _clean_float(r.rel_err_printed),
                "rel_err_corrected": _clean_float(r.rel_err_corrected),
                "printed_pass": r.printed_pass,
                "corrected_pass": r.corrected_pass,
                "skipped": r.skipped,
                "skip_reason": r.skip_reason,
            }
            for r in report.records
        ],
        "summary": summary_to_dict(report),
    }


def summary_to_dict(report: AuditReport) -> dict:
    """The report's "summary" member alone, without writing its records."""
    identities = {key: {name: _clean_float(v) if type(v) is float else v for name, v in s._asdict().items()}
                  for key, s in report.summaries.items()}
    return {"identities": identities, "all_corrected_pass": report.all_corrected_pass}


def canonical_json(report: AuditReport) -> str:
    # compact separators keep json on its C encoder; json.tool pretty-prints
    doc = report_to_dict(report)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def write_report(report: AuditReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(report))


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)  # NaN and inf are numbers


def validate_report(report_dict: dict) -> None:
    """Raise DomainError naming the first path where report_dict breaks the format report_to_dict writes.

    Records and identity summaries have exactly the keys ``IdentityRecord._fields``
    and ``AuditSummary._fields``; a bool is no number, an integral float is an integer,
    and a skipped record has a null ``lhs`` and null pass flags.
    """
    def need(ok: bool, path: str) -> None:
        if not ok:
            raise DomainError(f"audit report: bad {path}")

    def keys(doc, fields, path: str) -> None:
        need(isinstance(doc, dict) and doc.keys() == set(fields), path)

    keys(report_dict, ("suite", "grid", "records", "summary"), "report")
    need(isinstance(report_dict["suite"], str), "suite")
    need(isinstance(report_dict["grid"], dict), "grid")
    need(isinstance(report_dict["records"], list), "records")
    for i, rec in enumerate(report_dict["records"]):
        path = f"records[{i}]"
        keys(rec, IdentityRecord._fields, path)
        skipped = rec["skipped"]
        need(isinstance(skipped, bool), f"{path}.skipped")
        need(isinstance(rec["identity_id"], str), f"{path}.identity_id")
        point = rec["grid_point"]
        need(isinstance(point, dict) and all(map(_number, point.values())), f"{path}.grid_point")
        for name in ("lhs", "rhs_printed", "rhs_corrected", "rel_err_printed", "rel_err_corrected"):
            v = rec[name]
            ok = (v is None or (name != "lhs" and _number(v))) if skipped else _number(v)
            need(ok, f"{path}.{name}")
        for name in ("printed_pass", "corrected_pass"):
            need(rec[name] is None if skipped else isinstance(rec[name], bool), f"{path}.{name}")
        need(rec["skip_reason"] is None or isinstance(rec["skip_reason"], str), f"{path}.skip_reason")
    summary = report_dict["summary"]
    keys(summary, ("identities", "all_corrected_pass"), "summary")
    need(isinstance(summary["all_corrected_pass"], bool), "summary.all_corrected_pass")
    need(isinstance(summary["identities"], dict), "summary.identities")
    for key, s in summary["identities"].items():
        path = f"summary.identities[{key!r}]"
        keys(s, AuditSummary._fields, path)
        for name in ("count", "skipped"):
            v = s[name]
            need(_number(v) and v >= 0 and (isinstance(v, int) or v.is_integer()), f"{path}.{name}")
        for name in ("max_rel_err_printed", "max_rel_err_corrected"):
            need(s[name] is None or _number(s[name]), f"{path}.{name}")
        for name in ("printed_pass_rate", "corrected_pass_rate"):
            v = s[name]
            need(_number(v) and not (v < 0 or v > 1), f"{path}.{name}")  # NaN compares false: it passes
        need(s["verdict"] in ("ok", "corrected-only", "fail", "skipped"), f"{path}.verdict")


def format_summary(report: AuditReport) -> str:
    lines = [
        f"suite: {report.suite}",
        f"{'identity':<10}{'count':>7}{'skip':>6}{'printed pass':>14}"
        f"{'corrected pass':>16}{'max corr err':>14}  verdict",
    ]
    for key, s in report.summaries.items():
        lines.append(
            f"{key:<10}{s.count:>7}{s.skipped:>6}"
            f"{s.printed_pass_rate:>13.1%}{s.corrected_pass_rate:>15.1%}"
            f"{s.max_rel_err_corrected:>14.2e}  {s.verdict}"
        )
    lines.append(f"all corrected forms pass: {report.all_corrected_pass}")
    return "\n".join(lines)

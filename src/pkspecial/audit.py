"""Grid audit engine: run identity suites, aggregate, and emit reports.

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

from .core import DomainError, _ValueType

__all__ = [
    "AuditReport",
    "run_suite",
    "report_to_dict",
    "canonical_json",
    "write_report",
    "validate_report",
]


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
    from .records import summarize

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
        "summary": {
            "identities": {
                key: {name: _clean_float(v) if type(v) is float else v for name, v in s._asdict().items()}
                for key, s in report.summaries.items()
            },
            "all_corrected_pass": report.all_corrected_pass,
        },
    }


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
    from .records import AuditSummary, IdentityRecord

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

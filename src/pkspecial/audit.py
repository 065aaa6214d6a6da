"""Grid audit engine: run identity suites, aggregate, and emit reports.

Reports are deterministic single-line JSON: records are sorted by
(identity_id, grid point), floats serialize via their shortest round-trip
representation, and nothing time- or host-dependent enters the canonical body.  A JSON Schema for the
report ships with the package.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple

from .core import _ValueType

__all__ = [
    "AuditReport",
    "run_suite",
    "report_to_dict",
    "canonical_json",
    "write_report",
    "load_schema",
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


def _record_sort_key(rec: IdentityRecord):
    return (rec.identity_id, tuple(sorted(rec.grid_point.items())))


def run_suite(
    suite: str,
    grid: AuditGrid | None = None,
    tol_overrides: dict[str, float] | None = None,
) -> AuditReport:
    """Evaluate every catalog identity of the suite over the grid."""
    from .identities import AuditGrid, catalog_for_suite
    from .records import AuditSummary

    grid = grid or AuditGrid.default()
    overrides = tol_overrides or {}
    records: list[IdentityRecord] = []
    summaries: dict[str, AuditSummary] = {}
    for check in catalog_for_suite(suite):
        tol = overrides.get(check.identity_id, check.tol)
        for rec in check.run(grid, tol):
            records.append(rec)
            summaries.setdefault(rec.identity_id, AuditSummary(rec.identity_id)).add(rec)
    records.sort(key=_record_sort_key)
    summaries = dict(sorted(summaries.items()))
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
                key: {
                    "count": s.count,
                    "skipped": s.skipped,
                    "max_rel_err_printed": _clean_float(s.max_rel_err_printed),
                    "max_rel_err_corrected": _clean_float(s.max_rel_err_corrected),
                    "printed_pass_rate": s.printed_pass_rate,
                    "corrected_pass_rate": s.corrected_pass_rate,
                    "verdict": s.verdict,
                }
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


def load_schema() -> dict:
    from importlib import resources

    text = resources.files("pkspecial").joinpath("report_schema.json").read_text("utf-8")
    return json.loads(text)


def validate_report(report_dict: dict) -> None:
    """Raise jsonschema.ValidationError if the dict violates the shipped schema.

    Test tooling: jsonschema comes with the ``test`` extra
    (``pip install 'pkspecial[test]'``), not with the runtime install;
    without it this raises ImportError.
    """
    try:
        import jsonschema
    except ImportError as exc:
        raise ImportError("validate_report needs jsonschema, from the test extra: pip install 'pkspecial[test]'") from exc

    jsonschema.validate(report_dict, load_schema())


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

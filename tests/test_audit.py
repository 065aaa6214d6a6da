"""Audit engine: determinism, report format, summary bookkeeping."""

import copy
import hashlib
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from pkspecial import AuditGrid, DomainError, run_suite, validate_report
from pkspecial.audit import (
    AuditReport,
    AuditSummary,
    IdentityRecord,
    canonical_json,
    relative_error,
    report_to_dict,
    summarize,
    write_report,
)
from pkspecial.identities import CATALOG, catalog_for_suite


class TestEngine:
    def test_suite_selection(self):
        ids = {c.identity_id for c in catalog_for_suite("beta")}
        assert ids == {"3.1", "3.2", "3.3", "3.4"}
        assert catalog_for_suite("all") == CATALOG
        with pytest.raises(DomainError, match="unknown suite 'algebra'"):
            catalog_for_suite("algebra")
        with pytest.raises(DomainError, match="unknown suite 'algebra'"):
            run_suite("algebra")

    def test_records_sorted(self):
        rep = run_suite("pochhammer", AuditGrid.small())
        keys = [(r.identity_id, tuple(sorted(r.grid_point.items()))) for r in rep.records]
        assert keys == sorted(keys)

    def test_summary_counts(self):
        rep = run_suite("gamma", AuditGrid.small())
        for identity_id, s in rep.summaries.items():
            matching = [r for r in rep.records if r.identity_id == identity_id]
            assert s.count + s.skipped == len(matching)
            assert s.skipped == sum(r.skipped for r in matching)

    def test_skipped_records_carry_no_flags(self):
        rep = run_suite("gamma", AuditGrid.small())
        skipped = [r for r in rep.records if r.skipped]
        assert skipped, "expected near-pole skips on the small grid"
        for r in skipped:
            assert r.printed_pass is None and r.corrected_pass is None
            assert r.lhs is None and r.skip_reason

    def test_corrected_only_verdicts(self):
        rep = run_suite("gamma", AuditGrid.small())
        assert rep.summaries["2.30"].verdict == "corrected-only"
        assert rep.summaries["2.30"].printed_pass_rate == 0.0
        assert rep.summaries["2.23"].verdict == "ok"
        assert rep.all_corrected_pass

    def test_printed_difference_recurrence_fails_off_unit_weight(self):
        rep = run_suite("pochhammer", AuditGrid.small())
        s = rep.summaries["2.33"]
        assert s.verdict == "corrected-only"
        # exactly the p=1 slice of the grid passes the uncorrected reading
        grid = AuditGrid.small()
        assert s.printed_pass_rate == pytest.approx(
            grid.ps.count(1.0) / len(grid.ps)
        )

    def test_catalog_point_counts_pinned(self):
        # (evaluated, skipped) per id on the small grid: a point generator that
        # drops or adds points, or a skip rule that moves, changes these
        pinned = {
            "2.2": (16, 0), "2.4": (16, 0), "2.5": (24, 0), "2.8": (32, 0),
            "2.9": (32, 0), "2.10": (32, 0), "2.20": (24, 0), "2.21": (48, 0),
            "2.33": (16, 0), "2.34": (72, 0), "2.6": (8, 0), "2.7": (8, 0),
            "2.14": (8, 0), "2.15": (8, 0), "2.16": (8, 0), "2.17": (8, 0),
            "2.18": (8, 0), "2.19": (8, 0), "2.22": (24, 0), "2.23": (8, 0),
            "2.24": (24, 0), "2.25": (22, 2), "2.26": (18, 6), "2.27": (8, 0),
            "2.28": (8, 0), "2.29": (8, 0), "2.30": (6, 2), "2.31": (6, 2),
            "2.32": (16, 0), "3.1": (16, 0), "3.2": (8, 0), "3.3": (8, 0),
            "3.4": (8, 0), "3.6": (8, 0), "3.7": (8, 0), "3.8": (8, 0),
            "3.9": (8, 0), "3.10": (8, 0), "3.11": (16, 0), "4.2": (10, 0),
            "4.3": (10, 0), "4.4": (48, 0), "4.5": (10, 0),
        }
        ids = [c.identity_id for c in CATALOG]
        assert len(ids) == len(set(ids)) == 43
        rep = run_suite("all", AuditGrid.small())
        got = {key: (s.count, s.skipped) for key, s in rep.summaries.items()}
        assert got == pinned

    def test_tolerance_override(self):
        strict = run_suite("beta", AuditGrid.small(), {"3.2": 1e-30})
        assert strict.summaries["3.2"].corrected_pass_rate < 1.0
        assert not strict.all_corrected_pass


class TestReport:
    def test_deterministic_bytes(self):
        a = canonical_json(run_suite("psi", AuditGrid.small()))
        b = canonical_json(run_suite("psi", AuditGrid.small()))
        assert a == b

    @pytest.mark.parametrize("grid", ["small", "default"])
    def test_every_suite_report_is_valid(self, grid):
        # the default-grid report of suite "all" is checked by test_criterion_9_cli_audit
        suites = ("pochhammer", "gamma", "beta", "psi", "hyper") + (("all",) if grid == "small" else ())
        for suite in suites:
            validate_report(report_to_dict(run_suite(suite, getattr(AuditGrid, grid)())))

    def test_report_keys_are_the_record_and_summary_fields(self):
        doc = report_to_dict(run_suite("gamma", AuditGrid.small()))
        assert set(doc) == {"suite", "grid", "records", "summary"}
        assert all(tuple(r) == IdentityRecord._fields for r in doc["records"])
        assert set(doc["summary"]) == {"identities", "all_corrected_pass"}
        assert all(tuple(s) == AuditSummary._fields for s in doc["summary"]["identities"].values())


    def test_round_trip_file(self, tmp_path):
        rep = run_suite("hyper", AuditGrid.small())
        path = tmp_path / "report.json"
        write_report(rep, str(path))
        loaded = json.loads(path.read_text())
        validate_report(loaded)
        assert loaded["suite"] == "hyper"
        assert loaded["summary"]["all_corrected_pass"]

    def test_report_is_one_compact_line(self, tmp_path):
        rep = run_suite("gamma", AuditGrid.small())
        path = tmp_path / "report.json"
        write_report(rep, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == report_to_dict(rep)

    def test_numbers_finite_or_null(self):
        doc = report_to_dict(run_suite("gamma", AuditGrid.small()))
        text = json.dumps(doc, allow_nan=False)  # would raise on NaN/inf
        assert "NaN" not in text

    def test_infinite_sides_are_written_as_the_largest_round_number(self):
        # relative_error is inf where a side is not finite; a nan side would be written as null
        err = relative_error(math.inf, -math.inf)
        rec = IdentityRecord("2.2", {"p": 1.0, "k": 1.0, "x": 1.0}, math.inf, -math.inf, -math.inf, err, err, False, False)
        report = AuditReport("gamma", AuditGrid.small(), [rec], {"2.2": summarize([rec])})
        doc = json.loads(canonical_json(report))
        written = doc["records"][0]
        assert [written[name] for name in IdentityRecord._fields[2:7]] == [1e308, -1e308, -1e308, 1e308, 1e308]
        assert doc["summary"]["identities"]["2.2"]["max_rel_err_corrected"] == 1e308
        validate_report(doc)

    def test_a_nan_side_is_an_infinite_error_in_either_order(self):
        assert relative_error(1.0, math.nan) == relative_error(math.nan, 1.0) == math.inf
        assert relative_error(math.nan, math.nan) == math.inf
        rec = IdentityRecord("2.2", {"p": 1.0, "k": 1.0, "x": 1.0}, 1.0, 1.0, math.nan,
                             0.0, relative_error(1.0, math.nan), True, False)
        summary = summarize([rec])
        assert summary.verdict == "fail" and summary.max_rel_err_corrected == math.inf

    def test_report_diff_script(self, tmp_path):
        script = Path(__file__).parent.parent / "scripts" / "report_diff.py"
        doc = report_to_dict(run_suite("beta", AuditGrid.small()))
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        old.write_text(json.dumps(doc))

        def diff():
            return subprocess.run([sys.executable, str(script), str(old), str(new)], capture_output=True, text=True)

        new.write_text(json.dumps(doc))
        same = diff()
        assert same.returncode == 0 and "summaries: identical" in same.stdout
        digest = hashlib.sha256(old.read_bytes()).hexdigest()
        assert same.stdout.splitlines()[:2] == [f"old sha256 {digest}  {old}", f"new sha256 {digest}  {new}"]
        doc["records"][0]["rel_err_corrected"] += 1e-16
        new.write_text(json.dumps(doc))
        moved = diff()
        assert moved.stdout.splitlines()[1] == f"new sha256 {hashlib.sha256(new.read_bytes()).hexdigest()}  {new}"
        assert hashlib.sha256(new.read_bytes()).hexdigest() != digest
        ident = doc["records"][0]["identity_id"]
        count = sum(r["identity_id"] == ident for r in doc["records"])
        assert moved.returncode == 1
        assert [ident, str(count), "1"] in [line.split()[:3] for line in moved.stdout.splitlines()]
        assert "summaries: identical" in moved.stdout
        doc["summary"]["identities"][ident]["verdict"] = "fail"
        new.write_text(json.dumps(doc))
        assert f"{ident} (verdict)" in diff().stdout


# (path into a small gamma report, value or MISSING to delete the key, the path
# the error names when it is not the edited one); records[0] is evaluated,
# records[1] skipped, and "2.14" is a summary key
MISSING = object()
BAD_REPORTS = [
    (("extra",), 1, "report"), (("suite",), None, None), (("suite",), 3, None), (("grid",), [], None),
    (("records",), {}, None), (("records",), None, None), (("summary",), [], None),
    (("summary", "all_corrected_pass"), 1, None), (("summary", "all_corrected_pass"), MISSING, "summary"),
    (("summary", "identities"), [], None), (("summary", "extra"), True, "summary"),
    (("records", 0), [], None), (("records", 0, "extra"), 1, "records[0]"),
    (("summary", "identities", "9.9"), {}, None),
    (("summary", "identities", "2.14", "extra"), 1, "summary.identities['2.14']"),
]
BAD_REPORTS += [((key,), MISSING, "report") for key in ("suite", "grid", "records", "summary")]
for field in IdentityRecord._fields:
    BAD_REPORTS.append((("records", 0, field), MISSING, "records[0]"))
    BAD_REPORTS.append((("records", 1, field), [], None))
for field in ("identity_id", "skipped", "grid_point"):
    BAD_REPORTS += [(("records", 0, field), None, None), (("records", 0, field), 42.0, None)]
BAD_REPORTS += [
    (("records", 0, "identity_id"), 42, None), (("records", 0, "skipped"), 0, None),
    (("records", 0, "grid_point", "x"), True, "records[0].grid_point"),
    (("records", 0, "grid_point", "x"), "1", "records[0].grid_point"),
    (("records", 0, "skip_reason"), 1, None), (("records", 1, "skip_reason"), False, None),
]
for field in ("lhs", "rhs_printed", "rhs_corrected", "rel_err_printed", "rel_err_corrected"):
    BAD_REPORTS += [(("records", 0, field), v, None) for v in (None, True, "1.0", {})]
    BAD_REPORTS.append((("records", 1, field), False, None))
for field in ("printed_pass", "corrected_pass"):
    BAD_REPORTS += [(("records", 0, field), v, None) for v in (None, 1, 0.0, "true")]
    BAD_REPORTS += [(("records", 1, field), v, None) for v in (True, False, 0)]
# the skipped invariants: a skipped record carries no lhs and no pass flags,
# and an evaluated record carries all its numbers
BAD_REPORTS += [(("records", 1, "lhs"), 1.0, None), (("records", 0, "skipped"), True, "records[0].lhs")]
for field in AuditSummary._fields:
    BAD_REPORTS.append((("summary", "identities", "2.14", field), MISSING, "summary.identities['2.14']"))
    BAD_REPORTS += [(("summary", "identities", "2.14", field), v, None) for v in (True, "1", [])]
for field in ("count", "skipped"):
    BAD_REPORTS += [(("summary", "identities", "2.14", field), v, None)
                    for v in (None, -1, 2.5, math.nan, math.inf)]
for field in ("printed_pass_rate", "corrected_pass_rate"):
    BAD_REPORTS += [(("summary", "identities", "2.14", field), v, None)
                    for v in (None, -0.5, 1.5, math.inf, -math.inf)]
BAD_REPORTS += [(("summary", "identities", "2.14", "verdict"), v, None) for v in ("pass", None, 0)]

# what the format admits beyond what the library writes
GOOD_EDITS = [
    (("summary", "identities", "2.14", "count"), 3.0),
    (("summary", "identities", "2.14", "printed_pass_rate"), math.nan),
    (("summary", "identities", "2.14", "max_rel_err_printed"), None),
    (("records", 0, "lhs"), math.nan), (("records", 0, "rhs_printed"), 7),
    (("records", 0, "skip_reason"), "unskipped records may say why"),
    (("records", 1, "rhs_printed"), 1.0), (("records", 1, "rel_err_corrected"), 0.5),
    (("grid",), {"anything": ["goes"]}), (("records",), []),
]


@pytest.fixture(scope="module")
def small_gamma_doc():
    doc = report_to_dict(run_suite("gamma", AuditGrid.small()))
    evaluated = next(r for r in doc["records"] if not r["skipped"])
    skipped = next(r for r in doc["records"] if r["skipped"])
    doc["records"] = [evaluated, skipped]
    return doc


def _edited(doc, path, value):
    doc = copy.deepcopy(doc)
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    if value is MISSING:
        del target[last]
    else:
        target[last] = value
    return doc


def _path_name(path) -> str:
    """("records", 0, "lhs") as records[0].lhs, an identity key as summary.identities['2.14']."""
    out = ""
    for i, key in enumerate(path):
        if isinstance(key, int):
            out += f"[{key}]"
        elif i == 2 and path[:2] == ("summary", "identities"):
            out += f"[{key!r}]"
        else:
            out += f".{key}"
    return out.lstrip(".")


class TestValidateReport:
    def test_the_base_document_is_valid(self, small_gamma_doc):
        validate_report(small_gamma_doc)
        assert small_gamma_doc["records"][1]["skipped"] and "2.14" in small_gamma_doc["summary"]["identities"]

    @pytest.mark.parametrize("path, value, named", BAD_REPORTS)
    def test_mutation_is_rejected_naming_its_path(self, small_gamma_doc, path, value, named):
        named = named or _path_name(path)
        with pytest.raises(DomainError, match=re.escape(f"bad {named}") + "$"):
            validate_report(_edited(small_gamma_doc, path, value))

    @pytest.mark.parametrize("doc", [None, [], "report", 1, True, {}])
    def test_bad_top_level_shapes(self, doc):
        with pytest.raises(DomainError, match="bad report$"):
            validate_report(doc)

    @pytest.mark.parametrize("path, value", GOOD_EDITS)
    def test_what_the_format_admits(self, small_gamma_doc, path, value):
        validate_report(_edited(small_gamma_doc, path, value))

"""Audit engine: determinism, schema conformance, summary bookkeeping."""

import json

import pytest

from pkspecial import AuditGrid, run_suite, validate_report
from pkspecial.audit import canonical_json, report_to_dict, write_report
from pkspecial.identities import CATALOG, catalog_for_suite


class TestEngine:
    def test_suite_selection(self):
        ids = {c.identity_id for c in catalog_for_suite("beta")}
        assert ids == {"3.1", "3.2", "3.3", "3.4"}
        assert catalog_for_suite("all") == CATALOG
        with pytest.raises(ValueError):
            catalog_for_suite("algebra")

    def test_records_sorted(self):
        rep = run_suite("pochhammer", AuditGrid.small())
        keys = [(r.identity_id, tuple(sorted(r.grid_point.items()))) for r in rep.records]
        assert keys == sorted(keys)

    def test_summary_counts(self):
        rep = run_suite("gamma", AuditGrid.small())
        for s in rep.summaries.values():
            matching = [r for r in rep.records if r.identity_id == s.identity_id]
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

    def test_schema_validation(self):
        for suite in ("pochhammer", "gamma", "beta", "psi", "hyper"):
            doc = report_to_dict(run_suite(suite, AuditGrid.small()))
            validate_report(doc)

    def test_schema_rejects_bad_docs(self):
        import jsonschema

        doc = report_to_dict(run_suite("beta", AuditGrid.small()))
        doc["records"][0]["identity_id"] = 42
        with pytest.raises(jsonschema.ValidationError):
            validate_report(doc)

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

"""Tests of the benchmark's own checker, inputs and bookkeeping.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys

import mpmath as mp
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402


# --- failed operations -------------------------------------------------------


def test_value_outside_abs_err_fails_and_inside_passes():
    true = mp.mpf(2)
    assert check.judge(["lin", 2.0 + 1e-12, 1e-13], true) == "wrong_value"
    assert check.judge(["lin", 2.0 + 1e-12, 1e-11], true) == check.OK
    assert check.judge(["lin", float("nan"), 1.0], true) == "wrong_value"
    assert check.judge(["lin", 2.0, float("inf")], true) == "wrong_value"


def test_log_space_value_outside_abs_err_fails():
    true = (mp.mpf("0.5"), 1)
    assert check.judge(["ln", 0.5 + 1e-10, 1, 1e-12], true) == "wrong_value"
    assert check.judge(["ln", 0.5 + 1e-13, 1, 1e-12], true) == check.OK
    assert check.judge(["ln", 0.5, -1, 1e-12], true) == "wrong_value"


def test_overflowed_truth_accepts_signed_inf_only():
    huge = mp.mpf("1e400")
    assert check.judge(["lin", float("inf"), 0.0], huge) == check.OK
    assert check.judge(["lin", float("-inf"), 0.0], huge) == "wrong_value"
    assert check.judge(["lin", float("inf"), 0.0], mp.mpf(1)) == "wrong_value"


def test_typed_and_raw_exceptions_fail():
    from pkspecial.core import DomainError

    def typed(_):
        raise DomainError("outside")

    def raw(_):
        raise OverflowError("math range error")

    typed_result = worker.call_route(typed, {})
    raw_result = worker.call_route(raw, {})
    assert typed_result == ["raised", "typed", "DomainError"]
    assert raw_result == ["raised", "raw", "OverflowError"]
    assert check.judge(typed_result, mp.mpf(1)) == "raised_typed"
    assert check.judge(raw_result, mp.mpf(1)) == "raised_raw"


def test_nonzero_exit_fails_every_cli_check():
    _, _, eval_spec = next(inputs.eval_cases(0))
    _, _, table_spec = next(inputs.table_cases(0))
    assert check.judge_eval(2, '{"value": 1.0, "abs_err": 1.0}', eval_spec) == "exit_nonzero"
    assert set(check.judge_table(1, "", table_spec)) == {"exit_nonzero"}
    assert check.judge_audit(2, "{}", lambda report: None) == ("exit_nonzero", None)


def test_eval_output_is_judged_against_the_truth():
    spec = {"fn": "gamma", "p": 1.0, "k": 1.0, "x": 5.0}  # G = Gamma(5) = 24
    good = json.dumps({"value": 24.0, "abs_err": 1e-13})
    off = json.dumps({"value": 24.0 + 1e-9, "abs_err": 1e-13})
    assert check.judge_eval(0, good, spec) == check.OK
    assert check.judge_eval(0, off, spec) == "wrong_value"
    assert check.judge_eval(0, "", spec) == "missing"
    assert check.judge_eval(0, json.dumps({"error": "domain"}), spec) == "missing"
    assert check.judge_eval(0, json.dumps({"value": "24", "abs_err": 1.0}), spec) == "wrong_value"


def test_table_rows_are_checked():
    spec = {"fn": "poch", "p": 1.0, "k": 1.0, "n": 2, "start": 1.0, "checked_rows": [0, 5]}
    rows = ["x,value,abs_err"]
    for i in range(inputs.TABLE_ROWS):
        x = 1.0 + i * inputs.TABLE_STEP
        rows.append(f"{x!r},{x * (x + 1)!r},{1e-12!r}")
    text = "\n".join(rows) + "\n"
    assert check.judge_table(0, text, spec) == [check.OK, check.OK]
    bad = text.replace(rows[6] + "\n", rows[6].rsplit(",", 2)[0] + ",999.0,1e-12\n")
    assert check.judge_table(0, bad, spec) == [check.OK, "wrong_value"]
    assert set(check.judge_table(0, "\n".join(rows[:-1]), spec)) == {"missing"}


def test_audit_report_must_validate_and_pass():
    def reject(report):
        raise ValueError("schema")

    passing = json.dumps({"records": [], "summary": {"all_corrected_pass": True}})
    failing = json.dumps({"records": [], "summary": {"all_corrected_pass": False}})
    assert check.judge_audit(0, passing, lambda r: None)[0] == check.OK
    assert check.judge_audit(0, failing, lambda r: None)[0] == "wrong_value"
    assert check.judge_audit(0, passing, reject)[0] == "missing"
    assert check.judge_audit(0, None, lambda r: None)[0] == "missing"


# --- seeded inputs -----------------------------------------------------------

GENERATORS = {
    "cli_eval": inputs.eval_cases,
    "cli_table": inputs.table_cases,
    "route_sweep": inputs.sweep_blocks,
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    gen = GENERATORS[name]
    first = list(itertools.islice(gen(7), 12))
    assert first == list(itertools.islice(gen(7), 12))
    assert first != list(itertools.islice(gen(8), 12))


def test_draws_stay_inside_route_domains():
    for block in itertools.islice(inputs.sweep_blocks(3), 40):
        for d in block:
            assert 0 < d["a"] / d["ka"] < d["b"] / d["sb"]
            assert -20.0 <= d["pa"] / d["tb"] * d["hx"] <= 20.0 + 1e-9
            assert d["x"] > 0 and d["y"] > 0 and d["n"] >= 1 and d["r"] >= 2


# --- bookkeeping -------------------------------------------------------------


def test_worker_routes_match_checker_routes():
    assert list(worker.route_table()) == list(check.ROUTE_TRUTH)


def test_judged_cases_do_not_depend_on_speed():
    ctx = run.Context.__new__(run.Context)
    ctx.cases = ["a", "b", "c"]
    phase = run.Phase()
    order = []
    for j in ctx.schedule(phase, 0.0, complete=True):
        order.append(j)
    assert order == [0, 1, 2]  # past --seconds, yet every case runs once
    phase.walls.append(0.5)
    assert list(ctx.schedule(phase, 0.1, complete=False)) == []
    judged = run.Judged()
    judged.record(1, [("r", check.OK), ("s", check.OK)])
    judged.record(0, [("r", "wrong_value")])
    judged.record(1, [("r", check.OK), ("s", "raised_raw")])  # a repeat that fails
    assert judged.outcomes() == [("r", "wrong_value"), ("r", check.OK), ("s", "raised_raw")]


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_importtime_attribution():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |         numpy.core",
        "import time:       200 |        300 |       numpy",
        "import time:        50 |         50 |       unittest",
        "import time:       400 |        750 |     scipy",
        "import time:        30 |       780 |   pkspecial.core",
        "import time:        20 |        800 | pkspecial",
        "import time:         5 |          5 | json",
    ])
    assert run.parse_importtime(text) == {
        "import.numpy_ms": 0.3,
        "import.scipy_ms": 0.45,
        "import.pkspecial_self_ms": 0.05,
    }


def test_self_time_subtracts_children():
    spans = {
        "names": ["quadrature", "quadrature.integrand"],
        "spans": [[0, -1, 0, 100], [1, 0, 10, 30], [1, 0, 40, 70]],
        "counts": {},
    }
    summary = tracer.summarize(spans)
    assert summary["quadrature"]["self_ns"] == 50
    assert summary["quadrature.integrand"]["calls"] == 2


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "cli_eval", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_cli_names_spans_after_the_layers(tmp_path):
    sidecar = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    argv = ["audit", "beta", "--grid", "small", "--out", str(tmp_path / "report.json")]
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "cli", str(sidecar), *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(sidecar.read_text())
    assert {
        "cli.main", "audit.run_suite", "audit.canonical_json", "audit.write", "identities.3.2",
        "betapsi.beta_unit", "betapsi.beta_symmetric", "betapsi.beta_semiaxis",
        "quadrature", "quadrature.integrand",
    } <= set(tracer.summarize(spans))
    assert spans["counts"]["quadrature.integrand_nodes"] > 0

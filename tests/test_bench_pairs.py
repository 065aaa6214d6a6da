"""scripts/bench_pairs.py: win counts, ties and the gain rule over pairs of runs."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.24},
    {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.24},
]


def _pairs(parent, change, items=None):
    items = items or [(1.0, 1.0)] * len(parent)
    return [
        {"parent": {"op_p50_ms": p, "items_per_s": ip}, "change": {"op_p50_ms": c, "items_per_s": ic}}
        for p, c, (ip, ic) in zip(parent, change, items)
    ]


def test_gain_needs_nine_tenths_of_the_pairs_and_more_than_the_parent_iqr():
    parent = [100.0 + i for i in range(10)]
    out = bench_pairs.summarize(_pairs(parent, [80.0] * 10), METRICS)["op_p50_ms"]
    assert (out["change_wins"], out["ties"], out["gain_holds"]) == (10, 0, True)
    assert out["parent"]["median"] == 104.5 and out["change"]["median"] == 80.0

    # two lost pairs: 8 of 10 is short of nine tenths
    out = bench_pairs.summarize(_pairs(parent, [80.0] * 8 + [200.0] * 2), METRICS)["op_p50_ms"]
    assert (out["change_wins"], out["gain_holds"]) == (8, False)

    # every pair won, but by less than the parent's own spread
    out = bench_pairs.summarize(_pairs(parent, [p - 0.5 for p in parent]), METRICS)["op_p50_ms"]
    assert (out["change_wins"], out["gain_holds"]) == (10, False)


def test_higher_is_better_and_ties_count_for_neither_side():
    out = bench_pairs.summarize(_pairs([1.0] * 4, [1.0] * 4, [(5.0, 6.0), (5.0, 5.0), (5.0, 4.0), (5.0, 7.0)]),
                                METRICS)
    assert (out["items_per_s"]["change_wins"], out["items_per_s"]["ties"]) == (2, 1)
    assert (out["op_p50_ms"]["change_wins"], out["op_p50_ms"]["ties"]) == (0, 4)
    assert out["op_p50_ms"]["median_change_share"] == 0.0


def test_src_lines_counts_python_files_under_src_only(tmp_path):
    (tmp_path / "src" / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("import math\n\nx = 1\n")
    (tmp_path / "src" / "pkg" / "sub" / "b.py").write_text("y = 2\nz = 3")  # no final newline
    (tmp_path / "src" / "pkg" / "schema.json").write_text("{}\n{}\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_a.py").write_text("a = 1\n")
    assert bench_pairs.src_lines(str(tmp_path)) == 5


def test_environment_records_whether_bytecode_writing_was_off():
    run = {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1", "mpmath": "1.3.0", "nproc": 2,
           "machine": "x86_64", "platform": "dropped"}
    kept = {key: run[key] for key in ("python", "numpy", "scipy", "mpmath", "nproc", "machine")}
    assert bench_pairs.recorded_environment(run, {"PYTHONDONTWRITEBYTECODE": "1"}) == {
        **kept, "PYTHONDONTWRITEBYTECODE": True}
    # unset or empty, Python writes bytecode
    for env in ({}, {"PYTHONDONTWRITEBYTECODE": ""}):
        assert bench_pairs.recorded_environment(run, env) == {**kept, "PYTHONDONTWRITEBYTECODE": False}

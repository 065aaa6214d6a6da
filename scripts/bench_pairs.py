#!/usr/bin/env python3
"""Run one benchmark workload on a parent commit and on HEAD in alternating pairs.

Usage:
    python scripts/bench_pairs.py --parent REV --workload W --pairs N --seed S

Run it from the root of a git checkout.  REV and HEAD are each exported
with ``git archive`` into a temporary directory, and each tree's own
``perfbench/run.py`` runs there for ``run_seconds`` of ``BENCHMARK.json``,
untraced.  Pair i uses seed S+i; even pairs run the parent first, odd pairs
the change.  Only committed files are measured, and the two commits must
hold the same ``perfbench/`` and ``BENCHMARK.json``.

Writes ``BENCH_<short sha of HEAD>.json`` to the checkout root, one entry
per workload (a later run adds its workload to the file): every pair's
end-to-end metrics, each side's median and quartiles per metric, how many
pairs the change won per metric (ties count for neither side), the versions,
``nproc`` and whether ``PYTHONDONTWRITEBYTECODE`` was set.  The run that creates the file also records, per side, the
line count of the ``*.py`` files under ``src/`` and the wall time and exit
code of one tier-1 test run (``python -m pytest -q`` with ``src`` on the
path); these are figures only and gate nothing.  A gain holds when the change won at least nine tenths of the
pairs and its median is better than the parent's by more than the parent's
interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout.strip()


def _export(sha: str, dest: str) -> None:
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", sha], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def _run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench/run.py failed in {tree} (exit {proc.returncode}):\n{proc.stderr}")
    path = os.path.join(tree, ".perfbench-out", f"{workload}-seed{seed}-trace0", "result.json")
    with open(path, encoding="utf-8") as fh:
        result = json.load(fh)
    side = {name: mv["value"] for name, mv in result["summary"]["metrics"].items()}
    side.update(attempted=result["summary"]["attempted"], failed=result["summary"]["failed"])
    if "report_sha256" in result["detail"]:
        side["report_sha256"] = result["detail"]["report_sha256"]
    return {"side": side, "environment": result["environment"]}


def recorded_environment(run_environment: dict, env) -> dict:
    """The versions, ``nproc`` and machine a run reports, and whether ``PYTHONDONTWRITEBYTECODE`` was
    set in ``env``: without bytecode every timed process compiles the package."""
    out = {key: run_environment[key] for key in ("python", "numpy", "scipy", "mpmath", "nproc", "machine")}
    out["PYTHONDONTWRITEBYTECODE"] = bool(env.get("PYTHONDONTWRITEBYTECODE"))
    return out


def src_lines(tree: str) -> int:
    """Lines of the ``*.py`` files under ``tree/src``."""
    return sum(len(path.read_text(encoding="utf-8").splitlines()) for path in Path(tree, "src").rglob("*.py"))


def _tier1(tree: str) -> dict:
    """Wall time and exit code of one tier-1 test run in ``tree``."""
    env = {**os.environ, "PYTHONPATH": "src"}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"], cwd=tree, env=env, capture_output=True)
    return {"tier1_s": round(time.perf_counter() - start, 2), "tier1_exit": proc.returncode}


def _spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, the change's wins and whether a gain holds."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        losses = sum((c > p) if lower else (c < p) for p, c in zip(parent, change))
        ps, cs = _spread(parent), _spread(change)
        gain = (ps["median"] - cs["median"]) if lower else (cs["median"] - ps["median"])
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            "parent": ps,
            "change": cs,
            "change_wins": wins,
            "ties": len(pairs) - wins - losses,
            "median_change_share": (cs["median"] - ps["median"]) / ps["median"] if ps["median"] else None,
            "gain_holds": wins >= 0.9 * len(pairs) and gain > ps["q3"] - ps["q1"],
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="the commit to compare HEAD against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair; pair i uses seed+i")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    root = _git("rev-parse", "--show-toplevel")
    os.chdir(root)
    parent_sha, change_sha = _git("rev-parse", args.parent), _git("rev-parse", "HEAD")
    if subprocess.run(["git", "diff", "--quiet", parent_sha, change_sha, "--", "perfbench", "BENCHMARK.json"]).returncode:
        raise SystemExit("perfbench/ or BENCHMARK.json differs between the two commits; pairs would not compare")
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    seconds = bench["run_seconds"]

    out = f"BENCH_{change_sha[:7]}.json"
    doc = None
    if os.path.exists(out):
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc["parent"] != parent_sha:
            raise SystemExit(f"{out} compares against {doc['parent']}, not {parent_sha}")

    pairs, environment = [], None
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {"parent": os.path.join(tmp, "parent"), "change": os.path.join(tmp, "change")}
        _export(parent_sha, trees["parent"])
        _export(change_sha, trees["change"])
        if doc is None:
            doc = {"parent": parent_sha, "change": change_sha, "workloads": {}, "sides": {}}
            for side, tree in trees.items():
                doc["sides"][side] = {"src_lines": src_lines(tree), **_tier1(tree)}
                print(f"{side}: {doc['sides'][side]}", flush=True)
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                run = _run(trees[side], args.workload, seed, seconds)
                pair[side] = run["side"]
                environment = environment or run["environment"]
            pairs.append(pair)
            print(f"pair {i + 1}/{args.pairs} seed {seed}: op_p50_ms parent {pair['parent']['op_p50_ms']:.1f}"
                  f" change {pair['change']['op_p50_ms']:.1f}", flush=True)

    doc["environment"] = recorded_environment(environment, os.environ)
    entry = {"run_seconds": seconds, "pairs": pairs, "metrics": summarize(pairs, bench["end_to_end"])}
    doc["workloads"][args.workload] = entry
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, m in entry["metrics"].items():
        print(f"{name:<14} parent {m['parent']['median']:.6g} change {m['change']['median']:.6g} {m['unit']}"
              f"  change won {m['change_wins']}/{len(pairs)}  gain holds: {m['gain_holds']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

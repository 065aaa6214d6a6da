#!/usr/bin/env python3
"""pkspecial benchmark: four seeded closed-loop workloads, checked against mpmath.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs ``src/pkspecial``).  One
client process drives one worker at a time on the machine it runs on:

  cli_eval     sequential ``python -m pkspecial eval FN ... --format json``
  cli_table    sequential ``python -m pkspecial table FN --x a:b:step --out F``
  audit_all    sequential ``python -m pkspecial audit all --out F``
  route_sweep  one worker evaluating all 22 public routes on blocks of draws

With ``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer ones (see README.md).  Each run also writes
``.perfbench-out/<workload>-seed<N>-trace<T>/result.json`` with versions,
sample counts, quartiles and, when traced, the span sidecars.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import inputs  # noqa: E402
from tracer import summarize  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("cli_eval", "cli_table", "audit_all", "route_sweep")
SETUP_SPAWNS = 5
OP_TIMEOUT_S = 60.0
# Fixed per workload so that parent and change report the same percentile:
# each is about the highest with ten samples beyond it in a 20 s run at the
# baseline's operation rate (a few fewer when the machine runs slow), except
# audit_all, whose ~2.5 s operations give too few samples per run for any tail
# that far out; its upper quartile stands in.
TAIL_PERCENTILE = {"cli_eval": 75, "cli_table": 70, "audit_all": 75, "route_sweep": 90}
# Distinct seeded operations a run judges (route_sweep: 25-draw blocks).  A run
# cycles over them until --seconds are measured, and goes on past that until
# each has run once, so `attempted` and `failed` depend on the seed alone and
# not on the speed of the machine.
JUDGED_OPS = {"cli_eval": 42, "cli_table": 16, "audit_all": 1, "route_sweep": 40}
CASES = {
    "cli_eval": inputs.eval_cases,
    "cli_table": inputs.table_cases,
    "audit_all": lambda seed: itertools.repeat(None),  # audit all takes no input
    "route_sweep": inputs.sweep_blocks,
}

EVAL_ROUTE = {
    "gamma": "gamma.closed",
    "beta": "betapsi.beta_closed",
    "psi": "betapsi.psi",
    "poch": "pochhammer.direct",
    "polygamma": "betapsi.polygamma",
    "hyper": "hyper.series",
}
TABLE_ROUTE = {fn: EVAL_ROUTE[fn] for fn in inputs.TABLE_FUNCTIONS}

CATALOG_IDS = (
    "2.2", "2.4", "2.5", "2.8", "2.9", "2.10", "2.20", "2.21", "2.33", "2.34",
    "2.6", "2.7", "2.14", "2.15", "2.16", "2.17", "2.18", "2.19", "2.22", "2.23",
    "2.24", "2.25", "2.26", "2.27", "2.28", "2.29", "2.30", "2.31", "2.32",
    "3.1", "3.2", "3.3", "3.4", "3.6", "3.7", "3.8", "3.9", "3.10", "3.11",
    "4.2", "4.3", "4.4", "4.5",
)

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "items_per_s": "1/s",
    "correct_share": "share",
}


def _per_layer_units() -> dict[str, str]:
    units = {
        "import.numpy_ms": "ms",
        "import.scipy_ms": "ms",
        "import.pkspecial_self_ms": "ms",
        "cli.eval_ms": "ms",
        "cli.table_us_per_row": "us",
    }
    for route in check.ROUTE_TRUTH:
        units[f"{route}.us"] = "us"
        units[f"{route}.failed"] = "count"
    units.update({
        "sweep.raised_typed": "count",
        "sweep.raised_raw": "count",
        "sweep.wrong_value": "count",
        "quadrature.calls": "count",
        "quadrature.self_ms": "ms",
        "quadrature.integrand_nodes": "count",
        "quadrature.no_convergence": "count",
    })
    for cid in CATALOG_IDS:
        units[f"identities.{cid}.ms"] = "ms"
    units.update({
        "audit.run_suite_ms": "ms",
        "audit.report_to_dict_ms": "ms",
        "audit.canonical_json_ms": "ms",
        "audit.write_ms": "ms",
        "audit.report_bytes": "bytes",
        "audit.records": "count",
        "trace.overhead_share": "share",
    })
    return units


PER_LAYER = _per_layer_units()


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# ---------------------------------------------------------------------------
# statistics


def quartiles(values: list[float]) -> dict:
    vals = sorted(values)
    if len(vals) >= 2:
        q1, q2, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q2 = q3 = vals[0]
    return {"n": len(vals), "q1": q1, "median": statistics.median(vals), "q3": q3}


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    vals = sorted(values)
    idx = max(0, math.ceil(pct / 100.0 * len(vals)) - 1)
    return vals[idx], len(vals) - idx - 1


# ---------------------------------------------------------------------------
# running


@dataclass
class Phase:
    """What one measuring phase saw: per-op walls and items, and traced sidecars."""

    walls: list[float] = field(default_factory=list)
    items: int = 0
    sidecars: list[dict] = field(default_factory=list)  # span summary per traced process
    counts: list[dict] = field(default_factory=list)  # tracer counters per traced process
    importtimes: list[dict] = field(default_factory=list)
    extra: list[dict] = field(default_factory=list)  # per-op workload data

    @property
    def measured(self) -> float:
        return sum(self.walls)


class Judged:
    """The outcomes of each distinct operation; a run of it that fails marks it failed."""

    def __init__(self) -> None:
        self.by_case: dict[int, list[tuple[str, str]]] = {}  # case -> [(route or check, outcome)]

    def record(self, case: int, pairs: list[tuple[str, str]]) -> None:
        seen = self.by_case.setdefault(case, list(pairs))
        for i, pair in enumerate(pairs):
            if pair[1] != check.OK:
                seen[i] = pair

    def outcomes(self) -> list[tuple[str, str]]:
        return [pair for case in sorted(self.by_case) for pair in self.by_case[case]]


class Context:
    def __init__(self, root: str, workload: str, seed: int, trace: int) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.cases = list(itertools.islice(CASES[workload](seed), JUDGED_OPS[workload]))
        self.judged = Judged()
        self.truths: dict[int, list[dict]] = {}  # route_sweep: case -> truth kind -> value, per draw
        self.out = os.path.join(root, ".perfbench-out", f"{workload}-seed{seed}-trace{trace}")
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        src = os.path.join(root, "src")
        self.env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        self.env.pop("PYTHONSTARTUP", None)
        self._n = 0
        self.setup_times: list[float] = []
        self._setup_every: float | None = None

    def spread_setup(self, seconds: float) -> None:
        """Measure set-up SETUP_SPAWNS times, spaced evenly over the measured ops."""
        self._setup_every = seconds / SETUP_SPAWNS

    def after_op(self, measured: float) -> None:
        every = self._setup_every
        while every is not None and len(self.setup_times) < SETUP_SPAWNS and measured >= every * len(self.setup_times):
            self.setup_times.append(measure_setup(self))

    def path(self, stem: str) -> str:
        self._n += 1
        return os.path.join(self.out, f"{self._n:05d}-{stem}")

    def schedule(self, phase: Phase, seconds: float, complete: bool):
        """Case indices to run, in a cycle, until `seconds` are measured and,
        when `complete`, every case has run once."""
        for i in itertools.count():
            if phase.measured >= seconds and (not complete or i >= len(self.cases)):
                return
            yield i % len(self.cases)


def _fresh(path: str) -> str:
    """Remove a previous operation's output file, so a stale one cannot pass."""
    if os.path.exists(path):
        os.remove(path)
    return path


def _readline(proc: subprocess.Popen) -> str:
    """One line from a worker's stdout, or "" if none arrives within OP_TIMEOUT_S."""
    ready, _, _ = select.select([proc.stdout], [], [], OP_TIMEOUT_S)
    return proc.stdout.readline() if ready else ""


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def parse_importtime(text: str) -> dict:
    """Self import time (ms) owned by numpy, scipy and pkspecial, from -X importtime.

    Each module's self time goes to the nearest of those three packages that
    encloses it in the import tree (itself included), so stdlib modules that
    scipy pulls in count as scipy.
    """
    stack: list[tuple] = []  # (depth, name, self_us, children), built from the post-order listing
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, _, raw = line[len("import time:"):].split("|", 2)
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        children = []
        while stack and stack[-1][0] > depth:
            children.append(stack.pop())
        node = (depth, raw.strip(), int(self_us), children[::-1])
        stack.append(node)
    owned = {"numpy": 0, "scipy": 0, "pkspecial": 0}

    def walk(node, owner):
        _, name, self_us, children = node
        top = name.split(".")[0]
        owner = top if top in owned else owner
        if owner:
            owned[owner] += self_us
        for child in children:
            walk(child, owner)

    for node in stack:
        walk(node, None)
    return {
        "import.numpy_ms": owned["numpy"] / 1e3,
        "import.scipy_ms": owned["scipy"] / 1e3,
        "import.pkspecial_self_ms": owned["pkspecial"] / 1e3,
    }


def run_cli_op(ctx: Context, argv: list[str], traced: bool, phase: Phase):
    """One CLI process, closed loop; returns (returncode, stdout, wall seconds)."""
    py = sys.executable
    err_path = os.path.join(ctx.out, "stderr.txt")
    if traced:
        sidecar = ctx.path("spans.json")
        cmd = [py, "-X", "importtime", WORKER, "cli", sidecar, *argv]
    else:
        cmd = [py, "-m", "pkspecial", *argv]
    with open(err_path, "w", encoding="utf-8") as err:
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, stdout=subprocess.PIPE, stderr=err, text=True, env=ctx.env,
                cwd=ctx.root, timeout=OP_TIMEOUT_S,
            )
            rc, stdout = proc.returncode, proc.stdout
        except subprocess.TimeoutExpired:
            rc, stdout = -9, ""
        wall = time.perf_counter() - t0
    if traced:
        _add_sidecar(phase, sidecar, err_path)
    return rc, stdout, wall


def _add_sidecar(phase: Phase, sidecar: str, err_path: str) -> None:
    text = _read(sidecar)
    spans = json.loads(text) if text else {"names": [], "spans": [], "counts": {}}
    phase.sidecars.append(summarize(spans))
    phase.counts.append(spans["counts"])
    phase.importtimes.append(parse_importtime(_read(err_path)))


def phase_cli_eval(ctx: Context, seconds: float, traced: bool, complete: bool = True) -> Phase:
    phase = Phase()
    for j in ctx.schedule(phase, seconds, complete):
        fn, argv, spec = ctx.cases[j]
        rc, stdout, wall = run_cli_op(ctx, ["eval", *argv], traced, phase)
        phase.walls.append(wall)
        phase.items += 1
        ctx.judged.record(j, [(EVAL_ROUTE[fn], check.judge_eval(rc, stdout, spec))])
        ctx.after_op(phase.measured)
    return phase


def phase_cli_table(ctx: Context, seconds: float, traced: bool, complete: bool = True) -> Phase:
    phase = Phase()
    csv_path = os.path.join(ctx.out, "table.csv")
    for j in ctx.schedule(phase, seconds, complete):
        fn, argv, spec = ctx.cases[j]
        _fresh(csv_path)
        rc, _, wall = run_cli_op(ctx, ["table", *argv, "--out", csv_path], traced, phase)
        phase.walls.append(wall)
        phase.items += inputs.TABLE_ROWS
        outcomes = check.judge_table(rc, _read(csv_path), spec)
        ctx.judged.record(j, [(TABLE_ROUTE[fn], o) for o in outcomes])
        ctx.after_op(phase.measured)
    _fresh(csv_path)
    return phase


class _AuditValidator:
    """validate_report, run once per distinct report content (it takes seconds)."""

    def __init__(self, root: str) -> None:
        sys.path.insert(0, os.path.join(root, "src"))
        from pkspecial.audit import validate_report

        self._validate = validate_report
        self._seen: set[str] = set()
        self.digest = ""

    def __call__(self, report: dict) -> None:
        self.digest = hashlib.sha256(
            json.dumps(report, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        if self.digest not in self._seen:
            self._validate(report)
            self._seen.add(self.digest)


def phase_audit_all(ctx: Context, seconds: float, traced: bool, complete: bool = True) -> Phase:
    phase = Phase()
    validator = _AuditValidator(ctx.root)
    report_path = os.path.join(ctx.out, "report.json")
    for j in ctx.schedule(phase, seconds, complete):
        _fresh(report_path)
        rc, _, wall = run_cli_op(ctx, ["audit", "all", "--out", report_path], traced, phase)
        phase.walls.append(wall)
        text = _read(report_path)
        validator.digest = ""
        outcome, report = check.judge_audit(rc, text, validator)
        records = len(report["records"]) if report else 0
        phase.items += records
        ctx.judged.record(j, [("audit", outcome)])
        phase.extra.append({"report_bytes": len(text.encode()), "records": records, "sha256": validator.digest})
        ctx.after_op(phase.measured)
    return phase


def phase_route_sweep(ctx: Context, seconds: float, traced: bool, complete: bool = True) -> Phase:
    phase = Phase()
    py = sys.executable
    err_path = os.path.join(ctx.out, "sweep-stderr.txt")
    if traced:
        sidecar = ctx.path("spans.json")
        cmd = [py, "-X", "importtime", WORKER, "sweep", sidecar]
    else:
        cmd = [py, WORKER, "sweep"]
    kinds = sorted(set(check.ROUTE_TRUTH.values()))
    with open(err_path, "w", encoding="utf-8") as err:
        worker = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, text=True,
            env=ctx.env, cwd=ctx.root,
        )
        try:
            if _readline(worker).strip() != "ready":
                raise BenchError("route-sweep worker did not start; see " + err_path)
            for j in ctx.schedule(phase, seconds, complete):
                draws = ctx.cases[j]
                worker.stdin.write(json.dumps(draws) + "\n")
                worker.stdin.flush()
                line = _readline(worker)
                if not line:
                    raise BenchError("route-sweep worker died or hung; see " + err_path)
                reply = json.loads(line)
                phase.walls.append(reply["wall_ns"] / 1e9)
                if j not in ctx.truths:
                    ctx.truths[j] = [{kind: check.truth(kind, d) for kind in kinds} for d in draws]
                pairs = []
                for results, truths in zip(reply["results"], ctx.truths[j]):
                    for route, kind in check.ROUTE_TRUTH.items():
                        outcome = check.judge(results[route], truths[kind]) if route in results else "missing"
                        pairs.append((route, outcome))
                    phase.items += len(results)
                ctx.judged.record(j, pairs)
                ctx.after_op(phase.measured)
            worker.stdin.close()
            worker.wait(timeout=OP_TIMEOUT_S)
        finally:
            if worker.poll() is None:
                worker.kill()
                worker.wait()
    if traced:
        _add_sidecar(phase, sidecar, err_path)
    return phase


PHASES = {
    "cli_eval": phase_cli_eval,
    "cli_table": phase_cli_table,
    "audit_all": phase_audit_all,
    "route_sweep": phase_route_sweep,
}


def measure_setup(ctx: Context) -> float:
    """Seconds from spawning a worker until it has imported and warmed up."""
    err_path = os.path.join(ctx.out, "setup-stderr.txt")
    with open(err_path, "w", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, WORKER, "setup", ctx.workload], stdout=subprocess.PIPE,
            stderr=err, text=True, env=ctx.env, cwd=ctx.root,
        )
        try:
            line = _readline(proc)
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=OP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError("set-up failed; see " + err_path)
    return elapsed


def prime(ctx: Context) -> None:
    """Import the package once so the timed processes find compiled bytecode."""
    proc = subprocess.run(
        [sys.executable, "-c", "import pkspecial.cli"], env=ctx.env, cwd=ctx.root,
        capture_output=True, text=True, timeout=OP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError("cannot import pkspecial from src/: " + proc.stderr.strip()[-500:])


# ---------------------------------------------------------------------------
# metrics


def end_to_end(workload: str, setup: list[float], phase: Phase, outcomes: list) -> tuple[dict, dict]:
    ops_ms = [w * 1e3 for w in phase.walls]
    tail_pct = TAIL_PERCENTILE[workload]
    tail, beyond = percentile(ops_ms, tail_pct)
    failed = sum(1 for _, o in outcomes if o != check.OK)
    values = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "op_p50_ms": statistics.median(ops_ms),
        "op_tail_ms": tail,
        "items_per_s": phase.items / phase.measured,
        "correct_share": 1.0 - failed / len(outcomes),
    }
    detail = {
        "setup_s": quartiles(setup),
        "op_ms": quartiles(ops_ms),
        "op_tail": {"percentile": tail_pct, "samples_beyond": beyond},
        "ops": len(ops_ms),
        "items": phase.items,
        "measured_s": phase.measured,
    }
    return values, detail


def _p50_us(durations_ns: list[int]) -> float:
    return statistics.median(durations_ns) / 1e3 if durations_ns else 0.0


def per_layer(workload: str, traced: Phase, plain: Phase, outcomes: list) -> tuple[dict, dict]:
    """Per-layer metrics from the traced phase; layers a workload never runs read 0.

    Counts and times are per operation (CLI process or 25-draw block),
    except the route and sweep failure counts, which cover the run's judged
    cases (JUDGED_OPS).
    """
    m = {name: 0.0 for name in PER_LAYER}
    detail: dict = {}
    ops = len(traced.walls)

    if traced.importtimes:
        detail["imports_ms"] = {}
        for key in ("import.numpy_ms", "import.scipy_ms", "import.pkspecial_self_ms"):
            detail["imports_ms"][key] = quartiles([it[key] for it in traced.importtimes])
            m[key] = detail["imports_ms"][key]["median"]

    pooled: dict[str, dict] = {}
    for sc in traced.sidecars:
        for name, s in sc.items():
            p = pooled.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0, "durations_ns": []})
            p["calls"] += s["calls"]
            p["total_ns"] += s["total_ns"]
            p["self_ns"] += s["self_ns"]
            p["durations_ns"].extend(s["durations_ns"])
    for route in check.ROUTE_TRUTH:
        m[f"{route}.us"] = _p50_us(pooled.get(route, {}).get("durations_ns", []))

    for route, outcome in outcomes:
        if outcome != check.OK:
            if route in check.ROUTE_TRUTH:
                m[f"{route}.failed"] += 1
            if workload == "route_sweep" and f"sweep.{outcome}" in m:
                m[f"sweep.{outcome}"] += 1

    quad = pooled.get("quadrature", {"calls": 0, "self_ns": 0})
    m["quadrature.calls"] = quad["calls"] / ops
    m["quadrature.self_ms"] = quad["self_ns"] / 1e6 / ops
    for key in ("quadrature.integrand_nodes", "quadrature.no_convergence"):
        m[key] = sum(c.get(key, 0) for c in traced.counts) / ops
    for cid in CATALOG_IDS:
        m[f"identities.{cid}.ms"] = pooled.get(f"identities.{cid}", {}).get("total_ns", 0) / 1e6 / ops

    main_ms = [sc["cli.main"]["total_ns"] / 1e6 for sc in traced.sidecars if "cli.main" in sc]
    if workload == "cli_eval" and main_ms:
        m["cli.eval_ms"] = statistics.median(main_ms)
    if workload == "cli_table" and main_ms:
        m["cli.table_us_per_row"] = statistics.median(main_ms) * 1e3 / inputs.TABLE_ROWS
    if workload == "audit_all":
        for key, name, field_ in (
            ("audit.run_suite_ms", "audit.run_suite", "total_ns"),
            ("audit.report_to_dict_ms", "audit.report_to_dict", "total_ns"),
            ("audit.canonical_json_ms", "audit.canonical_json", "self_ns"),
            ("audit.write_ms", "audit.write", "self_ns"),
        ):
            m[key] = statistics.median(sc.get(name, {field_: 0})[field_] / 1e6 for sc in traced.sidecars)
        m["audit.report_bytes"] = statistics.median(e["report_bytes"] for e in traced.extra)
        m["audit.records"] = statistics.median(e["records"] for e in traced.extra)
        detail["report_sha256"] = sorted({e["sha256"] for e in traced.extra + plain.extra})

    plain_p50 = statistics.median(plain.walls)
    traced_p50 = statistics.median(traced.walls)
    m["trace.overhead_share"] = traced_p50 / plain_p50 - 1.0
    detail["overhead"] = {
        "untraced_op_ms": quartiles([w * 1e3 for w in plain.walls]),
        "traced_op_ms": quartiles([w * 1e3 for w in traced.walls]),
    }
    detail["spans"] = {
        name: {"total_ms": p["total_ns"] / 1e6, "self_ms": p["self_ns"] / 1e6,
               "us": quartiles([ns / 1e3 for ns in p["durations_ns"]])}
        for name, p in sorted(pooled.items())
    }
    return m, detail


# ---------------------------------------------------------------------------
# main


def environment(args) -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run(args) -> dict:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pkspecial", "__init__.py")):
        raise BenchError("no src/pkspecial under the working directory; run from a source checkout")
    ctx = Context(root, args.workload, args.seed, args.trace)
    prime(ctx)
    phase_fn = PHASES[args.workload]
    result: dict = {"environment": environment(args)}
    if not args.trace:
        ctx.spread_setup(args.seconds)
        phase = phase_fn(ctx, args.seconds, False)
        metrics, detail = end_to_end(args.workload, ctx.setup_times, phase, ctx.judged.outcomes())
        units = END_TO_END
        if args.workload == "audit_all":
            detail["report_sha256"] = sorted({e["sha256"] for e in phase.extra})
    else:
        # a third of the time untraced, the rest traced: the difference is the overhead
        plain = phase_fn(ctx, args.seconds / 3.0, False, complete=False)
        traced = phase_fn(ctx, args.seconds * 2.0 / 3.0, True)
        metrics, detail = per_layer(args.workload, traced, plain, ctx.judged.outcomes())
        units = PER_LAYER
    detail["judged_cases"] = len(ctx.cases)
    outcomes = [o for _, o in ctx.judged.outcomes()]
    failures: dict[str, int] = {}
    for o in outcomes:
        if o != check.OK:
            failures[o] = failures.get(o, 0) + 1
    result.update(detail=detail, failures=failures)
    summary = {
        # every result was judged against its truth; failures are counted, not hidden
        "correct": all(o == check.OK or o in check.FAILURES for o in outcomes) and bool(outcomes),
        "attempted": len(outcomes),
        "failed": sum(failures.values()),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    result["summary"] = summary
    with open(os.path.join(ctx.out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return result


ALIASES = {
    "cli_eval": (("eval_p50_ms", "op_p50_ms", 1.0, "ms"), ("eval_tail_ms", "op_tail_ms", 1.0, "ms")),
    "cli_table": (("table_rows_per_s", "items_per_s", 1.0, "1/s"),),
    "audit_all": (("audit_wall_s", "op_p50_ms", 1e-3, "s"),),
    "route_sweep": (
        ("sweep_wall_s", "op_p50_ms", 1e-3, "s per 25-draw block"),
        ("sweep_correct_share", "correct_share", 1.0, "share"),
    ),
}


def print_report(result: dict, trace: int, workload: str) -> None:
    env = result["environment"]
    print(f"pkspecial benchmark  workload={workload} seed={env['seed']} trace={trace} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"mpmath={env['mpmath']} nproc={env['nproc']}")
    summary = result["summary"]
    detail = result["detail"]
    if not trace:
        print(f"  ops={detail['ops']} items={detail['items']} measured={detail['measured_s']:.2f}s "
              f"op_ms q1/median/q3={detail['op_ms']['q1']:.2f}/{detail['op_ms']['median']:.2f}/"
              f"{detail['op_ms']['q3']:.2f} tail=p{detail['op_tail']['percentile']} "
              f"({detail['op_tail']['samples_beyond']} beyond) setup n={detail['setup_s']['n']}")
    for name, mv in summary["metrics"].items():
        if trace and mv["value"] == 0:
            continue
        print(f"  {name:<34} {mv['value']:>16.6g} {mv['unit']}")
    if not trace:
        for alias, name, scale, unit in ALIASES[workload]:
            print(f"  {alias:<34} {summary['metrics'][name]['value'] * scale:>16.6g} {unit}")
    if result["failures"]:
        print("  failed operations: " + ", ".join(f"{k}={v}" for k, v in sorted(result["failures"].items())))
    if "report_sha256" in detail:
        print("  report sha256: " + ", ".join(detail["report_sha256"]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print_report(result, args.trace, args.workload)
    print(json.dumps(result["summary"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

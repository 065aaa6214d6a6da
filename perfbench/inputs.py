"""Seeded inputs for the benchmark workloads.

Everything a workload feeds the program comes from here, drawn from a
``random.Random`` seeded by the workload name and ``--seed``: the same seed
gives the same inputs, another seed gives others.  Draws follow the route
domains the library documents:

* p, k (and every other scale) log-uniform in [e^-2, e^2];
* x, y (and the hypergeometric numerators/denominators a, b) log-uniform in
  [e^-3, e^3];
* 1F1 parameters kept inside 0 < a/k < b/s (the confluent integral's domain),
  with the effective argument (p/t) x uniform in [-20, 20] for the route sweep
  and log-uniform in [e^-3, e^3] for the CLI, whose default route is the
  series;
* Pochhammer counts n in 1..20 (the symmetric route needs n >= 1), block
  counts q in 1..3 and polygamma orders r in 2..6.
"""

from __future__ import annotations

import math
import random

EVAL_FUNCTIONS = ("gamma", "beta", "psi", "poch", "polygamma", "hyper")
TABLE_FUNCTIONS = ("gamma", "psi", "beta", "poch")

# A table sweeps x over ROWS points spaced by an exact binary STEP, so the
# abscissae the CLI prints can be compared with the expected ones bit for bit.
TABLE_ROWS = 20_000
TABLE_STEP = 2.0**-10
TABLE_CHECKED_ROWS = 64

SWEEP_BLOCK = 25


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _lu(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(lo, hi))


def _scale(rng: random.Random) -> float:
    return _lu(rng, -2.0, 2.0)


def _arg(rng: random.Random) -> float:
    return _lu(rng, -3.0, 3.0)


def _hyper(rng: random.Random, effective_arg: float) -> dict:
    while True:
        a, ka, b, sb = _arg(rng), _scale(rng), _arg(rng), _scale(rng)
        if a / ka < b / sb:
            break
    pa, tb = _scale(rng), _scale(rng)
    return {"a": a, "pa": pa, "ka": ka, "b": b, "tb": tb, "sb": sb, "hx": effective_arg * tb / pa}


def sweep_draw(rng: random.Random) -> dict:
    """One route-sweep draw: the arguments of every route at once."""
    draw = {
        "p": _scale(rng),
        "k": _scale(rng),
        "x": _arg(rng),
        "y": _arg(rng),
        "n": rng.randint(1, 20),
        "q": rng.randint(1, 3),
        "r": rng.randint(2, 6),
    }
    draw.update(_hyper(rng, rng.uniform(-20.0, 20.0)))
    return draw


def sweep_blocks(seed: int):
    """Endless stream of SWEEP_BLOCK-draw blocks for the route sweep."""
    rng = rng_for("route_sweep", seed)
    while True:
        yield [sweep_draw(rng) for _ in range(SWEEP_BLOCK)]


def _hyper_flags(h: dict) -> list[str]:
    return ["--a", f"{h['a']!r},{h['pa']!r},{h['ka']!r}", "--b", f"{h['b']!r},{h['tb']!r},{h['sb']!r}"]


def eval_cases(seed: int):
    """Endless stream of (function, CLI argv after 'eval', spec for the truth).

    The functions come in rounds that hold each once, in a seeded order, so
    every prefix of whole rounds weighs them alike whatever the seed.
    """
    rng = rng_for("cli_eval", seed)
    while True:
        for fn in rng.sample(EVAL_FUNCTIONS, len(EVAL_FUNCTIONS)):
            yield _eval_case(rng, fn)


def _eval_case(rng: random.Random, fn: str):
    """One cli_eval case of function fn: (fn, CLI argv after 'eval', spec)."""
    p, k = _scale(rng), _scale(rng)
    spec = {"fn": fn, "p": p, "k": k}
    if fn == "hyper":
        h = _hyper(rng, _arg(rng))
        spec.update(h, x=h["hx"])
        flags = _hyper_flags(h)
    else:
        spec["x"] = _arg(rng)
        flags = []
        if fn == "beta":
            spec["y"] = _arg(rng)
            flags = ["--y", repr(spec["y"])]
        elif fn == "poch":
            spec["n"] = rng.randint(1, 20)
            flags = ["--n", str(spec["n"])]
        elif fn == "polygamma":
            spec["r"] = rng.randint(2, 6)
            flags = ["--r", str(spec["r"])]
    argv = [fn, "--p", repr(p), "--k", repr(k), "--x", repr(spec["x"]), *flags, "--format", "json"]
    return fn, argv, spec


def table_cases(seed: int):
    """Endless stream of (function, CLI argv after 'table', spec), cycling the functions.

    The argv leaves out --out; the caller appends it.
    """
    rng = rng_for("cli_table", seed)
    while True:
        for fn in TABLE_FUNCTIONS:
            p, k = _scale(rng), _scale(rng)
            start = rng.randint(1, 1024) * TABLE_STEP
            stop = start + (TABLE_ROWS - 1) * TABLE_STEP
            spec = {"fn": fn, "p": p, "k": k, "start": start}
            flags = []
            if fn == "beta":
                spec["y"] = _arg(rng)
                flags = ["--y", repr(spec["y"])]
            elif fn == "poch":
                spec["n"] = rng.randint(1, 20)
                flags = ["--n", str(spec["n"])]
            spec["checked_rows"] = sorted(rng.sample(range(TABLE_ROWS), TABLE_CHECKED_ROWS))
            argv = [fn, "--p", repr(p), "--k", repr(k), "--x", f"{start!r}:{stop!r}:{TABLE_STEP!r}", *flags]
            yield fn, argv, spec

#!/usr/bin/env python3
"""Count the route sweep's failed judgements per route, in one process.

Usage:
    python scripts/route_failures.py SEED...

For each seed, runs every route of the benchmark's route table
(``perfbench/worker.py``) on the first 1,000 route-sweep draws
(``perfbench/inputs.py``), round-trips each draw's results through JSON as
the worker sends them, and judges each against the mpmath truth with the
benchmark's own rule (``perfbench/check.py``).  Prints one line per seed
with its number of failed judgements, then one indented line per route and
outcome that failed.  Then it prints one fingerprint per route: the first
12 hex digits of a sha256 over that route's JSON results on every draw of
the given seeds, so a run with another commit's ``src`` on the path shows
which routes' results moved.  It only imports ``perfbench/``, and needs
``src`` on the path, as the other scripts do.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from check import OK, ROUTE_TRUTH, judge, truth  # noqa: E402
from inputs import sweep_blocks  # noqa: E402
from worker import call_route, route_table  # noqa: E402

DRAWS = 1_000


def failures(seed: int, draws: int, digests: dict) -> Counter:
    """(route, outcome) -> how many of the seed's first ``draws`` draws failed that way.

    Each route's JSON results are also fed, draw by draw, to ``digests[route]``,
    a sha256 made on first use.
    """
    routes = route_table()
    failed: Counter = Counter()
    for draw in itertools.islice(itertools.chain.from_iterable(sweep_blocks(seed)), draws):
        results = json.loads(json.dumps({name: call_route(fn, draw) for name, fn in routes.items()}))
        for name, result in results.items():
            digests.setdefault(name, hashlib.sha256()).update(json.dumps(result).encode())
            outcome = judge(result, truth(ROUTE_TRUTH[name], draw))
            if outcome != OK:
                failed[name, outcome] += 1
    return failed


def main(argv: list[str]) -> int:
    if not argv or not all(arg.isdigit() for arg in argv):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    digests: dict = {}
    for seed in map(int, argv):
        failed = failures(seed, DRAWS, digests)
        print(f"seed {seed}: {sum(failed.values())} failed in {DRAWS} draws")
        for (name, outcome), count in sorted(failed.items()):
            print(f"  {name} {outcome} {count}")
    print("fingerprints:")
    for name, digest in digests.items():
        print(f"  {name} {digest.hexdigest()[:12]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

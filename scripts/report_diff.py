#!/usr/bin/env python3
"""Compare two audit reports record by record.

Usage:
    python scripts/report_diff.py OLD NEW

OLD and NEW are reports written by `pkspecial audit ... --out`.  Prints
each file's sha256 first: equal hashes mean byte-identical reports.  For each
identity id whose records differ, prints how many of its records differ and
the largest change in rel_err_corrected; then says whether the grid, the
suite or any per-identity summary differs.  Exits 0 when the two reports
hold the same content, 1 on any difference.
"""

import hashlib
import json
import sys
from collections import defaultdict


def _by_id(records: list[dict]) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = defaultdict(list)
    for rec in records:
        out[rec["identity_id"]].append(rec)
    return out


def _delta(a, b) -> float:
    if a is None or b is None:
        return 0.0 if a is b else float("inf")
    return abs(a - b)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    docs = []
    for label, path in zip(("old", "new"), argv):
        with open(path, "rb") as fh:
            raw = fh.read()
        print(f"{label} sha256 {hashlib.sha256(raw).hexdigest()}  {path}")
        docs.append(json.loads(raw))
    old, new = docs
    old_ids, new_ids = _by_id(old["records"]), _by_id(new["records"])
    differs = False
    same = 0
    print(f"{'id':8s} {'records':>8s} {'differ':>7s}  max |change in rel_err_corrected|")
    for ident in sorted(set(old_ids) | set(new_ids), key=lambda s: tuple(map(int, s.split(".")))):
        a, b = old_ids.get(ident, []), new_ids.get(ident, [])
        pairs = [(x, y) for x, y in zip(a, b) if x != y]
        if not pairs and len(a) == len(b):
            same += 1
            continue
        differs = True
        worst = max((_delta(x["rel_err_corrected"], y["rel_err_corrected"]) for x, y in pairs), default=0.0)
        count = f"{len(a)}" if len(a) == len(b) else f"{len(a)}->{len(b)}"
        print(f"{ident:8s} {count:>8s} {len(pairs):>7d}  {worst:.3g}")
    print(f"{same} other ids: records identical")
    for key in ("suite", "grid"):
        if old.get(key) != new.get(key):
            differs = True
            print(f"{key} differs")
    old_sum, new_sum = old["summary"], new["summary"]
    changed = []
    for ident in sorted(set(old_sum["identities"]) | set(new_sum["identities"])):
        x, y = old_sum["identities"].get(ident, {}), new_sum["identities"].get(ident, {})
        fields = sorted(f for f in set(x) | set(y) if x.get(f) != y.get(f))
        if fields:
            changed.append(f"{ident} ({', '.join(fields)})")
    if old_sum.get("all_corrected_pass") != new_sum.get("all_corrected_pass"):
        changed.append("all_corrected_pass")
    if changed:
        differs = True
        print("summaries differ: " + "; ".join(changed))
    else:
        print("summaries: identical")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

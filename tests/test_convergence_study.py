"""scripts/convergence_study.py: the CSV it prints at a positive and at a negative point."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
RECIPROCALS = {"weierstrass", "limit_product_recip"}
ALL_ROUTES = {"limit_raw", "limit_richardson", "euler_product"} | RECIPROCALS


@pytest.mark.parametrize(
    "argv, routes",
    [
        ((), ALL_ROUTES),
        # the limit and Euler-product routes need x > 0: only the reciprocals remain
        (("--x=-3.3", "--k", "1"), RECIPROCALS),
    ],
    ids=["default-point", "negative-x"],
)
def test_every_row_parses(argv, routes):
    env = {**os.environ, "PYTHONPATH": str(_ROOT / "src")}
    run = subprocess.run(
        [sys.executable, str(_ROOT / "scripts" / "convergence_study.py"), *argv],
        env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    header, *rows = run.stdout.splitlines()
    assert header == "route,n,abs_err_ln,us"
    seen = set()
    for row in rows:
        name, n, err, us = row.split(",")
        assert int(n) >= 8 and 0.0 <= float(err) < 1.0 and float(us) > 0.0, row
        seen.add(name)
    assert seen == routes

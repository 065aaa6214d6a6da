"""scripts/route_failures.py: the route sweep's failed judgements, counted per route."""

import importlib.util
import math
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "route_failures.py"


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("route_failures", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_failure_is_counted_against_its_route(script, monkeypatch):
    baseline = script.failures(31, 25, {})
    assert all(name in script.ROUTE_TRUTH and count <= 25 for (name, _), count in baseline.items())
    table = script.route_table()
    closed, limit = table["gamma.closed"], table["gamma.limit"]

    def off_by_one(draw):
        tag, ln, sign, err = closed(draw)
        return [tag, ln + 1.0, sign, err]

    def overflows(draw):
        limit(draw)
        raise OverflowError("raw")

    table.update({"gamma.closed": off_by_one, "gamma.limit": overflows, "gamma.integral": lambda d: ["ln", math.nan, 1, 0.0]})
    monkeypatch.setattr(script, "route_table", lambda: table)
    broken = script.failures(31, 25, {})
    assert broken - baseline == {
        ("gamma.closed", "wrong_value"): 25,
        ("gamma.limit", "raised_raw"): 25,
        ("gamma.integral", "wrong_value"): 25,
    }


def test_fingerprints_move_only_for_the_patched_routes(script, monkeypatch):
    baseline: dict = {}
    script.failures(31, 5, baseline)
    assert set(baseline) == set(script.route_table())
    table = script.route_table()
    closed = table["gamma.closed"]

    def off_by_one(draw):
        tag, ln, sign, err = closed(draw)
        return [tag, ln + 1.0, sign, err]

    table.update({"gamma.closed": off_by_one, "betapsi.psi": lambda d: ["lin", 0.0, 0.0]})
    monkeypatch.setattr(script, "route_table", lambda: table)
    broken: dict = {}
    script.failures(31, 5, broken)
    moved = {name for name in baseline if baseline[name].hexdigest() != broken[name].hexdigest()}
    assert moved == {"gamma.closed", "betapsi.psi"}


# (route, outcome) -> how many of the first 200 route-sweep draws of seed 31 fail that way
SWEEP_PINS = {("pochhammer.gamma_ratio", "wrong_value"): 14}


def test_sweep_failures_hold_their_pins(script):
    counts = script.failures(31, 200, {})
    above = {key: (count, SWEEP_PINS.get(key, 0)) for key, count in counts.items() if count > SWEEP_PINS.get(key, 0)}
    assert not above, f"(count, pin) above the pin: {above}"
    below = {key: (counts[key], pin) for key, pin in SWEEP_PINS.items() if counts[key] < pin}
    assert not below, f"(count, pin) below the pin, lower the pin: {below}"


def test_usage_without_seeds(script, capsys):
    assert script.main([]) == 2
    assert "Usage" in capsys.readouterr().err

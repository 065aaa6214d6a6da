"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single [PASS]/[FAIL] line (visible with -s or -rA, and in
the captured output on failure) and then asserts.  Tolerances are pinned
here; nothing is deferred to later calibration.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import oracles
from pkspecial import (
    BetaArgs,
    DivergentInput,
    HyperParams,
    PkParams,
    PochSpec,
    beta_closed,
    beta_integral,
    check_point,
    classify,
    confluent_integral,
    gamma_closed,
    gamma_euler_product,
    gamma_integral,
    gamma_limit,
    gamma_weierstrass_recip,
    hyper_series,
    k_zeta,
    ode_coefficient_residual,
    pk_binomial,
    poch_direct,
    poch_dk,
    poch_dp,
    poch_gamma_ratio,
    poch_generalized,
    poch_reduce,
    poch_symmetric,
    polygamma,
    psi,
    psi_series,
)
from pkspecial.betapsi import BETA_FORMS
from pkspecial.core import best_central_diff, digamma_classical, richardson_diff

from conftest import GRID_KS, GRID_PS, GRID_XS

POINTS = [(p, k, x) for p in GRID_PS for k in GRID_KS for x in GRID_XS]  # 96 points


def report(label: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_cross_evaluator_gamma():
    worst = {"integral": 0.0, "limit": 0.0, "euler": 0.0, "weierstrass": 0.0}
    for p, k, x in POINTS:
        params = PkParams(p, k)
        closed = gamma_closed(params, x).ln_value
        worst["integral"] = max(
            worst["integral"], abs(gamma_integral(params, x).ln_value - closed)
        )
        worst["limit"] = max(
            worst["limit"],
            abs(gamma_limit(params, x, 100_000, accelerate=True).ln_value - closed),
        )
        worst["euler"] = max(
            worst["euler"], abs(gamma_euler_product(params, x).ln_value - closed)
        )
        worst["weierstrass"] = max(
            worst["weierstrass"],
            abs(-gamma_weierstrass_recip(params, x).ln_value - closed),
        )
    ok = (
        worst["integral"] <= 1e-9
        and worst["limit"] <= 1e-6
        and worst["euler"] <= 1e-6
        and worst["weierstrass"] <= 1e-6
    )
    report(
        "criterion 1: cross-evaluator Gamma agreement on the 96-point grid",
        ok,
        f"integral {worst['integral']:.2e}, limit {worst['limit']:.2e}, "
        f"euler {worst['euler']:.2e}, weierstrass {worst['weierstrass']:.2e}",
    )


def test_criterion_2_fundamental_equations():
    ids = ("2.22", "2.23", "2.24", "2.25", "2.26", "2.27", "2.28", "2.29", "2.31")
    worst = 0.0
    for ident in ids:
        for p, k, x in POINTS:
            rec = check_point(ident, {"p": p, "k": k, "x": x, "n": 2})
            if not rec.skipped:
                worst = max(worst, rec.rel_err_corrected)
    for p, k, x in POINTS:
        for m in (2, 3, 4):
            rec = check_point("2.32", {"p": p, "k": k, "x": x, "m": m})
            if not rec.skipped:
                worst = max(worst, rec.rel_err_corrected)
        rec = check_point("2.30", {"p": p, "k": k, "x": x})
        if not rec.skipped:
            worst = max(worst, rec.rel_err_corrected)
    hand = check_point("2.30", {"p": 1, "k": 2, "x": 1})
    sign_flip = abs(hand.rel_err_printed - 2.0) < 1e-9 and not hand.printed_pass
    lhs_ok = hand.lhs == pytest.approx(-math.pi / 2.0, rel=1e-12)
    ok = worst <= 1e-10 and sign_flip and lhs_ok
    report(
        "criterion 2: fundamental equations at 1e-10; uncorrected reflection flips sign",
        ok,
        f"max corrected rel err {worst:.2e}, printed 2.30 deviation {hand.rel_err_printed:.3f}",
    )


def test_criterion_3_pochhammer_routes_and_recurrences():
    worst_routes = 0.0
    for p, k, x in POINTS:
        for n in (0, 1, 2, 5, 11, 20):
            spec = PochSpec(x, n, PkParams(p, k))
            direct = poch_direct(spec)
            for route in (poch_reduce, poch_gamma_ratio):
                worst_routes = max(worst_routes, abs(route(spec) - direct) / abs(direct))
            if n >= 1:
                worst_routes = max(
                    worst_routes, abs(poch_symmetric(spec) - direct) / abs(direct)
                )
    worst_gen = 0.0
    for p, k, x in POINTS:
        for q in (1, 2, 3):
            for n in (1, 2, 5):
                spec = PochSpec(x, n, PkParams(p, k))
                want = poch_direct(PochSpec(x, n * q, PkParams(p, k)))
                worst_gen = max(worst_gen, abs(poch_generalized(spec, q) - want) / abs(want))
    worst_split = 0.0
    worst_diff = 0.0
    for p, k, x in POINTS:
        for n in (1, 2, 5, 11):
            rec = check_point("2.34", {"p": p, "k": k, "x": x, "n": n, "j": 2})
            worst_split = max(worst_split, rec.rel_err_corrected)
            rec = check_point("2.33", {"p": p, "k": k, "x": x, "n": n})
            worst_diff = max(worst_diff, rec.rel_err_corrected)
    hand = check_point("2.33", {"p": 2.0, "k": 1.0, "x": 2.0, "n": 2})
    printed_fails = (
        hand.rhs_printed == pytest.approx(8.0)
        and hand.lhs == pytest.approx(16.0)
        and not hand.printed_pass
    )
    ok = (
        worst_routes <= 5e-13
        and worst_gen <= 1e-12
        and worst_split <= 1e-13
        and worst_diff <= 1e-12
        and printed_fails
    )
    report(
        "criterion 3: four-route Pochhammer equivalence and recurrences",
        ok,
        f"routes {worst_routes:.2e}, blocks {worst_gen:.2e}, split {worst_split:.2e}, "
        f"difference {worst_diff:.2e}, printed fails at p=2: {printed_fails}",
    )


def test_criterion_4_derivative_identities():
    worst_dp = 0.0
    worst_dk = 0.0
    for p in (0.5, 1.0, 2.0, 3.5):
        for k in (0.5, 1.0, 3.0):
            for x in (0.3, 2.5, 7.3):
                for n in (1, 3, 8):
                    fd_p = best_central_diff(
                        lambda pp: poch_direct(PochSpec(x, n, PkParams(pp, k))), p
                    )
                    got_p = poch_dp(PochSpec(x, n, PkParams(p, k)))
                    worst_dp = max(worst_dp, abs(got_p - fd_p) / max(abs(fd_p), 1e-300))
                    fd_k = best_central_diff(
                        lambda kk: poch_direct(PochSpec(x, n, PkParams(p, kk))), k
                    )
                    got_k = poch_dk(PochSpec(x, n, PkParams(p, k)))
                    worst_dk = max(worst_dk, abs(got_k - fd_k) / max(abs(fd_k), 1e-300))
    ok = worst_dp <= 1e-6 and worst_dk <= 1e-6
    report(
        "criterion 4: parameter derivatives vs central differences",
        ok,
        f"d/dp {worst_dp:.2e}, d/dk {worst_dk:.2e}",
    )


def test_criterion_5_beta():
    worst_forms = 0.0
    for k in GRID_KS:
        for x in (0.3, 1.1, 2.5, 7.3):
            for y in (0.3, 2.5, 7.3):
                args = BetaArgs(x, y, PkParams(1.0, k))
                want = beta_closed(args).value
                for form in BETA_FORMS:
                    got = beta_integral(args, form).value
                    worst_forms = max(worst_forms, abs(got - want) / abs(want))
    p_independent = True
    for form in (None,) + BETA_FORMS:
        vals = set()
        for p in (0.5, 1.0, 7.0):
            args = BetaArgs(1.7, 0.4, PkParams(p, 2.0))
            vals.add(beta_closed(args).value if form is None else beta_integral(args, form).value)
        p_independent = p_independent and len(vals) == 1
    worst_sym = 0.0
    for k in GRID_KS:
        for x in (0.3, 2.5):
            for y in (0.7, 7.3):
                a = beta_closed(BetaArgs(x, y, PkParams(1.0, k))).value
                b = beta_closed(BetaArgs(y, x, PkParams(1.0, k))).value
                worst_sym = max(worst_sym, abs(a - b) / abs(a))
    ok = worst_forms <= 1e-9 and p_independent and worst_sym <= 1e-14
    report(
        "criterion 5: Beta integral forms, exact p-independence, symmetry",
        ok,
        f"forms {worst_forms:.2e}, p-independent {p_independent}, symmetry {worst_sym:.2e}",
    )


def test_criterion_6_psi_family():
    worst_fd = 0.0
    for p, k, x in POINTS:
        params = PkParams(p, k)
        fd = richardson_diff(
            lambda t: gamma_closed(params, t).ln_value, x, h=1e-3 * min(1.0, x)
        )
        got = psi(params, x).value
        worst_fd = max(worst_fd, abs(got - fd) / max(abs(fd), 1.0))
    worst_series = 0.0
    for p, k, x in POINTS:
        params = PkParams(p, k)
        want = psi(params, x).value
        for form in ("3.9", "3.10"):
            got = psi_series(params, x, form).value
            worst_series = max(worst_series, abs(got - want) / max(abs(want), 1.0))
    worst_poly_fd = 0.0
    for k in GRID_KS:
        for x in (0.7, 2.5, 7.3):
            params = PkParams(1.0, k)
            fd = richardson_diff(lambda t: psi(params, t).value, x, h=1e-3 * min(1.0, x))
            got = polygamma(params, x, 2).value
            worst_poly_fd = max(worst_poly_fd, abs(got - fd) / max(abs(fd), 1e-300))
    worst_poly_classical = 0.0
    for x in GRID_XS:
        for r in (2, 3, 4):
            got = polygamma(PkParams(1.0, 1.0), x, r).value
            want = oracles.mp_polygamma(r - 1, x)
            worst_poly_classical = max(worst_poly_classical, abs(got - want) / abs(want))
    # the un-normalized variants miss the definitional value by the factor k
    params = PkParams(1.0, 2.0)
    psi_ratio = check_point("3.8", {"p": 1.0, "k": 2.0, "x": 2.0}).rhs_printed / psi(params, 2.0).value
    poly_ratio = (
        check_point("3.11", {"p": 1.0, "k": 2.0, "x": 2.0, "r": 2}).rhs_printed / polygamma(params, 2.0, 2).value
    )
    pattern = abs(psi_ratio - 2.0) < 1e-12 and abs(poly_ratio - 2.0) < 1e-12
    ok = (
        worst_fd <= 1e-8
        and worst_series <= 1e-6
        and worst_poly_fd <= 1e-4
        and worst_poly_classical <= 1e-10
        and pattern
    )
    report(
        "criterion 6: psi family derivative/series/polygamma checks",
        ok,
        f"fd {worst_fd:.2e}, series {worst_series:.2e}, poly-fd {worst_poly_fd:.2e}, "
        f"poly-classical {worst_poly_classical:.2e}, factor pattern {pattern}",
    )


def test_criterion_7_hypergeometric():
    worst_binom = 0.0
    for p in GRID_PS:
        for k in GRID_KS:
            for a in (0.3, 1.1, 2.5, k):
                fracs = [0.25, 0.5, 0.9]
                if a / k <= 2.0:
                    fracs += [-0.5, -0.9]  # alternating sums stay well-conditioned here
                for frac in fracs:
                    x = frac / p
                    got = pk_binomial(a, PkParams(p, k), x).value
                    want = math.exp(-(a / k) * math.log1p(-x * p))
                    worst_binom = max(worst_binom, abs(got - want) / abs(want))
    rng = np.random.default_rng(42)
    worst_round = 0.0
    for _ in range(50):
        r, q = rng.choice([(1, 1), (2, 1), (1, 2), (2, 2)])
        upper = tuple(
            (float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.7, 2.0)), float(rng.uniform(0.7, 2.0)))
            for _ in range(r)
        )
        lower = tuple(
            (float(rng.uniform(0.6, 3.0)), float(rng.uniform(0.7, 2.0)), float(rng.uniform(0.7, 2.0)))
            for _ in range(q)
        )
        hp = HyperParams(upper=upper, lower=lower)
        cls = classify(hp)
        span = cls.radius / 2.0 if cls.radius else 0.5 / max(1.0, hp.scale)
        x = float(rng.uniform(-span, span))
        classical = HyperParams(
            upper=tuple((a, 1.0, 1.0) for a in hp.alphas),
            lower=tuple((b, 1.0, 1.0) for b in hp.betas),
        )
        lhs = hyper_series(hp, x).value
        rhs = hyper_series(classical, hp.scale * x).value
        worst_round = max(worst_round, abs(lhs - rhs) / max(abs(lhs), 1e-12))
    worst_coeff = 0.0
    for _ in range(20):
        r, q = rng.choice([(1, 1), (2, 1), (2, 2)])
        upper = tuple(
            (float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.7, 2.0)), float(rng.uniform(0.7, 2.0)))
            for _ in range(r)
        )
        lower = tuple(
            (float(rng.uniform(0.6, 3.0)), float(rng.uniform(0.7, 2.0)), float(rng.uniform(0.7, 2.0)))
            for _ in range(q)
        )
        worst_coeff = max(
            worst_coeff, ode_coefficient_residual(HyperParams(upper, lower))
        )
    worst_confluent = 0.0
    for a, b, x in ((0.5, 2.0, 1.0), (1.0, 3.0, -1.0), (2.5, 6.0, 0.3), (0.7, 1.5, 2.0)):
        hp = HyperParams(upper=((a, 1.0, 1.0),), lower=((b, 1.0, 1.0),))
        got = confluent_integral(hp, x).value
        want = hyper_series(hp, x).value
        worst_confluent = max(worst_confluent, abs(got - want) / abs(want))
    h_radius = HyperParams(upper=((1.0, 2.0, 1.0), (1.0, 3.0, 1.0)), lower=((2.0, 1.0, 1.0),))
    rho = classify(h_radius).radius
    try:
        hyper_series(h_radius, 1.05 * rho)
        divergence_detected = False
    except DivergentInput:
        divergence_detected = True
    ok = (
        worst_binom <= 1e-12
        and worst_round <= 1e-12
        and worst_coeff <= 1e-13
        and worst_confluent <= 1e-8
        and divergence_detected
    )
    report(
        "criterion 7: hypergeometric identity, reduction, recurrence, integral",
        ok,
        f"binomial {worst_binom:.2e}, round-trip {worst_round:.2e}, "
        f"coeff {worst_coeff:.2e}, confluent {worst_confluent:.2e}, "
        f"divergence detected {divergence_detected}",
    )


def test_criterion_8_reduction_sanity():
    worst_k = 0.0
    for k in GRID_KS:
        for x in GRID_XS:
            got = gamma_closed(PkParams(k, k), x).ln_value
            z = x / k
            want = (z - 1.0) * math.log(k) + oracles.mp_ln_gamma(z)
            worst_k = max(worst_k, abs(got - want))
    worst_classical = 0.0
    unit = PkParams(1.0, 1.0)
    for x in GRID_XS:
        worst_classical = max(
            worst_classical,
            abs(gamma_closed(unit, x).ln_value - oracles.mp_ln_gamma(x)),
            abs(psi(unit, x).value - digamma_classical(x)),
            abs(
                beta_closed(BetaArgs(x, 1.3, unit)).value
                - oracles.mp_pk_beta(1.0, x, 1.3)
            )
            / oracles.mp_pk_beta(1.0, x, 1.3),
            abs(k_zeta(x, 2, 1.0).value - oracles.mp_k_zeta(x, 2, 1.0))
            / oracles.mp_k_zeta(x, 2, 1.0),
        )
        for n in (1, 4):
            classical_rising = math.prod(x + i for i in range(n))
            got = poch_direct(PochSpec(x, n, unit))
            worst_classical = max(
                worst_classical, abs(got - classical_rising) / classical_rising
            )
    ok = worst_k <= 1e-12 and worst_classical <= 1e-12
    report(
        "criterion 8: p=k matches the one-parameter family; p=k=1 matches classical",
        ok,
        f"k-family {worst_k:.2e}, classical {worst_classical:.2e}",
    )


def test_criterion_9_cli_audit(tmp_path):
    out1 = tmp_path / "audit1.json"
    out2 = tmp_path / "audit2.json"
    # the two audits run at once; elapsed is the first one's wall time
    start = time.time()
    proc1, proc2 = (
        subprocess.Popen(
            [sys.executable, "-m", "pkspecial", "audit", "all", "--out", str(out)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for out in (out1, out2)
    )
    proc1.communicate()
    elapsed = time.time() - start
    proc2.communicate()
    deterministic = out1.read_bytes() == out2.read_bytes()
    from pkspecial import validate_report

    doc = json.loads(out1.read_text())
    validate_report(doc)
    pole = subprocess.run(
        [sys.executable, "-m", "pkspecial", "eval", "gamma", "--k", "1", "--x", "-2"],
        capture_output=True,
        text=True,
    )
    usage = subprocess.run(
        [sys.executable, "-m", "pkspecial", "eval", "gamma", "--x", "oops"],
        capture_output=True,
        text=True,
    )
    exit_codes_ok = proc1.returncode == 0 and pole.returncode == 2 and usage.returncode == 2
    ok = (
        proc1.returncode == 0
        and proc2.returncode == 0
        and deterministic
        and elapsed < 60.0
        and exit_codes_ok
        and doc["summary"]["all_corrected_pass"]
    )
    report(
        "criterion 9: deterministic schema-valid audit, exit codes, < 60 s",
        ok,
        f"elapsed {elapsed:.1f}s, deterministic {deterministic}, exit codes {exit_codes_ok}",
    )

"""The benchmark's checker: mpmath truth at 40 digits and the failure rules.

A result passes when its value lies within its own reported abs_err of the
truth.  Everything else is a failed operation, classified as one of:

* ``wrong_value``  -- a value outside its abs_err (or a non-finite value or
  error estimate where the truth is finite);
* ``raised_typed`` -- one of the library's own exceptions;
* ``raised_raw``   -- any other exception (ValueError, OverflowError, ...);
* ``exit_nonzero`` -- a CLI process that exited with a non-zero code;
* ``missing``      -- a CLI process whose output lacks the expected result.

Log-space Gamma results (``GammaEval``) are judged on the log: the route's
abs_err_ln bounds |ln_value - ln|G||, and the sign must match.  The bare-float
Pochhammer routes report no error, so they are held to the CLI's
|v| * 1e-15 * (n + 1).  A true value past the double range is matched by an
infinite value of the right sign.

Truth is computed in the benchmark's own process, never in a timed region.
"""

from __future__ import annotations

import csv
import io
import json
import math

import mpmath as mp

from inputs import TABLE_ROWS, TABLE_STEP

mp.mp.dps = 40

OK = "ok"
FAILURES = ("wrong_value", "raised_typed", "raised_raw", "exit_nonzero", "missing")
DOUBLE_MAX = mp.mpf(1.7976931348623157e308)

# route name -> truth kind; the worker's route table must name the same routes
ROUTE_TRUTH = {
    "gamma.closed": "ln_gamma",
    "gamma.limit": "ln_gamma",
    "gamma.integral": "ln_gamma",
    "gamma.euler_product": "ln_gamma",
    "gamma.weierstrass": "ln_gamma_recip",
    "gamma.limit_product_recip": "ln_gamma_recip",
    "pochhammer.direct": "poch",
    "pochhammer.symmetric": "poch",
    "pochhammer.reduce": "poch",
    "pochhammer.gamma_ratio": "poch",
    "pochhammer.generalized": "poch_blocks",
    "betapsi.beta_closed": "beta",
    "betapsi.beta_unit": "beta",
    "betapsi.beta_symmetric": "beta",
    "betapsi.beta_semiaxis": "beta",
    "betapsi.psi": "psi",
    "betapsi.psi_series_3.9": "psi",
    "betapsi.psi_series_3.10": "psi",
    "betapsi.polygamma": "polygamma",
    "betapsi.ln_gamma_via_psi": "ln_gamma_value",
    "hyper.series": "hyp1f1",
    "hyper.confluent_integral": "hyp1f1",
}


def ln_gamma_pk(p: float, k: float, x: float):
    """(ln|G_{p,k}(x)|, sign) for x > 0, where G = p^(x/k) Gamma(x/k) / k."""
    z = mp.mpf(x) / k
    return z * mp.log(p) + mp.loggamma(z) - mp.log(k), 1


def truth(kind: str, d: dict):
    """The true value of one truth kind at draw d (mpf, or (ln, sign) for log kinds)."""
    p, k, x = d["p"], d["k"], d["x"]
    z = mp.mpf(x) / k
    if kind == "ln_gamma":
        return ln_gamma_pk(p, k, x)
    if kind == "ln_gamma_recip":
        ln, sign = ln_gamma_pk(p, k, x)
        return -ln, sign
    if kind == "ln_gamma_value":
        return ln_gamma_pk(p, k, x)[0]
    if kind == "poch":
        return mp.mpf(p) ** d["n"] * mp.rf(z, d["n"])
    if kind == "poch_blocks":
        count = d["n"] * d["q"]
        return mp.mpf(p) ** count * mp.rf(z, count)
    if kind == "beta":
        return mp.beta(z, mp.mpf(d["y"]) / k) / k
    if kind == "psi":
        return mp.log(p) / k + mp.digamma(z) / k
    if kind == "polygamma":
        r = d["r"]
        return mp.psi(r - 1, z) / mp.mpf(k) ** r
    if kind == "hyp1f1":
        alpha = mp.mpf(d["a"]) / d["ka"]
        beta = mp.mpf(d["b"]) / d["sb"]
        return mp.hyp1f1(alpha, beta, mp.mpf(d["pa"]) / d["tb"] * d["hx"])
    raise ValueError(f"unknown truth kind {kind!r}")


def within(value, abs_err, true) -> bool:
    """|value - true| <= abs_err, with an overflowed truth matched by a signed inf."""
    if not (isinstance(value, (int, float)) and isinstance(abs_err, (int, float))):
        return False
    if math.isinf(value) and abs(true) > DOUBLE_MAX:
        return (value > 0) == (true > 0)
    if not (math.isfinite(value) and math.isfinite(abs_err) and abs_err >= 0.0):
        return False
    return abs(mp.mpf(value) - true) <= abs_err


def judge(result: list, true) -> str:
    """Classify one route call reported by the worker.

    ``result`` is ["ln", ln_value, sign, abs_err_ln], ["lin", value, abs_err]
    or ["raised", "typed" | "raw", exception name].
    """
    tag = result[0]
    if tag == "raised":
        return "raised_typed" if result[1] == "typed" else "raised_raw"
    if tag == "ln":
        _, ln, sign, err = result
        t_ln, t_sign = true
        ok = (
            math.isfinite(ln)
            and math.isfinite(err)
            and sign == t_sign
            and abs(mp.mpf(ln) - t_ln) <= err
        )
        return OK if ok else "wrong_value"
    if tag == "lin":
        return OK if within(result[1], result[2], true) else "wrong_value"
    raise ValueError(f"unknown result tag {tag!r}")


# CLI function -> truth kind of its default route's linear value (gamma is special)
CLI_TRUTH = {"beta": "beta", "psi": "psi", "poch": "poch", "polygamma": "polygamma", "hyper": "hyp1f1"}


def cli_truth(spec: dict, x: float):
    """True linear value of the CLI's function in spec at argument x."""
    if spec["fn"] == "gamma":
        return mp.exp(ln_gamma_pk(spec["p"], spec["k"], x)[0])
    return truth(CLI_TRUTH[spec["fn"]], {**spec, "x": x})


def judge_eval(returncode: int, stdout: str, spec: dict) -> str:
    """Classify one ``pkspecial eval ... --format json`` process."""
    if returncode != 0:
        return "exit_nonzero"
    try:
        out = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return "missing"
    if not isinstance(out, dict) or "value" not in out:
        return "missing"
    true = cli_truth(spec, spec["x"])
    if out["value"] is None and spec["fn"] == "gamma":
        # overflow: the CLI prints ln|G| and the sign instead of a value
        ln = out.get("ln_value")
        ok = (
            abs(true) > DOUBLE_MAX
            and out.get("sign") == 1
            and isinstance(ln, (int, float))
            and abs(mp.mpf(ln) - mp.log(true)) <= 1e-13 * abs(ln)
        )
        return OK if ok else "wrong_value"
    return OK if within(out["value"], out.get("abs_err"), true) else "wrong_value"


def judge_table(returncode: int, csv_text: str, spec: dict) -> list[str]:
    """Classify one ``pkspecial table ... --out file`` process, one outcome per checked row.

    Every row must be present, at its exact abscissa, with a parseable value
    and a non-negative error, or all checked rows fail; the seeded sample of
    rows in spec["checked_rows"] is then compared with the truth.
    """
    checked = spec["checked_rows"]
    if returncode != 0:
        return ["exit_nonzero"] * len(checked)
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows or rows[0] != ["x", "value", "abs_err"] or len(rows) != TABLE_ROWS + 1:
        return ["missing"] * len(checked)
    start = spec["start"]
    try:
        parsed = [(float(a), float(b), float(c)) for a, b, c in rows[1:]]
    except ValueError:
        return ["missing"] * len(checked)
    for i, (x, _, err) in enumerate(parsed):
        if x != start + i * TABLE_STEP or not err >= 0.0:
            return ["wrong_value"] * len(checked)
    return [
        OK if within(parsed[i][1], parsed[i][2], cli_truth(spec, parsed[i][0])) else "wrong_value"
        for i in checked
    ]


def judge_audit(returncode: int, report_text: str | None, validate) -> tuple[str, dict | None]:
    """Classify one ``pkspecial audit all --out file`` process.

    ``validate`` is pkspecial.audit.validate_report.  Returns the outcome and
    the parsed report (None when it could not be read).
    """
    if returncode != 0:
        return "exit_nonzero", None
    if not report_text:
        return "missing", None
    try:
        report = json.loads(report_text)
        validate(report)
    except Exception:  # a broken or schema-violating report is a failed op
        return "missing", None
    if report.get("summary", {}).get("all_corrected_pass") is not True:
        return "wrong_value", report
    return OK, report

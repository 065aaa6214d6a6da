"""CLI contract: verbs, flags, output formats, exit codes."""

import contextlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from pkspecial import OverflowNote
from pkspecial.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_gamma_classical(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "gamma", "--p", "1", "--k", "1", "--x", "5")
        assert code == 0
        assert float(out.splitlines()[0].split("=")[1]) == pytest.approx(24.0, rel=1e-12)

    @pytest.mark.parametrize("argv, want", [
        (("beta", "--x", "150", "--y", "60"), 1.0482441096580319e-55),
        (("poch", "--x", "180", "--n", "3", "--method", "gamma-ratio"), 180.0 * 181.0 * 182.0),
    ])
    def test_finite_value_carries_no_overflow_note(self, capsys, argv, want):
        # the log-gammas inside leave the double range, the value does not
        with warnings.catch_warnings():
            warnings.simplefilter("error", OverflowNote)
            code, out, _ = run_cli(capsys, "eval", *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(want, rel=1e-12)

    def test_gamma_family_point_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "gamma", "--p", "2", "--k", "3", "--x", "3", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(2.0 / 3.0, rel=1e-13)
        assert doc["method"] == "closed"
        assert doc["inputs"]["p"] == 2.0

    def test_pole_is_domain_error(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "gamma", "--k", "1", "--x", "-2", "--format", "json"
        )
        assert code == 2
        doc = json.loads(out)
        assert doc["reason"] == "pole at index 2"

    def test_eval_methods_agree(self, capsys):
        values = {}
        for method in ("closed", "limit", "integral", "euler-product", "weierstrass"):
            code, out, _ = run_cli(
                capsys, "eval", "gamma", "--p", "2", "--k", "0.5", "--x", "1.1",
                "--method", method, "--format", "json",
            )
            assert code == 0
            values[method] = json.loads(out)["value"]
        base = values["closed"]
        for method, v in values.items():
            assert v == pytest.approx(base, rel=1e-6), method

    def test_beta_and_psi(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "beta", "--k", "2", "--x", "2", "--y", "2", "--format", "json"
        )
        assert code == 0 and json.loads(out)["value"] == pytest.approx(0.5, rel=1e-12)
        code, out, _ = run_cli(
            capsys, "eval", "psi", "--p", "1", "--k", "1", "--x", "1", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(-0.5772156649015329, rel=1e-12)

    def test_poch_routes(self, capsys):
        for method in ("direct", "symmetric", "reduce", "gamma-ratio"):
            code, out, _ = run_cli(
                capsys, "eval", "poch", "--x", "2", "--n", "3", "--method", method,
                "--format", "json",
            )
            assert code == 0
            assert json.loads(out)["value"] == pytest.approx(24.0, rel=1e-12)

    def test_hyper_triples(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "hyper", "--a", "1,1,1", "--a", "1,1,1", "--b", "2,1,1",
            "--x", "0.5", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(2.0 * math.log(2.0), rel=1e-12)

    def test_hyper_divergent_is_domain_error(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "hyper", "--a", "1,2,1", "--a", "1,3,1", "--b", "2,1,1",
            "--x", "0.5", "--format", "json",
        )
        assert code == 2
        assert "radius" in json.loads(out)["reason"]

    def test_hyper_term_mass_overflow_is_domain_error(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "hyper", "--a", "1,1,1", "--b", "2,1,1", "--x=-718", "--format", "json"
        )
        assert code == 2
        doc = json.loads(out)
        assert doc["error"] == "domain"
        assert "left the double range" in doc["reason"]

    def test_inapplicable_route_is_an_error(self, capsys):
        # each of these once ran another route and exited 0
        cases = (
            (("psi", "--x", "1.5", "--method", "limit"), "psi", ("closed", "3.9", "3.10")),
            (("polygamma", "--x", "1.5", "--method", "bogus"), "polygamma", ("series",)),
            (("gamma", "--x", "1.5", "--form", "unit"), "gamma",
             ("closed", "limit", "integral", "euler-product", "weierstrass")),
            (("hyper", "--x", "0.5", "--a", "1,1,1", "--b", "2,1,1", "--form", "3.9"), "hyper",
             ("series", "integral")),
            (("poch", "--x", "1.5", "--n", "3", "--form", "unit"), "poch",
             ("direct", "symmetric", "reduce", "gamma-ratio", "generalized")),
        )
        for argv, fn, routes in cases:
            code, out, _ = run_cli(capsys, "eval", *argv, "--format", "json")
            assert code == 2, argv
            assert json.loads(out)["reason"] == f"{fn} methods are {routes}", argv
        code, out, err = run_cli(capsys, "table", "psi", "--x", "1:2:1", "--method", "limit")
        assert code == 2 and out == ""
        assert "psi methods are" in err

    def test_missing_argument(self, capsys):
        code, out, err = run_cli(capsys, "eval", "gamma", "--p", "1", "--k", "1")
        assert code == 2
        assert "--x is required" in err

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            run_cli(capsys, "evaluate", "gamma")
        assert exc_info.value.code == 1


class TestAudit:
    def test_audit_small_suite(self, capsys, tmp_path):
        out_path = tmp_path / "beta.json"
        code, out, _ = run_cli(
            capsys, "audit", "beta", "--grid", "small", "--out", str(out_path)
        )
        assert code == 0
        assert "all corrected forms pass: True" in out
        doc = json.loads(out_path.read_text())
        assert doc["suite"] == "beta"

    def test_audit_deterministic_files(self, capsys, tmp_path):
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        run_cli(capsys, "audit", "psi", "--grid", "small", "--out", str(p1))
        run_cli(capsys, "audit", "psi", "--grid", "small", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_audit_json_summary(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "hyper", "--grid", "small", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_corrected_pass"] is True
        assert "4.4" in doc["identities"]

    def test_audit_exit_nonzero_when_failing(self, capsys):
        code, out, _ = run_cli(
            capsys, "audit", "beta", "--grid", "small", "--tol", "3.2=1e-30"
        )
        assert code != 0

    @pytest.mark.parametrize("override, identity", [("9.99=1e-3", "9.99"), ("2.6=1e-3", "2.6")])
    def test_audit_rejects_override_outside_suite(self, capsys, override, identity):
        # 9.99 is no catalog id and 2.6 belongs to the gamma suite
        code, _, err = run_cli(capsys, "audit", "pochhammer", "--grid", "small", "--tol", override)
        assert code == 1
        assert repr(identity) in err

    @pytest.mark.parametrize("override", ["2.2=-1", "2.2=0"])
    def test_audit_rejects_nonpositive_tolerance(self, capsys, override):
        code, _, err = run_cli(capsys, "audit", "pochhammer", "--grid", "small", "--tol", override)
        assert code == 1
        assert "'2.2'" in err

    def test_audit_io_error(self, capsys):
        code, _, err = run_cli(
            capsys, "audit", "beta", "--grid", "small", "--out", "/nonexistent/dir/x.json"
        )
        assert code == 3
        assert "cannot write" in err


class TestTable:
    def test_gamma_sweep_csv(self, capsys):
        code, out, _ = run_cli(capsys, "table", "gamma", "--p", "1", "--k", "1", "--x", "1:3:1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,value,abs_err"
        rows = [line.split(",") for line in lines[1:]]
        assert [float(r[0]) for r in rows] == [1.0, 2.0, 3.0]
        assert float(rows[2][1]) == pytest.approx(2.0, rel=1e-12)

    def test_psi_sweep_values(self, capsys):
        code, out, _ = run_cli(capsys, "table", "psi", "--p", "1", "--k", "1", "--x", "1:2:1")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert float(rows[0][1]) == pytest.approx(-0.5772156649015329, rel=1e-10)
        assert float(rows[1][1]) == pytest.approx(0.4227843350984671, rel=1e-10)

    def test_beta_y_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "beta", "--k", "2", "--x", "2", "--y", "2:2:1"
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert float(rows[0].split(",")[1]) == pytest.approx(0.5, rel=1e-12)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "gamma", "--x", "1:2:0.5", "--format", "json"
        )
        rows = json.loads(out)
        assert [r["x"] for r in rows] == [1.0, 1.5, 2.0]

    def test_row_limit(self, capsys):
        code, _, err = run_cli(capsys, "table", "gamma", "--x", "0:100:1e-6")
        assert code == 1
        assert "limit" in err

    def test_missing_sweep(self, capsys):
        code, _, err = run_cli(capsys, "table", "gamma", "--x", "2")
        assert code == 1

    def test_seventeen_digit_rendering(self, capsys):
        code, out, _ = run_cli(capsys, "table", "psi", "--x", "1:1:1")
        value_field = out.strip().splitlines()[1].split(",")[1]
        assert len(value_field.replace("-", "").replace(".", "")) >= 16

    def test_bad_params_report_the_first_row(self, capsys):
        code, out, err = run_cli(capsys, "table", "gamma", "--p", "-1", "--x", "1:3:1")
        assert code == 2
        assert out == ""
        assert err == "error at x=1.0: p must be a positive finite real, got -1.0\n"

    def test_pole_mid_sweep_writes_nothing(self, capsys, tmp_path):
        dest = tmp_path / "F"
        code, out, err = run_cli(
            capsys, "table", "gamma", "--k", "1", "--x=-3.5:3:0.5", "--out", str(dest)
        )
        assert code == 2
        assert out == ""
        assert err == "error at x=-3.0: pole at index 3\n"
        assert not dest.exists()

    # (head flags, swept variable, sweep): closed forms on both sides of zero,
    # a --y sweep, non-default routes and Gamma rows past the double range
    SWEEPS = (
        (("gamma", "--p", "2", "--k", "0.5"), "x", "-2.35:3.1:0.2"),
        (("gamma", "--k", "1"), "x", "168.5:173:0.5"),
        (("gamma", "--p", "3", "--k", "2", "--method", "weierstrass"), "x", "0.3:2.1:0.3"),
        (("psi", "--p", "2", "--k", "0.5"), "x", "-2.35:3.1:0.2"),
        (("psi", "--p", "2", "--k", "0.5", "--form", "3.10"), "x", "0.5:3:0.5"),
        (("beta", "--p", "2", "--k", "0.5", "--y", "2.5"), "x", "0.25:4:0.25"),
        (("beta", "--p", "2", "--k", "0.5", "--x", "1.5"), "y", "0.25:4:0.25"),
        (("poch", "--p", "2", "--k", "0.5", "--n", "4"), "x", "-2.35:3.1:0.2"),
        (("poch", "--p", "2", "--k", "0.5", "--n", "6", "--method", "symmetric"), "x", "-1:2:0.25"),
    )

    def test_every_row_matches_eval(self, capsys):
        """CSV and JSON rows equal eval at the row's point, bit for bit.

        A Gamma value past the double range is a signed inf with abs_err 0
        in a table, where eval reports value and abs_err null.
        """
        for head, var, sweep in self.SWEEPS:
            # only the Gamma rows past x = 171 leave the double range, and they say so
            past_range = head == ("gamma", "--k", "1")
            with pytest.warns(OverflowNote) if past_range else contextlib.nullcontext():
                code, out, err = run_cli(capsys, "table", *head, f"--{var}={sweep}", "--format", "json")
                assert code == 0, (head, err)
                rows = json.loads(out)
                assert len(rows) > 1, head
                expected = []
                for row in rows:
                    code, out, err = run_cli(
                        capsys, "eval", *head, f"--{var}={row['x']!r}", "--format", "json"
                    )
                    assert code == 0, (head, row, err)
                    doc = json.loads(out)
                    value = doc["value"] if doc["value"] is not None else math.inf * doc["sign"]
                    expected.append({"x": row["x"], "value": value, "abs_err": doc["abs_err"] or 0.0})
                assert rows == expected, head
                code, out, err = run_cli(capsys, "table", *head, f"--{var}={sweep}")
                assert code == 0, (head, err)
                lines = [f"{r['x']:.17g},{r['value']:.17g},{r['abs_err']:.17g}\n" for r in expected]
                assert out == "".join(["x,value,abs_err\n", *lines]), head


class TestImportGraph:
    def test_scipy_is_never_imported(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        check = [sys.executable, "-c", "import pkspecial.cli, sys; assert 'scipy' not in sys.modules"]
        assert subprocess.run(check, env=env, capture_output=True).returncode == 0
        # -X importtime lists every module the eval process imports
        run = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "pkspecial", "eval", "psi",
             "--p", "2", "--k", "3", "--x", "-1.5"],
            env=env, capture_output=True, text=True,
        )
        assert run.returncode == 0, run.stderr
        assert "import time:" in run.stderr
        assert "scipy" not in run.stderr

    def test_numpy_loads_only_for_array_routes(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        # each command runs in a fresh interpreter, which reports its exit
        # code and whether numpy got imported
        probe = (
            "import contextlib, io, sys\n"
            "from pkspecial.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(sys.argv[1:])\n"
            "print(code, 'numpy' in sys.modules)\n"
        )

        def loads_numpy(*argv):
            run = subprocess.run(
                [sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True
            )
            assert run.returncode == 0, run.stderr
            code, loaded = run.stdout.split()
            assert code == "0", argv
            return loaded == "True"

        pure_math = (
            ("eval", "gamma", "--p", "2", "--k", "3", "--x", "2.2"),
            ("eval", "beta", "--p", "2", "--k", "3", "--x", "1.5", "--y", "2.5"),
            ("eval", "psi", "--p", "2", "--k", "3", "--x", "-1.5"),
            ("eval", "poch", "--p", "2", "--k", "3", "--x", "1.5", "--n", "4"),
            ("eval", "hyper", "--x", "0.3", "--a", "1,1,1", "--b", "2,1,1"),
            ("eval", "polygamma", "--p", "2", "--k", "3", "--x", "1.5", "--r", "4"),
            ("table", "gamma", "--p", "2", "--k", "3", "--x", "0.5:3:0.25"),
        )
        for argv in pure_math:
            assert not loads_numpy(*argv), argv
        assert loads_numpy("eval", "gamma", "--x", "2.2", "--method", "limit")


    # every public name of the package root, the lazily loaded catalog names included
    ROOT_NAMES = (
        "AuditGrid AuditReport AuditSummary BetaArgs ConvergenceClass ConvergenceKind "
        "DivergentInput DomainError EULER_GAMMA EvalReal GammaEval HyperParams "
        "IdentityRecord LowerPoleError MaxTermsExceeded Method NoConvergence OverflowNote "
        "PkParams PochSpec PoleError PoleReport QuadratureSpec TAU_POLE UnsupportedShape "
        "beta_closed beta_integral check_point classify confluent_integral digamma_classical "
        "gamma_closed gamma_euler_product gamma_integral gamma_limit "
        "gamma_weierstrass_recip hyper_series integrate_semiaxis integrate_unit "
        "k_zeta ln_gamma_classical ln_gamma_via_psi ode_coefficient_residual "
        "pk_binomial poch_direct poch_dk poch_dp poch_gamma_ratio poch_generalized poch_ln "
        "poch_reduce poch_rescale poch_symmetric pole_check polygamma psi "
        "psi_series run_suite validate_report write_report"
    ).split()

    def test_audit_catalog_loads_only_for_audits(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        probe = (
            "import sys\n"
            "import pkspecial.cli\n"
            "print(*(m in sys.modules for m in ('pkspecial.identities', 'pkspecial.records',"
            " 'pkspecial.audit')))\n"
            "import pkspecial\n"
            "missing = [n for n in sys.argv[1:] if not hasattr(pkspecial, n)]\n"
            "from pkspecial import AuditGrid, AuditSummary, IdentityRecord, check_point\n"
            "from pkspecial.identities import AuditGrid as grid\n"
            "from pkspecial.records import IdentityRecord as record\n"
            "print(missing, AuditGrid is grid and IdentityRecord is record)\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", probe, *self.ROOT_NAMES], env=env, capture_output=True, text=True
        )
        assert run.returncode == 0, run.stderr
        # the perfbench tracer wraps pkspecial.audit right after importing the cli
        assert run.stdout.splitlines() == ["False False True", "[] True"]


class TestRouteTable:
    """Every route eval accepts: its output keys, method tag and value.

    The value is compared bit for bit with the direct library call at the
    same point; json round-trips a float exactly.
    """

    GAMMA_KEYS = {"value", "abs_err", "ln_value", "sign", "method", "inputs"}
    LINEAR_KEYS = {"value", "abs_err", "method", "inputs"}

    @staticmethod
    def _cases():
        import pkspecial as pk
        from pkspecial.betapsi import polygamma, psi, psi_series

        params = pk.PkParams(2.0, 0.5)
        gp = ["--p", "2", "--k", "0.5"]
        recip = pk.gamma_weierstrass_recip(params, 1.1)
        gamma = {
            "closed": pk.gamma_closed(params, 1.1).value,
            "limit": pk.gamma_limit(params, 1.1, 100_000).value,
            "integral": pk.gamma_integral(params, 1.1).value,
            "euler-product": pk.gamma_euler_product(params, 1.1).value,
            "weierstrass": recip.sign * math.exp(-recip.ln_value),
        }
        cases = [(("gamma", *gp, "--x", "1.1"), TestRouteTable.GAMMA_KEYS, "closed", gamma["closed"])]
        for method, value in gamma.items():
            argv = ("gamma", *gp, "--x", "1.1", "--method", method)
            cases.append((argv, TestRouteTable.GAMMA_KEYS, method, value))
        cases.append(
            (("gamma", *gp, "--x", "-1.3"), TestRouteTable.GAMMA_KEYS, "closed",
             pk.gamma_closed(params, -1.3).value)
        )

        bargs = pk.BetaArgs(1.5, 2.5, params)
        bp = ["beta", *gp, "--x", "1.5", "--y", "2.5"]
        closed = pk.beta_closed(bargs).value
        cases += [
            ((*bp,), TestRouteTable.LINEAR_KEYS, "closed", closed),
            ((*bp, "--method", "closed"), TestRouteTable.LINEAR_KEYS, "closed", closed),
        ]
        for form in ("unit", "symmetric", "semiaxis"):
            cases.append(
                ((*bp, "--form", form), TestRouteTable.LINEAR_KEYS, "integral",
                 pk.beta_integral(bargs, form).value)
            )

        pp = ["psi", *gp, "--x", "-1.3"]
        value = psi(params, -1.3).value
        cases += [
            ((*pp,), TestRouteTable.LINEAR_KEYS, "closed", value),
            ((*pp, "--method", "closed"), TestRouteTable.LINEAR_KEYS, "closed", value),
        ]
        for form in ("3.9", "3.10"):
            cases.append(
                (("psi", *gp, "--x", "1.3", "--form", form), TestRouteTable.LINEAR_KEYS, "series",
                 psi_series(params, 1.3, form).value)
            )

        yp = ["polygamma", *gp, "--x", "1.3"]
        cases += [
            ((*yp,), TestRouteTable.LINEAR_KEYS, "series", polygamma(params, 1.3, 2).value),
            ((*yp, "--method", "series"), TestRouteTable.LINEAR_KEYS, "series",
             polygamma(params, 1.3, 2).value),
            ((*yp, "--r", "4"), TestRouteTable.LINEAR_KEYS, "series", polygamma(params, 1.3, 4).value),
        ]

        spec = pk.PochSpec(1.5, 4, params)
        kp = ["poch", *gp, "--x", "1.5", "--n", "4"]
        poch = {
            "direct": pk.poch_direct(spec),
            "symmetric": pk.poch_symmetric(spec),
            "reduce": pk.poch_reduce(spec),
            "gamma-ratio": pk.poch_gamma_ratio(spec),
            "generalized": pk.poch_generalized(spec, 1),
        }
        cases.append(((*kp,), TestRouteTable.LINEAR_KEYS, "direct", poch["direct"]))
        for method, value in poch.items():
            cases.append(((*kp, "--method", method), TestRouteTable.LINEAR_KEYS, method, value))
        cases.append(
            ((*kp, "--method", "generalized", "--q", "2"), TestRouteTable.LINEAR_KEYS,
             "generalized", pk.poch_generalized(spec, 2))
        )

        hp = pk.HyperParams(upper=((1.0, 1.5, 1.0),), lower=((2.0, 1.0, 0.5),))
        hv = ["hyper", "--x", "0.7", "--a", "1,1.5,1", "--b", "2,1,0.5"]
        series = pk.hyper_series(hp, 0.7).value
        cases += [
            ((*hv,), TestRouteTable.LINEAR_KEYS, "series", series),
            ((*hv, "--method", "series"), TestRouteTable.LINEAR_KEYS, "series", series),
            ((*hv, "--method", "integral"), TestRouteTable.LINEAR_KEYS, "integral",
             pk.confluent_integral(hp, 0.7).value),
        ]
        return cases

    def test_every_route_keys_method_and_value(self, capsys):
        for argv, keys, method, value in self._cases():
            code, out, err = run_cli(capsys, "eval", *argv, "--format", "json")
            assert code == 0, (argv, err)
            doc = json.loads(out)
            assert set(doc) == keys, argv
            assert doc["method"] == method, argv
            assert doc["value"] == value, argv

    def test_table_row_matches_eval(self, capsys):
        points = (
            ("gamma", "--p", "2", "--k", "0.5", "--x"),
            ("beta", "--p", "2", "--k", "0.5", "--y", "2.5", "--x"),
            ("psi", "--p", "2", "--k", "0.5", "--x"),
            ("polygamma", "--p", "2", "--k", "0.5", "--r", "3", "--x"),
            ("poch", "--p", "2", "--k", "0.5", "--n", "4", "--x"),
            ("hyper", "--a", "1,1.5,1", "--b", "2,1,0.5", "--x"),
        )
        for head in points:
            code, out, err = run_cli(capsys, "table", *head, "0.75:0.75:1", "--format", "json")
            assert code == 0, (head, err)
            (row,) = json.loads(out)
            code, out, err = run_cli(capsys, "eval", *head, "0.75", "--format", "json")
            assert code == 0, (head, err)
            doc = json.loads(out)
            assert row == {"x": 0.75, "value": doc["value"], "abs_err": doc["abs_err"]}, head

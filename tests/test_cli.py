"""Scenario runner: config parsing, report determinism, plot-data export,
and exit codes."""

import json
import os
import subprocess
import sys

import pytest

from bvfact.cli import (parse_config, parse_region, parse_cover,
                        parse_weight, parse_orders, build_report,
                        report_json, emit_plotdata, SUITES, main)
from bvfact.region import Region
from fractions import Fraction


class TestConfigParsing:
    def test_key_values_and_comments(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# comment\nmodel = scalar-free\ntrials = 7  # inline\n")
        cfg = parse_config(str(p))
        assert cfg == {"model": "scalar-free", "trials": "7"}

    def test_region_literals(self):
        assert parse_region("0, 1") == Region.interval(0, 1)
        r = parse_region("0, 2/5; 3/5, 1")
        assert r == Region.intervals([(0, Fraction(2, 5)),
                                      (Fraction(3, 5), 1)])

    def test_cover_literal(self):
        cov = parse_cover("0, 7/10 | 3/10, 1")
        assert len(cov) == 2 and cov[1] == Region.interval(Fraction(3, 10), 1)

    def test_weight_literal(self):
        w = parse_weight("mollifier(1/2, 1/2)")
        assert w.support.bounds() == (Fraction(0), Fraction(1))

    def test_orders(self):
        assert parse_orders(None) == (3, 2)
        assert parse_orders("hbar=2,lambda=1") == (2, 1)
        with pytest.raises(ValueError):
            parse_orders("foo=1")


class TestReports:
    def test_all_suites_registered(self):
        assert sorted(SUITES) == ["bracket-suite", "causal-factorization",
                                  "cme-check", "eg-extend", "free-quantum",
                                  "olver-exactness", "qbv-suite", "rg-check",
                                  "weiss-glue"]

    def test_determinism_modulo_timestamp(self):
        a = build_report("cme-check", {}, 5, (3, 2), 1e-8)
        b = build_report("cme-check", {}, 5, (3, 2), 1e-8)
        ja = json.loads(report_json(a))
        jb = json.loads(report_json(b))
        ja.pop("generated_at")
        jb.pop("generated_at")
        assert json.dumps(ja, sort_keys=True) == json.dumps(jb,
                                                            sort_keys=True)

    def test_olver_suite_report(self):
        rep = build_report("olver-exactness", {"trials": "5"}, 1, (3, 2),
                           1e-8)
        assert rep["ok"]
        assert rep["config"] == {"trials": "5"}

    def test_plotdata_csvs(self, tmp_path):
        rep = {"scenario": "demo",
               "curves": {"xy": {"columns": ["x", "y"],
                                 "rows": [[1, 2], [3, 4]]}}}
        files = emit_plotdata(rep, str(tmp_path))
        assert len(files) == 1
        lines = open(files[0]).read().strip().splitlines()
        assert lines[0] == "x,y" and lines[1] == "1,2"

    def test_no_curves_no_files(self, tmp_path):
        assert emit_plotdata({"scenario": "demo", "curves": {}},
                             str(tmp_path)) == []


class TestEntryPoint:
    def test_failure_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("cover = 0, 2/3 | 1/3, 1\n")
        out = tmp_path / "r.json"
        rc = main(["weiss-glue", "--config", str(cfg), "--out", str(out)])
        assert rc == 1
        rep = json.loads(out.read_text())
        assert not rep["ok"]
        names = {c["name"]: c for c in rep["checks"]}
        assert not names["cover-is-weiss"]["passed"]
        assert names["non-weiss-raises"]["passed"]
        assert names["non-weiss-raises"]["value"]  # witness pair

    def test_success_exit_code(self, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["cme-check", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["ok"]

    def test_module_invocation(self, tmp_path):
        out = tmp_path / "r.json"
        res = subprocess.run(
            [sys.executable, "-m", "bvfact.cli", "olver-exactness",
             "--seed", "2", "--out", str(out)],
            capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, res.stderr
        assert json.loads(out.read_text())["scenario"] == "olver-exactness"


_NO_SCIPY = """
import sys
sys.modules["scipy"] = None   # any import of scipy now raises ImportError
from fractions import Fraction
from bvfact.cli import main
from bvfact.jetcalc import JetExpr, LagForm, evaluate_local, jet
from bvfact.numfields import Poly1D
from bvfact.region import mollifier

out = sys.argv[1]
for suite in ("eg-extend", "rg-check"):
    assert main([suite, "--seed", "0", "--out", out]) == 0, suite
w = mollifier(0, Fraction(1, 2))
u = JetExpr.of(jet("u", (), 0), 1)
assert evaluate_local(LagForm.top(u, 1), w, {"u": Poly1D([1, 1])}) > 0.2
"""


class TestScipyFreeRuntime:
    def test_scenarios_run_without_scipy(self, tmp_path):
        import bvfact
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            bvfact.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        res = subprocess.run(
            [sys.executable, "-c", _NO_SCIPY, str(tmp_path / "r.json")],
            capture_output=True, text=True, timeout=300, env=env)
        assert res.returncode == 0, res.stderr


_NO_NUMPY = """
import sys
from bvfact.cli import main

out = sys.argv[1]
for suite in ("cme-check", "olver-exactness", "bracket-suite"):
    assert main([suite, "--seed", "0", "--out", out]) == 0, suite
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
assert not loaded, loaded
"""


class TestExactSuitesLoadNoNumpy:
    def test_exact_scenarios_leave_numpy_unloaded(self, tmp_path):
        import bvfact
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            bvfact.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        res = subprocess.run(
            [sys.executable, "-c", _NO_NUMPY, str(tmp_path / "r.json")],
            capture_output=True, text=True, timeout=300, env=env)
        assert res.returncode == 0, res.stderr

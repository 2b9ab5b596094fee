"""Scenario runner: reproducible acceptance suites with JSON reports and CSV
plot data.

Usage:
    python3 -m bvfact.cli SUITE [--config PATH] [--seed N] [--out PATH]
                                [--orders hbar=K,lambda=L] [--tol X]
                                [--plotdata DIR]

Suites: cme-check, olver-exactness, bracket-suite, weiss-glue, free-quantum,
causal-factorization, eg-extend, rg-check, qbv-suite.

Config schema (structured text): one `key = value` per line, `#` comments.
Values: integers, rationals (`3/4`), floats, `true`/`false`, bare strings,
or the literal forms below.
  region literal    intervals separated by `;`, endpoints by `,`:
                        domain = 0,2/5; 3/5,1
  cover literal     region literals separated by `|`:
                        cover = 0,7/10 | 3/10,1 | 0,2/5; 3/5,1
  weight literal    `mollifier(center, radius)`:
                        weight1 = mollifier(1/3, 1/4)
  integrand literal expression text per the symexpr grammar:
                        slot1 = u^2 + u.d[1]
Per-suite keys are listed in each suite's docstring.

Reports are deterministic for a fixed (config, seed): the only
non-reproducible field is the top-level `generated_at` timestamp.
"""

import argparse
import csv
import json
import math
import os
import random
import sys
import time
from fractions import Fraction

# `region` (and with it numpy) is imported by the suites that use it, so
# the exact suites load no numpy
from .symexpr import Expr, QI, FormalSeries

SUITES = {}


def _suite(name):
    def deco(fn):
        SUITES[name] = fn
        return fn
    return deco


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def parse_config(path):
    cfg = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError("%s:%d: expected key = value" % (path, lineno))
            key, val = line.split("=", 1)
            cfg[key.strip()] = val.strip()
    return cfg


def cfg_fraction(cfg, key, default):
    return Fraction(cfg[key]) if key in cfg else Fraction(default)


def cfg_int(cfg, key, default):
    return int(cfg[key]) if key in cfg else default


def cfg_bool(cfg, key, default):
    if key not in cfg:
        return default
    return cfg[key].lower() in ("1", "true", "yes", "on")


def parse_region(text):
    """A region literal as a `region.Region`."""
    from .region import Region
    iv = []
    for part in text.split(";"):
        a, b = part.split(",")
        iv.append((Fraction(a.strip()), Fraction(b.strip())))
    return Region.intervals(iv)


def parse_cover(text):
    return [parse_region(p) for p in text.split("|")]


def parse_weight(text):
    """A weight literal as a `region.Bump`."""
    from .region import mollifier
    text = text.strip()
    if not (text.startswith("mollifier(") and text.endswith(")")):
        raise ValueError("weight literal must be mollifier(center, radius)")
    c, r = text[len("mollifier("):-1].split(",")
    return mollifier(Fraction(c.strip()), Fraction(r.strip()))


def parse_orders(text):
    out = {"hbar": 3, "lambda": 2}
    if text:
        for part in text.split(","):
            k, v = part.split("=")
            if k.strip() not in out:
                raise ValueError("unknown order name %r" % k)
            out[k.strip()] = int(v)
    return (out["hbar"], out["lambda"])


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------

def _check(name, passed, value=None, tolerance=None):
    out = {"name": name, "passed": bool(passed)}
    if value is not None:
        out["value"] = _jsonable(value)
    if tolerance is not None:
        out["tolerance"] = tolerance
    return out


def _jsonable(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)
    return v


def build_report(suite, cfg, seed, orders, tol):
    rng = random.Random(seed)
    checks, curves = SUITES[suite](cfg, rng, orders, tol)
    report = {
        "scenario": suite,
        "seed": seed,
        "orders": {"hbar": orders[0], "lambda": orders[1]},
        "tol": tol,
        "config": dict(sorted(cfg.items())),
        "checks": checks,
        "curves": curves,
        "ok": all(c["passed"] for c in checks),
    }
    return report


def report_json(report, timestamp=True):
    body = dict(report)
    if timestamp:
        body["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                             time.gmtime())
    return json.dumps(body, sort_keys=True, indent=2) + "\n"


def emit_plotdata(report, outdir):
    """One CSV per curve payload; returns the files written.  The first row
    names the columns.  An empty curve set writes nothing."""
    written = []
    for cname, curve in sorted(report.get("curves", {}).items()):
        path = os.path.join(outdir, "%s_%s.csv" % (report["scenario"], cname))
        os.makedirs(outdir, exist_ok=True)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(curve["columns"])
            for row in curve["rows"]:
                w.writerow(row)
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

@_suite("cme-check")
def _cme_check(cfg, rng, orders, tol):
    """Keys: model (registry name, default su2-yang-mills),
    gauge_fixed (bool, default false)."""
    from .registry import load_model
    from . import bvalg

    name = cfg.get("model", "su2-yang-mills")
    entry = load_model(name)
    checks = []
    rep = bvalg.check_cme(entry.lagrangian)
    checks.append(_check("cme-residual-zero[%s]" % name, rep.is_zero,
                         value=0 if rep.is_zero else "nonzero"))
    if cfg_bool(cfg, "gauge_fixed", False):
        rep2 = bvalg.check_cme(entry.gauge_fixed())
        checks.append(_check("cme-residual-zero[%s+gf]" % name, rep2.is_zero,
                             value=0 if rep2.is_zero else "nonzero"))
    return checks, {}


def _random_density(rng, nterm=3, maxdeg=3, maxd=2):
    from .jetcalc import jet, JetExpr
    e = Expr.zero()
    for _ in range(nterm):
        m = Expr.const(QI(Fraction(rng.randint(-4, 4)),
                          Fraction(rng.randint(-2, 2))))
        for _ in range(rng.randint(1, maxdeg)):
            k = rng.randint(0, maxd)
            m = m * Expr.sym(jet("u", (k,) if k else (), 0))
        e = e + m
    return JetExpr(e, 1)


@_suite("olver-exactness")
def _olver(cfg, rng, orders, tol):
    """Keys: trials (default 25)."""
    from .jetcalc import (LagForm, total_derivative, homotopy_primitive)

    trials = cfg_int(cfg, "trials", 25)
    npass = 0
    for _ in range(trials):
        p = _random_density(rng)
        omega = LagForm.top(total_derivative(p, 0), 1)
        eta, obstruction = homotopy_primitive(omega)
        d_eta = total_derivative(eta.component(()), 0)
        if (d_eta.expr - omega.component((0,)).expr).is_zero() and \
                not obstruction:
            npass += 1
    return [_check("divergence-primitives-exact", npass == trials,
                   value="%d/%d" % (npass, trials))], {}


def _random_graded_density(rng, content, names, tfname):
    from .jetcalc import jet, testfn, JetExpr
    while True:
        terms = []
        grade = None
        for _ in range(12):
            deg = rng.randint(1, 3)
            e = Expr.sym(testfn(tfname))
            for _ in range(deg):
                nm = rng.choice(names)
                k = rng.randint(0, 2)
                e = e * Expr.sym(jet(nm, (k,) if k else (),
                                     content.grade(nm)))
            if e.is_zero():
                continue
            g = e.homogeneous_grade()
            if grade is None:
                grade = g
            if g != grade:
                continue
            c = QI(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-2, 2)))
            terms.append(e.map_coeff(lambda q, c=c: q * c))
            if len(terms) >= 3:
                break
        tot = Expr.zero()
        for t in terms:
            tot = tot + t
        if not tot.is_zero():
            return JetExpr(tot, 1), grade


@_suite("bracket-suite")
def _bracket(cfg, rng, orders, tol):
    """Keys: trials (default 8)."""
    from .jetcalc import JetExpr, is_total_divergence
    from .bvalg import FieldContent, antibracket_density, antifield_name

    content = FieldContent([("u", 0), ("c", -1)])
    names = ["u", "c", antifield_name("u"), antifield_name("c")]
    trials = cfg_int(cfg, "trials", 8)
    anti = jac = 0
    for _ in range(trials):
        F, gF = _random_graded_density(rng, content, names, "fa")
        G, gG = _random_graded_density(rng, content, names, "fb")
        H, gH = _random_graded_density(rng, content, names, "fc")
        lhs = antibracket_density(content, F, G) + \
            JetExpr.of((-1) ** ((gF + 1) * (gG + 1)), 1) * \
            antibracket_density(content, G, F)
        if is_total_divergence(lhs):
            anti += 1
        j = JetExpr.const(0, 1)
        for (A, gA), (B, gB), (C, gC) in (((F, gF), (G, gG), (H, gH)),
                                          ((G, gG), (H, gH), (F, gF)),
                                          ((H, gH), (F, gF), (G, gG))):
            j = j + JetExpr.of((-1) ** ((gA + 1) * (gC + 1)), 1) * \
                antibracket_density(content, A,
                                    antibracket_density(content, B, C))
        if is_total_divergence(j):
            jac += 1
    return [_check("shifted-antisymmetry", anti == trials,
                   value="%d/%d" % (anti, trials)),
            _check("graded-jacobi", jac == trials,
                   value="%d/%d" % (jac, trials))], {}


@_suite("weiss-glue")
def _weiss(cfg, rng, orders, tol):
    """Keys: cover (cover literal), domain (region literal, default 0,1),
    slot1/slot2 (integrand text, default u), weight1/weight2 (weight
    literals with closed support inside the domain)."""
    from .jetcalc import parse_jetexpr
    from .mloc import (MLTerm, MultilocalObs, weiss_decompose,
                       WeissDecompositionError)
    from .numfields import Poly1D
    from .region import is_weiss_cover

    domain = parse_region(cfg.get("domain", "0, 1"))
    cover = parse_cover(cfg.get(
        "cover", "0, 7/10 | 3/10, 1 | 0, 2/5; 3/5, 1"))
    w1 = parse_weight(cfg.get("weight1", "mollifier(1/3, 1/4)"))
    w2 = parse_weight(cfg.get("weight2", "mollifier(2/3, 1/4)"))
    s1 = parse_jetexpr(cfg.get("slot1", "u^2"))
    s2 = parse_jetexpr(cfg.get("slot2", "u"))
    F = MultilocalObs([MLTerm((s1, s2), (w1, w2), 1)], domain, orders)

    checks = []
    wrep = is_weiss_cover(cover, domain, k=2)
    checks.append(_check("cover-is-weiss", wrep.ok,
                         value=None if wrep.ok else list(wrep.witness)))
    curves = {}
    if wrep.ok:
        parts = weiss_decompose(F, cover)
        fields = {"u": Poly1D([0.3, 0.4, -0.2])}

        # The decomposition regroups the weight functions; it is an identity
        # of integrands, so a sampled symmetrized-kernel comparison is an
        # exact roundtrip check without any quadrature.
        pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(6)]
        got = sum(p.kernel(pts, fields) for p, _ in parts)
        err = float(max(abs(got - F.kernel(pts, fields))))
        checks.append(_check("decomposition-roundtrip", err <= tol,
                             value=err, tolerance=tol))
        curves["pieces"] = {
            "columns": ["piece", "cover_index", "terms"],
            "rows": [[i, j, len(p.terms)] for i, (p, j) in enumerate(parts)]}
    else:
        try:
            weiss_decompose(F, cover)
            checks.append(_check("non-weiss-raises", False))
        except WeissDecompositionError as e:
            checks.append(_check("non-weiss-raises", True,
                                 value=list(e.witness)))
    return checks, curves


@_suite("free-quantum")
def _freeq_suite(cfg, rng, orders, tol):
    """Keys: omega (default 1), positivity_samples (default 6)."""
    from . import freeq
    from .region import mollifier
    from .freeq import (OscillatorModel, green, field_obs, star, unit,
                        peierls, tmap, tmap_inv, shat0, eval_poly)
    from .numfields import Poly1D

    omega = float(cfg_fraction(cfg, "omega", 1))
    model = OscillatorModel(omega, orders)
    checks = []
    curves = {}

    # weak P Delta^R = delta, several test pairs
    rows = []
    maxdef = 0.0
    for i in range(3):
        c = Fraction(rng.randint(-1, 1), 2)
        f = mollifier(c, Fraction(1, 2))
        g = mollifier(c + Fraction(rng.randint(0, 1), 4), Fraction(1, 4))
        d = freeq.green_defect(model, f, g, tol=1e-10)
        rows.append([i, d])
        maxdef = max(maxdef, d)
    curves["green_defect"] = {"columns": ["test_index", "residual"],
                              "rows": rows}
    checks.append(_check("retarded-weak-green", maxdef < 1e-8,
                         value=maxdef, tolerance=1e-8))

    # Wightman positivity on random complex test functions: for
    # f = sum_k z_k b_k,
    # <conj f (x) f, W> = sum_kl conj(z_k) z_l <b_k (x) b_l, W>
    W = green(model, "wightman")
    rows = []
    worst = math.inf
    for i in range(cfg_int(cfg, "positivity_samples", 6)):
        terms = [(mollifier(Fraction(rng.randint(-2, 2), 2),
                            Fraction(1, 2)),
                  complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
                 for _ in range(2)]
        re = sum((zk.conjugate() * zl * freeq.pair_kernel(W, bk, bl,
                                                           tol=1e-10)).real
                 for bk, zk in terms for bl, zl in terms)
        rows.append([i, re])
        worst = min(worst, re)
    curves["wightman_positivity"] = {"columns": ["sample", "pairing"],
                                     "rows": rows}
    checks.append(_check("wightman-positive", worst >= -1e-10, value=worst,
                         tolerance=-1e-10))

    # star commutator = i hbar Peierls
    f = mollifier(Fraction(1, 2), Fraction(1, 2))
    g = mollifier(Fraction(5, 2), Fraction(1, 2))
    Ff, Gg = field_obs(f, orders=orders), field_obs(g, orders=orders)
    fields = {"u": Poly1D([1.0])}
    comm = eval_poly(star(Ff, Gg) - star(Gg, Ff), model, fields, tol=1e-11)
    pb = eval_poly(peierls(Ff, Gg), model, fields, tol=1e-11)
    dev = abs(comm.get((1, 0), 0) - 1j * pb.get((0, 0), 0))
    checks.append(_check("star-commutator-peierls", dev < 1e-9, value=dev,
                         tolerance=1e-9))

    # associativity, symbolic, quadratic observables
    h = mollifier(Fraction(-3, 2), Fraction(1, 2))
    F2, G2, H2 = (field_obs(b, power=2, orders=orders) for b in (f, g, h))
    checks.append(_check("star-associative",
                         star(star(F2, G2), H2) == star(F2, star(G2, H2))))
    checks.append(_check("tmap-roundtrip", tmap_inv(tmap(F2 * G2)) == F2 * G2))

    # shat0: closed form vs conjugation, and nilpotency
    B = field_obs(f, power=2, afpower=1, orders=orders) * \
        field_obs(g, power=1, orders=orders)
    cf = shat0(B)
    checks.append(_check("shat0-closed-vs-conjugation",
                         cf == shat0(B, closed_form=False)))
    checks.append(_check("shat0-squared-zero", shat0(cf).is_zero()))
    return checks, curves


@_suite("causal-factorization")
def _causal(cfg, rng, orders, tol):
    """Keys: omega (default 1), pairs (default 3)."""
    from .region import mollifier
    from .freeq import (OscillatorModel, field_obs, causal_check)
    from .numfields import Poly1D

    model = OscillatorModel(float(cfg_fraction(cfg, "omega", 1)), orders)
    fields = [{"u": Poly1D([0.7, 0.1])}]
    rows = []
    worst = 0.0
    for i in range(cfg_int(cfg, "pairs", 3)):
        gap = Fraction(rng.randint(2, 4))
        f = mollifier(gap, Fraction(1, 2))
        g = mollifier(0, Fraction(1, 2))
        p1 = rng.choice((1, 2))
        p2 = rng.choice((1, 2))
        F = field_obs(f, power=p1, orders=orders)
        G = field_obs(g, power=p2, orders=orders)
        rep = causal_check(F, G, model, fields, tol=tol)
        rows.append([i, str(gap), p1, p2, rep.branch, rep.max_dev])
        worst = max(worst, rep.max_dev)
    curves = {"deviations": {
        "columns": ["pair", "gap", "degF", "degG", "branch", "max_dev"],
        "rows": rows}}
    return [_check("causal-factorization", worst < tol, value=worst,
                   tolerance=tol)], curves


@_suite("eg-extend")
def _eg(cfg, rng, orders, tol):
    """Keys: none required."""
    from .region import mollifier
    from .egren import (theta_power, smooth_kernel, scaling_degree, extend,
                        ambiguity_basis, standard_cutoff)
    from .quadrature import integrate

    checks = []
    curves = {}
    t1 = theta_power(1)
    t2 = theta_power(2)
    sm = smooth_kernel(lambda x: math.exp(-x * x))
    meas = [scaling_degree(k, exact=False) for k in (t1, t2, sm)]
    checks.append(_check("scaling-degrees", meas == [1, 2, 0],
                         value=[str(m) for m in meas]))
    checks.append(_check("ambiguity-bases",
                         (ambiguity_basis(sm) == [] and
                          ambiguity_basis(t1) == [(0,)] and
                          ambiguity_basis(t2) == [(0,), (1,)])))

    # extension of theta/x against the subtraction oracle
    f = mollifier(0, Fraction(1, 2))
    chi = standard_cutoff()
    val = extend(t1).pair(f)
    oracle = sum(integrate(lambda x: (f(x) - f(0) * chi(x)) / x, piece,
                           tol=1e-12) for piece in ((0, 0.5), (0.5, 1)))
    checks.append(_check("w-subtraction-oracle", abs(val - oracle) < 1e-9,
                         value=abs(val - oracle), tolerance=1e-9))

    # agreement off the origin
    worst = 0.0
    for _ in range(5):
        c = Fraction(rng.randint(2, 6), 4)
        g = mollifier(c, Fraction(1, 8))
        worst = max(worst, abs(extend(t1).pair(g) - t1.pair(g)))
    checks.append(_check("away-from-origin-agreement", worst < 1e-12,
                         value=worst, tolerance=1e-12))

    # log-log points for the plot payload
    probe = mollifier(1, Fraction(1, 2))
    rows = []
    for j in range(2, 8):
        lam = 2.0 ** -j
        v = integrate(lambda x: t1(x) * probe(x / lam) / lam,
                      (0.5 * lam, 1.5 * lam), tol=1e-12)
        rows.append([math.log(lam), math.log(abs(v))])
    curves["scaling_loglog"] = {"columns": ["log_scale", "log_pairing"],
                                "rows": rows}
    return checks, curves


@_suite("rg-check")
def _rg(cfg, rng, orders, tol):
    """Keys: shift (default 0.37), omega (default 1)."""
    from .region import mollifier
    from .egren import TimeOrder2, main_theorem_check, \
        recover_delta_coefficient
    from .freeq import OscillatorModel, field_obs
    from .numfields import Poly1D

    shift = float(cfg_fraction(cfg, "shift", Fraction(37, 100)))
    model = OscillatorModel(float(cfg_fraction(cfg, "omega", 1)), orders)
    T = TimeOrder2(model, orders=orders)
    T2 = TimeOrder2(model, shifts={1: shift}, orders=orders)
    battery = [field_obs(mollifier(Fraction(c), Fraction(1, 4)), power=p,
                         orders=orders)
               for c, p in [(-2, 1), (0, 2), (2, 1), (0, 1)]]
    fields = [{"u": Poly1D([0.4, 0.15, -0.1])}]
    Z, rep = main_theorem_check(T, T2, battery, fields=fields, tol=tol)
    checks = [
        _check("z-of-zero", rep["z_of_zero_is_zero"]),
        _check("scheme-transport", rep["scheme_transport"]),
        _check("diagonal-support", rep["diagonal_support_dev"] <= tol,
               value=rep["diagonal_support_dev"], tolerance=tol),
        _check("hammerstein", rep["hammerstein_dev"] <= tol,
               value=rep["hammerstein_dev"], tolerance=tol),
    ]
    h = mollifier(0, Fraction(1, 2))
    g = mollifier(Fraction(1, 4), Fraction(1, 4))
    c_hat = recover_delta_coefficient(T, T2, h, g)
    checks.append(_check("delta-coefficient-recovery",
                         abs(c_hat - shift) < tol,
                         value=abs(c_hat - shift), tolerance=tol))
    return checks, {}


@_suite("qbv-suite")
def _qbv(cfg, rng, orders, tol):
    """Keys: omega (default 1), battery (default 6)."""
    from .region import mollifier
    from .qbv import (interaction_vertex, interacting_bv, check_qme,
                      check_qme_vertex, delta0, amwi_check)
    from .bvalg import free_scalar, quartic_interaction
    from .freeq import field_obs, shat0, unit
    from .numfields import Poly1D

    f = mollifier(0, Fraction(1, 2))
    g = mollifier(Fraction(1, 4), Fraction(1, 4))
    V = interaction_vertex(f, power=4, orders=orders)
    checks = []

    rep = check_qme(free_scalar(cfg_fraction(cfg, "omega", 1)),
                    quartic_interaction(1), orders=orders)
    checks.append(_check("qme-quartic", rep["ok"], value=rep["orders"]))
    fake = field_obs(g, orders=orders).scale(
        FormalSeries({(1, 1): 1}, orders))
    checks.append(_check("qme-fake-anomaly-detected",
                         not check_qme_vertex(V, fake_anomaly=fake)["ok"]))

    FA = field_obs(mollifier(-2, Fraction(1, 2)), power=2, afpower=1,
                   orders=orders)
    FB = field_obs(mollifier(2, Fraction(1, 2)), power=3, afpower=1,
                   orders=orders)
    checks.append(_check("delta0-leibniz-disjoint",
                         delta0([FA, FB]) ==
                         delta0([FA]) * FB - FA * delta0([FB])))

    checks.append(_check("interacting-bv-free-limit",
                         interacting_bv(field_obs(g, afpower=1,
                                                  orders=orders)) ==
                         shat0(field_obs(g, afpower=1, orders=orders))))
    checks.append(_check("interacting-bv-unit",
                         interacting_bv(unit(orders), V).is_zero()))

    nil = True
    sing = [field_obs(w, power=p, afpower=q, orders=orders)
            for w in (f, g) for p in (0, 1, 2) for q in (0, 1) if p + q > 0]
    for _ in range(cfg_int(cfg, "battery", 6)):
        F = rng.choice(sing)
        if rng.random() < 0.5:
            F = F * rng.choice(sing)
        s2 = interacting_bv(interacting_bv(F, V, check=False), V,
                            check=False)
        if not s2.is_zero():
            nil = False
    checks.append(_check("interacting-bv-nilpotent", nil))

    flds = [{"u": Poly1D([0.3, -0.2])}]
    _, arep = amwi_check(field_obs(g, power=2, orders=orders), V,
                         fields=flds, tol=tol)
    checks.append(_check("amwi-defect", arep["ok"],
                         value=arep.get("offdiag_dev", 0), tolerance=tol))
    return checks, {}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(prog="bvfact",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("suite", choices=sorted(SUITES))
    ap.add_argument("--config", default=None)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None)
    ap.add_argument("--orders", default=None,
                    help="hbar=K,lambda=L (default 3,2)")
    ap.add_argument("--tol", type=float, default=1e-8)
    ap.add_argument("--plotdata", default=None,
                    help="directory for CSV curve payloads")
    args = ap.parse_args(argv)

    cfg = parse_config(args.config) if args.config else {}
    orders = parse_orders(args.orders)
    report = build_report(args.suite, cfg, args.seed, orders, args.tol)
    text = report_json(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.plotdata:
        emit_plotdata(report, args.plotdata)
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end and report assembly.

Commands: analyze, series, residues, classify, selftest.  Reports are
emitted as text or JSON (``--format``); the JSON layout is versioned and
shipped as schemas/analysis_report.schema.json.  Identical invocations
produce byte-identical JSON: every ordering is explicit and every numeric
value carries its error bound.  series, residues and classify print the
input and rows of the analyze report, built by the same code and written by
the same text writers: residues the exactness section, classify the
classification, series the germ rows of every admissible place, built
before any screen (analyze's series section holds germs only while poles
stay possible).  Every coefficient is written from its JSON by
series.coeff_text.

Exit codes: 0 analysis completed; 2 completed with a screening verdict of
none_with_pole / entire_only; 1 error.
"""

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .algebra import GaussianRational, coeff_is_zero, DEFAULT_PREC
from .conditions import (attach_degree_bound, classify_kappa, screen_admissibility,
                         residue_screen)
from .curve import (branches_at_infinity, exactness_check, newton_polygon,
                    residue_pdq)
from .eqparse import (_fraction_str, canonical_string, gaussian_str,
                      parse_constant, parse_equation, ratfunc_str)
from .errors import BBError
from .classify import (classify_equation, match_monomial, CONTINUATION_N,
                       DEFAULT_RATIO_TOL, DEFAULT_TRAJ_TOL)
from .series import (check_constant, coeff_text, coeff_to_json, germ_counts,
                     germ_index, germs_for_pairs, series_to_json, verify_orders)

SCHEMA_VERSION = 2


def _cxpair(z):
    z = complex(z)
    return [z.real, z.imag]


def default_depth(k, polygon, base=None, germ_N=()):
    """Puiseux depth in u-terms for a command that builds germs at each
    truncation index of ``germ_N`` (None: enumerate_series' default).

    The depth always lets every branch reach its residue term (u-index
    m (kappa + 1)).  A place of ramification m feeds germs of pole order n
    only when m divides n, and the m of all places sum to deg_p, so index N
    needs at most ceil(min(n, deg_p) N / n) + 4 u-terms; the depth covers
    that too.  ``base`` is a floor, by default 4 (n_max + k) + 8 over
    admissible pole orders, which covers the default index."""
    n_max = 0
    kappa_top = 0
    germ_need = 0
    deg_p = max(i for e in polygon.upper_edges for i in (e.i1, e.i2))
    for e in polygon.upper_edges:
        kappa_top = max(kappa_top, math.ceil(max(e.kappa, 0)))
        label, n = classify_kappa(k, e.kappa)
        if label == "kappa_one_plus_k_over_n":
            n_max = max(n_max, n)
            for N in germ_N:
                germ_need = max(germ_need,
                                -(-min(n, deg_p) * germ_index(k, n, N) // n) + 4)
    if base is None:
        base = 4 * (n_max + k) + 8
    return max(base, deg_p * (kappa_top + 1) + 2, germ_need)


def _at_least(name, value, low):
    """``value`` when it is None or an integer >= low; BBError otherwise."""
    if value is not None and (not isinstance(value, int) or value < low):
        raise BBError(f"{name} must be an integer >= {low}, got {value!r}")
    return value


_FORMATS = ("text", "json")


class Options:
    """The settings of one command.  ``c`` is None or an exact first-integral
    constant: None keeps the resonant coefficient of the germs free and runs
    the even-k continuation at c = 1."""

    def __init__(self, c=None, N=None, depth=None, precision=None,
                 tol=DEFAULT_TRAJ_TOL, no_classify=False, fmt="text", n=None,
                 diagnostics=False):
        self.precision = _at_least(
            "precision", DEFAULT_PREC if precision is None else precision, 1)
        check_constant(c)
        # an int or Fraction constant from a library caller is exact
        self.c = GaussianRational(c) if isinstance(c, (int, Fraction)) else c
        self.N = _at_least("N", N, 0)
        self.depth = _at_least("depth", depth, 1)
        if not (isinstance(tol, (int, float)) and 0 < tol < math.inf):
            raise BBError(f"tol must be a finite number > 0, got {tol!r}")
        self.tol = tol
        self.no_classify = no_classify
        if fmt not in _FORMATS:
            raise BBError(f"fmt must be one of {', '.join(_FORMATS)}, got {fmt!r}")
        self.fmt = fmt
        self.n = _at_least("n", n, 1)
        self.diagnostics = diagnostics


# ---------------------------------------------------------------------------
# the analysis pipeline
# ---------------------------------------------------------------------------

def _prepare(equation, opts, *germ_N):
    """The front end every command shares: parse (which reduces P to its
    squarefree part), then polygon, depth, branches and the admissibility
    screen.  The branches are expanded once, deep enough for the residues
    and for germs at each index of germ_N (None: the default index).

    Returns (eq, notes, polygon, depth, branches, report); ``notes`` are the
    parser's."""
    eq = parse_equation(equation)
    polygon = newton_polygon(eq.P)
    depth = default_depth(eq.k, polygon, opts.depth, germ_N)
    branches = branches_at_infinity(eq.P, depth, opts.precision)
    lead_const = eq.P.coeff_in_p(eq.P.deg_p()).degree() == 0
    report = screen_admissibility(eq.k, branches, leading_p_coeff_constant=lead_const)
    return eq, list(eq.notes), polygon, depth, branches, report


def _germs_json(germs, orders):
    rows = []
    for ls, order in zip(germs, orders):
        entry = series_to_json(ls)
        entry["verify_residual_order"] = order
        entry["root_choice"] = ls.root_choice
        rows.append(entry)
    return rows


def _germ_lines(s):
    lines = [f"  n={s['n']} branch={s['branch']} resonance={s['resonance']}"
             + (f" verify_order={s['verify_residual_order']}"
                if s["verify_residual_order"] is not None else "")]
    emb = s.get("embedding")
    if emb is not None:
        lines.append(f"    over Q(i)(eta), eta^{emb['g']} = {coeff_text(emb['beta'])}: "
                     f"root {emb['root']}, eta = {coeff_text(emb['eta'])}")
    lines.append(f"    coeffs: {_coeffs_text(s['coeffs'], s['n'])}")
    return lines


def analyze(equation, opts=None):
    """Full pipeline: parse -> curve -> conditions -> series -> classify.

    Returns (report dict, exit_code).  With ``opts.diagnostics`` it returns
    (report dict, exit_code, diagnostics): a plain dict, outside the report,
    of the wall time of each stage ("stages_s": front end, exactness, germs,
    classification, render, the last building the report) and deterministic
    counts of the germs ("counts", see series.germ_counts)."""
    opts = opts or Options()
    clock = time.perf_counter
    t0 = clock()
    # the report's germs at --N, and the continuation family at N_traj
    N_traj = max(opts.N or 0, CONTINUATION_N)
    germ_N = (opts.N,) if opts.no_classify else (opts.N, N_traj)
    eq, warnings, polygon, depth, branches, report = _prepare(equation, opts, *germ_N)
    t1 = clock()
    assumptions = ["irreducibility of P assumed (not verified)"]
    ev = exactness_check(branches, resolved=eq.resolved, precision=opts.precision)
    if ev.mode == "general":
        assumptions.append("genus-0 assumed for the exactness verdict (general mode)")
    report = residue_screen(report, ev, eq.k)
    t2 = clock()

    germ_notes = []
    germs = germs_for_pairs(
        eq, branches,
        report.admissible_pairs() if report.pole_solutions_possible else [],
        germ_notes, "branch {bid}, n={n}: {exc}",
        c=opts.c, N=opts.N, precision=opts.precision, collect_notes=germ_notes)
    report = attach_degree_bound(report, germs)
    orders = verify_orders(eq, germs)
    t3 = clock()

    # match_monomial runs without a verdict too, only because perfbench's
    # EXPECTED_SPANS["screen_fuzz"] needs its span (ROADMAP's benchmark list)
    mono = match_monomial(eq)
    verdict = None if opts.no_classify else classify_equation(
        eq, report, branches, ev, mono, opts.c, N_traj, opts.tol, opts.precision)
    t4 = clock()
    out = _build_report(eq, opts, depth, assumptions, warnings, polygon,
                        branches, ev, report, germs, orders, germ_notes, verdict)
    t5 = clock()
    code = 0
    if verdict is not None and verdict.label in ("none_with_pole", "entire_only"):
        code = 2
    if opts.diagnostics:
        stages = dict(front_end=t1 - t0, exactness=t2 - t1, germs=t3 - t2,
                      classification=t4 - t3, render=t5 - t4)
        return out, code, {"stages_s": stages, "counts": germ_counts(germs)}
    return out, code


def _exactness_json(ev):
    return {
        "mode": ev.mode,
        "exact": ev.exact,
        "residues": [{
            "place": r.place, "value": coeff_to_json(r.value),
            "certified_zero": r.certified_zero,
        } for r in ev.residues],
        "s": ev.s_string(),
        "notes": list(ev.notes),
    }


def _build_report(eq, opts, depth, assumptions, warnings, polygon, branches,
                  ev, report, germs, orders, germ_notes, verdict):
    poly_json = {
        "support": [[i, j] for i, j in polygon.support],
        "upper_edges": [{
            "from": [e.i1, e.j1], "to": [e.i2, e.j2],
            "slope": _fraction_str(e.slope), "kappa": _fraction_str(e.kappa),
        } for e in polygon.upper_edges],
    }
    branches_json = []
    for b in branches:
        row = {
            "id": b.id, "m": b.m, "kappa": _fraction_str(b.kappa),
            "lead": coeff_to_json(b.lead),
            "p_unbounded": b.p_unbounded,
            "terms": [[_fraction_str(e), coeff_to_json(c)] for e, c in b.terms],
            "residue": coeff_to_json(residue_pdq(b)),
        }
        branches_json.append(row)
    cond_json = {
        "k": report.k,
        "per_branch": [{
            "branch": bc.branch_id, "kappa": _fraction_str(bc.kappa),
            "class": bc.label, "n": bc.n,
        } for bc in report.per_branch],
        "kappa_one_count": report.kappa_one_count,
        "admissible_n": list(report.admissible_n),
        "pole_solutions_possible": report.pole_solutions_possible,
        "exactness_required": report.exactness_required,
        "integrality_ok": report.integrality_ok,
        "residue_screen_ran": report.residue_screen_ran,
        "residue_obstruction": report.residue_obstruction,
        "degree_bound": report.degree_bound,
        "degree_bound_is_heuristic": True,
        "notes": list(report.notes),
    }
    verdict_json = None
    if verdict is not None:
        verdict_json = {
            "label": verdict.label,
            "confidence": verdict.confidence,
            "evidence": list(verdict.evidence),
            "degree_bound": report.degree_bound,
            "periods": [_cxpair(t) for t in verdict.periods],
        }
    return {
        "tool": {"name": "bbsolve", "version": __version__,
                 "schema_version": SCHEMA_VERSION},
        "input": {"source": eq.source_text, "canonical": canonical_string(eq),
                  "k": eq.k,
                  "resolved": (ratfunc_str(*eq.resolved, var="y")
                               if eq.resolved else None)},
        "settings": {"precision_bits": opts.precision, "depth": depth,
                     "trajectory_tol": opts.tol, "period_ratio_tol": DEFAULT_RATIO_TOL,
                     "series_N": opts.N,
                     "c": "default" if opts.c is None else gaussian_str(opts.c)},
        "assumptions": assumptions,
        "warnings": warnings,
        "newton_polygon": poly_json,
        "branches": branches_json,
        "exactness": _exactness_json(ev),
        "conditions": cond_json,
        "series": _germs_json(germs, orders),
        "series_notes": germ_notes,
        "classification": verdict_json,
    }


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_json(report):
    return json.dumps(report, indent=2, sort_keys=False, allow_nan=False)


def render_text(report):
    lines = []
    add = lines.append
    add(f"bbsolve {report['tool']['version']}")
    add(f"input:     {report['input']['source']}")
    add(f"canonical: {report['input']['canonical']}")
    if report["input"]["resolved"]:
        add(f"resolved:  y^({report['input']['k']}) = {report['input']['resolved']}")
    for w in report["warnings"]:
        add(f"warning: {w}")
    for a in report["assumptions"]:
        add(f"note: {a}")
    add("newton polygon edges:")
    for e in report["newton_polygon"]["upper_edges"]:
        add(f"  ({e['from'][0]},{e['from'][1]}) -> ({e['to'][0]},{e['to'][1]})"
            f"  slope {e['slope']}  kappa {e['kappa']}")
    add("branches over q=infinity:")
    for b in report["branches"]:
        add(f"  {b['id']}: m={b['m']} kappa={b['kappa']} lead={coeff_text(b['lead'])}"
            f" residue={coeff_text(b['residue'])}")
    lines.extend(_exactness_lines(report["exactness"]))
    cond = report["conditions"]
    add(f"admissible pole orders: {cond['admissible_n'] or 'none'}; "
        f"pole-bearing solutions possible: {cond['pole_solutions_possible']}")
    for note in cond["notes"]:
        add(f"  - {note}")
    if report["series"]:
        add("Laurent germs:")
        for s in report["series"]:
            lines.extend(_germ_lines(s))
    for note in report.get("series_notes", []):
        add(f"  series note: {note}")
    v = report["classification"]
    if v is not None:
        add(f"classification: {v['label']} (confidence {v['confidence']})")
        lines.extend(_verdict_lines(v))
    return "\n".join(lines)


def _exactness_lines(ex):
    """The text of the report's exactness section."""
    lines = [f"p dq exact: {ex['exact']} ({ex['mode']} mode)"
             + (f", s = {ex['s']}" if ex["s"] else "")]
    for r in ex["residues"]:
        lines.append(f"  residue at {r['place']}: {coeff_text(r['value'])}"
                     f"  [{'zero' if r['certified_zero'] else 'NONZERO'}]")
    return lines + [f"  - {note}" for note in ex["notes"]]


def _verdict_lines(v):
    """The evidence, degree-bound and period lines of a classification."""
    lines = [f"  * {e}" for e in v["evidence"]]
    if v["degree_bound"] is not None:
        lines.append(f"  heuristic degree bound: {v['degree_bound']}")
    return lines + [f"  period: {t[0]:.12g} + {t[1]:.12g} i" for t in v["periods"]]


def _coeffs_text(coeffs, n):
    parts = []
    for idx, cj in enumerate(coeffs):
        txt = coeff_text(cj)
        if txt == "0":
            continue
        if "rat" not in cj or not txt.startswith("("):
            txt = f"({txt})"   # gaussian_str brackets a complex value itself
        e = idx - n
        parts.append(f"{txt}*z^{e}" if e != 0 else txt)
    return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_analyze(equation, opts):
    report, code, *diagnostics = analyze(equation, opts)
    text = render_json(report) if opts.fmt == "json" else render_text(report)
    if diagnostics:
        print(json.dumps(diagnostics[0]), file=sys.stderr)
    return text, code


def cmd_series(equation, opts):
    eq, notes, _polygon, _depth, branches, report = _prepare(equation, opts, opts.N)
    pairs = report.admissible_pairs()
    if opts.n is not None:
        pairs = [(bid, n) for bid, n in pairs if n == opts.n]
    germs = germs_for_pairs(eq, branches, pairs, notes,
                            "branch {bid}, n={n}: {exc}", c=opts.c, N=opts.N,
                            precision=opts.precision, collect_notes=notes)
    rows = _germs_json(germs, verify_orders(eq, germs))
    out = {"input": canonical_string(eq), "series": rows, "notes": notes}
    if opts.fmt == "json":
        return render_json(out), 0
    lines = [f"germs for {out['input']}:"]
    for s in rows:
        lines += _germ_lines(s)
    lines += [f"note: {n}" for n in notes]
    if not rows:
        lines.append("  (none)")
    return "\n".join(lines), 0


def cmd_residues(equation, opts):
    eq, notes, _polygon, _depth, branches, _report = _prepare(equation, opts)
    ev = exactness_check(branches, resolved=eq.resolved, precision=opts.precision)
    out = {"input": canonical_string(eq), "exactness": _exactness_json(ev),
           "notes": notes}
    if opts.fmt == "json":
        return render_json(out), 0
    lines = [f"residues of p dq for {out['input']}:"]
    lines += _exactness_lines(out["exactness"])
    lines += [f"note: {n}" for n in notes]
    return "\n".join(lines), 0


def cmd_classify(equation, opts):
    if opts.no_classify:
        raise BBError("classify cannot run with no_classify set")
    report, code, *_ = analyze(equation, opts)
    v = report["classification"]
    out = {"input": report["input"]["canonical"], "classification": v}
    if opts.fmt == "json":
        return render_json(out), code
    lines = [f"{out['input']}: {v['label']} (confidence {v['confidence']})"]
    return "\n".join(lines + _verdict_lines(v)), code


def cmd_selftest():
    """Fast invariant suite; one PASS/FAIL line per check."""
    import random
    from .series import (bracket_phi, pinning_coefficient, recurrence_bracket,
                         ZSeries)
    checks = []

    def check(name, fn):
        try:
            ok = fn()
        except Exception as exc:          # surfaced, not hidden
            checks.append((name, False, f"{type(exc).__name__}: {exc}"))
            return
        checks.append((name, bool(ok), ""))

    def bracket_identity():
        rng = random.Random(7)
        for k in (2, 4):
            for _ in range(3):
                n = rng.randint(1, 3)
                coeffs = [GaussianRational(Fraction(rng.randint(-9, 9),
                                                    rng.randint(1, 5)))
                          for _ in range(10)]
                if coeffs[0].is_zero():
                    coeffs[0] = GaussianRational(1)
                y = ZSeries(-n, coeffs)
                lhs = bracket_phi(k, y).derivative()
                rhs = y.derivative_n(k) * y.derivative()
                diff = lhs - rhs
                if diff.first_noncertified_zero() is not None:
                    return False
        return True

    def resonance_table():
        for k in (2, 4, 6):
            for n in range(1, 7):
                zeros = [j for j in range(0, 4 * n + 2 * k + 4)
                         if recurrence_bracket(k, n, j) == 0]
                if zeros != [2 * n + k]:
                    return False
        for k in (1, 3):
            for n in range(1, 7):
                if any(recurrence_bracket(k, n, j) == 0
                       for j in range(1, 4 * n + 2 * k + 4)):
                    return False
        return True

    def pinning_spots():
        a = pinning_coefficient(2, 2, 1)
        b = pinning_coefficient(2, 1, 1)
        return a == GaussianRational(14) and b == GaussianRational(5)

    def parser_roundtrip():
        for text in ("y'' = 6*y^2", "P: p^2 - 4*q^3 + 4*q ; k=1", "y''' = y"):
            s = parse_equation(text)
            if parse_equation(canonical_string(s)) != s:
                return False
        return True

    def residue_sum():
        # the residue at infinity comes from the branch, the finite ones from
        # the Ostrogradsky decomposition: the theorem checks one against the other
        rng = random.Random(11)
        from .algebra import BiPoly, UPoly
        for _ in range(5):
            roots = [Fraction(rng.randint(-4, 4)) for _ in range(3)]
            D = UPoly([1])
            for r in roots:
                D = D * UPoly([-r, 1])
            N = UPoly([Fraction(rng.randint(-9, 9)) for _ in range(4)])
            if N.is_zero():
                N = UPoly([1])
            g = N.gcd(D)
            if g.degree() >= 1:
                N = N * UPoly([Fraction(1, 1)])
                D = D * UPoly([rng.randint(1, 3), 1])
            P = BiPoly([((1, j), c) for j, c in enumerate(D.coeffs)]
                       + [((0, j), -c) for j, c in enumerate(N.coeffs)])
            ev = exactness_check(branches_at_infinity(P, N.degree() + 2),
                                 resolved=(N, D))
            total = GaussianRational(0)
            for row in ev.residues:
                total = total + row.value
            if not coeff_is_zero(total):
                return False
        return True

    check("first-integral bracket identity", bracket_identity)
    check("resonance bracket structure", resonance_table)
    check("pinning spot values 14 and 5", pinning_spots)
    check("parser round-trip", parser_roundtrip)
    check("residue theorem sample", residue_sum)
    lines = []
    ok_all = True
    for name, ok, msg in checks:
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({msg})" if msg else ""))
        ok_all = ok_all and ok
    return "\n".join(lines), 0 if ok_all else 1


# ---------------------------------------------------------------------------
# argparse wiring
# ---------------------------------------------------------------------------

class _ArgParser(argparse.ArgumentParser):
    """A usage error raises BBError, so it leaves ``main`` like any other."""

    def error(self, message):
        raise BBError(message)


# every flag, and the flags of each command: exactly the settings it reads;
# an absent flag leaves its setting to the Options default
_FLAGS = {
    "--c": {"help": "exact first-integral constant (default: the resonant "
                    "coefficient stays free and even k continues at c = 1)"},
    "--N": {"type": int, "help": "germ truncation index (default 2n + k + 4)"},
    "--n": {"type": int, "help": "pole-order filter: only germs of pole order n"},
    "--depth": {"type": int, "help": "floor on the Puiseux depth in u-terms"},
    "--precision": {"type": int, "help": "working precision in bits (default 256)"},
    "--tol": {"type": float, "help": "continuation tolerance (default 1e-10)"},
    "--no-classify": {"action": "store_true", "help": "report without a verdict"},
    "--diagnostics": {"action": "store_true",
                      "help": "write stage times and germ counts to stderr as JSON"},
    "--format": {"choices": _FORMATS, "dest": "fmt", "help": "report format"}}
_CLASSIFY_FLAGS = ("--c", "--N", "--depth", "--precision", "--tol", "--format")
_COMMANDS = {
    "analyze": (cmd_analyze, _CLASSIFY_FLAGS + ("--no-classify", "--diagnostics")),
    "series": (cmd_series, ("--c", "--N", "--n", "--depth", "--precision", "--format")),
    "residues": (cmd_residues, ("--depth", "--precision", "--format")),
    "classify": (cmd_classify, _CLASSIFY_FLAGS),
}


def main(argv=None):
    parser = _ArgParser(
        prog="bbsolve",
        description="Pole screening, Laurent germs, and class-W classification "
                    "for autonomous equations P(y^(k), y) = 0.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_fn, flags) in _COMMANDS.items():
        sub = subs.add_parser(name, allow_abbrev=False,
                              argument_default=argparse.SUPPRESS)
        sub.add_argument("equation")
        for flag in flags:
            sub.add_argument(flag, **_FLAGS[flag])
    subs.add_parser("selftest")
    try:
        settings = vars(parser.parse_args(argv))
        command = settings.pop("command")
        if command == "selftest":
            text, code = cmd_selftest()
        else:
            equation = settings.pop("equation")
            if "c" in settings:
                settings["c"] = parse_constant(settings["c"])
            text, code = _COMMANDS[command][0](equation, Options(**settings))
    except (BBError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return _emit(text, code)


def _emit(text, code):
    """Print the report; exit 1 without a traceback when the reader has
    closed the pipe (the recipe of the Python ``signal`` documentation)."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: point it at devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())

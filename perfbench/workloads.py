"""Inputs and correctness checks of the three benchmark workloads.

An input is a zero-argument ``call`` that does the program work and returns
its raw output, a ``digest`` that turns that output into canonical text, and
a ``check`` that returns a failure reason or None.  Calls look the program's
functions up through their ``bbsolve.*`` module at call time, so the spans
that ``tracer.Tracer`` installs are seen.

* ``corpus``: the golden corpus of the acceptance tests through ``analyze``
  and ``render_json``, checked against the outcome table in references.json.
* ``screen_fuzz``: a seeded family of ODE-sugar equations through ``analyze``
  without classification; 16 of them are malformed and must raise BBError.
  The inputs of KNOWN_DEFECTS are tried apart from the measured passes.
* ``deep_expansion``: fixed deep calls of ``branches_at_infinity`` and of
  ``enumerate_series`` plus ``verify_series``, checked against stored exact
  digests and numeric reference disks.
"""

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

WORKLOADS = ("corpus", "screen_fuzz", "deep_expansion")

# tests/test_acceptance.py::GOLDEN_CORPUS, copied so that the benchmark
# measures the same inputs even if the tests change.
CORPUS = (
    "y'' = 6*y^2",
    "y'' = 6*y^2 - 2",
    "P: p^2 - 4*q^3 + 4*q ; k=1",
    "y'' = y^4",
    "y'' = 4*y^3 + 1/y",
    "y''' = y",
    "y'' = y",
    "y' = y^2",
    "y' = y^2 - 1",
    "y'' = y^2",
    "P: p^2 - q^3 ; k=2",
    "y' = 2*y^3",
)

FUZZ_ROUNDS = 10          # well-formed inputs: 20 shapes x FUZZ_ROUNDS
FUZZ_MALFORMED = 16

# (curve P, depth): exact Gaussian-rational work first, then two curves on
# the 256-bit BigComplex path.  Depth 44, analyze's default on the second
# curve, takes ~28 s, so these depths keep a pass near 8 s.
DEEP_BRANCHES = (
    ("p^2 - 4*q^3 + 4*q", 80),
    ("3*p^2*q^2 + 3*p*q^3 + 4*p*q + 4*q^5", 12),
    ("3*p^2*q - 2*p^2 + 2*q^5", 16),
)
# (equation, pole order n, truncation N, first-integral constant c): the
# ramified germ of the Weierstrass curve, and two long pinned germs at the
# constant c = 1 that the numeric classification uses for even k.
DEEP_GERMS = (
    ("P: p^2 - 4*q^3 + 4*q ; k=1", 2, 24, None),
    ("y'' = 6*y^2", 2, 96, 1),
    ("y'' = 6*y^2 - 2", 2, 64, 1),
)


@dataclass
class Input:
    label: str
    call: Callable[[], object]
    digest: Callable[[object], str]
    check: Callable[[object], Optional[str]]


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def build(name, seed, bb, refs):
    """The inputs of workload ``name`` for ``seed``.

    ``bb`` is the imported ``bbsolve`` package; ``refs`` the parsed
    references.json, or None to build inputs without checks (to record
    the references).
    """
    if name == "corpus":
        return _corpus_inputs(bb, refs and refs["corpus"])
    if name == "screen_fuzz":
        return [_analyze_input(bb, text, bb.cli.Options(no_classify=True),
                               _fuzz_check(malformed))
                for text, malformed in fuzz_equations(seed)]
    if name == "deep_expansion":
        return _deep_inputs(bb, refs and refs["deep_expansion"])
    raise ValueError(f"unknown workload {name!r}")


def known_defects(bb):
    """One input per KNOWN_DEFECTS entry, checked as a malformed screen_fuzz input."""
    return [_analyze_input(bb, text, bb.cli.Options(no_classify=True), _fuzz_check(True))
            for text in KNOWN_DEFECTS]


def status(out):
    """The outcome of an output: "ok", "rejected" (BBError) or "crash"."""
    return out[0] if out[0] in ("rejected", "crash") else "ok"


def _no_check(out):
    return None


def _matching(labels, table, what):
    """The reference rows for ``labels``, or no rows when recording."""
    if table is None:
        return [None] * len(labels)
    if [row["input"] for row in table] != list(labels):
        raise ValueError(f"references.json {what} entries do not list the inputs")
    return table


# ---------------------------------------------------------------------------
# analyze-based inputs
# ---------------------------------------------------------------------------

def _analyze_input(bb, text, opts, check):
    def call():
        try:
            report, code = bb.cli.analyze(text, opts)
            return ("ok", bb.cli.render_json(report), code)
        except bb.errors.BBError as exc:
            return ("rejected", f"{type(exc).__name__}: {exc}", 1)
        except Exception as exc:   # a crash is a result to report, not to stop on
            return ("crash", f"{type(exc).__name__}: {exc}", None)

    return Input(text, call, _outcome_text, check)


def _outcome_text(out):
    """The rendered report of a completed analysis, else the status and error."""
    status, body, code = out
    return body if status == "ok" else f"{status}\n{body}"


def outcome_row(out):
    """The corpus table row of one analyze outcome."""
    status, body, code = out
    if status != "ok":
        return {"status": status, "code": code}
    report = json.loads(body)
    verdict = report["classification"] or {}
    return {"status": status, "code": code, "label": verdict.get("label"),
            "confidence": verdict.get("confidence"),
            "germs": len(report["series"]), "sha256": sha256(body)}


def _corpus_inputs(bb, table):
    inputs = []
    for text, ref in zip(CORPUS, _matching(CORPUS, table, "corpus")):
        def check(out, ref=ref):
            row = outcome_row(out)
            diffs = [f"{key} {row.get(key)!r} != {ref[key]!r}"
                     for key in ("status", "code", "label", "confidence", "germs")
                     if row.get(key) != ref[key]]
            return "; ".join(diffs) or None
        inputs.append(_analyze_input(bb, text, bb.cli.Options(),
                                     check if ref else _no_check))
    return inputs


def _fuzz_check(malformed):
    def check(out):
        status, body, _ = out
        if status == "crash":
            return f"raised {body} instead of BBError"
        if malformed and status != "rejected":
            return "malformed input did not raise BBError"
        return None
    return check


# ---------------------------------------------------------------------------
# the screen_fuzz generator
# ---------------------------------------------------------------------------

def _frac_text(fr):
    return str(fr.numerator) if fr.denominator == 1 else f"{fr.numerator}/{fr.denominator}"


def _value(values, fraction):
    num = values.randint(1, 9) * values.choice((1, -1))
    return _frac_text(Fraction(num, values.randint(2, 5) if fraction else 1))


def _coeff_text(shape, values):
    """A coefficient whose kind (integer, fraction, imaginary, Gaussian)
    comes from ``shape`` and whose digits come from ``values``."""
    roll = shape.random()
    fraction = shape.random() < 0.3
    re = _value(values, fraction)
    if roll < 0.08:
        return f"{re}*i"
    if roll < 0.16:
        return f"({re} + {_value(values, shape.random() < 0.3)}*i)"
    return re


def _fuzz_rhs(shape, values, degree, reciprocal):
    terms = [f"{_coeff_text(shape, values)}*y^{degree}"]
    for d in range(degree - 1, -1, -1):
        if shape.random() < 0.4:
            c = _coeff_text(shape, values)
            terms.append(c if d == 0 else f"{c}*y^{d}")
    if reciprocal:
        terms.append(f"{_coeff_text(shape, values)}/y^{shape.randint(1, 2)}")
    return " + ".join(terms)


def _lhs(k):
    return "y" + "'" * k


# Malformed or degenerate inputs; every one must end in BBError.
_MALFORMED = (
    lambda k, rhs, rng: f"{_lhs(k)} = {rhs} +",                 # trailing operator
    lambda k, rhs, rng: f"{_lhs(k)} = ({rhs}",                  # unbalanced parenthesis
    lambda k, rhs, rng: f"{_lhs(k)} = sin({rhs})",              # non-polynomial operator
    lambda k, rhs, rng: f"{_lhs(k)} = {rhs} + y'",              # derivative on the right
    lambda k, rhs, rng: f"{_lhs(k)} = {rhs} $",                 # stray character
    lambda k, rhs, rng: f"{_lhs(k)} = {_value(rng, False)}",     # constant right side
    lambda k, rhs, rng: f"P: p - q^2 ; k=0",                    # derivative order 0
    lambda k, rhs, rng: f"P: p*q - 1/q ; k={k}",                # raw form divided by q
)

# Malformed inputs that hit a known defect of the program.  A measured input
# must not fail, so these stay out of the passes; every screen_fuzz run
# tries each once, after the timed passes, and reports what it raised.
KNOWN_DEFECTS = (
    # eqparse._parse_ode raises ZeroDivisionError here, not BBError.
    "y'' = 6*y^2 + 1/(y - y)",
)


def fuzz_equations(seed):
    """The screen_fuzz inputs for ``seed``: pairs (equation text, malformed?).

    Equations are ``y^(k) = R(y)``.  Each of the 20 shapes (k <= 4, degree
    <= 5 of the polynomial part) appears FUZZ_ROUNDS times, and a fixed
    quarter of them add a ``c/y^j`` term.  Which lower-degree terms appear
    and the kind of each coefficient (integer, fraction, imaginary,
    Gaussian) are drawn from a fixed generator; the seed draws the digits
    and the order.  The cost of an input follows mostly from its shape, so
    this keeps a pass at about the same cost on every seed.  FUZZ_MALFORMED
    inputs cycle through the malformed templates.
    """
    shape = random.Random(0)
    values = random.Random(seed)
    out = []
    for i in range(20 * FUZZ_ROUNDS):
        k, degree = i % 20 // 5 + 1, i % 5 + 1
        rhs = _fuzz_rhs(shape, values, degree, reciprocal=(i // 20 + i) % 4 == 0)
        out.append((f"{_lhs(k)} = {rhs}", False))
    for i in range(FUZZ_MALFORMED):
        k = i % 4 + 1
        rhs = _fuzz_rhs(shape, values, i % 5 + 1, False)
        out.append((_MALFORMED[i % len(_MALFORMED)](k, rhs, values), True))
    values.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# deep_expansion: canonical text of exact and numeric coefficients
# ---------------------------------------------------------------------------

def _mpf_pair(x):
    man, exp = x.man_exp
    return [int(man), int(exp)]


def _pair_fraction(pair):
    man, exp = pair
    return Fraction(man * 2 ** exp) if exp >= 0 else Fraction(man, 2 ** -exp)


def split_coeff(c, bb, numeric):
    """Canonical text of an exact coefficient; a numeric one is appended to
    ``numeric`` as exact binary (re, im, err) and shows as ``#index``."""
    if bb.algebra.is_exact(c):
        g = bb.algebra.as_gaussian(c)
        return f"{g.re}|{g.im}"
    if isinstance(c, bb.algebra.BigComplex):
        numeric.append([_mpf_pair(c.val.real), _mpf_pair(c.val.imag), _mpf_pair(c.err)])
        return f"#{len(numeric) - 1}"
    return repr(c)       # FREE


def deep_text(out, bb):
    """(exact canonical text, numeric coefficients) of one deep output."""
    numeric = []
    lines = []
    kind, value = out
    if kind == "branches":
        for b in value:
            lines.append(f"branch {b.id} m={b.m} kappa={b.kappa} unbounded={b.p_unbounded} "
                         f"valid_to={b.valid_q_to} depth={b.depth}")
            lines.extend(f"  {e} {split_coeff(c, bb, numeric)}" for e, c in b.terms)
    else:
        germs, orders = value
        for ls, order in zip(germs, orders):
            c = "None" if ls.c is None else split_coeff(ls.c, bb, numeric)
            lines.append(f"germ n={ls.n} k={ls.k} N={ls.N} res={ls.resonance_status} "
                         f"c={c} branch={ls.branch_id} root={ls.root_choice} "
                         f"verify_order={order}")
            lines.extend(f"  {j} {split_coeff(cj, bb, numeric)}"
                         for j, cj in enumerate(ls.coeffs))
    return "\n".join(lines), numeric


def disks_overlap(got, ref):
    """Exact test that two (re, im, err) binary disks intersect."""
    gre, gim, gerr = (_pair_fraction(p) for p in got)
    rre, rim, rerr = (_pair_fraction(p) for p in ref)
    return (gre - rre) ** 2 + (gim - rim) ** 2 <= (gerr + rerr) ** 2


def _deep_inputs(bb, refs):
    inputs = []
    for P_text, depth in DEEP_BRANCHES:
        P = bb.eqparse.parse_equation(f"P: {P_text} ; k=1").P
        inputs.append((f"branches_at_infinity({P_text}, depth={depth})",
                       lambda P=P, depth=depth:
                       ("branches", bb.curve.branches_at_infinity(P, depth))))
    for text, n, N, c in DEEP_GERMS:
        eq = bb.eqparse.parse_equation(text)
        branch = _branch_for_germ(bb, eq, n, N)
        c_val = None if c is None else bb.algebra.GaussianRational(c)

        def call(eq=eq, branch=branch, n=n, N=N, c_val=c_val):
            germs = bb.series.enumerate_series(eq, branch, n, c=c_val, N=N)
            return ("germs", (germs, [bb.series.verify_series(eq, ls) for ls in germs]))
        inputs.append((f"enumerate_series+verify_series({text}, n={n}, N={N})", call))
    def digest(o):
        exact, numeric = deep_text(o, bb)
        return exact + "\n" + repr(numeric)

    out = []
    refs = _matching([label for label, _ in inputs], refs, "deep_expansion")
    for (label, call), ref in zip(inputs, refs):
        def check(o, ref=ref):
            exact, numeric = deep_text(o, bb)
            if sha256(exact) != ref["exact_sha256"]:
                return "exact coefficients differ from the stored digest"
            if len(numeric) != len(ref["numeric"]):
                return f"{len(numeric)} numeric coefficients, reference has {len(ref['numeric'])}"
            bad = [i for i, (g, r) in enumerate(zip(numeric, ref["numeric"]))
                   if not disks_overlap(g, r)]
            return f"numeric coefficients {bad} leave their reference disks" if bad else None
        out.append(Input(label, call, digest, check if ref else _no_check))
    return out


def _branch_for_germ(bb, eq, n, N):
    """The branch feeding pole order n, expanded deep enough for index N.

    Set-up work done once per process, outside the timed passes."""
    shallow = bb.curve.branches_at_infinity(eq.P, 8)
    report = bb.conditions.screen_admissibility(eq.k, shallow)
    bid = next(b for b, nn in report.admissible_pairs() if nn == n)
    m = next(b.m for b in shallow if b.id == bid)
    deep = bb.curve.branches_at_infinity(eq.P, -(-m * N // n) + 4)
    return next(b for b in deep if b.id == bid)


def reference_entry(name, inp, out, bb):
    """The references.json entry that records ``out`` as correct."""
    if name == "corpus":
        return {"input": inp.label, **outcome_row(out)}
    exact, numeric = deep_text(out, bb)
    return {"input": inp.label, "exact_sha256": sha256(exact), "numeric": numeric}

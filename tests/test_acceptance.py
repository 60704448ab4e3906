"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance and time budget is pinned here.  Oracles are independent
implementations (tests/oracle_series.py, tests/oracle_periods.py) that share
no code with the package.
"""

import hashlib
import json
import os
import random
import time
from fractions import Fraction

from bbsolve.algebra import (DEFAULT_PREC, BiPoly, GaussianRational, UPoly,
                             as_gaussian, coeff_is_zero, field_of, is_exact,
                             roots_univariate)
from bbsolve.classify import (detect_periods, match_exponential, match_monomial,
                              sweep_poles)
from bbsolve.cli import Options, _prepare, analyze, render_json
from bbsolve.curve import branches_at_infinity, exactness_check
from bbsolve.eqparse import parse_constant, parse_equation
from bbsolve.series import (ZSeries, bracket_phi, enumerate_series,
                            pinning_coefficient, recurrence_bracket,
                            verify_series)

from oracle_periods import lemniscatic_periods
from oracle_series import solve_laurent

F = Fraction


def _elapsed_ok(t0, budget, label):
    dt = time.monotonic() - t0
    assert dt < budget, f"{label}: {dt:.1f}s exceeds the {budget}s budget"
    return dt


def _report(label, dt):
    print(f"PASS {label} ({dt:.2f}s)")


def test_criterion_01_first_integral_identity():
    """d/dz Phi_k(y) = y^(k) y' termwise, exact, k in {2,4,6,8}, 20 random each."""
    t0 = time.monotonic()
    rng = random.Random(20240817)
    for k in (2, 4, 6, 8):
        for _ in range(20):
            n = rng.randint(1, 4)
            length = rng.randint(k + 2, k + 9)
            coeffs = [GaussianRational(F(rng.randint(-9, 9), rng.randint(1, 7)),
                                       F(rng.randint(-3, 3), rng.randint(1, 4)))
                      for _ in range(length)]
            if coeffs[0].is_zero():
                coeffs[0] = GaussianRational(1)
            y = ZSeries(-n, coeffs)
            lhs = bracket_phi(k, y).derivative()
            rhs = y.derivative_n(k) * y.derivative()
            diff = lhs - rhs
            assert diff.first_noncertified_zero() is None, (k, n, coeffs)
    dt = _elapsed_ok(t0, 10, "criterion 1")
    _report("criterion 1: first-integral identity (k=2,4,6,8 x 20 random)", dt)


def test_criterion_02_resonance_structure():
    """Even k <= 10: bracket vanishes exactly at 2n+k; odd k <= 9: never."""
    t0 = time.monotonic()
    for k in range(2, 11, 2):
        for n in range(1, 13):
            scan = 4 * n + 2 * k + 12
            zeros = [j for j in range(0, scan) if recurrence_bracket(k, n, j) == 0]
            assert zeros == [2 * n + k], (k, n, zeros)
            # beyond the scan the bracket is strictly increasing in j
            assert recurrence_bracket(k, n, scan) > 0
            assert recurrence_bracket(k, n, scan + 1) > recurrence_bracket(k, n, scan)
    for k in range(1, 10, 2):
        for n in range(1, 13):
            assert all(recurrence_bracket(k, n, j) != 0
                       for j in range(1, 4 * n + 2 * k + 12)), (k, n)
    dt = _elapsed_ok(t0, 5, "criterion 2")
    _report("criterion 2: resonance exactly at 2n+k (even k), never (odd k)", dt)


def test_criterion_03_pinning_sum():
    """pinning_coefficient(k,n,1) > 0 for even k <= 12, n <= 12; spots 14, 5."""
    t0 = time.monotonic()
    for k in range(2, 13, 2):
        for n in range(1, 13):
            v = pinning_coefficient(k, n, 1)
            assert v.im == 0 and v.re > 0, (k, n, v)
    assert pinning_coefficient(2, 2, 1) == GaussianRational(14)
    assert pinning_coefficient(2, 1, 1) == GaussianRational(5)
    dt = _elapsed_ok(t0, 1, "criterion 3")
    _report("criterion 3: pinning sums positive; spot values 14 and 5", dt)


def _random_resolved_case(rng):
    """(equation text, k, n, R_coeffs, c0): admissible with exact-rational c0."""
    while True:
        k = rng.randint(1, 4)
        deg = rng.choice((2, 3))
        if k % (deg - 1):
            continue
        n = k // (deg - 1)
        break
    c0 = F(rng.choice([x for x in range(-6, 7) if x]), rng.randint(1, 3))
    from bbsolve.algebra import falling
    D0 = F(falling(-n, k))
    lead = D0 / c0 ** (deg - 1)
    coeffs = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(deg)]
    coeffs.append(lead)
    terms = []
    for d, cc in enumerate(coeffs):
        if cc == 0:
            continue
        frac = f"{cc.numerator}/{cc.denominator}" if cc.denominator != 1 \
            else str(cc.numerator)
        if d == 0:
            terms.append(f"({frac})")
        elif d == 1:
            terms.append(f"({frac})*y")
        else:
            terms.append(f"({frac})*y^{d}")
    text = f"y^({k}) = " + " + ".join(terms)
    return text, k, n, coeffs, c0


def test_criterion_04_oracle_equivalence():
    """30 random resolved equations: engine == independent dense solve, exact."""
    t0 = time.monotonic()
    rng = random.Random(424242)
    done = 0
    while done < 30:
        text, k, n, R_coeffs, c0 = _random_resolved_case(rng)
        N = 2 * n + k + 4
        eq = parse_equation(text)
        branches = branches_at_infinity(eq.P, depth=4 * (n + k) + 8)
        c_val = F(rng.randint(-5, 5), rng.randint(1, 3)) if k % 2 == 0 else None
        germs = enumerate_series(eq, branches[0], n,
                                 c=GaussianRational(c_val) if c_val is not None else None,
                                 N=N)
        mine = [g for g in germs
                if is_exact(g.coeffs[0]) and
                GaussianRational(c0) == g.coeffs[0]]
        assert mine, f"engine missed the rational root c0={c0} for {text}"
        got = mine[0].coeffs
        want = solve_laurent(k, n, R_coeffs, c0, N, c=c_val)
        for j in range(N + 1):
            gj = got[j]
            assert is_exact(gj), (text, j)
            assert gj == GaussianRational(want[j]), \
                f"{text}: index {j}: engine {gj} oracle {want[j]}"
        done += 1
    dt = _elapsed_ok(t0, 60, "criterion 4")
    _report("criterion 4: 30 random equations match the dense oracle exactly", dt)


def test_criterion_05_worked_germ():
    """y'' = 6y^2: unique c0 = 1; c1..c5 = 0; c6 = -c/14; verify through N=12."""
    t0 = time.monotonic()
    eq = parse_equation("y'' = 6*y^2")
    branches = branches_at_infinity(eq.P, depth=24)
    for c in (GaussianRational(0), GaussianRational(7), GaussianRational(F(-3, 2))):
        germs = enumerate_series(eq, branches[0], 2, c=c, N=12)
        assert len(germs) == 1
        ls = germs[0]
        assert ls.coeffs[0] == GaussianRational(1)
        assert all(coeff_is_zero(ls.coeffs[j]) for j in range(1, 6))
        assert ls.coeffs[6] == c * GaussianRational(F(-1, 14))
        assert verify_series(eq, ls) >= 13
    dt = _elapsed_ok(t0, 5, "criterion 5")
    _report("criterion 5: worked p-family germ exact, verified through N=12", dt)


def test_criterion_06_screening():
    """y''=y^4 entire_only; R=4q^3+1/q blocked by residue; y'''=y exponential."""
    t0 = time.monotonic()
    rep, code = analyze("y'' = y^4")
    assert code == 2
    assert rep["classification"]["label"] == "entire_only"
    assert not rep["conditions"]["pole_solutions_possible"]

    rep, code = analyze("y'' = 4*y^3 + 1/y")
    assert code == 2
    assert rep["classification"]["label"] == "none_with_pole"
    assert any("residue obstruction" in note for note in rep["conditions"]["notes"])
    inf_row = [r for r in rep["exactness"]["residues"] if r["place"] == "infinity"]
    assert inf_row[0]["value"] == {"rat": "-1"}

    eq = parse_equation("y''' = y")
    matches = match_exponential(eq)
    assert len(matches) == 1
    m = matches[0]
    assert m.a_poly == UPoly([-1, 0, 0, 1])   # a^3 = 1 exactly
    assert [str(v) for v in roots_univariate(m.a_poly) if is_exact(v)] == ["1"]
    rep, code = analyze("y''' = y")
    assert rep["classification"]["label"] == "entire_only"
    assert any("exponential" in e for e in rep["classification"]["evidence"])
    dt = _elapsed_ok(t0, 5, "criterion 6")
    _report("criterion 6: screening verdicts and exact exponential matches", dt)


def test_criterion_07_monomial_solutions():
    """y^(k) = y^m: match_monomial returns c with c^(m-1) = (-1)^k poch(n,k)."""
    t0 = time.monotonic()
    from bbsolve.algebra import falling
    for k, m in ((1, 2), (2, 2), (2, 3), (4, 3), (3, 4)):
        n, rem = divmod(k, m - 1)
        assert rem == 0
        eq = parse_equation(f"y^({k}) = y^{m}")
        matches = match_monomial(eq)
        assert len(matches) == 1 and matches[0].n == n
        D0 = falling(-n, k)
        want = UPoly([-F(D0)] + [GaussianRational(0)] * (m - 2) + [GaussianRational(1)])
        assert matches[0].defining_poly == want.monic()
        # exact back-substitution: residual vanishes identically
        for root in roots_univariate(matches[0].defining_poly):
            pval = eq.P.eval(root * GaussianRational(D0) if is_exact(root)
                             else root * D0, root)
            # P(D0 c, c) with the z-powers stripped: both monomials in the
            # same z-exponent bucket, so this is the full residual
            assert coeff_is_zero(pval)
    dt = _elapsed_ok(t0, 5, "criterion 7")
    _report("criterion 7: monomial matches for five (k, m) cases, exact", dt)


def test_criterion_08_elliptic_detection():
    """Lemniscatic lattice from both routes, ratio within 1e-4 of i, periods
    within 1e-6 of the AGM oracle."""
    t0 = time.monotonic()
    Tx, Ty = lemniscatic_periods()
    for text, n, c in (("P: p^2 - 4*q^3 + 4*q ; k=1", 2, None),
                       ("y'' = 6*y^2 - 2", 2, GaussianRational(0))):
        eq = parse_equation(text)
        branches = branches_at_infinity(eq.P, depth=48)
        germs = enumerate_series(eq, branches[0], n, c=c, N=24)
        if eq.resolved is not None and eq.k % 2 == 0:
            assert exactness_check(branches, resolved=eq.resolved).exact
        events, probe = sweep_poles(eq, germs, budget=12)
        assert len(events) >= 8
        pr = detect_periods(events, tol=1e-4, state_probe=probe)
        assert pr.rank == 2 and pr.verified, text
        assert abs(pr.ratio - 1j) < 1e-4, f"{text}: ratio {pr.ratio}"
        for T in pr.periods:
            dev = min(abs(T - Tx), abs(T - Ty), abs(T + Tx), abs(T + Ty))
            assert dev < 1e-6, f"{text}: period {T} vs oracle ({Tx}, {Ty})"
    dt = _elapsed_ok(t0, 120, "criterion 8")
    _report("criterion 8: lemniscatic lattice matches the AGM oracle to 1e-6", dt)


def test_criterion_09_residue_theorem():
    """50 random rational R: finite residues + residue at infinity == 0 exactly.

    The residue at infinity is read from the Puiseux branch of P = D p - N,
    the finite ones from the Ostrogradsky decomposition."""
    t0 = time.monotonic()
    rng = random.Random(1789)
    done = 0
    while done < 50:
        # denominator split over Q(i): every residue is an exact Gaussian rational
        dd = rng.randint(1, 3)
        D = UPoly([1])
        for _ in range(dd):
            root = GaussianRational(F(rng.randint(-3, 3), rng.randint(1, 2)),
                                    F(rng.choice((0, 0, 1, -1))))
            D = D * UPoly([-root, GaussianRational(1)])
        N = UPoly([GaussianRational(F(rng.randint(-9, 9), rng.randint(1, 3)))
                   for _ in range(rng.randint(1, 5))])
        if N.is_zero():
            continue
        g = N.gcd(D)
        if g.degree() >= 1:
            N = N // g
            D = D // g
        if D.degree() == 0:
            continue
        P = BiPoly([((1, j), c) for j, c in enumerate(D.coeffs)]
                   + [((0, j), -c) for j, c in enumerate(N.coeffs)])
        ev = exactness_check(branches_at_infinity(P, N.degree() + 2),
                             resolved=(N, D))
        assert ev.residues[-1].place == "infinity"
        total = GaussianRational(0)
        for row in ev.residues:
            assert is_exact(row.value), "split denominator must exactify"
            total = total + row.value
        assert is_exact(total), f"residue sum not exact for N={N}, D={D}"
        total_g = as_gaussian(total)
        assert total_g.is_zero(), f"nonzero residue sum for N={N}, D={D}"
        done += 1
    dt = _elapsed_ok(t0, 5, "criterion 9")
    _report("criterion 9: residue sums vanish exactly for 50 random rationals", dt)


GOLDEN_CORPUS = [
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
]


def test_criterion_10_determinism():
    """analyze twice over the golden corpus: byte-identical JSON."""
    t0 = time.monotonic()
    for text in GOLDEN_CORPUS:
        first, code1 = analyze(text, Options())
        second, code2 = analyze(text, Options())
        assert code1 == code2
        ja, jb = render_json(first), render_json(second)
        assert ja == jb, f"nondeterministic report for {text}"
        json.loads(ja)   # well-formed
    dt = _elapsed_ok(t0, 180, "criterion 10")
    _report(f"criterion 10: byte-identical JSON over {len(GOLDEN_CORPUS)} equations", dt)


# sha256 of render_json(analyze(text)) for each GOLDEN_CORPUS equation at the
# default options.  A report changed on purpose updates this table and says
# so in CHANGES.md; a speed-up leaves it alone.
GOLDEN_SHA256 = {
    "y'' = 6*y^2": "48e354b19f48c33fda83390471a7e7266fb1d2ac689125ebe500765bb5b15f5b",
    "y'' = 6*y^2 - 2": "37367e473a5bc4e8af8ae522ff297bfcea8e732d3f11187720959fbfb884f2b7",
    "P: p^2 - 4*q^3 + 4*q ; k=1":
        "f8a09cc0bd4c6c55286c0891b0481758ad9c0ee590ca6719aa03463b8325e419",
    "y'' = y^4": "0a00384daa786b15ae6c5ad7fbfd2b6ce91a4dc517cdfbae9c0f8d893a055fbb",
    "y'' = 4*y^3 + 1/y": "e201d1f45c000e731c3049990523a6068ea23f94ab4afd12631e7b74f03575cc",
    "y''' = y": "a7c618fbc713cbb7030f1dfb2d6764eb1a57178ceb00dc5a79e11bc9f8e8a65b",
    "y'' = y": "37fbc6682727a9ee6a1e61ac517ddbb5b6fc4ea0274b66264d55b4a0dab57a65",
    "y' = y^2": "84fea772875925c87c3d4833ad64760e04a2103ba50a3f3a01a6d865d61f663e",
    "y' = y^2 - 1": "8ad78b9db881ccc12f4f32108b9f2fe453eaee3cdf03f7355e7d8a250bfc9dc5",
    "y'' = y^2": "4ce311390ecfeb7a695acd70af48a0714fb12dc3315dbc78b6f773045405ade7",
    "P: p^2 - q^3 ; k=2": "5570ea77121e84cf92805ea9f5d47645dc6230fe34db859f220de98328cff379",
    "y' = 2*y^3": "36f3880b2bf54f37eba76bad1a0ed7837547449c9ed23c96f5e6ba0f688fac69",
}


def test_criterion_11_golden_reports_byte_identical():
    """analyze over the golden corpus: each JSON report has its pinned sha256."""
    t0 = time.monotonic()
    assert list(GOLDEN_SHA256) == GOLDEN_CORPUS
    changed = []
    for text in GOLDEN_CORPUS:
        report, _code = analyze(text, Options(precision=DEFAULT_PREC))
        digest = hashlib.sha256(render_json(report).encode()).hexdigest()
        if digest != GOLDEN_SHA256[text]:
            changed.append(f"{text}: {digest}")
    assert not changed, "reports differ from the pinned table:\n" + "\n".join(changed)
    dt = _elapsed_ok(t0, 60, "criterion 11")
    _report(f"criterion 11: {len(GOLDEN_CORPUS)} golden reports match their sha256", dt)


# The numeric side pinned bit for bit: sha256 of the raw midpoint and radius
# of every coefficient of the numeric Puiseux branches below, and of
# render_json(analyze(text, Options(no_classify=True))) for an input whose
# germs are 256-bit balls (c0 = 2^(1/4) on a numeric branch).  A widened
# radius or a moved midpoint changes a digest; a speed-up leaves them alone.
NUMERIC_BRANCH_SHA256 = {
    ("3*p^2*q - 2*p^2 + 2*q^5", 16):
        "5cacfff8043168f2b2ae5d4626eafb20447118fc9ecc4277a297d3e10a34e805",
    ("3*p^2*q^2 + 3*p*q^3 + 4*p*q + 4*q^5", 12):
        "a3ba71ec8681719c396f225b0e8c2eb82e9ebb0f0a63713a920969f6a16e19a3",
}
NUMERIC_REPORT_SHA256 = {
    "P: p^2 - 2*q^6 ; k=2":
        "05314f1664552132f4532885b05a175561c20b41e00d6cf855c2a8f139980110",
}
# Reports whose germs were 256-bit balls while c0 outside Q(i) was computed
# in ball arithmetic, and are now exact over K = Q(i)[eta]/(eta^g - beta):
# eta^3 = 6 free, and eta^2 = -2 with the resonant coefficient left free.
# tests/ball_germs_256.json keeps those balls, as (mantissa, exponent) pairs
# of the midpoint's real and imaginary parts and of the radius, or as the
# exact text of a coefficient that was already exact.
EXACT_GERM_REPORT_SHA256 = {
    "y''' = -1*y^4 + 1*y^3 + -1*y^2":
        "a667d295117a714612bf97038370bfe82e4913d1af5668f03539099e9d1ac8eb",
    "y'' = -1*y^3 + 5*y^1 + 9":
        "4dea3ea5887d03960049b244ef6ac0bce290f19316705d57165ff0f1a6711308",
}
BALL_GERMS = os.path.join(os.path.dirname(__file__), "ball_germs_256.json")


def _raw_branch_text(P_text, depth):
    """Each branch and coefficient; a numeric one as the integers of its
    midpoint and radius (sign, mantissa, exponent, bit count)."""
    P = parse_equation(f"P: {P_text} ; k=1").P
    lines = []
    for b in branches_at_infinity(P, depth):
        lines.append(f"branch {b.id} m={b.m} kappa={b.kappa} depth={b.depth}")
        for e, c in b.terms:
            if is_exact(c):
                lines.append(f"  {e} {as_gaussian(c)}")
            else:
                (re, im), err = c.val._mpc_, c.err._mpf_
                lines.append(f"  {e} {[int(x) for x in re + im + err]} prec={c.prec}")
    return "\n".join(lines)


def test_criterion_11b_numeric_bits_pinned():
    """Numeric branches and numeric-germ reports: each has its pinned sha256."""
    t0 = time.monotonic()
    changed = []
    for (P_text, depth), want in NUMERIC_BRANCH_SHA256.items():
        text = _raw_branch_text(P_text, depth)
        assert "prec=" in text          # the branches are numeric
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest != want:
            changed.append(f"branches of {P_text} at depth {depth}: {digest}")
    for text, want in NUMERIC_REPORT_SHA256.items():
        report, _code = analyze(text, Options(no_classify=True))
        rendered = render_json(report)
        assert '"err"' in rendered      # some germ coefficient is a ball
        digest = hashlib.sha256(rendered.encode()).hexdigest()
        if digest != want:
            changed.append(f"{text}: {digest}")
    assert not changed, "numeric outputs differ from the pinned table:\n" + "\n".join(changed)
    dt = _elapsed_ok(t0, 60, "criterion 11b")
    _report(f"criterion 11b: {len(NUMERIC_BRANCH_SHA256) + len(NUMERIC_REPORT_SHA256)} "
            "numeric outputs match their sha256", dt)


def _binary(pair):
    man, exp = pair
    return F(man << exp) if exp >= 0 else F(man, 1 << -exp)


def _disks_overlap(got, ref):
    """perfbench's exact rule: two (re, im, err) binary disks intersect."""
    gre, gim, gerr = (_binary(p) for p in got)
    rre, rim, rerr = (_binary(p) for p in ref)
    return (gre - rre) ** 2 + (gim - rim) ** 2 <= (gerr + rerr) ** 2


def _raw_ball(ball):
    (re, im), err = ball.val._mpc_, ball.err._mpf_
    return [[(-1) ** s * m, e] for s, m, e, _bc in (re, im, err)]


def test_criterion_11c_exact_germs_stay_in_their_balls():
    """Germs over K: pinned reports with exact coefficients only, each of
    whose 256-bit embeddings lies in the ball the germ had before."""
    t0 = time.monotonic()
    with open(BALL_GERMS) as fh:
        balls = json.load(fh)
    assert list(balls) == list(EXACT_GERM_REPORT_SHA256)
    changed = []
    for text, want in EXACT_GERM_REPORT_SHA256.items():
        report, _code = analyze(text, Options(no_classify=True))
        rendered = render_json(report)
        if hashlib.sha256(rendered.encode()).hexdigest() != want:
            changed.append(text)
        assert report["series"] and all(
            "err" not in cj and "embedding" in s
            for s in report["series"] for cj in s["coeffs"])
        assert all(s["coeffs"][-1] == {"free": True}
                   for s in report["series"] if s["resonance"] == "free")
        eq, _polygon, branches, screen = _prepare(
            text, Options(no_classify=True), None)
        (bid, n), = screen.admissible_pairs()
        germs = enumerate_series(eq, next(b for b in branches if b.id == bid), n)
        assert len(germs) == len(balls[text])
        for ls, ref in zip(germs, balls[text]):
            if None in ref:         # the free resonant coefficient: the germ stops below it
                assert ref.index(None) == len(ls.coeffs) == 2 * ls.n + ls.k
                assert ls.resonance_status == "free"
                ref = ref[:-1]
            assert len(ls.coeffs) == len(ref)
            for c, r in zip(ls.coeffs, ref):
                if isinstance(r, str):              # exact before, exact now
                    assert c == parse_constant(r)
                else:
                    assert field_of(c) is not None, (text, c)
                    assert _disks_overlap(_raw_ball(c.to_ball()), r), (text, c)
    assert not changed, f"exact-germ reports differ from the pinned table: {changed}"
    dt = _elapsed_ok(t0, 30, "criterion 11c")
    _report(f"criterion 11c: {len(EXACT_GERM_REPORT_SHA256)} exact-germ reports pinned, "
            "every coefficient inside its former ball", dt)


# Long exact series, pinned as text: the exact Puiseux branches of the
# Weierstrass curve at depth 80, and the pinned germs (c = 1) of two k = 2
# equations with their verify orders.  Every coefficient is in Q(i), so the
# text is canonical; a faster series kernel leaves it alone.
LONG_SERIES_SHA256 = {
    ("branches", "p^2 - 4*q^3 + 4*q", 80):
        "19c3f4e180bba4f1c87c48709c04f740561ce1879a06fc3c98e74cc3f9458e75",
    ("germs", "y'' = 6*y^2", 96):
        "f1f069de73b3b195dabb423260b17395321514155bd49090fa35cba5f9d08552",
    ("germs", "y'' = 6*y^2 - 2", 64):
        "15243d87808c53943b5f144dd204ab762a2dffff43a1ad82bea8a9f416593035",
}


def _long_series_text(kind, text, size):
    lines = []
    if kind == "branches":
        P = parse_equation(f"P: {text} ; k=1").P
        for b in branches_at_infinity(P, size):
            lines.append(f"branch {b.id} m={b.m} kappa={b.kappa} "
                         f"unbounded={b.p_unbounded} valid_to={b.valid_q_to} depth={b.depth}")
            lines.extend(f"  {e} {as_gaussian(c)}" for e, c in b.terms)
        return "\n".join(lines)
    eq, _polygon, branches, screen = _prepare(text, Options(), size)
    bid, = [b for b, n in screen.admissible_pairs() if n == 2]
    branch = next(b for b in branches if b.id == bid)
    for ls in enumerate_series(eq, branch, 2, c=GaussianRational(1), N=size):
        lines.append(f"germ n={ls.n} N={ls.N} res={ls.resonance_status} c={ls.c} "
                     f"root={ls.root_choice} verify_order={verify_series(eq, ls)}")
        lines.extend(f"  {j} {as_gaussian(c)}" for j, c in enumerate(ls.coeffs))
    return "\n".join(lines)


def test_criterion_11d_long_exact_series_pinned():
    """Deep exact branches and long exact germs: each text has its pinned sha256."""
    t0 = time.monotonic()
    changed = []
    for key, want in LONG_SERIES_SHA256.items():
        digest = hashlib.sha256(_long_series_text(*key).encode()).hexdigest()
        if digest != want:
            changed.append(f"{key}: {digest}")
    assert not changed, "long exact series differ from the pinned table:\n" + "\n".join(changed)
    dt = _elapsed_ok(t0, 60, "criterion 11d")
    _report(f"criterion 11d: {len(LONG_SERIES_SHA256)} long exact series match their sha256",
            dt)

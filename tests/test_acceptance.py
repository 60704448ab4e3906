"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance and time budget is pinned here.  Oracles are independent
implementations (tests/oracle_series.py, tests/oracle_periods.py) that share
no code with the package.
"""

import hashlib
import json
import random
import time
from fractions import Fraction

from bbsolve.algebra import (DEFAULT_PREC, GaussianRational, UPoly, coeff_is_zero,
                             is_exact)
from bbsolve.classify import (detect_periods, match_exponential, match_monomial,
                              sweep_poles)
from bbsolve.cli import Options, analyze, render_json
from bbsolve.curve import (branches_at_infinity, exactness_check,
                           hermite_ostrogradsky, residue_at_infinity_resolved)
from bbsolve.eqparse import parse_equation
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
    assert [str(v) for v in m.a_values if is_exact(v)] == ["1"]
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
        for root in matches[0].roots:
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
        fi = None
        if eq.resolved is not None and eq.k % 2 == 0:
            ev = exactness_check(branches, resolved=eq.resolved)
            assert ev.exact
            fi = ev.s_rational
        events, probe = sweep_poles(eq, germs, budget=12, first_integral=fi)
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
    """50 random rational R: finite residues + residue at infinity == 0 exactly."""
    t0 = time.monotonic()
    rng = random.Random(1789)
    from bbsolve.algebra import roots_univariate
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
        _qp, _p1, _d1, P2, D2 = hermite_ostrogradsky(N, D)
        total = residue_at_infinity_resolved(N, D)
        if not P2.is_zero():
            D2p = D2.derivative()
            for alpha in roots_univariate(D2):
                assert is_exact(alpha), "split denominator must exactify"
                total = total + P2.eval(alpha) * D2p.eval(alpha).inverse()
        assert is_exact(total), f"residue sum not exact for N={N}, D={D}"
        total_g = GaussianRational._coerce(total)
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
    "y'' = 6*y^2": "c446136bd2d797453454bb3e93e74af1ffca4f65ad6bdd7ac1ae084f4f782026",
    "y'' = 6*y^2 - 2": "fa15ee9eda2a4f8d687aa7e9573280d6c0da8b26b11a5346b5b10bf0546af0a9",
    "P: p^2 - 4*q^3 + 4*q ; k=1":
        "84b92405c7a239afde3c1fcf127d95cf93f51c770656f05efceb3f4953563973",
    "y'' = y^4": "78e5cdac8d9f630f5771606dbd3fbdf375487e4911c63d1864fa6a4b29853907",
    "y'' = 4*y^3 + 1/y": "c9d07f4774ed5d40475bfafb03e900ee09261b8b311f7f0f729213c1515e67c2",
    "y''' = y": "4bfa9ede2b3974188e9e9c86f926f1029b2e3b5ad4eed13554ed1caa497e89fa",
    "y'' = y": "aef4b743e977c5a18c584e78d0f81cfdb6348e26f7d42312d44e7239c233bdba",
    "y' = y^2": "0ae2a09d81a7d13f19b128a0dcb46bf42d1f073005928124025ec61914d5d902",
    "y' = y^2 - 1": "100fb88d9e89f4255bc7b61705571d599650de135422b60e4f65dfc3821e71c4",
    "y'' = y^2": "c220c6ef72054b6dff36731310610735304c04b7fa88d7c561177623eedcb109",
    "P: p^2 - q^3 ; k=2": "1610b07032a43cc02635c4919bdd4da6f658f5b3a6bbbf6ed956916c6b65badd",
    "y' = 2*y^3": "64fca254f7f11b99ef8f588ff3dbe50f77a608fc9ecafe4b5c84926051fad5b9",
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

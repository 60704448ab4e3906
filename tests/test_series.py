"""The Laurent-germ engine: brackets, leading roots, recurrence, pinning."""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

from bbsolve import series
from bbsolve.algebra import (DEFAULT_PREC, GR_ONE, GR_ZERO, AlgebraicNumber,
                             BigComplex, GaussianRational, _exact_ball,
                             coeff_is_zero, dot, field_of, is_exact)
from bbsolve.cli import Options, _prepare, analyze
from bbsolve.curve import branches_at_infinity, first_integral_series
from bbsolve.eqparse import parse_equation
from bbsolve.errors import BBError, NoRoots
from bbsolve.series import (ZSeries, _build_series, bracket_phi,
                            conjugates, enumerate_series, germ_index, leading_roots,
                            pinning_coefficient, recurrence_bracket,
                            series_to_json, verify_orders, verify_series)

F = Fraction


def setup_eq(text, depth=16):
    eq = parse_equation(text)
    return eq, branches_at_infinity(eq.P, depth)


def rational_series(rng, n, length):
    coeffs = [GaussianRational(F(rng.randint(-9, 9), rng.randint(1, 6)))
              for _ in range(length)]
    if coeffs[0].is_zero():
        coeffs[0] = GaussianRational(1)
    return ZSeries(-n, coeffs)


class TestBracketPhi:
    def test_k2_single_term(self):
        y = ZSeries(-2, [GaussianRational(1)])      # y = z^-2
        phi = bracket_phi(2, y)
        assert phi.items() == [(-6, GaussianRational(2))]   # (1/2)(-2 z^-3)^2

    def test_k4_shape(self):
        # Phi_4 = y''' y' - (1/2)(y'')^2; check d/dz Phi = y'''' y'
        rng = random.Random(3)
        y = rational_series(rng, 2, 9)
        phi = bracket_phi(4, y)
        diff = phi.derivative() - y.derivative_n(4) * y.derivative()
        assert diff.first_noncertified_zero() is None

    def test_identity_random(self):
        rng = random.Random(5)
        for k in (2, 4, 6):
            for _ in range(4):
                y = rational_series(rng, rng.randint(1, 3), 8)
                lhs = bracket_phi(k, y).derivative()
                rhs = y.derivative_n(k) * y.derivative()
                assert (lhs - rhs).first_noncertified_zero() is None

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            bracket_phi(3, ZSeries(-1, [GaussianRational(1)]))


class TestRecurrenceBracket:
    def test_even_k_unique_zero(self):
        for k in (2, 4):
            for n in (1, 2, 3, 5):
                zeros = [j for j in range(0, 4 * n + 2 * k + 8)
                         if recurrence_bracket(k, n, j) == 0]
                assert zeros == [2 * n + k]

    def test_odd_k_never_zero(self):
        for k in (1, 3, 5):
            for n in (1, 2, 4):
                assert all(recurrence_bracket(k, n, j) != 0
                           for j in range(1, 4 * n + 2 * k + 8))

    def test_factorial_form_beyond_n_plus_k(self):
        # for j >= n+k the bracket equals (k+j')!/j'! - (n+k)!/n!, j' = j-n-k
        import math
        for k in (2, 4):
            for n in (1, 3):
                for jp in range(0, 8):
                    j = n + k + jp
                    want = (F(math.factorial(k + jp), math.factorial(jp))
                            - F(math.factorial(n + k), math.factorial(n)))
                    assert recurrence_bracket(k, n, j) == want


def leading_c0(k, n, branch):
    return [r ** branch.m for r in leading_roots(k, n, branch)]


class TestLeadingCoefficients:
    def test_worked_p_germ(self):
        eq, bs = setup_eq("y'' = 6*y^2")
        assert leading_c0(2, 2, bs[0]) == [GaussianRational(1)]

    def test_big_coefficient(self):
        eq, bs = setup_eq("y'' = y^2")
        assert leading_c0(2, 2, bs[0]) == [GaussianRational(6)]

    def test_irrational_pair(self):
        eq, bs = setup_eq("y'' = 4*y^3")
        vals = sorted((complex(x) for x in leading_c0(2, 1, bs[0])), key=lambda z: z.real)
        assert abs(vals[0] + 0.7071067811865476) < 1e-12
        assert abs(vals[1] - 0.7071067811865476) < 1e-12

    def test_ramification_gate(self):
        eq, bs = setup_eq("P: p^2 - q^3 ; k=2", depth=20)
        with pytest.raises(NoRoots):
            leading_c0(2, 3, bs[0])   # m=2 does not divide n=3


class TestPinning:
    def test_spot_values(self):
        assert pinning_coefficient(2, 2, 1) == GaussianRational(14)
        assert pinning_coefficient(2, 1, 1) == GaussianRational(5)

    def test_positive_for_unit_c0(self):
        for k in (2, 4, 6, 8):
            for n in range(1, 8):
                v = pinning_coefficient(k, n, 1)
                assert v.im == 0 and v.re > 0

    def test_zero_c0_rejected(self):
        with pytest.raises(ValueError):
            pinning_coefficient(2, 2, 0)


class TestEnumerate:
    def test_worked_germ_fixed_c(self):
        eq, bs = setup_eq("y'' = 6*y^2")
        out = enumerate_series(eq, bs[0], 2, c=GaussianRational(7), N=12)
        assert len(out) == 1
        ls = out[0]
        assert ls.coeffs[0] == GaussianRational(1)
        assert all(coeff_is_zero(c) for c in ls.coeffs[1:6])
        assert ls.coeffs[6] == GaussianRational(F(-1, 2))   # -c/14 at c=7
        assert ls.resonance_status == "pinned"

    def test_worked_germ_free(self):
        # without c the germ stops at index 2n + k - 1 = 5, below the
        # resonance, and only its JSON marks the free coefficient
        eq, bs = setup_eq("y'' = 6*y^2")
        out = enumerate_series(eq, bs[0], 2, c=None, N=12)
        ls = out[0]
        assert len(ls.coeffs) == 6 and ls.N == 6 and ls.c is None
        assert ls.resonance_status == "free"
        coeffs = series_to_json(ls)["coeffs"]
        assert len(coeffs) == 7 and coeffs[-1] == {"free": True}

    def test_weierstrass_germ_matches_reference(self):
        eq, bs = setup_eq("P: p^2 - 4*q^3 + 4*q ; k=1", depth=40)
        out = enumerate_series(eq, bs[0], 2, N=16)
        assert len(out) == 1
        got = {i - 2: c for i, c in enumerate(out[0].coeffs) if not coeff_is_zero(c)}
        # reference Laurent coefficients of the g2=4, g3=0 case
        assert got[-2] == GaussianRational(1)
        assert got[2] == GaussianRational(F(1, 5))
        assert got[6] == GaussianRational(F(1, 75))
        assert got[10] == GaussianRational(F(2, 4875))

    def test_even_k_same_function_as_curve_route(self):
        eq2, bs2 = setup_eq("y'' = 6*y^2 - 2", depth=24)
        out2 = enumerate_series(eq2, bs2[0], 2, c=0, N=16)
        eq1, bs1 = setup_eq("P: p^2 - 4*q^3 + 4*q ; k=1", depth=40)
        out1 = enumerate_series(eq1, bs1[0], 2, N=16)
        assert [str(c) for c in out2[0].coeffs] == [str(c) for c in out1[0].coeffs]

    def test_monomial_at_c_zero(self):
        eq, bs = setup_eq("y'' = 4*y^3")
        out = enumerate_series(eq, bs[0], 1, c=0, N=8)
        assert len(out) == 2
        for ls in out:
            assert all(coeff_is_zero(c) for c in ls.coeffs[1:])

    def test_finiteness_bound(self):
        # germ count <= (number of c0 roots) x (ramification choices)
        for text, n, depth in (("y'' = 6*y^2", 2, 16),
                               ("y'' = 4*y^3", 1, 16),
                               ("P: p^2 - 4*q^3 + 4*q ; k=1", 2, 40)):
            eq, bs = setup_eq(text, depth)
            out = enumerate_series(eq, bs[0], n, c=0 if eq.k % 2 == 0 else None,
                                   N=2 * n + eq.k + 4)
            g = bs[0].m * eq.k // n
            assert 1 <= len(out) <= g * bs[0].m

    def test_resonance_blocked_over_the_extension(self):
        # eta^2 = 1/2: the forced term is decided once, exactly, for both
        # roots, and each note names its own root
        eq, bs = setup_eq("y'' = 4*y^3 + 1/y", depth=16)
        notes = []
        out = enumerate_series(eq, bs[0], 1, c=GaussianRational(0), N=8,
                               collect_notes=notes)
        assert out == [] and len(notes) == 2
        assert all("forced term -2*eta is nonzero" in n for n in notes)
        assert "eta=-0.707106781187" in notes[0] and "eta=0.707106781187" in notes[1]

    def test_exact_lead_with_a_ball_tail(self):
        # p = q^4 +- sqrt(2) q^3: the lead is exact but the tail is balls, so
        # each root builds its own ball germ (a germ over K would be read at
        # one embedding only)
        eq, _polygon, bs, report = _prepare(
            "P: (p - q^4)^2 - 2*q^6 ; k=3", Options(), 6)
        for bid, n in report.admissible_pairs():
            branch = next(b for b in bs if b.id == bid)
            assert branch.lead == 1 and not branch.is_exact()
            germs = enumerate_series(eq, branch, n, N=6)
            assert len(germs) == 3
            assert not any(is_exact(x) or field_of(x) for ls in germs for x in ls.coeffs)
            roots = leading_roots(eq.k, n, branch)
            for ls in germs:
                own = _build_series(eq.k, n, branch, roots[ls.root_choice], ls.root_choice,
                                    None, 6)
                assert all(coeff_is_zero(x + y * -1) for x, y in zip(ls.coeffs, own.coeffs))
            for a, b in combinations(germs, 2):
                assert not coeff_is_zero(a.coeffs[2] + b.coeffs[2] * -1)
            orders = verify_orders(eq, germs)
            assert orders == [verify_series(eq, ls) for ls in germs]
            assert min(orders) >= 4

    def test_ball_constant_is_refused(self):
        # as Options refuses it: a germ over K is then always exact
        eq, bs = setup_eq("y'' = 4*y^3", depth=16)
        with pytest.raises(BBError, match="c must be None or an exact number"):
            enumerate_series(eq, bs[0], 1, c=_exact_ball(1, 0, DEFAULT_PREC), N=8)
        with pytest.raises(BBError, match="c must be None or an exact number"):
            Options(c=_exact_ball(1, 0, DEFAULT_PREC))

    def test_resonance_blocked_by_residue(self):
        # P is irreducible here but p dq carries residue: engine must reject
        eq, bs = setup_eq("P: q^2*p - q^5 - q ; k=2", depth=16)
        notes = []
        out = enumerate_series(eq, bs[0], 1, c=GaussianRational(0), N=10,
                               collect_notes=notes)
        assert out == [] and any("resonant" in n for n in notes)


class TestPinningConsistency:
    def test_constant_term_of_bracket_minus_s_equals_c(self):
        # for even k with c fixed: [z^0](Phi_k(y) - s(y)) == c and all
        # negative-power coefficients of Phi_k(y) - s(y) vanish
        for text, n, cval in (("y'' = 6*y^2", 2, F(7)),
                              ("y'' = 6*y^2 - 2", 2, F(-3, 2)),
                              ("y'' = y^2", 2, F(5, 3))):
            eq, bs = setup_eq(text, depth=24)
            c = GaussianRational(cval)
            ls, = enumerate_series(eq, bs[0], n, c=c, N=2 * n + eq.k + 6)
            y = ls.as_zseries()
            phi = bracket_phi(eq.k, y)
            # s(y) for polynomial R: termwise integral evaluated at y
            N_, D_ = eq.resolved
            assert D_.degree() == 0
            s_coeffs = N_.integrate()
            s_of_y = ZSeries(0, [])
            ypow = ZSeries(0, [GaussianRational(1)])
            for d in range(s_coeffs.degree() + 1):
                if d > 0:
                    ypow = ypow * y
                if not s_coeffs[d].is_zero():
                    s_of_y = s_of_y + ypow.scale(s_coeffs[d])
            diff = phi - s_of_y
            assert diff.coeff(0) == c
            for e in range(diff.start, 0):
                assert coeff_is_zero(diff.coeff(e)), (text, e, diff.coeff(e))


class TestVerify:
    def test_exact_solution(self):
        eq, bs = setup_eq("y'' = 6*y^2")
        ls, = enumerate_series(eq, bs[0], 2, c=GaussianRational(0), N=12)
        order = verify_series(eq, ls)
        assert order >= 13

    def test_pinned_germ(self):
        eq, bs = setup_eq("y'' = 6*y^2")
        ls, = enumerate_series(eq, bs[0], 2, c=GaussianRational(7), N=12)
        assert verify_series(eq, ls) >= 13

    def test_corruption_detected(self):
        eq, bs = setup_eq("y'' = 6*y^2")
        ls, = enumerate_series(eq, bs[0], 2, c=GaussianRational(7), N=12)
        bad = list(ls.coeffs)
        bad[4] = GaussianRational(F(1, 3))
        corrupted = replace(ls, coeffs=tuple(bad))
        assert (corrupted.N, corrupted.resonance_status) == (12, "pinned")
        assert verify_series(eq, corrupted) < verify_series(eq, ls)


class TestSerialization:
    def test_json_shapes(self):
        eq, bs = setup_eq("y'' = 6*y^2")
        free, = enumerate_series(eq, bs[0], 2, c=None, N=12)
        j = series_to_json(free)
        assert j["resonance"] == "free" and j["coeffs"][-1] == {"free": True}
        assert j["coeffs"][0] == {"rat": "1"}
        pinned, = enumerate_series(eq, bs[0], 2, c=GaussianRational(7), N=12)
        j2 = series_to_json(pinned)
        assert j2["resonance"] == "pinned" and j2["c"] == {"rat": "7"}
        # c0 = 2^(1/4) on a numeric branch (lead sqrt(2)): a ball
        eq3, _polygon, bs3, report = _prepare("P: p^2 - 2*q^6 ; k=2",
                                                              Options(), 8)
        bid, n = report.admissible_pairs()[0]
        ball, *_ = enumerate_series(eq3, next(b for b in bs3 if b.id == bid), n,
                                    c=GaussianRational(1), N=8)
        j3 = series_to_json(ball)
        assert set(j3["coeffs"][0]) == {"re", "im", "err"} and "embedding" not in j3
        # c0 = 1/sqrt(2) from an exact branch: eta with eta^2 = 1/2, exactly
        eq4, bs4 = setup_eq("y'' = 4*y^3")
        alg, *_ = enumerate_series(eq4, bs4[0], 1, c=0, N=8)
        j4 = series_to_json(alg)
        assert j4["coeffs"][0] == {"eta": ["0", "1"]}
        assert set(j4["embedding"]) == {"g", "beta", "root", "eta"}
        assert j4["embedding"]["beta"] == {"rat": "1/2"}
        assert set(j4["embedding"]["eta"]) == {"re", "im", "err"}


def _reference_germ(k, n, branch, eta0, c, N):
    """The binomial-sum germ loop, kept as an oracle: at every index j it
    rebuilds G = (1 + w)^(1/m) as a sum of truncated powers of w and every
    G^e with ZSeries.pow_int / inverse.  Exact germs only: the leading root
    eta0 is a GaussianRational, or eta of K at its root.  Returns the
    coefficient list, which stops below the resonant index when c is None."""
    m = branch.m

    def table(terms):
        return [(int(-n * x), int(m * x), A) for x, A in terms]

    def g_series(y, cap):
        inv0 = y.coeffs[0].inverse()
        w = ZSeries(0, [GR_ZERO] + [ci * inv0 for ci in y.coeffs[1:]]).truncate(cap)
        acc, wk, binom = ZSeries(0, [GR_ONE]), ZSeries(0, [GR_ONE]), F(1)
        for r in range(1, cap + 1):
            wk = wk.mul(w, cap=cap)
            if not wk.coeffs:
                break
            binom *= (F(1, m) - (r - 1)) / r
            acc = acc + wk.scale(GaussianRational(binom))
        return acc

    def coeff_of_powers(terms, G, cap, target):
        total, powers = GR_ZERO, {}
        for z_start, e, A in terms:
            if target - z_start < 0:
                continue
            if e not in powers:
                powers[e] = (G.pow_int(e, cap=cap) if e >= 0
                             else G.inverse(cap=cap).pow_int(-e, cap=cap))
            total = total + A * eta0 ** e * powers[e].coeff(target - z_start)
        return total

    pterms = table(branch.terms)
    coeffs = [eta0 ** branch.m]
    for j in range(1, N + 1):
        y = ZSeries(-n, coeffs)
        Ej = (y.derivative_n(k).coeff(j - n - k)
              - coeff_of_powers(pterms, g_series(y, j), j, j - n - k))
        bracket = recurrence_bracket(k, n, j)
        if bracket != 0:
            coeffs.append(-Ej * GaussianRational(1 / bracket))
            continue
        assert coeff_is_zero(Ej)
        if c is None:
            return coeffs
        phi0 = bracket_phi(k, y).coeff(0)
        s0 = coeff_of_powers(table(first_integral_series(branch)), g_series(y, j), j, 0)
        coeffs.append((phi0 - s0 - c) * pinning_coefficient(k, n, coeffs[0]).inverse())
    return coeffs


# the seven (equation, pole order) pairs of the golden corpus that have germs
CORPUS_GERMS = [("y'' = 6*y^2", 2), ("y'' = 6*y^2 - 2", 2),
                ("P: p^2 - 4*q^3 + 4*q ; k=1", 2), ("y' = y^2", 1),
                ("y' = y^2 - 1", 1), ("y'' = y^2", 2), ("P: p^2 - q^3 ; k=2", 4)]


def germ_case(text, n, N):
    """(equation, the branch feeding pole order n, deep enough for index N)."""
    eq, _polygon, branches, report = _prepare(text, Options(), N)
    bid, = [b for b, nn in report.admissible_pairs() if nn == n]
    return eq, next(b for b in branches if b.id == bid)


@pytest.mark.parametrize("c", [None, GaussianRational(1)])
@pytest.mark.parametrize("text, n", CORPUS_GERMS)
def test_germ_holds_numbers_only(text, n, c):
    # a free germ (even k, no c) stops at index 2n + k - 1 and its JSON adds
    # {"free": true} at 2n + k; any other germ runs through N = 24
    eq, branch = germ_case(text, n, 24)
    germs = enumerate_series(eq, branch, n, c=c, N=24)
    assert germs
    for ls in germs:
        assert all(isinstance(x, (GaussianRational, AlgebraicNumber, BigComplex))
                   for x in ls.coeffs)
        coeffs = series_to_json(ls)["coeffs"]
        if eq.k % 2 == 0 and c is None:
            assert len(ls.coeffs) == ls.N == 2 * n + eq.k
            assert ls.resonance_status == "free" and ls.c is None
            assert coeffs[-1] == {"free": True} and len(coeffs) == 2 * n + eq.k + 1
        else:
            assert len(ls.coeffs) == 25 and ls.N == 24
            assert ls.resonance_status == ("none" if eq.k % 2 else "pinned")
            assert {"free": True} not in coeffs and len(coeffs) == 25


class TestMillerRecurrence:
    """The one-coefficient-per-index engine equals the binomial-sum oracle."""

    def check(self, eq, branch, n, c, N):
        got = enumerate_series(eq, branch, n, c=c, N=N)
        roots = leading_roots(eq.k, n, branch)
        assert got
        for ls in got:
            want = _reference_germ(eq.k, n, branch, roots[ls.root_choice], c, N)
            assert list(ls.coeffs) == want
        return got

    @pytest.mark.parametrize("text, n", CORPUS_GERMS)
    def test_corpus_germs(self, text, n):
        eq, branch = germ_case(text, n, 24)
        self.check(eq, branch, n, None, 24)
        if eq.k % 2 == 0:
            self.check(eq, branch, n, GaussianRational(1), 24)

    def test_weierstrass_germ_n48(self):
        eq, branch = germ_case("P: p^2 - 4*q^3 + 4*q ; k=1", 2, 48)
        assert branch.m == 2
        ls, = self.check(eq, branch, 2, None, 48)
        assert len(ls.coeffs) == 49 and not coeff_is_zero(ls.coeffs[48])

    @pytest.mark.parametrize("c", [GaussianRational(0), GaussianRational(1), None])
    def test_pinned_and_free(self, c):
        eq, bs = setup_eq("y'' = 6*y^2", depth=24)
        self.check(eq, bs[0], 2, c, 16)

    @pytest.mark.parametrize("text, c", [
        ("y''' = -1*y^4 + 1*y^3 + -1*y^2", None),
        # pinned through the resonance, which inverts in K
        ("y'' = -1*y^3 + 5*y^1 + 9", GaussianRational(1))])
    def test_germs_over_the_extension(self, text, c):
        eq, bs = setup_eq(text)
        got = self.check(eq, bs[0], 1, c, germ_index(eq.k, 1))
        assert len(got) == field_of(got[0].coeffs[0]).g >= 2
        assert all(field_of(x) is not None or is_exact(x)
                   for ls in got for x in ls.coeffs)
        assert got[0].resonance_status == ("none" if c is None else "pinned")
        # conjugate germs: the same coordinates, each at its own root
        first = got[0]
        for ls in got[1:]:
            assert replace(ls, root_choice=first.root_choice) != first
            assert conjugates(ls, first)
            assert field_of(ls.coeffs[0]) != field_of(first.coeffs[0])
            assert field_of(ls.coeffs[0]).same_field(field_of(first.coeffs[0]))
        assert sorted(ls.root_choice for ls in got) == list(range(len(got)))

    def test_work_scales_quadratically(self, monkeypatch):
        # doubling N costs well under 8x the multiplications (one per term
        # of a fused sum, or per lone product), and no truncated power or
        # inverse series is built
        eq, branch = germ_case("P: p^2 - 4*q^3 + 4*q ; k=1", 2, 48)
        calls = {"mul": 0, "pow_int": 0, "inverse": 0}

        def counting(name, fn):
            def wrapped(*a, **kw):
                calls[name] += 1
                return fn(*a, **kw)
            return wrapped

        def counting_dot(xs, ys, *a, **kw):
            calls["mul"] += len(xs)
            return dot(xs, ys, *a, **kw)

        monkeypatch.setattr(GaussianRational, "__mul__",
                            counting("mul", GaussianRational.__mul__))
        monkeypatch.setattr(series, "dot", counting_dot)
        monkeypatch.setattr(ZSeries, "pow_int", counting("pow_int", ZSeries.pow_int))
        monkeypatch.setattr(ZSeries, "inverse", counting("inverse", ZSeries.inverse))
        work = []
        for N in (24, 48):
            calls["mul"] = 0
            enumerate_series(eq, branch, 2, N=N)
            work.append(calls["mul"])
        assert calls["pow_int"] == 0 and calls["inverse"] == 0
        assert work[1] <= 8 * work[0], work


# c0 outside Q(i), where x^g - beta is irreducible: germs over K
NUMERIC_GERMS = [
    ("y''' = -1*y^4 + 1*y^3 + -1*y^2", None, None, 10),
    ("y'''' = 6*y^3 + 1/y^2", GaussianRational(1), 16, 17),
    ("y'' = 3*y^3", GaussianRational(1), 16, 17),
]
# c0 outside Q(i) where x^g - beta is reducible (x^3 - 1, x^4 - 4): 256-bit balls
BALL_GERMS = [
    ("y''' = -6*y^4 + 9/5*y^2", None, None, 10),
    ("y'''' = 6*y^5", GaussianRational(1), 16, 17),
]


def numeric_germs(text, c, N):
    """(equation, the germs of its one admissible pair) at constant c."""
    eq, _polygon, branches, report = _prepare(text, Options(), N)
    (bid, n), = report.admissible_pairs()
    branch, = [b for b in branches if b.id == bid]
    return eq, enumerate_series(eq, branch, n, c=c, N=N)


class TestNumericGermAccuracy:
    """Germs whose c0 lies outside Q(i) vanish through the whole verify
    window: exactly over K, and as 256-bit balls with no coefficient passing
    through a 53-bit rounding."""

    @pytest.mark.parametrize("text, c, N, want", NUMERIC_GERMS)
    def test_full_verify_order(self, text, c, N, want):
        eq, germs = numeric_germs(text, c, N)
        assert germs and not any(is_exact(ls.coeffs[0]) for ls in germs)
        assert all(field_of(ls.coeffs[0]) is not None for ls in germs)
        assert [verify_series(eq, ls) for ls in germs] == [want] * len(germs)

    @pytest.mark.parametrize("text, c, N, want", BALL_GERMS)
    def test_full_verify_order_of_balls(self, text, c, N, want):
        eq, germs = numeric_germs(text, c, N)
        balls = [ls for ls in germs
                 if not is_exact(ls.coeffs[0]) and field_of(ls.coeffs[0]) is None]
        assert len(balls) >= 2
        assert [verify_series(eq, ls) for ls in balls] == [want] * len(balls)

    def test_resonance_check_is_certified(self):
        # the forced term at the resonant index is zero to 256 bits, so both
        # numeric leading roots keep their germ instead of failing the check
        eq, bs = setup_eq("y'' = -1*y^3 + 5*y^1 + 9")
        notes = []
        germs = enumerate_series(eq, bs[0], 1, c=None, collect_notes=notes)
        assert notes == [] and len(germs) == 2
        assert all(ls.resonance_status == "free" for ls in germs)


def _reference_verify(eq, ls):
    """The per-term back-substitution, kept as an oracle: every term of P
    rebuilds its powers of y and y^(k) with ZSeries.pow_int.  A free germ
    stops below the resonant index, and the series ends where it does."""
    if ls.resonance_status == "free":
        assert len(ls.coeffs) == 2 * ls.n + ls.k
    y = ZSeries(-ls.n, ls.coeffs, valid_to=-ls.n + len(ls.coeffs) - 1)
    p_ser = y.derivative_n(eq.k)
    e_min = min(i * (-ls.n - eq.k) + j * (-ls.n) for (i, j) in eq.P.terms)
    acc = ZSeries.zero()
    for (i, j), a in sorted(eq.P.terms.items()):
        acc = acc + p_ser.pow_int(i).mul(y.pow_int(j)).scale(a)
    bad = acc.first_noncertified_zero()
    return int(acc.valid_to - e_min + 1) if bad is None else int(bad - e_min)


class TestVerifyLadders:
    """verify_series reads shared power ladders and agrees with the
    per-term pow_int oracle."""

    def agree(self, eq, germs):
        assert germs
        orders = [verify_series(eq, ls) for ls in germs]
        assert orders == [_reference_verify(eq, ls) for ls in germs]
        return orders

    @pytest.mark.parametrize("text, n", CORPUS_GERMS)
    def test_corpus_germs(self, text, n):
        eq, branch = germ_case(text, n, 24)
        self.agree(eq, enumerate_series(eq, branch, n, c=None, N=24))
        if eq.k % 2 == 0:
            self.agree(eq, enumerate_series(eq, branch, n, c=GaussianRational(1), N=24))

    @pytest.mark.parametrize("text, c, N, want", NUMERIC_GERMS + BALL_GERMS)
    def test_numeric_germs(self, text, c, N, want):
        assert self.agree(*numeric_germs(text, c, N))[0] == want

    def test_free_parameter_germs(self):
        # numeric leading roots, resonant coefficient left free
        eq, bs = setup_eq("y'' = -1*y^3 + 5*y^1 + 9")
        germs = enumerate_series(eq, bs[0], 1, c=None)
        assert all(ls.resonance_status == "free" and len(ls.coeffs) == 2 * ls.n + ls.k
                   for ls in germs)
        self.agree(eq, germs)

    def corrupt(self, case, j):
        eq, (good, *rest) = numeric_germs(*case[:3])
        coeffs = list(good.coeffs)
        assert not coeff_is_zero(coeffs[j])
        coeffs[j] = coeffs[j] * GaussianRational(F(3, 2))
        bad = replace(good, coeffs=tuple(coeffs))
        assert self.agree(eq, [bad]) < self.agree(eq, [good])
        return eq, [good, *rest], bad

    def test_corrupted_numeric_germ(self):
        eq, germs, bad = self.corrupt(NUMERIC_GERMS[0], 3)
        # a corrupted germ over K shares no back-substitution with its conjugates
        orders = verify_orders(eq, germs + [bad])
        assert orders == [verify_series(eq, ls) for ls in germs + [bad]]
        assert orders[-1] < orders[0]

    def test_corrupted_ball_germ(self):
        self.corrupt(BALL_GERMS[0], 2)

    def test_work_is_one_ladder_per_base(self, monkeypatch):
        # no power is rebuilt: (deg_p P - 1) + (deg_q P - 1) ladder rungs,
        # plus one product per term of P with both exponents positive
        eq, branch = germ_case("P: p^2 - 4*q^3 + 4*q ; k=1", 2, 24)
        cases = [numeric_germs(*NUMERIC_GERMS[0][:3]), numeric_germs(*BALL_GERMS[0][:3]),
                 (eq, enumerate_series(eq, branch, 2, N=24))]
        calls = {"mul": 0, "pow_int": 0}

        def counting(name, fn):
            def wrapped(*a, **kw):
                calls[name] += 1
                return fn(*a, **kw)
            return wrapped

        monkeypatch.setattr(ZSeries, "mul", counting("mul", ZSeries.mul))
        monkeypatch.setattr(ZSeries, "pow_int", counting("pow_int", ZSeries.pow_int))
        for eq, germs in cases:
            mixed = sum(1 for i, j in eq.P.terms if i and j)
            for ls in germs:
                calls["mul"] = 0
                verify_series(eq, ls)
                assert calls["pow_int"] == 0
                assert calls["mul"] <= (eq.P.deg_p() - 1) + (eq.P.deg_q() - 1) + mixed

    def test_each_exact_operand_becomes_a_ball_once(self, monkeypatch):
        converted, inside = [], [False]
        from_exact, to_mpc = BigComplex.from_exact, GaussianRational.to_mpc

        def counting_from_exact(x, prec=DEFAULT_PREC):
            inside[0] = True
            try:
                return from_exact(x, prec)
            finally:
                inside[0] = False

        def counting_to_mpc(self, prec=DEFAULT_PREC):
            if inside[0]:
                converted.append((self, prec))
            return to_mpc(self, prec)

        monkeypatch.setattr(BigComplex, "from_exact", staticmethod(counting_from_exact))
        monkeypatch.setattr(GaussianRational, "to_mpc", counting_to_mpc)
        _exact_ball.cache_clear()
        # c0 = e^(+-2 pi i/3): x^3 - 1 is reducible, so these germs are balls
        analyze(BALL_GERMS[0][0], Options(no_classify=True))
        assert converted and len(converted) == len(set(converted))

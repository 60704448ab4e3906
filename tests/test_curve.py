"""Newton polygon, Puiseux branches, residues, exactness."""

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from bbsolve.algebra import (GR_ZERO, GaussianRational, UPoly, ZSeries,
                             coeff_is_zero, is_exact)
from bbsolve.curve import (branches_at_infinity, exactness_check,
                           first_integral_series, laurent_at_infinity,
                           newton_polygon, residue_pdq)
from bbsolve.cli import Options, _prepare
from bbsolve.eqparse import parse_equation
from bbsolve.errors import DegenerateInput, InsufficientDepth

F = Fraction


def branch_backsubstitution_order(P, branch):
    """Largest t-exponent bound (t = 1/q) through which P(p(u), u^-m) visibly
    vanishes; p is expanded in u = t^(1/m)."""
    m = branch.m
    by_u = {int(-m * e): c for e, c in branch.terms}    # q^e sits at u^(-m e)
    start = min(by_u)
    pser = ZSeries(start, [by_u.get(start + i, GR_ZERO)
                           for i in range(max(by_u) - start + 1)],
                   int(-m * branch.valid_q_to))
    acc = None
    for (i, j), a in sorted(P.terms.items()):
        term = pser.pow_int(i).scale(a, -m * j)
        acc = term if acc is None else acc + term
    # ZSeries keeps coefficients past valid_to; only those up to it count
    bad = [e for e, c in acc.items() if e <= acc.valid_to and not coeff_is_zero(c)]
    return F(acc.valid_to if not bad else min(bad), m)


class TestNewtonPolygon:
    def test_single_edge_kappa_two(self):
        P = parse_equation("y'' = 6*y^2").P
        assert [e.kappa for e in newton_polygon(P).upper_edges] == [F(2)]

    def test_weierstrass_kappa(self):
        P = parse_equation("P: p^2 - 4*q^3 + 4*q ; k=1").P
        assert [e.kappa for e in newton_polygon(P).upper_edges] == [F(3, 2)]

    def test_linear_balance(self):
        P = parse_equation("y''' = y").P
        assert [e.kappa for e in newton_polygon(P).upper_edges] == [F(1)]

    def test_slopes_strictly_decreasing(self):
        # two-edge polygon: p^3 + p q^2 + q^3 has edges of different slope
        P = parse_equation("P: p^3 + p*q^2 + q^3 ; k=1").P
        edges = newton_polygon(P).upper_edges
        slopes = [e.slope for e in edges]
        assert slopes == sorted(slopes, reverse=True)
        assert len({e.kappa for e in edges}) == len(edges)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateInput):
            newton_polygon(parse_equation("y'' = 5").P)


class TestBranches:
    def test_resolved_polynomial(self):
        eq = parse_equation("y'' = 6*y^2")
        b, = branches_at_infinity(eq.P, depth=8)
        assert (b.m, b.kappa) == (1, F(2))
        assert b.lead == GaussianRational(6)
        assert [(e, str(c)) for e, c in b.terms] == [(F(2), "6")]

    def test_weierstrass_ramified(self):
        eq = parse_equation("P: p^2 - 4*q^3 + 4*q ; k=1")
        b, = branches_at_infinity(eq.P, depth=80)
        assert b.m == 2 and b.kappa == F(3, 2)
        # p = -2 q^(3/2) (1 - q^-2)^(1/2), one sign representative stored:
        # the binomial series puts -2 C(1/2, k) (-1)^k at q^(3/2 - 2k)
        want = {}
        binom = F(1)
        for k in range(21):
            want[F(3, 2) - 2 * k] = -2 * binom * (-1) ** k
            binom = binom * (F(1, 2) - k) / (k + 1)
        assert dict(b.terms) == want
        assert list(want.values())[:4] == [-2, 1, F(1, 4), F(1, 8)]
        assert b.valid_q_to == F(-77, 2)

    def test_rational_rhs_keeps_negative_exponents(self):
        eq = parse_equation("y''' = y^3 + 1/y")
        b, = branches_at_infinity(eq.P, depth=10)
        assert b.kappa == F(3)
        # q^-1 from the right-hand side must be retained in the expansion
        assert b.coeff_at_qexp(-1) == GaussianRational(1)

    def test_kappa_matches_polygon_edges(self):
        for text in ("y'' = 6*y^2", "P: p^2 - 4*q^3 + 4*q ; k=1",
                     "P: p^3 + p*q^2 + q^3 ; k=1", "y'' = y^3 + 1/y",
                     "P: p^2*q - p - q ; k=1"):
            eq = parse_equation(text)
            np_ = newton_polygon(eq.P)
            edge_multiset = []
            for e in np_.upper_edges:
                edge_multiset += [e.kappa] * (e.i2 - e.i1)
            # branches over q=inf where p is unbounded or nonzero-bounded
            branches = branches_at_infinity(eq.P, depth=6)
            branch_multiset = []
            for b in branches:
                branch_multiset += [b.kappa] * b.m
            # polygon edges cover exactly the p-unbounded + p-finite places
            assert sorted(branch_multiset) == sorted(
                edge_multiset + [F(0)] * (len(branch_multiset) - len(edge_multiset)))

    def test_nested_newton_puiseux(self):
        # (p - q)^m = q: the edge root has multiplicity m, so the expansion
        # recurses once and composes a tail of ramification m
        for text, m in (("P: p^2 - 2*p*q + q^2 - q ; k=1", 2),
                        ("P: p^3 - 3*p^2*q + 3*p*q^2 - q^3 - q ; k=1", 3)):
            b, = branches_at_infinity(parse_equation(text).P, depth=12)
            assert (b.m, b.kappa) == (m, F(1))
            assert b.terms == ((F(1), GaussianRational(1)),
                               (F(1, m), GaussianRational(1)))

    def test_backsubstitution_vanishes(self):
        for text, depth in (("P: p^2 - 4*q^3 + 4*q ; k=1", 14),
                            ("y'' = y^3 + 1/y", 10),
                            ("P: p^3 + p*q^2 + q^3 ; k=1", 10),
                            ("P: p^2 - 2*p*q + q^2 - q ; k=1", 12),
                            ("P: p^3 - 3*p^2*q + 3*p*q^2 - q^3 - q ; k=1", 12)):
            eq = parse_equation(text)
            for b in branches_at_infinity(eq.P, depth=depth):
                order = branch_backsubstitution_order(eq.P, b)
                # vanishing must hold through an order growing with depth
                assert order >= depth / (2 * b.m) - 2

    def test_exact_finite_place_kept(self):
        # (p - 1)(p - q): p = 1 is a branch on which the expansion terminates
        eq = parse_equation("P: p^2 - p*q - p + q ; k=1")
        bs = branches_at_infinity(eq.P, depth=6)
        assert sorted((b.kappa, b.terms) for b in bs) == [
            (F(0), ((F(0), GaussianRational(1)),)),
            (F(1), ((F(1), GaussianRational(1)),))]

    def test_branch_count_matches_deg_p(self):
        eq = parse_equation("P: p^2*q - p - q ; k=1")
        bs = branches_at_infinity(eq.P, depth=6)
        assert sum(b.m for b in bs) == eq.P.deg_p()
        assert all(not b.p_unbounded for b in bs)


class TestResidues:
    def test_polynomial_rhs_zero(self):
        eq = parse_equation("y'' = 6*y^2")
        b, = branches_at_infinity(eq.P, depth=8)
        assert coeff_is_zero(residue_pdq(b))

    def test_inverse_q_term(self):
        eq = parse_equation("y'' = 4*y^3 + 1/y")
        b, = branches_at_infinity(eq.P, depth=8)
        r = residue_pdq(b)
        assert r == GaussianRational(-1)

    def test_weierstrass_zero(self):
        eq = parse_equation("P: p^2 - 4*q^3 + 4*q ; k=1")
        b, = branches_at_infinity(eq.P, depth=12)
        assert coeff_is_zero(residue_pdq(b))

    def test_insufficient_depth(self):
        eq = parse_equation("y'' = 6*y^2")
        b, = branches_at_infinity(eq.P, depth=8)
        shallow = dataclasses.replace(b, valid_q_to=F(1), depth=1)
        with pytest.raises(InsufficientDepth):
            residue_pdq(shallow)


def resolved_check(eq):
    """The resolved-mode exactness verdict, its infinity row from the branch."""
    return exactness_check(branches_at_infinity(eq.P, 12), resolved=eq.resolved)


class TestExactness:
    def test_polynomial_antiderivative(self):
        eq = parse_equation("y'' = 6*y^2")
        ev = resolved_check(eq)
        assert ev.exact and ev.s_string() == "2*q^3"

    def test_simple_poles_block_exactness(self):
        eq = parse_equation("y'' = 4*y^3 + 1/y")
        ev = resolved_check(eq)
        assert not ev.exact
        by_place = {r.place: r for r in ev.residues}
        assert by_place["q=0"].value == GaussianRational(1)
        assert by_place["infinity"].value == GaussianRational(-1)

    def test_constant_plus_square(self):
        eq = parse_equation("y'' = 3*y^2 + 5")
        ev = resolved_check(eq)
        assert ev.exact and ev.s_string() == "q^3 + 5*q"

    def test_double_pole_exact(self):
        # residue of q^-2 vanishes: s exists despite the finite pole
        eq = parse_equation("y'' = y^3 + 1/y^2")
        ev = resolved_check(eq)
        assert ev.exact
        assert ev.s_string() == "(1/4*q^5 - 1)/(q)"

    def test_s_differentiates_back_to_R(self):
        # d/dq s == N/D exactly whenever the verdict is exact
        for text in ("y'' = 6*y^2", "y'' = 3*y^2 + 5", "y'' = y^3 + 1/y^2"):
            eq = parse_equation(text)
            N, D = eq.resolved
            ev = resolved_check(eq)
            assert ev.exact
            sN, sD = ev.s_rational
            dn = sN.derivative() * sD - sN * sD.derivative()
            dd = sD * sD
            assert (dn * D - N * dd).is_zero()

    def test_general_mode_caveat(self):
        eq = parse_equation("P: p^2 - 4*q^3 + 4*q ; k=1")
        bs = branches_at_infinity(eq.P, depth=12)
        ev = exactness_check(bs)
        assert ev.exact and ev.mode == "general"
        assert any("genus-0" in n for n in ev.notes)

    def test_residue_rows_sum_to_zero(self):
        eq = parse_equation("y'' = (y^2 + 1/2)/(y^2 - 1) ")
        total = GaussianRational(0)
        for row in resolved_check(eq).residues:
            assert is_exact(row.value)
            total = total + row.value
        assert total == GaussianRational(0)


class TestLaurentAtInfinity:
    def test_reaches_down_to(self):
        # N/D = -5 q^5 + 3/q has deg N > 2 deg D + 1: still valid through q^-2
        N, D = UPoly([3, 0, 0, 0, 0, 0, -5]), UPoly([0, 1])
        ser = laurent_at_infinity(N, D, -2)
        assert ser.valid_to >= 2
        assert ser.coeff(-5) == GaussianRational(-5)
        assert ser.coeff(1) == GaussianRational(3) and ser.coeff(2) == GR_ZERO


class TestClosePlaces:
    def test_places_closer_than_the_root_disks(self):
        # the places over q = infinity sit at p = +-sqrt(2) and
        # +-sqrt(2 + 2^-200): four unramified places, not two with m = 2
        eq = parse_equation(f"P: q*(p^2 - 2)*(p^2 - 2 - 1/{2 ** 200}) + 1 ; k=1")
        bs = branches_at_infinity(eq.P, depth=12)
        assert [b.m for b in bs] == [1, 1, 1, 1]
        want = 2.0 ** 200 / (2 * math.sqrt(2))     # 1/(2 sqrt(2) 2^-200)
        got = sorted(complex(residue_pdq(b)).real for b in bs)
        assert got == pytest.approx([-want, -want, want, want], rel=1e-12)


fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


@st.composite
def sugar_equations(draw):
    """y^(k) = poly(y) + a/y^j, deg poly <= 6, j <= 2, a != 0."""
    k = draw(st.integers(1, 4))
    poly = draw(st.lists(fractions, min_size=1, max_size=7))
    terms = [f"({c})*y^{d}" if d else f"({c})" for d, c in enumerate(poly) if c]
    a = draw(fractions.filter(bool))
    terms.append(f"({a})/y^{draw(st.integers(1, 2))}")
    return f"y^({k}) = " + " + ".join(terms)


class TestResidueTheorem:
    """The residue at infinity, read from the branch, cancels the finite
    residues from the Ostrogradsky decomposition; the resolved form's
    infinity row is the branch's residue."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(sugar_equations())
    @example("y' = 1*y^5 + 3*y^3 + 5*y^2 + 7/3*y^1 + -7/y^1")
    @example("y' = 8*y^5 + 1 + -3/4/y^1")
    @example("y' = 9*y^4 + -5*y^3 + -9*y^2 + 8/5/y^1")
    @example("y'' = 9/4*y^5 + -2*y^4 + 2 + -2/y^1")
    @example("y''' = (-6 + 8*i)*y^5 + -2*y^4 + 2*y^3 + 1 + -6/y^1")
    @example("y''' = -5*y^5 + 3/y^1")
    @example("y'''' = -6*y^5 + -4/5*y^3 + (7/5 + 5*i)*y^2 + 3/y^1")
    @example("y'''' = 2*y^4 + 2/3*y^3 + -9/y^1")
    @example("y' = (2*y^3 - y + 5)/((y - 1)*(y + 2)*(y - 3))")   # three finite places
    def test_rows_sum_to_zero(self, text):
        eq, _polygon, branches, _report = _prepare(text, Options())
        ev = exactness_check(branches, resolved=eq.resolved)
        total = GaussianRational(0)
        for row in ev.residues:
            total = total + row.value
        assert coeff_is_zero(total), (text, ev.residues)
        infinity, = [row.value for row in ev.residues if row.place == "infinity"]
        assert infinity == residue_pdq(branches[0])


class TestFirstIntegralSeries:
    def test_termwise_integral(self):
        eq = parse_equation("y'' = 6*y^2")
        b, = branches_at_infinity(eq.P, depth=8)
        s = first_integral_series(b)
        assert [(e, str(c)) for e, c in s] == [(F(3), "2")]

    def test_blocked_by_residue(self):
        eq = parse_equation("y'' = 4*y^3 + 1/y")
        b, = branches_at_infinity(eq.P, depth=8)
        with pytest.raises(InsufficientDepth):
            first_integral_series(b)

"""Newton polygon, Puiseux branches, residues, exactness."""

from fractions import Fraction

import pytest

from bbsolve.algebra import (GR_ZERO, GaussianRational, ZSeries, coeff_is_zero,
                             is_exact)
from bbsolve.curve import (branches_at_infinity, exactness_check,
                           first_integral_series, hermite_ostrogradsky,
                           newton_polygon, residue_at_infinity_resolved,
                           residue_pdq)
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
        np_ = newton_polygon(P)
        assert np_.kappa_candidates() == [F(2)]

    def test_weierstrass_kappa(self):
        P = parse_equation("P: p^2 - 4*q^3 + 4*q ; k=1").P
        assert newton_polygon(P).kappa_candidates() == [F(3, 2)]

    def test_linear_balance(self):
        P = parse_equation("y''' = y").P
        assert newton_polygon(P).kappa_candidates() == [F(1)]

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
                edge_multiset += [e.kappa] * e.width()
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
        shallow = type(b)(id=b.id, m=b.m, kappa=b.kappa, lead=b.lead,
                          terms=b.terms, p_unbounded=b.p_unbounded,
                          valid_q_to=F(1), depth=1)
        with pytest.raises(InsufficientDepth):
            residue_pdq(shallow)


class TestExactness:
    def test_polynomial_antiderivative(self):
        eq = parse_equation("y'' = 6*y^2")
        ev = exactness_check(None, resolved=eq.resolved)
        assert ev.exact and ev.s_string() == "2*q^3"

    def test_simple_poles_block_exactness(self):
        eq = parse_equation("y'' = 4*y^3 + 1/y")
        ev = exactness_check(None, resolved=eq.resolved)
        assert not ev.exact
        by_place = {r.place: r for r in ev.residues}
        assert by_place["q=0"].value == GaussianRational(1)
        assert by_place["infinity"].value == GaussianRational(-1)

    def test_constant_plus_square(self):
        eq = parse_equation("y'' = 3*y^2 + 5")
        ev = exactness_check(None, resolved=eq.resolved)
        assert ev.exact and ev.s_string() == "q^3 + 5*q"

    def test_double_pole_exact(self):
        # residue of q^-2 vanishes: s exists despite the finite pole
        eq = parse_equation("y'' = y^3 + 1/y^2")
        ev = exactness_check(None, resolved=eq.resolved)
        assert ev.exact
        assert ev.s_string() == "(1/4*q^5 - 1)/(q)"

    def test_s_differentiates_back_to_R(self):
        # d/dq s == N/D exactly whenever the verdict is exact
        for text in ("y'' = 6*y^2", "y'' = 3*y^2 + 5", "y'' = y^3 + 1/y^2"):
            eq = parse_equation(text)
            N, D = eq.resolved
            ev = exactness_check(None, resolved=eq.resolved)
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
        N, D = eq.resolved
        _qp, _p1, _d1, P2, D2 = hermite_ostrogradsky(N, D)
        from bbsolve.algebra import roots_univariate
        total = residue_at_infinity_resolved(N, D)
        for alpha in roots_univariate(D2):
            assert is_exact(alpha)
            total = total + P2.eval(alpha) * D2.derivative().eval(alpha).inverse()
        assert total == GaussianRational(0)


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

"""Admissibility screening, residue obstruction, degree bound."""

from fractions import Fraction

from bbsolve.conditions import (attach_degree_bound, screen_admissibility,
                                classify_kappa, degree_bound, residue_screen)
from bbsolve.curve import branches_at_infinity, exactness_check
from bbsolve.eqparse import parse_equation
from bbsolve.series import germs_for_pairs

F = Fraction


def report_for(text, depth=10):
    eq = parse_equation(text)
    branches = branches_at_infinity(eq.P, depth)
    lead_const = eq.P.coeff_in_p(eq.P.deg_p()).degree() == 0
    return eq, branches, screen_admissibility(eq.k, branches,
                                         leading_p_coeff_constant=lead_const)


class TestKappaArithmetic:
    def test_admissible(self):
        assert classify_kappa(2, F(2)) == ("kappa_one_plus_k_over_n", 2)
        assert classify_kappa(1, F(3, 2)) == ("kappa_one_plus_k_over_n", 2)
        assert classify_kappa(2, F(3)) == ("kappa_one_plus_k_over_n", 1)

    def test_inadmissible(self):
        label, n = classify_kappa(2, F(4))   # n = 2/3
        assert label == "inadmissible" and n is None
        assert classify_kappa(2, F(1, 2))[0] == "inadmissible"
        assert classify_kappa(2, F(0))[0] == "inadmissible"

    def test_kappa_one(self):
        assert classify_kappa(5, F(1)) == ("kappa_one", None)

    def test_exactness_of_product(self):
        # class = 1 + k/n  iff  kappa * n = n + k exactly
        for k in range(1, 8):
            for n in range(1, 10):
                kappa = 1 + F(k, n)
                label, got = classify_kappa(k, kappa)
                assert label == "kappa_one_plus_k_over_n"
                assert kappa * got == got + k


class TestTheoremScreen:
    def test_pole_order_two(self):
        _eq, _bs, rep = report_for("y'' = 6*y^2")
        assert rep.admissible_n == (2,)
        assert rep.pole_solutions_possible
        assert rep.exactness_required

    def test_quartic_inadmissible(self):
        _eq, _bs, rep = report_for("y'' = y^4")
        assert not rep.pole_solutions_possible
        assert rep.admissible_n == ()
        assert any("neither 1 nor" in n for n in rep.notes)

    def test_weierstrass_half_integer(self):
        _eq, _bs, rep = report_for("P: p^2 - 4*q^3 + 4*q ; k=1")
        assert rep.admissible_n == (2,)

    def test_kappa_one_only_is_entire(self):
        _eq, _bs, rep = report_for("y''' = y")
        assert rep.kappa_one_count == 1
        assert not rep.pole_solutions_possible

    def test_integrality_screen(self):
        _eq, _bs, rep = report_for("y'' = y^3 + 1/y^2")
        assert not rep.integrality_ok
        assert not rep.pole_solutions_possible

    def test_order_independence_and_monotonicity(self):
        eq, branches, rep = report_for("P: p^3 + p*q^2 + q^3 ; k=1")
        rev = screen_admissibility(eq.k, list(reversed(branches)),
                              leading_p_coeff_constant=True)
        assert rep.pole_solutions_possible == rev.pole_solutions_possible
        assert sorted(rep.admissible_n) == sorted(rev.admissible_n)
        # appending an inadmissible branch can only turn the verdict off
        bad_eq, bad_branches, _ = report_for("y'' = y^4")
        both = list(branches) + list(bad_branches)
        combined = screen_admissibility(eq.k, both, leading_p_coeff_constant=True)
        assert not combined.pole_solutions_possible


class TestResidueScreen:
    def test_obstruction(self):
        eq, bs, rep = report_for("y'' = 4*y^3 + 1/y")
        ev = exactness_check(bs, resolved=eq.resolved)
        rep2 = residue_screen(rep, ev, eq.k)
        assert rep2.residue_obstruction
        assert not rep2.pole_solutions_possible
        assert any("residue obstruction" in n for n in rep2.notes)

    def test_passes_for_polynomial(self):
        eq, bs, rep = report_for("y'' = 6*y^2")
        ev = exactness_check(bs, resolved=eq.resolved)
        rep2 = residue_screen(rep, ev, eq.k)
        assert rep2.residue_screen_ran and not rep2.residue_obstruction
        assert rep2.pole_solutions_possible

    def test_odd_k_skipped_with_note(self):
        eq, bs, rep = report_for("P: p^2 - 4*q^3 + 4*q ; k=1")
        ev = exactness_check(bs, resolved=eq.resolved)
        rep2 = residue_screen(rep, ev, eq.k)
        assert not rep2.residue_screen_ran
        assert any("skipped: k is odd" in n for n in rep2.notes)


def germs_for(text):
    eq, bs, rep = report_for(text, depth=16)
    return germs_for_pairs(eq, bs, rep.admissible_pairs(), [], "{exc}", N=8)


class TestDegreeBound:
    def test_single_germ(self):
        germs = germs_for("y'' = 6*y^2")
        assert [ls.n for ls in germs] == [2] and degree_bound(germs) == 2

    def test_two_simple_germs(self):
        germs = germs_for("y'' = 2*y^3 - 2*y")
        assert [ls.n for ls in germs] == [1, 1] and degree_bound(germs) == 2

    def test_no_germs(self):
        assert degree_bound([]) is None
        _eq, _bs, rep = report_for("y'' = y^4")
        rep2 = attach_degree_bound(rep, [])
        assert rep2.degree_bound is None
        assert rep2.notes[-1] == "degree bound undefined: no germs (entire-only)"

    def test_attach_notes(self):
        _eq, _bs, rep = report_for("y'' = 6*y^2")
        rep2 = attach_degree_bound(rep, germs_for("y'' = 6*y^2"))
        assert rep2.degree_bound == 2
        assert any("heuristic degree bound 2" in n for n in rep2.notes)

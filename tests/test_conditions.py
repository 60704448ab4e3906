"""Admissibility screening, residue obstruction, degree bound."""

from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from bbsolve.cli import Options, _prepare, analyze
from bbsolve.conditions import (degree_bound, degree_bound_note, screen_admissibility,
                                classify_kappa, residue_screen)
from bbsolve.curve import branches_at_infinity, exactness_check
from bbsolve.eqparse import parse_equation
from bbsolve.series import germs_for_pairs
from test_acceptance import GOLDEN_CORPUS
from test_classify import VERDICT_PATH_SHA256

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
        rep2 = residue_screen(rep, ev)
        assert rep2.residue_obstruction
        assert not rep2.pole_solutions_possible
        assert any("residue obstruction" in n for n in rep2.notes)

    def test_passes_for_polynomial(self):
        eq, bs, rep = report_for("y'' = 6*y^2")
        ev = exactness_check(bs, resolved=eq.resolved)
        rep2 = residue_screen(rep, ev)
        assert rep2.residue_screen_ran and not rep2.residue_obstruction
        assert rep2.pole_solutions_possible

    # classify_equation gates the even-k continuation on exactness_required
    # alone: a report the screen leaves open must mean p dq is exact
    @pytest.mark.parametrize("text", GOLDEN_CORPUS + [
        "P: (p - q^3)^2 - 2*q^4 ; k=2", "P: p^2 - 2*q^6 ; k=2",
        "y'''' = 120*y^3 - 72*y"])
    def test_open_report_means_exact(self, text):
        eq, _polygon, bs, rep = _prepare(text, Options())
        ev = exactness_check(bs, resolved=eq.resolved)
        rep2 = residue_screen(rep, ev)
        if rep2.pole_solutions_possible and rep2.exactness_required:
            assert rep2.residue_screen_ran and ev.exact

    @pytest.mark.parametrize("text, label", [
        ("y'' = 6*y^2", None),
        # no admissible place: kappa = 4, and a lone kappa = 1 place
        ("y'' = y^4", "entire_only"),
        ("y''' = y", "entire_only"),
        # a certified nonzero residue at an admissible place
        ("P: p^2 - q^4 - q ; k=2", "none_with_pole"),
        # the integrality screen, with and without an admissible place
        ("y'' = 4*y^3 + 1/y", "none_with_pole"),
        ("y'' = y^4 + 1/y", "none_with_pole"),
    ])
    def test_screen_label(self, text, label):
        eq, bs, rep = report_for(text)
        rep2 = residue_screen(rep, exactness_check(bs, resolved=eq.resolved))
        assert rep2.screen_label() == label

    def test_odd_k_skipped_with_note(self):
        eq, bs, rep = report_for("P: p^2 - 4*q^3 + 4*q ; k=1")
        ev = exactness_check(bs, resolved=eq.resolved)
        rep2 = residue_screen(rep, ev)
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
        assert degree_bound_note(None) == "degree bound undefined: no germs"

    def test_attach_notes(self):
        bound = degree_bound(germs_for("y'' = 6*y^2"))
        assert bound == 2
        assert degree_bound_note(bound).startswith("heuristic degree bound 2: ")
        report, _code = analyze("y'' = 6*y^2", Options(no_classify=True))
        assert report["conditions"]["notes"][-1] == degree_bound_note(2)

    # one source: both report blocks and the last note carry the bound of
    # the series the report lists
    @pytest.mark.parametrize("text", GOLDEN_CORPUS + list(VERDICT_PATH_SHA256))
    def test_one_bound_per_report(self, text):
        report, _code = analyze(text, Options())
        bound = sum(s["n"] for s in report["series"]) or None
        cond = report["conditions"]
        assert cond["degree_bound"] == report["classification"]["degree_bound"] == bound
        stated = ("degree bound undefined: no germs" if bound is None
                  else f"heuristic degree bound {bound}: ")
        assert cond["notes"][-1].startswith(stated)


# A reference screen on synthetic places, written from the module
# docstring's rules rather than from the report's properties.
def reference_screen(k, kappas, integral, residue_nonzero):
    orders = [k / (kappa - 1) if kappa > 1 else None for kappa in kappas]
    pairs = [(f"b{i}", int(n)) for i, n in enumerate(orders)
             if n is not None and n.denominator == 1]
    admissible = tuple(sorted({n for _, n in pairs}))
    ones = sum(kappa == 1 for kappa in kappas)
    below = sum(kappa < 1 for kappa in kappas)
    other_above = any(n is not None and n.denominator != 1 for n in orders)
    # one kappa < 1 place is reached by z = infinity alone, unless a kappa = 1
    # place excludes rational solutions
    below_ok = below == 0 or (below == 1 and ones == 0)
    open_ = integral and ones <= 2 and bool(admissible) and not other_above and below_ok
    ran = k % 2 == 0 and ones <= 1 and bool(admissible)
    obstruction = ran and residue_nonzero
    possible = open_ and not obstruction
    label = (None if possible else
             "entire_only" if integral and not admissible else "none_with_pole")
    return dict(kappa_one_count=ones, admissible_n=admissible,
                pole_solutions_possible=possible,
                exactness_required=k % 2 == 0 and ones <= 1 and open_,
                residue_screen_ran=ran, residue_obstruction=obstruction,
                admissible_pairs=pairs, screen_label=label)


@st.composite
def screened_places(draw):
    """k, and a shuffled list of places from each kappa class: up to three
    with kappa = 1, two with kappa = 1 + k/n, two below 1 and one above 1
    but not of the form 1 + k/n."""
    k = draw(st.integers(1, 4))
    ones, admissible, below, other = draw(st.tuples(
        st.integers(0, 3), st.integers(0, 2), st.integers(0, 2), st.integers(0, 1))
        .filter(lambda counts: sum(counts) > 0))
    n = st.integers(1, 6)
    lows = st.sampled_from([F(-2), F(-1), F(0), F(1, 3), F(1, 2), F(2, 3)])
    kappas = ([F(1)] * ones + [1 + F(k, draw(n)) for _ in range(admissible)]
              + [draw(lows) for _ in range(below)]
              + [1 + F(2 * k, 2 * draw(n) + 1) for _ in range(other)])
    return k, draw(st.permutations(kappas))


class TestScreenOracle:
    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(screened_places(), st.booleans(), st.booleans())
    # the edges of the kappa = 1 count and of the lone kappa < 1 place
    @example((2, [F(1), F(1), F(2)]), True, False)
    @example((2, [F(1), F(1), F(1), F(2)]), True, False)
    @example((1, [F(2), F(1, 2)]), True, False)
    @example((1, [F(1), F(2), F(1, 2)]), True, False)
    @example((2, [F(1, 2)]), True, True)
    def test_flags_match_the_rules(self, k_kappas, integral, residue_nonzero):
        k, kappas = k_kappas
        places = [SimpleNamespace(id=f"b{i}", kappa=kappa) for i, kappa in enumerate(kappas)]
        rep = screen_admissibility(k, places, leading_p_coeff_constant=integral)
        verdict = SimpleNamespace(residues=(
            SimpleNamespace(place="b0", certified_zero=not residue_nonzero),))
        rep = residue_screen(rep, verdict)
        got = dict(kappa_one_count=rep.kappa_one_count, admissible_n=rep.admissible_n,
                   pole_solutions_possible=rep.pole_solutions_possible,
                   exactness_required=rep.exactness_required,
                   residue_screen_ran=rep.residue_screen_ran,
                   residue_obstruction=bool(rep.residue_obstruction),
                   admissible_pairs=rep.admissible_pairs(), screen_label=rep.screen_label())
        assert got == reference_screen(k, kappas, integral, residue_nonzero)

"""Parsing, canonicalisation, and rejection diagnostics."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bbsolve.algebra import (BiPoly, GaussianRational, primitive_in_q,
                             squarefree_part_in_p)
from bbsolve.eqparse import (EquationSpec, canonical_string, parse_constant,
                             parse_equation, upoly_str)
from bbsolve.errors import (DegenerateInput, EquationSyntaxError,
                            NotPolynomial, UnsupportedForm)


class TestParse:
    def test_ode_sugar(self):
        s = parse_equation("y'' = 6*y^2")
        assert s.k == 2
        assert s.P == BiPoly({(1, 0): 1, (0, 2): -6})
        N, D = s.resolved
        assert upoly_str(N) == "6*q^2" and upoly_str(D) == "1"

    def test_raw_form(self):
        s = parse_equation("P: p^2 - 4*q^3 + 4*q ; k=1")
        assert s.k == 1
        assert s.P == BiPoly({(2, 0): 1, (0, 3): -4, (0, 1): 4})
        assert s.resolved is None

    def test_third_order_linear(self):
        s = parse_equation("y''' = y")
        assert s.k == 3
        assert s.P == BiPoly({(1, 0): 1, (0, 1): -1})

    def test_caret_derivative(self):
        s = parse_equation("y^(13) = y^2")
        assert s.k == 13

    def test_rational_rhs_cleared(self):
        s = parse_equation("y'' = y^3 + 1/y")
        assert s.P == BiPoly({(1, 1): 1, (0, 4): -1, (0, 0): -1})
        N, D = s.resolved
        assert upoly_str(N) == "q^4 + 1" and upoly_str(D) == "q"

    def test_decimals_and_fractions(self):
        s = parse_equation("y' = 0.5*y^2 + 3/4")
        assert s.P.coeff(0, 2) == GaussianRational(Fraction(-1, 2))
        assert s.P.coeff(0, 0) == GaussianRational(Fraction(-3, 4))

    def test_complex_unit(self):
        s = parse_equation("y' = i*y^2")
        assert s.P.coeff(0, 2) == GaussianRational(0, -1)

    def test_raw_form_reduced_to_squarefree_part(self):
        s = parse_equation("P: (p^2 - q)^2*(q + 1) ; k=1")
        assert s.P == BiPoly({(2, 0): 1, (0, 1): -1}) and s.resolved is None
        assert len(s.notes) == 1 and "not squarefree" in s.notes[0]
        # reduced to one factor linear in p, it is resolved like any such P
        s = parse_equation("P: (p - q)^2 ; k=1")
        assert s.P == BiPoly({(1, 0): 1, (0, 1): -1})
        assert [upoly_str(u) for u in s.resolved] == ["q", "1"]

    def test_raw_form_made_primitive_in_q(self):
        # a squarefree P keeps no content in q: (q + 1) only adds the
        # constant solution y = -1, which has no pole
        s = parse_equation("P: (q + 1)*(p^2 - 4*q^3 + 4*q) ; k=1")
        assert s == parse_equation("P: p^2 - 4*q^3 + 4*q ; k=1")
        assert s.notes == ("common factor removed: P had a component constant in p",)

    def test_sum_over_lcm_of_denominators(self):
        # 1/y + 1/y^2 has no common factor to cancel: no note
        s = parse_equation("y' = 1/y + 1/y^2")
        assert s.notes == ()
        assert [upoly_str(u) for u in s.resolved] == ["q + 1", "q^2"]
        s = parse_equation("y' = 1/y + 1/(y^2 + y)")
        assert s.notes == () and upoly_str(s.resolved[1]) == "q^2 + q"
        assert parse_equation("y'' = 6*y^3/y").notes == (
            "common factor cancelled from the right-hand side",)

    def test_constant(self):
        assert parse_constant("-1/3") == GaussianRational(Fraction(-1, 3))
        for text in ("1/3 junk", "q"):
            with pytest.raises(EquationSyntaxError):
                parse_constant(text)

    def test_linear_raw_detects_resolved(self):
        s = parse_equation("P: q*p - q^4 - 1 ; k=2")
        assert s.resolved is not None
        assert [upoly_str(u) for u in s.resolved] == ["q^4 + 1", "q"]
        # the resolved form is read off P, so a spec built from P alone has it
        built = EquationSpec(P=s.P, k=2, source_text="")
        assert built == s and built.resolved == s.resolved


class TestCanonical:
    def test_examples(self):
        assert canonical_string(parse_equation("y'' = 6*y^2")) == "P: p - 6*q^2 ; k=2"
        assert canonical_string(parse_equation("P: p^2 - 4*q^3 + 4*q ; k=1")) == \
            "P: p^2 - 4*q^3 + 4*q ; k=1"

    def test_normalises_leading_coefficient(self):
        assert canonical_string(parse_equation("P: 2*p^2 - 8*q ; k=3")) == \
            "P: p^2 - 4*q ; k=3"

    coeffs = st.builds(Fraction, st.integers(min_value=-9, max_value=9),
                       st.integers(min_value=1, max_value=4))

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(
        st.tuples(st.integers(min_value=0, max_value=3),
                  st.integers(min_value=0, max_value=4)),
        st.tuples(coeffs, coeffs), min_size=2, max_size=6),
        st.integers(min_value=1, max_value=6))
    def test_roundtrip_random(self, terms, k):
        P = BiPoly({ij: GaussianRational(re, im) for ij, (re, im) in terms.items()})
        if P.deg_p() < 1:
            return
        spec = EquationSpec(P=P.normalized_pmajor(), k=k, source_text="<gen>")
        back = parse_equation(canonical_string(spec))
        # the parser reduces P to its squarefree part (P itself if squarefree),
        # primitive in q
        assert back.P == primitive_in_q(squarefree_part_in_p(spec.P))
        assert back.k == spec.k
        if back.resolved is not None:
            # read off the primitive P: D monic and coprime to N
            N, D = back.resolved
            assert D.lc() == GaussianRational(1) and N.gcd(D).degree() == 0

    def test_roundtrip_resolved(self):
        for text in ("y'' = 6*y^2", "y''' = y", "y'' = y^3 + 1/y",
                     "y' = y^2 - 1", "y^(4) = 2*y^3 - 1/2"):
            s = parse_equation(text)
            assert parse_equation(canonical_string(s)) == s


class TestRejections:
    def test_mixed_derivative(self):
        with pytest.raises(UnsupportedForm):
            parse_equation("y'' = y' + 1")

    def test_nonpolynomial(self):
        with pytest.raises(NotPolynomial):
            parse_equation("y'' = sin(y)")

    def test_explicit_z(self):
        with pytest.raises(UnsupportedForm):
            parse_equation("y' = y + z")

    def test_position_reported(self):
        with pytest.raises(EquationSyntaxError) as exc:
            parse_equation("y'' = 6*")
        assert exc.value.position == len("y'' = 6*")

    def test_too_many_apostrophes(self):
        with pytest.raises(EquationSyntaxError):
            parse_equation("y" + "'" * 13 + " = y")

    def test_constant_in_p_rejected(self):
        with pytest.raises((DegenerateInput, NotPolynomial)):
            parse_equation("P: q^2 - 1 ; k=1")

    def test_k_zero_rejected(self):
        with pytest.raises(DegenerateInput):
            parse_equation("P: p - q ; k=0")

    def test_division_by_zero_rejected(self):
        for text in ("y'' = 6*y^2 + 1/(y - y)", "P: p - 1/(q - q) ; k=1"):
            with pytest.raises(DegenerateInput):
                parse_equation(text)

    def test_division_in_raw_mode(self):
        with pytest.raises(NotPolynomial):
            parse_equation("P: p/q - 1 ; k=1")
        with pytest.raises(NotPolynomial):
            parse_equation("P: p + 1/q + 1/q ; k=1")

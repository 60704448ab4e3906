"""Parsing, canonicalisation, and rejection diagnostics."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bbsolve.algebra import (BiPoly, GaussianRational, primitive_in_q,
                             squarefree_part_in_p)
from bbsolve.eqparse import (_ONE_BP, EquationSpec, _Parser, _Rat, _digits_int,
                             _fraction_str, _tokenize, canonical_string, gaussian_str,
                             parse_constant, parse_equation, upoly_str)
from bbsolve.errors import (DegenerateInput, EquationSyntaxError,
                            NotPolynomial, UnsupportedForm)
from oracle_tokenize import tokenize as oracle_tokenize


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
                     "y' = y^2 - 1", "y^(4) = 2*y^3 - 1/2",
                     "P: p^2 - 4*q^3 + 4*q ; k=1"):
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

    @pytest.mark.parametrize("text", ["y' = y^2 - \u00b2", "y' = y^\u00b2", "P: p - q ; k=\u00b2"])
    def test_digit_that_is_no_decimal_rejected(self, text):
        # a superscript two is a digit to str.isdigit, but no decimal digit
        with pytest.raises(EquationSyntaxError):
            parse_equation(text)

    # an exponent or a derivative order has at most MAX_INTEGER_DIGITS digits
    @pytest.mark.parametrize("text, k", [
        ("P: p - q^2 ; k=9999", 9999), ("y^(9999) = y", 9999), ("y' = y^9999", 1),
        ("y''' = 10^1000*y^4", 3)])
    def test_integer_at_the_digit_bound_accepted(self, text, k):
        assert parse_equation(text).k == k

    @pytest.mark.parametrize("text", [
        "P: p - q^2 ; k=10000", "y^(10000) = y^2", "y' = y^10000"])
    def test_integer_past_the_digit_bound_rejected(self, text):
        with pytest.raises(EquationSyntaxError, match="more than 4 digits"):
            parse_equation(text)

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


class TestPastTheDigitLimit:
    """Integers past the interpreter's 4,300-digit limit on int <-> text."""

    @pytest.mark.parametrize("n", [10 ** 4299, 10 ** 4300 - 1, -10 ** 4300, 10 ** 4300 + 7,
                                   -3 ** 20000 - 1, 2 ** 30000, 7 * 10 ** 9000],
                             ids=lambda n: f"{'-' if n < 0 else ''}{n.bit_length()}bits")
    def test_prints_and_reads_back_exactly(self, n):
        # Decimal converts without the limit: an independent reference
        text = str(Decimal(n))
        assert _fraction_str(Fraction(n)) == text
        fr = Fraction(n, 3 ** 9000)
        assert _fraction_str(fr) == f"{Decimal(fr.numerator)}/{Decimal(fr.denominator)}"
        assert _digits_int(text.lstrip("-")) == abs(n)
        assert parse_constant(f"{text}*i") == GaussianRational(0, n)

    def test_long_parts_of_a_gaussian_rational(self):
        big = 10 ** 5000
        g = GaussianRational(Fraction(1, big), -big)
        assert gaussian_str(g) == f"(1/{Decimal(big)} - {Decimal(big)}*i)"
        assert parse_constant(gaussian_str(g)) == g


def _repeated_power(base, e):
    """base^e as _Rat.pow formed it before binary powering: e products."""
    out = _Rat(_ONE_BP)
    for _ in range(e):
        out = out * base
    return out


class TestPowers:
    @pytest.mark.parametrize("text, variables", [("y + 1", "y"), ("p*q - 1/2", "pq")])
    def test_binary_powering_equals_repeated_products(self, text, variables):
        names = {"y": (0, 1), "p": (1, 0), "q": (0, 1)}
        base = _Parser(text, {v: _Rat(BiPoly({names[v]: 1})) for v in variables}).parse_expr()
        for e in range(41):
            got, want = base.pow(e), _repeated_power(base, e)
            assert (got.num, got.den) == (want.num, want.den), e

    def test_power_takes_logarithmically_many_products(self, monkeypatch):
        count = 0
        mul = _Rat.__mul__

        def counting(self, other):
            nonlocal count
            count += 1
            return mul(self, other)

        monkeypatch.setattr(_Rat, "__mul__", counting)
        spec = parse_equation("y' = (y + 1)^999")
        assert count <= 2 * math.ceil(math.log2(999))
        assert spec.P == BiPoly([((1, 0), 1)] + [((0, j), -math.comb(999, j))
                                                  for j in range(1000)])


# the pieces tokenizer inputs are drawn from: ASCII operators, "**", ".",
# digits (an Arabic-Indic three, and a superscript two that is no decimal),
# a letter outside ASCII, an em space and the parser's letters
TOKEN_PIECES = list("+-*/^()=;:'.!,") + ["**", "0", "7", "٣", "²", "é",
                                         "\u2003", " ", "\t", "y", "p", "q", "i", "z",
                                         "P", "k"]


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except EquationSyntaxError as exc:
        return str(exc), exc.position


class TestTokenizerOracle:
    """_tokenize against the tokenizer it replaced (tests/oracle_tokenize.py):
    the same tokens, or the same error at the same position."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(TOKEN_PIECES), max_size=24).map("".join))
    def test_drawn_texts(self, text):
        assert _tokens_or_error(_tokenize, text) == _tokens_or_error(oracle_tokenize, text)

    @pytest.mark.parametrize("text", [
        "y'' = 6*y**2 - 2", "P: p^2 - 4*q^3 + 4*q ; k=1", "y''' = 1.5*y^2 + .25",
        "y* **y", "***", "y = 2²", "y' = ٣*y", "y' = é", "\u2003y'=y", "",
        "1..2.3", "y' = y # c", "y' = 3.*y"])
    def test_examples(self, text):
        assert _tokens_or_error(_tokenize, text) == _tokens_or_error(oracle_tokenize, text)

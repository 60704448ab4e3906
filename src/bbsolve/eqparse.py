"""Parsing and canonical printing of autonomous equations P(y^(k), y) = 0.

Two accepted syntaxes normalise to one EquationSpec:

* ODE sugar:   ``y'' = 6*y^2``   or   ``y^(13) = y^3 + 1/y``
  The left side is the bare k-th derivative (apostrophes up to k = 12,
  ``y^(k)`` beyond); the right side is a rational expression in y alone.
* raw form:    ``P: p^2 - 4*q^3 + 4*q ; k=1``
  with p standing for y^(k) and q for y.

Numbers are integers, decimals, or rationals written with ``/``; the complex
unit ``i`` is allowed; whitespace is insignificant.  Rational right-hand
sides are cleared to polynomial P by multiplying through by the denominator.
A raw P of p-degree 2 or more that is not squarefree in p is replaced by its
squarefree part, and a raw P that keeps a factor constant in p (which only
adds constant solutions) is made primitive in q, each with a note, so every
EquationSpec is squarefree in p.

An EquationSpec stores P and k only.  P is stored normalised: the
lex-leading coefficient (p-degree major) is 1.  The resolved form
y^(k) = N(y)/D(y) is read off P whenever P = D p - N is linear in p, from
either syntax; normalised and primitive, that D is monic and coprime to N.
``canonical_string`` prints the normal form, and parsing it back returns an
equal EquationSpec.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .algebra import (BiPoly, GaussianRational, GR_ONE, primitive_in_q,
                      squarefree_part_in_p)
from .errors import (DegenerateInput, EquationSyntaxError, NotPolynomial,
                     UnsupportedForm)

MAX_APOSTROPHES = 12
# an exponent or a derivative order has at most this many digits
MAX_INTEGER_DIGITS = 4
_FUNCTION_WORDS = {"sin", "cos", "tan", "exp", "log", "ln", "sqrt", "sinh",
                   "cosh", "tanh", "abs"}


@dataclass(frozen=True)
class EquationSpec:
    """Canonical equation: P(p, q) = 0 with p = y^(k), q = y."""

    P: BiPoly
    k: int
    source_text: str = field(compare=False)
    notes: tuple = field(default=(), compare=False)

    def __post_init__(self):
        if self.k < 1:
            raise DegenerateInput("derivative order k must be >= 1")
        if self.P.deg_p() < 1:
            raise DegenerateInput("P must be nonconstant in p = y^(k)")

    @cached_property
    def resolved(self):
        """(N, D) with y^(k) = N(y)/D(y) when P = D p - N is linear in p,
        else None; D is monic and coprime to N because P is normalised."""
        if self.P.deg_p() != 1:
            return None
        return -self.P.coeff_in_p(0), self.P.coeff_in_p(1)


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

# one-character operators; "**" is read as "^"
_PUNCT = frozenset("+-*/^()=;:'")


def _tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in _PUNCT:     # none is a space, a digit or a letter
            if c == "*" and text.startswith("*", i + 1):
                toks.append(("OP", "^", i))
                i += 2
            else:
                toks.append(("OP", c, i))
                i += 1
            continue
        if c.isspace():
            i += 1
            continue
        if c.isdecimal() or (c == "." and i + 1 < n and text[i + 1].isdecimal()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdecimal() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            toks.append(("NUM", text[i:j], i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            toks.append(("NAME", text[i:j], i))
            i = j
            continue
        raise EquationSyntaxError(f"unexpected character {c!r}", i)
    toks.append(("END", "", n))
    return toks


def _num_to_fraction(text):
    if "." in text:
        whole, frac = text.split(".")
        denom = 10 ** len(frac)
        return Fraction(_digits_int(whole or "0") * denom + _digits_int(frac or "0"), denom)
    return Fraction(_digits_int(text))


def _small_int(digits, at, what):
    """int() of the digits of an exponent or a derivative order at position
    ``at``; one of more than MAX_INTEGER_DIGITS digits is refused before any
    power or derivative that large is formed."""
    if len(digits) > MAX_INTEGER_DIGITS:
        raise EquationSyntaxError(
            f"{what} has more than {MAX_INTEGER_DIGITS} digits", at)
    return int(digits)


def _digits_int(digits):
    """int() of a run of decimal digits of any length: past the interpreter's
    limit on text-to-int digits, from its two halves."""
    try:
        return int(digits)
    except ValueError:
        half = len(digits) // 2
        return _digits_int(digits[:-half]) * 10 ** half + _digits_int(digits[-half:])


# ---------------------------------------------------------------------------
# rational bivariate values used during evaluation
# ---------------------------------------------------------------------------

class _Rat:
    """Quotient of BiPolys, just enough algebra for parsing; never reduced,
    but a sum over two denominators in q alone is put over their lcm."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        self.num = num
        self.den = den if den is not None else _ONE_BP

    def __add__(self, o):
        a, b = self._cofactors(o)
        return _Rat(_times(self.num, a) + _times(o.num, b), _times(self.den, a))

    def __sub__(self, o):
        a, b = self._cofactors(o)
        return _Rat(_times(self.num, a) - _times(o.num, b), _times(self.den, a))

    def _cofactors(self, o):
        """(a, b) with self.den * a == o.den * b: the common denominator is
        the lcm when both denominators are non-constant and free of p (so
        1/y + 1/y^2 stays over y^2), the product otherwise."""
        d1, d2 = self.den, o.den
        if d1.deg_p() == 0 and d2.deg_p() == 0 and d1.deg_q() > 0 and d2.deg_q() > 0:
            u1, u2 = d1.coeff_in_p(0), d2.coeff_in_p(0)
            g = u1.gcd(u2)
            if g.degree() >= 1:
                return BiPoly.from_ppoly([u2 // g]), BiPoly.from_ppoly([u1 // g])
        return o.den, self.den

    def __mul__(self, o):
        return _Rat(_times(self.num, o.num), _times(self.den, o.den))

    def __truediv__(self, o):
        if o.num.is_zero():
            raise DegenerateInput("division by zero in equation")
        return _Rat(_times(self.num, o.den), _times(self.den, o.num))

    def __neg__(self):
        return _Rat(-self.num, self.den)

    def pow(self, e):
        """self^e by binary powering."""
        out = _Rat(_ONE_BP)
        b = self
        while e:
            if e & 1:
                out = out * b
            e >>= 1
            if e:
                b = b * b
        return out


_ONE_BP = BiPoly({(0, 0): GR_ONE})


def _times(a, b):
    """a * b, with no product when either is the unit denominator _ONE_BP."""
    return b if a is _ONE_BP else a if b is _ONE_BP else a * b


def _const(g):
    return _Rat(BiPoly({(0, 0): g}) if not g.is_zero() else BiPoly())


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, text, variables):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.variables = variables  # name -> _Rat

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, val):
        kind, v, at = self.peek()
        if v != val:
            raise EquationSyntaxError(f"found {v or 'end of input'!r}", at, (repr(val),))
        return self.next()

    def expect_end(self):
        kind, v, at = self.peek()
        if kind != "END":
            raise EquationSyntaxError(f"trailing input {v!r}", at)

    def parse_expr(self):
        node = self.parse_term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            rhs = self.parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            rhs = self.parse_factor()
            node = node * rhs if op == "*" else node / rhs
        return node

    def parse_factor(self):
        kind, v, at = self.peek()
        if v == "-":
            self.next()
            return -self.parse_factor()
        if v == "+":
            self.next()
            return self.parse_factor()
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek()[1] == "^":
            self.next()
            kind, v, at = self.peek()
            if kind != "NUM" or "." in v:
                raise EquationSyntaxError("exponent must be a positive integer", at,
                                          ("integer",))
            self.next()
            return base.pow(_small_int(v, at, "exponent"))
        return base

    def parse_atom(self):
        kind, v, at = self.next()
        if kind == "NUM":
            return _const(GaussianRational(_num_to_fraction(v)))
        if kind == "NAME":
            if v in self.variables:
                return self._variable(v, at)
            if v == "i":
                return _const(GaussianRational(0, 1))
            if v == "z":
                raise UnsupportedForm(
                    "explicit independent variable z: only autonomous equations are supported")
            if v in _FUNCTION_WORDS:
                raise NotPolynomial(f"non-polynomial operator {v!r} at position {at}")
            raise EquationSyntaxError(f"unknown symbol {v!r}", at)
        if v == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        raise EquationSyntaxError(f"found {v or 'end of input'!r}", at,
                                  ("number", "symbol", "'('"))

    def _variable(self, name, at):
        if name == "y":
            # derivatives of y are not allowed inside expressions
            nxt = self.peek()
            if nxt[1] == "'":
                raise UnsupportedForm(
                    f"derivative of y at position {at}: only y and y^(k) may appear, "
                    "and y^(k) only as the isolated left-hand side")
            if nxt[1] == "^" and self.toks[self.pos + 1][1] == "(":
                raise UnsupportedForm(
                    f"derivative marker y^(j) at position {at} is only allowed "
                    "as the isolated left-hand side")
        return self.variables[name]


def _parse_yterm(parser):
    """Consume the left-hand side derivative and return its order k."""
    kind, v, at = parser.next()
    if kind != "NAME" or v != "y":
        raise EquationSyntaxError("equation must start with y or P:", at, ("'y'", "'P:'"))
    k = 0
    while parser.peek()[1] == "'":
        parser.next()
        k += 1
    if k > MAX_APOSTROPHES:
        raise EquationSyntaxError(
            f"more than {MAX_APOSTROPHES} apostrophes; use y^(k) notation", at)
    if k == 0 and parser.peek()[1] == "^":
        parser.next()
        parser.expect("(")
        kind, v, at = parser.next()
        if kind != "NUM" or "." in v:
            raise EquationSyntaxError("derivative order must be an integer", at)
        k = _small_int(v, at, "derivative order")
        parser.expect(")")
    if k == 0:
        raise UnsupportedForm("left-hand side must be a derivative y', ..., y^(k)")
    return k


def parse_equation(text):
    """Parse ODE sugar or raw-P syntax into a canonical EquationSpec."""
    stripped = text.lstrip()
    if stripped.startswith("P"):
        after = stripped[1:].lstrip()
        if after.startswith(":"):
            return _parse_raw(text)
    return _parse_ode(text)


def parse_constant(text):
    """An exact constant such as ``2*i + 1`` or ``-1/3``; the whole text must parse."""
    parser = _Parser(text, {})
    val = parser.parse_expr()
    parser.expect_end()
    return val.num.coeff(0, 0) * val.den.coeff(0, 0).inverse()


def _parse_ode(text):
    q_var = _Rat(BiPoly({(0, 1): GR_ONE}))
    parser = _Parser(text, {"y": q_var})
    k = _parse_yterm(parser)
    parser.expect("=")
    rhs = parser.parse_expr()
    parser.expect_end()
    N = rhs.num.coeff_in_p(0)
    D = rhs.den.coeff_in_p(0)
    if D.is_zero():
        raise DegenerateInput("right-hand side has zero denominator")
    notes = []
    g = N.gcd(D)
    if g.degree() >= 1:
        N, D = N // g, D // g
        notes.append("common factor cancelled from the right-hand side")
    # P = D p - N with D made monic
    lc = D.lc().inverse()
    P = BiPoly([((1, j), c * lc) for j, c in enumerate(D.coeffs)]
               + [((0, j), -c * lc) for j, c in enumerate(N.coeffs)])
    return EquationSpec(P=P, k=k, source_text=text, notes=tuple(notes))


def _parse_raw(text):
    p_var = _Rat(BiPoly({(1, 0): GR_ONE}))
    q_var = _Rat(BiPoly({(0, 1): GR_ONE}))
    parser = _Parser(text, {"p": p_var, "q": q_var})
    kind, v, at = parser.next()          # 'P'
    parser.expect(":")
    expr = parser.parse_expr()
    parser.expect(";")
    kind, v, at = parser.next()
    if kind != "NAME" or v != "k":
        raise EquationSyntaxError("expected k=<int> after ';'", at, ("'k'",))
    parser.expect("=")
    kind, v, at = parser.next()
    if kind != "NUM" or "." in v:
        raise EquationSyntaxError("derivative order must be an integer", at)
    k = _small_int(v, at, "derivative order")
    parser.expect_end()

    notes = []
    num, den = expr.num, expr.den
    if den.deg_p() > 0 or den.deg_q() > 0:
        raise NotPolynomial("raw form P must be polynomial: division only by constants")
    den_c = den.coeff(0, 0)
    P = num * den_c.inverse()
    if P.is_zero():
        raise DegenerateInput("P is identically zero")
    P = P.normalized_pmajor()
    if P.deg_p() >= 2:
        P_sf = squarefree_part_in_p(P)
        if P_sf.deg_p() < P.deg_p():
            P = P_sf
            notes.append("P is not squarefree in p: the equation is reducible; "
                         "the analysis below uses its squarefree part "
                         "(repeated factors removed)")
    # the squarefree part is primitive in q already; P itself may not be
    P_prim = primitive_in_q(P)
    if P_prim is not P:
        P = P_prim
        notes.append("common factor removed: P had a component constant in p")
    return EquationSpec(P=P, k=k, source_text=text, notes=tuple(notes))


# ---------------------------------------------------------------------------
# canonical printing
# ---------------------------------------------------------------------------

def _fraction_str(fr):
    try:
        return str(fr.numerator) if fr.denominator == 1 else f"{fr.numerator}/{fr.denominator}"
    except ValueError:      # past the interpreter's limit on int-to-text digits
        num = _int_str(fr.numerator)
        return num if fr.denominator == 1 else f"{num}/{_int_str(fr.denominator)}"


def _int_str(n):
    """The decimal text of an int of any size: str() below the interpreter's
    digit limit, else the texts of two halves split at a power of ten."""
    try:
        return str(n)
    except ValueError:
        half = n.bit_length() * 3 // 20         # about half the digits
        hi, lo = divmod(abs(n), 10 ** half)
        return ("-" if n < 0 else "") + _int_str(hi) + _int_str(lo).zfill(half)


def gaussian_str(g):
    """Re-parseable text for an exact coefficient."""
    return gaussian_text(_fraction_str(g.re), _fraction_str(g.im))


def gaussian_text(re, im):
    """gaussian_str of the value whose parts have the texts ``re`` and
    ``im`` (as _fraction_str writes them)."""
    if im == "0":
        return re
    if re == "0":
        return "i" if im == "1" else "-i" if im == "-1" else f"{im}*i"
    sign, size = ("-", im[1:]) if im[0] == "-" else ("+", im)
    impart = "i" if im == "1" else f"{size}*i"
    return f"({re} {sign} {impart})"


def _term_str(coeff, vars_and_degs):
    pieces = []
    for name, d in vars_and_degs:
        if d == 1:
            pieces.append(name)
        elif d > 1:
            pieces.append(f"{name}^{d}")
    body = "*".join(pieces)
    cs = gaussian_str(coeff)
    if not body:
        return cs
    if cs == "1":
        return body
    if cs == "-1":
        return f"-{body}"
    return f"{cs}*{body}"


def _join_terms(texts):
    """Term texts joined with " + " and " - ", or "0" when there are none."""
    out = ""
    for text in texts:
        if not out:
            out = text
        elif text.startswith("-"):
            out += f" - {text[1:]}"
        else:
            out += f" + {text}"
    return out or "0"


def bipoly_str(P):
    """Terms ordered by p-degree then q-degree, both descending."""
    return _join_terms(_term_str(P.terms[i, j], (("p", i), ("q", j)))
                       for i, j in sorted(P.terms, reverse=True))


def upoly_str(U, var="q"):
    return _join_terms(_term_str(U[j], ((var, j),))
                       for j in range(U.degree(), -1, -1) if not U[j].is_zero())


def ratfunc_str(N, D, var="q"):
    if D.degree() == 0 and D.lc() == GR_ONE:
        return upoly_str(N, var)
    return f"({upoly_str(N, var)})/({upoly_str(D, var)})"


def canonical_string(spec):
    """Deterministic normal form; parse_equation(canonical_string(s)) == s."""
    return f"P: {bipoly_str(spec.P)} ; k={spec.k}"

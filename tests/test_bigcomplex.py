"""BigComplex and the Aberth root finder on raw libmp tuples, against the
mpmath-object reference.

Every operation must give the same bits as before: the same midpoint, the
same radius and the same precision, or the same exception.
"""

import operator
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from bbsolve import algebra
from bbsolve.algebra import GR_ZERO, BigComplex, GaussianRational, UPoly, roots_univariate
from bbsolve.errors import PrecisionExhausted
from oracle_bigcomplex import BigComplex as ObjectBall, _aberth as oracle_aberth

PRECS = (113, 256, 300)
BINARY = (operator.add, operator.sub, operator.mul, operator.truediv)


@st.composite
def parts(draw, bits):
    """An mpf of up to ``bits`` mantissa bits, as the (man, exp) pair."""
    man = draw(st.one_of(st.integers(-40, 40),
                         st.integers(-(1 << bits), 1 << bits)))
    return man, draw(st.integers(-bits - 40, 40))


@st.composite
def balls(draw):
    """(midpoint, radius, prec): a midpoint of up to prec + 8 bits, at times
    real or zero, and a radius that is 0, short, of up to prec + 8 bits, or
    wide enough to hold 0."""
    prec = draw(st.sampled_from(PRECS))
    with mp.workprec(prec + 8):
        re = mpmath.mpf(draw(parts(prec + 8)))
        im = mpmath.mpf(draw(parts(prec + 8))) if draw(st.booleans()) else mpmath.mpf(0)
        val = mpmath.mpc(re, im)
    err = draw(st.one_of(st.just(0), st.builds(lambda m, e: mpmath.mpf((m, e)),
                                               st.integers(1, 1 << 20),
                                               st.integers(-prec - 40, 30)),
                         st.builds(lambda m, e: mpmath.mpf((m, e), prec=prec + 8),
                                   st.integers(1, 1 << (prec + 8)),
                                   st.integers(-2 * prec - 40, -prec))))
    return val, err, prec


scalars = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.builds(Fraction, st.integers(-99, 99), st.integers(1, 99)),
    st.builds(lambda a, b, d: GaussianRational(Fraction(a, d), Fraction(b, d)),
              st.integers(-99, 99), st.integers(-99, 99), st.integers(1, 99)))


def both(ball):
    return BigComplex(*ball), ObjectBall(*ball)


def outcome(fn, *args):
    """The raw bits of fn(*args), or the type and text of what it raised."""
    try:
        out = fn(*args)
    except (PrecisionExhausted, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    assert type(out) in (BigComplex, ObjectBall)
    return out.val._mpc_, out.err._mpf_, out.prec


def assert_same(new, old, fn, *args):
    """fn on the new balls and on their reference twins gives the same bits."""
    twin = {id(n): o for n, o in zip(new, old)}
    assert outcome(fn, *args) == outcome(fn, *(twin.get(id(a), a) for a in args))


@settings(max_examples=150, deadline=None)
@given(balls(), balls(), scalars)
def test_arithmetic_matches_the_object_reference(x, y, s):
    xn, xo = both(x)
    yn, yo = both(y)
    new, old = (xn, yn), (xo, yo)
    for op in BINARY:
        assert_same(new, old, op, xn, yn)
        assert_same(new, old, op, xn, s)
        assert_same(new, old, op, s, xn)
    # exact zeros of every type: the sum still charges rounding slack
    for zero in (0, Fraction(0), GR_ZERO):
        assert_same(new, old, operator.add, xn, zero)
        assert_same(new, old, operator.add, zero, xn)
    assert_same(new, old, operator.neg, xn)
    assert_same(new, old, lambda a: a.inverse(), xn)
    for n in (-2, 0, 1, 3):
        assert_same(new, old, pow, xn, n)


@settings(max_examples=100, deadline=None)
@given(balls(), balls())
def test_chains_reuse_the_kept_modulus(x, y):
    # results keep |midpoint| at their working precision (prec + 8, or
    # prec + 16 after a root); the next operation reads it only at that
    # precision, so mixed chains agree bit for bit too
    xn, xo = both(x)
    yn, yo = both(y)
    new, old = (xn, yn), (xo, yo)
    assert_same(new, old, lambda a, b: (a * b) * a + b, xn, yn)
    assert_same(new, old, lambda a, b: (a + b) / (a * b) - a, xn, yn)
    assert_same(new, old, lambda a, b: a.root(3, 1) * b / a.root(2), xn, yn)
    assert_same(new, old, lambda a, b: (a * a) ** 2 * (b - 1), xn, yn)


@settings(max_examples=60, deadline=None)
@given(balls())
def test_roots_match_the_object_reference(x):
    xn, xo = both(x)
    for b in (2, 3, 4, 5, 6):
        for k in range(b + 2):
            assert_same((xn,), (xo,), lambda a: a.root(b, index=k), xn)


@settings(max_examples=100, deadline=None)
@given(balls(), balls())
def test_division_by_a_ball_around_zero_raises_the_same(x, y):
    xn, xo = both(x)
    val, _err, prec = y
    wide = (val, abs(val) * 2 + 1, prec)        # the disk holds 0
    yn, yo = both(wide)
    assert outcome(operator.truediv, xn, yn) == outcome(operator.truediv, xo, yo)
    assert outcome(operator.truediv, xn, yn)[0] is PrecisionExhausted


@settings(max_examples=100, deadline=None)
@given(balls(), balls())
def test_ambient_precision_reads_match(x, y):
    # negation and is_zero round at mpmath's ambient precision
    xn, xo = both(x)
    yn, yo = both(y)
    for ambient in (53, 600):
        with mp.workprec(ambient):
            assert xn.is_zero() is xo.is_zero()
            assert_same((xn, yn), (xo, yo), operator.sub, xn, yn)
            assert_same((xn,), (xo,), operator.neg, xn)
            assert complex(xn) == complex(xo)


def test_exact_zero_sum_widens_the_radius():
    # kept from the reference until ROADMAP item 9: x + 0 charges slack
    x = BigComplex.from_exact(GaussianRational(Fraction(1, 3)))
    for zero in (0, GR_ZERO):
        assert (x + zero).err > x.err


def outcome_roots(poly, prec):
    """The roots, each ball as its raw bits, or what roots_univariate raised."""
    try:
        roots = roots_univariate(poly, prec)
    except PrecisionExhausted as exc:
        return type(exc), str(exc)
    return [(r.val._mpc_, r.err._mpf_, r.prec) if isinstance(r, BigComplex) else r
            for r in roots]


small = st.builds(lambda a, b, d: GaussianRational(Fraction(a, d), Fraction(b, d)),
                  st.integers(-9, 9), st.integers(-3, 3), st.integers(1, 6))


@settings(max_examples=40, deadline=None)
@given(st.lists(small, min_size=2, max_size=6), st.booleans(),
       st.sampled_from((113, 256)))
def test_roots_match_the_object_root_finder(coeffs, numeric, prec):
    # the same root lists, exact or ball, from the libmp Aberth iteration and
    # from the reference one (exact input goes through exactification)
    if coeffs[-1].is_zero():
        coeffs[-1] = GaussianRational(1)
    if numeric:
        radius = BigComplex(0, 2.0 ** -300, prec)
        coeffs[0] = BigComplex.from_exact(coeffs[0], prec) + radius
    poly = coeffs if numeric else UPoly(coeffs)
    got = outcome_roots(poly, prec)
    with pytest.MonkeyPatch.context() as mpatch:
        mpatch.setattr(algebra, "_aberth", oracle_aberth)
        want = outcome_roots(poly, prec)
    assert got == want


@pytest.mark.parametrize("start", [0, 1, Fraction(1, 8)])
@pytest.mark.parametrize("coeffs", [[1, 0, 1], [-2, 0, 0, 1], [7, -2, 1]])
def test_aberth_degenerate_starts_match(monkeypatch, start, coeffs):
    # every start on one point: the coincident-estimate (dz = 0) and
    # flat-derivative (f' = 0) branches run on both sides; x^2 - 2x + 7 has
    # start radius 8, so start 1/8 puts every estimate on its critical point 1
    point = GaussianRational(start).to_mpc(64)
    monkeypatch.setattr(algebra, "mpc_expjpi", lambda x, prec, rnd: point._mpc_)
    monkeypatch.setattr(mpmath, "expjpi", lambda x: point)
    cs = [GaussianRational(c).to_mpc(288) for c in coeffs]

    def run(aberth):
        try:
            return [(v._mpc_, e._mpf_) for v, e in aberth(cs, 288, mpmath.mpf(0))]
        except PrecisionExhausted as exc:
            return type(exc), str(exc)
    assert run(algebra._aberth) == run(oracle_aberth)

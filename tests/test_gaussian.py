"""GaussianRational (one integer triple) against the two-Fraction reference."""

import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from bbsolve.algebra import GaussianRational
from oracle_gaussian import GaussianRational as PairGaussian

# small parts hit equal denominators and cancellations often, large ones
# carry numerators and denominators far past a machine word
small = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
large = st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 40))
parts = st.one_of(small, large, st.integers(-5, 5).map(Fraction))
pairs = st.tuples(parts, parts)
scalars = st.one_of(st.integers(-10 ** 20, 10 ** 20), small, large)

BINARY = (operator.add, operator.sub, operator.mul, operator.truediv)


def both(pair):
    return GaussianRational(*pair), PairGaussian(*pair)


def outcome(fn, *args):
    """The value of fn(*args), or the type and text of what it raised."""
    try:
        return fn(*args)
    except (ZeroDivisionError, TypeError) as exc:
        return type(exc), str(exc)


def assert_same(new, old):
    if isinstance(old, tuple):          # both raised
        assert new == old
        return
    assert type(new) is GaussianRational and type(old) is PairGaussian
    a, b, d = new._a, new._b, new._d
    assert d > 0 and gcd(a, b, d) == 1, (a, b, d)
    assert (type(new.re), type(new.im)) == (Fraction, Fraction)
    assert (new.re, new.im) == (old.re, old.im)
    assert new.is_zero() == old.is_zero()
    assert hash(new) == hash(old)
    assert (str(new), repr(new)) == (str(old), repr(old))
    assert repr(complex(new)) == repr(complex(old))
    for prec in (113, 256):
        assert new.to_mpc(prec)._mpc_ == old.to_mpc(prec)._mpc_


@settings(max_examples=300, deadline=None)
@given(pairs, pairs, scalars)
def test_arithmetic_matches_the_fraction_pair(x, y, s):
    xn, xo = both(x)
    yn, yo = both(y)
    assert_same(xn, xo)
    assert_same(-xn, -xo)
    assert_same(outcome(xn.inverse), outcome(xo.inverse))
    for op in BINARY:
        assert_same(outcome(op, xn, yn), outcome(op, xo, yo))
        assert_same(outcome(op, xn, s), outcome(op, xo, s))
        assert_same(outcome(op, s, xn), outcome(op, s, xo))
        assert_same(outcome(op, xn, 0), outcome(op, xo, 0))
    for n in (-3, -1, 0, 1, 2, 5):
        assert_same(outcome(pow, xn, n), outcome(pow, xo, n))


@settings(max_examples=200, deadline=None)
@given(pairs, pairs, scalars)
def test_equality_and_hash_match_the_fraction_pair(x, y, s):
    xn, xo = both(x)
    yn, yo = both(y)
    sn, so = both((s, 0))
    assert (xn == yn) == (xo == yo) and (xn == xn + 0)
    assert (xn == s, s == xn) == (xo == s, s == xo)
    assert (sn == s, s == sn, hash(sn)) == (so == s, s == so, hash(so))
    # equal values hash alike across types, so a set holds them once
    assert hash(sn) == hash(s)
    assert {xn, yn, sn} == {xn + 0, yn * 1, sn - 0}
    assert len({sn, s}) == 1 and len({GaussianRational(x[0]), x[0]}) == 1
    assert (xn == 0.5) is False and outcome(operator.add, xn, 0.5)[0] is TypeError


def test_real_values_hash_as_int_and_fraction():
    for value in (0, 2, -7, Fraction(1, 3), Fraction(-22, 7)):
        assert hash(GaussianRational(value)) == hash(value)
        assert {GaussianRational(value): "exact"}.get(value) == "exact"
    assert hash(GaussianRational(2)) == hash(2) == hash(Fraction(2))


def test_inverting_zero_raises():
    zero = GaussianRational(0)
    with pytest.raises(ZeroDivisionError, match="division by exact zero"):
        zero.inverse()
    with pytest.raises(ZeroDivisionError, match="division by exact zero"):
        1 / zero
    with pytest.raises(ZeroDivisionError, match="division by exact zero"):
        GaussianRational(1, 2) / Fraction(0)
    with pytest.raises(ZeroDivisionError):
        zero ** -2


def test_values_are_immutable():
    g = GaussianRational(Fraction(1, 3), 2)
    for name in ("re", "im", "_a", "_b", "_d"):
        with pytest.raises(AttributeError):
            setattr(g, name, 5)
    assert (g._a, g._b, g._d) == (1, 6, 3)

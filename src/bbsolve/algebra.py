"""Exact and arbitrary-precision arithmetic kernel.

Number types
------------
Exact rationals are stdlib ``fractions.Fraction`` (already reduced, positive
denominator).  ``GaussianRational`` is an exact complex rational (a + b i)/d
held as one integer triple, d > 0 and gcd(a, b, d) = 1.  ``BigComplex`` is a
ball: a complex midpoint of configurable binary precision p carrying a
conservative absolute error bound.  A value known exactly is always a
GaussianRational; a BigComplex only ever stands for a value that is not.  Both
types answer the same arithmetic (``+ - * /``, ``**``, ``inverse()``, int and
Fraction operands, ``complex()``), so callers need not ask which one they
hold; a ball takes no float, complex or mpmath operand.
``AlgebraicNumber`` is an exact element of a radical extension
K = Q(i)[eta]/(eta^g - beta), x^g - beta irreducible over Q(i) (Capelli's
test, ``binomial_irreducible``): g Gaussian-integer coordinates over one
common denominator, read at one embedding eta -> eta_k (``Embedding``, a
closed-form root kept as a ball).  Its arithmetic is exact and meets only
Q(i) values and elements at its own embedding: a ball, or an element at
another embedding, raises TypeError.  ``is_exact`` still means Q(i) alone.

Ball arithmetic runs on raw ``mpmath.libmp`` tuples at p + 8 bits (p + 16
for roots), round-to-nearest, with no mpmath context or number objects per
arithmetic operation; ``val`` and ``err`` hand out mpmath objects.  It reproduces two
defects bit for bit until ROADMAP item 9 fixes them together with the
benchmark's numeric references: negation rounds the midpoint at mpmath's
ambient precision (53 bits by default) but keeps the radius, and adding an
exact zero still charges rounding slack.  This module is the only one that
imports mpmath.

Polynomials
-----------
``UPoly`` is a univariate polynomial with GaussianRational coefficients
(ascending coefficient tuple, no trailing zeros).  ``BiPoly`` is a bivariate
polynomial in (p, q) stored as a sparse map (deg_p, deg_q) -> coefficient
with no zero entries.  ``ZSeries`` is a dense truncated Laurent series on an
integer exponent grid, shared by the Puiseux branches and the Laurent germs.
Its products and inverses, and the germs' power recurrence, sum products
through ``dot``, which normalises an exact sum once rather than per term.

Root finding is simultaneous Aberth-Ehrlich iteration seeded on a circle,
followed by Newton polishing, with a-posteriori error disks from the
Weierstrass correction, on libmp tuples as well; exact rational/Gaussian-
rational roots are recognised and certified by exact back-substitution.
Linear factors, and quadratic factors whose roots lie in Q(i) where that
recognition would certify them, are solved in closed form instead.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import gcd, isqrt

import mpmath
from mpmath import mp
from mpmath.libmp import (fone, from_int, ftwo, fzero, mpc_abs, mpc_add, mpc_add_mpf,
                          mpc_div, mpc_expjpi, mpc_mpf_div, mpc_mul, mpc_mul_int,
                          mpc_mul_mpf, mpc_neg, mpc_sub, mpc_to_complex, mpf_abs, mpf_add,
                          mpf_div, mpf_eq, mpf_ge, mpf_gt, mpf_le, mpf_lt, mpf_mul,
                          mpf_mul_int, mpf_pos, mpf_pow_int, mpf_rdiv_int, mpf_shift,
                          mpf_sub, round_floor, round_nearest as _RND, to_int)

from .errors import DegenerateInput, PrecisionExhausted

DEFAULT_PREC = 256  # bits


def pochhammer(n, k):
    """Rising factorial n (n+1) ... (n+k-1); equals (k+n-1)!/(n-1)!.  k=0 gives 1."""
    if n < 1 or k < 0:
        raise ValueError("pochhammer requires n >= 1, k >= 0")
    out = 1
    for i in range(k):
        out *= n + i
    return out


def falling(e, k):
    """Falling factorial e (e-1) ... (e-k+1) of an integer exponent e."""
    out = 1
    for i in range(k):
        out *= e - i
    return out


class GaussianRational:
    """Exact complex rational (a + b i)/d, held as one integer triple.

    The normal form d > 0, gcd(a, b, d) = 1 gives equal values equal triples.
    An operation is integer arithmetic and one gcd; ``re`` and ``im`` are the
    reduced Fractions a/d and b/d."""

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re=0, im=0):
        if type(re) is int and type(im) is int:
            return _gr(re, im, 1)
        re, im = Fraction(re), Fraction(im)
        p, q = re.denominator, im.denominator
        return _gr(re.numerator * q, im.numerator * p, p * q)

    def __setattr__(self, *a):
        raise AttributeError("GaussianRational is immutable")

    @property
    def re(self):
        return Fraction(self._a, self._d)

    @property
    def im(self):
        return Fraction(self._b, self._d)

    # -- predicates ------------------------------------------------------
    def is_zero(self):
        return self._a == 0 and self._b == 0

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        o = _triple(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        if d == self._d:
            return _gr(self._a + a, self._b + b, d)
        return _gr(self._a * d + a * self._d, self._b * d + b * self._d, self._d * d)

    __radd__ = __add__

    def __neg__(self):
        return _gr(-self._a, -self._b, self._d)

    def __sub__(self, other):
        o = _triple(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        if d == self._d:
            return _gr(self._a - a, self._b - b, d)
        return _gr(self._a * d - a * self._d, self._b * d - b * self._d, self._d * d)

    def __rsub__(self, other):
        o = _triple(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        return _gr(a * self._d - self._a * d, b * self._d - self._b * d, d * self._d)

    def __mul__(self, other):
        o = _triple(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        sa, sb = self._a, self._b
        return _gr(sa * a - sb * b, sa * b + sb * a, self._d * d)

    __rmul__ = __mul__

    def inverse(self):
        return _quotient(1, 0, 1, self._a, self._b, self._d)

    def __truediv__(self, other):
        o = _triple(other)
        if o is None:
            return NotImplemented
        return _quotient(self._a, self._b, self._d, *o)

    def __rtruediv__(self, other):
        o = _triple(other)
        if o is None:
            return NotImplemented
        return _quotient(*o, self._a, self._b, self._d)

    def __pow__(self, n):
        return _power(self, n, GR_ONE)

    # -- conversions -----------------------------------------------------
    def to_mpc(self, prec=DEFAULT_PREC):
        re, im = self.re, self.im
        with mp.workprec(prec):
            return mpmath.mpc(mpmath.mpf(re.numerator) / re.denominator,
                              mpmath.mpf(im.numerator) / im.denominator)

    def __complex__(self):
        # int true division rounds a/d exactly as float(Fraction(a, d)) does
        return complex(self._a / self._d) + 1j * complex(self._b / self._d)

    def __eq__(self, other):
        o = _triple(other)
        if o is None:
            return NotImplemented
        return (self._a, self._b, self._d) == o      # normal forms on both sides

    def __hash__(self):
        if self._b == 0:       # a real value hashes as the equal int or Fraction
            return hash(self.re)
        if self._d == 1:       # an integer Fraction hashes as the integer
            return hash((self._a, self._b))
        return hash((self.re, self.im))

    def __repr__(self):
        re, im = self.re, self.im
        if im == 0:
            return f"GaussianRational({re})"
        return f"GaussianRational({re}, {im})"

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}*i"
        sign = "+" if im > 0 else "-"
        return f"({re} {sign} {abs(im)}*i)"


_set_a, _set_b, _set_d = (getattr(GaussianRational, slot).__set__
                          for slot in GaussianRational.__slots__)


def _power(x, n, one):
    """x^n for an int n by binary powering from ``one``, the 1 of x's own
    type (so a ball power keeps the bits of x); x^-n is (1/x)^n."""
    if not isinstance(n, int):
        return NotImplemented
    if n < 0:
        return x.inverse() ** (-n)
    while n:
        if n & 1:
            one = one * x
        n >>= 1
        if n:
            x = x * x
    return one


def _gr(a, b, d):
    """The Gaussian rational (a + b i)/d, d > 0, brought to normal form."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    out = object.__new__(GaussianRational)
    _set_a(out, a)
    _set_b(out, b)
    _set_d(out, d)
    return out


def _triple(x):
    """The normal-form triple of an exact operand; None for any other type."""
    if isinstance(x, GaussianRational):
        return x._a, x._b, x._d
    if isinstance(x, int):
        return x, 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    return None


def _quotient(a1, b1, d1, a2, b2, d2):
    """(a1 + b1 i)/d1 divided by (a2 + b2 i)/d2."""
    n = a2 * a2 + b2 * b2
    if n == 0:
        raise ZeroDivisionError("division by exact zero")
    return _gr((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, d1 * n)


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)


@lru_cache(maxsize=64)
def _ulps(prec):
    # conservative per-operation rounding slack: a few ulps of the magnitude,
    # as a power of two (exact at any precision)
    return mpf_shift(fone, 4 - prec)


_MPC_ZERO = (fzero, fzero)
_MPC_ONE = (fone, fzero)


class BigComplex:
    """Arbitrary-precision complex value with a conservative absolute error bound.

    A ball of midpoint ``val`` (an mpc) and radius ``err`` (an mpf): ``err``
    bounds the distance to the represented value, and every operation
    propagates it outward (never shrinks it).  Exact operands (int, Fraction,
    GaussianRational) are coerced through ``from_exact``; any other operand
    but a ball (a float, an mpmath number, an element of K) raises TypeError.

    The midpoint and radius are held as raw ``mpmath.libmp`` tuples.  An
    operation on balls of precision p calls libmp once per rounding at
    p + 8 bits (p + 16 in ``root``, which takes the b-th root itself with
    ``mpmath.root``), round-to-nearest: the same calls, in the same order,
    that mpmath objects make under ``mp.workprec(p + 8)``.
    A ball also keeps the modulus of its midpoint, which its rounding slack
    already needed, tagged with that working precision; a product reads it
    instead of taking the modulus of each operand again.

    Two defects are kept bit for bit until ROADMAP item 9 fixes them with
    the next change to the benchmark: negation (and so ``-``) rounds the
    midpoint at mpmath's ambient precision but keeps the radius, and adding
    an exact zero still charges rounding slack.  ``is_zero`` is evaluated
    at the ambient precision as well.
    """

    __slots__ = ("_v", "_e", "prec", "_mod")

    def __init__(self, val, err=0, prec=DEFAULT_PREC):
        # never reconstruct an existing mpc/mpf: mpmath would re-round it to
        # the ambient context precision
        if not isinstance(val, mpmath.mpc):
            with mp.workprec(int(prec) + 8):
                val = mpmath.mpc(val)
        if not isinstance(err, mpmath.mpf):
            with mp.workprec(64):
                err = mpmath.mpf(err)
        if mpf_lt(err._mpf_, fzero):
            raise ValueError("error bound must be nonnegative")
        _set_v(self, val._mpc_)
        _set_e(self, err._mpf_)
        _set_prec(self, int(prec))
        _set_mod(self, None)

    def __setattr__(self, *a):
        raise AttributeError("BigComplex is immutable")

    @property
    def val(self):
        return mp.make_mpc(self._v)

    @property
    def err(self):
        return mp.make_mpf(self._e)

    def _modulus(self, wp):
        """|val| rounded to wp bits: the kept one when it was taken at wp."""
        mod = self._mod
        if mod is not None and mod[0] == wp:
            return mod[1]
        return mpc_abs(self._v, wp, _RND)

    @staticmethod
    def from_exact(x, prec=DEFAULT_PREC):
        # equal values share one key whatever their exact type: 2 == Fraction(2)
        if isinstance(x, GaussianRational):
            return _exact_ball(x.re, x.im, prec)
        return _exact_ball(x, 0, prec)

    # -- coercion --------------------------------------------------------
    @staticmethod
    def _coerce(x, prec):
        if type(x) is BigComplex:
            return x
        if isinstance(x, (int, Fraction, GaussianRational)):
            return BigComplex.from_exact(x, prec)
        return None

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        o = self._coerce(other, self.prec)
        if o is None:
            return NotImplemented
        prec = max(self.prec, o.prec)
        wp = prec + 8
        v = mpc_add(self._v, o._v, wp, _RND)
        m = mpc_abs(v, wp, _RND)
        e = mpf_add(mpf_add(self._e, o._e, wp, _RND), mpf_mul(m, _ulps(prec), wp, _RND),
                    wp, _RND)
        return _ball(v, e, prec, (wp, m))

    __radd__ = __add__

    def __neg__(self):
        # rounds at the ambient precision (ROADMAP item 9)
        return _ball(mpc_neg(self._v, *mp._prec_rounding), self._e, self.prec, None)

    def __sub__(self, other):
        o = self._coerce(other, self.prec)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other, self.prec)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other, self.prec)
        if o is None:
            return NotImplemented
        prec = max(self.prec, o.prec)
        wp = prec + 8
        se, oe = self._e, o._e
        v = mpc_mul(self._v, o._v, wp, _RND)
        m = mpc_abs(v, wp, _RND)
        # |a| eb + |b| ea + ea eb + slack, summed left to right
        e = mpf_add(mpf_mul(self._modulus(wp), oe, wp, _RND),
                    mpf_mul(o._modulus(wp), se, wp, _RND), wp, _RND)
        e = mpf_add(e, mpf_mul(se, oe, wp, _RND), wp, _RND)
        e = mpf_add(e, mpf_mul(m, _ulps(prec), wp, _RND), wp, _RND)
        return _ball(v, e, prec, (wp, m))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other, self.prec)
        if o is None:
            return NotImplemented
        prec = max(self.prec, o.prec)
        wp = prec + 8
        denom_low = mpf_sub(o._modulus(wp), o._e, wp, _RND)
        if mpf_le(denom_low, fzero):
            raise PrecisionExhausted("division by a value not certified nonzero")
        v = mpc_div(self._v, o._v, wp, _RND)
        m = mpc_abs(v, wp, _RND)
        # (ea + |v| eb) / (|b| - eb) + slack
        e = mpf_add(self._e, mpf_mul(m, o._e, wp, _RND), wp, _RND)
        e = mpf_add(mpf_div(e, denom_low, wp, _RND), mpf_mul(m, _ulps(prec), wp, _RND),
                    wp, _RND)
        return _ball(v, e, prec, (wp, m))

    def __rtruediv__(self, other):
        o = self._coerce(other, self.prec)
        if o is None:
            return NotImplemented
        return o / self

    def inverse(self):
        return 1 / self

    def __pow__(self, n):
        return _power(self, n, _ball(_MPC_ONE, fzero, self.prec, None))

    def root(self, b, index=0):
        """One b-th root (mpmath determination rotated by the index-th unit root)."""
        prec = self.prec
        wp = prec + 16
        m = self._modulus(wp)
        if mpf_eq(m, fzero):
            return _ball(_MPC_ZERO, self._e, prec, None)
        if mpf_ge(mpf_mul_int(self._e, 2, wp, _RND), m):
            raise PrecisionExhausted("radicand not certified away from zero")
        with mp.workprec(wp):                   # the one transcendental step
            r = mpmath.root(self.val, b, k=index)._mpc_
        mr = mpc_abs(r, wp, _RND)
        # |r| (e / |val|) / b + slack
        e = mpf_mul(mr, mpf_div(self._e, m, wp, _RND), wp, _RND)
        e = mpf_add(mpf_div(e, from_int(b), wp, _RND), mpf_mul(mr, _ulps(prec), wp, _RND),
                    wp, _RND)
        return _ball(r, e, prec, (wp, mr))

    # -- predicates ------------------------------------------------------
    def is_zero(self):
        """Certified-zero flag: the disk contains zero."""
        prec, rnd = mp._prec_rounding
        return mpf_le(mpc_abs(self._v, prec, rnd), self._e)

    def __complex__(self):
        return mpc_to_complex(self._v, rnd=mp._prec_rounding[1])

    def __repr__(self):
        return f"BigComplex({mpmath.nstr(self.val, 17)}, err={mpmath.nstr(self.err, 3)})"


_set_v, _set_e, _set_prec, _set_mod = (getattr(BigComplex, slot).__set__
                                       for slot in BigComplex.__slots__)


def _ball(v, e, prec, mod):
    """The ball (v, e) at prec, modulus ``mod`` = (wp, |v| at wp) or None;
    built without ``__init__``'s conversions and checks."""
    out = object.__new__(BigComplex)
    _set_v(out, v)
    _set_e(out, e)
    _set_prec(out, prec)
    _set_mod(out, mod)
    return out


@lru_cache(maxsize=256)
def _exact_ball(re, im, prec):
    """The ball of re + i im, memoised: the same few exact operands (recurrence
    weights, coefficients of P) meet every numeric operation, and balls are
    immutable."""
    g = GaussianRational(re, im)
    wp = prec + 8
    v = g.to_mpc(wp)._mpc_
    m = mpc_abs(v, wp, _RND)
    e = mpf_mul(m, _ulps(prec), wp, _RND) if not _fraction_fits(g, prec) else fzero
    return _ball(v, e, prec, (wp, m))


def _fraction_fits(g, prec):
    # a Gaussian rational converts exactly when num/den are representable
    def fits(fr):
        d = fr.denominator
        return d & (d - 1) == 0 and fr.numerator.bit_length() <= prec
    return fits(g.re) and fits(g.im)


# ---------------------------------------------------------------------------
# the radical extension K = Q(i)[eta]/(eta^g - beta)
# ---------------------------------------------------------------------------

class Embedding:
    """eta -> eta_k: the field K = Q(i)[eta]/(eta^g - beta), g >= 2, with
    x^g - beta irreducible over Q(i), and one root of x^g = beta.

    ``eta`` is the closed-form root ``BigComplex.root(g, index)`` of the ball
    of beta at ``prec``: mpmath's principal g-th root turned by
    e^(2 pi i index/g).  Embeddings are equal when g, beta and index are."""

    __slots__ = ("g", "beta", "index", "eta", "prec", "_bt", "_powers")

    def __init__(self, g, beta, index, prec=DEFAULT_PREC):
        self.g, self.beta, self.index, self.prec = g, beta, index, prec
        self._bt = (beta._a, beta._b, beta._d)
        self.eta = BigComplex.from_exact(beta, prec).root(g, index=index)
        self._powers = [None, self.eta]

    def power(self, r):
        """eta_k^r as a ball, 1 <= r < g, each power built once."""
        pw = self._powers
        while len(pw) <= r:
            pw.append(pw[-1] * self.eta)
        return pw[r]

    def same_field(self, other):
        return self.g == other.g and self.beta == other.beta

    def __eq__(self, other):
        if not isinstance(other, Embedding):
            return NotImplemented
        return self is other or (self.index == other.index and self.same_field(other))

    def __hash__(self):
        return hash((self.g, self.beta, self.index))

    def __repr__(self):
        return f"Embedding(eta^{self.g} = {self.beta}, index {self.index})"


class AlgebraicNumber:
    """An exact element x = sum_{r<g} x_r eta^r of K = Q(i)[eta]/(eta^g - beta),
    read at one embedding eta -> eta_k.

    The coordinates are Gaussian integers (re[r] + i im[r]) over one common
    denominator d > 0, with the gcd of all of them and d equal to 1, so equal
    elements have equal coordinates.  They are held in two lists that are
    never changed once built (conjugates share them); lists, not tuples,
    because a germ frees thousands at once, and CPython keeps up to 2000
    freed tuples of each small size for reuse.
    ``+ - * /``, ``**`` and ``inverse`` are exact
    and never read the embedding: operands at one embedding, or exact Q(i)
    values, give an element at that embedding.  An operand at another
    embedding, or a ball, raises TypeError; ``==`` holds across embeddings
    only for equal values of Q(i).  ``to_ball()`` reads the element as a
    ball, and ``complex()`` evaluates the embedding at its precision and
    rounds to a double, as ``complex()`` of a ball rounds its midpoint."""

    __slots__ = ("_re", "_im", "_d", "_emb")

    def __setattr__(self, *a):
        raise AttributeError("AlgebraicNumber is immutable")

    @staticmethod
    def generator(emb):
        """eta itself, read at ``emb``."""
        re = [0] * emb.g
        re[1] = 1
        return _alg_raw(re, [0] * emb.g, 1, emb)

    def coordinates(self):
        """[x_0, ..., x_{g-1}] as GaussianRationals."""
        d = self._d
        return [_gr(a, b, d) for a, b in zip(self._re, self._im)]

    def at(self, emb):
        """The same coordinates read at another embedding of the field."""
        if not emb.same_field(self._emb):
            raise ValueError("an embedding of another field")
        return _alg_raw(self._re, self._im, self._d, emb)

    def is_zero(self):
        return not any(self._re) and not any(self._im)

    def to_ball(self):
        """sum x_r eta_k^r as a ball at the embedding's precision."""
        emb, d = self._emb, self._d
        acc = None
        for r, (a, b) in enumerate(zip(self._re, self._im)):
            if a == 0 and b == 0:
                continue
            term = BigComplex.from_exact(_gr(a, b, d), emb.prec)
            if r:
                term = term * emb.power(r)
            acc = term if acc is None else acc + term
        return acc if acc is not None else _ball(_MPC_ZERO, fzero, emb.prec, None)

    def _operand(self, other):
        """(re, im, d) of ``other`` in this field at this embedding; None for
        an element at another embedding; NotImplemented for any other type."""
        if type(other) is AlgebraicNumber:
            if other._emb is self._emb or other._emb == self._emb:
                return other._re, other._im, other._d
            return None
        t = _triple(other)
        if t is None:
            return NotImplemented
        zeros = [0] * (self._emb.g - 1)
        return [t[0]] + zeros, [t[1]] + zeros, t[2]

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        o = self._operand(other)
        if o is None or o is NotImplemented:
            return NotImplemented
        return _alg_sum(self._re, self._im, self._d, *o, 1, self._emb)

    __radd__ = __add__

    def __neg__(self):
        return _alg_raw([-a for a in self._re], [-b for b in self._im],
                        self._d, self._emb)

    def __sub__(self, other):
        o = self._operand(other)
        if o is None or o is NotImplemented:
            return NotImplemented
        return _alg_sum(self._re, self._im, self._d, *o, -1, self._emb)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        t = _triple(other)
        if t is not None:                      # an exact Q(i) scalar
            a, b, d = t
            return _alg([a * x - b * y for x, y in zip(self._re, self._im)],
                        [a * y + b * x for x, y in zip(self._re, self._im)],
                        self._d * d, self._emb)
        o = self._operand(other)
        if o is None or o is NotImplemented:
            return NotImplemented
        return _alg_product(self, *o)

    __rmul__ = __mul__

    def inverse(self):
        """x^-1 from the linear system M(x) v = e_0, M(x) the matrix of
        multiplication by x in the basis 1, eta, ..., eta^(g-1)."""
        if self.is_zero():
            raise ZeroDivisionError("division by exact zero")
        g = self._emb.g
        br, bi, bd = self._emb._bt
        cols, re, im, d = [], self._re, self._im, self._d
        for _ in range(g):
            cols.append([_gr(a, b, d) for a, b in zip(re, im)])
            # times eta: shift up, the top coordinate wraps around times beta
            ta, tb = re[-1], im[-1]
            re = [ta * br - tb * bi] + [a * bd for a in re[:-1]]
            im = [ta * bi + tb * br] + [b * bd for b in im[:-1]]
            d *= bd
        rows = [[cols[s][t] for s in range(g)] for t in range(g)]
        v = solve_linear(rows, [GR_ONE] + [GR_ZERO] * (g - 1))
        den = 1
        for x in v:
            den = den * x._d // gcd(den, x._d)
        return _alg([x._a * (den // x._d) for x in v],
                    [x._b * (den // x._d) for x in v], den, self._emb)

    def __truediv__(self, other):
        t = _triple(other)
        if t is not None:
            return self * _quotient(1, 0, 1, *t)
        o = self._operand(other)
        if o is None or o is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        if _triple(other) is None:
            return NotImplemented
        return self.inverse() * other

    def __pow__(self, n):
        g = self._emb.g
        return _power(self, n, _alg_raw([1] + [0] * (g - 1), [0] * g, 1, self._emb))

    # -- conversions -----------------------------------------------------
    def __complex__(self):
        return complex(self.to_ball())

    def _in_gaussian(self):
        """x_0 when every other coordinate is zero, else None."""
        if any(self._re[1:]) or any(self._im[1:]):
            return None
        return _gr(self._re[0], self._im[0], self._d)

    def __eq__(self, other):
        o = self._operand(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:       # another embedding: equal only inside Q(i)
            mine = self._in_gaussian()
            return mine is not None and mine == other._in_gaussian()
        return (self._re, self._im, self._d) == o        # normal forms on both sides

    def __hash__(self):
        g = self._in_gaussian()
        if g is not None:
            return hash(g)
        return hash((tuple(self._re), tuple(self._im), self._d, self._emb))

    def __repr__(self):
        return (f"AlgebraicNumber({eta_str([str(x) for x in self.coordinates()])} at "
                f"{self._emb!r})")


_set_re, _set_im, _set_ad, _set_emb = (getattr(AlgebraicNumber, slot).__set__
                                       for slot in AlgebraicNumber.__slots__)


def _alg_raw(re, im, d, emb):
    """The element with coordinates already in normal form."""
    out = object.__new__(AlgebraicNumber)
    _set_re(out, re)
    _set_im(out, im)
    _set_ad(out, d)
    _set_emb(out, emb)
    return out


def _alg(re, im, d, emb):
    """The element (re + i im)/d, d > 0, brought to normal form."""
    g = gcd(*re, *im, d)
    if g != 1:
        re = [a // g for a in re]
        im = [b // g for b in im]
        d //= g
    return _alg_raw(re, im, d, emb)


def _alg_sum(re1, im1, d1, re2, im2, d2, sign, emb):
    """(re1 + i im1)/d1 + sign (re2 + i im2)/d2."""
    if d1 == d2:
        return _alg([a + sign * b for a, b in zip(re1, re2)],
                    [a + sign * b for a, b in zip(im1, im2)], d1, emb)
    return _alg([a * d2 + sign * b * d1 for a, b in zip(re1, re2)],
                [a * d2 + sign * b * d1 for a, b in zip(im1, im2)], d1 * d2, emb)


def _alg_product(x, re2, im2, d2):
    """x times (re2 + i im2)/d2, reduced by eta^g = beta."""
    g = x._emb.g
    pr, pi = [0] * (2 * g - 1), [0] * (2 * g - 1)
    _convolve(pr, pi, x._re, x._im, re2, im2, 1)
    return _alg_reduce(pr, pi, x._d, d2, x._emb)


def _convolve(pr, pi, re1, im1, re2, im2, w):
    """Add w (re1 + i im1)(re2 + i im2), as polynomials in eta, to (pr, pi)."""
    for r, (a, b) in enumerate(zip(re1, im1)):
        if a == 0 and b == 0:
            continue
        for s, (c, e) in enumerate(zip(re2, im2)):
            if c == 0 and e == 0:
                continue
            pr[r + s] += (a * c - b * e) * w
            pi[r + s] += (a * e + b * c) * w


def _alg_reduce(pr, pi, d1, d2, emb):
    """The element (pr + i pi)/(d1 d2), pr and pi of length at most 2g - 1,
    reduced by eta^(t+g) = beta eta^t over the common denominator bd."""
    g = emb.g
    br, bi, bd = emb._bt
    re = [u * bd for u in pr[:g]]
    im = [v * bd for v in pi[:g]]
    for t in range(len(pr) - g):
        u, v = pr[t + g], pi[t + g]
        if u or v:
            re[t] += u * br - v * bi
            im[t] += u * bi + v * br
    return _alg(re, im, d1 * d2 * bd, emb)


# ---------------------------------------------------------------------------
# fused multiply-accumulate
# ---------------------------------------------------------------------------

_OTHER = object()       # an operand the exact sums below do not take
_FIELD = object()       # an element of K, for _dot_field
_ONES = repeat(1)


def dot(xs, ys, ws=None, div=1, from_zero=False):
    """(sum_i xs[i] ys[i] ws[i]) / div over two sequences of coefficients,
    small int weights ``ws`` (None: no weights) and an int ``div``, skipping
    a term with an exact-zero factor or a zero weight.  None when no term is
    left, unless ``from_zero``, which gives GR_ZERO then.

    Over Q(i), or over K at one embedding with Q(i) operands at coordinate
    0, the products are summed as integer numerators over a running common
    denominator, reduced by eta^g = beta once and normalised with one gcd:
    the normal form of the term-by-term sum, with no object per term.  Any
    other operand (a ball, an int or a Fraction) sends the whole sum through
    the per-operation path, in the order callers always used: each (x y) w
    added left to right onto the first term, or onto GR_ZERO under
    ``from_zero`` (a sum of balls then charges the slack of adding an exact
    zero, ROADMAP item 9), then times 1/div, so no numeric bit moves.  A sum
    that mixes K with a ball or with another embedding raises TypeError
    there, as the operators do."""
    weights = _ONES if ws is None else ws
    out = _dot_gaussian(xs, ys, weights, div)
    if out is _FIELD:
        out = _dot_field(xs, ys, weights, div)
    if out is _OTHER:
        out = GR_ZERO if from_zero else None
        for x, y, w in zip(xs, ys, weights):
            if w and not _is_exact_zero(x) and not _is_exact_zero(y):
                t = x * y if ws is None else x * y * w
                out = t if out is None else out + t
        return out if div == 1 or out is None else out * Fraction(1, div)
    return GR_ZERO if out is None and from_zero else out


def _dot_gaussian(xs, ys, ws, div):
    """The sum when every operand is a GaussianRational; else _FIELD at an
    element of K, _OTHER at any other operand."""
    A = B = 0
    D = 1
    kept = False
    for x, y, w in zip(xs, ys, ws):
        if x is GR_ZERO or y is GR_ZERO:
            continue
        if type(x) is not GaussianRational or type(y) is not GaussianRational:
            return _FIELD if AlgebraicNumber in (type(x), type(y)) else _OTHER
        a, b, c, e = x._a, x._b, y._a, y._b
        if (a == 0 and b == 0) or (c == 0 and e == 0) or not w:
            continue
        q = x._d * y._d
        if q != D:
            s, r = divmod(D, q)
            if r:                       # D becomes lcm(D, q) = D q / g
                g = gcd(r, q)
                t = q // g
                A, B, D, s = A * t, B * t, D * t, s * t + r // g
            w *= s
        A += (a * c - b * e) * w
        B += (a * e + b * c) * w
        kept = True
    return _gr(A, B, D * div) if kept else None


def _dot_field(xs, ys, ws, div):
    """The sum when every operand of a kept term is a GaussianRational or
    an element of K at one embedding, else _OTHER."""
    emb, D, pr, pi, kept = None, 1, [], [], False
    for x, y, w in zip(xs, ys, ws):
        if not w or _is_exact_zero(x) or _is_exact_zero(y):
            continue
        vecs = []
        for v in (x, y):
            if type(v) is GaussianRational:
                vecs.append(((v._a,), (v._b,), v._d))
            elif type(v) is AlgebraicNumber and (emb is None or v._emb is emb
                                                 or v._emb == emb):
                emb = v._emb
                vecs.append((v._re, v._im, v._d))
            else:
                return _OTHER
        (r1, i1, d1), (r2, i2, d2) = vecs
        q = d1 * d2
        if q != D:
            s, r = divmod(D, q)
            if r:
                g = gcd(r, q)
                t = q // g
                D, s = D * t, s * t + r // g
                pr, pi = [u * t for u in pr], [u * t for u in pi]
            w *= s
        grow = len(r1) + len(r2) - 1 - len(pr)
        if grow > 0:
            pr, pi = pr + [0] * grow, pi + [0] * grow
        _convolve(pr, pi, r1, i1, r2, i2, w)
        kept = True
    if not kept:
        return None
    return _gr(pr[0], pi[0], D * div) if emb is None else _alg_reduce(pr, pi, D, div, emb)


def eta_str(coords):
    """x_0 + x_1*eta + ... from the text of each coordinate; 0 when all
    vanish."""
    parts = []
    for r, t in enumerate(coords):
        if t == "0":
            continue
        power = "" if r == 0 else "eta" if r == 1 else f"eta^{r}"
        if not power:
            parts.append(t)
        elif t == "1":
            parts.append(power)
        else:
            parts.append(f"{t}*{power}")
    return " + ".join(parts) if parts else "0"


def _primes(g):
    out, p = [], 2
    while p * p <= g:
        if g % p == 0:
            out.append(p)
            while g % p == 0:
                g //= p
        p += 1
    return out + [g] if g > 1 else out


def _gauss_pow(a, b, p):
    ra, rb = 1, 0
    for _ in range(p):
        ra, rb = ra * a - rb * b, ra * b + rb * a
    return ra, rb


def is_pth_power(beta, p):
    """Whether the Gaussian rational beta = (a + b i)/d is a p-th power in
    Q(i): exactly when (a + b i) d^(p-1) is the p-th power of a Gaussian
    integer, found by rounding the p numeric p-th roots and checked exactly."""
    scale = beta._d ** (p - 1)
    na, nb = beta._a * scale, beta._b * scale
    with mp.workprec(max(abs(na), abs(nb)).bit_length() // p + 64):
        z = mpmath.mpc(na, nb)
        for k in range(p):
            r = mpmath.root(z, p, k=k)
            ca, cb = int(mpmath.nint(r.real)), int(mpmath.nint(r.imag))
            if _gauss_pow(ca, cb, p) == (na, nb):
                return True
    return False


def binomial_irreducible(beta, g):
    """Capelli's criterion (Lang, Algebra VI 9) for x^g - beta over Q(i):
    irreducible iff beta is no p-th power for any prime p | g, and not in
    -4 Q(i)^4 when 4 | g.  Since -4 = (1 + i)^4, that last clause is the
    test for p = 2."""
    return not any(is_pth_power(beta, p) for p in _primes(g))


def radical_roots(value, g, precision=DEFAULT_PREC):
    """The g roots of x^g = value as the one symbolic eta of
    K = Q(i)[eta]/(eta^g - value), read at each of its g embeddings, ordered
    by the embedded values as roots_univariate orders its roots.  None
    unless g >= 2, value is exact and x^g - value is irreducible over Q(i)."""
    if g < 2 or not is_exact(value):
        return None
    beta = as_gaussian(value)
    if not binomial_irreducible(beta, g):
        return None
    embs = sorted((Embedding(g, beta, k, precision) for k in range(g)),
                  key=lambda e: _root_key(e.eta))
    return [AlgebraicNumber.generator(e) for e in embs]


def field_of(x):
    """The embedding of an element of K; None for any other value."""
    return x._emb if type(x) is AlgebraicNumber else None


def same_coordinates(x, y):
    """Whether x and y hold the same exact value up to the embedding: equal
    coordinates in one field for elements of K, equal exact values otherwise.
    A ball is never the same: it was computed at one embedding only."""
    if type(x) is AlgebraicNumber and type(y) is AlgebraicNumber:
        return (x._emb.same_field(y._emb) and x._d == y._d
                and x._re == y._re and x._im == y._im)
    return is_exact(x) and is_exact(y) and x == y


def is_exact(x):
    return isinstance(x, (int, Fraction, GaussianRational))


def as_gaussian(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    raise TypeError(f"not an exact value: {x!r}")


def coeff_is_zero(x):
    """Certified-zero test across the coefficient union type."""
    if isinstance(x, (int, Fraction)):
        return x == 0
    if isinstance(x, (GaussianRational, AlgebraicNumber, BigComplex)):
        return x.is_zero()
    raise TypeError(f"unsupported coefficient {x!r}")


def coeff_to_mpc(x, prec=DEFAULT_PREC):
    if isinstance(x, BigComplex):
        return x.val
    if is_exact(x):
        return as_gaussian(x).to_mpc(prec)
    return mpmath.mpc(x)


def coeff_err(x):
    return x.err if isinstance(x, BigComplex) else mpmath.mpf(0)


# ---------------------------------------------------------------------------
# integer-grid Laurent series
# ---------------------------------------------------------------------------

_BIGN = 10 ** 9


def _is_exact_zero(c):
    if type(c) is BigComplex:
        return False  # numeric values are kept even when tiny
    if isinstance(c, (GaussianRational, AlgebraicNumber)):
        return c.is_zero()
    if isinstance(c, (int, Fraction)):
        return c == 0
    return False


class ZSeries:
    """sum coeffs[i] * z^(start + i), coefficients valid through exponent valid_to.

    The one truncated-series type: z is the pole coordinate of a Laurent germ,
    or u = t^(1/m) on a Puiseux place of ramification m, whose exponents lie
    on (1/m)Z.  Coefficients past valid_to may be stored; they carry no
    guarantee.
    """

    __slots__ = ("start", "coeffs", "valid_to")

    def __init__(self, start, coeffs, valid_to=_BIGN):
        cs = list(coeffs)
        lead = 0
        while lead < len(cs) and _is_exact_zero(cs[lead]):
            lead += 1
        cs = cs[lead:]
        start += lead
        while cs and _is_exact_zero(cs[-1]):
            cs.pop()
        self.start = start
        self.coeffs = cs
        self.valid_to = valid_to

    @staticmethod
    def zero(valid_to=_BIGN):
        return ZSeries(0, [], valid_to)

    @staticmethod
    def one():
        return ZSeries(0, [GR_ONE])

    def coeff(self, e):
        i = e - self.start
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return GR_ZERO

    def truncate(self, hi):
        n = hi - self.start + 1
        return ZSeries(self.start, self.coeffs[:max(n, 0)], min(self.valid_to, hi))

    def __add__(self, other):
        vt = min(self.valid_to, other.valid_to)
        if not self.coeffs:
            return ZSeries(other.start, other.coeffs, vt)
        if not other.coeffs:
            return ZSeries(self.start, self.coeffs, vt)
        start = min(self.start, other.start)
        end = max(self.start + len(self.coeffs), other.start + len(other.coeffs))
        out = [GR_ZERO] * (end - start)
        for i, c in enumerate(self.coeffs):
            out[self.start - start + i] = c
        for i, c in enumerate(other.coeffs):
            j = other.start - start + i
            out[j] = out[j] + c
        return ZSeries(start, out, vt)

    def __neg__(self):
        return ZSeries(self.start, [-c for c in self.coeffs], self.valid_to)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c, shift=0):
        return ZSeries(self.start + shift, [x * c for x in self.coeffs], self.valid_to + shift)

    def mul(self, other, cap=None):
        if not self.coeffs or not other.coeffs:
            a_lead = self.start if self.coeffs else self.valid_to
            b_lead = other.start if other.coeffs else other.valid_to
            return ZSeries.zero(min(self.valid_to + b_lead, other.valid_to + a_lead))
        vt = min(self.valid_to + other.start, other.valid_to + self.start)
        if cap is not None:
            vt = min(vt, cap)
        start = self.start + other.start
        width = min(len(self.coeffs) + len(other.coeffs) - 1, vt - start + 1)
        if width <= 0:
            return ZSeries.zero(vt)
        b, lb = other.coeffs, len(other.coeffs)
        ia = [i for i, c in enumerate(self.coeffs) if not _is_exact_zero(c)]
        ca = [self.coeffs[i] for i in ia]
        out = []
        for k in range(width):      # sum a[i] b[k - i] over the nonzero a[i]
            lo, hi = bisect_left(ia, k - lb + 1), bisect_right(ia, k)
            out.append(dot(ca[lo:hi], [b[k - i] for i in ia[lo:hi]], from_zero=True))
        return ZSeries(start, out, vt)

    def __mul__(self, other):
        return self.mul(other)

    def pow_int(self, e, cap=None):
        if e < 0:
            return self.inverse(cap=cap).pow_int(-e, cap=cap)
        out = ZSeries.one()
        base = self
        while e:
            if e & 1:
                out = out.mul(base, cap=cap)
            e >>= 1
            if e:
                base = base.mul(base, cap=cap)
        return out

    def inverse(self, cap=None):
        if not self.coeffs:
            raise ZeroDivisionError("inverting a series with no visible terms")
        e0 = self.start
        c0 = self.coeffs[0]
        rel = self.valid_to - e0
        if cap is not None:
            rel = min(rel, cap + e0)
        rel = min(rel, _BIGN)
        inv0 = c0.inverse() if isinstance(c0, GaussianRational) else 1 / c0
        # multiply by -1 rather than negate: BigComplex negation rounds
        neg_inv0 = inv0 * GaussianRational(-1)
        nterms = int(rel) + 1 if rel < _BIGN else len(self.coeffs) * 4 + 8
        out = [GR_ZERO] * max(nterms, 1)
        out[0] = inv0
        js = [j for j, a in enumerate(self.coeffs) if j and not _is_exact_zero(a)]
        cs = [self.coeffs[j] for j in js]
        for idx in range(1, len(out)):
            top = bisect_right(js, idx)
            acc = dot(cs[:top], [out[idx - j] for j in js[:top]])
            out[idx] = acc * neg_inv0 if acc is not None else GR_ZERO
        return ZSeries(-e0, out, rel - e0)

    def derivative(self):
        out = [c * (self.start + i) for i, c in enumerate(self.coeffs)]
        return ZSeries(self.start - 1, out, self.valid_to - 1)

    def derivative_n(self, k):
        s = self
        for _ in range(k):
            s = s.derivative()
        return s

    def items(self):
        return [(self.start + i, c) for i, c in enumerate(self.coeffs)]

    def first_noncertified_zero(self):
        """Smallest exponent <= valid_to whose coefficient is not certified zero."""
        for i, c in enumerate(self.coeffs):
            e = self.start + i
            if e > self.valid_to:
                break
            if not coeff_is_zero(c):
                return e
        return None

    def __repr__(self):
        parts = [f"{c}*z^{self.start + i}" for i, c in enumerate(self.coeffs[:6])]
        return f"ZSeries({' + '.join(parts)}{' + ...' if len(self.coeffs) > 6 else ''})"


# ---------------------------------------------------------------------------
# univariate polynomials over the Gaussian rationals
# ---------------------------------------------------------------------------

class UPoly:
    """Univariate polynomial with exact GaussianRational coefficients.

    Coefficients ascending; no stored trailing zeros; () is the zero
    polynomial.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, GaussianRational) else GaussianRational(c)
              for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("UPoly is immutable")

    @staticmethod
    def monomial(deg, coeff=GR_ONE):
        return UPoly([GR_ZERO] * deg + [coeff])

    @staticmethod
    def constant(c):
        return UPoly([c])

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else -1

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else GR_ZERO

    def lc(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        if not isinstance(other, UPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, UPoly):
            other = UPoly.constant(as_gaussian(other))
        n = max(len(self.coeffs), len(other.coeffs))
        return UPoly([self[i] + other[i] for i in range(n)])

    def __neg__(self):
        return UPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, UPoly):
            other = UPoly.constant(as_gaussian(other))
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return UPoly([c * other for c in self.coeffs])
        if not isinstance(other, UPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return UPoly()
        out = [GR_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UPoly(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        quo = [GR_ZERO] * max(0, len(rem) - len(other.coeffs) + 1)
        dlc = other.lc().inverse()
        db = other.degree()
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c.is_zero():
                continue
            f = c * dlc
            quo[i - db] = f
            for j, b in enumerate(other.coeffs):
                rem[i - db + j] = rem[i - db + j] - f * b
        return UPoly(quo), UPoly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero():
            return self
        inv = self.lc().inverse()
        return UPoly([c * inv for c in self.coeffs])

    def derivative(self):
        return UPoly([self.coeffs[i] * i for i in range(1, len(self.coeffs))])

    def integrate(self):
        """Antiderivative with zero constant term."""
        return UPoly([GR_ZERO] + [c * Fraction(1, i + 1)
                                  for i, c in enumerate(self.coeffs)])

    def eval(self, x):
        """Horner evaluation; works for exact and BigComplex arguments."""
        if not self.coeffs:
            return GR_ZERO if is_exact(x) else BigComplex(0, 0)
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def squarefree_decomposition(self):
        """Yun's algorithm: list of (factor, multiplicity), factors monic squarefree."""
        if self.degree() < 1:
            return []
        f = self.monic()
        fp = f.derivative()
        a = f.gcd(fp)
        if a.degree() == 0:
            return [(f, 1)]
        out = []
        b = f // a
        c = fp // a
        d = c - b.derivative()
        i = 1
        while b.degree() >= 1:
            a_i = b.gcd(d)
            if a_i.degree() >= 1:
                out.append((a_i.monic(), i))
            b = b // a_i
            c = d // a_i
            d = c - b.derivative()
            i += 1
        return out

    def shift_valuation(self):
        """Split x^v: returns (v, self // x^v)."""
        v = 0
        while v < len(self.coeffs) and self.coeffs[v].is_zero():
            v += 1
        if v == 0:
            return 0, self
        return v, UPoly(self.coeffs[v:])

    def __repr__(self):
        return f"UPoly({list(self.coeffs)!r})"


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

def _aberth(coeffs_mpc, prec, coeff_err_bound):
    """All roots of a (near-)squarefree monic polynomial given by mpc coefficients.

    Returns list of (mpc root, mpf error radius).  Raises PrecisionExhausted
    only when two root estimates coincide; whether the a-posteriori disks
    are disjoint is the caller's test.  The iteration runs on
    libmp tuples at prec + 32 bits and the Newton polish at 2 prec + 32,
    round-to-nearest, with the calls mpmath objects make at those precisions.
    """
    d = len(coeffs_mpc) - 1
    wp = prec + 32
    lc = coeffs_mpc[-1]._mpc_
    cs = [mpc_div(c._mpc_, lc, wp, _RND) for c in coeffs_mpc]
    if d == 1:
        r = mpc_neg(cs[0], wp, _RND)
        e = mpf_mul(mpf_add(mpc_abs(r, wp, _RND), fone, wp, _RND), _ulps(prec), wp, _RND)
        e = mpf_add(e, coeff_err_bound._mpf_, wp, _RND)
        return [(mp.make_mpc(r), mp.make_mpf(e))]
    radius = mpc_abs(cs[0], wp, _RND)
    for c in cs[1:-1]:
        m = mpc_abs(c, wp, _RND)
        radius = m if mpf_gt(m, radius) else radius
    radius = mpf_add(radius, fone, wp, _RND)
    # deterministic start: slightly detuned circle to break symmetries
    z = []
    for k in range(d):
        t = mpf_add(mpf_div(from_int(k), from_int(d), wp, _RND),
                    mpf_div(fone, from_int(2 * d), wp, _RND), wp, _RND)
        t = mpf_mul_int(mpf_add(t, mpf_div(fone, from_int(257), wp, _RND), wp, _RND),
                        2, wp, _RND)
        z.append(mpc_mul_mpf(mpc_expjpi((t, fzero), wp, _RND), radius, wp, _RND))
    dcs = [mpc_mul_int(cs[i], i, wp, _RND) for i in range(1, d + 1)]
    nudge = mpf_add(mpf_div(fone, from_int(1000), wp, _RND), fone, wp, _RND)
    target = mpf_pow_int(ftwo, -(prec + 8), wp, _RND)
    for _ in range(400):
        moved = fzero
        for i in range(d):
            zi = z[i]
            f = _horner(cs, zi, wp)
            fp = _horner(dcs, zi, wp)
            if fp == _MPC_ZERO:
                z[i] = mpc_mul_mpf(zi, nudge, wp, _RND)
                step = mpf_div(mpc_abs(z[i], wp, _RND), from_int(1000), wp, _RND)
                moved = step if mpf_gt(step, moved) else moved
                continue
            w = mpc_div(f, fp, wp, _RND)
            s = _MPC_ZERO
            for j in range(d):
                if j != i:
                    dz = mpc_sub(zi, z[j], wp, _RND)
                    if dz == _MPC_ZERO:
                        dz = mpf_mul(mpf_pow_int(ftwo, -prec, wp, _RND),
                                     mpf_add(mpc_abs(zi, wp, _RND), fone, wp, _RND),
                                     wp, _RND)
                        s = mpc_add_mpf(s, mpf_rdiv_int(1, dz, wp, _RND), wp, _RND)
                    else:
                        s = mpc_add(s, mpc_mpf_div(fone, dz, wp, _RND), wp, _RND)
            den = mpc_sub(_MPC_ONE, mpc_mul(w, s, wp, _RND), wp, _RND)
            delta = w if den == _MPC_ZERO else mpc_div(w, den, wp, _RND)
            z[i] = mpc_sub(zi, delta, wp, _RND)
            step = mpc_abs(delta, wp, _RND)
            moved = step if mpf_gt(step, moved) else moved
        if mpf_lt(moved, mpf_mul(target, radius, wp, _RND)):
            break
    # Newton polishing at doubled working precision
    wp = 2 * prec + 32
    for i in range(d):
        x = z[i]
        for _ in range(3):
            f = _horner(cs, x, wp)
            fp = _horner(dcs, x, wp)
            if fp == _MPC_ZERO:
                break
            x = mpc_sub(x, mpc_div(f, fp, wp, _RND), wp, _RND)
        z[i] = x
    err_bound = coeff_err_bound._mpf_
    out = []
    for i in range(d):
        zi = z[i]
        f = _horner(cs, zi, wp)
        prod = _MPC_ONE
        for j in range(d):
            if j != i:
                prod = mpc_mul(prod, mpc_sub(zi, z[j], wp, _RND), wp, _RND)
        if prod == _MPC_ZERO:
            raise PrecisionExhausted("coincident root estimates")
        e = mpf_mul_int(mpc_abs(mpc_div(f, prod, wp, _RND), wp, _RND), d, wp, _RND)
        mod_z1 = mpf_add(mpc_abs(zi, wp, _RND), fone, wp, _RND)
        if mpf_gt(err_bound, fzero):
            fp = mpc_abs(_horner(dcs, zi, wp), wp, _RND)
            if mpf_gt(fp, fzero):
                grow = mpf_mul(err_bound, mpf_pow_int(mod_z1, d, wp, _RND), wp, _RND)
                e = mpf_add(e, mpf_div(grow, fp, wp, _RND), wp, _RND)
        e = mpf_add(e, mpf_mul(mod_z1, _ulps(2 * prec), wp, _RND), wp, _RND)
        out.append((mp.make_mpc(zi), mp.make_mpf(e)))
    return out


def _horner(c, x, wp):
    acc = c[-1]
    for cc in reversed(c[:-1]):
        acc = mpc_add(mpc_mul(acc, x, wp, _RND), cc, wp, _RND)
    return acc


# The denominator bounds _try_exactify tries in turn; a root in Q(i) whose
# real or imaginary part needs a larger denominator stays a ball.
_EXACTIFY_DENOMINATORS = (1, 2, 6, 12, 60, 720, 10 ** 4, 10 ** 6, 10 ** 9, 10 ** 12)


def _try_exactify(root_mpc, radius, upoly, reach):
    """Recognise a numeric root as an exact Gaussian rational root of upoly,
    no farther than ``reach`` from it."""
    with mp.workprec(mp.prec + 16):
        window = min(radius * 4 + mpmath.mpf(2) ** (-40), reach)
        re_f = _mpf_to_fraction(root_mpc.real)
        im_f = _mpf_to_fraction(root_mpc.imag)
        for bound in _EXACTIFY_DENOMINATORS:
            cand = GaussianRational(re_f.limit_denominator(bound),
                                    im_f.limit_denominator(bound))
            delta = cand.to_mpc(mp.prec) - root_mpc
            if abs(delta) <= window and upoly.eval(cand).is_zero():
                return cand
    return None


def _mpf_to_fraction(x):
    if x == 0:
        return Fraction(0)
    sign, man, exp, _ = mpmath.mpf(x)._mpf_
    man = -man if sign else man
    if exp >= 0:
        return Fraction(int(man) << exp)
    return Fraction(int(man), 1 << (-exp))


def roots_univariate(poly, precision=DEFAULT_PREC):
    """All complex roots with multiplicity, each with an error radius.

    Accepts a UPoly (exact coefficients) or a list of coefficients (ascending;
    exact values and/or BigComplex).  Roots come back in the order of
    _root_key (real part, then imaginary part, on a 2^-40 grid, with a part
    that a ball holds 0 counting as 0): a root certified exact is a
    GaussianRational, every other root a BigComplex disk.  A root of a
    linear factor, and the roots in Q(i) of a quadratic factor, come in
    closed form (_quadratic_roots, exactly where back-substitution would
    certify them); the rest come from Aberth and back-substitution.  For
    exact input each radius is certified <= 2^(-precision/2), and the
    disks of distinct roots are disjoint.  Roots of numeric coefficients
    carry the radius inherited from those coefficients' error bounds, which
    may be wider: nothing holds it to that target.
    """
    exact_poly, coeffs = _root_input(poly)
    if exact_poly is not None:
        return [r for r, mult in _roots_exact(exact_poly, precision) for _ in range(mult)]
    return _roots_numeric(coeffs, precision)


def root_multiplicities(poly, precision=DEFAULT_PREC):
    """The distinct roots of ``poly`` with their multiplicities, [(root, mult)],
    in the order of roots_univariate.  For exact input the multiplicities are
    those of the squarefree decomposition (Yun); for numeric input, roots
    whose disks overlap count as one root, and disks that nearly touch raise
    PrecisionExhausted."""
    exact_poly, coeffs = _root_input(poly)
    if exact_poly is not None:
        return _roots_exact(exact_poly, precision)
    return _group_balls(_roots_numeric(coeffs, precision))


def _root_input(poly):
    """(exact UPoly, None), or (None, trimmed numeric coefficients)."""
    if not isinstance(poly, UPoly):
        coeffs = list(poly)
        while coeffs and coeff_is_zero(coeffs[-1]):
            coeffs.pop()
        if coeffs and not all(is_exact(c) for c in coeffs):
            return None, coeffs
        poly = UPoly([as_gaussian(c) for c in coeffs])
    if poly.is_zero():
        raise DegenerateInput("zero polynomial has every number as a root")
    return poly, None


def _roots_exact(poly, precision):
    """[(root, multiplicity)], one squarefree factor at a time; the disks of
    roots of different factors must not meet."""
    v, core = poly.shift_valuation()
    out = [(GR_ZERO, v)] if v else []
    factors = core.squarefree_decomposition() if core.degree() >= 1 else []
    for factor, mult in factors:
        out += [(r, mult) for r in _roots_squarefree(factor, precision)]
    if len(factors) + bool(v) > 1:
        with mp.workprec(precision + 32):
            if not _disjoint([(coeff_to_mpc(r), coeff_err(r)) for r, _ in out]):
                raise PrecisionExhausted(
                    "root disks of different squarefree factors meet; raise precision")
    return sorted(out, key=lambda pair: _root_key(pair[0]))


def _disjoint(disks):
    """Whether the (centre, radius) disks are pairwise disjoint; two points
    (radius 0, exact roots of coprime factors) are distinct."""
    return all(ea + eb == 0 or abs(za - zb) > ea + eb
               for i, (za, ea) in enumerate(disks) for zb, eb in disks[i + 1:])


def _roots_squarefree(factor, precision):
    """The roots of a monic squarefree factor.  A linear factor's root, and
    a quadratic's two roots where _quadratic_roots finds them, come in closed
    form; the rest come from _aberth in pairwise-disjoint disks of radius at
    most 2^(-precision/2), the working precision doubling until they are, and
    _try_exactify makes a root exact where it can; each ball keeps the
    precision that separated it."""
    if factor.degree() == 1:
        return [(-factor[0]) / factor[1]]
    if factor.degree() == 2:
        roots = _quadratic_roots(factor, precision)
        if roots is not None:
            return roots
    target = mpmath.mpf(2) ** (-(precision // 2))
    work = precision + 32
    for _ in range(4):
        with mp.workprec(work):
            cs = [c.to_mpc(work) for c in factor.coeffs]
            pairs = _aberth(cs, work, mpmath.mpf(0))
            if all(e <= target for _, e in pairs) and _disjoint(pairs):
                out = []
                for i, (val, e) in enumerate(pairs):
                    # nearer this estimate than any other: distinct roots
                    # never exactify to one value
                    reach = min(abs(val - w) for w, _ in pairs[:i] + pairs[i + 1:]) / 2
                    exact = _try_exactify(val, e, factor, reach)
                    out.append(exact if exact is not None
                               else BigComplex(val, e, work - 32))
                return out
        work *= 2
    raise PrecisionExhausted(
        f"root disks did not separate below 2^-{precision // 2} at {work // 2} bits")


def _gaussian_sqrt(g):
    """The square root of a GaussianRational with nonnegative real part (and
    nonnegative imaginary part on the imaginary axis) when it lies in Q(i),
    else None.  With g = (x + y i)/d^2, a root (u + v i)/d needs
    u^2 = (r + x)/2 and v^2 = (r - x)/2 for r^2 = x^2 + y^2, in integers."""
    d = g._d
    x, y = g._a * d, g._b * d
    n = x * x + y * y
    r = isqrt(n)
    if r * r != n or (r + x) & 1:
        return None
    u2, v2 = (r + x) >> 1, (r - x) >> 1
    u, v = isqrt(u2), isqrt(v2)
    if u * u != u2 or v * v != v2:
        return None
    return _gr(u, v if y >= 0 else -v, d)


def _quadratic_roots(factor, precision):
    """The roots (-b +- sqrt(b^2 - 4c))/2 of a monic squarefree x^2 + b x + c,
    only where the Aberth path would certify both exact: they lie in Q(i),
    every part's denominator is within _EXACTIFY_DENOMINATORS, their keys
    differ (so the sort alone orders them), and rounding the coefficients to
    the working precision moves a root by less than 2^-156 min(1, |r1 - r2|),
    far inside the 2^-81 and |r1 - r2|/4 that _try_exactify needs.
    Otherwise None."""
    c, b, _ = factor.coeffs
    s = _gaussian_sqrt(b * b - 4 * c)
    if s is None:
        return None
    roots = [(s - b) / 2, (-s - b) / 2]
    if (max(max(r.re.denominator, r.im.denominator) for r in roots)
            > _EXACTIFY_DENOMINATORS[-1] or _root_key(roots[0]) == _root_key(roots[1])):
        return None
    # |root| < 2^size and |r1 - r2| = |s| > 2^-gap; coefficients rounded at
    # precision + 32 bits move a root by under 2^(2 size + gap - precision - 28)
    size = max(max(abs(r._a), abs(r._b)).bit_length() - r._d.bit_length() + 2
               for r in roots)
    gap = s._d.bit_length() - max(abs(s._a), abs(s._b)).bit_length() + 1
    if 2 * (max(size, 0) + max(gap, 0)) + 128 > precision:
        return None
    return roots


def _roots_numeric(coeffs, precision):
    if len(coeffs) == 1:
        return []
    err_bound = mpmath.mpf(0)
    for c in coeffs:
        err_bound = max(err_bound, coeff_err(c))
        if isinstance(c, BigComplex):
            # a ball built on roots that needed more bits to separate keeps them
            precision = max(precision, c.prec)
    work = precision + 32
    with mp.workprec(work):
        cs = [coeff_to_mpc(c, work) for c in coeffs]
        pairs = _aberth(cs, work, err_bound)
    return _sort_roots([BigComplex(v, e, precision) for v, e in pairs])


def _group_balls(roots):
    """Collapse the multiplicity-repeated balls of _roots_numeric."""
    groups = []
    for r in roots:
        # multiply by -1 rather than negate: BigComplex negation rounds
        g = next((g for g in groups if coeff_is_zero(r + g[0] * -1)), None)
        if g is None:
            groups.append([r, 1])
        else:
            g[1] += 1
    # overlapping but unequal numeric roots cannot be told apart
    for a, (ra, _) in enumerate(groups):
        for rb, _ in groups[a + 1:]:
            gap = abs(coeff_to_mpc(ra) - coeff_to_mpc(rb))
            if gap != 0 and gap <= 2 * (coeff_err(ra) + coeff_err(rb)):
                raise PrecisionExhausted("root clusters overlap; raise precision")
    return [tuple(g) for g in groups]


def _root_key(r):
    """The one order of roots, places and germs: real part, then imaginary
    part, floored on the 2^-40 grid; exact for Q(i), from the 64-bit rounded
    midpoint for a ball (a part it holds 0 is 0), from to_ball() for K."""
    if type(r) is AlgebraicNumber:
        r = r.to_ball()
    if type(r) is not BigComplex:
        g = as_gaussian(r)
        return (g._a << 40) // g._d, (g._b << 40) // g._d
    err = r._e
    return tuple(0 if mpf_le(mpf_abs(x, 64, _RND), err)
                 else to_int(mpf_shift(mpf_pos(x, 64, _RND), 40), round_floor)
                 for x in r._v)


def _sort_roots(roots):
    return sorted(roots, key=_root_key)


def all_nth_roots(value, b, precision=DEFAULT_PREC):
    """All b-th roots of a coefficient value, as numbers: as in
    roots_univariate, the certified-exact ones are GaussianRational and the
    others balls (roots_univariate of x^b - value for an exact value, so
    square roots in Q(i) in closed form; closed forms for a ball).  For an
    exact value with x^b - value irreducible over Q(i), radical_roots gives
    the same roots as one exact eta of the extension."""
    if is_exact(value):
        g = as_gaussian(value)
        poly = UPoly([-g] + [GR_ZERO] * (b - 1) + [GR_ONE])
        return roots_univariate(poly, precision)
    xs = []
    for k in range(b):
        xs.append(value.root(b, index=k))
    return _sort_roots(xs)


# ---------------------------------------------------------------------------
# bivariate polynomials in (p, q)
# ---------------------------------------------------------------------------

class BiPoly:
    """Sparse bivariate polynomial: {(deg_p, deg_q): GaussianRational}, no zeros."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        d = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for (i, j), c in items:
            g = c if isinstance(c, GaussianRational) else GaussianRational(c)
            if g.is_zero():
                continue
            key = (int(i), int(j))
            if key in d:
                g = d[key] + g
                if g.is_zero():
                    del d[key]
                    continue
            d[key] = g
        object.__setattr__(self, "terms", d)

    def __setattr__(self, *a):
        raise AttributeError("BiPoly is immutable")

    def is_zero(self):
        return not self.terms

    def support(self):
        return sorted(self.terms.keys())

    def deg_p(self):
        return max((i for i, _ in self.terms), default=-1)

    def deg_q(self):
        return max((j for _, j in self.terms), default=-1)

    def coeff(self, i, j):
        return self.terms.get((i, j), GR_ZERO)

    def __eq__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items(), key=lambda kv: kv[0])))

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, GR_ZERO) + c
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return BiPoly(out)

    def __neg__(self):
        return BiPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            g = as_gaussian(other)
            if g.is_zero():
                return BiPoly()
            return BiPoly({k: c * g for k, c in self.terms.items()})
        out = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                s = out.get(k, GR_ZERO) + c1 * c2
                if s.is_zero():
                    out.pop(k, None)
                else:
                    out[k] = s
        return BiPoly(out)

    __rmul__ = __mul__

    def partial_p(self):
        return BiPoly({(i - 1, j): c * i for (i, j), c in self.terms.items() if i > 0})

    def partial_q(self):
        return BiPoly({(i, j - 1): c * j for (i, j), c in self.terms.items() if j > 0})

    def coeff_in_p(self, i):
        """Coefficient of p^i as a UPoly in q."""
        if self.is_zero():
            return UPoly()
        n = self.deg_q() + 1
        cs = [GR_ZERO] * n
        for (ii, j), c in self.terms.items():
            if ii == i:
                cs[j] = c
        return UPoly(cs)

    def as_ppoly(self):
        """List of UPoly-in-q coefficients indexed by p-degree."""
        return [self.coeff_in_p(i) for i in range(self.deg_p() + 1)]

    @staticmethod
    def from_ppoly(ps):
        terms = {}
        for i, up in enumerate(ps):
            for j, c in enumerate(up.coeffs):
                if not c.is_zero():
                    terms[(i, j)] = c
        return BiPoly(terms)

    def eval(self, p, q):
        """Evaluate at coefficient-like values (exact or BigComplex or complex)."""
        acc = None
        for (i, j), c in sorted(self.terms.items()):
            term = c * (p ** i) * (q ** j) if i or j else c
            acc = term if acc is None else acc + term
        if acc is None:
            return GR_ZERO
        return acc

    def leading_term_pmajor(self):
        """((i, j), coeff) for the lex-greatest term with p-degree major."""
        key = max(self.terms.keys())
        return key, self.terms[key]

    def normalized_pmajor(self):
        """Scale so the p-major lex leading coefficient is exactly 1."""
        if self.is_zero():
            return self
        _, lc = self.leading_term_pmajor()
        return self * lc.inverse()

    def __repr__(self):
        return f"BiPoly({dict(sorted(self.terms.items()))!r})"


def squarefree_in_p(P):
    """True iff gcd(P, dP/dp) over the rational-function field in q is constant in p.

    Primitive pseudo-remainder sequence; exact throughout.
    """
    return len(_gcd_with_p_derivative(P)) == 1


def squarefree_part_in_p(P):
    """P divided by G = gcd(P, dP/dp), normalised; P itself when squarefree.

    G is the last element of the primitive pseudo-remainder sequence, made
    primitive in q, so by Gauss's lemma it divides the primitive part of P
    exactly in Q(i)[q][p]; the quotient is primitive in q too.
    """
    G = _gcd_with_p_derivative(P)
    if len(G) == 1:
        return P
    quo = _ppoly_exact_div(_ppoly_primitive(P.as_ppoly()), G)
    return BiPoly.from_ppoly(quo).normalized_pmajor()


def primitive_in_q(P):
    """P divided by its content in q (the gcd of its coefficients in p),
    normalised; P itself when that content is constant."""
    ps = P.as_ppoly()
    prim = _ppoly_primitive(ps)
    if prim is ps:
        return P
    return BiPoly.from_ppoly(prim).normalized_pmajor()


def _ppoly_content(ps):
    g = UPoly()
    for up in ps:
        g = up.gcd(g) if not g.is_zero() else up.monic() if not up.is_zero() else g
        if g.degree() == 0:
            return g
    return g


def _ppoly_primitive(ps):
    c = _ppoly_content(ps)
    if c.is_zero() or c.degree() < 1:
        return ps
    return [up // c for up in ps]


def _ppoly_trim(ps):
    while ps and ps[-1].is_zero():
        ps = ps[:-1]
    return ps


def _ppoly_prem(A, B):
    """Pseudo-remainder of A by B, coefficients UPoly in q."""
    r = _ppoly_trim(list(A))
    db = len(B) - 1
    lb = B[-1]
    while r and len(r) - 1 >= db:
        dr = len(r) - 1
        lr = r[-1]
        r = [c * lb for c in r]
        for i in range(db + 1):
            r[dr - db + i] = r[dr - db + i] - lr * B[i]
        r = _ppoly_trim(r)
    return r


def _gcd_with_p_derivative(P):
    """gcd(P, dP/dp) in p, primitive in q, by the primitive PRS."""
    if P.deg_p() < 1:
        raise DegenerateInput("P is constant in p")
    A, B = P.as_ppoly(), P.partial_p().as_ppoly()
    while B:
        A, B = B, _ppoly_primitive(_ppoly_prem(A, B))
    return _ppoly_primitive(A)


def _ppoly_exact_div(A, B):
    """A / B in Q(i)[q][p]; DegenerateInput unless B divides A."""
    rem = list(A)
    db = len(B) - 1
    quo = [UPoly()] * (len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        if rem[i].is_zero():
            continue
        f = rem[i] // B[-1]
        quo[i - db] = f
        for j, b in enumerate(B):
            rem[i - db + j] = rem[i - db + j] - f * b
    if any(not r.is_zero() for r in rem):
        raise DegenerateInput("gcd(P, dP/dp) does not divide P")
    return quo


def solve_linear(rows, rhs):
    """Solve a square exact linear system by Gaussian elimination.

    rows: list of lists of GaussianRational-coercible entries; rhs likewise.
    Returns the unique solution or raises ValueError if singular.
    """
    n = len(rows)
    a = [[as_gaussian(x) for x in row] + [as_gaussian(rhs[i])]
         for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
        if piv is None:
            raise ValueError("singular linear system")
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col].inverse()
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and not a[r][col].is_zero():
                f = a[r][col]
                a[r] = [a[r][j] - f * a[col][j] for j in range(n + 1)]
    return [a[r][n] for r in range(n)]

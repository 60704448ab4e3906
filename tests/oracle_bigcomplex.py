"""Reference balls and root finder: mpmath objects under a working precision.

These are the implementations bbsolve.algebra.BigComplex and _aberth had
before their arithmetic moved onto raw mpmath.libmp tuples, kept unchanged
so a differential test can compare the two bit for bit on every operation.
"""

from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import mp

from bbsolve.algebra import GaussianRational
from bbsolve.errors import PrecisionExhausted

DEFAULT_PREC = 256  # bits


def _rnd(mag, prec):
    # conservative per-operation rounding slack: a few ulps of the magnitude
    return mag * _ulps(prec)


@lru_cache(maxsize=64)
def _ulps(prec):
    return mpmath.mpf(2) ** (4 - prec)   # a power of two: exact at any precision


class BigComplex:
    """Arbitrary-precision complex value with a conservative absolute error bound.

    ``err`` bounds the distance to the represented value; every operation
    propagates it outward (never shrinks it).  Exact operands (int, Fraction,
    GaussianRational) are coerced through ``from_exact``.
    """

    __slots__ = ("val", "err", "prec")

    def __init__(self, val, err=0, prec=DEFAULT_PREC):
        # never reconstruct an existing mpc/mpf: mpmath would re-round it to
        # the ambient context precision
        if not isinstance(val, mpmath.mpc):
            with mp.workprec(int(prec) + 8):
                val = mpmath.mpc(val)
        if not isinstance(err, mpmath.mpf):
            with mp.workprec(64):
                err = mpmath.mpf(err)
        object.__setattr__(self, "val", val)
        object.__setattr__(self, "err", err)
        object.__setattr__(self, "prec", int(prec))
        if self.err < 0:
            raise ValueError("error bound must be nonnegative")

    def __setattr__(self, *a):
        raise AttributeError("BigComplex is immutable")

    @staticmethod
    def from_exact(x, prec=DEFAULT_PREC):
        # equal values share one key whatever their exact type: 2 == Fraction(2)
        if isinstance(x, GaussianRational):
            return _exact_ball(x.re, x.im, prec)
        return _exact_ball(x, 0, prec)

    # -- coercion --------------------------------------------------------
    @staticmethod
    def _coerce(x, prec):
        if isinstance(x, BigComplex):
            return x
        if isinstance(x, (int, Fraction, GaussianRational)):
            return BigComplex.from_exact(x, prec)
        if isinstance(x, (float, complex, mpmath.mpf, mpmath.mpc)):
            return BigComplex(mpmath.mpc(x), 0, prec)
        return None

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        o = self._coerce(other, self.prec)
        if o is None:
            return NotImplemented
        prec = max(self.prec, o.prec)
        with mp.workprec(prec + 8):
            v = self.val + o.val
            e = self.err + o.err + _rnd(abs(v), prec)
        return BigComplex(v, e, prec)

    __radd__ = __add__

    def __neg__(self):
        return BigComplex(-self.val, self.err, self.prec)

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
        with mp.workprec(prec + 8):
            v = self.val * o.val
            e = (abs(self.val) * o.err + abs(o.val) * self.err
                 + self.err * o.err + _rnd(abs(v), prec))
        return BigComplex(v, e, prec)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other, self.prec)
        if o is None:
            return NotImplemented
        prec = max(self.prec, o.prec)
        with mp.workprec(prec + 8):
            denom_low = abs(o.val) - o.err
            if denom_low <= 0:
                raise PrecisionExhausted("division by a value not certified nonzero")
            v = self.val / o.val
            e = (self.err + abs(v) * o.err) / denom_low + _rnd(abs(v), prec)
        return BigComplex(v, e, prec)

    def __rtruediv__(self, other):
        o = self._coerce(other, self.prec)
        if o is None:
            return NotImplemented
        return o / self

    def inverse(self):
        return 1 / self

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = BigComplex(1, 0, self.prec)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def root(self, b, index=0):
        """One b-th root (mpmath determination rotated by the index-th unit root)."""
        prec = self.prec
        with mp.workprec(prec + 16):
            if abs(self.val) == 0:
                return BigComplex(0, self.err, prec)
            if 2 * self.err >= abs(self.val):
                raise PrecisionExhausted("radicand not certified away from zero")
            r = mpmath.root(self.val, b, k=index)
            e = abs(r) * (self.err / abs(self.val)) / b + _rnd(abs(r), prec)
        return BigComplex(r, e, prec)

    # -- predicates ------------------------------------------------------
    def is_zero(self):
        """Certified-zero flag: the disk contains zero."""
        return abs(self.val) <= self.err

    def __complex__(self):
        return complex(self.val)

    def __repr__(self):
        return f"BigComplex({mpmath.nstr(self.val, 17)}, err={mpmath.nstr(self.err, 3)})"


@lru_cache(maxsize=256)
def _exact_ball(re, im, prec):
    """The ball of re + i im, memoised: the same few exact operands (recurrence
    weights, coefficients of P) meet every numeric operation, and balls are
    immutable."""
    g = GaussianRational(re, im)
    with mp.workprec(prec + 8):
        v = g.to_mpc(prec + 8)
        e = _rnd(abs(v), prec) if not _fraction_fits(g, prec) else mpmath.mpf(0)
    return BigComplex(v, e, prec)


def _fraction_fits(g, prec):
    # a Gaussian rational converts exactly when num/den are representable
    def fits(fr):
        d = fr.denominator
        return d & (d - 1) == 0 and fr.numerator.bit_length() <= prec
    return fits(g.re) and fits(g.im)


def _aberth(coeffs_mpc, prec, coeff_err_bound):
    """All roots of a (near-)squarefree monic polynomial given by mpc coefficients.

    Returns list of (mpc root, mpf error radius).  Raises PrecisionExhausted
    if the a-posteriori disks cannot be separated.
    """
    d = len(coeffs_mpc) - 1
    with mp.workprec(prec + 32):
        lc = coeffs_mpc[-1]
        cs = [c / lc for c in coeffs_mpc]
        if d == 1:
            r = -cs[0]
            return [(r, _rnd(abs(r) + 1, prec) + coeff_err_bound)]
        radius = 1 + max(abs(c) for c in cs[:-1])
        # deterministic start: slightly detuned circle to break symmetries
        z = [radius * mpmath.expjpi(2 * (mpmath.mpf(k) / d + mpmath.mpf(1) / (2 * d)
                                         + mpmath.mpf(1) / 257))
             for k in range(d)]
        dcs = [cs[i] * i for i in range(1, d + 1)]

        def horner(c, x):
            acc = c[-1]
            for cc in reversed(c[:-1]):
                acc = acc * x + cc
            return acc

        target = mpmath.mpf(2) ** (-(prec + 8))
        for _ in range(400):
            moved = mpmath.mpf(0)
            for i in range(d):
                f = horner(cs, z[i])
                fp = horner(dcs, z[i])
                if fp == 0:
                    z[i] = z[i] * (1 + mpmath.mpf(1) / 1000)
                    moved = max(moved, abs(z[i]) / 1000)
                    continue
                w = f / fp
                s = mpmath.mpc(0)
                for j in range(d):
                    if j != i:
                        dz = z[i] - z[j]
                        if dz == 0:
                            dz = mpmath.mpf(2) ** (-prec) * (1 + abs(z[i]))
                        s += 1 / dz
                den = 1 - w * s
                delta = w if den == 0 else w / den
                z[i] = z[i] - delta
                moved = max(moved, abs(delta))
            if moved < target * radius:
                break
        # Newton polishing at doubled working precision
        with mp.workprec(2 * prec + 32):
            for i in range(d):
                x = z[i]
                for _ in range(3):
                    f = horner(cs, x)
                    fp = horner(dcs, x)
                    if fp == 0:
                        break
                    x = x - f / fp
                z[i] = x
            out = []
            for i in range(d):
                f = horner(cs, z[i])
                prod = mpmath.mpc(1)
                for j in range(d):
                    if j != i:
                        prod *= z[i] - z[j]
                if prod == 0:
                    raise PrecisionExhausted("coincident root estimates")
                wdk = abs(f / prod)
                e = d * wdk
                if coeff_err_bound > 0:
                    fp = horner(dcs, z[i])
                    if abs(fp) > 0:
                        e += coeff_err_bound * (1 + abs(z[i])) ** d / abs(fp)
                out.append((z[i], e + _rnd(abs(z[i]) + 1, 2 * prec)))
        return out

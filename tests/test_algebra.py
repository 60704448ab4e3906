"""Exact arithmetic, polynomials, and certified root finding."""

import operator
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from bbsolve import algebra
from bbsolve.algebra import (GR_ZERO, BiPoly, BigComplex, GaussianRational, UPoly,
                             ZSeries, _exact_ball, _gaussian_sqrt, _root_key, _sort_roots,
                             all_nth_roots, coeff_is_zero, coeff_to_mpc, falling, is_exact,
                             pochhammer, root_multiplicities, roots_univariate, solve_linear,
                             squarefree_in_p, squarefree_part_in_p)
from bbsolve.cli import analyze
from bbsolve.errors import DegenerateInput, PrecisionExhausted

rationals = st.builds(Fraction,
                      st.integers(min_value=-50, max_value=50),
                      st.integers(min_value=1, max_value=20))
gaussians = st.builds(GaussianRational, rationals, rationals)
wide_rationals = st.builds(Fraction,
                           st.integers(min_value=-10 ** 6, max_value=10 ** 6),
                           st.integers(min_value=1, max_value=10 ** 3))


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(1, 0) == 1

    def test_rising(self):
        assert pochhammer(2, 2) == 6
        assert pochhammer(1, 2) == 2   # (k+n-1)!/(n-1)! = 2!/0!

    def test_falling_matches_sign_convention(self):
        # falling(-n, k) = (-1)^k pochhammer(n, k)
        for n in range(1, 6):
            for k in range(0, 6):
                assert falling(-n, k) == (-1) ** k * pochhammer(n, k)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            pochhammer(0, 1)


class TestGaussianRational:
    @settings(max_examples=60, deadline=None)
    @given(gaussians, gaussians, gaussians)
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == GaussianRational(0)
        if not a.is_zero():
            assert a * a.inverse() == GaussianRational(1)

    def test_pow_and_div(self):
        i = GaussianRational(0, 1)
        assert i ** 2 == GaussianRational(-1)
        assert (GaussianRational(3, 4) / GaussianRational(3, 4)) == GaussianRational(1)


class TestBigComplex:
    @pytest.mark.xfail(strict=True, reason="BigComplex.__neg__ rounds to mpmath's "
                       "ambient 53-bit precision but keeps the 256-bit error bound "
                       "(ROADMAP item 1)")
    def test_negation_stays_in_its_disk(self):
        g = GaussianRational(Fraction(1, 3), Fraction(2, 7))
        x = BigComplex.from_exact(g)
        for value, exact in ((-x, -g), (1 - x, 1 - g)):
            with mpmath.mp.workprec(600):
                assert abs(value.val - exact.to_mpc(600)) <= value.err

    @pytest.mark.parametrize("x", [7, Fraction(-5, 3),
                                   GaussianRational(Fraction(1, 3), Fraction(2, 7))])
    @pytest.mark.parametrize("prec", [256, 113])
    def test_memoised_ball_equals_a_fresh_conversion(self, x, prec):
        _exact_ball.cache_clear()
        first = BigComplex.from_exact(x, prec)
        again = BigComplex.from_exact(x, prec)
        g = x if isinstance(x, GaussianRational) else GaussianRational(x)
        fresh = _exact_ball.__wrapped__(g.re, g.im, prec)
        assert again is first
        for ball in (first, again):
            assert (ball.val, ball.err, ball.prec) == (fresh.val, fresh.err, fresh.prec)
        assert (first.err == 0) == isinstance(x, int)   # 7 converts exactly
        with mpmath.mp.workprec(600):
            assert abs(first.val - g.to_mpc(600)) <= first.err

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                    operator.truediv])
    @pytest.mark.parametrize("other", [0.5, 0.5j, mpmath.mpf(0.5), mpmath.mpc(0.5)])
    def test_float_operands_are_refused(self, op, other):
        # a ball meets exact values and balls only: a float has no error bound
        one = BigComplex.from_exact(GaussianRational(1))
        for x, y in ((one, other), (other, one)):
            with pytest.raises(TypeError):
                op(x, y)


class TestZSeriesInverse:
    def test_gaps_stay_exact_zeros(self):
        # a series in z^2 has its inverse in z^2: each odd coefficient sums
        # products with an exact zero, so it is exactly 0, numeric or not
        third = GaussianRational(Fraction(1, 3))
        for c in (third, BigComplex.from_exact(third)):
            s = ZSeries(0, [c, GR_ZERO, c, GR_ZERO, c])
            inv = s.inverse(cap=12)
            assert len(inv.coeffs) == 13
            assert all(isinstance(x, GaussianRational) and x.is_zero()
                       for x in inv.coeffs[1::2])
            prod = s.mul(inv, cap=12)
            assert coeff_is_zero(prod.coeff(0) - 1)
            assert all(coeff_is_zero(prod.coeff(e)) for e in range(1, 13))


class TestRoots:
    def test_square_minus_one(self):
        roots = roots_univariate(UPoly([-1, 0, 1]))
        assert all(isinstance(r, GaussianRational) for r in roots)
        assert roots == [GaussianRational(-1), GaussianRational(1)]

    def test_newton_on_half(self):
        roots = roots_univariate(UPoly([-2, 0, 4]))   # 4c^2 = 2
        vals = [complex(r) for r in roots]
        assert abs(vals[0] + 0.7071067811865476) < 1e-12
        assert abs(vals[1] - 0.7071067811865476) < 1e-12
        for r in roots:
            assert float(r.err) < 2.0 ** (-128)

    def test_roots_of_unity(self):
        roots = roots_univariate(UPoly([-1, 0, 0, 1]))
        assert len(roots) == 3
        assert [r for r in roots if is_exact(r)] == [GaussianRational(1)]
        with mpmath.workprec(300):
            for r in roots:
                assert abs(coeff_to_mpc(r, 300) ** 3 - 1) < mpmath.mpf(2) ** (-120)

    def test_zero_poly_rejected_constant_empty(self):
        with pytest.raises(DegenerateInput):
            roots_univariate(UPoly([]))
        assert roots_univariate(UPoly([5])) == []

    def test_multiplicity(self):
        p = UPoly([-1, 1]) * UPoly([-1, 1]) * UPoly([2, 1])
        roots = roots_univariate(p)
        assert all(is_exact(r) for r in roots)
        assert sorted(str(r) for r in roots) == ["-2", "1", "1"]

    def test_residual_bounded_by_error(self):
        # substituting each root back: |poly(root)| <= C * err with C from
        # coefficient sizes (here via the derivative bound on the disk)
        p = UPoly([Fraction(3, 7), Fraction(-2), Fraction(1), Fraction(5)])
        roots = roots_univariate(p, precision=192)
        for r in roots:
            val = p.eval(r)
            assert abs(val.val) + val.err <= 1e-20

    def test_monic_reconstruction(self):
        p = UPoly([Fraction(-6), Fraction(11), Fraction(-6), Fraction(1)])
        roots = roots_univariate(p)   # 1, 2, 3
        with mpmath.workprec(300):
            poly = [mpmath.mpc(1)]
            for r in roots:
                nxt = [mpmath.mpc(0)] * (len(poly) + 1)
                for idx, cc in enumerate(poly):
                    nxt[idx + 1] += cc
                    nxt[idx] -= cc * coeff_to_mpc(r, 300)
                poly = nxt
            for got, want in zip(poly, p.coeffs):
                assert abs(got - complex(want)) < 1e-40

    def test_deterministic_ordering(self):
        a = roots_univariate(UPoly([-1, 0, 0, 1]))
        b = roots_univariate(UPoly([-1, 0, 0, 1]))
        assert [complex(x) for x in a] == [complex(x) for x in b]

    @pytest.mark.parametrize("noise", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_order_ignores_noise_inside_the_ball(self, noise):
        # real parts of +-1e-80 inside radius 1e-70 are 0: the roots sort by
        # their imaginary parts, -i first, whatever the sign of the noise
        up, down = (BigComplex(mpmath.mpc(s * mpmath.mpf("1e-80"), im), mpmath.mpf("1e-70"))
                    for s, im in zip(noise, (1, -1)))
        assert _sort_roots([up, down]) == [down, up]
        assert _sort_roots([down, up]) == [down, up]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.builds(GaussianRational, wide_rationals, wide_rationals),
                    min_size=2, max_size=6, unique=True))
    def test_exact_key_orders_by_real_then_imaginary_part(self, xs):
        # distinct values at denominators <= 10^3 differ by >= 10^-6 in a
        # part that differs, far above the 2^-40 grid
        assert sorted(xs, key=_root_key) == sorted(xs, key=lambda g: (g.re, g.im))

    def test_key_of_values_outside_the_double_range(self):
        big = GaussianRational(10 ** 400, Fraction(1, 10 ** 400))
        assert _root_key(big) == (10 ** 400 << 40, 0)

    def test_close_roots_come_in_disjoint_disks(self):
        # (x^2 - 2)(x^2 - 2 - 2^-120) is squarefree with roots ~2^-122 apart:
        # at precision 64 the working precision must grow until the four
        # disks separate
        p = UPoly([-2, 0, 1]) * UPoly([-2 - Fraction(1, 2 ** 120), 0, 1])
        roots = roots_univariate(p, precision=64)
        assert len(roots) == 4
        for i, a in enumerate(roots):
            for b in roots[i + 1:]:
                gap = abs(coeff_to_mpc(a) - coeff_to_mpc(b))
                assert gap > a.err + b.err

    def test_close_roots_exactify_apart(self):
        # 1 and 1 + 2^-100 are both roots of one squarefree factor: the
        # estimate of 1 + 2^-100 must not be recognised as 1
        p = UPoly([-1, 1]) * UPoly([-1 - Fraction(1, 2 ** 100), 1])
        one, near = roots_univariate(p)
        assert one == GaussianRational(1) and not is_exact(near)
        assert not coeff_is_zero(near - 1)

    def test_multiplicities_come_from_the_factorisation(self):
        p = UPoly([-1, 1]) * UPoly([-1, 1]) * UPoly([1, 0, 1]) * UPoly([0, 0, 0, 1])
        i = GaussianRational(0, 1)
        assert root_multiplicities(p) \
            == [(-i, 1), (GR_ZERO, 3), (i, 1), (GaussianRational(1), 2)]
        # close distinct roots keep multiplicity 1 each
        close = UPoly([-2, 0, 1]) * UPoly([-2 - Fraction(1, 2 ** 200), 0, 1])
        assert [m for _, m in root_multiplicities(close)] == [1, 1, 1, 1]

    def test_meeting_disks_of_different_factors_raise(self):
        # x^2 - 2 (twice) and x^2 - 2 - 2^-600 are coprime, but their roots
        # lie closer than any disk at 256 bits resolves
        twice = UPoly([-2, 0, 1]) * UPoly([-2, 0, 1])
        p = twice * UPoly([-2 - Fraction(1, 2 ** 600), 0, 1])
        with pytest.raises(PrecisionExhausted):
            roots_univariate(p)

    def test_nth_roots(self):
        rs = all_nth_roots(GaussianRational(4), 2)
        assert all(is_exact(r) for r in rs)
        assert sorted(str(r) for r in rs) == ["-2", "2"]


I = GaussianRational(0, 1)
# part denominators on both sides of the largest one _try_exactify tries
BOUND = algebra._EXACTIFY_DENOMINATORS[-1]
ladder_parts = st.builds(Fraction, st.integers(-30, 30),
                         st.integers(1, 12) | st.integers(BOUND - 2, BOUND + 2))
small_roots = st.builds(GaussianRational, ladder_parts, ladder_parts)
# a common shift of both roots by +-2^k or +-2^k i: far from 0 and close
# together, they need the precision the closed form asks for
shifts = st.builds(lambda k, unit: unit * 2 ** k, st.integers(0, 160),
                   st.sampled_from([GaussianRational(1), GaussianRational(-1), I, -I]))


def outcome(find, poly, precision):
    """What find(poly, precision) returns, each ball as its raw bits, or
    what it raised."""
    try:
        found = find(poly, precision)
    except PrecisionExhausted as exc:
        return type(exc), str(exc)

    def bits(r):
        return (r.val._mpc_, r.err._mpf_, r.prec) if isinstance(r, BigComplex) else r
    return [(bits(r[0]), r[1]) if isinstance(r, tuple) else bits(r) for r in found]


def both_paths(poly, precision):
    """The outcomes of roots_univariate and root_multiplicities with the
    closed form for quadratics, and with it disabled (the Aberth path)."""
    def run():
        return [outcome(find, poly, precision)
                for find in (roots_univariate, root_multiplicities)]
    closed = run()
    with pytest.MonkeyPatch.context() as mpatch:
        mpatch.setattr(algebra, "_quadratic_roots", lambda factor, precision: None)
        return closed, run()


class TestQuadraticClosedForm:
    @pytest.mark.parametrize("value,root", [
        (0, 0), (1, 1), (-1, I), (2 * I, 1 + I), (3 + 4 * I, 2 + I),
        (Fraction(-4, 9), Fraction(2, 3) * I), (-5 + 12 * I, 2 + 3 * I),
        (-5 - 12 * I, 2 - 3 * I), (Fraction(-7, 4) - 6 * I, Fraction(3, 2) - 2 * I)])
    def test_gaussian_sqrt(self, value, root):
        assert _gaussian_sqrt(GaussianRational(0) + value) == root

    @pytest.mark.parametrize("value", [3, 1 + I, 2, -2, Fraction(1, 2), 5 * I,
                                       Fraction(-4, 3), 2 + I])
    def test_gaussian_sqrt_of_a_non_square(self, value):
        assert _gaussian_sqrt(GaussianRational(0) + value) is None

    @settings(max_examples=200, deadline=None)
    @given(gaussians)
    def test_gaussian_sqrt_of_a_square(self, x):
        root = _gaussian_sqrt(x * x)
        assert root in (x, -x)
        assert root.re > 0 or root.re == 0 and root.im >= 0

    @settings(max_examples=100, deadline=None)
    @given(small_roots, small_roots, st.none() | shifts,
           st.sampled_from([64, 128, 192, 256, 256, 512]))
    def test_same_roots_as_the_aberth_path(self, r1, r2, shift, precision):
        # (x - r1)(x - r2): exact values and ball bits as without the closed form
        if shift is not None:
            r1, r2 = r1 + shift, r2 + shift
        closed, aberth = both_paths(UPoly([r1 * r2, -r1 - r2, 1]), precision)
        assert closed == aberth

    @settings(max_examples=100, deadline=None)
    @given(gaussians, gaussians, gaussians.filter(lambda c: not c.is_zero()),
           st.sampled_from([113, 256]))
    def test_random_quadratics_match_the_aberth_path(self, c, b, a, precision):
        closed, aberth = both_paths(UPoly([c, b, a]), precision)
        assert closed == aberth

    def test_corpus_quadratics_skip_aberth(self, monkeypatch):
        # x^2 - 1 for y' = y^2 - 1 comes in closed form; x^2 - 1/3 for
        # y'' = 6*y^2 - 2 (roots outside Q(i)) still goes through Aberth
        degrees = []
        aberth = algebra._aberth

        def spy(coeffs, *args):
            degrees.append(len(coeffs) - 1)
            return aberth(coeffs, *args)
        monkeypatch.setattr(algebra, "_aberth", spy)
        analyze("y' = y^2 - 1")
        assert degrees == []
        analyze("y'' = 6*y^2 - 2")
        assert degrees == [2]

    def test_large_denominator_stays_a_ball(self):
        # a part denominator past the ladder: the Aberth path's ball, not a
        # closed-form exact root
        r = GaussianRational(Fraction(1, BOUND + 1))
        minus_one, near = roots_univariate(UPoly([-r, 1]) * UPoly([1, 1]))
        assert minus_one == -1 and not is_exact(near)
        assert abs(complex(near) - complex(r)) < 1e-30


# F, G monic in p with small integer coefficients of degree <= 2 in q, and a
# nonzero content c(q), for the squarefree-part property
small_q_poly = st.lists(st.integers(min_value=-2, max_value=2), min_size=1,
                        max_size=3)
monic_in_p = st.integers(min_value=1, max_value=2).flatmap(
    lambda d: st.lists(small_q_poly, min_size=d, max_size=d).map(
        lambda lower: BiPoly({(d, 0): 1, **{
            (i, j): c for i, cs in enumerate(lower)
            for j, c in enumerate(cs) if c}})))


class TestSquarefree:
    def test_separable_quadratic(self):
        assert squarefree_in_p(BiPoly({(2, 0): 1, (0, 1): -1}))

    def test_repeated_factor(self):
        P = BiPoly({(2, 0): 1, (1, 1): -2, (0, 2): 1})   # (p - q)^2
        assert not squarefree_in_p(P)

    def test_weierstrass(self):
        P = BiPoly({(2, 0): 1, (0, 3): -4, (0, 1): 4})
        assert squarefree_in_p(P)

    @staticmethod
    def _divides(A, B):
        """A | B in Q(i)[q][p], by long division: A has a constant p-leading
        coefficient."""
        da = A.deg_p()
        inv = A.coeff_in_p(da).lc().inverse()
        while not B.is_zero() and B.deg_p() >= da:
            db = B.deg_p()
            lead = BiPoly({(db - da, j): c * inv
                           for j, c in enumerate(B.coeff_in_p(db).coeffs)
                           if not c.is_zero()})
            B = B - lead * A
        return B.is_zero()

    @settings(max_examples=25, deadline=None)
    @given(monic_in_p, monic_in_p,
           small_q_poly.filter(any).map(
               lambda cs: BiPoly({(0, j): c for j, c in enumerate(cs) if c})))
    def test_squarefree_part_of_product(self, F, G, c):
        P = F * G * G * c
        R = squarefree_part_in_p(P)
        assert squarefree_in_p(R)
        assert R.coeff_in_p(R.deg_p()).degree() == 0
        content = R.coeff_in_p(0)
        for i in range(1, R.deg_p() + 1):
            content = content.gcd(R.coeff_in_p(i))
        assert content.degree() == 0                 # primitive in q
        assert self._divides(R, P)
        # every factor of F G^2 is in R: F G^2 divides a power of R
        Rpow = R
        for _ in range(P.deg_p() - 1):
            Rpow = Rpow * R
        assert self._divides(F * G * G, Rpow)

    def test_squarefree_part_returns_squarefree_input(self):
        P = BiPoly({(2, 1): 1, (2, 0): 1, (0, 2): -1})      # (q + 1) p^2 - q^2
        assert squarefree_part_in_p(P) is P


class TestLinearSolve:
    def test_exact_solution(self):
        rows = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
        rhs = [Fraction(5), Fraction(10)]
        x = solve_linear(rows, rhs)
        assert x[0] == GaussianRational(1) and x[1] == GaussianRational(3)

    def test_singular_detected(self):
        with pytest.raises(ValueError):
            solve_linear([[1, 2], [2, 4]], [1, 2])


class TestUPoly:
    def test_divmod_roundtrip(self):
        a = UPoly([Fraction(1, 2), 0, 3, 1])
        b = UPoly([1, 2])
        q, r = divmod(a, b)
        assert q * b + r == a

    def test_yun_decomposition(self):
        x = UPoly([0, 1])
        lin = UPoly([-1, 1])
        poly = x * x * lin * lin * lin
        dec = poly.squarefree_decomposition()
        assert sorted((tuple(str(c) for c in f.coeffs), m) for f, m in dec) == \
            [(("-1", "1"), 3), (("0", "1"), 2)]

    def test_gcd(self):
        a = UPoly([-1, 0, 1])       # (x-1)(x+1)
        b = UPoly([-1, 1])
        assert a.gcd(b) == UPoly([-1, 1])

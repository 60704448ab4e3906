"""Exact arithmetic in K = Q(i)[eta]/(eta^g - beta), its embeddings, and
Capelli's irreducibility test for x^g - beta over Q(i)."""

import operator
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from bbsolve.algebra import (GR_ONE, GR_ZERO, AlgebraicNumber, BigComplex, Embedding,
                             GaussianRational, ZSeries, _is_exact_zero,
                             binomial_irreducible, dot, field_of, is_exact,
                             is_pth_power, radical_roots)

G = GaussianRational
F = Fraction

# (beta, g) with x^g - beta irreducible over Q(i)
FIELDS = [(G(6), 3), (G(F(1, 2)), 2), (G(2), 4), (G(-2), 2), (G(2, 3), 3),
          (G(F(-3, 4), F(1, 5)), 2), (G(160), 2)]


@lru_cache(maxsize=None)
def conjugates(field):
    beta, g = FIELDS[field]
    return radical_roots(beta, g)


gaussians = st.builds(lambda a, b, d: G(F(a, d), F(b, d)),
                      st.integers(-30, 30), st.integers(-30, 30), st.integers(1, 12))


@st.composite
def elements(draw, field, root=0, nonzero=False):
    """sum x_r eta^r with small Gaussian-rational coordinates."""
    eta = conjugates(field)[root]
    g = FIELDS[field][1]
    coords = draw(st.lists(gaussians, min_size=g, max_size=g))
    if nonzero and all(c.is_zero() for c in coords):
        coords[0] = GR_ONE
    x = coords[0] + eta * 0
    for r in range(1, g):
        x = x + coords[r] * eta ** r
    return x


def field_and(n, nonzero=False):
    """A field index and n elements of it, read at one root."""
    return st.integers(0, len(FIELDS) - 1).flatmap(
        lambda f: st.integers(0, FIELDS[f][1] - 1).flatmap(
            lambda k: st.tuples(st.just((f, k)),
                                *[elements(f, k, nonzero) for _ in range(n)])))


def overlap(a, b):
    """The exact disks_overlap rule of perfbench on two balls."""
    fa = [_exact(x) for x in (a.val.real, a.val.imag, a.err)]
    fb = [_exact(x) for x in (b.val.real, b.val.imag, b.err)]
    return (fa[0] - fb[0]) ** 2 + (fa[1] - fb[1]) ** 2 <= (fa[2] + fb[2]) ** 2


def _exact(x):
    sign, man, exp, _ = x._mpf_
    man = -man if sign else man
    return F(man << exp) if exp >= 0 else F(man, 1 << -exp)


BUDGET = settings(max_examples=60, deadline=None, derandomize=True)


class TestFieldAxioms:
    @BUDGET
    @given(field_and(3))
    def test_ring_laws(self, case):
        _, x, y, z = case
        assert (x + y) + z == x + (y + z) and x + y == y + x
        assert (x * y) * z == x * (y * z) and x * y == y * x
        assert x * (y + z) == x * y + x * z
        assert (x - y) + y == x and (x - x).is_zero() and -x + x == 0
        assert x * 1 == x and x * 0 == 0 and x * F(1, 3) * 3 == x

    @BUDGET
    @given(field_and(2, nonzero=True))
    def test_inverse(self, case):
        _, x, y = case
        assert x * x.inverse() == 1
        assert 1 / x == x.inverse() and (x / y) * y == x
        assert x ** -2 * x ** 2 == 1 and x ** 3 == x * x * x
        assert x / G(2, 1) * G(2, 1) == x

    def test_division_by_zero(self):
        eta = conjugates(0)[0]
        with pytest.raises(ZeroDivisionError):
            (eta - eta).inverse()

    @pytest.mark.parametrize("field", range(len(FIELDS)))
    def test_eta_solves_its_binomial(self, field):
        beta, g = FIELDS[field]
        for eta in conjugates(field):
            assert eta ** g == beta and not is_exact(eta)
            assert eta ** (g - 1) != beta and eta ** g * eta ** -g == 1


class TestEmbeddings:
    @BUDGET
    @given(field_and(2))
    def test_complex_is_a_ring_homomorphism(self, case):
        (field, root), x, y = case
        bx, by = x.to_ball(), y.to_ball()
        # x - y against bx + (-1) by: ball negation rounds (ROADMAP item 1)
        for op, ball_op in ((operator.add, operator.add), (operator.mul, operator.mul),
                            (operator.sub, lambda a, b: a + b * -1)):
            assert overlap(op(x, y).to_ball(), ball_op(bx, by))
        assert complex(x) == complex(bx)
        # the same coordinates at every other root
        for eta in conjugates(field):
            emb = field_of(eta)
            assert overlap((x * y).at(emb).to_ball(), x.at(emb).to_ball() * y.at(emb).to_ball())

    @pytest.mark.parametrize("field", range(len(FIELDS)))
    def test_roots_are_the_closed_forms(self, field):
        beta, g = FIELDS[field]
        etas = conjugates(field)
        assert sorted(field_of(e).index for e in etas) == list(range(g))
        for e in etas:
            ball = field_of(e).eta
            assert overlap(ball ** g, BigComplex.from_exact(beta))
            assert ball == e.to_ball() or overlap(ball, e.to_ball())
        keys = [(complex(e).real, complex(e).imag) for e in etas]
        assert len(set(keys)) == g

    def test_other_embeddings_and_balls_are_refused(self):
        # K meets Q(i) values and its own embedding only; equality stays exact
        eta0, eta1 = conjugates(0)[:2]
        ball = BigComplex.from_exact(G(3))
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            for x, y in ((eta0, eta1), (eta1, eta0), (eta0, ball), (ball, eta0)):
                with pytest.raises(TypeError):
                    op(x, y)
        assert eta0 != eta1 and eta0 * 0 + 2 == eta1 * 0 + 2

    def test_values_in_gaussian_rationals_equal_and_hash_alike(self):
        eta = conjugates(1)[0]           # eta^2 = 1/2
        half = eta * eta
        assert half == G(F(1, 2)) and hash(half) == hash(G(F(1, 2))) == hash(F(1, 2))
        assert len({half, G(F(1, 2)), F(1, 2)}) == 1
        assert eta != G(F(1, 2)) and hash(eta) == hash(eta * 1)

    def test_embedding_identity(self):
        beta, g = FIELDS[0]
        e = field_of(conjugates(0)[0])
        assert Embedding(g, beta, e.index) == e and hash(Embedding(g, beta, e.index)) == hash(e)
        assert Embedding(g, beta, (e.index + 1) % g) != e
        with pytest.raises(ValueError):
            conjugates(0)[0].at(field_of(conjugates(1)[0]))

    def test_immutable(self):
        with pytest.raises(AttributeError):
            conjugates(0)[0]._d = 2
        assert isinstance(conjugates(0)[0], AlgebraicNumber)


def term_by_term(xs, ys, ws=None, div=1, acc=None):
    """The sum as every caller wrote it before the fused kernel: each kept
    (x y) w added left to right, onto ``acc`` when given, then times 1/div."""
    for i, (x, y) in enumerate(zip(xs, ys)):
        if (ws is not None and ws[i] == 0) or _is_exact_zero(x) or _is_exact_zero(y):
            continue
        t = x * y if ws is None else x * y * ws[i]
        acc = t if acc is None else acc + t
    return acc if div == 1 or acc is None else acc * F(1, div)


def same_value(got, want):
    """Equal exact values of the same type at the same embedding, or balls
    with the same bits."""
    if isinstance(want, BigComplex):
        return (isinstance(got, BigComplex) and got.val == want.val
                and got.err == want.err and got.prec == want.prec)
    return type(got) is type(want) and field_of(got) == field_of(want) and got == want


weights = st.one_of(st.none(), st.lists(st.integers(-3, 3), min_size=8, max_size=8))
divisors = st.sampled_from((1, 1, 2, 12))


@st.composite
def operands(draw, field, root, n):
    """n operands of K read at one root: elements of K, Gaussian rationals
    over unequal denominators, and exact zeros of either type."""
    out = []
    for _ in range(n):
        kind = draw(st.sampled_from(("k", "k", "q", "zero_q", "zero_k")))
        if kind == "k":
            out.append(draw(elements(field, root)))
        elif kind == "q":
            out.append(draw(gaussians))
        else:
            out.append(GR_ZERO if kind == "zero_q" else conjugates(field)[root] * 0)
    return out


@st.composite
def fused_case(draw):
    field = draw(st.integers(0, len(FIELDS) - 1))
    root = draw(st.integers(0, FIELDS[field][1] - 1))
    n = draw(st.integers(0, 6))
    return (draw(operands(field, root, n)), draw(operands(field, root, n)),
            draw(weights), draw(divisors), (field, root))


class TestFusedSum:
    """dot equals the term-by-term sum: the same normal form over Q(i) and
    over K, and the same bits once a ball or another embedding joins in
    without meeting K at the first embedding, where both raise TypeError."""

    @BUDGET
    @given(st.lists(gaussians, max_size=8), st.lists(gaussians, max_size=8), weights,
           divisors, st.booleans())
    def test_gaussian(self, xs, ys, ws, div, from_zero):
        want = term_by_term(xs, ys, ws, div, GR_ZERO if from_zero else None)
        assert same_value(dot(xs, ys, ws, div, from_zero), want)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(fused_case())
    def test_field(self, case):
        xs, ys, ws, div, _ = case
        got = dot(xs, ys, ws, div)
        assert same_value(got, term_by_term(xs, ys, ws, div))
        assert dot(xs, ys, ws, div, from_zero=True) == (GR_ZERO if got is None else got)

    @BUDGET
    @given(fused_case(), st.integers(0, 7), st.sampled_from(("ball", "conjugate")))
    def test_other_operands_keep_their_bits(self, case, at, kind):
        xs, ys, ws, div, (field, root) = case
        if not xs:
            return
        at %= len(xs)
        x = xs[at] + conjugates(field)[root]
        if kind == "ball":
            xs[at] = BigComplex.from_exact(G(F(1, 3), 2)) * x.to_ball()
        else:
            other = field_of(conjugates(field)[(root + 1) % FIELDS[field][1]])
            xs[at] = x.at(other)
        emb = field_of(conjugates(field)[root])
        kept = [(x, y) for i, (x, y) in enumerate(zip(xs, ys))
                if (ws is None or ws[i]) and not _is_exact_zero(x) and not _is_exact_zero(y)]
        mixed = (any(x is xs[at] for x, _y in kept)
                 and any(field_of(v) == emb for pair in kept for v in pair))
        for acc in (None, GR_ZERO):
            if mixed:
                with pytest.raises(TypeError):
                    term_by_term(xs, ys, ws, div, acc)
                with pytest.raises(TypeError):
                    dot(xs, ys, ws, div, from_zero=acc is not None)
                continue
            want = term_by_term(xs, ys, ws, div, acc)
            assert same_value(dot(xs, ys, ws, div, from_zero=acc is not None), want)


def old_mul(a, b):
    """ZSeries.mul's product loop before the fused kernel (cap-free)."""
    out = [GR_ZERO] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            if not _is_exact_zero(x) and not _is_exact_zero(y):
                out[i + j] = out[i + j] + x * y
    return out


class TestSeriesWithABall:
    @BUDGET
    @given(st.lists(gaussians, min_size=1, max_size=7),
           st.lists(gaussians, min_size=1, max_size=7), st.integers(0, 6))
    def test_product_has_the_old_bits(self, xs, ys, at):
        xs[at % len(xs)] = BigComplex.from_exact(G(F(2, 7), F(-1, 3))).root(3)
        a, b = ZSeries(0, xs), ZSeries(0, ys)
        if not a.coeffs or not b.coeffs:
            return
        got = a.mul(b)
        want = old_mul(a, b)
        shift = got.start - (a.start + b.start)
        assert len(got.coeffs) + shift <= len(want)
        assert all(same_value(got.coeff(a.start + b.start + k), w)
                   for k, w in enumerate(want) if not _is_exact_zero(w))

    @BUDGET
    @given(fused_case(), st.integers(-3, 3), st.integers(0, 7),
           st.sampled_from((None, "ball", "zero ball")))
    def test_scale_and_derivative_keep_every_value(self, case, start, at, ball):
        # skipping the product of an exact zero changes no value, no type and
        # no ball: every coefficient is what the product gives
        xs, _, _, _, (field, root) = case
        if xs and ball:
            x = G(F(2, 7), F(-1, 3)) if ball == "ball" else GR_ZERO
            xs[at % len(xs)] = BigComplex.from_exact(x).root(3)
        eta = conjugates(field)[root]
        s = ZSeries(start, xs, start + 9)
        for c in (GR_ZERO, G(F(2, 3), -1), -1, 0, F(1, 2), eta, eta * 0,
                  BigComplex.from_exact(G(F(1, 3))), BigComplex.from_exact(GR_ZERO)):
            for shift in (0, 2):
                assert same_series(outcome(s.scale, c, shift),
                                   outcome(plain_scale, s, c, shift))
        assert same_series(s.derivative(), plain_derivative(s))
        assert same_series(s.derivative_n(3), plain_derivative(plain_derivative(
            plain_derivative(s))))


def plain_scale(s, c, shift=0):
    """ZSeries.scale before it skipped exact zeros: a product per coefficient."""
    return ZSeries(s.start + shift, [x * c for x in s.coeffs], s.valid_to + shift)


def plain_derivative(s):
    """ZSeries.derivative before it skipped exact zeros."""
    return ZSeries(s.start - 1, [c * (s.start + i) for i, c in enumerate(s.coeffs)],
                   s.valid_to - 1)


def outcome(fn, *args):
    """fn(*args), or the class of the TypeError it raised."""
    try:
        return fn(*args)
    except TypeError as exc:
        return type(exc)


def same_series(got, want):
    if not isinstance(want, ZSeries):
        return got is want
    return ((got.start, got.valid_to, len(got.coeffs))
            == (want.start, want.valid_to, len(want.coeffs))
            and all(same_value(g, w) for g, w in zip(got.coeffs, want.coeffs)))


REDUCIBLE = [(G(4), 2), (G(0, 2), 2), (G(-4), 4), (G(8), 3), (G(0, 1), 3), (G(1), 3)]
IRREDUCIBLE = [(G(6), 3), (G(F(1, 2)), 2), (G(2), 4), (G(-2), 2)]


class TestCapelli:
    @pytest.mark.parametrize("beta, g", REDUCIBLE)
    def test_reducible(self, beta, g):
        assert not binomial_irreducible(beta, g)
        assert radical_roots(beta, g) is None

    @pytest.mark.parametrize("beta, g", IRREDUCIBLE)
    def test_irreducible(self, beta, g):
        assert binomial_irreducible(beta, g)
        assert len(radical_roots(beta, g)) == g

    def test_degree_one_and_balls_stay_outside(self):
        assert radical_roots(G(6), 1) is None
        assert radical_roots(BigComplex.from_exact(G(6)).root(2), 3) is None

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(gaussians, st.sampled_from((2, 3, 5)))
    def test_powers_are_recognised(self, gamma, p):
        if gamma.is_zero():
            return
        assert is_pth_power(gamma ** p, p)
        # a unit or a prime factor short of a p-th power is not one
        assert not is_pth_power(gamma ** p * G(1, 1), p)

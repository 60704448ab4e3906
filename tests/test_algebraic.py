"""Exact arithmetic in K = Q(i)[eta]/(eta^g - beta), its embeddings, and
Capelli's irreducibility test for x^g - beta over Q(i)."""

import operator
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from bbsolve.algebra import (GR_ONE, AlgebraicNumber, BigComplex, Embedding,
                             GaussianRational, binomial_irreducible, is_exact,
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
        # x - y against bx + (-1) by: ball negation rounds (ROADMAP item 9)
        for op, ball_op in ((operator.add, operator.add), (operator.mul, operator.mul),
                            (operator.sub, lambda a, b: a + b * -1)):
            assert overlap(op(x, y).to_ball(), ball_op(bx, by))
        assert complex(x) == complex(bx)
        # the same coordinates at every other root
        for eta in conjugates(field):
            emb = eta.embedding
            assert overlap((x * y).at(emb).to_ball(), x.at(emb).to_ball() * y.at(emb).to_ball())

    @pytest.mark.parametrize("field", range(len(FIELDS)))
    def test_roots_are_the_closed_forms(self, field):
        beta, g = FIELDS[field]
        etas = conjugates(field)
        assert sorted(e.embedding.index for e in etas) == list(range(g))
        for e in etas:
            ball = e.embedding.eta
            assert overlap(ball ** g, BigComplex.from_exact(beta))
            assert ball == e.to_ball() or overlap(ball, e.to_ball())
        keys = [(complex(e).real, complex(e).imag) for e in etas]
        assert len(set(keys)) == g

    def test_conjugates_meet_as_balls(self):
        eta0, eta1 = conjugates(0)[:2]
        total = eta0 + eta1
        assert isinstance(total, BigComplex)
        assert overlap(total, eta0.to_ball() + eta1.to_ball())
        assert eta0 != eta1 and eta0 * 0 + 2 == eta1 * 0 + 2
        assert isinstance(eta0 * BigComplex.from_exact(G(3)), BigComplex)

    def test_values_in_gaussian_rationals_equal_and_hash_alike(self):
        eta = conjugates(1)[0]           # eta^2 = 1/2
        half = eta * eta
        assert half == G(F(1, 2)) and hash(half) == hash(G(F(1, 2))) == hash(F(1, 2))
        assert len({half, G(F(1, 2)), F(1, 2)}) == 1
        assert eta != G(F(1, 2)) and hash(eta) == hash(eta * 1)

    def test_embedding_identity(self):
        beta, g = FIELDS[0]
        e = conjugates(0)[0].embedding
        assert Embedding(g, beta, e.index) == e and hash(Embedding(g, beta, e.index)) == hash(e)
        assert Embedding(g, beta, (e.index + 1) % g) != e
        with pytest.raises(ValueError):
            conjugates(0)[0].at(conjugates(1)[0].embedding)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            conjugates(0)[0]._d = 2
        assert isinstance(conjugates(0)[0], AlgebraicNumber)


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

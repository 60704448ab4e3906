"""Classification of solution germs into class-W shapes.

Exact matchers first: one-term monomial solutions c z^-n, exponential
solutions of affine equations y^(k) = lambda y + mu (pure e^(az) modes with
a^k = lambda), and closed forms y = R(e^(az)) with a pole.  The multiplier a
of such an R comes from the equation: R tends to an equilibrium r of
y^(k) = f(y) as e^(az) -> 0, so a^k = f'(r), and each exact a turns the
exact germ into an exact Pade approximant R = A/B.  Both exponential
matchers certify y = A(w)/B(w), w = e^(az), by one cleared-denominator
polynomial identity (_certify_exponential).  Numeric evidence second, when
no closed form is certified: high-order Taylor continuation of the germ
through the plane, pole crossing by matching the exact Laurent germ near
each pole, and a lattice fit on the recorded pole set.  Two independent
periods with nonreal ratio mean elliptic, one period rational in e^(az),
both numerically.  A continuation segment (run_segment) reaches its target
within 1e-9 (1 + its length) or raises ToleranceLoss: the sweep drops that
ray but keeps the poles it recorded, and its state probe answers None.
classify_equation runs this policy on one screened equation as one chain
whose first route that holds returns the verdict: the screen (overruled
only by an exact monomial solution), a certified closed form R(e^(az)), a
verified rank-2 then rank-1 lattice, the monomial solution, else
undetermined.  It reads the equation and the screen's report only, and the
screen alone decides whether the first integral of an even-k equation is
certified.

Numeric verdicts are labelled confidence="numeric"; only back-substituted
identities are "exact".
"""

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product, repeat
from operator import mul

from .algebra import (GR_ONE, GR_ZERO, GaussianRational, UPoly, ZSeries,
                      falling, is_exact, root_multiplicities, roots_univariate,
                      solve_linear)
from .conditions import classify_kappa, degree_bound
from .errors import (BBError, DegenerateInput, PrecisionExhausted, SingularEncounter,
                     ToleranceLoss)
from .eqparse import gaussian_str, upoly_str
from .series import germs_for_pairs

DEFAULT_TRAJ_TOL = 1e-10
DEFAULT_RATIO_TOL = 1e-4
# germ index of the family the numeric continuation starts from
CONTINUATION_N = 24


# ---------------------------------------------------------------------------
# exact monomial matcher
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonomialMatch:
    n: int
    defining_poly: UPoly      # vanishes exactly on the admissible c values

    def describe(self):
        return (f"y = c*z^-{self.n} with c a root of "
                f"{upoly_str(self.defining_poly, 'c')} = 0")


def match_monomial(eq):
    """Exact one-term solutions c z^-n of P(y^(k), y) = 0.

    For each pole order n admitted by the Newton polygon, substitute
    y = c z^-n, group by z-exponent, and take the gcd of the resulting
    polynomials in c; its nonzero roots are exactly the monomial solutions.
    """
    from .curve import newton_polygon
    k = eq.k
    out = []
    seen_n = set()
    for edge in newton_polygon(eq.P).upper_edges:
        label, n = classify_kappa(k, edge.kappa)
        if label != "kappa_one_plus_k_over_n" or n in seen_n:
            continue
        seen_n.add(n)
        D0 = GaussianRational(falling(-n, k))
        buckets = {}
        for (i, j), a in sorted(eq.P.terms.items()):
            expo = -(n + k) * i - n * j
            cpoly = UPoly.monomial(i + j, a * (D0 ** i))
            buckets[expo] = buckets.get(expo, UPoly()) + cpoly
        g = UPoly()
        for expo in sorted(buckets):
            g = buckets[expo].gcd(g) if not g.is_zero() else buckets[expo].monic()
            if g.degree() == 0:
                break
        _v, core = g.shift_valuation()
        if core.degree() < 1:
            continue
        for expo in sorted(buckets):  # exactness check: gcd divides every bucket
            if not (buckets[expo] % core).is_zero():
                raise PrecisionExhausted(
                    f"monomial gcd does not divide the z^{expo} bucket")
        out.append(MonomialMatch(n=n, defining_poly=core))
    return out


# ---------------------------------------------------------------------------
# exact exponential matcher
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentialMatch:
    a_poly: UPoly             # defining polynomial of the multiplier a
    R_num: UPoly              # y = R_num(w)/R_den(w) at w = e^(az)
    R_den: UPoly

    def describe(self):
        body = upoly_str(self.R_num, "w")
        if self.R_den.degree() > 0 or self.R_den.lc() != GR_ONE:
            body = f"({body})/({upoly_str(self.R_den, 'w')})"
        return (f"y = {body} with w = e^(a*z), a a root of "
                f"{upoly_str(self.a_poly, 'a')} = 0")


def match_exponential(eq, notes=None):
    """Exact solutions y = R(e^(az)) of affine equations.

    Affine right-hand sides y^(k) = lambda y + mu give the complete family of
    pure modes (R(w) = w - mu/lambda, a^k = lambda), certified exactly.  No
    other equation is searched here: classify_equation looks for an R with a
    pole through reconstruct_exponential.  No match is reported through
    ``notes``, not as a failure.
    """
    out = []
    if eq.resolved is not None:
        N, D = eq.resolved
        if D.degree() == 0 and N.degree() == 1:
            lam = N[1]
            mu = N[0]
            if not lam.is_zero():
                a_poly = UPoly([-lam] + [GR_ZERO] * (eq.k - 1) + [GR_ONE])
                R_num = UPoly([-(mu * lam.inverse()), GR_ONE])
                R_den = UPoly.constant(GR_ONE)
                if not _certify_exponential(eq, lam, R_num, R_den):
                    raise PrecisionExhausted("exponential mode fails back-substitution")
                out.append(ExponentialMatch(a_poly=a_poly, R_num=R_num, R_den=R_den))
    if not out and notes is not None:
        notes.append("no exact exponential match: without a period, only affine "
                     "right-hand sides are matched")
    return out


def reconstruct_exponential(eq, germ, a, degree_cap=6):
    """Try to certify y = R(e^(az)) for the exact multiplier ``a``.

    ``germ`` is the exact Laurent germ y = sum c_j z^(j-n) at the pole z = 0.
    With s = e^(az) - 1, z = log(1 + s)/a turns it into a Laurent series in
    s; R = A(s)/(s^n B(s)) is its Pade approximant, solved exactly for each
    (deg num, deg den) in turn and kept only when _certify_exponential proves
    the cleared-denominator identity.  For even k every system reads the
    germ through its resonant index 2n + k, where the first-integral
    constant enters, so R is the solution at the germ's c; a shorter germ
    certifies nothing.  Returns an ExponentialMatch, or None when the germ is
    not exact or nothing within the cap is certified.
    """
    n = germ.n
    if n > degree_cap or not all(is_exact(c) for c in germ.coeffs):
        return None
    # s^n y(s) two indices past what the largest Pade system reads, and for
    # even k at least through the resonant index (a free germ stops below it)
    res = 2 * n + eq.k if eq.k % 2 == 0 else 0
    M = min(max(2 * degree_cap - n + 2, res), len(germ.coeffs) - 1)
    if M < res:
        return None
    Y = _germ_in_s(germ.coeffs, n, a, M)
    a_k = a ** eq.k
    for deg_n in range(1, degree_cap + 1):
        for deg_d in range(n, degree_cap + 1):
            R = _pade_in_w(Y, n, deg_n, deg_d - n)
            if R is not None and _certify_exponential(eq, a_k, *R):
                return ExponentialMatch(a_poly=UPoly([-a, GR_ONE]),
                                        R_num=R[0], R_den=R[1])
    return None


def _multipliers(eq, precision):
    """The exact multipliers a to try for y = R(e^(az)) on y^(k) = N(y).

    As w = e^(az) -> 0, R(w) tends to an equilibrium r, and linearising at r
    gives a^k = N'(r) for a simple root r of N.  Only a germ family reaches
    here, and a family exists only when D = 1 (the integrality screen).
    Only roots r and a in Q(i) count, and a only on the half-plane Im a > 0
    or Im a = 0 < Re a, since R(1/w) covers -a.
    """
    N, _ = eq.resolved
    dN, out = N.derivative(), []
    for r, mult in root_multiplicities(N, precision):
        if mult > 1 or not is_exact(r):
            continue
        lam = dN.eval(r)
        for a in roots_univariate(UPoly([-lam] + [GR_ZERO] * (eq.k - 1) + [GR_ONE]),
                                  precision):
            if is_exact(a) and (a.im > 0 or (a.im == 0 and a.re > 0)) and a not in out:
                out.append(a)
    return out


def _germ_in_s(coeffs, n, a, M):
    """[Y_0, ..., Y_M] of Y(s) = s^n y(z(s)), z = log(1 + s)/a.

    With log(1 + s) = s l(s):  Y = a^n l(s)^-n G(z(s)),  G(z) = sum c_j z^j,
    composed by Horner's rule on series truncated at s^M.
    """
    ell = ZSeries(0, [GaussianRational(Fraction((-1) ** i, i + 1))
                      for i in range(M + 1)], M)
    z = ell.scale(a.inverse(), shift=1)
    G = ZSeries.zero(M)
    for c in reversed(coeffs[:M + 1]):
        G = G.mul(z, cap=M) + ZSeries(0, [c], M)
    Y = G.mul(ell.pow_int(-n, cap=M), cap=M).scale(a ** n)
    return [Y.coeff(i) for i in range(M + 1)]


def _pade_in_w(Y, n, dn, db):
    """R(w) = A(s)/(s^n B(s)) at s = w - 1, deg A <= dn, deg B <= db, B(0) = 1,
    with B Y - A = O(s^(dn + db + 1)); returned as a coprime pair (num, den)
    of polynomials in w with den monic.

    None when Y is too short, the system is singular, or B Y - A misses a
    coefficient of Y past those it was solved from: B Y = A holds exactly
    when R is the germ, and that cheap test spares most exact certifications.
    """
    size = dn + 1 + db
    if size >= len(Y):
        return None
    rows = []
    for i in range(size):
        row = [GR_ZERO] * size
        if i <= dn:
            row[i] = -1
        for t in range(1, min(i, db) + 1):
            row[dn + t] = Y[i - t]
        rows.append(row)
    try:
        sol = solve_linear(rows, [-y for y in Y[:size]])
    except ValueError:
        return None
    B = [GR_ONE] + sol[dn + 1:]
    for i in range(size, len(Y)):
        if not sum((B[t] * Y[i - t] for t in range(db + 1)), GR_ZERO).is_zero():
            return None
    s, one = UPoly([-1, 1]), UPoly.constant(GR_ONE)
    num = _homogenised(UPoly(sol[:dn + 1]), s, one)
    den = _homogenised(UPoly([GR_ZERO] * n + B), s, one)
    g = num.gcd(den)
    num, den = num // g, den // g
    lc_inv = den.lc().inverse()
    return num * lc_inv, den * lc_inv


def _certify_exponential(eq, a_k, A, B):
    """Exact back-substitution of y = A(w)/B(w), w = e^(az), into the resolved
    form y^(k) = N(y), given a^k exactly.

    With Theta = w d/dw, y^(k) = a^k Theta^k (A/B) = a^k T_k / B^(k+1), where
    T_0 = A and T_(j+1) = w (T_j' B - (j + 1) T_j B').  With
    N~ = B^(deg N) N(A/B), the equation holds exactly when
    a^k T_k B^(deg N) == N~ B^(k + 1); the common power of B is cancelled
    first, so its exponent may land on either side.  A nonconstant D is
    refused, as in _Flow.
    """
    if eq.resolved is None:
        return False
    N = _polynomial_rhs(eq, "closed form")
    w, dB = UPoly.monomial(1), B.derivative()
    T = A
    for j in range(eq.k):
        T = w * (T.derivative() * B - T * dB * (j + 1))
    lhs = T * a_k
    rhs = _homogenised(N, A, B)
    excess = eq.k + 1 - N.degree()
    for _ in range(excess):
        rhs = rhs * B
    for _ in range(-excess):
        lhs = lhs * B
    return lhs == rhs


def _polynomial_rhs(eq, what):
    """N of the resolved form y^(k) = N(y).  A nonconstant D has no solution
    with a pole (the integrality screen), so no germ leads to ``what`` on it."""
    N, D = eq.resolved
    if D.degree() > 0:
        raise DegenerateInput(f"{what} of y^(k) = N(y)/D(y) with nonconstant D: "
                              "no solution has a pole")
    return N


def _homogenised(U, A, B):
    """B^(deg U) U(A/B), by Horner's rule with the powers of B built alongside;
    U(A) when B = 1."""
    out, B_pow = UPoly(), UPoly.constant(GR_ONE)
    for c in reversed(U.coeffs):
        out = out * A + B_pow * c
        B_pow = B_pow * B
    return out


# ---------------------------------------------------------------------------
# germ evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NumericGerm:
    germ_id: str
    n: int
    coeffs: tuple      # complex, index j <-> exponent j - n
    trust: float       # offset radius where the truncated tail is negligible
    # _tables[m]: the m-th derivative's coefficients, index j <-> exponent j - n - m
    _tables: list = field(default_factory=list, init=False, repr=False, compare=False)

    def eval_derivs(self, u, count):
        """Value and the first ``count`` derivatives at offset u from the pole."""
        tables = self._tables
        if not tables:
            tables.append(self.coeffs)
        while len(tables) <= count:
            start = 1 - self.n - len(tables)
            tables.append([c * (start + idx) for idx, c in enumerate(tables[-1])])
        if count == 1:      # match_pole's Newton step: both sums in one loop
            acc0 = acc1 = 0j
            for c0, c1 in zip(reversed(tables[0]), reversed(tables[1])):
                acc0 = acc0 * u + c0
                acc1 = acc1 * u + c1
            return [acc0 * u ** -self.n, acc1 * u ** (-self.n - 1)]
        out = []
        for m in range(count + 1):
            acc = 0j
            for c in reversed(tables[m]):
                acc = acc * u + c
            out.append(acc * u ** (-self.n - m))
        return out


def _germ_trust(coeffs):
    """Safe evaluation radius from the coefficient growth rate.

    Coefficients of a germ with convergence radius rho grow like rho^-j
    (times slowly varying factors), so |c_j1 / c_j2|^(1/(j2-j1)) estimates
    rho, most reliably between the highest-index coefficients.  Evaluating
    inside 0.4 rho keeps the dropped tail many orders below the kept terms.
    """
    idx = [j for j, c in enumerate(coeffs) if abs(c) > 1e-280]
    ests = []
    for a in idx[-5:]:
        for b in idx[-5:]:
            if b - a >= 3:
                ests.append(abs(coeffs[a] / coeffs[b]) ** (1.0 / (b - a)))
    if not ests:
        return 0.8
    ests.sort()
    rho = ests[len(ests) // 2]
    if rho > 1e6:
        return 0.8
    return max(min(0.4 * rho, 2.0), 1e-3)


def germ_numeric(ls, germ_id):
    if ls.resonance_status == "free":
        raise ValueError("free-parameter germ cannot be evaluated numerically; pin c")
    cs = [complex(c) for c in ls.coeffs]
    return NumericGerm(germ_id=germ_id, n=ls.n, coeffs=tuple(cs),
                       trust=_germ_trust(cs))


# ---------------------------------------------------------------------------
# Taylor-series continuation with pole hopping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoleEvent:
    z: complex
    germ_id: str
    residual: float


class _Flow:
    """Taylor stepping of the system behind P(y^(k), y) = 0 in machine complex.

    Resolved mode integrates y^(k) = N(y) on the state (y, y', ..., y^(k-1)):
    a nonconstant D has no solution with a pole (the integrality screen), so
    no germ leads here and such an equation is refused.  For even k it
    carries the first integral Phi_k(y) = s(y) + c with s = integral of N dy,
    read off the equation.  General mode carries p along with
    p' = -(dP/dq / dP/dp) y' and projects P(p, y) ~ 0 each step.
    """

    def __init__(self, eq, tol=DEFAULT_TRAJ_TOL):
        self.k = eq.k
        self.tol = tol
        self.order = max(22, eq.k + 6)
        self.resolved = None
        # complex coefficients of s(y) for even k in resolved mode; the
        # constant c is pinned by anchor_first_integral
        self.fi = None
        self.fi_c = None
        if eq.resolved is not None:
            N = _polynomial_rhs(eq, "continuation")
            self.resolved = [complex(c) for c in N.coeffs]
            # the (degree, coefficient) pairs of N that _poly_series reads
            self._nonzero = [(d, c) for d, c in enumerate(self.resolved) if c != 0]
            if self.k % 2 == 0:
                self.fi = [complex(c) for c in N.integrate().coeffs]
        self.P_terms = [(i, j, complex(c)) for (i, j), c in sorted(eq.P.terms.items())]
        Pp = eq.P.partial_p()
        Pq = eq.P.partial_q()
        self.Pp_terms = [(i, j, complex(c)) for (i, j), c in sorted(Pp.terms.items())]
        self.Pq_terms = [(i, j, complex(c)) for (i, j), c in sorted(Pq.terms.items())]
        # j! as the double a complex operation converts an int operand to; past
        # 170! an int, so a step reading one overflows on that conversion
        self._fact = [float(math.factorial(i)) if i <= 170 else math.factorial(i)
                      for i in range(self.order + 1)]
        # curve mode: the top powers of p and y read, and each mixed term's y^jq
        read = self.Pp_terms + self.Pq_terms
        self._dp = max([1] + [i for i, _, _ in read])
        self._dq = max([1] + [jq for _, jq, _ in read])
        self._mixed = sorted({jq for i, jq, _ in read if i and jq > 1})

    def phi_value(self, state):
        """Phi_k evaluated on (y, y', ..., y^(k-1))."""
        k = self.k
        half = k // 2
        acc = 0j
        for i in range(1, half):
            term = state[k - i] * state[i]
            acc += term if i % 2 == 1 else -term
        mid = state[half] * state[half]
        acc += 0.5 * mid if half % 2 == 1 else -0.5 * mid
        return acc

    def s_value(self, y):
        """s(y) = integral of N dy, without the constant c."""
        acc = 0j
        for c in reversed(self.fi):
            acc = acc * y + c
        return acc

    def anchor_first_integral(self, germ):
        """Pin the first-integral constant on a point of ``germ`` near its pole."""
        if self.fi is not None:
            state, _ = self.germ_state(germ, 0.55 * germ.trust * (0.902 + 0.431j))
            self.fi_c = self.phi_value(state) - self.s_value(state[0])

    def germ_state(self, germ, u):
        """The state (y, ..., y^(k-1)) at offset u from the pole of ``germ``,
        and p projected onto the curve (curve mode) or None (resolved mode)."""
        vals = germ.eval_derivs(u, self.k)
        state = tuple(vals[:self.k])
        p = None if self.resolved is not None else self._project(vals[self.k], state[0])
        return state, p

    def project_first_integral(self, state):
        """One Newton correction of y^(k-1) onto Phi_k(state) = s(y) + c."""
        if self.fi is None or self.fi_c is None:
            return state
        yp = state[1] if self.k >= 2 else None
        if yp is None or abs(yp) < 1e-8:
            return state
        f = self.phi_value(state) - self.s_value(state[0]) - self.fi_c
        st = list(state)
        st[self.k - 1] = st[self.k - 1] - f / yp
        return tuple(st)

    # -- series helpers ---------------------------------------------------

    # Each Cauchy product is sum(map(mul, a, b_rev)), b_rev = [b[j], ..., b[0]]:
    # the products and additions of sum(a[i] * b[j - i] for i in 0..j), in that
    # order from the start 0, with no generator frame.  Every b_rev (of y, p,
    # y^jq, y' and the quotient) gains its head once per order, unsliced.

    def taylor(self, state, p0=None):
        """Taylor coefficients Y[0..order] at the current point.

        Returns (Y, Pser) where Pser is the series of p (curve mode) or None.
        Every series involved gains exactly one coefficient per order j, and
        coefficient j reads only coefficients that are final by then, so one
        expansion costs O(order^2).
        """
        k, M, fact = self.k, self.order, self._fact
        Y = [state[i] / fact[i] for i in range(k)] + [0j] * (M - k + 1)
        Yrev = []
        if self.resolved is not None:
            ypows = [[1.0 + 0j] + [0j] * M, Y] \
                + [[0j] * (M + 1) for _ in range(max(len(self.resolved) - 2, 0))]
            grow = list(zip(ypows[2:], ypows[1:]))
            terms = [(c, ypows[d]) for d, c in self._nonzero]
            for j in range(0, M - k + 1):
                Yrev.insert(0, Y[j])
                for yd, lower in grow:
                    yd[j] = sum(map(mul, lower, Yrev))
                Nj = 0j
                for c, ys in terms:
                    Nj += c * ys[j]
                Y[j + k] = Nj * fact[j] / fact[j + k]
            return Y, None
        # general curve mode: p' = -(P_q(p, y) / P_p(p, y)) y'
        if p0 is None:
            raise ValueError("curve mode needs the p component in the state")
        dp, dq = self._dp, self._dq
        Pser = [p0] + [0j] * M
        ypows = [[1.0 + 0j] + [0j] * M, Y] + [[0j] * (M + 1) for _ in range(dq - 1)]
        ppows = [[1.0 + 0j] + [0j] * M, Pser] + [[0j] * (M + 1) for _ in range(dp - 1)]
        grow_y = list(zip(ypows[2:], ypows[1:]))
        grow_p = list(zip(ppows[2:], ppows[1:]))
        revs = [None, Yrev] + [[] for _ in range(dq - 1)]   # revs[jq]: y^jq reversed
        grow_rev = [(revs[jq], ypows[jq]) for jq in self._mixed]
        den_terms, pq_terms = ([(c, ppows[i] if i else ypows[jq], revs[jq] if i and jq else None)
                                for i, jq, c in terms]
                               for terms in (self.Pp_terms, self.Pq_terms))
        Prev, pq, yp_rev, den_tail, quo_rev = [], [], [], [], []
        for j in range(0, M - k + 1):
            Y[j + k] = Pser[j] * fact[j] / fact[j + k]
            Yrev.insert(0, Y[j])
            Prev.insert(0, Pser[j])
            for yd, lower in grow_y:
                yd[j] = sum(map(mul, lower, Yrev))
            for pd, lower in grow_p:
                pd[j] = sum(map(mul, lower, Prev))
            for rev, ys in grow_rev:
                rev.insert(0, ys[j])
            den_j = pq_j = 0      # series of P_p(p, y) and P_q(p, y)
            for c, s, rev in den_terms:
                den_j += c * (s[j] if rev is None else sum(map(mul, s, rev)))
            for c, s, rev in pq_terms:
                pq_j += c * (s[j] if rev is None else sum(map(mul, s, rev)))
            pq.append(pq_j)
            yp_rev.insert(0, (j + 1) * Y[j + 1])
            num = -sum(map(mul, pq, yp_rev))
            if j:
                den_tail.append(den_j)
            elif abs(den_j) < 1e-280:      # P_p's series starts at a final den_0
                raise SingularEncounter("dP/dp = 0 on the path: curve branch point")
            else:
                den0 = den_j
            quo_j = (num - sum(map(mul, den_tail, quo_rev))) / den0
            quo_rev.insert(0, quo_j)
            Pser[j + 1] = quo_j / (j + 1)
        return Y, Pser

    # -- stepping ---------------------------------------------------------

    def radius_estimate(self, Y):
        M = len(Y) - 1
        best = None
        for j in range(M, max(M - 6, 2), -1):
            if Y[j] != 0 and Y[j - 1] != 0:
                r = abs(Y[j - 1] / Y[j])
                if best is None or r < best:        # min(best, r)
                    best = r
        return best if best is not None else 1e6

    def singularity_estimate(self, Y):
        """Domb-Sykes fit: location offset d of the nearest singularity, from
        the top Taylor ratios; None when the fit fails."""
        M = len(Y) - 1
        js, us = [], []
        for j in range(M - 7, M + 1):
            if 2 <= j <= M and Y[j - 1] != 0 and abs(Y[j]) > 1e-290:
                js.append(j); us.append(Y[j] / Y[j - 1])
        if len(js) < 3:
            return None
        xs, sx, sxx, det = _abscissae(tuple(js))
        su = sum(us); sxu = sum(map(mul, xs, us))
        if abs(det) < 1e-30:
            return None
        intercept = (su * sxx - sx * sxu) / det
        if abs(intercept) < 1e-12:
            return None
        return 1.0 / intercept

    def advance(self, Y, Pser, h):
        """State and projected p at step h, from the expansion ``taylor`` gave."""
        fact, top = self._fact, len(Y) - 1
        # the i-th derivative sums Y_j j! / (j - i)! h^(j - i) by Horner's rule
        scaled = list(map(mul, Y, fact))
        new_state = []
        for i in range(self.k):
            acc = 0j
            for yf, f in zip(reversed(scaled[i:]), reversed(fact[:top - i + 1])):
                acc = acc * h + yf / f
            new_state.append(acc)
        p_new = None
        if Pser is not None:
            p_new = sum(map(mul, Pser, map(pow, repeat(h), range(len(Pser)))))
            p_new = self._project(p_new, new_state[0])
        return tuple(new_state), p_new

    def _project(self, p, y):
        for _ in range(3):
            f = sum(c * p ** i * y ** j for i, j, c in self.P_terms)
            fp = sum(c * p ** i * y ** j for i, j, c in self.Pp_terms)
            if fp == 0:
                break
            p = p - f / fp
        return p

    def defect(self, p, y):
        val = abs(sum(c * p ** i * y ** j for i, j, c in self.P_terms))
        scale = sum(abs(c) * abs(p) ** i * abs(y) ** j for i, j, c in self.P_terms)
        return val / scale if scale > 0 else val


@lru_cache(maxsize=None)
def _abscissae(js):
    """Domb-Sykes abscissae 1/j of the indices js, their sum, square sum, det."""
    xs = [1.0 / j for j in js]
    sx = sum(xs); sxx = sum(map(mul, xs, xs))
    return xs, sx, sxx, len(xs) * sxx - sx * sx


@lru_cache(maxsize=None)
def _unit_roots(n):
    """The n-th roots of unity e^(2 pi i t/n), t = 0..n-1."""
    return tuple(cmath.exp(2j * cmath.pi * t / n) for t in range(n))


def _unit(z):
    a = abs(z)
    return z / a if a > 0 else 1.0 + 0j


def match_pole(germs, z, state, k, p_obs=None):
    """Locate the pole near z by Newton-matching the exact germ.

    Returns (z_pole, germ, residual) or None.  The germ argument u = z - z_p
    starts from each asymptotic root y(u) ~ c_0 u^(-n) of each germ in turn,
    and the lowest score wins; matches outside the germ's trust radius are
    rejected, and the full state (plus p when supplied) must agree, which
    disambiguates even germs.
    """
    y_obs = state[0]
    if y_obs == 0:
        return None
    best = None
    for g in germs:
        base = g.coeffs[0] / y_obs
        try:
            r0 = base ** (1.0 / g.n)
        except (OverflowError, ZeroDivisionError):
            continue
        for u0 in (r0 * w for w in _unit_roots(g.n)):
            if abs(u0) > g.trust:
                continue
            u = u0
            ok = True
            for _ in range(60):
                vals = g.eval_derivs(u, 1)
                f = vals[0] - y_obs
                fp = vals[1]
                if fp == 0:
                    ok = False
                    break
                du = f / fp
                u = u - du
                if abs(u) > 2 * g.trust:
                    ok = False
                    break
                if abs(du) < 1e-15 * (1 + abs(u)):
                    break
            if not ok or abs(u) < 1e-12 or abs(u) > g.trust:
                continue
            depth = max(k - 1, 0) if p_obs is None else k
            vals = g.eval_derivs(u, depth)
            resid = abs(vals[0] - y_obs) / (1 + abs(y_obs))
            statedev = 0.0
            for i in range(1, min(k, len(state))):
                statedev = max(statedev,
                               abs(vals[i] - state[i]) / (1 + abs(state[i])))
            if p_obs is not None:
                statedev = max(statedev, abs(vals[k] - p_obs) / (1 + abs(p_obs)))
            score = max(resid, statedev)
            if score < 1e-7 and (best is None or score < best[2]):
                best = (z - u, g, score)
    return best


def run_segment(flow, z0, state, p0, z1, germs, events, max_steps=400,
                record=None, counts=None):
    """Integrate from z0 to z1 at flow.tol along the straight segment, hopping
    poles.  ``events``: mutable list of PoleEvent, deduplicated in place.
    Returns (state, p, max_defect) within 1e-9 (1 + |z1 - z0|) of z1, or
    raises ToleranceLoss.  ``counts`` (sweep_counts) gains its work.
    """
    counts = sweep_counts() if counts is None else counts
    taylor, radius, singularity = flow.taylor, flow.radius_estimate, flow.singularity_estimate
    z = z0
    p = p0
    max_defect = 0.0
    dirv = _unit(z1 - z0)
    total_len = abs(z1 - z0)
    hop_guard = 0
    passes = 0
    reach = 0.75 * max(g.trust for g in germs)
    for _ in range(max_steps):
        remaining = ((z1 - z) / dirv).real
        if remaining < 1e-12 * (1 + total_len):
            if abs(z1 - z) < 1e-9 * (1 + total_len):
                return state, p, max_defect
            if passes >= 2:
                raise ToleranceLoss(f"segment ended {abs(z1 - z):.2e} from its target")
            # hops pulled the path sideways; correct toward the exact target
            passes += 1
            dirv = _unit(z1 - z)
            continue
        counts["taylor_expansions"] += 1
        Y, Pser = taylor(state, p)
        rho = radius(Y)
        d_est = singularity(Y)
        near_pole = (d_est is not None and abs(d_est) < reach
                     and rho < 1.7 * reach and abs(d_est) < 3 * rho)
        if near_pole:
            counts["pole_matches"] += 1
            hit = match_pole(germs, z, state, flow.k, p_obs=p)
            if hit is not None:
                z_p, g, resid = hit
                _record_event(events, PoleEvent(z=z_p, germ_id=g.germ_id, residual=resid))
                # hop only when the pole obstructs the path ahead; poles just
                # behind (e.g. the anchor we started from) are records only
                t_along = ((z_p - z) / dirv).real
                off_path = abs((z_p - z) - t_along * dirv)
                if (-0.02 * g.trust <= t_along <= remaining + 0.1 * g.trust
                        and off_path < 0.35 * abs(d_est) + 1e-9):
                    hop_guard += 1
                    if hop_guard > 60:
                        raise ToleranceLoss("pole hopping did not progress")
                    counts["hops"] += 1
                    u_new = max(abs(z - z_p), 0.06 * g.trust)
                    z_new = z_p + u_new * dirv
                    state, p = flow.germ_state(g, z_new - z_p)
                    z = z_new
                    if record is not None:
                        record.append((z, state))
                    continue
        h_mag = min(0.35 * rho, remaining)
        # truncation control: the omitted tail behaves like |Y_M| h^M / (1 - h/rho)
        M = len(Y) - 1
        scale = max(abs(Y[0]), abs(state[-1]), 1.0)
        if Y[M] != 0:
            h_err = (0.02 * flow.tol * scale / abs(Y[M])) ** (1.0 / M)
            h_mag = min(h_mag, max(h_err, 1e-3 * rho))
        if h_mag <= 1e-13 * (1 + abs(z)):
            raise ToleranceLoss(f"step collapsed near z={z:.6g}")
        h = h_mag * dirv
        state, p_new = flow.advance(Y, Pser, h)
        state = flow.project_first_integral(state)
        z = z + h
        if flow.resolved is None:
            p = p_new
            dft = flow.defect(p, state[0])
            max_defect = max(max_defect, dft)
            if dft > max(flow.tol, 1e-8):
                raise ToleranceLoss(f"consistency defect {dft:.2e} exceeds tolerance")
        if record is not None:
            record.append((z, state))
    raise ToleranceLoss("segment step budget exhausted")


def _record_event(events, ev):
    """Add ``ev``, or keep the better residual of two records of one pole."""
    for i, old in enumerate(events):
        if abs(old.z - ev.z) < 3e-5 * (1 + abs(ev.z)):
            if ev.residual < old.residual:
                events[i] = ev
            return
    events.append(ev)


def sweep_counts():
    """Zeroed counters of a sweep's work and of its probe's, outside the report."""
    return {"rays": 0, "rays_failed": {}, "probe_segments": 0,
            "taylor_expansions": 0, "pole_matches": 0, "hops": 0}


def sweep_poles(eq, germ_family, tol=DEFAULT_TRAJ_TOL, budget=13, counts=None):
    """Breadth-first pole hunt around the seed pole at 0.

    Probes 8 rays from every discovered pole, 70 rays at most; each ray is
    integrated with pole hopping and every crossing recorded, on a failed ray
    too.  Deterministic processing order.  Returns (events, probe) with
    events sorted by (|z|, arg) and probe the state evaluator
    z -> (y, ..., y^(k-1)), or None where germ-anchored continuation on the
    flow anchored on the seed germ cannot reach z.  ``counts`` (see
    sweep_counts) gains the work of the sweep and of the probe's runs.
    """
    counts = sweep_counts() if counts is None else counts
    flow = _Flow(eq, tol)
    germs = [germ_numeric(ls, f"g{i}") for i, ls in enumerate(germ_family)]
    by_id = {g.germ_id: g for g in germs}
    flow.anchor_first_integral(germs[0])
    # detuned off the symmetry axes: straight rays through curve branch
    # points (dP/dp = 0) would stall the continuation
    dirs = [cmath.exp(1j * (cmath.pi * t / 4 + 0.0537)) for t in range(8)]
    events = [PoleEvent(z=0j, germ_id=germs[0].germ_id, residual=0.0)]
    processed = set()
    segments = 0
    scale = None
    while segments < 70 and len(events) < budget:
        todo = sorted((ev for ev in events if _zkey(ev.z) not in processed),
                      key=lambda ev: (abs(ev.z), cmath.phase(ev.z + 1e-12)))
        if not todo:
            break
        ev = todo[0]
        processed.add(_zkey(ev.z))
        g = by_id[ev.germ_id]
        # the trust radius is ~0.4x the nearest-pole distance, so 6.5 trust
        # spans two or three cells of the (still unknown) lattice
        reach = min(8.0, 6.5 * g.trust) if scale is None else 2.6 * scale
        start_off = min(0.31, 0.4 * g.trust)
        if scale is not None:
            start_off = min(start_off, 0.18 * scale)
        for dirv in dirs:
            if segments >= 70 or len(events) >= budget + 3:
                break
            segments += 1
            counts["rays"] += 1
            z_s = ev.z + start_off * dirv
            try:
                state, p = flow.germ_state(g, z_s - ev.z)
                run_segment(flow, z_s, state, p, ev.z + reach * dirv, germs,
                            events, max_steps=500, counts=counts)
            except (ToleranceLoss, SingularEncounter, OverflowError) as exc:
                failed = counts["rays_failed"]
                failed[type(exc).__name__] = failed.get(type(exc).__name__, 0) + 1
        if scale is None:
            others = [abs(e.z - events[0].z) for e in events[1:]]
            if others:
                scale = min(others)
    events.sort(key=lambda e: (round(abs(e.z), 9), round(cmath.phase(e.z + 1e-12), 9)))
    # the probe is deterministic, and _verify_period tests T1 and T2 from the
    # same base points: each point is continued once
    probed = {}

    def probe(z):
        z = complex(z)
        if z not in probed:
            probed[z] = _probe(z)
        return probed[z]

    def _probe(z):
        ev = min(events, key=lambda e: abs(z - e.z))
        g = by_id[ev.germ_id]
        r = abs(z - ev.z)
        if r < 1e-6:
            return None
        off = min(0.31, 0.4 * g.trust, max(0.9 * r, 1e-3))
        z_s = ev.z + off * _unit(z - ev.z)
        try:
            state, p = flow.germ_state(g, z_s - ev.z)
            if abs(z_s - z) >= 1e-12:
                counts["probe_segments"] += 1
                state, _, _ = run_segment(flow, z_s, state, p, z, germs, list(events),
                                          max_steps=300, counts=counts)
        except (ToleranceLoss, SingularEncounter, OverflowError):
            return None
        return state

    return events, probe


def _zkey(z):
    return (round(z.real, 7), round(z.imag, 7))


# ---------------------------------------------------------------------------
# period detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PeriodResult:
    periods: tuple            # () | (T,) | (T1, T2)
    verified: bool
    detail: str

    @property
    def rank(self):
        return len(self.periods)

    @property
    def ratio(self):          # T2/T1 for rank 2
        return self.periods[1] / self.periods[0] if self.rank == 2 else None


def detect_periods(pole_events, tol=DEFAULT_RATIO_TOL, state_probe=None):
    """Fit the pole set to a rank-1 or rank-2 lattice and verify by state match.

    The poles of one germ lie on one coset of the lattice, so the germ with
    the most poles is fitted first; unless that gives a verified rank 2, all
    poles are fitted too, and the higher (verified, rank) wins, mixed on a tie.
    """
    pts = [ev.z for ev in pole_events]
    groups = {}
    for ev in pole_events:
        groups.setdefault(ev.germ_id, []).append(ev.z)
    own = max(groups.values(), key=len, default=pts)
    best = _fit_lattice(own, tol, state_probe)
    if len(own) < len(pts) and not (best.verified and best.rank == 2):
        mixed = _fit_lattice(pts, tol, state_probe)
        best = max((mixed, best), key=lambda r: (r.verified, r.rank))
    return best


def _fit_lattice(pts, tol, state_probe):
    """Distances are fit by integer-relation on pairwise differences; candidate
    periods are confirmed only when the full trajectory state agrees at
    z and z + T for three test points (when a probe is available)."""
    if len(pts) < 2:
        return PeriodResult((), False, "fewer than two poles")
    seen = {}
    for a in pts:
        for b in pts:
            if abs(a - b) > 1e-9:
                seen.setdefault(_ckey(a - b), a - b)
    diffs = sorted(seen.values(), key=lambda d: (abs(d), cmath.phase(d)))
    T1 = diffs[0]
    # rank-1 test
    rank1 = all(_near_int_multiple(d, T1, tol) for d in diffs)
    if rank1:
        T1 = _canon_sign(T1)
        ok = _verify_period(state_probe, pts, T1)
        return PeriodResult((T1,), ok,
                            "all pole differences are integer multiples of one period")
    T2 = None
    for d in diffs[1:]:
        r = d / T1
        if abs(r.imag) > 0.02:
            T2 = d
            break
    if T2 is None:
        return PeriodResult((), False, "no independent second difference")
    T1, T2 = _gauss_reduce(T1, T2)
    fit_ok = all(_lattice_fits(d, T1, T2, tol) for d in diffs)
    if not fit_ok:
        return PeriodResult((), False,
                            "pole set does not fit a rank-2 lattice within tolerance")
    T1 = _canon_sign(T1)
    T2 = _canon_sign(T2)
    if _basis_key(T2) < _basis_key(T1):
        T1, T2 = T2, T1
    if (T2 / T1).imag < 0:
        T2 = -T2
    ok = (_verify_period(state_probe, pts, T1)
          and _verify_period(state_probe, pts, T2))
    T1, T2 = _rebase(T1, T2, tol)
    return PeriodResult((T1, T2), ok, "pole set fits a rank-2 lattice")


def _basis_key(T):
    return (round(abs(T), 9), round(abs(cmath.phase(T)), 9))


def _ckey(z):
    return (round(z.real, 8), round(z.imag, 8))


def _near_int_multiple(d, T, tol):
    r = d / T
    return abs(r.imag) <= tol and abs(r.real - round(r.real)) <= tol


def _lattice_fits(d, T1, T2, tol):
    det = T1.real * T2.imag - T1.imag * T2.real
    if abs(det) < 1e-12:
        return False
    a = (d.real * T2.imag - d.imag * T2.real) / det
    b = (T1.real * d.imag - T1.imag * d.real) / det
    return abs(a - round(a)) <= tol and abs(b - round(b)) <= tol


def _gauss_reduce(T1, T2):
    for _ in range(64):
        if abs(T2) < abs(T1):
            T1, T2 = T2, T1
        mu = round((T2 * T1.conjugate()).real / abs(T1) ** 2)
        T2n = T2 - mu * T1
        if T2n == T2:
            break
        T2 = T2n
    return T1, T2


def _rebase(T1, T2, tol):
    """The basis of the same lattice whose ratio tau = T2/T1 has Re tau in
    (-1/2, 1/2], and Re tau >= 0 when |tau| = 1, both within ``tol``."""
    shift = math.floor(0.5 + tol - (T2 / T1).real)
    if shift:
        T2 = T2 + shift * T1
    tau = T2 / T1
    if abs(abs(tau) - 1) <= tol and tau.real < -tol:
        T1, T2 = T2, -T1
    return T1, T2


def _canon_sign(T):
    thresh = 1e-7 * abs(T)
    if T.real < -thresh or (abs(T.real) <= thresh and T.imag < 0):
        return -T
    return T


def _verify_period(state_probe, pts, T):
    if state_probe is None:
        return False
    base = pts[0]
    s = min(1.0, abs(T))
    tests = [base + s * (0.31 + 0.17j), base + s * (0.52 - 0.11j),
             base + s * (-0.23 + 0.41j)]
    checked = 0
    for z in tests:
        s1 = state_probe(z)
        s2 = state_probe(z + T)
        if s1 is None or s2 is None:
            continue
        dev = max(abs(a - b) / (1 + abs(a)) for a, b in zip(s1, s2))
        if dev > 1e-6:
            return False
        checked += 1
    return checked >= 2


# ---------------------------------------------------------------------------
# the decision chain
# ---------------------------------------------------------------------------

LABELS = ("rational", "rational_in_exponential", "elliptic", "entire_only",
          "none_with_pole", "undetermined")


def _period(a):
    """T = 2 pi i/a as a double; None unless it is finite and nonzero."""
    try:
        T = 2j * cmath.pi / complex(a)
    except (OverflowError, ZeroDivisionError):
        return None
    return T if T and cmath.isfinite(T) else None


@dataclass(frozen=True)
class ClassificationVerdict:
    label: str
    confidence: str            # "exact" | "numeric" | "heuristic"
    evidence: tuple            # human-readable findings, ordered
    periods: tuple = ()

    def __post_init__(self):
        if self.label not in LABELS:
            raise DegenerateInput(f"unknown verdict label {self.label!r}")


def classify_equation(eq, report, branches, mono, c, N, tol, precision, counts=None):
    """The verdict on a screened equation, given match_monomial's result
    ``mono``: the first route that holds returns it.  A sweep adds its work
    to ``counts`` (see sweep_counts).

    1. The screen, exact, unless an exact monomial solution overrules it (the
       screen assumes P irreducible; a back-substituted pole is a proof).
    2. A closed form R(e^(az)) with a pole, exact with period 2 pi i/a, on a
       germ of index N at first-integral constant c (1 for even k when c is
       None), the seed germ first, for a multiplier a the resolved form
       admits.  For even k the germs exist only where the screen requires,
       and so has certified, the first integral.
    3. A verified lattice of the poles the sweep continues those germs to:
       rank 2 elliptic, then rank 1 rational in e^(az), both numeric.
    4. An exact monomial solution: rational.
    5. Undetermined, with the pole count and why the fit failed: one pole on
       a finite probe, or poles on no verified lattice, prove nothing.

    The evidence lists the notes, the exact solutions, then the deciding line."""
    notes = []
    expo = match_exponential(eq, notes=notes) if report.kappa_one_count >= 1 else []
    exact = (["exact monomial solution: " + m.describe() for m in mono]
             + ["exact exponential solution: " + m.describe() for m in expo])

    def verdict(label, confidence, *found, periods=()):
        return ClassificationVerdict(label, confidence, tuple(notes + exact) + found, periods)

    rational = "single-term pole germ solves the equation exactly"
    screen = report.screen_label()
    if screen is not None:
        if not mono:
            return verdict(screen, "exact")
        return verdict("rational", "exact", f"screening verdict {screen} overruled "
                       "by the exact monomial solution", rational)
    even, family = eq.k % 2 == 0, []
    if even and not report.exactness_required:
        notes.append("numeric continuation skipped: no certified first integral")
    else:
        c = GR_ONE if c is None and even else c
        family = germs_for_pairs(
            eq, branches, report.admissible_pairs(), notes,
            "germ for continuation unavailable ({bid}, n={n}): {exc}",
            c=c, N=N, precision=precision)
    closed = None
    if family and eq.resolved is not None:
        try:
            # every germ is a pole at z = 0, the seed germ first; a numeric
            # germ (leading coefficient outside Q(i)) certifies nothing
            for germ, a in product(family, _multipliers(eq, precision)):
                closed = reconstruct_exponential(eq, germ, a, degree_bound(family))
                if closed is not None:
                    break
        except BBError as exc:
            notes.append(f"closed-form search failed: {exc}")
    if family and even:
        how = "numeric continuation" if closed is None else "exact closed form"
        notes.append(f"{how} at first-integral constant c={gaussian_str(c)}")
    if closed is not None:
        T = _period(a)
        return verdict("rational_in_exponential", "exact",
                       "exact exponential solution: " + closed.describe(),
                       "period 2*pi*i/a lies outside the double range" if T is None
                       else f"period 2*pi*i/a: T={T:.9g}",
                       periods=() if T is None else (T,))
    pr, events = None, ()
    if family:
        try:
            found, probe = sweep_poles(eq, family, tol=tol, counts=counts)
            pr, events = detect_periods(found, state_probe=probe), found
        except (BBError, OverflowError) as exc:
            # a coefficient or a germ outside the double range
            notes.append(f"numeric continuation failed: {exc}")
    if pr is not None and pr.verified:
        if pr.rank == 2:
            return verdict("elliptic", "numeric",
                           f"rank-2 pole lattice: T1={pr.periods[0]:.9g}, "
                           f"T2={pr.periods[1]:.9g}, ratio={pr.ratio:.9g}",
                           periods=pr.periods)
        return verdict("rational_in_exponential", "numeric",
                       f"rank-1 pole lattice: T={pr.periods[0]:.9g}",
                       periods=pr.periods)
    if mono:
        return verdict("rational", "exact", rational)
    if len(events) == 1:
        return verdict("undetermined", "heuristic",
                       "continuation found a single non-recurring pole; "
                       "no exact rational solution certified")
    if events:
        refused = ", not confirmed by the state probe" if pr.rank else ""
        return verdict("undetermined", "heuristic",
                       f"continuation found {len(events)} poles but no "
                       f"verified lattice: {pr.detail}{refused}")
    return verdict("undetermined", "heuristic")

"""Geometry of the curve P(p, q) = 0 over q = infinity.

Newton polygon of P, Newton-Puiseux expansion of every place of the curve
lying over q = infinity, residues of the differential p dq at those places,
and the exactness verdict for p dq.

Local coordinates: t = 1/q, and u = t^(1/m) at a place of ramification m, so
q = u^(-m).  A branch is stored once per place; its m conjugates are the
substitutions u -> zeta u.  Branch expansions are exact Gaussian rationals
whenever every edge-polynomial root along the way is, and certified
BigComplex values otherwise.
"""

from dataclasses import dataclass
from fractions import Fraction
import math

from .algebra import (GR_ONE, GR_ZERO, GaussianRational, UPoly, ZSeries, _root_key,
                      all_nth_roots, coeff_is_zero, is_exact, root_multiplicities,
                      roots_univariate, solve_linear, DEFAULT_PREC)
from .eqparse import gaussian_str, ratfunc_str
from .errors import DegenerateInput, InsufficientDepth, PrecisionExhausted

_MAX_NP_RECURSION = 64


# ---------------------------------------------------------------------------
# Newton polygon
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Edge:
    i1: int
    j1: int
    i2: int
    j2: int

    @property
    def slope(self):
        return Fraction(self.j2 - self.j1, self.i2 - self.i1)

    @property
    def kappa(self):
        """The branch exponent candidate for places over q = infinity."""
        return -self.slope


@dataclass(frozen=True)
class NewtonPolygon:
    upper_edges: tuple


def newton_polygon(P):
    """Concave upper hull of the support of P; each edge reads off its kappa.

    kappa = (delta deg_q)/(-delta deg_p) is the exponent of p ~ A q^kappa on
    the branches over q = infinity induced by that edge.
    """
    if P.deg_p() < 1 or P.deg_q() < 1:
        raise DegenerateInput("P must be nonconstant in both p and q")
    top = {}
    for i, j in P.support():
        top[i] = max(top.get(i, j), j)
    # the upper hull is the lower hull of the points mirrored in j
    hull = [(i, -j) for i, j in _lower_hull([(i, -j) for i, j in sorted(top.items())])]
    edges = tuple(Edge(i1, j1, i2, j2) for (i1, j1), (i2, j2) in zip(hull, hull[1:]))
    return NewtonPolygon(upper_edges=edges)


# ---------------------------------------------------------------------------
# Puiseux branches over q = infinity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PuiseuxBranch:
    """One place of the curve over q = infinity.

    p = sum of coeff * q^exp over ``terms`` (exponents kappa - i/m, strictly
    decreasing), valid through q-exponent >= valid_q_to.  residue_pdq reads
    the residue of p dq at this place from it: -m * (coefficient of q^-1).
    """

    id: str
    m: int
    kappa: Fraction
    terms: tuple                # ((q_exponent, coeff), ...) descending
    valid_q_to: Fraction
    depth: int

    @property
    def lead(self):
        """The coefficient of the first term, at q^kappa."""
        return self.terms[0][1] if self.terms else GR_ZERO

    @property
    def p_unbounded(self):
        return self.kappa > 0

    def coeff_at_qexp(self, e):
        e = Fraction(e)
        for ee, c in self.terms:
            if ee == e:
                return c
        return GR_ZERO

    def is_exact(self):
        return all(is_exact(c) for _, c in self.terms)


def residue_pdq(branch):
    """Residue of p dq at the branch place: -m * [q^-1] p.

    Raises InsufficientDepth when the expansion stops above exponent -1.
    """
    if branch.valid_q_to > Fraction(-1):
        raise InsufficientDepth(
            f"branch {branch.id} expanded only to q-exponent {branch.valid_q_to}; "
            "the residue needs exponent -1")
    return branch.coeff_at_qexp(-1) * (-branch.m)


def branches_at_infinity(P, depth, precision=DEFAULT_PREC):
    """All places of P(p, q) = 0 over q = infinity, expanded to ``depth`` terms.

    Terms are counted on the u-grid (exponents kappa - i/m, i = 0..depth).
    Places where p stays bounded are included and flagged.
    """
    if P.deg_p() < 1 or P.deg_q() < 1:
        raise DegenerateInput("P must be nonconstant in both p and q")
    d = P.deg_p()
    dq = P.deg_q()
    kappa_max = max((e.kappa for e in newton_polygon(P).upper_edges
                     if e.kappa > 0), default=Fraction(0))
    raw = []
    if d == 1:
        raw.extend(_branches_linear(P, depth, kappa_max))
    else:
        # P~(p, t) = t^dq P(p, 1/t)
        Ptilde = {(i, dq - j): c for (i, j), c in P.terms.items()}
        raw.extend(_branches_unbounded(Ptilde, d, depth, kappa_max, precision))
        raw.extend(_branches_finite(Ptilde, d, depth, precision))
    # ids b0, b1, ... follow kappa descending, then the lead in the order
    # of roots (algebra._root_key)
    raw.sort(key=lambda item: (-item[0],
                               _root_key(item[1].coeffs[0] if item[1].coeffs else GR_ZERO)))
    out = []
    for n_id, (kappa, pser, m) in enumerate(raw):
        # pser is in u = q^(-1/m): u-exponent e sits at q-exponent -e/m
        valid_q = max(Fraction(-pser.valid_to, m), kappa - Fraction(depth, m))
        terms = []
        for e_u, c in pser.items():
            q_exp = Fraction(-e_u, m)
            if q_exp >= valid_q and not coeff_is_zero(c):
                terms.append((q_exp, c))
        out.append(PuiseuxBranch(id=f"b{n_id}", m=m, kappa=kappa, terms=tuple(terms),
                                 valid_q_to=valid_q, depth=depth))
    _check_branch_count(out, d)
    return out


def _check_branch_count(branches, deg_p):
    total = sum(b.m for b in branches)
    if total != deg_p:
        raise PrecisionExhausted(
            f"found places of total ramification {total}, expected {deg_p}; "
            "raise precision")


def _branches_linear(P, depth, kappa_max):
    """deg_p = 1: p = N/D expanded at infinity by exact series division."""
    pser = laurent_at_infinity(-P.coeff_in_p(0), P.coeff_in_p(1),
                               -(math.ceil(kappa_max) + depth + 2))
    return [(_kappa(pser, 1), pser, 1)]


def _kappa(pser, m):
    """Leading q-exponent of an expansion in u = q^(-1/m); 0 when it is empty."""
    return Fraction(-pser.start, m) if pser.coeffs else Fraction(0)


def _branches_unbounded(Ptilde, d, depth, kappa_max, precision):
    """Places with p -> infinity: invert p = 1/v, expand v -> 0."""
    Phat = {(d - i, b): c for (i, b), c in Ptilde.items()}
    tau = math.ceil(kappa_max) + depth + 3
    out = []
    for vser, m in _np_branches(Phat, tau, _MAX_NP_RECURSION, precision):
        pser = vser.inverse()
        kappa = _kappa(pser, m)
        if kappa <= 0:
            continue  # not a p-unbounded place; covered by the finite scan
        out.append((kappa, pser, m))
    return out


def _branches_finite(Ptilde, d, depth, precision):
    """Places with p bounded: p = c + w(t), c a root of the top coefficient."""
    top_terms = [GR_ZERO] * (d + 1)
    for (i, b), c in Ptilde.items():
        if b == 0:
            top_terms[i] = top_terms[i] + c
    top = UPoly(top_terms)
    out = []
    if top.degree() < 1:
        return out
    tau = depth + 3
    for c_root, _mult in root_multiplicities(top, precision):
        Hc = _np_substitute(Ptilde, c_root, 0, 1)
        for wser, m in _np_branches(Hc, tau, _MAX_NP_RECURSION, precision):
            pser = wser + ZSeries(0, [c_root], wser.valid_to)
            out.append((_kappa(pser, m), pser, m))
    return out


# ---------------------------------------------------------------------------
# Newton-Puiseux recursion at the origin
# ---------------------------------------------------------------------------

def _np_substitute(H, c, s, m):
    """H(t^s (c + w), t^m), i.e. recenter on the chosen edge root."""
    out = {}
    for (a, b), coeff in H.items():
        base_t = s * a + m * b
        for r in range(a + 1):
            key = (r, base_t)
            add = coeff * math.comb(a, r)
            if a - r:
                add = add * (c ** (a - r))
            out[key] = out[key] + add if key in out else add
    return {k: v for k, v in out.items() if not coeff_is_zero(v)}


def _np_branches(H, tau, fuel, precision):
    """Branches w(t) -> 0 of H(w, t) = 0 with t-exponents <= tau computed.

    H: dict {(deg_w, deg_t): coeff}; tau: int.  Returns a list of (w, m),
    w a ZSeries in u = t^(1/m).
    """
    if fuel <= 0:
        raise PrecisionExhausted("branch separation did not terminate")
    H = _strip_t(H)
    H, wmult = _strip_w(H)
    if not H:
        return []
    out = []
    if wmult:
        # a factor w^e of H is the branch w = 0 itself: the prefix is exact
        if wmult != 1:
            raise PrecisionExhausted(
                "terminating branch of multiplicity > 1: input not squarefree")
        out.append((ZSeries.zero(tau), 1))
    by_a = {}
    for (a, b), c in H.items():
        by_a[a] = min(by_a.get(a, b), b)
    pts = sorted(by_a.items())
    hull = _lower_hull(pts)
    for (a1, b1), (a2, b2) in zip(hull, hull[1:]):
        if b2 >= b1:
            continue  # gamma <= 0: not a w -> 0 continuation
        gamma = Fraction(b1 - b2, a2 - a1)
        s, m = gamma.numerator, gamma.denominator
        line_val = s * a1 + m * b1
        comp = {}
        for (a, b), c in H.items():
            if s * a + m * b == line_val and a1 <= a <= a2:
                idx = (a - a1) // m
                if (a - a1) % m:
                    continue
                comp[idx] = comp[idx] + c if idx in comp else c
        Ex = [comp.get(i, GR_ZERO) for i in range(max(comp) + 1)]
        roots = _edge_roots(Ex, precision)
        for Xroot, r in roots:
            c = _pick_mth_root(Xroot, m, precision)
            Hs = _strip_t(_np_substitute(H, c, s, m))
            tau_child = m * tau - s
            prefix = ZSeries(s, [c], m * tau)
            if tau_child < 0:
                out.append((prefix, m))
                continue
            if _is_zero_at_w0(Hs):
                out.append((prefix, m))
                if r != 1:
                    raise PrecisionExhausted(
                        "terminating branch of multiplicity > 1: input not squarefree")
                continue
            if r == 1:
                tail = _newton_lift(Hs, tau_child)
                out.append((_compose(c, s, tail, 1, m * tau), m))
            else:
                for sub, msub in _np_branches(Hs, tau_child, fuel - 1, precision):
                    out.append((_compose(c, s, sub, msub, m * tau), m * msub))
    return out


def _compose(c, s, sub, msub, tau_t1):
    """w = t1^s (c + sub(u)) on the u-grid of sub, t1 = u^msub, truncated at
    t1-exponent tau_t1."""
    w = sub + ZSeries(0, [c])
    shift = s * msub
    return ZSeries(w.start + shift, w.coeffs, w.valid_to + shift).truncate(tau_t1 * msub)


def _strip_t(H):
    if not H:
        return H
    c = min(b for (_, b) in H)
    if c == 0:
        return dict(H)
    return {(a, b - c): v for (a, b), v in H.items()}


def _strip_w(H):
    if not H:
        return H, 0
    e = min(a for (a, _) in H)
    if e == 0:
        return dict(H), 0
    return {(a - e, b): v for (a, b), v in H.items()}, e


def _lower_hull(pts):
    hull = []
    for a, b in pts:
        while len(hull) >= 2:
            (aa, ba), (ab, bb) = hull[-2], hull[-1]
            if (bb - ba) * (a - ab) >= (b - bb) * (ab - aa):
                hull.pop()
            else:
                break
        hull.append((a, b))
    return hull


def _edge_roots(Ex, precision):
    """Nonzero roots of the ramification-compressed edge polynomial, with
    their multiplicities."""
    while Ex and coeff_is_zero(Ex[0]):
        Ex = Ex[1:]
    return [(r, mult) for r, mult in root_multiplicities(Ex, precision)
            if not r.is_zero()]


def _pick_mth_root(X, m, precision):
    """Deterministic representative among the conjugate leading coefficients:
    the first exact m-th root when there is one."""
    if m == 1:
        return X
    cands = all_nth_roots(X, m, precision)
    return next((c for c in cands if is_exact(c)), cands[0])


def _is_zero_at_w0(H):
    return all(a > 0 for (a, _b) in H)


def _newton_lift(H, tau):
    """Unique power-series root w(t) -> 0 of H with dH/dw(0,0) != 0.

    Correct coefficients double per Newton step; validity bookkeeping is
    managed through the step order pi, not through the intermediate series.
    """
    by_a = {}
    for (a, b), c in H.items():
        by_a.setdefault(a, {})[b] = c
    amax = max(by_a)
    coeff_series = {a: ZSeries(0, [bs.get(b, GR_ZERO) for b in range(max(bs) + 1)])
                    for a, bs in by_a.items()}
    dcoeff_series = {a: s.scale(a)
                     for a, s in coeff_series.items() if a >= 1}
    x = ZSeries.zero()
    pi = 0
    guard = 0
    while pi < tau:
        pi = min(2 * pi + 1, tau)
        guard += 1
        if guard > 64:
            raise PrecisionExhausted("Newton lifting failed to converge")
        hv = _bihorner(coeff_series, amax, x, pi + 1).truncate(pi + 1)
        hw = _bihorner(dcoeff_series, amax, x, pi + 1, shift=1).truncate(pi + 1)
        step = (x - hv * hw.inverse()).truncate(pi)
        x = ZSeries(step.start, step.coeffs)
    return x.truncate(tau)


def _bihorner(coeff_series, amax, x, cap, shift=0):
    acc = None
    for a in range(amax, shift - 1, -1):
        cs = coeff_series.get(a)
        if acc is None:
            acc = cs if cs is not None else ZSeries.zero()
            continue
        acc = acc.mul(x, cap=cap)
        if cs is not None:
            acc = acc + cs
    return acc if acc is not None else ZSeries.zero()


# ---------------------------------------------------------------------------
# exactness of p dq
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidueRow:
    place: str            # "q=<value>" or "infinity" or branch id
    value: object         # residue (exact or BigComplex)

    @property
    def certified_zero(self):
        return coeff_is_zero(self.value)


@dataclass(frozen=True)
class ExactnessVerdict:
    residues: tuple       # of ResidueRow
    exact: bool
    s_rational: object    # (N, D) UPoly pair for s = integral of p dq, or None
    mode: str             # "resolved" | "general"

    @property
    def notes(self):
        if self.mode == "resolved":
            return ()
        return ("general mode: residues checked at places over q=infinity only; "
                "genus-0 assumed, finite places not examined",)

    def s_string(self):
        if self.s_rational is None:
            return None
        return ratfunc_str(*self.s_rational)


def hermite_ostrogradsky(N, D):
    """Split N/D (proper or not) as  d/dq(P1/D1) + poly + P2/D2,  D2 squarefree.

    Returns (poly_part: UPoly, P1: UPoly, D1: UPoly, P2: UPoly, D2: UPoly).
    The logarithmic part P2/D2 carries exactly the finite residues.
    """
    if D.is_zero():
        raise ZeroDivisionError("zero denominator")
    lcinv = D.lc().inverse()
    N, D = N * lcinv, D * lcinv
    Qp, A = divmod(N, D)
    if A.is_zero():
        return Qp, UPoly(), UPoly.constant(GR_ONE), UPoly(), UPoly.constant(GR_ONE)
    D1 = D.gcd(D.derivative())
    D2 = D // D1
    n1, n2 = D1.degree(), D2.degree()
    if n1 == 0:
        return Qp, UPoly(), UPoly.constant(GR_ONE), A, D
    # A = P1' D2 - P1 H + P2 D1,  H = D1' D2 / D1
    H = (D1.derivative() * D2) // D1
    n = n1 + n2
    rows = [[GR_ZERO] * n for _ in range(n)]
    rhs = [A[i] for i in range(n)]
    for jcol in range(n1):  # P1 coefficient j
        dP = UPoly.monomial(jcol - 1, GaussianRational(jcol)) if jcol >= 1 else UPoly()
        col = dP * D2 - UPoly.monomial(jcol) * H
        for i in range(n):
            rows[i][jcol] = col[i]
    for jcol in range(n2):  # P2 coefficient j
        col = UPoly.monomial(jcol) * D1
        for i in range(n):
            rows[i][n1 + jcol] = col[i]
    sol = solve_linear(rows, rhs)
    P1 = UPoly(sol[:n1])
    P2 = UPoly(sol[n1:])
    return Qp, P1, D1, P2, D2


def laurent_at_infinity(N, D, down_to):
    """Expansion of N/D in powers of q down to exponent ``down_to``, exact.

    Returns a ZSeries in t = 1/q (so q^j appears at t-exponent -j).  Cut at
    t-exponent v, N and D give a quotient valid through t-exponent
    v + min(deg D, 2 deg D - deg N), so v is placed from the degrees.
    """
    if D.is_zero():
        raise ZeroDivisionError("zero denominator")
    vt = 1 - down_to + max(N.degree() - 2 * D.degree() - 1, 0)
    num = ZSeries(1 - len(N.coeffs), reversed(N.coeffs), vt)
    den = ZSeries(1 - len(D.coeffs), reversed(D.coeffs), vt)
    return num * den.inverse()


def exactness_check(branches, resolved=None, precision=DEFAULT_PREC):
    """Is the differential p dq exact?

    The residue at each place over q = infinity is read from its branch
    (residue_pdq).  Resolved mode (p = N/D, one branch): the finite places
    come from the Ostrogradsky decomposition, and p dq is exact iff its
    logarithmic part vanishes and the residue at infinity is zero; the
    explicit rational integral s is returned.  General mode: only the places
    over q = infinity are checked (genus-0 assumed; finite places not
    examined).
    """
    rows, exact, s_rat = [], True, None
    if resolved is not None:
        Qp, P1, D1, P2, D2 = hermite_ostrogradsky(*resolved)
        exact = P2.is_zero()
        if D2.degree() >= 1:
            D2p = D2.derivative()
            for alpha in roots_univariate(D2, precision):
                res = GR_ZERO if exact else P2.eval(alpha) * D2p.eval(alpha).inverse()
                rows.append(ResidueRow(_place_label(alpha), res))
    for b in branches:
        row = ResidueRow(b.id if resolved is None else "infinity", residue_pdq(b))
        rows.append(row)
        exact = exact and row.certified_zero
    if resolved is not None and exact:
        s_rat = (Qp.integrate() * D1 + P1, D1)
    return ExactnessVerdict(residues=tuple(rows), exact=exact, s_rational=s_rat,
                            mode="general" if resolved is None else "resolved")


def _place_label(alpha):
    if is_exact(alpha):
        return f"q={gaussian_str(alpha)}"
    return f"q~{complex(alpha):.6g}"


def first_integral_series(branch):
    """Termwise integral s of p dq along the branch: s = sum c/(e+1) q^(e+1).

    Requires the residue term (q-exponent -1) to vanish.
    """
    out = []
    for e, c in branch.terms:
        if e == Fraction(-1):
            if coeff_is_zero(c):
                continue
            raise InsufficientDepth(
                "p dq has a nonzero residue on this branch; no termwise integral")
        out.append((e + 1, c * (1 / (e + 1))))
    return tuple(out)

"""Formal Laurent series solutions with a pole at the origin.

For an admissible branch (kappa = 1 + k/n) the substitution
y = sum_{j>=0} c_j z^(j-n) into y^(k) = p(y) determines the coefficients one
at a time: the linear factor multiplying c_j is

    bracket(j) = D_j - (1 + k/n) D_0,   D_j = falling(j - n, k),

which for even k vanishes exactly once, at j = 2n + k.  The resonant
coefficient is not determined by y^(k) = p(y); it is pinned by the constant
term of the first-integral form  Phi_k(y) = s(y) + c,  where
Phi_k(y) = y^(k-1) y' - y^(k-2) y'' + ... +- (1/2) (y^(k/2))^2  and s is the
termwise integral of p dq along the branch.  Without c the germ stops just
below the resonant index, holding numbers only; its JSON (series_to_json)
ends with {"free": true} in the resonant place.  For odd k the bracket never
vanishes and c_0 alone determines the series.

Fractional powers of y are taken on a single determination eta_0 of
c_0^(1/m); the admissible determinations are the g = m k / n roots of
eta^g = beta = D_0 / A_0, and each one yields one candidate series
(conjugate branch choices are absorbed): one germ per leading root, since
the roots of the squarefree x^g - beta are distinct.

On an exact branch whose x^g - beta is irreducible over Q(i) (Capelli),
eta_0 is symbolic: the germ is computed once, exactly, in
K = Q(i)[eta]/(eta^g - beta) (algebra.AlgebraicNumber), and each of the g
roots gets the same coordinates read at its own embedding eta -> eta_k.
Otherwise (a reducible binomial, or a branch with a ball term even below an
exact lead) the roots are Gaussian rationals where exact and 256-bit balls
elsewhere, and each root builds its own germ.  The first-integral constant
is exact, so a germ over K is exact.

Each term A q^x of the branch (and of s, for pinning) evaluates at
y = c_0 z^(-n) (1 + w) to A eta_0^e z^(-n x) (1 + w)^(e/m), e = m x.  The
germ keeps one list per distinct e, holding the coefficients of
(1 + w)^(e/m); every index adds one coefficient to each list by J.C.P.
Miller's power recurrence (Knuth, TAOCP vol. 2, 4.7), O(j) work with no
series powers or inverses.  On a germ of balls (a numeric branch, or a root
of a reducible binomial outside Q(i)) coefficients are only multiplied and
added, never negated: BigComplex negation rounds to 53 bits.  Exact
coefficients, in Q(i) or in K, negate exactly.
"""

from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

from .algebra import (GR_ONE, GR_ZERO, GaussianRational, ZSeries,
                      _is_exact_zero, _root_key, all_nth_roots, as_gaussian,
                      coeff_is_zero, dot, eta_str, falling, field_of, is_exact,
                      pochhammer, radical_roots, same_coordinates, DEFAULT_PREC)
from .curve import first_integral_series
from .eqparse import _fraction_str, gaussian_str, gaussian_text
from .errors import (BBError, DepthTooSmall, InconsistentResonance, NoRoots,
                     PrecisionExhausted)


# ---------------------------------------------------------------------------
# first-integral bracket
# ---------------------------------------------------------------------------

def bracket_phi(k, y):
    """Phi_k(y) = y^(k-1) y' - y^(k-2) y'' + ... +- (1/2) (y^(k/2))^2, even k.

    d/dz Phi_k(y) = y^(k) y' identically (telescoping).
    """
    if k % 2 != 0 or k < 2:
        raise ValueError("the first-integral bracket requires even k >= 2")
    derivs = [y]
    for _ in range(k - 1):
        derivs.append(derivs[-1].derivative())
    half = k // 2
    acc = None
    for i in range(1, half):
        term = derivs[k - i] * derivs[i]
        if i % 2 == 0:
            term = term.scale(-1)
        acc = term if acc is None else acc + term
    mid = derivs[half] * derivs[half]
    sign = 1 if half % 2 == 1 else -1
    mid = mid.scale(Fraction(sign, 2))
    return mid if acc is None else acc + mid


# ---------------------------------------------------------------------------
# leading coefficients
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def recurrence_bracket(k, n, j):
    """bracket(j) = D_j - (1 + k/n) D_0 as an exact rational, where
    D_j = falling(j - n, k) multiplies c_j in y^(k)."""
    return Fraction(falling(j - n, k)) - (1 + Fraction(k, n)) * falling(-n, k)


def leading_roots(k, n, branch, precision=DEFAULT_PREC):
    """The determinations eta0 of c_0^(1/m): the g = m k / n roots of
    eta^g = beta, beta = D_0 / A_0, each with c_0 = eta0^m.

    On an exact branch (beta then exact too) where x^g - beta is irreducible
    over Q(i) (Capelli), every eta0 is the symbolic eta of
    K = Q(i)[eta]/(eta^g - beta), read at one of its g embeddings
    (algebra.radical_roots); otherwise the roots come from all_nth_roots:
    GaussianRationals where exact, balls elsewhere.  A branch with any ball
    term keeps ball roots even when its lead is exact: its germs mix balls
    into every coefficient, and a ball is read at one embedding only.
    Either way the roots come in the order of roots (algebra._root_key) of
    their (embedded) values, and a root's index is its position."""
    m = branch.m
    if n % m != 0:
        raise NoRoots(
            f"ramification {m} does not divide pole order {n}: the exponents of the "
            "series would leave the integer grid (necessary-condition gate)")
    if branch.kappa != 1 + Fraction(k, n):
        raise NoRoots(f"branch has kappa={branch.kappa}, not 1 + {k}/{n}")
    g = m * k // n if (m * k) % n == 0 else None
    if g is None:
        raise NoRoots(f"m*k/n = {m}*{k}/{n} is not an integer")
    beta = GaussianRational(falling(-n, k)) * branch.lead.inverse()
    roots = ((radical_roots(beta, g, precision) if branch.is_exact() else None)
             or all_nth_roots(beta, g, precision))
    if not roots:
        raise NoRoots("no nonzero leading coefficient")
    return roots


def pinning_coefficient(k, n, c0):
    """Coefficient of the resonant c_{2n+k} in the first-integral constant-term
    equation: c0 * sum_{m=0}^{k-1} (n+m)! (n+k)! / ((n+m+1)! (n-1)!); positive
    for c0 > 0, never zero."""
    if k % 2 != 0 or k < 2:
        raise ValueError("pinning requires even k")
    if n < 1:
        raise ValueError("n must be a positive integer")
    if coeff_is_zero(c0):
        raise ValueError("c0 must be nonzero")
    total = Fraction(0)
    base = Fraction(pochhammer(n, k + 1))  # (n+k)!/(n-1)!
    for mm in range(k):
        total += base / (n + mm + 1)
    return GaussianRational(total) * c0


# ---------------------------------------------------------------------------
# the enumeration engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaurentSeries:
    """A formal solution germ y(z) = sum coeffs[j] z^(j - n), c_0 != 0.

    For even k without a first-integral constant c the resonant coefficient
    is free, and the germ stops just below it, at index 2n + k - 1."""

    n: int
    k: int
    coeffs: tuple               # coefficient values c_0, c_1, ...
    c: object                   # first-integral constant when pinned, else None
    branch_id: str
    root_choice: int

    @property
    def resonance_status(self):
        """The resonance as the JSON names it: "none" for odd k, "pinned"
        with a constant c, else "free"."""
        return "none" if self.k % 2 else "free" if self.c is None else "pinned"

    @property
    def N(self):
        """The truncation index: the last coefficient's, or for a free germ
        the resonant index 2n + k just past it."""
        last = len(self.coeffs) - 1
        return last + 1 if self.resonance_status == "free" else last

    def as_zseries(self):
        return ZSeries(-self.n, self.coeffs, valid_to=-self.n + len(self.coeffs) - 1)


def _needed_branch_depth(branch, n, N):
    """Branch must reach q-exponent kappa - N/n... (u-index i <= m*N/n)."""
    need_q = branch.kappa - Fraction(N, n)
    return branch.valid_q_to <= need_q


def germ_index(k, n, N=None):
    """The truncation index of the germs of pole order n: ``N``, by default
    2n + k + 4, and for even k at least the resonance index 2n + k."""
    N = 2 * n + k + 4 if N is None else N
    return max(N, 2 * n + k) if k % 2 == 0 else N


def enumerate_series(eq, branch, n, c=None, N=None, precision=DEFAULT_PREC,
                     collect_notes=None):
    """All Laurent germs with a pole of order n feeding this branch.

    ``c``: exact first-integral constant for even k (a ball raises BBError);
    None leaves the resonant coefficient free, and each germ stops just below
    it.  ``N``: truncation index, raised by germ_index.  Skipped leading
    roots (resonance inconsistency) are reported through ``collect_notes``
    when given.
    """
    check_constant(c)
    k = eq.k
    N = germ_index(k, n, N)
    # a branch that cannot feed order n says so before its depth is judged
    roots = leading_roots(k, n, branch, precision)
    if not _needed_branch_depth(branch, n, N):
        raise DepthTooSmall(
            f"branch {branch.id} expanded to q-exponent {branch.valid_q_to}, but "
            f"index N={N} needs {branch.kappa - Fraction(N, n)}; recompute branches "
            "with a larger depth")
    out, conjugate = [], None
    for index, eta0 in enumerate(roots):
        over_k = field_of(eta0) is not None
        if conjugate is not None:
            # the recurrence never reads the embedding: the germ is built
            # once over K, and each root re-reads its coordinates
            ls, failure = conjugate
        else:
            ls, failure = _build_or_failure(k, n, branch, eta0, index, c, N)
            if over_k:
                conjugate = (ls, failure)
        if failure is not None:
            if collect_notes is not None:
                at = (f" at eta={coeff_text(coeff_to_json(field_of(eta0).eta))}"
                      if over_k else "")
                c0 = coeff_text(coeff_to_json(eta0 ** branch.m))
                collect_notes.append(f"branch {branch.id}, c0={c0}{at}: {failure}")
            continue
        out.append(_read_at(ls, eta0, index) if conjugate is not None else ls)
    # germs follow c0, then the root: distinct roots of the squarefree
    # x^g - beta give distinct germs, even where a truncation cannot tell
    return sorted(out, key=lambda ls: (_root_key(ls.coeffs[0]), ls.root_choice))


def check_constant(c):
    """BBError unless the first-integral constant ``c`` is None or exact (a
    bool is not a number here)."""
    if isinstance(c, bool) or not (c is None or is_exact(c)):
        raise BBError(f"c must be None or an exact number, got {c!r}")


def _build_or_failure(k, n, branch, eta0, index, c, N):
    """(germ, None), or (None, why) when the resonance rules this root out."""
    try:
        return _build_series(k, n, branch, eta0, index, c, N), None
    except InconsistentResonance as exc:
        return None, str(exc)


def _read_at(ls, eta0, index):
    """The germ over K read at the embedding of ``eta0``: the same exact
    coordinates, root index ``index``."""
    emb = field_of(eta0)
    return replace(ls, root_choice=index,
                   coeffs=tuple(c.at(emb) if field_of(c) else c for c in ls.coeffs))


def germs_for_pairs(eq, branches, pairs, notes, failure, **kwargs):
    """The germs of every (branch id, n) pair, in order; a pair whose
    enumeration fails adds ``failure`` (formatted) to ``notes``."""
    bmap = {b.id: b for b in branches}
    germs = []
    for bid, n in pairs:
        try:
            germs.extend(enumerate_series(eq, bmap[bid], n, **kwargs))
        except BBError as exc:
            notes.append(failure.format(bid=bid, n=n, exc=exc))
    return germs


def _build_series(k, n, branch, eta0, index, c, N):
    """The germ of the leading root ``eta0``, root index ``index``."""
    j_res = 2 * n + k if k % 2 == 0 else None
    powers = _Powers(eta0, branch.m, n)
    pterms = powers.table(branch.terms)
    for j in range(1, N + 1):
        # coefficient of z^(j - n - k) in p(y) with c_j = 0; y^(k) has none
        rhs = powers.coeff(pterms, j - n - k)
        bracket = recurrence_bracket(k, n, j)
        if bracket != 0:
            powers.set_coeff(j, rhs * (1 / bracket))
            continue
        if j != j_res:
            raise InconsistentResonance(
                f"unexpected vanishing bracket at index {j} (expected {j_res})")
        if not coeff_is_zero(rhs):
            forced = coeff_text(coeff_to_json(rhs * -1))
            raise InconsistentResonance(
                f"resonant index {j}: forced term {forced} is nonzero "
                "(this reflects a nonzero residue of p dq); no series with this c0")
        if c is None:
            break
        powers.set_coeff(j, _pin_resonant(k, n, branch, powers, c))
    return LaurentSeries(n=n, k=k, coeffs=tuple(powers.coeffs),
                         c=None if j_res is None else c,
                         branch_id=branch.id, root_choice=index)


class _Powers:
    """The germ's coefficients c_j and, for each exponent e a power table
    asks for, the list H_e = (1 + w)^(e/m), w = sum_{i>=1} (c_i/c_0) z^i.

    A list gains one coefficient per index by Miller's recurrence, read off
    (1 + w) H' = (e/m) w' H:

        H_j = 1/(m j) * sum_{i=1..j} ((e + m) i - m j) w_i H_{j-i}.

    At index j, before c_j is known, H_e[j] is read with w_j = 0; set_coeff
    then adds the missing (e/m) w_j to every list that holds index j.  Terms
    that vanish exactly (zero weight, e = 0, exact-zero factors) are skipped,
    so a coefficient that is structurally zero stays an exact zero on a
    numeric germ.
    """

    def __init__(self, eta0, m, n):
        self.eta0 = eta0
        self.m = m
        self.n = n
        self.coeffs = [eta0 ** m]
        self.inv0 = self.coeffs[0].inverse()
        self.w = [GR_ZERO]          # w_i = c_i / c_0 for every known index
        self.nonzero = []           # indices i >= 1 with w_i not exact zero
        self.lists = {}             # e -> [H_0, H_1, ...]

    def table(self, terms):
        """[(e, n x, A eta0^e)] for terms A q^x, e = m x: the branch's own
        for p(y), or those of the termwise integral of p dq for s(y).  A
        term adds A eta0^e H_e[t + n x] to the coefficient of z^t.
        """
        out = []
        for q_exp, A in terms:
            e = self.m * q_exp
            if e.denominator != 1:
                raise PrecisionExhausted(
                    f"exponent {q_exp} off the u-grid of ramification {self.m}")
            if (self.n * q_exp).denominator != 1:
                raise NoRoots(f"ramification {self.m} does not divide pole order {self.n}")
            e = int(e)
            out.append((e, int(self.n * q_exp), A * (self.eta0 ** e if e else GR_ONE)))
        return out

    def coeff(self, table, target):
        """Coefficient of z^target in sum A eta0^e z^(-n x) H_e over a table."""
        live = [(K, self._power_coeff(e, target + shift))
                for e, shift, K in table if target + shift >= 0]
        total = dot([K for K, _h in live], [h for _K, h in live])
        return GR_ZERO if total is None else total

    def _power_coeff(self, e, r):
        """[z^r] H_e, extending the list by Miller's recurrence as needed."""
        H = self.lists.setdefault(e, [GR_ONE])
        w, m = self.w, self.m
        while len(H) <= r:
            j = len(H)
            known = self.nonzero[:bisect_right(self.nonzero, j)]
            acc = dot([w[i] for i in known], [H[j - i] for i in known],
                      [(e + m) * i - m * j for i in known], div=m * j)
            H.append(GR_ZERO if acc is None else acc)
        return H[r]

    def set_coeff(self, j, cj):
        self.coeffs.append(cj)
        if _is_exact_zero(cj):
            self.w.append(GR_ZERO)
            return
        wj = cj * self.inv0
        self.w.append(wj)
        self.nonzero.append(j)
        for e, H in self.lists.items():
            if len(H) > j and e != 0:
                H[j] = H[j] + wj * Fraction(e, self.m)


def _pin_resonant(k, n, branch, powers, c):
    """Solve the constant term of Phi_k(y) = s(y) + c for c_{2n+k}."""
    y = ZSeries(-n, powers.coeffs)       # resonant coefficient treated as 0
    phi0 = bracket_phi(k, y).coeff(0)
    s0 = powers.coeff(powers.table(first_integral_series(branch)), 0)
    num = phi0 + s0 * -1 + c * -1
    return num * pinning_coefficient(k, n, powers.coeffs[0]).inverse()


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def verify_series(eq, ls):
    """Back-substitute the truncated germ into P(y^(k), y).

    The powers of y and of y^(k) are built once per call, as two ladders
    (each rung the previous one times the base) up to the highest exponent
    P uses; every term of P reads one rung from each, or a single rung when
    its other exponent is zero.

    Returns the number of consecutive certified-zero coefficients of the
    residual, counted from the lowest exponent P could produce.  With the
    truncation N the count is guaranteed only up to the validity window; a
    corrupted coefficient shows up as a sharp drop.
    """
    y = ls.as_zseries()
    p_ser = y.derivative_n(eq.k)
    e_min = min(i * (-ls.n - eq.k) + j * (-ls.n) for (i, j) in eq.P.terms)
    p_pow = _ladder(p_ser, eq.P.deg_p())
    y_pow = _ladder(y, eq.P.deg_q())
    acc = ZSeries.zero()
    for (i, j), a in sorted(eq.P.terms.items()):
        term = p_pow[i].mul(y_pow[j]) if i and j else p_pow[i] if i else y_pow[j]
        acc = acc + term.scale(a)
    bad = acc.first_noncertified_zero()
    window_hi = acc.valid_to
    if bad is None:
        return int(window_hi - e_min + 1)
    return int(bad - e_min)


def verify_orders(eq, germs):
    """verify_series of every germ, None for one with a free parameter.
    Conjugate germs over K share their exact coordinates, so each
    conjugate class is back-substituted once."""
    out, done = [], []          # done: (germ over K, its order)
    for ls in germs:
        if ls.resonance_status == "free":
            out.append(None)
        elif field_of(ls.coeffs[0]) is None:
            out.append(verify_series(eq, ls))
        else:
            order = next((order for seen, order in done if conjugates(seen, ls)), None)
            if order is None:
                order = verify_series(eq, ls)
                done.append((ls, order))
            out.append(order)
    return out


def conjugates(a, b):
    """Whether two germs differ at most in their root: the same exact
    coordinates, read at the same or another embedding."""
    return ((a.n, a.k, a.c, a.branch_id) == (b.n, b.k, b.c, b.branch_id)
            and len(a.coeffs) == len(b.coeffs)
            and all(map(same_coordinates, a.coeffs, b.coeffs)))


def germ_counts(germs):
    """Deterministic counts of a germ list: germs with every coefficient in
    Q(i), germs over K by their degree g, germs of balls, and the conjugate
    classes over K (one per branch and pole order)."""
    exact, algebraic, balls, classes = 0, {}, 0, set()
    for ls in germs:
        emb = field_of(ls.coeffs[0])
        if emb is not None:
            algebraic[str(emb.g)] = algebraic.get(str(emb.g), 0) + 1
            classes.add((ls.branch_id, ls.n))
        elif all(is_exact(c) for c in ls.coeffs):
            exact += 1
        else:
            balls += 1
    return {"germs_gaussian": exact, "germs_algebraic": algebraic, "germs_ball": balls,
            "conjugate_classes": len(classes)}


def _ladder(base, top):
    """[base^0, base^1, ..., base^top], each rung the previous one times base."""
    rungs = [ZSeries.one(), base]
    while len(rungs) <= top:
        rungs.append(rungs[-1].mul(base))
    return rungs


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def coeff_to_json(c):
    """A coefficient as JSON: exact Q(i) values as {"rat", "rat_im"},
    elements of K as {"eta": [x_0, ..., x_{g-1}]}, each coordinate as
    re-parseable exact text, balls as {"re", "im", "err"}."""
    if is_exact(c):
        g = as_gaussian(c)
        entry = {"rat": _fraction_str(g.re)}
        if g.im != 0:
            entry["rat_im"] = _fraction_str(g.im)
        return entry
    if field_of(c) is not None:
        return {"eta": [gaussian_str(x) for x in c.coordinates()]}
    return {"re": float(c.val.real), "im": float(c.val.imag), "err": float(c.err)}


def coeff_text(cj):
    """The text of a coefficient's JSON (coeff_to_json): Q(i) values as
    gaussian_str and each coordinate of an element of K as in the JSON, both
    re-parseable by parse_constant; balls as ``re+im i (err e)``; the free
    resonant coefficient as ``<free>``."""
    if "free" in cj:
        return "<free>"
    if "rat" in cj:
        return gaussian_text(cj["rat"], cj.get("rat_im", "0"))
    if "eta" in cj:
        return eta_str(cj["eta"])
    return f"{cj['re']:.12g}{cj['im']:+.12g}i (err {cj['err']:.2g})"


def series_to_json(ls):
    """A germ as JSON; a free germ's coefficients end with {"free": true} at
    the resonant index, and a germ over K also names its field and
    embedding: eta^g = beta, the root index of eta_k and eta_k as a ball."""
    free = [{"free": True}] if ls.resonance_status == "free" else []
    out = {
        "n": ls.n,
        "coeffs": [coeff_to_json(c) for c in ls.coeffs] + free,
        "resonance": ls.resonance_status,
        "c": coeff_to_json(ls.c) if ls.c is not None else None,
        "branch": ls.branch_id,
    }
    emb = field_of(ls.coeffs[0])
    if emb is not None:
        out["embedding"] = {"g": emb.g, "beta": coeff_to_json(emb.beta),
                            "root": emb.index, "eta": coeff_to_json(emb.eta)}
    return out

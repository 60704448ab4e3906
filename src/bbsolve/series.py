"""Formal Laurent series solutions with a pole at the origin.

For an admissible branch (kappa = 1 + k/n) the substitution
y = sum_{j>=0} c_j z^(j-n) into y^(k) = p(y) determines the coefficients one
at a time: the linear factor multiplying c_j is

    bracket(j) = D_j - (1 + k/n) D_0,   D_j = falling(j - n, k),

which for even k vanishes exactly once, at j = 2n + k.  The resonant
coefficient is not determined by y^(k) = p(y); it is pinned by the constant
term of the first-integral form  Phi_k(y) = s(y) + c,  where
Phi_k(y) = y^(k-1) y' - y^(k-2) y'' + ... +- (1/2) (y^(k/2))^2  and s is the
termwise integral of p dq along the branch.  For odd k the bracket never
vanishes and c_0 alone determines the series.

Fractional powers of y are taken on a single determination eta_0 of
c_0^(1/m); the admissible determinations are the g = m k / n roots of
eta^g = D_0 / A_0, and each one yields one candidate series (conjugate
branch choices are absorbed, duplicates removed).
"""

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (BigComplex, GR_ONE, GR_ZERO, GaussianRational, ZSeries,
                      _is_exact_zero, all_nth_roots, as_gaussian, binom_frac,
                      coeff_is_zero, falling, is_exact, pochhammer, DEFAULT_PREC)
from .curve import first_integral_series
from .errors import (DepthTooSmall, InconsistentResonance, NoRoots,
                     PrecisionExhausted)


class FreeCoefficient:
    """Marker for the undetermined resonant coefficient in c-free mode."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "FREE"


FREE = FreeCoefficient()


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
            term = -term
        acc = term if acc is None else acc + term
    mid = derivs[half] * derivs[half]
    sign = 1 if half % 2 == 1 else -1
    mid = mid.scale(GaussianRational(Fraction(sign, 2)))
    return mid if acc is None else acc + mid


# ---------------------------------------------------------------------------
# leading coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LeadingRoot:
    c0: object          # eta0^m
    eta0: object        # chosen determination of c0^(1/m)
    index: int          # deterministic root index


def d_factor(k, n, j):
    """D_j = falling(j - n, k): the y^(k) coefficient multiplier at index j."""
    return falling(j - n, k)


def recurrence_bracket(k, n, j):
    """bracket(j) = D_j - (1 + k/n) D_0 as an exact rational."""
    d0 = d_factor(k, n, 0)
    return Fraction(d_factor(k, n, j)) - (1 + Fraction(k, n)) * d0


def leading_roots(k, n, branch, precision=DEFAULT_PREC):
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
    D0 = GaussianRational(falling(-n, k))
    A0 = branch.lead
    rhs = (D0 * A0.inverse()) if is_exact(A0) else D0 * (1 / A0)
    roots = all_nth_roots(rhs, g, precision)
    out = []
    for idx, r in enumerate(roots):
        eta0 = r.exact if (isinstance(r, BigComplex) and r.exact is not None) else r
        c0 = eta0 ** m
        out.append(LeadingRoot(c0=c0, eta0=eta0, index=idx))
    if not out:
        raise NoRoots("no nonzero leading coefficient")
    return out


def leading_coefficients(k, n, branch, precision=DEFAULT_PREC):
    """All nonzero c_0 with D_0 c_0 = A_0 c_0^(1+k/n) on this branch."""
    seen = []
    for r in leading_roots(k, n, branch, precision):
        if not any(_coeff_close(r.c0, s) for s in seen):
            seen.append(r.c0)
    return seen


def pinning_coefficient(k, n, c0):
    """Coefficient of the resonant c_{2n+k} in the first-integral constant-term
    equation: c0 * sum_{m=0}^{k-1} (n+m)! (n+k)! / ((n+m+1)! (n-1)!); positive
    for c0 > 0, never zero."""
    if k % 2 != 0 or k < 2:
        raise ValueError("pinning requires even k")
    if n < 1:
        raise ValueError("n must be a positive integer")
    if coeff_is_zero(c0 if not isinstance(c0, (int, Fraction)) else GaussianRational(c0)):
        raise ValueError("c0 must be nonzero")
    total = Fraction(0)
    base = Fraction(pochhammer(n, k + 1))  # (n+k)!/(n-1)!
    for mm in range(k):
        total += base / (n + mm + 1)
    if isinstance(c0, (int, Fraction)):
        c0 = GaussianRational(c0)
    return c0 * GaussianRational(total) if is_exact(c0) else c0 * total


# ---------------------------------------------------------------------------
# the enumeration engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaurentSeries:
    """A formal solution germ y(z) = sum coeffs[j] z^(j - n), c_0 != 0."""

    n: int
    k: int
    coeffs: tuple               # entries: coefficient values, possibly FREE
    N: int                      # truncation index (inclusive)
    resonance_status: str       # "none" | "pinned" | "free_parameter"
    c: object                   # first-integral constant when pinned, else None
    branch_id: str
    root_choice: int

    def as_zseries(self):
        cs = [GR_ZERO if c is FREE else c for c in self.coeffs]
        return ZSeries(-self.n, cs, valid_to=-self.n + self.N)

    def has_free_parameter(self):
        return any(c is FREE for c in self.coeffs)

    def resonant_index(self):
        return 2 * self.n + self.k if self.k % 2 == 0 else None


def _coeff_close(a, b):
    if is_exact(a) and is_exact(b):
        return as_gaussian(a) == as_gaussian(b)
    av = a.to_mpc() if is_exact(a) else a.val
    bv = b.to_mpc() if is_exact(b) else b.val
    ae = a.err if isinstance(a, BigComplex) else 0
    be = b.err if isinstance(b, BigComplex) else 0
    tol = ae + be
    if tol == 0:
        tol = 1e-30 * (1 + abs(av) + abs(bv))
    return abs(av - bv) <= tol


def _power_table(terms, m, n):
    """[(absolute z-start, eta exponent e, A)] for terms A q^x on a branch.

    Evaluated at y, each term becomes  A eta0^e z^(-n x) G^e  with  e = m x.
    The terms are the branch's own for p(y) (x = kappa - i/m), and those of
    the termwise integral of p dq for s(y) (x = kappa + 1 - i/m).
    """
    out = []
    for q_exp, A in terms:
        e = m * q_exp
        if e.denominator != 1:
            raise PrecisionExhausted(f"exponent {q_exp} off the u-grid of ramification {m}")
        z_start = -n * q_exp
        if z_start.denominator != 1:
            raise NoRoots(f"ramification {m} does not divide pole order {n}")
        out.append((int(z_start), int(e), A))
    return out


def _needed_branch_depth(branch, n, N):
    """Branch must reach q-exponent kappa - N/n... (u-index i <= m*N/n)."""
    need_q = branch.kappa - Fraction(N, n)
    return branch.valid_q_to <= need_q


def enumerate_series(eq, branch, n, c=None, N=None, precision=DEFAULT_PREC,
                     collect_notes=None):
    """All Laurent germs with a pole of order n feeding this branch.

    ``c``: first-integral constant (exact or numeric) for even k; None means
    the resonant coefficient is emitted as a free parameter.  ``N``:
    truncation index, default 2n + k + 4.  Skipped leading roots (resonance
    inconsistency) are reported through ``collect_notes`` when given.
    """
    k = eq.k if hasattr(eq, "k") else int(eq)
    if N is None:
        N = 2 * n + k + 4
    if k % 2 == 0 and N < 2 * n + k:
        N = 2 * n + k
    if not _needed_branch_depth(branch, n, N):
        raise DepthTooSmall(
            f"branch {branch.id} expanded to q-exponent {branch.valid_q_to}, but "
            f"index N={N} needs {branch.kappa - Fraction(N, n)}; recompute branches "
            "with a larger depth")
    out = []
    for root in leading_roots(k, n, branch, precision):
        try:
            ls = _build_series(k, n, branch, root, c, N, precision)
        except InconsistentResonance as exc:
            if collect_notes is not None:
                collect_notes.append(
                    f"branch {branch.id}, c0={_fmt_coeff(root.c0)}: {exc}")
            continue
        out.append(ls)
    return _dedup(out)


def _build_series(k, n, branch, root, c, N, precision):
    m = branch.m
    j_res = 2 * n + k if k % 2 == 0 else None
    coeffs = [root.c0] + [GR_ZERO] * N
    free_emitted = False
    pterms = _power_table(branch.terms, m, n)
    for j in range(1, N + 1):
        if free_emitted:
            break
        bracket = recurrence_bracket(k, n, j)
        Ej = _residual_coeff_at(k, n, coeffs, j, pterms, root.eta0, m)
        if bracket != 0:
            num = -Ej
            coeffs[j] = (num * GaussianRational(Fraction(1, 1) / bracket)
                         if is_exact(num) else num * (1 / bracket))
            continue
        if j != j_res:
            raise InconsistentResonance(
                f"unexpected vanishing bracket at index {j} (expected {j_res})")
        if not coeff_is_zero(Ej):
            raise InconsistentResonance(
                f"resonant index {j}: forced term {_fmt_coeff(Ej)} is nonzero "
                "(this reflects a nonzero residue of p dq); no series with this c0")
        if c is None:
            coeffs[j] = FREE
            free_emitted = True
            continue
        coeffs[j] = _pin_resonant(k, n, branch, root, coeffs, c, j)
    if free_emitted:
        N_eff = j_res
        coeffs = coeffs[:N_eff + 1]
        status = "free_parameter"
        c_val = None
    else:
        N_eff = N
        status = "none" if j_res is None else "pinned"
        c_val = None if j_res is None else c
        if j_res is not None and c is None:
            status = "free_parameter"  # unreachable; guard
    return LaurentSeries(n=n, k=k, coeffs=tuple(coeffs), N=N_eff,
                         resonance_status=status, c=c_val,
                         branch_id=branch.id, root_choice=root.index)


def _residual_coeff_at(k, n, coeffs, j, pterms, eta0, m):
    """Coefficient of z^(j - n - k) in y^(k) - p(y), with c_j treated as 0."""
    cap_rel = j
    y = ZSeries(-n, coeffs[:j])
    target = j - n - k
    lhs = y.derivative_n(k).coeff(target)
    # G = (1 + w)^(1/m), w = sum_{j'>=1} (c_j'/c_0) z^j'
    rhs = _coeff_of_powers(pterms, _g_series(y, m, cap_rel), eta0, cap_rel, target)
    lhs_val = lhs if not _is_exact_zero(lhs) else GR_ZERO
    return lhs_val - rhs


def _g_series(y, m, cap_rel):
    """(1 + w)^(1/m) truncated at relative order cap_rel, w = tail(y)/lead(y)."""
    c0 = y.coeffs[0]
    inv0 = c0.inverse() if isinstance(c0, GaussianRational) else 1 / c0
    w = ZSeries(0, [GR_ZERO] + [ci * inv0 for ci in y.coeffs[1:]]).truncate(cap_rel)
    if m == 1:
        return ZSeries(0, [GR_ONE]) + w
    acc = ZSeries(0, [GR_ONE])
    wk = ZSeries(0, [GR_ONE])
    alpha = Fraction(1, m)
    for r in range(1, cap_rel + 1):
        wk = wk.mul(w, cap=cap_rel)
        if wk.is_visibly_zero():
            break
        b = binom_frac(alpha, r)
        acc = acc + wk.scale(GaussianRational(b))
    return acc


def _eta_power(eta0, e):
    if e == 0:
        return GR_ONE
    if is_exact(eta0):
        return as_gaussian(eta0) ** e
    return eta0 ** e


def _coeff_of_powers(table, G, eta0, cap_rel, target):
    """Coefficient of z^target in  sum A eta0^e z^start G^e  over a power table.

    Each G^e (and G^-1) is computed once, truncated at relative order cap_rel.
    """
    total = GR_ZERO
    Ginv = None
    powers = {}
    for z_start, e, A in table:
        rel_needed = target - z_start
        if rel_needed < 0:
            continue
        Ge = powers.get(e)
        if Ge is None:
            if e >= 0:
                Ge = G.pow_int(e, cap=cap_rel)
            else:
                if Ginv is None:
                    Ginv = G.inverse(cap=cap_rel)
                Ge = Ginv.pow_int(-e, cap=cap_rel)
            powers[e] = Ge
        contrib = Ge.coeff(rel_needed)
        if not _is_exact_zero(contrib):
            total = total + A * _eta_power(eta0, e) * contrib
    return total


def _pin_resonant(k, n, branch, root, coeffs, c, j_res):
    """Solve the constant term of Phi_k(y) = s(y) + c for c_{2n+k}."""
    s_terms = _power_table(first_integral_series(branch), branch.m, n)
    y = ZSeries(-n, coeffs[:j_res])       # resonant coefficient treated as 0
    phi0 = bracket_phi(k, y).coeff(0)
    s0 = _coeff_of_powers(s_terms, _g_series(y, branch.m, j_res), root.eta0, j_res, 0)
    T0 = (phi0 if not _is_exact_zero(phi0) else GR_ZERO) - s0
    pin = pinning_coefficient(k, n, root.c0)
    cc = c if not isinstance(c, (int, Fraction)) else GaussianRational(c)
    num = T0 - cc
    return num * pin.inverse() if (is_exact(num) and is_exact(pin)) else num * (1 / pin)


def _dedup(series_list):
    out = []
    for s in sorted(series_list, key=_series_sort_key):
        dup = False
        for t in out:
            if s.n == t.n and len(s.coeffs) == len(t.coeffs):
                same = all(
                    (a is FREE and b is FREE) or
                    (a is not FREE and b is not FREE and _coeff_close(a, b))
                    for a, b in zip(s.coeffs, t.coeffs))
                if same:
                    dup = True
                    break
        if not dup:
            out.append(s)
    return out


def _series_sort_key(s):
    c0 = s.coeffs[0]
    cx = complex(c0) if is_exact(c0) else complex(c0.val)
    return (s.n, round(cx.real, 12), round(cx.imag, 12), s.root_choice)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def verify_series(eq, ls):
    """Back-substitute the truncated germ into P(y^(k), y).

    Returns the number of consecutive certified-zero coefficients of the
    residual, counted from the lowest exponent P could produce.  With the
    truncation N the count is guaranteed only up to the validity window; a
    corrupted coefficient shows up as a sharp drop.
    """
    y = ls.as_zseries()
    if ls.has_free_parameter():
        y = y.truncate(-ls.n + ls.resonant_index() - 1)
    p_ser = y.derivative_n(eq.k)
    e_min = min(i * (-ls.n - eq.k) + j * (-ls.n) for (i, j) in eq.P.terms)
    acc = ZSeries.zero()
    for (i, j), a in sorted(eq.P.terms.items()):
        term = p_ser.pow_int(i).mul(y.pow_int(j))
        acc = acc + term.scale(a)
    bad = acc.first_noncertified_zero()
    window_hi = acc.valid_to
    if bad is None:
        return int(window_hi - e_min + 1)
    return int(bad - e_min)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _fmt_coeff(c):
    if is_exact(c):
        g = as_gaussian(c)
        from .eqparse import gaussian_str
        return gaussian_str(g)
    return f"{complex(c.val):.12g}~{float(c.err):.1e}"


def coeff_to_json(c):
    if c is FREE:
        return {"free": True}
    if is_exact(c):
        g = as_gaussian(c)
        from .eqparse import _fraction_str
        entry = {"rat": _fraction_str(g.re)}
        if g.im != 0:
            entry["rat_im"] = _fraction_str(g.im)
        return entry
    return {"re": float(c.val.real), "im": float(c.val.imag), "err": float(c.err)}


def series_to_json(ls):
    res = {"none": "none", "pinned": "pinned", "free_parameter": "free"}[ls.resonance_status]
    return {
        "n": ls.n,
        "coeffs": [coeff_to_json(c) for c in ls.coeffs],
        "resonance": res,
        "c": coeff_to_json(ls.c) if ls.c is not None else None,
        "branch": ls.branch_id,
    }

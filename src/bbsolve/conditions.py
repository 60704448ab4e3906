"""Necessary-condition screening for pole-bearing meromorphic solutions.

A solution with a pole of order n forces a place over q = infinity with
exponent kappa = 1 + k/n; places with kappa = 1 are never hit, and (by the
omitted-value bound on the sphere) at most two of them may exist.  A
pole-bearing solution is elliptic, rational in e^(az), or rational, and it
reaches every other place of the curve.  Over q = infinity the first two
reach places only at poles; z = infinity of a rational solution with a
polynomial part is the one other point that can, at a place with
kappa < 1, and a kappa = 1 place excludes rational solutions.  So one
kappa < 1 place, with no kappa = 1 place, does not by itself rule poles
out, while two or more do, as does any kappa > 1 that is not 1 + k/n.
For even k, when at most one kappa = 1 place exists and the curve is
rational, p dq must in addition be exact, so a certified nonzero residue at
an admissible branch kills every pole-bearing candidate.

All verdicts here are necessary-condition failures, never existence proofs.
"""

from dataclasses import dataclass, field, replace
from fractions import Fraction

KAPPA_ONE = "kappa_one"
INADMISSIBLE = "inadmissible"


@dataclass(frozen=True)
class BranchClass:
    branch_id: str
    kappa: Fraction
    label: str                 # KAPPA_ONE | "kappa_one_plus_k_over_n" | INADMISSIBLE
    n: int | None = None       # pole order when label is the 1 + k/n class


@dataclass(frozen=True)
class ConditionsReport:
    k: int
    per_branch: tuple           # of BranchClass
    kappa_one_count: int
    admissible_n: tuple         # sorted positive integers
    pole_solutions_possible: bool
    exactness_required: bool    # even k, <= 1 kappa-one place (genus-0 assumed)
    integrality_ok: bool        # p has no pole over finite q
    residue_screen_ran: bool = False
    residue_obstruction: bool = False
    degree_bound: int | None = None
    notes: tuple = field(default=())

    def admissible_pairs(self):
        """(branch_id, n) for every admissible branch."""
        return [(bc.branch_id, bc.n) for bc in self.per_branch
                if bc.label == "kappa_one_plus_k_over_n"]

    def screen_label(self):
        """None while poles stay possible; else "entire_only" when P passes
        the integrality screen and no place admits a pole order (so no
        residue was screened), and "none_with_pole" otherwise."""
        if self.pole_solutions_possible:
            return None
        if self.integrality_ok and not self.admissible_n:
            return "entire_only"
        return "none_with_pole"


def classify_kappa(k, kappa):
    """Return (label, n) for one branch exponent."""
    if kappa == 1:
        return KAPPA_ONE, None
    if kappa > 1:
        n = Fraction(k) / (kappa - 1)
        if n.denominator == 1:
            return "kappa_one_plus_k_over_n", int(n)
    return INADMISSIBLE, None


def screen_admissibility(k, branches, leading_p_coeff_constant=True):
    """Screen every branch exponent and produce the admissibility report.

    ``leading_p_coeff_constant`` reports whether the p-leading coefficient of
    P is constant in q, i.e. whether y^(k) can blow up only where y does; a
    nonconstant leading coefficient already rules out pole-bearing solutions.
    """
    per = []
    notes = []
    admissible = set()
    kappa_one = 0
    any_bad = False
    labels = [classify_kappa(k, b.kappa) for b in branches]
    # z = infinity of a rational solution may reach one kappa < 1 place, which
    # matters only when every other place admits a pole order
    below = [b for b in branches if b.kappa < 1]
    others_admit = all(label == "kappa_one_plus_k_over_n"
                       for b, (label, _) in zip(branches, labels) if b.kappa >= 1)
    lone = below[0] if len(below) == 1 < len(branches) and others_admit else None
    for b, (label, n) in zip(branches, labels):
        per.append(BranchClass(branch_id=b.id, kappa=b.kappa, label=label, n=n))
        if label == KAPPA_ONE:
            kappa_one += 1
            notes.append(f"branch {b.id}: kappa=1; no pole of a solution maps here")
        elif b is lone:
            notes.append(f"branch {b.id}: kappa={b.kappa} < 1 at the only such place; "
                         "only z = infinity of a rational solution with a "
                         "polynomial part can map here")
        elif label == INADMISSIBLE:
            any_bad = True
            notes.append(
                f"branch {b.id}: kappa={b.kappa} is neither 1 nor 1+{k}/n for a "
                "positive integer n; no solution with a pole exists")
        else:
            admissible.add(n)
            notes.append(f"branch {b.id}: kappa={b.kappa} admits pole order n={n}")
    possible = not any_bad
    if kappa_one > 2:
        possible = False
        notes.append(f"{kappa_one} branches with kappa=1: a nonconstant map to the "
                     "sphere omits at most two points; no transcendental solution")
    if not leading_p_coeff_constant:
        possible = False
        notes.append("integrality screen: the p-leading coefficient of P depends on q, "
                     "so y^(k) blows up over a finite value of y; no solution with a "
                     "pole exists")
    if not admissible:
        possible = False
        if not any_bad and kappa_one > 0:
            notes.append("only kappa=1 branches: solutions, if any, are entire")
    exactness_required = (k % 2 == 0) and kappa_one <= 1 and possible
    if exactness_required:
        notes.append("even k with at most one kappa=1 place: p dq must be exact "
                     "(genus-0 assumed)")
    return ConditionsReport(
        k=k,
        per_branch=tuple(per),
        kappa_one_count=kappa_one,
        admissible_n=tuple(sorted(admissible)),
        pole_solutions_possible=possible and bool(admissible),
        exactness_required=exactness_required,
        integrality_ok=leading_p_coeff_constant,
        notes=tuple(notes),
    )


def residue_screen(report, verdict):
    """Apply the residue obstruction to an admissibility report.

    Hypotheses: k even and at most one kappa=1 place.  When they fail the
    screen is skipped with a note (soft behaviour, not an error).  When they
    hold and any admissible branch (or, in resolved mode, any place) carries
    a certified nonzero residue, pole-bearing solutions are impossible.
    """
    notes = list(report.notes)
    if report.k % 2 == 1:
        notes.append("residue screen skipped: k is odd (first-integral bracket "
                     "requires even k)")
        return replace(report, residue_screen_ran=False, notes=tuple(notes))
    if report.kappa_one_count >= 2:
        notes.append("residue screen skipped: two kappa=1 places (rational-in-"
                     "exponential regime)")
        return replace(report, residue_screen_ran=False, notes=tuple(notes))
    if not report.admissible_n:
        notes.append("residue screen skipped: no admissible pole orders")
        return replace(report, residue_screen_ran=False, notes=tuple(notes))
    bad = [row for row in verdict.residues if not row.certified_zero]
    if bad:
        where = ", ".join(str(row.place) for row in bad)
        notes.append(f"residue obstruction: p dq has nonzero residue at {where}; "
                     "no solution with a pole exists")
        return replace(report, residue_screen_ran=True, residue_obstruction=True,
                       pole_solutions_possible=False, notes=tuple(notes))
    notes.append("residue screen passed: all computed residues of p dq vanish")
    return replace(report, residue_screen_ran=True, residue_obstruction=False,
                   notes=tuple(notes))


def degree_bound(germs):
    """Heuristic upper bound on the degree of a class-W solution: the sum of
    the pole orders of the distinct Laurent germs found at a fixed value of
    the first-integral constant; None when there are none."""
    return sum(ls.n for ls in germs) or None


def attach_degree_bound(report, germs):
    bound = degree_bound(germs)
    if bound is None:
        note = "degree bound undefined: no germs"
    else:
        note = (f"heuristic degree bound {bound}: sum of pole orders over "
                "distinct germs at fixed first-integral constant")
    return replace(report, degree_bound=bound, notes=report.notes + (note,))

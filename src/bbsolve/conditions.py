"""Necessary-condition screening for pole-bearing meromorphic solutions.

A solution with a pole of order n forces a place over q = infinity with
exponent kappa = 1 + k/n; places with kappa = 1 are never hit, and (by the
omitted-value bound on the sphere) at most two of them may exist.  For even
k, when at most one kappa = 1 place exists and the curve is rational, p dq
must in addition be exact, so a certified nonzero residue at an admissible
branch kills every pole-bearing candidate.

All verdicts here are necessary-condition failures, never existence proofs.
"""

from dataclasses import dataclass, field, replace
from fractions import Fraction

from .errors import EmptyInventory

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
    for b in branches:
        label, n = classify_kappa(k, b.kappa)
        per.append(BranchClass(branch_id=b.id, kappa=b.kappa, label=label, n=n))
        if label == KAPPA_ONE:
            kappa_one += 1
            notes.append(f"branch {b.id}: kappa=1; no pole of a solution maps here")
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


def residue_screen(report, verdict, k):
    """Apply the residue obstruction to an admissibility report.

    Hypotheses: k even and at most one kappa=1 place.  When they fail the
    screen is skipped with a note (soft behaviour, not an error).  When they
    hold and any admissible branch (or, in resolved mode, any place) carries
    a certified nonzero residue, pole-bearing solutions are impossible.
    """
    notes = list(report.notes)
    if k % 2 == 1:
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


def degree_bound(series_inventory):
    """Heuristic upper bound on the degree of a class-W solution.

    ``series_inventory``: list of (n, count) pairs, one per admissible pole
    order, counting the distinct Laurent germs found at a fixed value of the
    first-integral constant.  Each distinct germ contributes its pole order.
    """
    total = 0
    seen = False
    for n, count in series_inventory:
        if count:
            seen = True
            total += n * count
    if not seen:
        raise EmptyInventory("no Laurent germs: no pole-bearing solutions to bound")
    return total


def attach_degree_bound(report, series_inventory):
    try:
        bound = degree_bound(series_inventory)
    except EmptyInventory:
        notes = report.notes + ("degree bound undefined: no germs (entire-only)",)
        return replace(report, degree_bound=None, notes=notes)
    notes = report.notes + (
        f"heuristic degree bound {bound}: sum of pole orders over distinct germs "
        "at fixed first-integral constant",)
    return replace(report, degree_bound=bound, notes=notes)

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
rational, a pole-bearing solution has the first integral Phi_k(y) = s(y) + c
with ds = p dq, so p dq must be exact: a certified nonzero residue at any
place the exactness check examined, admissible or not, kills every
pole-bearing candidate.  A report holds the class of each place, the
integrality and residue verdicts and the notes; its flags are read off them.

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
    integrality_ok: bool        # p has no pole over finite q
    residue_obstruction: bool | None = None   # None unless residue_screen ran
    notes: tuple = field(default=())

    def admissible_pairs(self):
        """(branch_id, n) for every admissible branch."""
        return [(bc.branch_id, bc.n) for bc in self.per_branch
                if bc.label == "kappa_one_plus_k_over_n"]

    def lone_place_below_one(self):
        """The only kappa < 1 place, when it is not the only place and every
        other admits a pole order (so z = infinity of a rational solution
        alone can reach it); else None."""
        below = [bc for bc in self.per_branch if bc.kappa < 1]
        others = {bc.label for bc in self.per_branch if bc.kappa >= 1}
        return below[0] if len(below) == 1 and others == {"kappa_one_plus_k_over_n"} else None

    def _screen_open(self):
        """Poles are not ruled out before the residue screen."""
        lone = self.lone_place_below_one()
        return (self.integrality_ok and self.kappa_one_count <= 2 and bool(self.admissible_n)
                and all(bc.label != INADMISSIBLE or bc is lone for bc in self.per_branch))

    @property
    def kappa_one_count(self):
        return sum(bc.label == KAPPA_ONE for bc in self.per_branch)

    @property
    def admissible_n(self):
        return tuple(sorted({n for _, n in self.admissible_pairs()}))

    @property
    def pole_solutions_possible(self):
        return self._screen_open() and not self.residue_obstruction

    @property
    def exactness_required(self):
        return self.k % 2 == 0 and self.kappa_one_count <= 1 and self._screen_open()

    @property
    def residue_screen_ran(self):
        return self.residue_obstruction is not None

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
    report = ConditionsReport(
        k=k, integrality_ok=leading_p_coeff_constant,
        per_branch=tuple(BranchClass(b.id, b.kappa, *classify_kappa(k, b.kappa))
                         for b in branches))
    lone = report.lone_place_below_one()
    notes = []
    for bc in report.per_branch:
        if bc.label == KAPPA_ONE:
            notes.append(f"branch {bc.branch_id}: kappa=1; no pole of a solution maps here")
        elif bc is lone:
            notes.append(f"branch {bc.branch_id}: kappa={bc.kappa} < 1 at the only such "
                         "place; only z = infinity of a rational solution with a "
                         "polynomial part can map here")
        elif bc.label == INADMISSIBLE:
            notes.append(
                f"branch {bc.branch_id}: kappa={bc.kappa} is neither 1 nor 1+{k}/n for a "
                "positive integer n; no solution with a pole exists")
        else:
            notes.append(f"branch {bc.branch_id}: kappa={bc.kappa} admits pole order "
                         f"n={bc.n}")
    kappa_one = report.kappa_one_count
    if kappa_one > 2:
        notes.append(f"{kappa_one} branches with kappa=1: a nonconstant map to the "
                     "sphere omits at most two points; no transcendental solution")
    if not leading_p_coeff_constant:
        notes.append("integrality screen: the p-leading coefficient of P depends on q, "
                     "so y^(k) blows up over a finite value of y; no solution with a "
                     "pole exists")
    if 0 < kappa_one == len(report.per_branch):
        notes.append("only kappa=1 branches: solutions, if any, are entire")
    if report.exactness_required:
        notes.append("even k with at most one kappa=1 place: p dq must be exact")
    return replace(report, notes=tuple(notes))


def residue_screen(report, verdict):
    """Apply the residue obstruction to an admissibility report.

    Hypotheses: k even, at most one kappa=1 place, some admissible pole
    order.  When one fails the screen is skipped with a note (soft behaviour,
    not an error) and residue_obstruction stays None.  When they hold p dq
    must be exact, which one nonzero residue anywhere already denies: any
    certified nonzero residue ``verdict`` computed (in general mode, at every
    place over q = infinity, admissible or not) rules poles out.
    """
    if report.k % 2 == 1:
        note = "residue screen skipped: k is odd (first-integral bracket requires even k)"
    elif report.kappa_one_count >= 2:
        note = ("residue screen skipped: two kappa=1 places (rational-in-"
                "exponential regime)")
    elif not report.admissible_n:
        note = "residue screen skipped: no admissible pole orders"
    else:
        bad = [row for row in verdict.residues if not row.certified_zero]
        if bad:
            where = ", ".join(str(row.place) for row in bad)
            note = (f"residue obstruction: p dq has nonzero residue at {where}; "
                    "no solution with a pole exists")
        else:
            note = "residue screen passed: all computed residues of p dq vanish"
        return replace(report, residue_obstruction=bool(bad), notes=report.notes + (note,))
    return replace(report, notes=report.notes + (note,))


def degree_bound(germs):
    """Heuristic upper bound on the degree of a class-W solution: the sum of
    the pole orders of the distinct Laurent germs found at a fixed value of
    the first-integral constant; None when there are none."""
    return sum(ls.n for ls in germs) or None


def degree_bound_note(bound):
    """The last note of a report's conditions section: the bound, or why
    there is none."""
    if bound is None:
        return "degree bound undefined: no germs"
    return (f"heuristic degree bound {bound}: sum of pole orders over "
            "distinct germs at fixed first-integral constant")

"""Screening tour: which equations can have pole-bearing meromorphic solutions?

Every place of the curve P(p, q) = 0 over q = infinity carries an exponent
kappa = ord p / ord q, read off the Newton polygon.  A solution with a pole
of order n forces a place with kappa = 1 + k/n, so most equations are ruled
out by pure lattice geometry before any series is computed.  Run:

    python demos/01_screening_tour.py
"""

from bbsolve import branches_at_infinity, screen_admissibility, newton_polygon, parse_equation

GALLERY = [
    ("y'' = 6*y^2", "the classic degree-2 pole family"),
    ("y'' = y^4", "kappa = 4 needs n = 2/3: impossible"),
    ("y''' = y", "kappa = 1: poles never map there"),
    ("P: p^2 - 4*q^3 + 4*q ; k=1", "ramified place, kappa = 3/2"),
    ("y'' = y^3 + 1/y^2", "y'' blows up at finite y: integrality screen"),
    ("P: p^3 + p*q^2 + q^3 ; k=1", "several places with different kappa"),
]

for text, blurb in GALLERY:
    eq = parse_equation(text)
    polygon = newton_polygon(eq.P)
    branches = branches_at_infinity(eq.P, depth=8)
    lead_const = eq.P.coeff_in_p(eq.P.deg_p()).degree() == 0
    report = screen_admissibility(eq.k, branches, leading_p_coeff_constant=lead_const)
    print(f"== {text}   ({blurb})")
    print(f"   polygon kappa candidates: {[e.kappa for e in polygon.upper_edges]}")
    for bc in report.per_branch:
        extra = f" -> pole order n={bc.n}" if bc.n else ""
        print(f"   {bc.branch_id}: kappa={bc.kappa} [{bc.label}]{extra}")
    verdict = "possible" if report.pole_solutions_possible else "excluded"
    print(f"   pole-bearing solutions: {verdict}")
    print()

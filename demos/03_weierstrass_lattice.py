"""Detecting a period lattice by walking the solution through its poles.

The curve p^2 = 4q^3 - 4q (k = 1) is solved by the lemniscatic elliptic
function: a square pole lattice with period ratio exactly i.  The germ at
one pole is continued by high-order Taylor steps; each pole crossing is
re-anchored on the exact Laurent germ, so recorded pole positions are good
to ~1e-9, far beyond what raw stepping would give.  The detected fundamental
periods are then checked against an independent arithmetic-geometric-mean
computation.  Run:

    python demos/03_weierstrass_lattice.py
"""

import mpmath

from bbsolve import branches_at_infinity, enumerate_series, parse_equation
from bbsolve.classify import detect_periods, sweep_poles

eq = parse_equation("P: p^2 - 4*q^3 + 4*q ; k=1")
branch, = branches_at_infinity(eq.P, depth=48)
germ, = enumerate_series(eq, branch, 2, N=24)
print("germ at the pole:",
      [(i - 2, str(c)) for i, c in enumerate(germ.coeffs) if str(c) != "0"][:5])

# the sweep hands back its state probe: z -> (y, ..., y^(k-1)), or None
events, probe = sweep_poles(eq, [germ], budget=12)
print(f"\nfound {len(events)} poles:")
for ev in events:
    print(f"   {ev.z:+.9f}   order {ev.order}")

pr = detect_periods(events, state_probe=probe)
print(f"\nlattice rank {pr.rank}, verified by state match: {pr.verified}")
T1, T2 = pr.periods
print(f"   T1 = {T1:.12g}")
print(f"   T2 = {T2:.12g}")
print(f"   ratio T2/T1 = {pr.ratio:.12g}   (square lattice: exactly i)")

# independent oracle: real and imaginary periods by AGM
agm = mpmath.agm(mpmath.sqrt(2), 1)
T_oracle = complex(mpmath.pi / agm)
print(f"\nAGM oracle period: {T_oracle.real:.12g}")
print(f"deviation of detected |T1|: {abs(abs(T1) - T_oracle.real):.2e}")

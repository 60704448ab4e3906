"""Laurent germs: the finitely many formal solutions at a pole.

Substituting y = sum c_j z^(j-n) into y^(k) = p(y) determines every
coefficient linearly except one: for even k the factor in front of c_j
vanishes exactly at index j = 2n + k.  That resonant coefficient is pinned
by the first integral

    y^(k-1) y' - y^(k-2) y'' + ... +- (1/2)(y^(k/2))^2 = s(y) + c,

so the germ family is one exact curve per leading root, parameterised by c.
Run:

    python demos/02_laurent_germs.py
"""

from fractions import Fraction

from bbsolve import (branches_at_infinity, canonical_string, enumerate_series,
                     parse_equation, pinning_coefficient, recurrence_bracket,
                     verify_series)
from bbsolve.algebra import GaussianRational

eq = parse_equation("y'' = 6*y^2")
branch, = branches_at_infinity(eq.P, depth=24)
n, k = 2, eq.k

print("recurrence factor bracket(j) = D_j - (1 + k/n) D_0 for", canonical_string(eq))
row = {j: recurrence_bracket(k, n, j) for j in range(0, 12)}
print("  ", ", ".join(f"j={j}: {v}" for j, v in row.items()))
print(f"  vanishes only at j = 2n+k = {2 * n + k}")
print(f"  pinning coefficient of c_{2 * n + k}: {pinning_coefficient(k, n, 1)}")
print()

print("germ with the resonant coefficient left free:")
free, = enumerate_series(eq, branch, n, c=None, N=12)
print("  ", [(i - n, str(c)) for i, c in enumerate(free.coeffs)])
print(f"   it stops below z^{n + k}, whose coefficient is {free.resonance_status}")
print()

for c in (Fraction(0), Fraction(7), Fraction(-3, 2)):
    germ, = enumerate_series(eq, branch, n, c=GaussianRational(c), N=12)
    nz = [(i - n, str(cc)) for i, cc in enumerate(germ.coeffs)
          if not (hasattr(cc, "is_zero") and cc.is_zero())]
    order = verify_series(eq, germ)
    print(f"c = {c}:  germ {nz}")
    print(f"         back-substitution vanishes through {order} orders")
print()
print("c = 0 gives the exact rational member y = z^-2; generic c gives the")
print("doubly periodic family (see demo 03).")

"""From the equation to an exact closed form y = R(e^(az)).

As w = e^(az) -> 0, R(w) tends to an equilibrium r of y^(k) = f(y), and
linearising there gives a^k = f'(r): each simple root r of f in Q(i) offers
the exact multipliers a in Q(i), one of each pair +-a.  No period is
measured.  With s = e^(az) - 1, the exact Laurent germ at the pole z = 0
becomes a Laurent series in s (z = log(1+s)/a), and R = A(s)/(s^n B(s)) is
its Pade approximant, solved in exact arithmetic; for even k it must match
the germ through the resonant index 2n + k, where the first-integral
constant enters.
The candidate R = A/B in w = e^(az) is certified by one polynomial identity:
with Theta = w d/dw, Theta^k (A/B) = T_k / B^(k+1), where T_0 = A and
T_(j+1) = w (T_j' B - (j+1) T_j B'), and y^(k) = N(y)/D(y) holds exactly when
a^k T_k D~ B^(deg N) = N~ B^(k+1+deg D), with N~ = B^(deg N) N(A/B) and
D~ = B^(deg D) D(A/B).  Only certified identities are reported as exact.  Run:

    python demos/05_exponential_certificates.py
"""

from bbsolve.cli import Options, analyze

for text, c in (("y' = y^2 - 1", None),      # -coth(z - z0), a = 2: poles on pi i Z
                ("y''' = y", None),          # pure modes e^(az), a^3 = 1 (entire)
                ("y' = y^2", None),          # rational, NOT exponential: no certificate
                ("y'' = 6*y^2 + y", 0),      # w/(w - 1)^2 with a = 1, only at c = 0
                ("y'' = 6*y^2 + y", None)):  # elliptic at the default c = 1
    rep, _code = analyze(text, Options(c=c))
    v = rep["classification"]
    print(f"== {text}" + ("" if c is None else f"   (c = {c})"))
    print(f"   verdict: {v['label']}   (confidence {v['confidence']})")
    for e in v["evidence"]:
        if "exponential" in e or "closed form" in e or "period" in e or "lattice" in e:
            print(f"   {e}")
    print()

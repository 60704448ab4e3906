"""From a numerically detected period to an exact closed form.

A rank-1 pole lattice suggests y = R(e^(az)) with a = 2 pi i / T.  The
multiplier is recognised as an exact number.  With s = e^(az) - 1, the exact
Laurent germ at the pole z = 0 becomes a Laurent series in s (z = log(1+s)/a),
and R = A(s)/(s^n B(s)) is its Pade approximant, solved in exact arithmetic.
The candidate R = A/B in w = e^(az) is certified by one polynomial identity:
with Theta = w d/dw, Theta^k (A/B) = T_k / B^(k+1), where T_0 = A and
T_(j+1) = w (T_j' B - (j+1) T_j B'), and y^(k) = N(y)/D(y) holds exactly when
a^k T_k D~ B^(deg N) = N~ B^(k+1+deg D), with N~ = B^(deg N) N(A/B) and
D~ = B^(deg D) D(A/B).  Only certified identities are reported as exact.  Run:

    python demos/05_exponential_certificates.py
"""

from bbsolve.cli import Options, analyze

for text in ("y' = y^2 - 1",        # +-coth(z - z0): poles on pi i Z
             "y''' = y",            # pure modes e^(az), a^3 = 1 (entire)
             "y' = y^2"):           # rational, NOT exponential: no certificate
    rep, _code = analyze(text, Options())
    v = rep["classification"]
    print(f"== {text}")
    print(f"   verdict: {v['label']}   (confidence {v['confidence']})")
    for e in v["evidence"]:
        if "exponential" in e or "closed form" in e or "lattice" in e:
            print(f"   {e}")
    print()

"""Reference pole-sweep kernel: the Taylor step, the stepping estimates, germ
evaluation, pole matching and the segment loop as bbsolve.classify had them
before the inner loop was rewritten, kept unchanged so a differential test
can compare the two bit for bit.

``OracleFlow`` and ``OracleGerm`` override the methods of the library's
``_Flow`` and ``NumericGerm``; ``match_pole`` and ``run_segment`` are the
module functions.  ``oracle_kernel(monkeypatch)`` swaps all of them into
``bbsolve.classify``, so ``sweep_poles`` runs on this kernel.
"""

import cmath
import math
from operator import mul

from bbsolve import classify
from bbsolve.classify import NumericGerm, PoleEvent, _Flow, _record_event, _unit
from bbsolve.errors import SingularEncounter, ToleranceLoss


class OracleGerm(NumericGerm):
    def eval_derivs(self, u, count):
        """Value and the first ``count`` derivatives at offset u from the pole."""
        tables = self._tables
        if not tables:
            tables.append(self.coeffs)
        while len(tables) <= count:
            start = 1 - self.n - len(tables)
            tables.append([c * (start + idx) for idx, c in enumerate(tables[-1])])
        out = []
        for m in range(count + 1):
            acc = 0j
            for c in reversed(tables[m]):
                acc = acc * u + c
            out.append(acc * u ** (-self.n - m))
        return out


def oracle_germ(g):
    """The same germ, evaluated by the reference eval_derivs."""
    return OracleGerm(germ_id=g.germ_id, n=g.n, coeffs=g.coeffs, trust=g.trust)


class OracleFlow(_Flow):
    def __init__(self, eq, tol=classify.DEFAULT_TRAJ_TOL):
        super().__init__(eq, tol)
        self._fact = [math.factorial(i) for i in range(self.order + self.k + 2)]
        if self.resolved is not None:
            # the (degree, coefficient) pairs of N that _poly_series reads
            self._nonzero = [(d, c) for d, c in enumerate(self.resolved) if c != 0]

    @staticmethod
    def _poly_series(pairs, ypows, j):
        """Coefficient j of sum c y^d over the pairs (d, c), given powers of y."""
        acc = 0j
        for d, c in pairs:
            acc += c * ypows[d][j]
        return acc

    @staticmethod
    def _bipoly_series(terms, ppows, ypows, j):
        """Coefficient j of sum c p^i y^jq given cached powers of p and y.

        A zero exponent reads the other factor's series directly instead of
        convolving it with the series 1."""
        acc = 0
        for i, jq, c in terms:
            if i == 0:
                acc += c * ypows[jq][j]
            elif jq == 0:
                acc += c * ppows[i][j]
            else:
                acc += c * sum(map(mul, ppows[i], ypows[jq][j::-1]))
        return acc

    def taylor(self, state, p0=None):
        """Taylor coefficients Y[0..order] at the current point.

        Returns (Y, Pser) where Pser is the series of p (curve mode) or None.
        Every series involved gains exactly one coefficient per order j, and
        coefficient j reads only coefficients that are final by then, so one
        expansion costs O(order^2).
        """
        k, M, fact = self.k, self.order, self._fact
        Y = [state[i] / fact[i] for i in range(k)] + [0j] * (M - k + 1)
        if self.resolved is not None:
            degmax = len(self.resolved) - 1
            ypows = [[1.0 + 0j] + [0j] * M, Y] \
                + [[0j] * (M + 1) for _ in range(max(degmax - 1, 0))]
            for j in range(0, M - k + 1):
                Yrev = Y[j::-1]
                for d in range(2, degmax + 1):
                    ypows[d][j] = sum(map(mul, ypows[d - 1], Yrev))
                Nj = self._poly_series(self._nonzero, ypows, j)
                Y[j + k] = Nj * fact[j] / fact[j + k]
            return Y, None
        # general curve mode: p' = -(P_q(p, y) / P_p(p, y)) y'
        if p0 is None:
            raise ValueError("curve mode needs the p component in the state")
        read = self.Pp_terms + self.Pq_terms
        dp = max([1] + [i for i, _, _ in read])
        dq = max([1] + [jq for _, jq, _ in read])
        Pser = [p0] + [0j] * M
        ypows = [[1.0 + 0j] + [0j] * M, Y] + [[0j] * (M + 1) for _ in range(dq - 1)]
        ppows = [[1.0 + 0j] + [0j] * M, Pser] + [[0j] * (M + 1) for _ in range(dp - 1)]
        den = [0j] * (M + 1)   # series of P_p(p, y)
        pq = [0j] * (M + 1)    # series of P_q(p, y)
        yprime = [0j] * (M + 1)
        quo = [0j] * (M + 1)
        for j in range(0, M - k + 1):
            Y[j + k] = Pser[j] * fact[j] / fact[j + k]
            Yrev, Prev = Y[j::-1], Pser[j::-1]
            for d in range(2, dq + 1):
                ypows[d][j] = sum(map(mul, ypows[d - 1], Yrev))
            for d in range(2, dp + 1):
                ppows[d][j] = sum(map(mul, ppows[d - 1], Prev))
            den[j] = self._bipoly_series(self.Pp_terms, ppows, ypows, j)
            pq[j] = self._bipoly_series(self.Pq_terms, ppows, ypows, j)
            yprime[j] = (j + 1) * Y[j + 1]
            num = -sum(map(mul, pq, yprime[j::-1]))
            if abs(den[0]) < 1e-280:
                raise SingularEncounter("dP/dp = 0 on the path: curve branch point")
            quo[j] = (num - sum(map(mul, den[1:], quo[:j][::-1]))) / den[0]
            Pser[j + 1] = quo[j] / (j + 1)
        return Y, Pser

    def radius_estimate(self, Y):
        M = len(Y) - 1
        best = None
        for j in range(M, max(M - 6, 2), -1):
            if Y[j] != 0 and Y[j - 1] != 0:
                r = abs(Y[j - 1] / Y[j])
                best = r if best is None else min(best, r)
        return best if best is not None else 1e6

    def singularity_estimate(self, Y):
        """Domb-Sykes fit: location offset d of the nearest singularity, from
        the top Taylor ratios; None when the fit fails."""
        M = len(Y) - 1
        ratios = []
        for j in range(M - 7, M + 1):
            if 2 <= j <= M and Y[j - 1] != 0 and abs(Y[j]) > 1e-290:
                ratios.append((j, Y[j] / Y[j - 1]))
        if len(ratios) < 3:
            return None
        xs = [1.0 / j for j, _ in ratios]
        us = [u for _, u in ratios]
        nn = len(xs)
        sx = sum(xs); sxx = sum(map(mul, xs, xs))
        su = sum(us); sxu = sum(map(mul, xs, us))
        det = nn * sxx - sx * sx
        if abs(det) < 1e-30:
            return None
        intercept = (su * sxx - sx * sxu) / det
        if abs(intercept) < 1e-12:
            return None
        return 1.0 / intercept

    def advance(self, Y, Pser, h):
        """State and projected p at step h, from the expansion ``taylor`` gave."""
        k = self.k
        new_state = []
        for i in range(k):
            acc = 0j
            for j in range(len(Y) - 1, i - 1, -1):
                acc = acc * h + Y[j] * self._fact[j] / self._fact[j - i]
            new_state.append(acc)
        p_new = None
        if Pser is not None:
            p_new = sum(Pser[j] * h ** j for j in range(len(Pser)))
            p_new = self._project(p_new, new_state[0])
        return tuple(new_state), p_new


def match_pole(germs, z, state, k, p_obs=None):
    """Locate the pole near z by Newton-matching the exact germ.

    Returns (z_pole, germ, residual) or None.  The germ argument u = z - z_p
    starts from each asymptotic root y(u) ~ c_0 u^(-n) of each germ in turn,
    and the lowest score wins; matches outside the germ's trust radius are
    rejected, and the full state (plus p when supplied) must agree, which
    disambiguates even germs.
    """
    y_obs = state[0]
    if y_obs == 0:
        return None
    best = None
    for g in germs:
        base = g.coeffs[0] / y_obs
        try:
            r0 = base ** (1.0 / g.n)
        except (OverflowError, ZeroDivisionError):
            continue
        for u0 in (r0 * cmath.exp(2j * cmath.pi * t / g.n) for t in range(g.n)):
            if abs(u0) > g.trust:
                continue
            u = u0
            ok = True
            for _ in range(60):
                vals = g.eval_derivs(u, 1)
                f = vals[0] - y_obs
                fp = vals[1]
                if fp == 0:
                    ok = False
                    break
                du = f / fp
                u = u - du
                if abs(u) > 2 * g.trust:
                    ok = False
                    break
                if abs(du) < 1e-15 * (1 + abs(u)):
                    break
            if not ok or abs(u) < 1e-12 or abs(u) > g.trust:
                continue
            depth = max(k - 1, 0) if p_obs is None else k
            vals = g.eval_derivs(u, depth)
            resid = abs(vals[0] - y_obs) / (1 + abs(y_obs))
            statedev = 0.0
            for i in range(1, min(k, len(state))):
                statedev = max(statedev,
                               abs(vals[i] - state[i]) / (1 + abs(state[i])))
            if p_obs is not None:
                statedev = max(statedev, abs(vals[k] - p_obs) / (1 + abs(p_obs)))
            score = max(resid, statedev)
            if score < 1e-7 and (best is None or score < best[2]):
                best = (z - u, g, score)
    return best


def run_segment(flow, z0, state, p0, z1, germs, events, max_steps=400,
                record=None, counts=None):
    """Integrate from z0 to z1 at flow.tol along the straight segment, hopping
    poles.  ``events``: mutable list of PoleEvent, deduplicated in place.
    Returns (state, p, max_defect) within 1e-9 (1 + |z1 - z0|) of z1, or
    raises ToleranceLoss.  ``counts`` is accepted and left alone, so the
    library's sweep_poles can drive this loop.
    """
    z = z0
    p = p0
    max_defect = 0.0
    dirv = _unit(z1 - z0)
    total_len = abs(z1 - z0)
    hop_guard = 0
    passes = 0
    reach = 0.75 * max(g.trust for g in germs)
    for _ in range(max_steps):
        remaining = ((z1 - z) / dirv).real
        if remaining < 1e-12 * (1 + total_len):
            if abs(z1 - z) < 1e-9 * (1 + total_len):
                return state, p, max_defect
            if passes >= 2:
                raise ToleranceLoss(f"segment ended {abs(z1 - z):.2e} from its target")
            # hops pulled the path sideways; correct toward the exact target
            passes += 1
            dirv = _unit(z1 - z)
            continue
        Y, Pser = flow.taylor(state, p)
        rho = flow.radius_estimate(Y)
        d_est = flow.singularity_estimate(Y)
        near_pole = (d_est is not None and abs(d_est) < reach
                     and rho < 1.7 * reach and abs(d_est) < 3 * rho)
        if near_pole:
            hit = match_pole(germs, z, state, flow.k, p_obs=p)
            if hit is not None:
                z_p, g, resid = hit
                _record_event(events, PoleEvent(z=z_p, germ_id=g.germ_id, residual=resid))
                # hop only when the pole obstructs the path ahead; poles just
                # behind (e.g. the anchor we started from) are records only
                t_along = ((z_p - z) / dirv).real
                off_path = abs((z_p - z) - t_along * dirv)
                if (-0.02 * g.trust <= t_along <= remaining + 0.1 * g.trust
                        and off_path < 0.35 * abs(d_est) + 1e-9):
                    hop_guard += 1
                    if hop_guard > 60:
                        raise ToleranceLoss("pole hopping did not progress")
                    u_new = max(abs(z - z_p), 0.06 * g.trust)
                    z_new = z_p + u_new * dirv
                    state, p = flow.germ_state(g, z_new - z_p)
                    z = z_new
                    if record is not None:
                        record.append((z, state))
                    continue
        h_mag = min(0.35 * rho, remaining)
        # truncation control: the omitted tail behaves like |Y_M| h^M / (1 - h/rho)
        M = len(Y) - 1
        scale = max(abs(Y[0]), abs(state[-1]), 1.0)
        if Y[M] != 0:
            h_err = (0.02 * flow.tol * scale / abs(Y[M])) ** (1.0 / M)
            h_mag = min(h_mag, max(h_err, 1e-3 * rho))
        if h_mag <= 1e-13 * (1 + abs(z)):
            raise ToleranceLoss(f"step collapsed near z={z:.6g}")
        h = h_mag * dirv
        state, p_new = flow.advance(Y, Pser, h)
        state = flow.project_first_integral(state)
        z = z + h
        if flow.resolved is None:
            p = p_new
            dft = flow.defect(p, state[0])
            max_defect = max(max_defect, dft)
            if dft > max(flow.tol, 1e-8):
                raise ToleranceLoss(f"consistency defect {dft:.2e} exceeds tolerance")
        if record is not None:
            record.append((z, state))
    raise ToleranceLoss("segment step budget exhausted")


def oracle_kernel(monkeypatch):
    """Route bbsolve.classify's sweep through this module's kernel."""
    monkeypatch.setattr(classify, "_Flow", OracleFlow)
    monkeypatch.setattr(classify, "NumericGerm", OracleGerm)
    monkeypatch.setattr(classify, "match_pole", match_pole)
    monkeypatch.setattr(classify, "run_segment", run_segment)

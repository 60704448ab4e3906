"""Exact matchers, the exponential certificate, continuation, period detection."""

import cmath
import dataclasses
import hashlib
import math
from fractions import Fraction

import pytest

from bbsolve import classify
from bbsolve.algebra import BigComplex, GaussianRational, UPoly, roots_univariate
from bbsolve.cli import Options, analyze, cmd_classify, render_json, render_text
from bbsolve.classify import (PoleEvent, detect_periods, match_exponential,
                              match_monomial, reconstruct_exponential, run_segment,
                              sweep_poles, germ_numeric, _certify_exponential, _Flow)
from bbsolve.curve import branches_at_infinity
from bbsolve.eqparse import parse_equation
from bbsolve.errors import DegenerateInput, PrecisionExhausted
from bbsolve.series import enumerate_series

F = Fraction


class TestMonomialMatcher:
    def test_p_case(self):
        ms = match_monomial(parse_equation("y'' = 6*y^2"))
        assert len(ms) == 1 and ms[0].n == 2
        assert roots_univariate(ms[0].defining_poly) == [GaussianRational(1)]

    def test_scaled_case(self):
        ms = match_monomial(parse_equation("y'' = y^2"))
        assert roots_univariate(ms[0].defining_poly) == [GaussianRational(6)]

    def test_constant_breaks_monomial(self):
        assert match_monomial(parse_equation("y'' = 6*y^2 - 2")) == []

    def test_first_order(self):
        ms = match_monomial(parse_equation("y' = y^2"))
        assert ms[0].n == 1 and roots_univariate(ms[0].defining_poly) == [GaussianRational(-1)]

    def test_back_substitution_exact(self):
        # emitted matches satisfy P identically: checked through verify_series
        from bbsolve.series import LaurentSeries, verify_series
        eq = parse_equation("y'' = y^2")
        m, = match_monomial(eq)
        c0, = roots_univariate(m.defining_poly)
        germ = LaurentSeries(n=m.n, k=eq.k, coeffs=(c0,) + (GaussianRational(0),) * 10,
                             c=GaussianRational(0), branch_id="b0", root_choice=0)
        assert (germ.N, germ.resonance_status) == (10, "pinned")
        assert verify_series(eq, germ) >= 11


class TestExponentialMatcher:
    def test_cubic_roots_of_unity(self):
        ms = match_exponential(parse_equation("y''' = y"))
        assert len(ms) == 1
        m = ms[0]
        assert m.a_poly == UPoly([-1, 0, 0, 1])
        a_values = roots_univariate(m.a_poly)
        vals = [complex(v.val) if isinstance(v, BigComplex) else complex(v)
                for v in a_values]
        assert all(abs(v ** 3 - 1) < 1e-12 for v in vals)
        errs = [float(v.err) for v in a_values if isinstance(v, BigComplex)]
        assert all(e < 2.0 ** -128 for e in errs)

    def test_matcher_finds_no_roots(self, monkeypatch):
        # a_poly defines the multipliers: the matcher needs no root finder
        import bbsolve.algebra as algebra

        def refuse(*args, **kwargs):
            raise AssertionError("match_exponential ran a root finder")

        for name in ("roots_univariate", "_roots_exact", "_roots_numeric"):
            monkeypatch.setattr(algebra, name, refuse)
        monkeypatch.setattr(classify, "roots_univariate", refuse)
        m, = match_exponential(parse_equation("y''' = y"))
        assert m.a_poly == UPoly([-1, 0, 0, 1])

    def test_harmonic(self):
        ms = match_exponential(parse_equation("y'' = y"))
        assert sorted(str(v) for v in roots_univariate(ms[0].a_poly)) == ["-1", "1"]

    def test_riccati_not_exponential(self):
        notes = []
        ms = match_exponential(parse_equation("y' = y^2"), notes=notes)
        assert ms == []
        assert notes == ["no exact exponential match: without a period, only "
                         "affine right-hand sides are matched"]

    def test_affine_shift(self):
        ms = match_exponential(parse_equation("y'' = 4*y - 8"))
        m = ms[0]
        # y = w + 2 with w = e^(az), a^2 = 4
        assert str(m.R_num.coeffs[0]) == "2"
        assert sorted(str(v) for v in roots_univariate(m.a_poly)) == ["-2", "2"]


class TestRiccatiOrbit:
    """y' = y^2 - 1 (y = -coth z, period i pi) under y -> mu y, z -> lambda z:
    Y(z) = mu y(lambda z) solves Y' = (lambda/mu) Y^2 - mu lambda, so the label
    and its exact certificate must persist and the period scale by 1/lambda."""

    @pytest.mark.parametrize("text, lam", [
        ("y' = y^2 - 1", 1),
        ("y' = 3*y^2 - 3", 3),              # mu = 1, lambda = 3
        ("y' = y^2/2 - 1/2", F(1, 2)),      # mu = 1, lambda = 1/2
        ("y' = -1*y^2 + 4", -2),            # mu = 2, lambda = -2
    ])
    def test_exact_exponential_and_scaled_period(self, text, lam):
        v = analyze(text)[0]["classification"]
        assert (v["label"], v["confidence"]) == ("rational_in_exponential", "exact")
        assert any(e.startswith("exact exponential solution") for e in v["evidence"])
        (re, im), = v["periods"]
        assert abs(re) < 1e-9 and abs(abs(im) - math.pi / abs(lam)) < 1e-9

    @pytest.mark.parametrize("text, a", [
        ("y' = y^2 - 1", 2),
        ("y' = 3*y^2 - 3", 6),
        ("y' = y^2/2 - 1/2", 1),
        ("y' = -1*y^2 + 4", 4),
    ])
    def test_multiplier_read_from_the_equation(self, text, a, monkeypatch):
        # y' = A (y - r1)(y - r2) linearised at its equilibria: a = A (r1 - r2)
        # on the upper half-plane; the closed form is certified without a sweep
        sweeps = []
        monkeypatch.setattr(classify, "sweep_poles",
                            lambda *args, **kw: sweeps.append(args) or ([], None))
        v = analyze(text)[0]["classification"]
        assert (v["label"], v["confidence"]) == ("rational_in_exponential", "exact")
        assert sweeps == []
        assert f"a a root of a - {a} = 0" in v["evidence"][0]
        assert v["periods"] == [[0.0, 2 * math.pi / a]]

    def test_failed_search_falls_back_to_the_sweep(self, monkeypatch):
        # a root finder that gives up leaves a note, and the sweep decides:
        # its verified rank-1 lattice alone is numeric
        def exhausted(eq, precision):
            raise PrecisionExhausted("root disks did not shrink")

        monkeypatch.setattr(classify, "_multipliers", exhausted)
        v = analyze("y' = y^2 - 1")[0]["classification"]
        assert v["evidence"][0] == "closed-form search failed: root disks did not shrink"
        assert (v["label"], v["confidence"]) == ("rational_in_exponential", "numeric")

    def test_closed_form_on_a_later_exact_germ(self, monkeypatch):
        # y''' = -6 y^4 + 8 y^2 - 2 is solved by y = tanh z and its translate
        # coth z = (w + 1)/(w - 1), w = e^(2z); the seed germ leads with a
        # numeric cube root of unity and the germ of coth (c0 = 1) comes
        # last, so only trying every germ certifies it, with no sweep
        text = "y''' = -6*y^4 + 8*y^2 - 2"
        sweeps = []
        monkeypatch.setattr(classify, "sweep_poles",
                            lambda *args, **kw: sweeps.append(args) or ([], None))
        report = analyze(text, Options(no_classify=True))[0]
        assert "err" in report["series"][0]["coeffs"][0]    # the seed germ is numeric
        v = analyze(text)[0]["classification"]
        assert (v["label"], v["confidence"]) == ("rational_in_exponential", "exact")
        assert sweeps == []
        assert v["evidence"][0] == ("exact exponential solution: y = (w + 1)/(w - 1) "
                                    "with w = e^(a*z), a a root of a - 2 = 0")
        assert v["periods"] == [[0.0, math.pi]]

    def test_irrational_multiplier_stays_numeric(self):
        # y' = 7/3 y^2 - 4 has equilibria +-sqrt(12/7): no a in Q(i)
        eq = parse_equation("y' = 7/3*y^2 + -4")
        assert classify._multipliers(eq, 256) == []
        v = analyze("y' = 7/3*y^2 + -4")[0]["classification"]
        assert (v["label"], v["confidence"]) == ("rational_in_exponential", "numeric")


class TestEvenOrderClosedForm:
    """y'' = 6 y^2 + y, i.e. y'^2 = 4 y^3 + y^2 + 2c: the cubic has a double
    root at c = 0 (y = w/(w - 1)^2, w = e^z) and at c = -1/216 (a = i), and
    is elliptic at every other c."""

    TEXT = "y'' = 6*y^2 + y"

    def _germ(self, c):
        eq = parse_equation(self.TEXT)
        bs = branches_at_infinity(eq.P, depth=40)
        germ, = enumerate_series(eq, bs[0], 2, c=GaussianRational(c), N=24)
        return eq, germ

    def test_multipliers(self):
        # equilibria -1/6 and 0: f'(-1/6) = -1 and f'(0) = 1
        assert classify._multipliers(parse_equation(self.TEXT), 256) \
            == [GaussianRational(0, 1), GaussianRational(1)]

    @pytest.mark.parametrize("c, a, R", [
        (0, "a - 1", "(w)/(w^2 - 2*w + 1)"),
        (F(-1, 216), "a - i", "(-1/6*w^2 - 2/3*w - 1/6)/(w^2 - 2*w + 1)"),
    ])
    def test_exact_at_the_degenerate_constants(self, c, a, R):
        v = analyze(self.TEXT, Options(c=c))[0]["classification"]
        assert (v["label"], v["confidence"]) == ("rational_in_exponential", "exact")
        assert v["evidence"][:2] == [
            "exact closed form at first-integral constant c=" + str(F(c)),
            f"exact exponential solution: y = {R} with w = e^(a*z), a a root of "
            f"{a} = 0"]

    def test_elliptic_at_the_default_constant(self):
        v = analyze(self.TEXT)[0]["classification"]
        assert (v["label"], v["confidence"]) == ("elliptic", "numeric")
        assert v["evidence"][0] == "numeric continuation at first-integral constant c=1"

    def test_pade_reads_through_the_resonant_index(self):
        # the c = -1/216 solution agrees with the c = 1 germ below index
        # 2n + k = 6, so only reading c_6 refuses it; a germ that stops
        # short of c_6 certifies nothing, even at its own c
        i = GaussianRational(0, 1)
        eq, germ = self._germ(1)
        assert reconstruct_exponential(eq, germ, i, degree_cap=2) is None
        eq, germ = self._germ(F(-1, 216))
        assert reconstruct_exponential(eq, germ, i, degree_cap=2) is not None
        short = dataclasses.replace(germ, coeffs=germ.coeffs[:6])
        assert short.N == 5
        assert reconstruct_exponential(eq, short, i, degree_cap=2) is None
        # a germ without c stops there too: its resonant coefficient is free
        free, = enumerate_series(eq, branches_at_infinity(eq.P, depth=40)[0], 2, N=24)
        assert len(free.coeffs) == 6 and free.resonance_status == "free"
        assert reconstruct_exponential(eq, free, i, degree_cap=2) is None


class TestExponentialCertificate:
    """_certify_exponential: y = A(w)/B(w), w = e^(az), against y^(k) = N(y)."""

    CASES = [
        # y = -coth z = -(w + 1)/(w - 1), w = e^(2z): a^k = 2, k = 1
        ("y' = y^2 - 1", 2, UPoly([-1, -1]), UPoly([-1, 1])),
        # y = tanh z = (w - 1)/(w + 1), w = e^(2z): a^k = 4, k = 2
        ("y'' = 2*y^3 - 2*y", 4, UPoly([-1, 1]), UPoly([1, 1])),
        # the affine mode y = w with a^3 = 1: B = 1
        ("y''' = y", 1, UPoly([0, 1]), UPoly([1])),
        # y = 1/(2 cosh z - 2) = w/(w - 1)^2, w = e^z: one power of B lands on N~
        ("y'' = 6*y^2 + y", 1, UPoly([0, 1]), UPoly([1, -2, 1])),
    ]

    @pytest.mark.parametrize("text, a_k, A, B", CASES)
    def test_accepts_closed_form(self, text, a_k, A, B):
        assert _certify_exponential(parse_equation(text), GaussianRational(a_k), A, B)

    @pytest.mark.parametrize("text, a_k, A, B", CASES)
    def test_rejects_perturbed_numerator(self, text, a_k, A, B):
        # perturb the constant term: on y''' = y every multiple of w is a solution
        bent = A + GaussianRational(F(1, 3))
        assert not _certify_exponential(parse_equation(text), GaussianRational(a_k),
                                        bent, B)

    def test_refuses_a_denominator(self):
        # a nonconstant D has no solution with a pole (the integrality screen)
        eq = parse_equation("y'' = 4*y^3 + 1/y")
        with pytest.raises(DegenerateInput, match="nonconstant D"):
            _certify_exponential(eq, GaussianRational(4), UPoly([-1, 1]), UPoly([1, 1]))

    def test_power_of_b_on_the_left(self):
        # y' = y^3: deg N = 3 exceeds k + 1 + deg D = 2
        eq = parse_equation("y' = y^3")
        assert _certify_exponential(eq, GaussianRational(2), UPoly([-1, -1]),
                                    UPoly([-1, 1])) is False


def _continue(eq, germ, path):
    """Continue ``germ`` (pole at 0) along the polyline ``path``, one
    run_segment per leg.  Returns (steps, pole events, max defect), where
    steps are the (z, state) records, starting at path[0]."""
    flow = _Flow(eq)
    g0 = germ_numeric(germ, "seed")
    state, p = flow.germ_state(g0, complex(path[0]))
    events = [PoleEvent(z=0j, germ_id=g0.germ_id, residual=0.0)]
    steps = [(complex(path[0]), state)]
    max_defect = 0.0
    for z0, z1 in zip(path, path[1:]):
        state, p, dft = run_segment(flow, complex(z0), state, p, complex(z1), [g0],
                                    events, record=steps)
        max_defect = max(max_defect, dft)
    return steps, events, max_defect


class TestTrajectory:
    def test_exact_rational_solution(self):
        eq = parse_equation("y' = y^2")
        bs = branches_at_infinity(eq.P, depth=12)
        germ, = enumerate_series(eq, bs[0], 1, N=10)
        _steps, events, _ = _continue(eq, germ, [0.3 + 0.1j, 2.0 + 0.5j, -1.5 + 0.2j])
        assert len(events) == 1       # y = -1/(z - z0): one pole only
        assert events[0].germ_id == "seed" and germ.n == 1

    def test_p_germ_short_segment(self):
        eq = parse_equation("y'' = 6*y^2")
        bs = branches_at_infinity(eq.P, depth=16)
        germ, = enumerate_series(eq, bs[0], 2, c=GaussianRational(0), N=14)
        steps, events, _ = _continue(eq, germ, [0.2 + 0.1j, 0.8 + 0.3j])
        # seed pole at 0 of order 2 recorded
        assert events[0].z == 0 and events[0].germ_id == "seed" and germ.n == 2
        # y ~ 1/z^2 asymptotics at the endpoint
        z_end, state = steps[-1]
        assert abs(state[0] - 1 / z_end ** 2) < 1e-6 * abs(state[0])

    def test_curve_mode_defect_controlled(self):
        eq = parse_equation("P: p^2 - 4*q^3 + 4*q ; k=1")
        bs = branches_at_infinity(eq.P, depth=40)
        germ, = enumerate_series(eq, bs[0], 2, N=24)
        _steps, _events, max_defect = _continue(eq, germ, [0.25 + 0.13j, 1.1 + 0.4j])
        assert max_defect < 1e-10


class TestContinuationContract:
    @pytest.mark.parametrize("text", ["y''' = -9*y^4 + (5 + -6*i)*y^2 + -6*y^1",
                                      "y'' = 6*y^2"])
    def test_every_segment_reaches_its_target(self, text, monkeypatch):
        # a segment returns only at its target; every other end raises
        run_segment = classify.run_segment
        ends = []

        def checked(flow, z0, state, p0, z1, *args, record=None, **kwargs):
            steps = [] if record is None else record
            before = len(steps)
            out = run_segment(flow, z0, state, p0, z1, *args, record=steps, **kwargs)
            z_end = steps[-1][0] if len(steps) > before else z0
            ends.append(abs(z_end - z1) / (1 + abs(z1 - z0)))
            return out

        monkeypatch.setattr(classify, "run_segment", checked)
        analyze(text)
        assert ends and max(ends) <= 1e-9


class TestTrajectoryStability:
    def test_pole_locations_stable_under_tightened_tolerance(self):
        # rerunning with much smaller steps (tolerance / 100) moves the
        # reported pole locations by less than 10 * tol
        eq = parse_equation("P: p^2 - 4*q^3 + 4*q ; k=1")
        bs = branches_at_infinity(eq.P, depth=40)
        germ, = enumerate_series(eq, bs[0], 2, N=24)
        tol = 1e-10
        runs = []
        for t in (tol, tol / 100):
            events, _probe = sweep_poles(eq, [germ], tol=t, budget=6)
            runs.append([ev.z for ev in events])
        assert len(runs[0]) == len(runs[1])
        for a in runs[0]:
            b = min(runs[1], key=lambda z: abs(z - a))
            assert abs(a - b) < 10 * tol, (a, b)


class TestDetectPeriods:
    def test_arithmetic_progression(self):
        T = 2j * cmath.pi
        events = [PoleEvent(z=m * T, germ_id="g0", residual=0.0)
                  for m in range(3)]

        def probe(z):
            w = cmath.exp(z)        # period 2 pi i exactly
            return (w, w * w)

        pr = detect_periods(events, state_probe=probe)
        assert pr.rank == 1 and pr.verified
        assert min(abs(pr.periods[0] - T), abs(pr.periods[0] + T)) < 1e-7

    def test_square_lattice_fit(self):
        T1, T2 = 1.0 + 0j, 1j
        pts = [a * T1 + b * T2 for a in range(-2, 3) for b in range(-2, 3)]
        events = [PoleEvent(z=z, germ_id="g0", residual=0.0)
                  for z in sorted(pts, key=lambda t: (abs(t), t.real))]

        def probe(z):
            zr = complex(z.real - round(z.real), z.imag - round(z.imag))
            return (zr, zr ** 2)

        pr = detect_periods(events, state_probe=probe)
        assert pr.rank == 2 and pr.verified
        assert abs(pr.ratio - 1j) < 1e-9

    @staticmethod
    def _lattice_events(T1, T2):
        pts = [a * T1 + b * T2 for a in range(-2, 3) for b in range(-2, 3)]
        return [PoleEvent(z=z, germ_id="g0", residual=0.0)
                for z in sorted(pts, key=lambda t: (abs(t), t.real))]

    def test_one_basis_per_lattice(self):
        # the equianharmonic lattice is reported with Re tau = +1/2 whichever
        # basis the pole set suggests: the periods y'' = 3/2*y^2 sweeps to
        # (ratio -1/2 + i sqrt(3)/2 before rebasing) and an exact basis
        r = 4.3273635
        for T1, T2 in ((3.74760672 + 2.16368175j, -3.74760672 + 2.16368175j),
                       (r * cmath.exp(1j * math.pi / 6), r * cmath.exp(5j * math.pi / 6))):
            pr = detect_periods(self._lattice_events(T1, T2))
            assert pr.rank == 2
            assert abs(pr.ratio - cmath.exp(1j * math.pi / 3)) < 1e-8, pr.ratio
        # on |tau| = 1, Re tau a rounding error below 0 is left alone
        for eps in (3e-14, -3e-14):
            pr = detect_periods(self._lattice_events(1.0 + 0j, complex(eps, 1)))
            assert pr.rank == 2 and abs(pr.ratio - complex(eps, 1)) < 1e-15

    def test_lattice_fitted_per_germ(self):
        # two germs on two cosets of the square lattice: the mixed pole set
        # fits the finer lattice spanned by 1 and (1 + i)/2, which the state
        # refutes; the poles of g0 alone give the true periods
        pts = [a + b * 1j for a in range(-2, 3) for b in range(-2, 3)]
        events = [PoleEvent(z=z, germ_id="g0", residual=0.0) for z in pts] \
            + [PoleEvent(z=z + 0.5 + 0.5j, germ_id="g1", residual=0.0)
               for z in pts[:8]]
        events.sort(key=lambda e: (abs(e.z), e.z.real))

        def probe(z):
            zr = complex(z.real - round(z.real), z.imag - round(z.imag))
            return (zr, zr ** 2)

        one_germ = [PoleEvent(z=e.z, germ_id="g0", residual=0.0)
                    for e in events]
        assert not detect_periods(one_germ, state_probe=probe).verified
        pr = detect_periods(events, state_probe=probe)
        assert pr.rank == 2 and pr.verified
        assert abs(pr.ratio - 1j) < 1e-9

    def test_elliptic_with_two_germs(self):
        # y'' = 2 y^3 - 2 y at c = 1: y'^2 = y^4 - 2 y^2 + 2, residues -1 and
        # +1; its lattice is that of the Weierstrass invariants of the
        # quartic, g2 = 7/3 and g3 = -17/27
        from oracle_periods import weierstrass_periods
        rep, code = analyze("y'' = 2*y^3 - 2*y")
        verdict = rep["classification"]
        assert (verdict["label"], verdict["confidence"]) == ("elliptic", "numeric")
        got = [complex(*T) for T in verdict["periods"]]
        for want in weierstrass_periods(7 / 3, -17 / 27):
            assert min(abs(T - s * want) for T in got for s in (1, -1)) < 1e-6

    def test_single_pole_inconclusive(self):
        events = [PoleEvent(z=0j, germ_id="g0", residual=0.0)]
        pr = detect_periods(events)
        assert pr.rank == 0 and not pr.verified


class TestVerdicts:
    @staticmethod
    def _verdict(text):
        verdict = analyze(text)[0]["classification"]
        return verdict["label"], verdict["confidence"]

    @staticmethod
    def _fake_sweep(monkeypatch, events, pr=None):
        # the sweep records ``events``; detect_periods answers ``pr`` when
        # given, and fits the events itself otherwise
        calls = []
        monkeypatch.setattr(classify, "sweep_poles",
                            lambda *a, **kw: calls.append("sweep") or (events, None))
        if pr is not None:
            monkeypatch.setattr(classify, "detect_periods",
                                lambda *a, **kw: calls.append("fit") or pr)
        return calls

    def test_entire_only(self):
        assert self._verdict("y'' = y^4") == ("entire_only", "exact")

    def test_monomial_gives_rational(self):
        assert self._verdict("y' = y^2") == ("rational", "exact")

    def test_monotonic_confidence(self, monkeypatch):
        # numeric evidence never downgrades an exact verdict: the closed form
        # y = -coth z of y' = y^2 - 1, certified with a = 2, decides before
        # any lattice is consulted
        from bbsolve.classify import PeriodResult
        events = [PoleEvent(z=1j * t, germ_id="g0", residual=0.0)
                  for t in range(4)]
        for pr in (PeriodResult(periods=(3.14159j,), verified=True, detail=""),
                   PeriodResult(periods=(3.14159j, 2.0), verified=True, detail="")):
            calls = self._fake_sweep(monkeypatch, events, pr)
            verdict = analyze("y' = y^2 - 1")[0]["classification"]
            assert (verdict["label"], verdict["confidence"]) \
                == ("rational_in_exponential", "exact")
            assert [complex(*T) for T in verdict["periods"]] == [1j * math.pi]
            assert calls == []

    def test_rank_one_lattice_alone_is_numeric(self, monkeypatch):
        # an exact label needs a certified closed form with a pole: with no
        # multiplier to try, a verified rank-1 lattice leaves it numeric
        from bbsolve.classify import PeriodResult
        monkeypatch.setattr(classify, "_multipliers", lambda *a: [])
        one = PeriodResult(periods=(3.14159j,), verified=True, detail="")
        calls = self._fake_sweep(monkeypatch, [], one)
        assert self._verdict("y' = y^2 - 1") == ("rational_in_exponential", "numeric")
        assert calls == ["sweep", "fit"]

    def test_single_pole_is_undetermined(self, monkeypatch):
        # one pole on a finite probe, no certified exact match: evidence only
        self._fake_sweep(monkeypatch, [PoleEvent(z=0j, germ_id="g0", residual=0.0)])
        rep, _code = analyze("y''' = -1*y^4 + 1*y^3 + -1*y^2")
        assert rep["conditions"]["pole_solutions_possible"]
        verdict = rep["classification"]
        assert (verdict["label"], verdict["confidence"]) == ("undetermined", "heuristic")
        assert any("single non-recurring pole" in e for e in verdict["evidence"])

    @pytest.mark.parametrize("text, last", [
        # 13 poles fit a rank-2 lattice that the state probe refuses
        ("y''' = -9*y^4 + (5 + -6*i)*y^2 + -6*y^1",
         "continuation found 13 poles but no verified lattice: pole set fits a "
         "rank-2 lattice, not confirmed by the state probe"),
        # 13 poles that fit no lattice at all
        ("y'''' = 9/2*y^3 + -5*y^2 + 5*y^1 + -4",
         "continuation found 13 poles but no verified lattice: pole set does "
         "not fit a rank-2 lattice within tolerance"),
    ])
    def test_refused_lattice_leaves_evidence(self, text, last):
        rep, _ = analyze(text)
        verdict = rep["classification"]
        assert (verdict["label"], verdict["confidence"]) == ("undetermined", "heuristic")
        assert verdict["evidence"][-1] == last
        assert sum("verified lattice" in e for e in verdict["evidence"]) == 1

    def test_monomial_solution_overrules_the_screen(self):
        # the screen assumes P irreducible; y = 6/z^2 solves the factor
        # y'' = y^2 of this reducible P, and back-substitution is a proof
        text = "P: (p - q^2)*(p^3 - q^7) ; k=2"
        rep, code = analyze(text)
        verdict = rep["classification"]
        assert not rep["conditions"]["pole_solutions_possible"]
        assert (verdict["label"], verdict["confidence"], code) == ("rational", "exact", 0)
        assert "screening verdict none_with_pole overruled by the exact monomial " \
            "solution" in verdict["evidence"]
        out, code = cmd_classify(text, Options())
        assert code == 0 and out.splitlines()[0].endswith("rational (confidence exact)")

    def test_continuation_skipped_without_first_integral(self):
        # two kappa = 1 places and an admissible n = 2, but no certified
        # first integral: the even-k continuation does not start
        rep, code = analyze("P: (p - q)*(p + q)*(p - q^2 - 1) ; k=2")
        verdict = rep["classification"]
        assert (verdict["label"], verdict["confidence"], code) \
            == ("undetermined", "heuristic", 0)
        assert "numeric continuation skipped: no certified first integral" \
            in verdict["evidence"]
        # the residue screen does not run on two kappa = 1 places
        assert not rep["conditions"]["exactness_required"]

    def test_label_validation(self):
        from bbsolve.classify import ClassificationVerdict
        from bbsolve.errors import DegenerateInput
        with pytest.raises(DegenerateInput):
            ClassificationVerdict(label="mystery", confidence="exact", evidence=())


class TestAgainstJacobiForm:
    def test_probe_matches_classical_special_function(self):
        # the lemniscatic solution of p^2 = 4q^3 - 4q in classical form:
        # y(z) = e3 + (e1 - e3)/sn(z sqrt(e1 - e3) | m)^2 with e = (1, 0, -1),
        # m = 1/2; the germ-anchored probe must reproduce it pointwise
        import mpmath
        eq = parse_equation("P: p^2 - 4*q^3 + 4*q ; k=1")
        bs = branches_at_infinity(eq.P, depth=40)
        germ, = enumerate_series(eq, bs[0], 2, N=24)
        events, probe = sweep_poles(eq, [germ], budget=6)
        s2 = mpmath.sqrt(2)
        for z in (0.31 + 0.22j, 0.8 - 0.4j, 1.4 + 0.9j):
            got = probe(z)[0]
            sn = mpmath.ellipfun("sn", s2 * z, 0.5)
            want = complex(-1 + 2 / sn ** 2)
            assert abs(got - want) < 1e-8 * (1 + abs(want)), (z, got, want)


class TestEquianharmonicSymmetry:
    def test_hexagonal_lattice_for_pure_square_equation(self):
        # y'' = 6y^2 at c = 1 integrates to y'^2 = 4y^3 + 2: the cubic has
        # g2 = 0, so the pole lattice must be hexagonal: |ratio| = 1 and
        # Re(ratio) = +-1/2 exactly in the limit
        eq = parse_equation("y'' = 6*y^2")
        bs = branches_at_infinity(eq.P, depth=40)
        germ, = enumerate_series(eq, bs[0], 2, c=GaussianRational(1), N=24)
        events, probe = sweep_poles(eq, [germ], budget=12)
        pr = detect_periods(events, state_probe=probe)
        assert pr.rank == 2 and pr.verified
        assert abs(abs(pr.ratio) - 1) < 1e-6
        assert abs(abs(pr.ratio.real) - 0.5) < 1e-6


class TestScaledLattice:
    def test_contracted_pole_lattice(self):
        # y'' = 600 y^2 - 200 is the lemniscatic equation contracted by 10:
        # every absolute threshold in the sweep must rescale off the germ
        import mpmath
        eq = parse_equation("y'' = 600*y^2 - 200")
        bs = branches_at_infinity(eq.P, depth=40)
        germs = enumerate_series(eq, bs[0], 2, c=GaussianRational(0), N=24)
        events, probe = sweep_poles(eq, germs, budget=12)
        pr = detect_periods(events, state_probe=probe)
        assert pr.rank == 2 and pr.verified
        want = float(mpmath.pi / mpmath.agm(mpmath.sqrt(2), 1)) / 10
        for T in pr.periods:
            assert min(abs(T - want), abs(T - 1j * want)) < 1e-8
        assert abs(pr.ratio - 1j) < 1e-8


def _conv(a, b, j):
    """Coefficient j of the product of the series a and b."""
    return sum(a[i] * b[j - i] for i in range(j + 1))


def _poly_at(coeffs, ypows, j):
    """Coefficient j of sum coeffs[d] y^d, term by term, given powers of y."""
    acc = 0j
    for d, c in enumerate(coeffs):
        if c != 0:
            acc += c * ypows[d][j]
    return acc


def _reference_taylor(flow, state, p0=None):
    """The direct quadratic-per-order Taylor recurrences, kept as an oracle
    that shares no series helper with the flow: every order j re-evaluates
    the series of N(y) term by term (resolved mode) or the whole series of
    P_q(p, y) (curve mode), and every power of p and y up to deg P is built."""
    k, M, fact = flow.k, flow.order, flow._fact
    Y = [state[i] / fact[i] for i in range(k)] + [0j] * (M - k + 1)
    if flow.resolved is not None:
        Ncf = flow.resolved
        ypows = [[1.0 + 0j] + [0j] * M, Y] \
            + [[0j] * (M + 1) for _ in range(max(len(Ncf) - 2, 0))]
        for j in range(0, M - k + 1):
            for d in range(2, len(Ncf)):
                ypows[d][j] = _conv(ypows[d - 1], Y, j)
            Y[j + k] = _poly_at(Ncf, ypows, j) * fact[j] / fact[j + k]
        return Y, None
    dp = max(i for i, _, _ in flow.P_terms)
    dq = max(j for _, j, _ in flow.P_terms)
    Pser = [p0] + [0j] * M
    ypows = [[1.0 + 0j] + [0j] * M, Y] \
        + [[0j] * (M + 1) for _ in range(max(dq, 1) - 1)]
    ppows = [[1.0 + 0j] + [0j] * M, Pser] \
        + [[0j] * (M + 1) for _ in range(max(dp, 1) - 1)]
    num = [0j] * (M + 1)
    den = [0j] * (M + 1)
    quo = [0j] * (M + 1)
    for j in range(0, M - k + 1):
        Y[j + k] = Pser[j] * fact[j] / fact[j + k]
        for d in range(2, max(dq, 1) + 1):
            ypows[d][j] = _conv(ypows[d - 1], Y, j)
        for d in range(2, max(dp, 1) + 1):
            ppows[d][j] = _conv(ppows[d - 1], Pser, j)
        den[j] = sum(c * _conv(ppows[i], ypows[jq], j) for i, jq, c in flow.Pp_terms)
        yprime = [(idx + 1) * Y[idx + 1] for idx in range(j + 1)]
        pq_series = [sum(c * _conv(ppows[i], ypows[jq], idx)
                         for i, jq, c in flow.Pq_terms) for idx in range(j + 1)]
        num[j] = -sum(pq_series[idx] * yprime[j - idx] for idx in range(j + 1))
        quo[j] = (num[j] - sum(den[i] * quo[j - i] for i in range(1, j + 1))) / den[0]
        Pser[j + 1] = quo[j] / (j + 1)
    return Y, Pser


# the seven golden-corpus equations that run the pole sweep, two fixed
# states each: (y, ..., y^(k-1)) and, in curve mode, a start for p
CORPUS_FLOW_STATES = [
    ("y'' = 6*y^2", (0.9 + 0.2j, -0.3 + 1.1j), None),
    ("y'' = 6*y^2", (-1.4 + 0.6j, 2.2 - 0.5j), None),
    ("y'' = 6*y^2 - 2", (0.5 - 0.7j, 1.3 + 0.4j), None),
    ("y'' = 6*y^2 - 2", (2.1 + 0.1j, -0.8 - 1.6j), None),
    ("P: p^2 - 4*q^3 + 4*q ; k=1", (0.7 - 1.1j,), 1.6 + 2.3j),
    ("P: p^2 - 4*q^3 + 4*q ; k=1", (-1.3 + 0.5j,), -2.2 + 1.9j),
    ("y' = y^2", (0.6 + 0.8j,), None),
    ("y' = y^2", (-2.5 + 0.3j,), None),
    ("y' = y^2 - 1", (0.4 - 1.2j,), None),
    ("y' = y^2 - 1", (1.7 + 0.9j,), None),
    ("y'' = y^2", (1.2 + 0.3j, 0.2 - 0.9j), None),
    ("y'' = y^2", (-0.6 - 1.5j, 1.1 + 0.7j), None),
    ("P: p^2 - q^3 ; k=2", (1.3 + 0.4j, -0.6 + 0.9j), 1.2 + 0.8j),
    ("P: p^2 - q^3 ; k=2", (-0.9 + 1.4j, 0.5 + 0.3j), -1.5 - 0.9j),
]


class TestTaylorFlow:
    def test_one_expansion_per_step(self, monkeypatch):
        # every step or pole hop appends one record and needs one expansion
        eq = parse_equation("y'' = 6*y^2")
        bs = branches_at_infinity(eq.P, depth=16)
        germ, = enumerate_series(eq, bs[0], 2, c=GaussianRational(1), N=14)
        calls = {"taylor": 0, "germ_state": 0}
        taylor, germ_state = _Flow.taylor, _Flow.germ_state

        def counting_taylor(self, state, p0=None):
            calls["taylor"] += 1
            return taylor(self, state, p0)

        def counting_germ_state(self, g, u):
            calls["germ_state"] += 1
            return germ_state(self, g, u)

        monkeypatch.setattr(_Flow, "taylor", counting_taylor)
        monkeypatch.setattr(_Flow, "germ_state", counting_germ_state)
        steps, _events, _ = _continue(eq, germ, [0.2 + 0.1j, 2.5 + 0.2j, 2.0 + 2.4j])
        assert calls["germ_state"] >= 2       # the start, then at least one hop
        assert calls["taylor"] == len(steps) - 1

    def test_one_flow_per_analysis(self, monkeypatch):
        # the period probe continues on the flow the sweep anchored
        built = []
        init = _Flow.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(_Flow, "__init__", counting_init)
        rep, _ = analyze("y'' = 6*y^2")
        assert rep["classification"]["label"] == "elliptic"
        assert len(built) == 1

    # the last two read a mixed monomial p^i y^j (i, j >= 1) of dP/dp or
    # dP/dq, and powers p^2 of the p series
    @pytest.mark.parametrize("text, y, yp", [
        ("P: p^2 - q^3 ; k=2", 1.3 + 0.4j, -0.6 + 0.9j),
        ("P: p^2 - 4*q^3 + 4*q ; k=1", 0.7 - 1.1j, None),
        ("P: (p - q^3)^2 - 2*q^4 ; k=2", 0.6 + 0.5j, 0.3 - 0.8j),
        ("P: p^3 - q^4 + 1 ; k=1", -0.9 + 0.4j, None),
    ])
    def test_curve_mode_matches_reference(self, text, y, yp):
        flow = _Flow(parse_equation(text))
        state = (y,) if yp is None else (y, yp)
        p = flow._project(cmath.sqrt(4 * y ** 3), y)
        Y, Pser = flow.taylor(state, p)
        Y_ref, Pser_ref = _reference_taylor(flow, state, p)
        assert _bits(Y) == _bits(Y_ref) and _bits(Pser) == _bits(Pser_ref)
        assert any(c != 0 for c in Y[flow.k + 4:])

    def test_first_integral_read_off_the_equation(self):
        # y'' = 6 y^2: s = integral of 6 y^2 dy = 2 y^3
        assert _Flow(parse_equation("y'' = 6*y^2")).s_value(2) == 16
        for text in ("y' = y^2 - 1", "y''' = y", "P: p^2 - q^3 ; k=2"):
            assert _Flow(parse_equation(text)).fi is None, text

    def test_resolved_mode_refuses_a_denominator(self):
        # y^(k) = N/D with D nonconstant has no solution with a pole (the
        # integrality screen), so no germ can seed a continuation on it
        eq = parse_equation("y'' = 4*y^3 + 1/y")
        with pytest.raises(DegenerateInput, match="nonconstant D"):
            _Flow(eq)
        with pytest.raises(DegenerateInput, match="nonconstant D"):
            sweep_poles(eq, [])

    @pytest.mark.parametrize("text, state, p_start", CORPUS_FLOW_STATES)
    def test_corpus_flows_match_reference(self, text, state, p_start):
        flow = _Flow(parse_equation(text))
        assert (flow.resolved is None) == (p_start is not None)
        p = None if p_start is None else flow._project(p_start, state[0])
        Y, Pser = flow.taylor(state, p)
        Y_ref, Pser_ref = _reference_taylor(flow, state, p)
        assert _bits(Y) == _bits(Y_ref) and _bits(Pser) == _bits(Pser_ref)
        assert any(c != 0 for c in Y[flow.k + 4:])


def _bits(values):
    """Each complex as the hex of its parts, which tells -0.0 from 0.0."""
    return None if values is None else [(v.real.hex(), v.imag.hex()) for v in values]


def _direct_derivs(germ, u, count):
    """Value and derivatives of sum c_j u^(j - n) term by term: the m-th
    derivative's coefficient is c_j (j - n)(j - n - 1)...(j - n - m + 1)."""
    out = []
    for m in range(count + 1):
        coeffs = []
        for j, c in enumerate(germ.coeffs):
            for t in range(m):
                c = c * (j - germ.n - t)
            coeffs.append(c)
        acc = 0j
        for c in reversed(coeffs):
            acc = acc * u + c
        out.append(acc * u ** (-germ.n - m))
    return out


class TestGermDerivatives:
    @pytest.mark.parametrize("text, n, c", [
        ("y' = y^2 - 1", 1, None),
        ("y'' = 6*y^2", 2, GaussianRational(1)),
    ])
    def test_eval_derivs_matches_laurent_sum(self, text, n, c):
        eq = parse_equation(text)
        bs = branches_at_infinity(eq.P, depth=30)
        germ = germ_numeric(enumerate_series(eq, bs[0], n, c=c, N=24)[0], "g0")
        assert germ.n == n
        # count k + 1 comes after smaller ones, then past every table built
        for u in (0.21 + 0.13j, -0.05 + 0.34j):
            for count in (1, 0, eq.k + 1, 2 * eq.k + 3, eq.k):
                got, want = germ.eval_derivs(u, count), _direct_derivs(germ, u, count)
                assert [(v.real.hex(), v.imag.hex()) for v in got] \
                    == [(v.real.hex(), v.imag.hex()) for v in want]


# sha256 of render_json(analyze(text)) at the default options, for verdict
# paths the golden corpus does not reach
VERDICT_PATH_SHA256 = {
    # undetermined: one pole that does not recur
    "y''' = -1*y^2 + -2*y^1":
        "acad5e8761891f512f77865e534b6d6365360f3e980debf2385a3ef14c022307",
    # undetermined: two poles, no verified lattice
    "y'''' = 3/4*y^3 + (3 + -5*i)":
        "d06af98912986c63727d48a45be91af5ce37f52134371e915a11872478596129",
    # rational_in_exponential (numeric): the multiplier is not in Q(i)
    "y' = 7/3*y^2 + -4":
        "1a851b781230b2779ba6632bbddc37d320ed424429199f07c95a33eccd055668",
    # elliptic (numeric) with a complex coefficient
    "y'' = -1/3*i*y^2":
        "26c00f86082fc40a7571486eac85c48573ee81f0c61aeefacb5f70eb56df5a2a",
    # rational (exact): a monomial
    "y' = -2/3*y^2":
        "dac48efccb1f9015fc26cef5e017651eea8dfc84419f915e56915f712181a524",
    # none_with_pole with the "no exact exponential match" note
    "y' = -6*y^1 + -9 + -6/y^2":
        "283ff9265abd01dbb6ccc62bf3f56d027cae6f4b2151a845377f95c1553e7c81",
    # rational (exact): the monomial y = 6/z^2 overrules the screen
    "P: (p - q^2)*(p^3 - q^7) ; k=2":
        "e820b1dc9ead4066ad7840fee02515c7dfc0c38538412ac167f1fd3bf6fcccf5",
    # undetermined: no certified first integral, so no continuation
    "P: (p - q)*(p + q)*(p - q^2 - 1) ; k=2":
        "90d15c5c4746e11cd440ac09ec2bd736ea82f41719282af78fa1eaed3fa55f34",
    # rational_in_exponential (exact): the closed form certified on a later germ
    "y''' = -6*y^4 + 8*y^2 - 2":
        "7359350d03c0c4583e0ca4338f3eab4326e819f73ff72aace470e2e79246ddd3",
    # undetermined: no germ for continuation, as the ramification 2 does not
    # divide the pole order 1
    "P: (p - q^2)^2 - q^3 ; k=1":
        "d38aab61cb4c9fc8120437d58cec613402ad30e5610d207dc94c65a4e020554f",
}


@pytest.mark.parametrize("text", list(VERDICT_PATH_SHA256))
def test_verdict_path_report_is_pinned(text):
    report, _code = analyze(text)
    digest = hashlib.sha256(render_json(report).encode()).hexdigest()
    assert digest == VERDICT_PATH_SHA256[text], report["classification"]


@pytest.mark.xfail(strict=True, reason="the ball Puiseux terms below a double lead that "
                   "splits one order later exclude their true value 0, so a residue of "
                   "2.3e-66 +- 1.7e-72 is certified nonzero (ROADMAP item 1)")
def test_split_double_lead_keeps_its_poles():
    # the branches are exactly p = q^3 +- sqrt(2) q^2: every lower term, and
    # so the residue of p dq, is 0, which rules no pole out
    report, _code = analyze("P: (p - q^3)^2 - 2*q^4 ; k=2")
    assert report["classification"]["label"] not in ("none_with_pole", "entire_only")


@pytest.mark.xfail(strict=True, reason="y = 1 - 1/(z - z0) solves it, but match_monomial "
                   "certifies one-term germs only and _multipliers skips the double root "
                   "r = 1, so a single non-recurring pole stays undetermined (ROADMAP "
                   "item 12, step 1, and item 14)")
def test_two_term_rational_solution_is_certified():
    report, _code = analyze("y' = y^2 - 2*y + 1")
    verdict = report["classification"]
    assert (verdict["label"], verdict["confidence"]) == ("rational", "exact")


# a reducible raw P: the screen reads the places of every factor as one
# curve, so one factor's inadmissible place rules out the poles of another
@pytest.mark.xfail(strict=True, reason="ROADMAP item 13")
@pytest.mark.parametrize("text", [
    "P: (p - 6*q^2 + 2)*(p - q^4) ; k=2",           # y'' = 6y^2 - 2: Weierstrass wp
    "P: (p - 6*q^2 + 2)*(p - q^4 - 1) ; k=2",       # the same
    "P: (p^2 - 4*q^3 + 4*q)*(p - q^3 - 1) ; k=1",   # wp(z; 4, 0) solves the first factor
    "P: (p - q^2 + 1)*(p^2 - q^5 - 1) ; k=1",       # y = -coth z solves y' = y^2 - 1
])
def test_reducible_P_keeps_the_poles_of_a_factor(text):
    report, _code = analyze(text)
    assert report["classification"]["label"] != "none_with_pole"


@pytest.mark.xfail(strict=True, reason="sweep_poles drops a ray that raises without a trace, "
                   "so a sweep whose eight rays all fail reads as a numeric continuation "
                   "(ROADMAP items 5 and 10)")
def test_failed_continuation_rays_are_reported():
    # at tol=1e-300 every ray ends in ToleranceLoss ("segment step budget
    # exhausted"); the exact monomial verdict may stand, but its evidence
    # must say that the continuation found nothing
    report, _code = analyze("y'' = 6*y^2", Options(tol=1e-300))
    evidence = report["classification"]["evidence"]
    assert any("ray" in e and "failed" in e for e in evidence), evidence


def test_lone_place_below_kappa_one_keeps_poles_possible():
    # y = z + 1/z solves it: the pole maps to the kappa = 2 place, and
    # z = infinity to the kappa = 0 place, the only place with kappa < 1
    report, _code = analyze("P: q^2 - p*q^2 - p^2 + 4*p - 4 ; k=1")
    assert report["conditions"]["pole_solutions_possible"]
    assert report["classification"]["label"] not in ("none_with_pole", "entire_only")
    assert [s["n"] for s in report["series"]] == [1]
    assert "    coeffs: (1)*z^-1 + (1)*z^1" in render_text(report).splitlines()


def test_two_places_below_kappa_one_rule_poles_out():
    # kappa = 2 beside two kappa = -1 places: z = infinity reaches one place
    report, code = analyze("P: p^3 + 4*p^2*q^2 - 1 ; k=1")
    kappas = [b["kappa"] for b in report["branches"]]
    assert kappas == ["2", "-1", "-1"] and code == 2
    verdict = report["classification"]
    assert (verdict["label"], verdict["confidence"]) == ("none_with_pole", "exact")

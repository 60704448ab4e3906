"""The pole-sweep kernel against its reference (tests/oracle_flow.py).

Reports print periods at full repr, so the rewritten kernel must perform the
same float operations in the same order as before: every number it returns
is compared bit for bit, as the hex of its real and imaginary parts (which
tells -0.0 from 0.0), and every failure must be the same exception at the
same step.
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from bbsolve import classify
from bbsolve.classify import NumericGerm, _Flow, germ_numeric, match_pole, run_segment
from bbsolve.cli import analyze
from bbsolve.curve import branches_at_infinity
from bbsolve.eqparse import parse_equation
from bbsolve.errors import BBError, SingularEncounter, ToleranceLoss
from bbsolve.series import enumerate_series
from oracle_flow import OracleFlow, match_pole as oracle_match_pole, oracle_germ, \
    oracle_kernel, run_segment as oracle_run_segment
from test_classify import CORPUS_FLOW_STATES


def bits(value):
    """Every complex or float in ``value`` as hex text, recursively."""
    if isinstance(value, complex):
        return (value.real.hex(), value.imag.hex())
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    return value


def outcome(fn, *args):
    """bits(fn(*args)), or the exception it raised as (class, message)."""
    try:
        return bits(fn(*args))
    except (ArithmeticError, ValueError, ToleranceLoss, SingularEncounter) as exc:
        return type(exc).__name__, str(exc)


@functools.lru_cache(maxsize=None)
def flows(text):
    eq = parse_equation(text)
    return _Flow(eq), OracleFlow(eq)


def assert_steps_match(text, state, p, h):
    """taylor, the two estimates and advance agree on one state (and p in
    curve mode)."""
    new, old = flows(text)
    got, want = outcome(new.taylor, state, p), outcome(old.taylor, state, p)
    assert got == want
    if isinstance(want, tuple):          # the same exception
        return
    Y, Pser = new.taylor(state, p)
    for name in ("radius_estimate", "singularity_estimate"):
        assert outcome(getattr(new, name), Y) == outcome(getattr(old, name), Y), name
    assert outcome(new.advance, Y, Pser, h) == outcome(old.advance, Y, Pser, h)


@pytest.mark.parametrize("text, state, p_start", CORPUS_FLOW_STATES)
def test_corpus_states_match_oracle(text, state, p_start):
    p = None if p_start is None else flows(text)[0]._project(p_start, state[0])
    assert_steps_match(text, state, p, 0.21 - 0.08j)


# the corpus flows and the curve-mode inputs of tests/report_digests.py
FLOWS = [
    "y'' = 6*y^2", "y'' = 6*y^2 - 2", "y' = y^2", "y' = y^2 - 1", "y'' = y^2",
    "y''' = -9*y^4 + (5 + -6*i)*y^2 + -6*y^1", "y'''' = 3/4*y^3 + (3 + -5*i)",
    "P: p^2 - 4*q^3 + 4*q ; k=1", "P: p^2 - q^3 ; k=2", "P: p^2 - q^6 + 1 ; k=2",
    "P: p^3 - q^4 + 1 ; k=1", "P: p^2 - q^4 + 1 ; k=1", "P: p^2 - q^3 + 1 ; k=2",
    "P: p^2 - 4*q^3 + 4*q ; k=2", "P: q^2 - p*q^2 - p^2 + 4*p - 4 ; k=1",
    "P: (p - q^3)^2 - 2*q^4 ; k=2",
]

parts = st.one_of(st.floats(-3, 3), st.sampled_from([0.0, -0.0, 1e-200, -2.5e12]))
numbers = st.builds(complex, parts, parts)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FLOWS), st.lists(numbers, min_size=4, max_size=4), numbers)
def test_drawn_states_match_oracle(text, values, h):
    # p need not lie on the curve: the kernels must agree anyway
    k = parse_equation(text).k
    curve = flows(text)[0].resolved is None
    assert_steps_match(text, tuple(values[:k]), values[k] if curve else None, h)


# the kernel's j! runs to the Taylor order k + 6; from k = 165 on it passes
# 170!, the last factorial a double holds, and the step overflows
@pytest.mark.parametrize("text, overflows", [
    ("y^(83) = y^2", False), ("y^(120) = 6*y^2", False),
    ("P: p^2 - q^3 ; k=99", False), ("y^(166) = y^2", True)])
def test_large_orders_match_oracle(text, overflows):
    new = flows(text)[0]
    state = tuple(complex(1 - i / new.k, 0.3) for i in range(new.k))
    p = None if new.resolved is not None else new._project(1.1 + 0.2j, state[0])
    assert_steps_match(text, state, p, 0.21 - 0.08j)
    assert (outcome(new.taylor, state, p)[0] == "OverflowError") == overflows


@functools.lru_cache(maxsize=None)
def seed_germs(text, n, c):
    """The numeric germs of pole order n at constant c on the first branch."""
    eq = parse_equation(text)
    germs = enumerate_series(eq, branches_at_infinity(eq.P, depth=30)[0], n, c=c, N=24)
    return tuple(germ_numeric(ls, f"g{i}") for i, ls in enumerate(germs))


GERMS = [("y' = y^2 - 1", 1, None), ("y'' = 6*y^2", 2, 1), ("y'' = y^2", 2, 0),
         ("P: p^2 - 4*q^3 + 4*q ; k=1", 2, None)]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(GERMS), numbers, st.integers(0, 4), numbers, numbers)
def test_drawn_germ_evaluations_and_matches(germ_at, u, count, shift, wobble):
    text, n, c = germ_at
    germs = seed_germs(text, n, c and classify.GaussianRational(c))
    olds = [oracle_germ(g) for g in germs]
    u, k = u / 4, parse_equation(text).k
    for depth in (count, k):
        got = outcome(germs[0].eval_derivs, u, depth)
        assert got == outcome(olds[0].eval_derivs, u, depth)
        if isinstance(got, tuple):      # u ** -n left the double range
            return
    # a state near the pole at -u, read off the germ and wobbled, with and without p
    vals = germs[0].eval_derivs(u, k)
    state = tuple(v * (1 + 1e-9 * wobble) for v in vals[:k])
    for p_obs in (None, vals[k]):
        assert matched(match_pole, germs, shift, state, k, p_obs) \
            == matched(oracle_match_pole, olds, shift, state, k, p_obs)


def matched(match, germs, z, state, k, p_obs):
    """The outcome of one pole match, naming the germ by its id."""
    hit = outcome(match, germs, z, state, k, p_obs)
    if isinstance(hit, list):
        z_p, g, score = hit
        return z_p, g.germ_id, score
    return hit


SWEEPS = ["y'' = 6*y^2", "y'' = 6*y^2 - 2", "P: p^2 - 4*q^3 + 4*q ; k=1", "y' = y^2",
          "y'' = y^2", "P: p^2 - q^3 ; k=2", "P: q^2 - p*q^2 - p^2 + 4*p - 4 ; k=1"]
PROBES = [0.31 + 0.17j, 1.1 - 0.4j, -0.7 + 0.9j, 2.3 + 1.9j]


@pytest.mark.parametrize("text", SWEEPS)
def test_sweeps_match_oracle(text, monkeypatch):
    # each sweep of the analysis runs again on the reference kernel: the
    # same events and the same probed states, bit for bit
    sweep_poles, seen = classify.sweep_poles, []

    def run(eq, family, **kwargs):
        events, probe = sweep_poles(eq, family, **kwargs)
        return ([(bits(ev.z), ev.germ_id, bits(ev.residual)) for ev in events],
                [bits(probe(z)) for z in PROBES])

    def both(eq, family, **kwargs):
        new = run(eq, family, **kwargs)
        with monkeypatch.context() as patched:
            oracle_kernel(patched)
            old = run(eq, family, **kwargs)
        seen.append((new, old))
        return sweep_poles(eq, family, **kwargs)

    monkeypatch.setattr(classify, "sweep_poles", both)
    analyze(text)
    assert seen
    for new, old in seen:
        assert new == old
        assert new[0] and any(state is not None for state in new[1])


# -- failure paths: the same exception at the same step -----------------------

def segments(germ, text, state, p, z0, z1):
    """run_segment on the new and the reference kernel: the exception, its
    message and the steps recorded before it, for each."""
    out = []
    for flow, rs, g in ((_Flow, run_segment, germ),
                        (OracleFlow, oracle_run_segment, oracle_germ(germ))):
        steps = []
        with pytest.raises((ArithmeticError, BBError)) as info:
            rs(flow(parse_equation(text)), z0, state, p, z1, [g], [], record=steps)
        out.append((type(info.value), str(info.value), bits(steps)))
    return out


def test_branch_point_raises_singular_encounter():
    # dP/dp = 2p vanishes at p = 0
    for flow in flows("P: p^2 - q^3 ; k=2"):
        with pytest.raises(SingularEncounter, match="dP/dp = 0"):
            flow.taylor((1.3 + 0.4j, -0.6 + 0.9j), 0j)


def test_step_collapse_raises_tolerance_loss():
    # y = -1/(z - z_p) with the pole 5 ahead, and a germ too short-sighted
    # (trust 1e-20) to match it: near z = 1e13 the steps shrink below
    # 1e-13 (1 + |z|) = 1
    germ = NumericGerm("g", 1, (-1 + 0j,), trust=1e-20)
    new, old = segments(germ, "y' = y^2", (0.2 + 0j,), None, 1e13 + 0j, 1e13 + 100 + 0j)
    assert new == old and new[0] is ToleranceLoss and "step collapsed" in new[1]
    assert len(new[2]) > 1


def test_overflowing_ray_raises_overflow_error():
    # y = y0 e^z from |y0| = 1.4e307: after one step |y| exceeds the double range
    germ = NumericGerm("g", 1, (1 + 0j,), trust=0.5)
    new, old = segments(germ, "y' = y", (1e307 + 1e307j,), None, 0j, 30 + 0j)
    assert new == old and new[0] is OverflowError and len(new[2]) == 1

"""CLI commands, report schema, exit codes, determinism."""

import ast
import json
import math
import os
import re
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bbsolve import classify, cli
from bbsolve.curve import branches_at_infinity
from bbsolve.cli import (Options, analyze, cmd_analyze, cmd_classify, cmd_residues,
                         cmd_series, main, render_json)
from bbsolve.algebra import GaussianRational
from bbsolve.eqparse import parse_constant
from bbsolve.errors import BBError, DegenerateInput
from minischema import validate
from test_acceptance import GOLDEN_CORPUS
from oracle_periods import weierstrass_periods
from report_digests import CURVE_MODE, LARGE_ORDERS, digest_lines
from workloads import fuzz_equations  # perfbench/, put on sys.path by report_digests

SCHEMA = json.load(open(os.path.join(os.path.dirname(__file__), "..", "src",
                                     "bbsolve", "schemas",
                                     "analysis_report.schema.json")))


class TestAnalyze:
    def test_exit_codes(self):
        _rep, code = analyze("y'' = 6*y^2", Options(no_classify=True))
        assert code == 0
        _rep, code = analyze("y'' = y^4")
        assert code == 2
        _rep, code = analyze("y'' = 4*y^3 + 1/y")
        assert code == 2

    def test_schema_validation(self):
        for text in ("y'' = 6*y^2", "y'' = y^4", "y'' = 4*y^3 + 1/y",
                     "y''' = y", "P: p^2 - 4*q^3 + 4*q ; k=1",
                     "y'' = 4*y^3", "P: p^2 - 2*q^6 ; k=2"):
            rep, _ = analyze(text)
            validate(rep, SCHEMA)

    def test_report_carries_assumption_notes(self):
        rep, _ = analyze("y'' = 6*y^2", Options(no_classify=True))
        assert any("irreducibility" in a for a in rep["assumptions"])
        rep, _ = analyze("P: p^2 - 4*q^3 + 4*q ; k=1", Options(no_classify=True))
        assert any("genus-0" in a for a in rep["assumptions"])

    def test_squarefree_warning(self):
        rep, _ = analyze("P: p^2 - 2*p*q + q^2 ; k=1", Options(no_classify=True))
        assert any("squarefree" in w for w in rep["warnings"])
        # series and residues share the front end, so they analyse the
        # squarefree part too instead of failing on the repeated factor
        for cmd in (cmd_series, cmd_residues):
            out, code = cmd("P: p^2 - 2*p*q + q^2 ; k=1", Options(fmt="json"))
            assert code == 0
            data = json.loads(out)
            assert data["input"] == "P: p - q ; k=1"
            assert any("squarefree" in n for n in data["notes"])

    def test_content_in_q_keeps_the_verdict(self):
        rep, _ = analyze("P: (q + 1)*(p^2 - 4*q^3 + 4*q) ; k=1")
        ref, _ = analyze("P: p^2 - 4*q^3 + 4*q ; k=1")
        assert rep["classification"]["label"] == ref["classification"]["label"]
        assert ref["classification"]["label"] == "elliptic"
        assert "common factor removed: P had a component constant in p" in rep["warnings"]

    def test_squarefree_part_has_no_stray_factor(self):
        # the squarefree part of (p + 1)(p^2 - q)^2 is (p + 1)(p^2 - q), with
        # no factor in q that would add a Newton-polygon edge
        rep, _ = analyze("P: (p + 1)*(p^2 - q)^2 ; k=1", Options(no_classify=True))
        assert rep["input"]["canonical"] == "P: p^3 + p^2 - p*q - q ; k=1"
        assert any("squarefree" in w for w in rep["warnings"])

    def test_text_report_prints_warnings_and_series_notes(self):
        rep, _ = analyze("y'' = 6*y^3/y", Options(no_classify=True))
        assert "warning: common factor cancelled from the right-hand side" \
            in cli.render_text(rep).splitlines()
        rep, _ = analyze("P: (p - q^2)^2 - q^3 ; k=1", Options(no_classify=True))
        notes = [line for line in cli.render_text(rep).splitlines()
                 if line.startswith("  series note: ")]
        assert len(notes) == 1 and notes[0].startswith(
            "  series note: branch b0, n=1: ramification 2 does not divide pole order 1")

    def test_every_numeric_value_carries_error(self):
        # c0 = 1/sqrt(2) is exact over Q(i)(eta); c0 = 2^(1/4) on a numeric
        # branch is a ball, and every ball carries its radius
        kinds = set()
        for text in ("y'' = 4*y^3", "P: p^2 - 2*q^6 ; k=2"):
            rep, _ = analyze(text, Options(no_classify=True))
            for s in rep["series"]:
                values = list(s["coeffs"])
                if "embedding" in s:
                    values.append(s["embedding"]["eta"])
                for cj in values:
                    kind = next(k for k in ("rat", "eta", "free", "re") if k in cj)
                    assert kind != "re" or set(cj) == {"re", "im", "err"}
                    kinds.add(kind)
        assert {"eta", "re"} <= kinds

    def test_single_pole_verdict_is_undetermined(self):
        # the sweep finds one pole and no exact closed form is certified;
        # the three numeric germs verify through their whole window
        rep, code = analyze("y''' = -1*y^4 + 1*y^3 + -1*y^2")
        verdict = rep["classification"]
        assert code == 0
        assert (verdict["label"], verdict["confidence"]) == ("undetermined", "heuristic")
        assert any("single non-recurring pole" in e for e in verdict["evidence"])
        assert [s["verify_residual_order"] for s in rep["series"]] == [10, 10, 10]

    def test_numeric_leading_coefficients(self):
        # the lead sqrt(2) is not exact: leading_roots takes all_nth_roots of
        # a BigComplex, through BigComplex.root
        rep, _code = analyze("P: p^2 - 2*q^6 ; k=2")
        c0s = [complex(c["re"], c["im"]) for c in
               (s["coeffs"][0] for s in rep["series"]) if "err" in c]
        assert len(c0s) == len(rep["series"]) == 4
        assert all(abs(c ** 4 - 2) < 1e-12 for c in c0s)
        v = rep["classification"]
        # the monomial solves only at c = 0; at the sweep's c = 1 the poles of
        # the seed germ (c0^2 = -sqrt(2), so y'' = -sqrt(2) y^3) lie on the
        # square lattice of the Weierstrass invariants g2 = -sqrt(2), g3 = 0:
        # the lattice of g2 = sqrt(2) turned by 45 degrees
        assert (v["label"], v["confidence"]) == ("elliptic", "numeric")
        assert ("exact monomial solution: y = c*z^-1 with c a root of c^4 - 2 = 0"
                in v["evidence"])
        side = weierstrass_periods(math.sqrt(2), 0)[0].real
        for T in v["periods"]:
            T = complex(*T)
            assert abs(abs(T) - side) < 1e-6 and abs(abs(T.real) - abs(T.imag)) < 1e-6

    @pytest.mark.parametrize("c", [1, Fraction(1)])
    def test_library_int_constant(self, c):
        # an int or Fraction first-integral constant means the exact value
        rep, _ = analyze("y'' = 6*y^2", Options(c=c))
        want, _ = analyze("y'' = 6*y^2", Options(c=GaussianRational(1)))
        assert rep == want and rep["settings"]["c"] == "1"

    @pytest.mark.parametrize("c", [0.5, 1j, "abc", "default", "free", True])
    def test_library_inexact_constant_rejected(self, c):
        with pytest.raises(BBError, match="c must be"):
            analyze("y'' = 6*y^2", Options(c=c))

    def test_no_constant_reports_default(self):
        # c = None leaves the resonant coefficient free; settings.c says "default"
        rep, _ = analyze("y'' = 6*y^2", Options(c=None, no_classify=True))
        assert rep["settings"]["c"] == "default"
        assert rep["series"][0]["resonance"] == "free"

    def test_unknown_format_rejected(self):
        with pytest.raises(BBError, match="fmt must be"):
            Options(fmt="xml")

    @pytest.mark.parametrize("setting", [
        {"no_classify": "no"}, {"no_classify": 0}, {"diagnostics": "yes"},
        {"diagnostics": None}, {"N": True}, {"precision": True}, {"depth": True},
        {"n": True}, {"tol": True}])
    def test_bool_and_switch_settings_rejected(self, setting):
        # a switch is a bool, and a bool is not a count or a tolerance
        with pytest.raises(BBError, match="must be"):
            Options(**setting)

    def test_no_classify_skips_exponential_matcher(self, monkeypatch):
        calls = []
        real = classify.match_exponential
        monkeypatch.setattr(classify, "match_exponential",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        analyze("y''' = y", Options(no_classify=True))
        assert calls == []
        analyze("y''' = y")
        assert calls == [1]

    def test_deterministic_json(self):
        a, _ = analyze("y'' = 6*y^2 - 2")
        b, _ = analyze("y'' = 6*y^2 - 2")
        assert render_json(a) == render_json(b)


class TestCommands:
    def test_series_pinned_vs_free(self):
        out, code = cmd_series("y'' = 6*y^2", Options(c=0, N=12, fmt="json"))
        data = json.loads(out)
        assert code == 0
        germ = data["series"][0]
        assert germ["resonance"] == "pinned"
        # c = 0 gives the exact monomial: all tail coefficients zero
        assert all(c == {"rat": "0"} or c == {"rat": "1"} for c in germ["coeffs"])
        out, _ = cmd_series("y'' = 6*y^2", Options(c=None, fmt="json"))
        data = json.loads(out)
        assert data["series"][0]["resonance"] == "free"
        assert data["series"][0]["coeffs"][-1] == {"free": True}

    def test_series_first_order(self):
        out, _ = cmd_series("y' = y^2", Options(fmt="json"))
        data = json.loads(out)
        germ = data["series"][0]
        assert germ["n"] == 1 and germ["resonance"] == "none"
        assert germ["coeffs"][0] == {"rat": "-1"}

    def test_one_germ_per_leading_root(self):
        # (p - q^2)^3 = q^5 has one place of ramification 3 over q = infinity;
        # each root of eta^3 = -60 is its own germ, also where index N is too
        # short to tell the three apart
        text = "P: (p - q^2)^3 - q^5 ; k=3"
        for N in (0, 1, None):
            out, _ = cmd_series(text, Options(N=N, fmt="json"))
            roots = sorted(s["root_choice"] for s in json.loads(out)["series"])
            rep, _ = analyze(text, Options(N=N, no_classify=True))
            assert (roots, rep["conditions"]["degree_bound"]) == ([0, 1, 2], 9), N

    def test_series_builds_germs_before_any_screen(self):
        # the kappa = 7/3 place of (p - q^2)(p^3 - q^7) rules poles out, so
        # analyze builds no germs; series still builds the formal germ of the
        # admissible place p = q^2, whose pole y = 6 z^-2 the verdict finds
        text = "P: (p - q^2)*(p^3 - q^7) ; k=2"
        out, _ = cmd_series(text, Options(fmt="json"))
        rows = json.loads(out)["series"]
        assert [(s["n"], s["coeffs"]) for s in rows] == [
            (2, [{"rat": "6"}] + [{"rat": "0"}] * 5 + [{"free": True}])]
        assert "    coeffs: (6)*z^-2 + (<free>)*z^4" in cmd_series(text, Options())[0]
        rep, _ = analyze(text)
        verdict = rep["classification"]
        assert rep["series"] == []
        assert (verdict["label"], verdict["confidence"]) == ("rational", "exact")

    def test_residues_table(self):
        out, _ = cmd_residues("y'' = 4*y^3 + 1/y", Options(fmt="json"))
        data = json.loads(out)["exactness"]
        assert data["exact"] is False
        places = {r["place"]: r for r in data["residues"]}
        assert places["infinity"]["value"] == {"rat": "-1"}
        assert places["q=0"]["value"] == {"rat": "1"}

    def test_parser_notes_reach_series_and_residues(self):
        for cmd in (cmd_series, cmd_residues):
            out, _ = cmd("y'' = 6*y^3/y", Options(fmt="json"))
            assert ("common factor cancelled from the right-hand side"
                    in json.loads(out)["notes"])

    def test_residues_keep_exact_finite_place(self):
        # (p - 1)(p - q): the place p = 1 is exact, a factor w of P(1 + w, q)
        out, code = cmd_residues("P: p^2 - p*q - p + q ; k=1", Options(fmt="json"))
        data = json.loads(out)["exactness"]
        assert code == 0
        assert len(data["residues"]) == 2
        assert all(r["value"] == {"rat": "0"} for r in data["residues"])

    def test_residues_list_irrational_finite_places(self):
        # the poles of 1/(y^2 - 2) lie at y = +-sqrt(2), outside Q(i)
        out, code = cmd_residues("y'' = 1/(y^2 - 2)", Options(fmt="json"))
        data = json.loads(out)["exactness"]
        assert code == 0 and data["exact"] is False
        nonzero = [r["place"] for r in data["residues"] if not r["certified_zero"]]
        assert nonzero == ["q~-1.41421+0j", "q~1.41421+0j"]

    def test_classify_command(self):
        out, code = cmd_classify("y' = y^2", Options(fmt="json"))
        data = json.loads(out)
        assert data["classification"]["label"] == "rational"
        assert code == 0

    def test_classify_refuses_library_no_classify(self):
        with pytest.raises(BBError, match="no_classify"):
            cmd_classify("y' = y^2", Options(no_classify=True))


# the commands print the sections analyze builds, through its text writers
WRITER_INPUTS = GOLDEN_CORPUS + ["y'' = (1 - 2*i)*y^3 + 3*i", "y''' = 6*y^4"]


def _split_top(text):
    """``text`` split at each " + " outside parentheses."""
    parts, depth, start = [], 0, 0
    for at, ch in enumerate(text):
        depth += {"(": 1, ")": -1}.get(ch, 0)
        if depth == 0 and text.startswith(" + ", at):
            parts.append(text[start:at])
            start = at + 3
    return parts + [text[start:]]


def _ungroup(text):
    """``text`` without parentheses that enclose all of it."""
    depth = 0
    for at, ch in enumerate(text):
        depth += {"(": 1, ")": -1}.get(ch, 0)
        if depth == 0:
            return text[1:-1] if text[0] == "(" and at == len(text) - 1 else text
    return text


def _printed_coefficients(text):
    """Every coefficient a text report prints, in order."""
    out = []
    for line in text.splitlines():
        if m := re.fullmatch(r"  \S+: m=\d+ kappa=\S+ lead=(.*) residue=(.*)", line):
            out += [m[1], m[2]]
        elif m := re.fullmatch(r"  residue at .*?: (.*)  \[(?:zero|NONZERO)\]", line):
            out.append(m[1])
        elif m := re.fullmatch(r"    over Q\(i\)\(eta\), eta\^\d+ = (.*): "
                               r"root \d+, eta = (.*)", line):
            out += [m[1], m[2]]
        elif line.startswith("    coeffs: "):
            for part in _split_top(line[len("    coeffs: "):]):
                value = _ungroup(re.sub(r"\*z\^-?\d+$", "", part))
                assert _ungroup(value) == value, f"doubled parentheses: {line}"
                if part != "0":
                    out.append(value)
    return out


def _json_coefficients(report):
    """The JSON of every coefficient the text writers print, in the same order."""
    out = []
    for b in report.get("branches", []):
        out += [b["lead"], b["residue"]]
    out += [r["value"] for r in report.get("exactness", {}).get("residues", [])]
    for s in report.get("series", []):
        if "embedding" in s:
            out += [s["embedding"]["beta"], s["embedding"]["eta"]]
        out += [c for c in s["coeffs"]
                if c != {"rat": "0"} and set(c.get("eta", ())) != {"0"}]
    return out


def _eta_coordinates(text):
    """{r: x_r} of the nonzero coordinates printed as x_0 + x_1*eta + ..."""
    coords = {}
    for term in _split_top(text):
        m = re.fullmatch(r"(?:(.+)\*)?eta(?:\^(\d+))?", term)
        if m is None:
            coords[0] = parse_constant(term)
        else:
            coords[int(m[2] or 1)] = parse_constant(m[1] or "1")
    return coords


def _exact(text):
    """The Fraction of "n" or "n/d", read through Decimal, which takes any
    number of digits."""
    num, _, den = text.partition("/")
    return Fraction(Decimal(num)) / Fraction(Decimal(den or "1"))


def _assert_reparses(text, report):
    printed, values = _printed_coefficients(text), _json_coefficients(report)
    assert len(printed) == len(values), (printed, values)
    for shown, cj in zip(printed, values):
        if "rat" in cj:
            want = GaussianRational(_exact(cj["rat"]), _exact(cj.get("rat_im", "0")))
            assert parse_constant(shown) == want, (shown, cj)
        elif "eta" in cj:
            want = {r: parse_constant(x) for r, x in enumerate(cj["eta"])}
            assert _eta_coordinates(shown) == {r: x for r, x in want.items() if x != 0}
        elif "free" in cj:
            assert shown == "<free>"
        else:
            assert re.fullmatch(r"\S+[+-]\S+i \(err \S+\)", shown), shown


def _lines_from(text, prefix):
    """The lines of ``text`` from the first that starts with ``prefix``."""
    lines = text.splitlines()
    return lines[next(i for i, line in enumerate(lines) if line.startswith(prefix)):]


class TestOneWriterPerFact:
    def test_series_rows_are_the_report_rows(self):
        with_germs = 0
        for text in GOLDEN_CORPUS:
            rep, _ = analyze(text, Options(no_classify=True))
            if not rep["series"]:
                continue
            with_germs += 1
            out, _ = cmd_series(text, Options(fmt="json"))
            assert json.loads(out)["series"] == rep["series"], text
            germ_lines = [[line for line in shown.splitlines()
                           if line.startswith(("  n=", "    "))]
                          for shown in (cmd_series(text, Options())[0],
                                        cli.render_text(rep))]
            assert germ_lines[0] == germ_lines[1], text
        assert with_germs >= 6

    def test_residue_rows_are_the_report_rows(self):
        for text in GOLDEN_CORPUS:
            rep, _ = analyze(text, Options(no_classify=True))
            out, _ = cmd_residues(text, Options(fmt="json"))
            assert json.loads(out)["exactness"] == rep["exactness"], text
            shown = [line for line in cmd_residues(text, Options())[0].splitlines()[1:]
                     if not line.startswith("note: ")]
            assert shown == _lines_from(cli.render_text(rep), "p dq exact: ")[:len(shown)]

    def test_each_place_is_listed_once(self):
        out, _ = cmd_residues("y''' = -5*y^5 + 3/y", Options(fmt="json"))
        rows = json.loads(out)["exactness"]["residues"]
        assert [(r["place"], r["value"]) for r in rows] \
            == [("q=0", {"rat": "3"}), ("infinity", {"rat": "-3"})]

    def test_classify_prints_the_report_verdict(self):
        for text in GOLDEN_CORPUS:
            rep, code = analyze(text)
            out, classify_code = cmd_classify(text, Options(fmt="json"))
            assert (json.loads(out)["classification"], classify_code) \
                == (rep["classification"], code), text
            assert cmd_classify(text, Options())[0].splitlines()[1:] \
                == _lines_from(cli.render_text(rep), "classification: ")[1:], text

    def test_printed_values_reparse_to_the_json(self):
        for text in WRITER_INPUTS:
            rep, _ = analyze(text, Options(no_classify=True))
            shown = cli.render_text(rep)
            assert "+-" not in shown, text
            _assert_reparses(shown, rep)
            for cmd, key in ((cmd_series, "series"), (cmd_residues, "exactness")):
                out, _ = cmd(text, Options(fmt="json"))
                _assert_reparses(cmd(text, Options())[0], {key: json.loads(out)[key]})
        rep, _ = analyze(WRITER_INPUTS[-2], Options(no_classify=True))
        assert "lead=(1 - 2*i)" in cli.render_text(rep)


# sha256 and exit code of every GOLDEN_CORPUS report that
# test_acceptance.GOLDEN_SHA256 does not pin, in report_digests.digest_lines'
# order: at Options() the analyze text, series JSON and residues JSON; at
# Options(c=0) the analyze JSON and text, series JSON and residues JSON.  A
# report changed on purpose updates this table and says so in CHANGES.md.
CORPUS_DIGESTS = {
    "y'' = 6*y^2": (
        "217255a2ab215c78fde154f1c594c779af9eec20666f17fa1d78c166257818a8 0",
        "8df3d19d3776a373258e49875e3eb036b7a0d01ddd1b6a8660b53d2e8e90eecd 0",
        "0b9414b784341d2f623152898d125c1fb609fedf355a12cf37c5bb7998fdaf85 0",
        "c64238834be8fef4c87c2517637bf2f2ffc6ace3f2945ee6052dd46ed2c5a79a 0",
        "4fe5074db61e04c72334ce1918d6d69b8d690293384ad5769596e6b18480f999 0",
        "546c125c95e2509ec0f3b5106a9de7d94f99d17b02d5a602f7662976546cf398 0",
        "0b9414b784341d2f623152898d125c1fb609fedf355a12cf37c5bb7998fdaf85 0",
    ),
    "y'' = 6*y^2 - 2": (
        "db9e8d9bed599eefb0f12cd9871228b7d15cec26971a3adc2abe7086adca6795 0",
        "99f12ca9d0911730db1106bf1b08e7d35e03f340a19141b9ab6ea9b990b35b7f 0",
        "43859fbc6dad355bc41cb1e926ef41ec5803723ce2deabff768339e833083bab 0",
        "c12a04380583813ea079b1a5dfcc5af493d86966efd8b863ada26a27b850a4df 0",
        "8c20c0c35b3db76224bf7f95bcd4065fe39069a2671ecfc51a93938a702a174a 0",
        "54cfd87d90eed2302228392d015ca276cd34e2982a8afad2e41931fc84215ce0 0",
        "43859fbc6dad355bc41cb1e926ef41ec5803723ce2deabff768339e833083bab 0",
    ),
    "P: p^2 - 4*q^3 + 4*q ; k=1": (
        "9578d7d1bbb4d0854314073d4b443bcdb5cb522b9999094414ed111614071166 0",
        "89e40411e32574dcf20a4750a3dd27544e7b18a11b8af6526d75484a4fff3039 0",
        "5961a3cf3f4189d447330408cbb261c8238ab3111c173252f5d2e088a1e4b494 0",
        "6ad74210ebfd41014c85072c12afe4c2babd5e9aa6be20eb38e65c1e4e7ace9b 0",
        "9578d7d1bbb4d0854314073d4b443bcdb5cb522b9999094414ed111614071166 0",
        "89e40411e32574dcf20a4750a3dd27544e7b18a11b8af6526d75484a4fff3039 0",
        "5961a3cf3f4189d447330408cbb261c8238ab3111c173252f5d2e088a1e4b494 0",
    ),
    "y'' = y^4": (
        "201b64d32b87fd4070d62b6811008f2a109b1cd61eba88b9e5bf29a5578f5c29 2",
        "0616696f32de0416842dcc2810059b4e1b5de44e5d9d0ca5b3873f6e67ef3988 0",
        "69b3a8e389baf6e732d54766109628f192ec39a7fd669ca01e819c38639fda4b 0",
        "e9b13e0194e27ba966981ca534995c3cfdbe6e370b0943e9419c08aa28c3623a 2",
        "201b64d32b87fd4070d62b6811008f2a109b1cd61eba88b9e5bf29a5578f5c29 2",
        "0616696f32de0416842dcc2810059b4e1b5de44e5d9d0ca5b3873f6e67ef3988 0",
        "69b3a8e389baf6e732d54766109628f192ec39a7fd669ca01e819c38639fda4b 0",
    ),
    "y'' = 4*y^3 + 1/y": (
        "cf4a64797d955fa5ab9be219364bb3d8563702e5d7ea7e59cdc45d928c278528 2",
        "922226cfb869216ebd1c956f737bbfd2c51887ccb4423b4a9941e2baa93e3d13 0",
        "e4c610d57ef0f27495337a37d5ca68d35673617cfc7f05903accdd5cc0e67a3c 0",
        "747cb99446bf313d3a86d6cccf18089f4a03fcccd6f0e5f4e0a7d03e275c5c45 2",
        "cf4a64797d955fa5ab9be219364bb3d8563702e5d7ea7e59cdc45d928c278528 2",
        "922226cfb869216ebd1c956f737bbfd2c51887ccb4423b4a9941e2baa93e3d13 0",
        "e4c610d57ef0f27495337a37d5ca68d35673617cfc7f05903accdd5cc0e67a3c 0",
    ),
    "y''' = y": (
        "e71dae083f4bc142c197a5f28754a06d69ae5582fccde60b224d136bb6dc0e07 2",
        "5435db8f5a52eddfcc4647d15925bc7e9d63f04763536ca81de9f772dc4c037b 0",
        "60a37a816cd74860099e23762612716342961b2040fd70f3d03e10de3dcecbf4 0",
        "39b3e1c5bf6e99fad4468ed48d27ff06924114e944d6457ee1d6c794491c3cb4 2",
        "e71dae083f4bc142c197a5f28754a06d69ae5582fccde60b224d136bb6dc0e07 2",
        "5435db8f5a52eddfcc4647d15925bc7e9d63f04763536ca81de9f772dc4c037b 0",
        "60a37a816cd74860099e23762612716342961b2040fd70f3d03e10de3dcecbf4 0",
    ),
    "y'' = y": (
        "059cbe7ce67abe0fa888545a2a16cadccee4fc37cc85559e9efa37eacd7ff2c8 2",
        "5d3251a17ec28629a65159a46cbf7f866be116b08b9db278fc9334a9039c0a59 0",
        "cd5b5841c8c574b3aaef8a056b41e56801f67b77056d13d23201ceeb9c049759 0",
        "3adcc86473a47e04e55dbdc62c33d3773dcf741a19a85b94340c96983fb05e22 2",
        "059cbe7ce67abe0fa888545a2a16cadccee4fc37cc85559e9efa37eacd7ff2c8 2",
        "5d3251a17ec28629a65159a46cbf7f866be116b08b9db278fc9334a9039c0a59 0",
        "cd5b5841c8c574b3aaef8a056b41e56801f67b77056d13d23201ceeb9c049759 0",
    ),
    "y' = y^2": (
        "7a79825c009398f974b1ad0dbd42227a52d70826ba89543eb26723670e6ce1d9 0",
        "1674a4d63866cf6bc75c71b93d4243c1798655e726e85bccdc882ddfc3cbd98d 0",
        "5890adf6d0149c9ffa7a0b95cefbeb3958337623378aee472e94e0a50b3f5144 0",
        "19b813e74b4845b8be3e18271584e1afddd8a73ee271b67f6c913a65a79a9737 0",
        "7a79825c009398f974b1ad0dbd42227a52d70826ba89543eb26723670e6ce1d9 0",
        "1674a4d63866cf6bc75c71b93d4243c1798655e726e85bccdc882ddfc3cbd98d 0",
        "5890adf6d0149c9ffa7a0b95cefbeb3958337623378aee472e94e0a50b3f5144 0",
    ),
    "y' = y^2 - 1": (
        "287173c80eb937e8a5fd94e2503325c9060fa459147139272989f38cb1471ad8 0",
        "fd50885755867472858c1135f82596ada2f5edc0c248a2f36c2022980a541d5f 0",
        "8ff25bdbfc143467d8e9f7f6595853e3aaedbc5f3f5851702ac58b96e3c3e979 0",
        "f7663365d39dd56315bf48c933d92159cc17bdeb20b59920ec740bf3bd80d01c 0",
        "287173c80eb937e8a5fd94e2503325c9060fa459147139272989f38cb1471ad8 0",
        "fd50885755867472858c1135f82596ada2f5edc0c248a2f36c2022980a541d5f 0",
        "8ff25bdbfc143467d8e9f7f6595853e3aaedbc5f3f5851702ac58b96e3c3e979 0",
    ),
    "y'' = y^2": (
        "054578059533d019c096ac58a9c7dad7a96306c6d82d681c49c8f1c973c0c5aa 0",
        "c9c63f2f83ea385f1baf18439472b192e8d743eb8e6a781592b294300dd3f9b1 0",
        "f00ac8d74ebec62a3fe728643beab75a54130b6b05f80ab9c738966919139f84 0",
        "3cbfd5781d4f02f9de33261d6dad40112bcf2e83b3533a6ed584ff57bc3634ca 0",
        "badb4d858a8e8a149e8abd6b4187a1873b40724bb56e4ed246f34d78fc4307ac 0",
        "102b14c03e134aef2e283f57e1106c128c0dfc943ef7f3e2c301f7299a0b99a6 0",
        "f00ac8d74ebec62a3fe728643beab75a54130b6b05f80ab9c738966919139f84 0",
    ),
    "P: p^2 - q^3 ; k=2": (
        "97b16c8d8137d7650610ca55276cb4211e441ad448397cbc9405979c5776f4ad 0",
        "3a20fed37b118ffcc0a29ae3a030388ee331089138381ee92ce27a58c0aece8b 0",
        "fb7a8f11855d85212129965b1c4b287d779730360b5725edecfc1e59f8094fa7 0",
        "ae47c47f063fe04a2a1283565170e002a7da1b826321f3558b6b0117506d33b2 0",
        "d36dd9ec6890b2373e77a458fde298569e233d78cd30497aa7ea347c7391291f 0",
        "14fe1dccfd5c25476563d0070ef8fdae99542f705f381daae220d22b68696c5c 0",
        "fb7a8f11855d85212129965b1c4b287d779730360b5725edecfc1e59f8094fa7 0",
    ),
    "y' = 2*y^3": (
        "ce4e0efd0ba7abf15bff8eb8efc72759f01842026c11e5ee51dcc4f0f0e927ca 2",
        "62d2c7339ff0abf2554a8a16f5eadd9f066678b18a3c809f4aaea0b1d3aee2e1 0",
        "3b2f80d768201d8ed3e2c74e2b485e434ba6e2824da17e06c0b867af1b1b47a4 0",
        "4a6e83085812693ca9f3fee8cc076a18627ed155765514d0f3af4fd1497a3222 2",
        "ce4e0efd0ba7abf15bff8eb8efc72759f01842026c11e5ee51dcc4f0f0e927ca 2",
        "62d2c7339ff0abf2554a8a16f5eadd9f066678b18a3c809f4aaea0b1d3aee2e1 0",
        "3b2f80d768201d8ed3e2c74e2b485e434ba6e2824da17e06c0b867af1b1b47a4 0",
    ),
}


def _corpus_digests(text):
    lines = (digest_lines(text, "default", Options())[1:]
             + digest_lines(text, "c=0", Options(c=0)))
    return tuple(" ".join(line.split(" ", 2)[:2]) for line in lines)


def test_corpus_reports_keep_their_digests():
    assert list(CORPUS_DIGESTS) == GOLDEN_CORPUS
    changed = {text: [i for i, (got, want) in enumerate(zip(_corpus_digests(text), pinned))
                      if got != want]
               for text, pinned in CORPUS_DIGESTS.items()}
    assert {text: at for text, at in changed.items() if at} == {}


# every flag the CLI has ever taken, with a valid value, and the flags each
# command reads
ALL_FLAGS = {"--k": ["2"], "--c": ["1"], "--N": ["3"], "--n": ["1"],
             "--depth": ["8"], "--precision": ["64"], "--tol": ["1e-6"],
             "--no-classify": [], "--format": ["json"], "--diagnostics": []}
COMMAND_FLAGS = {
    "analyze": {"--c", "--N", "--depth", "--precision", "--tol", "--no-classify",
                "--format", "--diagnostics"},
    "classify": {"--c", "--N", "--depth", "--precision", "--tol", "--format"},
    "series": {"--c", "--N", "--n", "--depth", "--precision", "--format"},
    "residues": {"--depth", "--precision", "--format"},
}


class TestMain:
    def test_main_text(self, capsys):
        code = main(["analyze", "y'' = y^4", "--no-classify"])
        out = capsys.readouterr().out
        assert "kappa=4" in out.replace(" ", "") or "kappa 4" in out
        assert code == 0   # no classification -> no screening verdict exit code

    def test_main_json_exit2(self, capsys):
        code = main(["analyze", "y'' = y^4", "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert data["classification"]["label"] == "entire_only"
        assert code == 2

    def test_main_error_path(self, capsys):
        code = main(["analyze", "y'' = sin(y)"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "y' = y^1" + "0" * 5000, "P: p - q^2 ; k=1" + "0" * 5000,
        "y' = y^100000000000"], ids=["long exponent", "long k", "large exponent"])
    def test_integer_past_the_digit_bound_is_an_input_error(self, capsys, text):
        start = time.perf_counter()
        code = main(["analyze", text])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error:") and err.count("\n") == 1, err
        assert elapsed < 1.0

    def test_division_by_zero_in_the_equation_is_an_input_error(self, capsys):
        assert main(["analyze", "y' = 1/0"]) == 1
        assert capsys.readouterr().err == "error: division by zero in equation\n"

    def test_library_fault_is_not_an_input_error(self, monkeypatch):
        # only BBError reads as bad input: a ZeroDivisionError inside the
        # library propagates as the bug it is
        def fault(equation, opts):
            raise ZeroDivisionError("inside the library")
        monkeypatch.setattr(cli, "analyze", fault)
        with pytest.raises(ZeroDivisionError, match="inside the library"):
            main(["analyze", "y' = y^2 - 1"])

    def test_zero_division_in_c_rejected(self):
        with pytest.raises(DegenerateInput):
            parse_constant("1/0")

    @pytest.mark.parametrize("value", ["1 2", "3)", "1/3 junk"])
    def test_trailing_input_in_c_rejected(self, capsys, value):
        code = main(["series", "y'' = 6*y^2", "--c", value])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_c_takes_one_constant(self):
        assert parse_constant("2*i + 1") == GaussianRational(1, 2)

    @pytest.mark.parametrize("value", ["-1", "nan", "0", "inf"])
    def test_bad_tol_rejected(self, capsys, value):
        code = main(["classify", "y''=6*y^2", "--tol", value])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_classify_refuses_no_classify(self, capsys):
        code = main(["classify", "y''=6*y^2", "--no-classify"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_environment_sets_no_precision(self, capsys, monkeypatch):
        monkeypatch.setenv("BBSOLVE_PRECISION", "192")
        code = main(["analyze", "y'' = y^4", "--format", "json", "--no-classify"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0 and data["settings"]["precision_bits"] == 256

    @pytest.mark.parametrize("flags", [
        ["--precision", "0"], ["--precision", "-5"], ["--N", "-3"],
        ["--depth", "0"], ["--n", "0"]])
    def test_bad_numeric_option_rejected(self, capsys, flags):
        code = main(["series", "y'' = 6*y^2"] + flags)
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command, reads in COMMAND_FLAGS.items()
        for flag in ALL_FLAGS if flag not in reads])
    def test_flag_the_command_does_not_read_rejected(self, capsys, command, flag):
        code = main([command, "y'' = 6*y^2", flag] + ALL_FLAGS[flag])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1, err

    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command, reads in COMMAND_FLAGS.items()
        for flag in sorted(reads)])
    def test_flag_the_command_reads_accepted(self, capsys, command, flag):
        code = main([command, "y' = y^2", flag] + ALL_FLAGS[flag])
        err = capsys.readouterr().err
        if flag == "--diagnostics":       # one JSON object, and nothing else
            err = "" if set(json.loads(err)) == {"stages_s", "counts"} else err
        assert (code, err) == (0, "")

    def test_diagnostics_stay_outside_the_report(self, capsys):
        text = "y''' = -1*y^4 + 1*y^3 + -1*y^2"
        runs = []
        for flags in ([], ["--diagnostics"], ["--diagnostics"]):
            code = main(["analyze", text, "--format", "json"] + flags)
            out, err = capsys.readouterr()
            runs.append((code, out, err))
        assert runs[0][2] == "" and runs[0][:2] == runs[1][:2] == runs[2][:2]
        first, second = (json.loads(err) for _code, _out, err in runs[1:])
        stages = ("front_end", "exactness", "germs", "classification", "render")
        assert list(first["stages_s"]) == list(stages)
        assert all(t >= 0 for t in first["stages_s"].values())
        # the counts are deterministic: equal on every run
        assert first["counts"] == second["counts"] == {
            "germs_gaussian": 0, "germs_algebraic": {"3": 3}, "germs_ball": 0,
            "conjugate_classes": 1,
            "sweep": {"rays": 8, "rays_failed": {}, "probe_segments": 0,
                      "taylor_expansions": 163, "pole_matches": 101, "hops": 0}}
        # the library reads the same switch and returns the same dict
        rep, code, diag = analyze(text, Options(diagnostics=True))
        assert render_json(rep) + "\n" == runs[0][1] and code == runs[0][0]
        assert list(diag["stages_s"]) == list(stages) and diag["counts"] == first["counts"]
        assert len(analyze(text)) == 2

    # rays tried, failed rays, probe segments, Taylor expansions, pole
    # matches and hops, as counted by wrapping the sweep's functions
    @pytest.mark.parametrize("text, tol, sweep", [
        ("y'' = 6*y^2", 1e-10, (16, {}, 9, 482, 191, 8)),
        ("P: p^2 - q^3 ; k=2", 1e-10, (14, {}, 0, 564, 382, 14)),
        ("P: p^2 - 4*q^3 + 4*q ; k=1", 1e-10, (8, {}, 9, 249, 149, 12)),
        # every ray runs out of steps; the verdict does not say so (the
        # strict xfail test_failed_continuation_rays_are_reported)
        ("y'' = 6*y^2", 1e-300, (8, {"ToleranceLoss": 8}, 0, 4000, 4000, 0)),
        ("y' = 2*y^3", 1e-10, (0, {}, 0, 0, 0, 0)),
    ])
    def test_diagnostics_count_the_sweep(self, text, tol, sweep):
        _rep, _code, diag = analyze(text, Options(tol=tol, diagnostics=True))
        names = ("rays", "rays_failed", "probe_segments", "taylor_expansions",
                 "pole_matches", "hops")
        assert diag["counts"]["sweep"] == dict(zip(names, sweep))

    @pytest.mark.parametrize("args", [
        ["analyze", "y'' = 6*y^2", "--format", "xml"],
        ["series", "y'' = 6*y^2", "--N", "abc"],
        ["residues"],
        ["series", "y'' = 6*y^2", "--no-such-flag"],
        ["analyze", "y'' = 6*y^2", "--prec", "64"],
        ["no-such-command", "y'' = 6*y^2"],
        ["selftest"],
        []])
    def test_usage_error_exits_1(self, capsys, args):
        code = main(args)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1, err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["residues", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--precision" in out and "--tol" not in out

    def test_help_describes_every_flag(self, capsys):
        assert all("help" in spec for spec in cli._FLAGS.values())
        with pytest.raises(SystemExit) as exc:
            main(["series", "--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        for words in ("germ truncation index", "pole-order filter",
                      "first-integral constant"):
            assert words in out


# coefficients and orders whose values a double cannot hold: the exact
# layers never round them, and the numeric continuation drops a ray, or
# records its failure, where a double overflows
OUTSIDE_DOUBLES = [
    "y'' = 10^400*y^2", "y'' = y^3 - 10^320", "y''' = 10^1000*y^4",
    "P: p^2 - q^3 + 10^400 ; k=1", "P: p^2 - 10^400*q^3 ; k=1",
    "y'' = y^2/10^400 - 1", "y' = y^2/10^400 - 1", "P: p^2 - q^3 ; k=99",
    "P: p^2 - q^3/10^400 ; k=1", "P: p^2 - q^3 ; k=30"]
# closed forms y = R(e^(az)) whose period 2 pi i/a is no finite nonzero double
CLOSED_FORMS_OUTSIDE_DOUBLES = [
    "y' = 10^400*y^2 - 10^400", "y' = y^2/10^400 - 1/10^400",
    "y' = y^2/10^320 - 1/10^320"]


class TestOutsideTheDoubleRange:
    @pytest.mark.parametrize("args", [
        ["analyze"], ["analyze", "--format", "json"], ["analyze", "--no-classify"],
        ["series"], ["residues"]])
    @pytest.mark.parametrize("text", OUTSIDE_DOUBLES + CLOSED_FORMS_OUTSIDE_DOUBLES)
    def test_ends_without_a_traceback(self, capsys, text, args):
        code = main([args[0], text] + args[1:])
        err = capsys.readouterr().err
        assert (code in (0, 2) and err == ""
                or code == 1 and err.startswith("error:") and err.count("\n") == 1), err

    @pytest.mark.parametrize("text", CLOSED_FORMS_OUTSIDE_DOUBLES)
    def test_closed_form_stays_exact(self, capsys, text):
        assert main(["analyze", text, "--format", "json"]) == 0
        verdict = json.loads(capsys.readouterr().out)["classification"]
        assert (verdict["label"], verdict["confidence"]) == ("rational_in_exponential",
                                                             "exact")
        assert verdict["periods"] == []
        assert "period 2*pi*i/a lies outside the double range" in verdict["evidence"]


# exact values past the interpreter's limit of 4,300 digits on converting
# an int to text: branch terms of the first input, a literal of the second
PAST_THE_DIGIT_LIMIT = ["P: 1*p^3*q^4 + 2*p^1*q^5 + 10^400*p^2*q^6 ; k=2",
                        "y' = y^2 - 1" + "0" * 5000]
DIGIT_LIMIT_IDS = ["branch_terms", "literal"]


class TestPastTheDigitLimit:
    @pytest.mark.parametrize("args", [
        ["analyze"], ["analyze", "--format", "json"], ["analyze", "--no-classify"],
        ["series"], ["residues"]])
    @pytest.mark.parametrize("text", PAST_THE_DIGIT_LIMIT, ids=DIGIT_LIMIT_IDS)
    def test_ends_in_a_report_or_an_error(self, capsys, text, args):
        code = main([args[0], text] + args[1:])
        err = capsys.readouterr().err
        assert (code in (0, 2) and err == ""
                or code == 1 and err.startswith("error:") and err.count("\n") == 1), err

    @pytest.mark.parametrize("text", PAST_THE_DIGIT_LIMIT, ids=DIGIT_LIMIT_IDS)
    def test_printed_values_are_exact(self, text):
        rep, _ = analyze(text, Options(no_classify=True))
        _assert_reparses(cli.render_text(rep), rep)
        rats = [cj["rat"] for cj in _json_coefficients(rep)]
        rats += [cj["rat"] for b in rep["branches"] for _e, cj in b["terms"]]
        assert all(re.fullmatch(r"-?[0-9]+(/[0-9]+)?", r) for r in rats)
        assert max(map(len, rats)) > 4300


class TestDepthDefaults:
    def test_large_kappa_reaches_residue_term(self):
        # kappa far above any admissible order: the default depth must still
        # expose the q^-1 coefficient for the residue table
        rep, code = analyze("y' = y^20", Options(no_classify=True))
        assert rep["branches"][0]["residue"] == {"rat": "0"}
        rep, code = analyze("P: p^3 - q^22 ; k=2", Options(no_classify=True))
        assert rep["branches"][0]["residue"] == {"rat": "0"}

    def test_series_deepen_for_large_N(self):
        out, _ = cmd_series("P: p^2 - 4*q^3 + 4*q ; k=1",
                            Options(N=40, fmt="json"))
        data = json.loads(out)
        assert len(data["series"][0]["coeffs"]) == 41

    def test_analyze_deepens_for_large_N(self):
        rep, _ = analyze("P: p^2 - 4*q^3 + 4*q ; k=1", Options(N=40))
        germ, = rep["series"]
        assert germ["n"] == 2 and len(germ["coeffs"]) == 41
        assert not any("depth" in note for note in rep["series_notes"])
        # the depth reported is the one the branches were expanded to
        assert rep["settings"]["depth"] == 44

    # --depth is a floor: the depth still reaches every residue term, and
    # the germs a command builds at the default index

    def test_residues_below_residue_reach(self, capsys):
        code = main(["residues", "y'' = 6*y^2", "--depth", "1", "--format", "json"])
        data = json.loads(capsys.readouterr().out)["exactness"]
        assert code == 0 and data["exact"] is True
        assert [(r["place"], r["certified_zero"]) for r in data["residues"]] \
            == [("infinity", True)]

    def test_analyze_no_classify_below_germ_reach(self, capsys):
        args = ["analyze", "y'' = 6*y^2", "--no-classify", "--format", "json"]
        assert main(args) == 0
        want = json.loads(capsys.readouterr().out)
        code = main(args + ["--depth", "1"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0 and data["branches"][0]["residue"] == {"rat": "0"}
        assert (data["series"], data["series_notes"]) == (want["series"], [])

    def test_series_below_germ_reach(self, capsys):
        args = ["series", "y'' = 6*y^2", "--format", "json"]
        assert main(args) == 0
        want = capsys.readouterr().out
        assert main(args + ["--depth", "2"]) == 0
        assert capsys.readouterr().out == want and json.loads(want)["series"]

    def test_one_expansion_per_command(self, monkeypatch):
        import bbsolve.cli as cli
        depths = []

        def counting(P, depth, precision):
            depths.append(depth)
            return branches_at_infinity(P, depth, precision)

        monkeypatch.setattr(cli, "branches_at_infinity", counting)
        text = "P: p^2 - 4*q^3 + 4*q ; k=1"
        for run in (lambda: analyze(text, Options(N=40)),
                    lambda: analyze(text),
                    lambda: cmd_series(text, Options(N=40))):
            depths.clear()
            run()
            assert len(depths) == 1, depths

    def test_one_division_per_resolved_equation(self, monkeypatch):
        # the branch is the only expansion of N/D: the residue at infinity
        # is read from it, not from a second division
        import bbsolve.curve as curve
        calls = []
        real = curve.laurent_at_infinity

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(curve, "laurent_at_infinity", counting)
        rep, _ = analyze("y''' = -5*y^5 + 3/y")
        assert len(calls) == 1, calls
        rows = {r["place"]: r["value"] for r in rep["exactness"]["residues"]}
        assert rows["infinity"] == rep["branches"][0]["residue"] == {"rat": "-3"}

    def test_close_places_at_low_precision(self, capsys):
        # four places at p = +-sqrt(2), +-sqrt(2 + 2^-120): the roots separate
        # only at 192 bits, and the places keep those bits at --precision 64
        text = f"P: q*(p^2 - 2)*(p^2 - 2 - 1/{2 ** 120}) + 1 ; k=1"
        code = main(["residues", text, "--precision", "64", "--format", "json"])
        rows = json.loads(capsys.readouterr().out)["exactness"]["residues"]
        assert code == 0 and [r["place"] for r in rows] == ["b0", "b1", "b2", "b3"]
        # p dq = p dq ~ +-2^120/(2 sqrt 2) dq/q at each place
        want = 2 ** 120 / (2 * math.sqrt(2))
        assert sorted(round(r["value"]["re"] / want, 9) for r in rows) == [-1, -1, 1, 1]
        rep, _ = analyze(text, Options(precision=64, no_classify=True))
        assert [b["m"] for b in rep["branches"]] == [1, 1, 1, 1]

    def test_depth_option_is_a_floor(self):
        # --depth below what the germs need is raised to it, not obeyed
        out, _ = cmd_series("P: p^2 - 4*q^3 + 4*q ; k=1",
                            Options(N=40, depth=12, fmt="json"))
        data = json.loads(out)
        assert len(data["series"][0]["coeffs"]) == 41 and data["notes"] == []

    def test_ramification_gate_precedes_depth_check(self):
        # (p - q^2)^2 = q^3 has one place with m = 2 over an n = 1 edge: no
        # germ exists, and the note says why instead of asking for depth
        out, _ = cmd_series("P: (p - q^2)^2 - q^3 ; k=1",
                            Options(N=30, depth=30, fmt="json"))
        data = json.loads(out)
        assert data["series"] == []
        assert "ramification 2 does not divide pole order 1" in data["notes"][0]


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def _run_module(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


class TestModuleEntryPoint:
    def test_closed_pipe_exits_without_traceback(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "bbsolve", "analyze", "y'' = 6*y^2", "--no-classify"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()                 # the reader is gone before any output
        _out, err = proc.communicate(timeout=120)
        assert proc.returncode == 1
        assert b"Traceback" not in err and b"BrokenPipeError" not in err

    def test_selftest_is_no_command(self):
        res = _run_module("-m", "bbsolve", "selftest")
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1, res.stderr

    def test_readme_tables_list_the_commands_and_flags(self):
        # README's command table and flag table against cli's own wiring
        with open(os.path.join(SRC, "..", "README.md")) as fh:
            rows = re.findall(r"^\| `([^`]+)` *\| (.*) \|$", fh.read(), re.M)
        commands = {name: set(re.findall(r"--[\w-]+", cell))
                    for name, cell in rows if not name.startswith("--")}
        assert commands == {name: set(flags) for name, (_fn, flags)
                            in cli._COMMANDS.items()}
        assert {name for name, _cell in rows if name.startswith("--")} == set(cli._FLAGS)

    def test_python_m_bbsolve_is_quiet(self):
        res = _run_module("-m", "bbsolve", "analyze", "y' = y^2")
        assert res.returncode == 0
        assert res.stderr == ""
        assert "rational" in res.stdout

    def test_optimized_run_prints_same_json(self, capsys):
        # python -O strips assert statements; library checks must not rely on them
        code = main(["analyze", "y'' = 6*y^2", "--format", "json"])
        expected = capsys.readouterr().out
        res = _run_module("-O", "-m", "bbsolve", "analyze", "y'' = 6*y^2",
                          "--format", "json")
        assert (res.returncode, res.stdout) == (code, expected)

    def test_library_has_no_assert_statements(self):
        pkg = os.path.join(SRC, "bbsolve")
        for name in sorted(os.listdir(pkg)):
            if name.endswith(".py"):
                with open(os.path.join(pkg, name)) as fh:
                    tree = ast.parse(fh.read(), name)
                lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
                assert lines == [], f"{name}: assert at lines {lines}"

    def test_number_types_stay_inside_algebra(self):
        # a value known exactly is a GaussianRational and anything else a
        # BigComplex; both answer the same arithmetic, so only algebra.py may
        # name BigComplex or dispatch on either type (__init__.py re-exports)
        pkg = os.path.join(SRC, "bbsolve")
        types = {"BigComplex", "GaussianRational", "AlgebraicNumber"}
        for name in sorted(os.listdir(pkg)):
            if not name.endswith(".py") or name in ("algebra.py", "__init__.py"):
                continue
            with open(os.path.join(pkg, name)) as fh:
                tree = ast.parse(fh.read(), name)
            bad = []
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    bad += [node.lineno for a in node.names if a.name == "BigComplex"]
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id == "isinstance" and len(node.args) == 2):
                    named = {getattr(n, "id", getattr(n, "attr", None))
                             for n in ast.walk(node.args[1])}
                    bad += [node.lineno] if named & types else []
            assert bad == [], f"{name}: BigComplex import or type dispatch at lines {bad}"

    def test_exact_layers_round_no_value_to_a_double(self):
        # curve, series, conditions and eqparse hold exact values and balls
        # and order them by algebra._root_key; only the two ball writers
        # print a double
        pkg = os.path.join(SRC, "bbsolve")
        writers = {("series.py", "coeff_to_json"), ("curve.py", "_place_label")}
        for name in ("curve.py", "series.py", "conditions.py", "eqparse.py"):
            with open(os.path.join(pkg, name)) as fh:
                tree = ast.parse(fh.read(), name)
            exempt = {id(node) for fn in ast.walk(tree)
                      if isinstance(fn, ast.FunctionDef) and (name, fn.name) in writers
                      for node in ast.walk(fn)}
            bad = [node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and id(node) not in exempt
                   and getattr(node.func, "id", None) in ("complex", "float", "round")]
            assert bad == [], f"{name}: complex, float or round at lines {bad}"

    def test_every_import_is_read(self):
        # the project runs no linter, so this stands in for its unused-import
        # check: a module may import a name only to read it (__init__.py
        # re-exports)
        pkg = os.path.join(SRC, "bbsolve")
        for name in sorted(os.listdir(pkg)):
            if not name.endswith(".py") or name == "__init__.py":
                continue
            with open(os.path.join(pkg, name)) as fh:
                tree = ast.parse(fh.read(), name)
            read = {n.id for n in ast.walk(tree)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread = [(node.lineno, (a.asname or a.name).split(".")[0])
                      for node in ast.walk(tree)
                      if isinstance(node, (ast.Import, ast.ImportFrom))
                      for a in node.names
                      if (a.asname or a.name).split(".")[0] not in read]
            assert unread == [], f"{name}: imported and never read: {unread}"

    def test_every_parameter_is_read(self):
        # a parameter no body reads is an argument every caller passes for
        # nothing; self, cls, *args, **kwargs and names that start with an
        # underscore are exempt
        pkg = os.path.join(SRC, "bbsolve")
        for name in sorted(os.listdir(pkg)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(pkg, name)) as fh:
                tree = ast.parse(fh.read(), name)
            unread = []
            for fn in ast.walk(tree):
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
                unread += [(fn.lineno, fn.name, a.arg) for a in args
                           if a.arg not in read and a.arg not in ("self", "cls")
                           and not a.arg.startswith("_")]
            assert unread == [], f"{name}: parameters never read: {unread}"

    def test_one_function_builds_the_verdict(self):
        # classify.classify_equation is the one decision chain: no other
        # function may construct a ClassificationVerdict
        pkg = os.path.join(SRC, "bbsolve")
        builders = []
        for name in sorted(os.listdir(pkg)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(pkg, name)) as fh:
                tree = ast.parse(fh.read(), name)
            for top in tree.body:
                builders += [(name, getattr(top, "name", top.lineno))
                             for node in ast.walk(top)
                             if isinstance(node, ast.Call)
                             and "ClassificationVerdict" in (getattr(node.func, "id", None),
                                                             getattr(node.func, "attr", None))]
        assert set(builders) == {("classify.py", "classify_equation")}

    def test_only_algebra_imports_mpmath(self):
        # the ball kernel works on raw mpmath.libmp tuples at fixed working
        # precisions; keeping mpmath inside algebra.py keeps that kernel there
        pkg = os.path.join(SRC, "bbsolve")
        for name in sorted(os.listdir(pkg)):
            if not name.endswith(".py") or name == "algebra.py":
                continue
            with open(os.path.join(pkg, name)) as fh:
                tree = ast.parse(fh.read(), name)
            bad = []
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module]
                else:
                    continue
                bad += [node.lineno for m in modules
                        if m == "mpmath" or m.startswith("mpmath.")]
            assert bad == [], f"{name}: mpmath import at lines {bad}"

    def test_only_algebra_rounds_floats_to_fractions(self):
        # an exact value comes from a certified root or from exact
        # arithmetic, never from a float guess: only the root finder in
        # algebra.py rounds a numeric root to a candidate, then checks it
        pkg = os.path.join(SRC, "bbsolve")
        for name in sorted(os.listdir(pkg)):
            if not name.endswith(".py") or name == "algebra.py":
                continue
            with open(os.path.join(pkg, name)) as fh:
                tree = ast.parse(fh.read(), name)
            bad = [node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and node.attr == "limit_denominator"]
            assert bad == [], f"{name}: limit_denominator at lines {bad}"

    def test_gaussian_triple_stays_inside_algebra(self):
        # GaussianRational keeps (a + b i)/d in private slots; every other
        # module reads a value through re, im and the arithmetic, so the
        # representation can change in algebra.py alone
        pkg = os.path.join(SRC, "bbsolve")
        fields = set(GaussianRational.__slots__)
        assert fields and all(f.startswith("_") for f in fields)
        for name in sorted(os.listdir(pkg)):
            if not name.endswith(".py") or name == "algebra.py":
                continue
            with open(os.path.join(pkg, name)) as fh:
                tree = ast.parse(fh.read(), name)
            bad = [node.lineno for node in ast.walk(tree)
                   if (isinstance(node, ast.Attribute) and node.attr in fields)
                   or (isinstance(node, ast.Constant) and node.value in fields)]
            assert bad == [], f"{name}: GaussianRational field read at lines {bad}"

    def test_squarefree_reduction_stays_in_the_parser(self):
        # the parser reduces P to its squarefree part, so cli imports no
        # squarefree helper, and only eqparse.py names its _Parser
        pkg = os.path.join(SRC, "bbsolve")
        for name in sorted(os.listdir(pkg)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(pkg, name)) as fh:
                tree = ast.parse(fh.read(), name)
            names = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.alias):
                    names.add(node.name)
                elif isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
            if name == "cli.py":
                assert not any("squarefree" in n for n in names)
            if name != "eqparse.py":
                assert "_Parser" not in names, name


# ---------------------------------------------------------------------------
# the JSON writer: json.dumps(x, indent=2, allow_nan=False), byte for byte
# ---------------------------------------------------------------------------

def _stdlib_json(x):
    return json.dumps(x, indent=2, allow_nan=False)


def _rendered(monkeypatch, text, opts, commands):
    """(object, text) for every object the commands give render_json on
    ``text``; analyze runs once, and cmd_analyze and cmd_classify read its
    result.  A command that fails on the input renders nothing."""
    rendered = []

    def recording(x):
        out = render_json(x)
        rendered.append((x, out))
        return out

    monkeypatch.setattr(cli, "render_json", recording)
    try:
        analyzed = analyze(text, opts)
    except BBError:
        commands = [c for c in commands if c not in (cmd_analyze, cmd_classify)]
    monkeypatch.setattr(cli, "analyze", lambda equation, o: analyzed)
    for command in commands:
        try:
            command(text, opts)
        except (BBError, ZeroDivisionError):
            pass
    return rendered


json_strings = st.text(st.characters(codec="utf-8")
                       | st.sampled_from('"\\/\x00\x1f\x7f\u2028é€\U0001f600'), max_size=8)
json_leaves = (st.none() | st.booleans() | st.integers()
               | st.integers(-10 ** 400, 10 ** 400) | json_strings
               | st.floats(allow_nan=False, allow_infinity=False)
               | st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                                  -1.7976931348623157e308, 1e16, 1e-7, 0.1]))
json_trees = st.recursive(
    json_leaves,
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(json_strings, kids, max_size=4)),
    max_leaves=40)


class TestJsonWriter:
    @pytest.mark.parametrize("text", GOLDEN_CORPUS + CURVE_MODE + LARGE_ORDERS)
    def test_reports_as_the_stdlib_writes_them(self, monkeypatch, text):
        # every fixed input of tests/report_digests.py, under each JSON command
        rendered = _rendered(monkeypatch, text, Options(fmt="json"),
                             [cmd_analyze, cmd_classify, cmd_series, cmd_residues])
        assert len(rendered) == 4
        for x, out in rendered:
            assert out == _stdlib_json(x)

    def test_unclassified_fuzz_reports_as_the_stdlib_writes_them(self, monkeypatch):
        # the well-formed seed-1 fuzz inputs of tests/report_digests.py,
        # without classification (classify refuses that option)
        opts = Options(fmt="json", no_classify=True)
        count = 0
        for text, malformed in fuzz_equations(1):
            if malformed:
                continue
            rendered = _rendered(monkeypatch, text, opts,
                                 [cmd_analyze, cmd_series, cmd_residues])
            for x, out in rendered:
                assert out == _stdlib_json(x)
            count += len(rendered)
        assert count >= 500

    @settings(max_examples=150, deadline=None)
    @given(json_trees)
    def test_trees_as_the_stdlib_writes_them(self, tree):
        assert render_json(tree) == _stdlib_json(tree)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_floats_raise_value_error(self, value):
        for tree in (value, {"a": [1, value]}):
            with pytest.raises(ValueError, match="not JSON compliant"):
                render_json(tree)
            with pytest.raises(ValueError):
                _stdlib_json(tree)

    @pytest.mark.parametrize("tree", [{1, 2}, 1j, [Fraction(1, 3)], {"a": {1j}},
                                      {1: "a"}, {"a": {None: 1}}, {(1, 2): 3}])
    def test_other_types_and_keys_raise_type_error(self, tree):
        with pytest.raises(TypeError):
            render_json(tree)

    def test_one_writer(self):
        # no indented json.dumps (or json.dump) is left in the package
        pkg = os.path.join(SRC, "bbsolve")
        for name in sorted(os.listdir(pkg)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(pkg, name)) as fh:
                tree = ast.parse(fh.read(), name)
            bad = [node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Call)
                   and getattr(node.func, "attr", getattr(node.func, "id", None))
                   in ("dumps", "dump")
                   and any(kw.arg == "indent" for kw in node.keywords)]
            assert bad == [], f"{name}: indented json.dumps at lines {bad}"

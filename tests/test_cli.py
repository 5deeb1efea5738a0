import ast
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import random
import re
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import sgcorona
from sgcorona import format_graph, parse_graph, read_graph, unbalanced_c4, complete_graph, cycle_graph, experiments, graphs
from sgcorona.cli import MAX_CORONA_SIZE, MAX_DENSE_ORDER, main
from sgcorona.experiments import THEOREM_LABELS
from sgcorona.linalg import ComplexRootsError
from sgcorona.spectra import CLOSED_FORMS, ClosedFormError, MatrixKind

C4M_TEXT = "4\n0 1 +\n1 2 +\n2 3 +\n0 3 -\n"
K2_TEXT = "2\n0 1 +\n"


@pytest.fixture
def c4m_file(tmp_path):
    path = tmp_path / "c4minus.sg"
    path.write_text(C4M_TEXT)
    return str(path)


@pytest.fixture
def k2_file(tmp_path):
    path = tmp_path / "k2.sg"
    path.write_text(K2_TEXT)
    return str(path)


def src_env() -> dict:
    """The environment for a child interpreter that imports this sgcorona."""
    src = str(Path(sgcorona.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCorona:
    def test_writes_file(self, capsys, tmp_path, c4m_file, k2_file):
        out_file = str(tmp_path / "out.sg")
        code, out, _ = run(capsys, "corona", c4m_file, k2_file, "-o", out_file)
        assert code == 0
        assert "12 vertices, 24 edges" in out
        corona = read_graph(out_file)
        assert corona.n == 12
        assert corona.edge_count == 24

    def test_malformed_file(self, capsys, tmp_path, k2_file):
        bad = tmp_path / "bad.sg"
        for text, line in [("3\n0 0 +\n", 2), ("1_0\n", 1), ("3\n+0 1 +\n", 2)]:
            bad.write_text(text)
            code, _, err = run(capsys, "corona", str(bad), k2_file, "-o", str(tmp_path / "o.sg"))
            assert code == 2
            assert err.startswith(f"error: line {line}: ")

    def test_missing_file(self, capsys, tmp_path, k2_file):
        code, _, err = run(capsys, "corona", str(tmp_path / "nope.sg"), k2_file, "-o", str(tmp_path / "o.sg"))
        assert code == 2
        assert err


class TestNonAsciiFile:
    @pytest.mark.parametrize(
        "data, line",
        [(b"2\n0 1 \xc3\xa9\n", 2), (b"\xff\xfe2\x00\n\x00", 1)],
        ids=["utf8", "utf16"],
    )
    @pytest.mark.parametrize("command", ["spectrum", "charpoly", "corona"])
    def test_parse_error_exits_2(self, capsys, tmp_path, k2_file, command, data, line):
        bad = tmp_path / "bad.sg"
        bad.write_bytes(data)
        out_file = tmp_path / "o.sg"
        extra = [k2_file, "-o", str(out_file)] if command == "corona" else []
        code, out, err = run(capsys, command, str(bad), *extra)
        assert code == 2
        assert not out
        assert err.startswith(f"error: line {line}: non-ASCII byte 0x")
        assert not out_file.exists()


class TestSpectrum:
    def test_single_graph(self, capsys, c4m_file):
        code, out, _ = run(capsys, "spectrum", c4m_file, "--kind", "adj")
        assert code == 0
        assert "-1.41421 x2, 1.41421 x2" in out

    def test_corona_with_closed_form(self, capsys, c4m_file, k2_file):
        code, out, _ = run(capsys, "spectrum", c4m_file, k2_file, "--kind", "adj", "--closed-form")
        assert code == 0
        assert "closed form (2.3)" in out
        assert "agrees with numeric spectrum: yes" in out

    def test_closed_form_needs_two_graphs(self, capsys, c4m_file):
        code, _, err = run(capsys, "spectrum", c4m_file, "--closed-form")
        assert code == 2
        assert "closed-form" in err or "factors" in err

    def test_closed_form_unavailable_note(self, capsys, tmp_path, k2_file, c4m_file):
        # second factor not net-regular: numeric output still succeeds
        code, out, _ = run(capsys, "spectrum", k2_file, c4m_file, "--kind", "adj", "--closed-form")
        assert code == 0
        assert "closed form unavailable" in out

    def test_json_output(self, capsys, c4m_file, k2_file):
        code, out, _ = run(capsys, "spectrum", c4m_file, k2_file, "--kind", "netlap", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "netlap"
        assert sum(item["multiplicity"] for item in doc["numeric"]) == 12

    def test_closed_form_json(self, capsys, c4m_file, k2_file):
        argv = ["spectrum", c4m_file, k2_file, "--closed-form", "--json"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        assert doc["theorem"] == "2.3"
        assert doc["agrees"] is True
        assert "closed_form_unavailable" not in doc
        # a "poly" entry stands for every root of its quadratic or cubic
        count = sum(
            e["multiplicity"] * (len(e["coeffs"]) - 1 if e["kind"] == "poly" else 1)
            for e in doc["closed_form"]
        )
        assert count == 12

    def test_closed_form_unavailable_json(self, capsys, c4m_file, k2_file):
        # the second factor, the unbalanced 4-cycle, is not net-regular
        code, out, _ = run(capsys, "spectrum", k2_file, c4m_file, "--closed-form", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["closed_form_unavailable"] == "second factor must be net-regular"
        assert not {"theorem", "agrees", "closed_form"} & doc.keys()

    @pytest.mark.parametrize("kind", ["adj", "lap", "netlap"])
    def test_empty_second_factor_note(self, capsys, tmp_path, c4m_file, kind):
        empty = tmp_path / "empty.sg"
        empty.write_text("0\n")
        code, out, _ = run(capsys, "spectrum", c4m_file, str(empty), "--kind", kind, "--closed-form")
        assert code == 0
        assert out.endswith("closed form unavailable: second factor must be non-empty\n")

    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("kind", ["adj", "lap", "netlap"])
    def test_empty_first_factor_refused(self, capsys, tmp_path, k2_file, kind, fmt):
        # the adjacency blocks read no first-factor matrix, so the refusal
        # must come before them, in every kind
        empty = tmp_path / "empty.sg"
        empty.write_text("0\n")
        code, out, err = run(capsys, "spectrum", str(empty), k2_file, "--kind", kind, *fmt)
        assert code == 2
        assert not out
        assert err == "error: corona needs a non-empty first factor\n"

    @pytest.mark.parametrize(
        "first, kind, quadratic",
        [("K2", "adj", "-3 + 0*t + 1*t^2"), ("K1", "lap", "0 + 0*t + 1*t^2")],
        ids=["K2-K2-adj", "K1-K2-lap"],
    )
    def test_closed_form_prints_no_negative_zero(self, capsys, tmp_path, k2_file, first, kind, quadratic):
        """A root pair t^2 - b*t + c with b = 0 prints its middle coefficient
        as 0, not -0, in text and in JSON."""
        path = tmp_path / "first.sg"
        path.write_text(K2_TEXT if first == "K2" else "1\n")
        argv = ["spectrum", str(path), k2_file, "--kind", kind, "--closed-form"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert f"roots of {quadratic} x1" in out
        assert "-0*" not in out
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        coeffs = [c for e in json.loads(out)["closed_form"] if e["kind"] == "poly" for c in e["coeffs"]]
        assert 0.0 in coeffs
        assert "-0.0" not in out

    def test_outputs_are_pinned(self, capsys, tmp_path):
        # stdout, stderr and exit code of spectrum and charpoly over fixed
        # graphs and seeded samples: every kind, text and --json, with and
        # without --closed-form (forms that agree and unavailable notes), and
        # the two usage errors. A change to any message, number format or
        # JSON key changes this digest, and so does a JSON float's last bit:
        # linalg sums with math.fsum, so the digest holds on 3.10 to 3.13.
        texts = {
            "empty": "0\n",
            "k1": "1\n",
            "k2": K2_TEXT,
            "c4m": C4M_TEXT,
            "p3": "3\n0 1 +\n1 2 -\n",
            "k23m": format_graph(graphs.complete_bipartite(2, 3, -1)),
        }
        fixed = list(texts)
        rng = random.Random(2024)
        for i in range(2):
            texts[f"signed{i}"] = format_graph(experiments.random_signed_graph(rng, 4))
            texts[f"regular{i}"] = format_graph(experiments.random_regular_signed(rng, 4))
            texts[f"netreg{i}"] = format_graph(experiments.random_net_regular(rng, 4))
        sampled = [name for name in texts if name not in fixed]
        pairs = [(a, b) for a in fixed for b in fixed] + list(zip(sampled, reversed(sampled)))
        for name, text in texts.items():
            (tmp_path / f"{name}.sg").write_text(text)

        runs = [["spectrum", "c4m", "k2", "c4m"], ["spectrum", "c4m", "--closed-form"]]
        for kind in ("adj", "lap", "netlap"):
            for fmt in ([], ["--json"]):
                runs += [[cmd, name, "--kind", kind, *fmt] for name in texts for cmd in ("spectrum", "charpoly")]
                for a, b in pairs:
                    runs += [["spectrum", a, b, "--kind", kind, *fmt, *cf] for cf in ([], ["--closed-form"])]
        digest = hashlib.sha256()
        for argv in runs:
            code, out, err = run(capsys, *(str(tmp_path / f"{a}.sg") if a in texts else a for a in argv))
            digest.update(f"{' '.join(argv)}\n{code}\n{out}\n{err}\n".encode())
        assert digest.hexdigest() == "1020e7a0cd6c6a0cc79944ede8224e6b28b161cece76f90a4fac83911b8174d9"

    def test_raw_json_floats_are_pinned(self, capsys, tmp_path):
        # the --json of spectrum --closed-form, distinct and paper-example as
        # printed, every float to its last bit: linalg sums its Householder
        # products and cluster means with math.fsum, which rounds the same on
        # every Python version, so this digest holds on 3.10 to 3.13
        texts = {"k2": K2_TEXT, "c4m": C4M_TEXT, "k23m": format_graph(graphs.complete_bipartite(2, 3, -1))}
        rng = random.Random(2025)
        for i in range(2):
            texts[f"signed{i}"] = format_graph(experiments.random_signed_graph(rng, 7))
            texts[f"netreg{i}"] = format_graph(experiments.random_net_regular(rng, 6))
        for name, text in texts.items():
            (tmp_path / f"{name}.sg").write_text(text)
        runs = [["paper-example", "--json"]]
        for kind in ("adj", "lap", "netlap"):
            runs += [["distinct", name, "--kind", kind, "--json"] for name in texts]
            runs += [["spectrum", a, b, "--kind", kind, "--closed-form", "--json"] for a in texts for b in texts]
        digest = hashlib.sha256()
        for argv in runs:
            code, out, _ = run(capsys, *(str(tmp_path / f"{a}.sg") if a in texts else a for a in argv))
            digest.update(f"{' '.join(argv)}\n{code}\n{out}\n".encode())
        assert digest.hexdigest() == "e88b8c306fb007fa20bd7b136bc28cfdad44919ae6d1bfc2b0d4601ad36e4401"

    def test_three_graphs_refused(self, capsys, c4m_file, k2_file):
        code, out, err = run(capsys, "spectrum", c4m_file, k2_file, c4m_file)
        assert code == 2
        assert not out
        assert err.startswith("error: spectrum takes one graph")
        assert "Traceback" not in err


class TestCharpoly:
    def test_exact_polynomial(self, capsys, c4m_file):
        code, out, _ = run(capsys, "charpoly", c4m_file, "--kind", "adj")
        assert code == 0
        assert out.strip() == "4 + 0*t + -4*t^2 + 0*t^3 + 1*t^4"

    def test_json(self, capsys, c4m_file):
        code, out, _ = run(capsys, "charpoly", c4m_file, "--kind", "adj", "--json")
        assert code == 0
        assert json.loads(out)["coeffs"] == ["4", "0", "-4", "0", "1"]


class TestVerify:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "2.3", "--trials", "15", "--seed", "7")
        assert code == 0
        assert "PASS 15/15" in out

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "verify", "--theorem", "3.3", "--trials", "8", "--seed", "5")
        _, out2, _ = run(capsys, "verify", "--theorem", "3.3", "--trials", "8", "--seed", "5")
        assert out1 == out2

    def test_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "4.2", "--trials", "6", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["passed"] == 6

    def test_unknown_theorem_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "--theorem", "7.1")
        assert code == 2

    @pytest.mark.parametrize("theorem, trials, seed", [("3.4", "15", "0"), ("4.2", "20", "3")])
    def test_refused_closed_form_is_a_failed_trial(self, capsys, monkeypatch, theorem, trials, seed):
        # a closed form refuses only factors that fail its hypotheses, which
        # the samplers never draw; a stand-in that refuses every pair takes
        # the refusal path, since the rows look CLOSED_FORMS up at call time
        def refuse(s1, s2, tol):
            raise ClosedFormError("stand-in refusal")

        for kind in MatrixKind:
            monkeypatch.setitem(CLOSED_FORMS, kind, refuse)
        argv = ["verify", "--theorem", theorem, "--trials", trials, "--seed", seed]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert "counterexample at trial" in out
        assert "closed form refused the factors" in out
        assert "Traceback" not in err
        code, out, _ = run(capsys, *argv, "--json")
        failure = json.loads(out)["failures"][0]
        assert parse_graph(failure["graphs"]["s1"]).n >= 1
        assert set(failure["graphs"]) == {"s1", "s2"}

    def test_arithmetic_error_in_a_check_is_a_failed_trial(self, capsys, monkeypatch):
        # a wrong formula can give a quadratic complex roots, and a kernel
        # fault can trip the eigensolver's trace check; either fails its
        # trial with the pair dumped, and the run goes on
        def complex_roots(s1, s2, tol):
            raise ComplexRootsError("quadratic discriminant -1.000e+00 is negative")

        monkeypatch.setitem(CLOSED_FORMS, MatrixKind.ADJACENCY, complex_roots)
        result = experiments.verify_theorem("2.3", trials=3)
        assert (result.passed, result.trials) == (0, 3)
        assert [f.trial for f in result.failures] == [0, 1, 2]
        for failure in result.failures:
            assert failure.detail == "check raised ComplexRootsError: quadratic discriminant -1.000e+00 is negative"
            assert set(failure.graphs) == {"s1", "s2"}
            assert parse_graph(failure.graphs["s2"]).n >= 1
        code, out, err = run(capsys, "verify", "--theorem", "2.3", "--trials", "3")
        assert code == 1
        assert "FAIL 0/3" in out
        assert out.count("counterexample at trial") == 3
        assert "Traceback" not in err

    @pytest.mark.parametrize("where", ["closed form", "realize"])
    def test_value_error_in_a_check_is_a_failed_trial(self, capsys, monkeypatch, where):
        # a wrong formula, such as K_{p,p} sent to the cubic, can raise
        # ValueError in the closed form or when its roots are realised;
        # either fails its trial with the pair dumped, with no traceback
        def wrong(*args):
            raise ValueError("math domain error")

        if where == "closed form":
            monkeypatch.setitem(CLOSED_FORMS, MatrixKind.ADJACENCY, wrong)
        else:
            monkeypatch.setattr(experiments, "realize", wrong)
        result = experiments.verify_theorem("2.3", trials=3)
        assert (result.passed, result.trials) == (0, 3)
        assert [f.trial for f in result.failures] == [0, 1, 2]
        for failure in result.failures:
            assert failure.detail == "check raised ValueError: math domain error"
            assert set(failure.graphs) == {"s1", "s2"}
            assert parse_graph(failure.graphs["s2"]).n >= 1
        code, out, err = run(capsys, "verify", "--theorem", "2.3", "--trials", "3")
        assert code == 1
        assert "FAIL 0/3" in out
        assert out.count("counterexample at trial") == 3
        assert "Traceback" not in err

    @pytest.mark.parametrize("theorem, trials, seed", [("3.4", "15", "0"), ("4.2", "20", "3")])
    def test_coarse_tol_refuses_no_closed_form(self, capsys, theorem, trials, seed):
        # at tol 0.3 clustering once merged the eigenvalue k of the second
        # factor into a cluster too far from k, and the closed form refused
        # factors that meet its hypotheses
        argv = ["verify", "--theorem", theorem, "--trials", trials, "--seed", seed, "--tol", "0.3"]
        _, out, err = run(capsys, *argv)
        assert out.startswith(f"theorem {theorem}:")
        assert "closed form refused" not in out
        assert "Traceback" not in err

    def test_coarse_tol_picks_the_right_copy_of_k(self, capsys):
        # at tol 1e-2 a cluster mean once replaced the copy of 0 to drop, and
        # 4.2 reported a false counterexample at trial 1
        argv = ["verify", "--theorem", "4.2", "--trials", "12", "--seed", "1", "--max-n", "13", "--tol", "1e-2"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "PASS 12/12" in out

    @pytest.mark.parametrize("theorem", ["3.3", "3.4", "4.2"])
    def test_fine_tol_reports_no_false_counterexample(self, capsys, theorem):
        # at tol 1e-14 an absolute comparison once failed trials whose two
        # spectra print identically (3.3: FAIL 16/20); closeness is now
        # relative to the largest eigenvalue compared
        argv = ["verify", "--theorem", theorem, "--trials", "20", "--seed", "0", "--tol", "1e-14"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "PASS 20/20" in out

    @pytest.mark.parametrize("tol", ["1", "1e-17"])
    def test_few_distinct_seed_merged_or_split_by_tol_is_a_failed_trial(self, capsys, tol):
        # tol 1 merges the two eigenvalues of a catalog seed; 1e-17 lets
        # rounding noise split them, so the seed no longer has exactly two
        code, out, err = run(capsys, "verify", "--theorem", "5.2", "--tol", tol)
        assert code == 1
        assert "FAIL" in out
        assert "distinct adjacency eigenvalues, need exactly 2" in out
        assert "Traceback" not in err

    def test_seed_that_stalled_the_jacobi_eigensolver(self, capsys):
        # a 35x35 signed Laplacian on which cyclic Jacobi raised ArithmeticError
        code, out, err = run(
            capsys, "verify", "--theorem", "3.3", "--trials", "5", "--seed", "1131113880", "--max-n", "6"
        )
        assert code == 0
        assert "PASS 5/5" in out
        assert not err

    @pytest.mark.parametrize("label", THEOREM_LABELS)
    def test_largest_accepted_max_n_runs(self, capsys, label):
        # max-n 13: coronas of order up to 182, regular factors of order 13
        code, out, err = run(capsys, "verify", "--theorem", label, "--trials", "3", "--max-n", "13")
        assert code in (0, 1)
        assert out.startswith(f"theorem {label}:")
        assert not err


class TestDistinct:
    def test_report(self, capsys, c4m_file):
        code, out, _ = run(capsys, "distinct", c4m_file, "--kind", "adj", "--tol", "1e-6")
        assert code == 0
        assert "2 distinct" in out

    def test_json(self, capsys, c4m_file):
        code, out, _ = run(capsys, "distinct", c4m_file, "--kind", "adj", "--json")
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == [
            "kind", "tol", "construction", "spectrum", "distinct_count",
            "bound", "bound_satisfied", "expected_distinct", "matches_expected",
        ]
        assert doc["distinct_count"] == 2
        assert [p["multiplicity"] for p in doc["spectrum"]] == [2, 2]
        for p, sign in zip(doc["spectrum"], (-1, 1)):
            assert abs(p["value"] - sign * math.sqrt(2)) < 1e-9
        for key in ("bound", "bound_satisfied", "expected_distinct", "matches_expected"):
            assert doc[key] is None


class TestCospectralDemo:
    def test_default_pair(self, capsys):
        code, out, _ = run(capsys, "cospectral-demo", "--kind", "adj")
        assert code == 0
        assert "certificate holds" in out

    def test_not_cospectral_pair(self, capsys, tmp_path, c4m_file, k2_file):
        code, _, err = run(capsys, "cospectral-demo", "--pair", c4m_file, k2_file, "--kind", "adj")
        assert code == 1
        assert "not adj-cospectral" in err

    @pytest.fixture
    def search_pair(self, tmp_path):
        # two balanced, hence cospectral, signed 6-cycles whose (d+, d-)
        # multisets agree, so no degree filter decides either isomorphism
        # test: negative edges 0 and 3 against negative edges 0 and 2
        paths = []
        for name, signs in (("a", [-1, 1, 1, -1, 1, 1]), ("b", [-1, 1, -1, 1, 1, 1])):
            path = tmp_path / f"{name}.sg"
            path.write_text(format_graph(cycle_graph(6, signs)))
            paths.append(str(path))
        return paths

    @pytest.fixture
    def searches(self, monkeypatch):
        """(order, switching) of each isomorphism search that gets past the
        degree-profile check."""
        searches = []
        find_map = graphs._find_map

        def spy(s1, s2, switching, cap):
            searches.append((s1.n, switching))
            return find_map(s1, s2, switching, cap)

        monkeypatch.setattr(graphs, "_find_map", spy)
        return searches

    def test_pair_that_reaches_the_search(self, capsys, search_pair, searches):
        code, out, _ = run(capsys, "cospectral-demo", "--pair", *search_pair, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["corona_order"] == 12
        assert doc["isomorphic"] is False
        assert doc["switching_isomorphic"] is True
        assert searches == [(6, False), (12, False), (12, True)]

    def test_pair_that_reaches_the_search_with_k2(self, capsys, search_pair, searches, k2_file):
        # the corona has order 18, past the default cap of 12
        code, out, _ = run(capsys, "cospectral-demo", "--pair", *search_pair, "--companion", k2_file,
                           "--cap", "24", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["corona_order"] == 18
        assert (doc["isomorphic"], doc["switching_isomorphic"], doc["ok"]) == (False, True, True)
        assert searches == [(6, False), (18, False), (18, True)]

    def test_pair_past_the_cap_computes_no_char_poly(self, capsys, monkeypatch, search_pair, searches, k2_file):
        # without --cap the coronas' order 18 is past the default cap of 12,
        # known from the inputs: refused before any char poly or search
        calls = []
        monkeypatch.setattr(experiments, "char_poly_exact", lambda *args: calls.append(args))
        code, out, err = run(capsys, "cospectral-demo", "--pair", *search_pair, "--companion", k2_file)
        assert (code, out) == (2, "")
        assert err == "error: brute-force isomorphism capped at 12 vertices, got 18\n"
        assert calls == [] and searches == []

    def test_json(self, capsys):
        code, out, _ = run(capsys, "cospectral-demo", "--kind", "adj", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["isomorphic"] is False


class TestPaperExample:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "paper-example")
        assert code == 0
        assert "published values reproduce: no" in out
        assert "confirms the published -1^4" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "paper-example", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["printed_reproduced"] is False

    def test_coarse_tol_prints_no_negative_zero(self, capsys):
        """At a tol that merges the whole spectrum, the nearest eigenvalue is
        a tiny negative number; it prints as 0.00000, as spectra do."""
        code, out, _ = run(capsys, "paper-example", "--tol", "1e300")
        assert "absent (nearest eigenvalue 0.00000 x12)" in out
        assert "-0.00000" not in out
        code, out, _ = run(capsys, "paper-example", "--tol", "1e300", "--json")
        nearest = {c["nearest"] for c in json.loads(out)["printed_checks"][1:]}
        assert len(nearest) == 1 and abs(nearest.pop()) < 1e-12
        assert "-0.0," not in out


class TestParserReuse:
    """main() builds its parser once per process; no call may leave a trace
    in it that changes a later call."""

    def test_every_command_twice(self, capsys, tmp_path, c4m_file, k2_file):
        calls = [
            ["corona", c4m_file, k2_file, "-o", str(tmp_path / "out.sg")],
            ["spectrum", c4m_file, k2_file, "--kind", "lap", "--closed-form"],
            ["spectrum", k2_file, c4m_file, "--closed-form"],
            ["charpoly", c4m_file, "--kind", "netlap"],
            ["verify", "--theorem", "2.3", "--trials", "3", "--seed", "7"],
            ["distinct", c4m_file, "--kind", "lap"],
            ["cospectral-demo"],
            ["cospectral-demo", "--pair", c4m_file, k2_file],
            ["paper-example"],
        ]
        calls += [[*argv, "--json"] for argv in calls if argv[0] != "corona"]
        first = [run(capsys, *argv) for argv in calls]
        second = [run(capsys, *argv) for argv in calls]
        assert second == first
        codes = [0, 0, 0, 0, 0, 0, 0, 1, 0]  # the non-cospectral pair exits 1
        assert [code for code, _, _ in first] == codes + codes[1:]
        assert all(out for code, out, _ in first if code == 0)

    @pytest.mark.parametrize(
        "before, code",
        [
            (["verify", "--theorem", "9.9"], 2),
            (["spectrum", "--bogus"], 2),
            (["frobnicate"], 2),
            (["--help"], 0),
            (["spectrum", "--help"], 0),
        ],
    )
    def test_valid_call_after_exit(self, capsys, c4m_file, before, code):
        assert run(capsys, *before)[0] == code
        assert run(capsys, "spectrum", c4m_file) == (0, "spectrum (adj): -1.41421 x2, 1.41421 x2\n", "")

    def test_parser_built_once_per_process(self):
        # the root parser is the one built with prog "sgcorona"; its
        # subparsers are built with "sgcorona <command>"
        code = (
            "import argparse, contextlib, io\n"
            "from sgcorona.cli import main\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(kwargs.get('prog'))\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            "    codes = [main(argv) for argv in (['paper-example'], ['--help'],\n"
            "             ['verify', '--theorem', '9.9'], ['paper-example', '--json'])]\n"
            "print(codes, built.count('sgcorona'))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=src_env(), capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[0, 0, 2, 0] 1\n"


class TestSizeLimit:
    @pytest.fixture
    def big_file(self, tmp_path):
        path = tmp_path / "big.sg"
        path.write_text(f"{MAX_DENSE_ORDER + 1}\n0 1 +\n")
        return str(path)

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "BIG"],
            ["spectrum", "C4M", "BIG", "--closed-form"],
            ["charpoly", "BIG"],
            ["distinct", "BIG"],
            ["cospectral-demo", "--pair", "BIG", "BIG"],
        ],
    )
    def test_huge_order_refused(self, capsys, c4m_file, big_file, argv):
        files = {"BIG": big_file, "C4M": c4m_file}
        code, out, err = run(capsys, *(files.get(a, a) for a in argv))
        assert code == 2
        assert not out
        assert err.startswith("error:")
        assert f"limit of {MAX_DENSE_ORDER}" in err

    def test_verify_max_n_refused(self, capsys):
        # max-n 14 samples coronas of order up to 14 * 15 = 210
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--theorem", "2.3", "--max-n", "14")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert not out
        assert err.startswith("error:")
        assert "order 210" in err

    def test_corona_order_counts(self, capsys, tmp_path, c4m_file):
        # 4 * (100 + 1) = 404 exceeds the limit though both factors are small
        second = tmp_path / "e100.sg"
        second.write_text("100\n")
        code, _, err = run(capsys, "spectrum", c4m_file, str(second))
        assert code == 2
        assert "order 404" in err

    def test_huge_corona_refused(self, tmp_path, k2_file):
        # with K2, a first factor of 10^8 vertices gives a corona of 10^8
        # edges, which ran out of memory; it must be refused before it is built
        # (the address-space limit keeps a build that is not refused small)
        huge = tmp_path / "huge.sg"
        huge.write_text("100000000\n")
        out_file = tmp_path / "out.sg"
        src = str(Path(sgcorona.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "sgcorona.cli", "corona", str(huge), k2_file, "-o", str(out_file)],
            env=env, capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
        )
        assert time.perf_counter() - start < 1.0
        assert done.returncode == 2, done.stderr
        assert not done.stdout
        assert done.stderr.startswith("error:")
        assert "Traceback" not in done.stderr
        assert "100000000 edges" in done.stderr
        assert f"limit of {MAX_CORONA_SIZE}" in done.stderr
        assert not out_file.exists()

    def test_corona_vertices_count(self, capsys, tmp_path):
        # no edges at all, but 2 * 10^6 vertices
        first = tmp_path / "e.sg"
        first.write_text("1000000\n")
        second = tmp_path / "k1.sg"
        second.write_text("1\n")
        code, out, err = run(capsys, "corona", str(first), str(second), "-o", str(tmp_path / "o.sg"))
        assert code == 2
        assert not out
        assert "corona of 2000000 vertices and 0 edges" in err


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--theorem", "2.3", "--trials", "0"],
            ["verify", "--theorem", "2.3", "--max-n", "0"],
            ["verify", "--theorem", "2.3", "--max-n", "two"],
            ["verify", "--theorem", "2.3", "--tol", "-1"],
            ["verify", "--theorem", "2.3", "--tol", "nan"],
            ["verify", "--theorem", "2.3", "--seed", "-7"],
            ["distinct", "GRAPH", "--tol", "0"],
            ["paper-example", "--tol", "0"],
            ["spectrum", "GRAPH", "--tol", "-1"],
            ["spectrum", "GRAPH", "--tol", "inf"],
            ["cospectral-demo", "--cap", "0"],
            ["cospectral-demo", "--cap", "-5"],
        ],
    )
    def test_bad_argument_exits_2(self, capsys, c4m_file, argv):
        code, out, err = run(capsys, *(c4m_file if a == "GRAPH" else a for a in argv))
        assert code == 2
        assert not out
        assert "Traceback" not in err
        assert f"argument {argv[-2]}" in err

    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_console_script_entry_point(self, capsys):
        # the [project.scripts] line names the callable the installed
        # `sgcorona` command runs; read with a regex, as tomllib is 3.11+
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        found = re.search(r'^sgcorona = "([\w.]+):(\w+)"$', text, re.M)
        assert found, "no sgcorona console script in pyproject.toml"
        entry = getattr(importlib.import_module(found[1]), found[2])
        assert entry(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: sgcorona ")


def _small_numbers(text: str) -> bool:
    return all(int(tok) <= 12 for tok in re.findall(r"\d+", text))


# Edge-list text: a vertex count and edges within it, with bad lines mixed
# in, or free text. Every number in it is at most 12, so no graph has more
# than 12 vertices.
BAD_LINE = st.sampled_from(["", "# note", "1 2", "1 2 + 3", "-1 2 +", "0 12 -", "1 1 +", "1 2 0", "x"])


def edge_list_text(n: int):
    edge = st.builds(
        lambda u, v, s: f"{u} {v} {s}",
        st.integers(0, n - 1),
        st.integers(0, n - 1),
        st.sampled_from(["+", "-", "+1", "-1"]),
    )
    lines = st.one_of(edge, edge, edge, BAD_LINE) if n else BAD_LINE
    return st.lists(lines, max_size=12).map(lambda ls: "\n".join([str(n), *ls]) + "\n")


EDGE_LIST_TEXT = st.one_of(
    st.integers(0, 12).flatmap(edge_list_text),
    st.text(alphabet="0123456789 +-#x\n", max_size=40).filter(_small_numbers),
)

GRAPH_ARGS = ["@a", "@b", "@missing"]

# Option values, valid ones first; --trials stays at most 3 and --max-n at
# most 6, so no draw runs long.
VALUES = {
    "--kind": (["adj", "lap", "netlap"], ["bad"]),
    "--tol": (["1e-6", "0.3", "1", "1e-17"], ["0", "-1", "nan", "x"]),
    "--theorem": (list(THEOREM_LABELS), ["9.9"]),
    "--trials": (["1", "3"], ["0", "-2", "x"]),
    "--seed": (["0", "7", "-5"], ["x"]),
    "--max-n": (["1", "3", "6"], ["0", "x"]),
    "--cap": (["0", "6", "12"], ["-1"]),
}

# Each command with the arguments it needs and the options it takes.
COMMANDS = {
    "corona": ([["@a", "@b", "-o", "@out"]], []),
    "spectrum": ([["@a"], ["@a", "@b"]], ["--kind", "--tol", "--json", "--closed-form"]),
    "charpoly": ([["@a"]], ["--kind", "--json"]),
    "verify": ([["--theorem", "2.2"]], ["--theorem", "--trials", "--seed", "--max-n", "--tol", "--json"]),
    "distinct": ([["@a"]], ["--kind", "--tol", "--json"]),
    "cospectral-demo": ([[], ["--pair", "@a", "@b"]], ["--kind", "--cap", "--companion", "--json"]),
    "paper-example": ([[]], ["--tol", "--json"]),
}


def option(name: str, valid: bool = True):
    if name in VALUES:
        return st.sampled_from(VALUES[name][0] if valid else sum(VALUES[name], [])).map(
            lambda v: [name, v]
        )
    if name == "--companion":
        return st.sampled_from(GRAPH_ARGS).map(lambda g: [name, g])
    return st.just([name])


def well_formed(command: str):
    required, names = COMMANDS[command]
    return st.builds(
        lambda head, opts: [command, *head, *(tok for group in opts for tok in group)],
        st.sampled_from(required),
        st.lists(st.one_of([option(n) for n in names]), max_size=4) if names else st.just([]),
    )


# Any command, any option, with or without its value, in any order.
ANY_ARGV = st.builds(
    lambda command, opts: [command, *(tok for group in opts for tok in group)],
    st.sampled_from([*COMMANDS, "nope"]),
    st.lists(
        st.one_of(
            [option(n, valid=False) for n in VALUES]
            + [
                st.sampled_from([["--json"], ["--closed-form"], ["--help"], ["--bogus"], [""]]),
                st.sampled_from(GRAPH_ARGS).map(lambda g: [g]),
                option("--companion"),
                st.builds(lambda a, b: ["--pair", a, b], st.sampled_from(GRAPH_ARGS), st.sampled_from(GRAPH_ARGS)),
                st.sampled_from([["-o", "@out"], ["-o", "@missing/out"], ["-o"]]),
            ]
        ),
        max_size=6,
    ),
)

CLI_ARGV = st.one_of(st.sampled_from(list(COMMANDS)).flatmap(well_formed), ANY_ARGV)


class TestFuzzMain:
    @settings(max_examples=150, deadline=None)
    @given(CLI_ARGV, EDGE_LIST_TEXT, EDGE_LIST_TEXT)
    def test_exit_code_and_no_traceback(self, argv, text_a, text_b):
        with tempfile.TemporaryDirectory() as tmp:
            Path(tmp, "a.sg").write_text(text_a)
            Path(tmp, "b.sg").write_text(text_b)
            argv = [str(Path(tmp, tok[1:] + ".sg")) if tok.startswith("@") else tok for tok in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue(), argv


class TestRuntimeDependencies:
    def test_runtime_imports_only_the_standard_library(self):
        # the tests may use numpy as an oracle; the package must not
        code = (
            "import sys, sgcorona, sgcorona.cli\n"
            "sgcorona.sym_eigenvalues(sgcorona.Matrix([[0, 1], [1, 0]]))\n"
            "print(sorted(m for m in ('numpy', 'scipy', 'sympy', 'networkx') if m in sys.modules))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=src_env(), capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_import_generates_no_code(self):
        # the records are __slots__ classes: importing the package, or running
        # a command, loads none of the modules behind dataclasses or typing (a
        # module that site already loaded does not count)
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import sgcorona, sgcorona.cli\n"
            "sgcorona.cli.main(['verify', '--theorem', '2.3', '--trials', '2', '--json'])\n"
            "assert not hasattr(sgcorona.SignedGraph, '__dataclass_fields__') or 'dataclasses' in before\n"
            "print(sorted(m for m in ('dataclasses', 'inspect', 'typing') if m in set(sys.modules) - before))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=src_env(), capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip().splitlines()[-1] == "[]"

    def test_every_import_is_used(self):
        # each module outside the package's export list reads every name it
        # imports; `from __future__ import annotations` binds nothing to read
        src = Path(sgcorona.__file__).parent
        unused = []
        for path in sorted(src.glob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text())
            imported = {
                (alias.asname or alias.name).partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
                for alias in node.names
            }
            read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unused += [f"{path.name}: {name}" for name in sorted(imported - read)]
        assert len(list(src.glob("*.py"))) > 5
        assert unused == []


class TestTracedNames:
    def test_every_traced_function_resolves(self):
        """perfbench/layertrace.py wraps package functions by (module, name),
        so deleting or renaming one breaks `perfbench/run.py --trace 1`.  Read
        the file without running it and look each name up as the tracer does."""
        path = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
        tables = {
            node.targets[0].id: node.value
            for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        }
        specs = [
            tuple(ast.literal_eval(part) for part in spec.elts[:2])
            for table in ("LAYER_FUNCTIONS", "ENTRY_FUNCTIONS")
            for spec in tables[table].elts
        ]
        assert len(specs) > 20
        for module, qualname in specs:
            assert module in ast.literal_eval(tables["LAYER_MODULES"]), module
            owner_name, _, attr = qualname.rpartition(".")
            owner = importlib.import_module(f"sgcorona.{module}")
            if owner_name:
                owner = getattr(owner, owner_name)
                assert isinstance(owner.__dict__.get(attr), classmethod), qualname
            else:
                assert callable(getattr(owner, attr, None)), f"{module}.{qualname}"

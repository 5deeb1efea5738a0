import json

import pytest

from sgcorona import format_graph, read_graph, unbalanced_c4, complete_graph
from sgcorona.cli import main

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
        bad.write_text("3\n0 0 +\n")
        code, _, err = run(capsys, "corona", str(bad), k2_file, "-o", str(tmp_path / "o.sg"))
        assert code == 2
        assert "line 2" in err

    def test_missing_file(self, capsys, tmp_path, k2_file):
        code, _, err = run(capsys, "corona", str(tmp_path / "nope.sg"), k2_file, "-o", str(tmp_path / "o.sg"))
        assert code == 2
        assert err


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


class TestDistinct:
    def test_report(self, capsys, c4m_file):
        code, out, _ = run(capsys, "distinct", c4m_file, "--kind", "adj", "--tol", "1e-6")
        assert code == 0
        assert "2 distinct" in out


class TestCospectralDemo:
    def test_default_pair(self, capsys):
        code, out, _ = run(capsys, "cospectral-demo", "--kind", "adj")
        assert code == 0
        assert "certificate holds" in out

    def test_not_cospectral_pair(self, capsys, tmp_path, c4m_file, k2_file):
        code, _, err = run(capsys, "cospectral-demo", "--pair", c4m_file, k2_file, "--kind", "adj")
        assert code == 1
        assert "not adj-cospectral" in err

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


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--theorem", "2.3", "--trials", "0"],
            ["verify", "--theorem", "2.3", "--max-n", "0"],
            ["verify", "--theorem", "2.3", "--max-n", "two"],
            ["verify", "--theorem", "2.3", "--tol", "-1"],
            ["verify", "--theorem", "2.3", "--tol", "nan"],
            ["distinct", "GRAPH", "--tol", "0"],
            ["paper-example", "--tol", "0"],
            ["spectrum", "GRAPH", "--tol", "-1"],
            ["spectrum", "GRAPH", "--tol", "inf"],
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

import hashlib
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import printed_kpq_coeffs, two_root_table
from sgcorona import (
    GraphError,
    IsomorphicInputsError,
    alternating_cycle,
    NotCospectralError,
    Polynomial,
    catalog_two_eigenvalue_seeds,
    complete_bipartite,
    complete_graph,
    cospectral_demo,
    cycle_graph,
    default_cospectral_pair,
    distinct_count,
    edgeless,
    few_distinct_construct,
    format_graph,
    is_isomorphic,
    is_switching_isomorphic,
    matrix_of,
    neighbourhood_corona,
    numeric_spectrum,
    paper_example,
    parse_graph,
    path_graph,
    star_graph,
    unbalanced_c4,
    verify_theorem,
)
from sgcorona import experiments, linalg, spectra
from sgcorona.experiments import THEOREM_LABELS, DistinctReport
from sgcorona.spectra import CLOSED_FORMS, ClosedFormError, MatrixKind

ADJ = MatrixKind.ADJACENCY
LAP = MatrixKind.LAPLACIAN
NET = MatrixKind.NET_LAPLACIAN

PINNED_VERIFY = Path(__file__).with_name("verify_pinned.txt")


def flip_hk(monkeypatch):
    """Turns the factored side's hk into -hk: its second determinant, hs =
    det(a*I - b*(A2 - J)) after hp, comes back as 2*hp - hs, on the
    projective pairs (num, den)."""

    def flipped(s1, s2, a, b, det, real=spectra._factored_side):
        values = []

        def recording(upper):
            values.append(det(upper))
            if len(values) == 1:
                return values[0]
            (hn, hd), (sn, sd) = values
            return 2 * hn * sd - sn * hd, hd * sd

        return real(s1, s2, a, b, recording)

    monkeypatch.setattr(experiments, "_factored_side", flipped)


def pinned_verify_text() -> str:
    """The rendered verify report of every label for seeds 0-9 at max-n 6
    (20 trials) and seeds 0-1 at max-n 13 (8 trials), each under a header
    line naming its run."""
    runs = [(seed, 6, 20) for seed in range(10)] + [(seed, 13, 8) for seed in range(2)]
    parts = []
    for label in THEOREM_LABELS:
        for seed, max_n, trials in runs:
            result = verify_theorem(label, trials=trials, seed=seed, max_n=max_n)
            parts.append(f"=== {label} seed {seed} max-n {max_n} trials {trials}\n")
            parts.append(result.render() + "\n")
    return "".join(parts)


class TestDistinctReports:
    def test_c4_minus_has_two(self):
        report = distinct_count(unbalanced_c4(), ADJ)
        assert report.distinct_count == 2
        assert report.to_json()["bound"] is None

    def test_edgeless_has_one(self):
        assert distinct_count(edgeless(4), ADJ).distinct_count == 1

    def test_render_states_the_expected_count(self):
        """render() prints the exact count a few-distinct construction
        expects, with its verdict."""
        _, expected = few_distinct_construct(unbalanced_c4(), "K1")
        assert expected.render().splitlines()[2:] == ["  expected exactly 4: as expected"]
        unexpected = DistinctReport(expected.kind, expected.tol, expected.construction, expected.spectrum, 5)
        assert unexpected.render().splitlines()[2:] == ["  expected exactly 5: UNEXPECTED"]

    @pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan, math.inf])
    @pytest.mark.parametrize(
        "report",
        [
            lambda tol: distinct_count(unbalanced_c4(), ADJ, tol),
            # a corona report: tol 0 would cluster the seed's eigenvalues apart
            # and refuse it as "4 distinct", not name the tolerance
            lambda tol: few_distinct_construct(unbalanced_c4(), "K1", 1, tol),
        ],
        ids=["distinct_count", "few_distinct_construct"],
    )
    def test_tolerance_must_be_finite_and_positive(self, report, tol):
        with pytest.raises(ValueError, match="tolerance must be finite and positive"):
            report(tol)


class TestFewDistinct:
    def test_c4_minus_with_k1(self):
        corona, report = few_distinct_construct(unbalanced_c4(), "K1")
        assert corona.n == 8
        assert report.distinct_count == 4
        assert report.matches_expected
        phi_hi = math.sqrt(2) * (1 + math.sqrt(5)) / 2
        phi_lo = math.sqrt(2) * (math.sqrt(5) - 1) / 2
        got = sorted(v for v, _ in report.spectrum.pairs)
        for value, expected in zip(got, (-phi_hi, -phi_lo, phi_lo, phi_hi)):
            assert abs(value - expected) < 1e-9

    def test_c4_minus_with_k2(self):
        corona, report = few_distinct_construct(unbalanced_c4(), "K2", 1)
        assert corona.n == 12
        assert report.distinct_count == 5
        assert report.matches_expected

    def test_three_eigenvalue_seed_rejected(self):
        with pytest.raises(ValueError, match="has 3 distinct adjacency eigenvalues, need exactly 2"):
            few_distinct_construct(path_graph(3), "K1")

    def test_catalog(self):
        for name, seed in catalog_two_eigenvalue_seeds():
            for companion, sign, expected in (("K1", 1, 4), ("K2", 1, 5), ("K2", -1, 5)):
                _, report = few_distinct_construct(seed, companion, sign)
                assert report.distinct_count == expected, (name, companion, sign)


class TestArgumentTypes:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: few_distinct_construct(unbalanced_c4(), None), "companion must be K1 or K2, got None"),
            (lambda: few_distinct_construct(unbalanced_c4(), 1), "companion must be K1 or K2, got 1"),
            (lambda: verify_theorem("2.3", trials=2.5), "trials must be a positive int, got 2.5"),
            (lambda: verify_theorem("2.3", trials=True), "trials must be a positive int, got True"),
            (lambda: verify_theorem("2.3", trials=0), "trials must be a positive int, got 0"),
            (lambda: verify_theorem("2.3", max_n=2.5), "max-n must be a positive int, got 2.5"),
            (lambda: verify_theorem("2.3", max_n=True), "max-n must be a positive int, got True"),
            (lambda: verify_theorem("2.3", max_n=-1), "max-n must be a positive int, got -1"),
            # random.Random takes these, but None is unseeded, "7" hashes
            # the string rather than replaying seed 7, and [1] is unhashable
            (lambda: verify_theorem("2.3", seed=None), "seed must be an int, got None"),
            (lambda: verify_theorem("2.3", seed="7"), "seed must be an int, got '7'"),
            (lambda: verify_theorem("2.3", seed=[1]), "seed must be an int, got [1]"),
            (lambda: verify_theorem("2.3", seed=True), "seed must be an int, got True"),
            (lambda: verify_theorem("2.3", seed=7.0), "seed must be an int, got 7.0"),
            # random.Random(-7) replays seed 7, which would print as seed -7
            (lambda: verify_theorem("2.3", seed=-7), "seed must be at least 0, got -7"),
            # a str, None or a complex tolerance once raised TypeError, and
            # True passed as the tolerance 1
            (lambda: verify_theorem("2.3", tol="1e-6"), "tolerance must be finite and positive, got '1e-6'"),
            (lambda: verify_theorem("2.3", tol=None), "tolerance must be finite and positive, got None"),
            (lambda: verify_theorem("2.3", tol=1e-6j), "tolerance must be finite and positive, got 1e-06j"),
            (lambda: verify_theorem("2.3", tol=True), "tolerance must be finite and positive, got True"),
        ],
        ids=["companion None", "companion 1", "trials 2.5", "trials True", "trials 0",
             "max_n 2.5", "max_n True", "max_n -1",
             "seed None", "seed str", "seed list", "seed True", "seed 7.0", "seed -7",
             "tol str", "tol None", "tol complex", "tol True"],
    )
    def test_bad_argument_is_a_value_error(self, call, message):
        # a bool is an int to Python, but no count
        with pytest.raises(ValueError, match=re.escape(message)):
            call()

    @pytest.mark.parametrize("cap", [2.5, "x", None, True, 0, -1])
    @pytest.mark.parametrize(
        "call",
        [
            lambda cap: is_isomorphic(edgeless(3), edgeless(3), cap=cap),
            lambda cap: is_switching_isomorphic(edgeless(3), edgeless(4), cap=cap),
            lambda cap: cospectral_demo(*default_cospectral_pair(), edgeless(1), ADJ, cap=cap),
        ],
        ids=["is_isomorphic", "is_switching_isomorphic", "cospectral_demo"],
    )
    def test_bad_cap_is_a_graph_error(self, call, cap):
        # 2.5 once capped the search at 2 vertices and "x" raised TypeError
        with pytest.raises(GraphError, match=re.escape(f"isomorphism cap must be a positive int, got {cap!r}")):
            call(cap)


class TestCospectralDemo:
    def test_default_pair_adjacency(self):
        s1, s2 = default_cospectral_pair()
        cert = cospectral_demo(s1, s2, edgeless(1), ADJ)
        assert cert.ok
        assert not cert.isomorphic
        assert not cert.switching_isomorphic
        assert cert.corona_a.n == 10
        assert cert.factor_char_poly == Polynomial([0, 0, 0, -4, 0, 1])
        assert cert.corona_char_poly == Polynomial([0, 0, 0, 0, 0, 0, 16, 0, -12, 0, 1])

    def test_default_pair_not_laplacian_cospectral(self):
        s1, s2 = default_cospectral_pair()
        with pytest.raises(NotCospectralError):
            cospectral_demo(s1, s2, edgeless(1), LAP)

    def test_default_pair_not_netlap_cospectral(self):
        s1, s2 = default_cospectral_pair()
        with pytest.raises(NotCospectralError):
            cospectral_demo(s1, s2, edgeless(1), NET)

    def test_identical_factors_rejected(self):
        g = star_graph(4)
        with pytest.raises(IsomorphicInputsError):
            cospectral_demo(g, g, edgeless(1), ADJ)

    def test_nontrivial_companion(self):
        s1, s2 = default_cospectral_pair()
        cert = cospectral_demo(s1, s2, complete_graph(2, -1), ADJ, cap=15)
        assert cert.ok
        assert cert.corona_a.n == 15

    def test_cap_enforced(self):
        from sgcorona import GraphError

        s1, s2 = default_cospectral_pair()
        with pytest.raises(GraphError, match="isomorphism capped at 12 vertices"):
            cospectral_demo(s1, s2, complete_graph(2, -1), ADJ)


@pytest.fixture(scope="module")
def report():
    return paper_example()


class TestPaperExample:
    def test_exact_char_poly(self, report):
        assert report.char_poly == Polynomial(
            [196, 1120, 2412, 2096, -135, -1424, -604, 272, 202, -16, -24, 0, 1]
        )

    def test_minus_one_confirmed(self, report):
        assert report.minus_one_exact_multiplicity == 4
        assert report.minus_one_confirmed

    def test_closed_form_agrees_with_oracle(self, report):
        assert report.closed_form_agrees_numeric
        assert report.ok

    def test_published_values_do_not_reproduce(self, report):
        """Each printed value is decided by the exact multiplicity of its
        minimal polynomial in the char poly, so only -1^4 matches at every
        tol, also where the clustered float spectrum merges eigenvalues."""
        for r in [report] + [paper_example(tol) for tol in (1e-6, 1e-3, 0.2, 0.3, 1.0)]:
            assert [c.matched for c in r.printed_checks] == [True, False, False, False, False]
            assert r.printed_checks[0].value == -1.0
            assert not r.printed_reproduced
            assert r.minus_one_exact_multiplicity == 4

    def test_factor_multiplicity_against_sympy(self):
        """Exact multiplicity of a monic linear or quadratic factor planted to
        a power 0..3 in a random integer polynomial over 1, 2 or 6, against
        repeated sympy division."""
        import random

        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        rng = random.Random(18)
        seen = set()
        for _ in range(300):
            factor = tuple(rng.randint(-4, 4) for _ in range(rng.choice((1, 2)))) + (1,)
            base = [rng.randint(-6, 6) for _ in range(rng.randint(0, 5))] + [rng.choice((-2, -1, 1, 3))]
            f = sympy.Poly(list(reversed(factor)), t)
            p = sympy.Poly(list(reversed(base)), t) * f ** rng.randint(0, 3)
            expected = 0
            q = p
            while q.degree() >= f.degree():
                quo, rem = q.div(f)
                if not rem.is_zero:
                    break
                q = quo
                expected += 1
            # a rational multiple has the same multiplicity
            den = rng.choice((1, 2, 6))
            coeffs = [Fraction(int(c), den) for c in reversed(p.all_coeffs())]
            assert experiments._factor_multiplicity(Polynomial(coeffs), factor) == expected, (coeffs, factor)
            seen.add((len(factor) - 1, min(expected, 2)))
        assert seen == {(d, m) for d in (1, 2) for m in (0, 1, 2)}

    def test_five_distinct_eigenvalues(self, report):
        assert report.numeric.distinct_count == 5

    def test_render_mentions_verdicts(self, report):
        text = report.render()
        assert "confirms the published -1^4" in text
        assert "published values reproduce: no" in text


class TestGenerators:
    def test_regular_sampler_handles_dense_degrees(self):
        import random

        from sgcorona.experiments import _regular_pairs

        for seed in range(60):
            rng = random.Random(seed)
            assert len(_regular_pairs(rng, 5, 4)) == 10  # forced complete graph
            pairs = _regular_pairs(rng, 6, 4)
            degree = [0] * 6
            for u, v in pairs:
                degree[u] += 1
                degree[v] += 1
            assert degree == [4] * 6

    def test_regular_sampler_every_feasible_degree(self):
        # the rejection pairing alone fails from n = 12 with k near n/2
        import random

        from sgcorona.experiments import _regular_pairs

        for n in range(1, 14):
            for k in range(n):
                if (n * k) % 2:
                    continue
                for seed in range(20):
                    pairs = _regular_pairs(random.Random(seed), n, k)
                    degree = [0] * n
                    for u, v in pairs:
                        assert 0 <= u < v < n
                        degree[u] += 1
                        degree[v] += 1
                    assert degree == [k] * n, (n, k, seed)

    @pytest.mark.parametrize(
        "name, sample, expected",
        [
            ("random_regular_signed", experiments.random_regular_signed,
             "278f0d0851060580377b14c4aa406c943bfd8cc1266ea4272fc274a04018bb26"),
            ("random_net_regular", experiments.random_net_regular,
             "d4ddced042f07fd022e3f6c5fa9e8e24638b81d213772c2936fb3f93c2261e9c"),
            ("random_net_regular nonzero",
             lambda rng, n: experiments.random_net_regular(rng, n, nonzero=True),
             "f445d2f8f1412fcedf49e5e59442bc018d1ab825372c99abcd1236cb6bce20fb"),
            ("random_connected_positive", experiments.random_connected_positive,
             "9f5b4c48c85adbb301b5d9a30a67de05a88a301484d1d39e1f01bb0b3c29ee5c"),
            ("random_connected_signed", experiments.random_connected_signed,
             "394abe4f91282eb9646ba12bfe26bea5bbfbcc1c62a4c9362ff15288bfda4150"),
        ],
    )
    def test_sampler_stream_is_pinned(self, name, sample, expected):
        # 50 draws for every n (or max_n) from 1 to 13 and seeds 0-2: beyond the
        # max-n 6 of test_sampled_stream_is_pinned, into the Steger-Wormald range
        import random

        digest = hashlib.sha256()
        for n in range(1, 14):
            for seed in range(3):
                rng = random.Random(seed)
                for _ in range(50):
                    digest.update(format_graph(sample(rng, n)).encode())
        assert digest.hexdigest() == expected, name

    def test_seed_that_once_exhausted_the_sampler(self):
        for label in ("3.3", "3.4", "4.2", "5.1"):
            result = verify_theorem(label, trials=25, seed=99, max_n=5)
            assert result.ok, result.render()


class TestVerify:
    @pytest.mark.parametrize("label", THEOREM_LABELS)
    def test_all_theorems_pass_smoke(self, label):
        result = verify_theorem(label, trials=12, seed=3, max_n=4)
        assert result.ok, result.render()
        assert result.passed == result.trials

    def test_corona_with_large_zero_eigenspace(self):
        # coronas of order up to 273, one with a 131-fold eigenvalue 0: QL
        # must split the tridiagonal matrix inside that zero cluster
        result = verify_theorem("2.3", trials=3, seed=0, max_n=20)
        assert result.ok, result.render()

    def test_deterministic(self):
        a = verify_theorem("2.3", trials=10, seed=42)
        b = verify_theorem("2.3", trials=10, seed=42)
        assert a == b

    def test_render_pass_line(self):
        result = verify_theorem("2.2", trials=5, seed=1)
        assert "PASS 5/5" in result.render()

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            verify_theorem("9.9")

    @pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan, math.inf])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        # NaN would fail every comparison and inf pass every one; the CLI
        # refuses both in its argument parser, the library here
        with pytest.raises(ValueError, match="tolerance must be finite and positive"):
            verify_theorem("2.3", trials=3, tol=tol)

    @pytest.mark.parametrize("label", ["2.4", "2.5"])
    def test_bipartite_rows_pass_at_a_fine_tol(self, label):
        # K_{p,p} takes the two-root form, so no float cubic with a double
        # root reports a false counterexample
        result = verify_theorem(label, trials=20, seed=0, max_n=6, tol=1e-14)
        assert result.ok, result.render()

    def test_factorisation_check_lets_other_errors_through(self, monkeypatch):
        def broken(s1, s2, a, b, det):
            raise ValueError("not a pole")

        monkeypatch.setattr(experiments, "_factored_side", broken)
        with pytest.raises(ValueError, match="not a pole"):
            verify_theorem("2.2", trials=3, seed=0, max_n=4)

    @pytest.mark.parametrize("mutant", ["hk sign", "J to 2J"])
    def test_wrong_factored_side_fails_at_ci_settings(self, monkeypatch, mutant):
        # 2.2 as CI runs it (5 trials, seed 7, where every S1 has an edge)
        # and at seed 0 (one edgeless S1) against a wrong factored side:
        # every trial whose S1 has an edge, so that kappa is read, is a FAIL
        # line that dumps s1 and s2, and a trial that never reads kappa passes
        if mutant == "J to 2J":
            def doubled(s1, s2, a, b, det, real=spectra._factored_side):
                # the second determinant's triangle, a*I - b*(A2 - J),
                # gains b once more: a*I - b*(A2 - 2J)
                calls = []

                def shifted_again(upper):
                    calls.append(upper)
                    if len(calls) == 2:
                        upper = [[x + b for x in row] for row in upper]
                    return det(upper)

                return real(s1, s2, a, b, shifted_again)

            monkeypatch.setattr(experiments, "_factored_side", doubled)
        else:
            flip_hk(monkeypatch)
        corona_edges = experiments._corona_edges
        for seed in (7, 0):
            firsts = []

            def recording(s1, s2, firsts=firsts):
                firsts.append(s1)
                return corona_edges(s1, s2)

            monkeypatch.setattr(experiments, "_corona_edges", recording)
            result = verify_theorem("2.2", trials=5, seed=seed)
            assert len(firsts) == 5
            edgeless = [i for i, s1 in enumerate(firsts) if not s1.edges]
            assert bool(edgeless) == (seed == 0)
            assert f"theorem 2.2: FAIL {len(edgeless)}/5" in result.render()
            assert [f.trial for f in result.failures] == [i for i in range(5) if i not in edgeless]
            for failure in result.failures:
                assert failure.detail.startswith("factored value ")
                assert set(failure.graphs) == {"s1", "s2"}
                assert failure.graphs["s1"] == format_graph(firsts[failure.trial])

    def test_rows_read_the_corona_as_an_edge_list(self, monkeypatch):
        # every row but 5.2, whose report returns its corona, reads each
        # trial's corona from _corona_edges: with no SignedGraph of it to
        # be had, each reports what it reports with one
        labels = ("2.2", "2.3", "2.4", "2.5", "3.3", "3.4", "4.2", "5.1")
        expected = {label: verify_theorem(label, trials=5, seed=7) for label in labels}

        def refused(s1, s2):
            raise AssertionError("a verify row built the corona's SignedGraph")

        monkeypatch.setattr(experiments, "neighbourhood_corona", refused)
        for label in labels:
            assert verify_theorem(label, trials=5, seed=7) == expected[label], label

    def test_failure_dumps_are_pinned(self, monkeypatch):
        # the rendered text and JSON of 2.2's failing runs under the hk sign
        # mutant at the CI settings, seeds 0 and 7: each failure's detail
        # names both sides' residues and the point, and dumps the pair, byte
        # for byte as the check printed them when it divided every
        # determinant out
        flip_hk(monkeypatch)
        digest = hashlib.sha256()
        for seed in (0, 7):
            result = verify_theorem("2.2", trials=5, seed=seed)
            assert not result.ok
            digest.update(result.render().encode())
            digest.update(json.dumps(result.to_json(), sort_keys=True).encode())
        assert digest.hexdigest() == "ccee5d45e411aea662b738d5db15c301c67b30993b4a3db66eff832a5a82eff9"

    def test_factored_side_off_by_2_61_minus_1_fails(self, monkeypatch):
        # every determinant of the factored side, hp and hs, off by 2^61 - 1:
        # invisible modulo 2^61 - 1, so only a larger modulus fails each trial
        def off(upper, det):
            num, den = det(upper)
            return num + (2**61 - 1) * den, den

        def shifted(s1, s2, a, b, det, real=spectra._factored_side):
            return real(s1, s2, a, b, lambda upper: off(upper, det))

        monkeypatch.setattr(experiments, "_factored_side", shifted)
        for seed in (0, 7):
            result = verify_theorem("2.2", trials=5, seed=seed)
            assert "theorem 2.2: FAIL 0/5" in result.render()
            assert [f.trial for f in result.failures] == list(range(5))

    def test_one_point_of_2_127_minus_1_takes_two_points_of_2_61_minus_1(self):
        # 2.2 draws one point below 2^127 - 1; the stream then continues as
        # after two draws below 2^61 - 1, so the pairs sampled after it are
        # those of a check at two such points
        for seed in range(1000):
            one, two = random.Random(seed), random.Random(seed)
            one.randrange(2**127 - 1)
            two.randrange(2**61 - 1)
            two.randrange(2**61 - 1)
            assert one.getstate() == two.getstate()
        # one 2.2 case: its pair, then its point, drawn right after the pair
        rng, two = random.Random(5), random.Random(5)
        case = next(experiments.THEOREMS["2.2"].cases(rng, 1, 4, experiments._points(5)))
        assert case[:2] == (experiments._any_signed(two, 4), experiments._any_signed(two, 4))
        assert experiments._check_factorisation(case, 1e-6) is None
        two.randrange(2**61 - 1)
        two.randrange(2**61 - 1)
        assert rng.getstate() == two.getstate()

    def test_factorisation_failure_replays_from_its_dump(self, monkeypatch):
        # each failed 2.2 trial under the hk sign mutant at the CI settings
        # is checked again from its dumped pair and the point its detail
        # prints, with no trial stream, and fails with the same detail
        flip_hk(monkeypatch)
        check = experiments.THEOREMS["2.2"].check
        replayed = 0
        for seed in (0, 7):
            for failure in verify_theorem("2.2", trials=5, seed=seed).failures:
                t = int(re.search(r" at t0=(\d+) mod ", failure.detail).group(1))
                case = parse_graph(failure.graphs["s1"]), parse_graph(failure.graphs["s2"]), t
                assert check(case, 1e-6) == failure.detail
                replayed += 1
        assert replayed == 9  # 4 failures at seed 0 (one first factor is edgeless), 5 at seed 7

    @pytest.mark.parametrize(
        "label, mutant",
        [(label, False) for label in THEOREM_LABELS] + [("2.2", True)],
        ids=[*THEOREM_LABELS, "2.2-hk-sign-mutant"],
    )
    def test_checks_do_not_depend_on_call_order(self, monkeypatch, label, mutant):
        # every case drawn first, then checked last to first: the results are
        # verify_theorem's, trial by trial, so no check reads state that an
        # earlier check or draw left behind
        if mutant:
            flip_hk(monkeypatch)
        theorem = experiments.THEOREMS[label]
        for seed in (0, 7):
            cases = list(theorem.cases(random.Random(seed), 12, 6, experiments._points(seed)))
            backwards = [theorem.check(case, 1e-6) for case in reversed(cases)][::-1]
            result = verify_theorem(label, trials=12, seed=seed, max_n=6)
            details = {f.trial: f.detail for f in result.failures}
            assert backwards == [details.get(trial) for trial in range(result.trials)]

    @pytest.mark.parametrize("label, names", [("5.1", {"s1", "s2"}), ("5.2", {"seed"})])
    def test_kernel_fault_is_a_failed_trial(self, monkeypatch, label, names):
        # a fault of the eigensolver the row calls, _eigenvalues on 5.1's
        # factors or corona_spectrum (its trace check) on 5.2's coronas,
        # fails every trial, each dumping its graphs under the names the
        # row's failures use
        def drifted(*args):
            raise ArithmeticError("eigenvalue sum drifted away from the trace")

        seam = {"5.1": "_eigenvalues", "5.2": "corona_spectrum"}[label]
        monkeypatch.setattr(experiments, seam, drifted)
        result = verify_theorem(label, trials=3, seed=0)
        assert result.passed == 0 and len(result.failures) == result.trials
        for failure in result.failures:
            assert failure.detail == "check raised ArithmeticError: eigenvalue sum drifted away from the trace"
            assert set(failure.graphs) == names

    def test_failure_dump_contains_graphs(self):
        # force a failure by abusing the result type directly
        from sgcorona.experiments import TrialFailure, VerifyResult

        failure = TrialFailure(3, "boom", {"s1": "2\n0 1 +\n"})
        result = VerifyResult("2.3", 10, 9, (failure,), seed=0, max_n=5, tol=1e-6)
        text = result.render()
        assert "FAIL 9/10" in text
        assert "trial 3" in text
        assert "0 1 +" in text
        assert not result.ok

    def test_sampled_stream_is_pinned(self, monkeypatch):
        # Every factor pair each label samples, and the result it reports, for
        # a few seeds; a change to the order in which a driver consumes the
        # random stream changes this digest and so the seed-for-seed output.
        # 2.2 to 5.1 read each corona as an edge list, 5.2 as a SignedGraph.
        pairs = []

        def recording(real):
            def record(s1, s2):
                pairs.append(format_graph(s1) + format_graph(s2))
                return real(s1, s2)

            return record

        for name in ("_corona_edges", "neighbourhood_corona"):
            monkeypatch.setattr(experiments, name, recording(getattr(experiments, name)))
        digest = hashlib.sha256()
        for label in THEOREM_LABELS:
            for seed in (0, 7, 99, 1234):
                pairs.clear()
                result = verify_theorem(label, trials=12, seed=seed, max_n=6)
                digest.update(f"{label} {seed}\n".encode())
                digest.update("".join(pairs).encode())
                digest.update(json.dumps(result.to_json(), sort_keys=True).encode())
                digest.update(result.render().encode())
        assert digest.hexdigest() == "5c1cf2b439c7797eb68c0575204011a1f0cff0e3149d4990abc702b0bf435e8a"

    def test_rendered_output_is_pinned(self):
        # The CLI contract: verify output is byte-identical for a given seed.
        # Regenerate the file with pinned_verify_text() only for an intended
        # change of output.
        assert pinned_verify_text() == PINNED_VERIFY.read_text()


# kind and kpq sign of each closed-form row
CLOSED_FORM_ROWS = {"2.3": (ADJ, None), "2.4": (ADJ, -1), "2.5": (ADJ, 1), "3.3": (LAP, None), "3.4": (LAP, None), "4.2": (NET, None)}


class TestClosedFormPointChecks:
    """The closed-form rows check each case (s1, s2, t) against its factors
    alone: the realised form against the factor oracle, then the form's
    identity at the point t of GF(2^127 - 1), drawn from the run's point
    stream."""

    @staticmethod
    def cases(label, seed, trials, max_n):
        return list(experiments.THEOREMS[label].cases(random.Random(seed), trials, max_n, experiments._points(seed)))

    @staticmethod
    def identity(label, case, **reading):
        # the row's identity on a case; reading replaces table or lower
        kind, sign = CLOSED_FORM_ROWS[label]
        s1, s2, t = case
        rows1, shift, table, lower = spectra._form(s1, s2, kind, sign)
        reading = {"table": table, "lower": lower, **reading}
        return experiments._point_identity(s1, s2, kind, t, rows1, shift, reading["table"], reading["lower"])

    def test_rows_never_solve_the_corona(self, monkeypatch):
        # the six rows and 5.1 report what they report with numeric_spectrum,
        # experiments' one route to a whole-graph eigensolve, and the
        # corona_spectrum fallback's corona refused; on every case, every
        # matrix reduced to tridiagonal form, by corona_spectrum or by the
        # closed form's twin split, has order at most max(n1, n2 + 1), and
        # 5.1 takes t1, t2 and the corona's distinct count from one
        # reduction of each factor, M1 then M2
        labels = (*CLOSED_FORM_ROWS, "5.1")
        expected = {label: verify_theorem(label, trials=5, seed=7) for label in labels}

        def refused(*args):
            raise AssertionError("a verify row solved a graph's eigenproblem whole")

        orders = []

        def counted(a, real=linalg._tridiagonalize):
            orders.append(len(a))
            return real(a)

        assert not hasattr(experiments, "sym_eigenvalues") and not hasattr(experiments, "Matrix")
        monkeypatch.setattr(experiments, "numeric_spectrum", refused)
        monkeypatch.setattr(spectra, "neighbourhood_corona", refused)
        for module in (linalg, spectra):
            monkeypatch.setattr(module, "_tridiagonalize", counted)
        for label in labels:
            assert verify_theorem(label, trials=5, seed=7) == expected[label], label
            for s1, s2, *rest in self.cases(label, 7, 5, 5):
                orders.clear()
                assert experiments.THEOREMS[label].check((s1, s2, *rest), 1e-6) is None
                assert orders and max(orders) <= max(s1.n, s2.n + 1), (label, s1, s2, orders)
                assert label != "5.1" or orders == [s1.n, s2.n], (s1, s2, orders)

    @pytest.mark.parametrize(
        "s1, s2, kind, bound, corona",
        [
            (unbalanced_c4(), edgeless(1), ADJ, 5, 4),
            (complete_graph(2), path_graph(3), NET, 7, 5),
            # 4.2's closed form holds at net degree 0: t1 = 3, t2 = 4
            (alternating_cycle(4), unbalanced_c4(), NET, 10, 8),
            # the all-positive 3-path is neither regular nor net-regular, but
            # its Laplacian rows all sum to 0, which is all 3.3/3.4 need
            (complete_graph(3), path_graph(3), LAP, 7, 6),
            # C4- is not net-regular: no adjacency closed form, and no bound
            (complete_graph(2), unbalanced_c4(), ADJ, 6, 8),
        ],
        ids=["c4minus-k1-adj", "k2-p3-netlap", "altc4-c4minus-netlap", "k3-p3-lap", "k2-c4minus-adj"],
    )
    def test_bound_row_on_fixed_pairs(self, s1, s2, kind, bound, corona):
        # 5.1's check on the factors against the corona solved whole: the
        # bound holds on each pair CLOSED_FORMS[kind] accepts; on the one it
        # refuses the corona breaks it, and 5.1 refuses it as the closed form
        # does, through the same reading (spectra._form)
        assert 2 * numeric_spectrum(s1, kind).distinct_count + numeric_spectrum(s2, kind).distinct_count == bound
        assert numeric_spectrum(neighbourhood_corona(s1, s2), kind).distinct_count == corona
        detail = experiments._check_bound((s1, s2, 987654321, kind), 1e-6)
        if corona <= bound:
            CLOSED_FORMS[kind](s1, s2, 1e-6)
            assert detail is None
        else:
            with pytest.raises(ClosedFormError):
                CLOSED_FORMS[kind](s1, s2, 1e-6)
            assert detail == "closed form refused the factors: second factor must be net-regular"

    def test_points_come_from_their_own_stream(self):
        # a row's pairs are those its trial stream gave before the cases
        # carried a point: 5.1 draws the same pairs in turn from 2.3, 3.3 and
        # 4.2, each case its sub-row's with the sub-row's kind appended, so
        # its points are its sub-rows' points, the point stream's in turn
        for seed in (0, 7):
            rng = random.Random(seed)
            bound_cases = self.cases("5.1", seed, 12, 6)
            for label, case in zip(("2.3", "3.3", "4.2") * 4, bound_cases):
                s1, s2, t = next(experiments.THEOREMS[label].cases(rng, 1, 6, experiments._points(seed)))
                assert (s1, s2) == case[:2] and 0 <= t < 2**127 - 1
            points = experiments._points(seed)
            expected = [points.randrange(2**127 - 1) for _ in range(12)]
            assert [case[2] for case in self.cases("3.3", seed, 12, 6)] == expected
            assert [case[2] for case in bound_cases] == expected
            assert [case[3] for case in bound_cases] == [ADJ, LAP, NET] * 4

    @pytest.mark.parametrize("max_n", [6, 13])
    @pytest.mark.parametrize("label", list(CLOSED_FORM_ROWS))
    def test_identity_holds_on_sampled_cases(self, label, max_n):
        forms = set()
        for seed in (0, 1):
            for case in self.cases(label, seed, 10, max_n):
                assert self.identity(label, case) is None, (label, case)
                table = spectra._form(*case[:2], *CLOSED_FORM_ROWS[label])[2]
                assert all(type(g) is int for row in table for g in row), table
                forms.add(len(table))
        # 2.4 and 2.5 meet both forms: the cubic for p != q, the two-root one for p = q
        assert forms == ({3, 4} if CLOSED_FORM_ROWS[label][1] else {3})

    def test_printed_kpq_fails_exactly_with_unequal_parts_and_an_edge(self, monkeypatch):
        # the identity of 2.4's row read with the printed cubic constant
        # p*q*h*(2h - 1) (conftest.printed_kpq_coeffs, a table row) fails on
        # exactly the trials whose parts differ and whose first factor has an
        # edge; the closed form itself is the shipped one, so the float check
        # passes
        def printed(s1, s2, kind, sign=None, real=spectra._form):
            rows1, shift, table, lower = real(s1, s2, kind, sign)
            if len(table) == 4:  # the cubic, on parts p != q
                q = s2.degrees().degree[0]
                table = printed_kpq_coeffs(s2.n - q, q)
            return rows1, shift, table, lower

        monkeypatch.setattr(experiments, "_form", printed)
        refuted = 0
        for seed in range(4):
            result = verify_theorem("2.4", trials=25, seed=seed)
            expected = [
                trial for trial, (s, k, _) in enumerate(self.cases("2.4", seed, 25, 5))
                if 2 * k.degrees().degree[0] != k.n and s.edges
            ]
            assert [f.trial for f in result.failures] == expected
            assert all(f.detail.startswith("factored value ") for f in result.failures)
            refuted += len(expected)
        assert 0 < refuted < 100

    def test_zero_row_sum_reading_fails_exactly_where_k_is_not_zero(self):
        # 3.4 as printed, the two-root form's table at k = 0, on 3.3's cases,
        # whose second factors have the constant Laplacian row sum k = 2*neg:
        # the identity fails exactly where k != 0
        outcomes = set()
        for seed in range(4):
            for case in self.cases("3.3", seed, 25, 5):
                s1, s2, _ = case
                _, shift, table, lower = spectra._form(s1, s2, LAP)
                k = -lower[0] - shift  # lower is t - shift - k
                assert table == two_root_table(s2.n, shift, k)
                printed = two_root_table(s2.n, shift, 0)
                assert (self.identity("3.3", case, table=printed, lower=(-shift, 1)) is not None) == (k != 0)
                outcomes.add(k != 0)
        assert outcomes == {False, True}

    def test_a_constant_off_by_1_fails_every_trial(self, monkeypatch):
        # the constant g00 of every form's table off by 1 in its one source,
        # _form, which the printed floats and the identity share: the
        # identity alone fails every case of every closed-form row, the
        # cubic's g00 = 0 on 2.4's and 2.5's unequal parts included, and
        # every trial of those rows and of 5.1, which realises no closed
        # form, fails
        def off(s1, s2, kind, sign=None, real=spectra._form):
            rows1, shift, table, lower = real(s1, s2, kind, sign)
            (g00, *row), *rest = table
            return rows1, shift, ((g00 + 1, *row), *rest), lower

        forms = set()
        for label, (kind, sign) in CLOSED_FORM_ROWS.items():
            for case in self.cases(label, 7, 5, 5):
                table = off(*case[:2], kind, sign)[2]
                forms.add(len(table))
                assert self.identity(label, case, table=table).startswith("factored value "), (label, case)
        assert forms == {3, 4}
        for module in (spectra, experiments):
            monkeypatch.setattr(module, "_form", off)
        for label in (*CLOSED_FORM_ROWS, "5.1"):
            result = verify_theorem(label, trials=5, seed=7)
            assert [f.trial for f in result.failures] == list(range(5)), label
        assert all(f.detail.startswith("factored value ") for f in result.failures)

    def test_a_misread_k_fails_every_wrong_form_at_tol_1(self, monkeypatch):
        # the reading's k off by 2, so the closed form and the identity share
        # it: at tol 1 the float check passes and every failure is exact.
        # Where M1 != shift*I the identity fails; where M1 = shift*I (an
        # edgeless first factor) T(t) has L's roots, and the root check
        # fails unless k + 2 is an eigenvalue of M2, where the printed form
        # is the corona's spectrum after all
        real = spectra._form

        def misread(s1, s2, kind, sign=None):
            rows1, shift, _, lower = real(s1, s2, kind, sign)
            k = -shift - lower[0] + 2
            return rows1, shift, two_root_table(s2.n, shift, k), (-shift - k, 1)

        expected = {}
        for label in ("2.3", "3.3", "4.2"):
            kind = CLOSED_FORM_ROWS[label][0]
            for trial, (s1, s2, _) in enumerate(self.cases(label, 7, 20, 6)):
                rows1, shift, _, lower = misread(s1, s2, kind)
                if s1.edges:
                    expected[label, trial] = "factored value "
                elif min(abs(v + shift + lower[0]) for v in numeric_spectrum(s2, kind).values()) > 1e-9:
                    expected[label, trial] = "no eigenvalue of M2 "
        assert set(expected.values()) == {"factored value ", "no eigenvalue of M2 "}
        assert len(expected) == 59  # 2.3's trial 1 prints the corona's spectrum
        for module in (spectra, experiments):
            monkeypatch.setattr(module, "_form", misread)
        for label in ("2.3", "3.3", "4.2"):
            result = verify_theorem(label, trials=20, seed=7, max_n=6, tol=1)
            details = {(label, f.trial): f.detail for f in result.failures}
            assert details.keys() == {key for key in expected if key[0] == label}, label
            for key, detail in details.items():
                assert detail.startswith(expected[key]), (key, detail)

    def test_a_refused_reading_is_a_failed_trial(self, monkeypatch):
        # a closed form that takes factors its reading refuses: the row that
        # realises it and 5.1, which realises none, both fail the trial on
        # the reading's refusal, which never reaches verify_theorem
        s1, s2 = complete_graph(2), unbalanced_c4()  # C4- is not net-regular
        whole = numeric_spectrum(neighbourhood_corona(s1, s2), ADJ).pairs
        entries = tuple(spectra.ClosedFormEntry(multiplicity=m, value=v) for v, m in whole)
        monkeypatch.setitem(CLOSED_FORMS, ADJ, lambda a, b, tol: spectra.ClosedFormSpectrum("2.3", 10, entries))
        for label, case in (("2.3", (s1, s2, 987654321)), ("5.1", (s1, s2, 987654321, ADJ))):
            row = experiments.THEOREMS[label]
            monkeypatch.setitem(experiments.THEOREMS, label, experiments.Theorem(lambda *args, case=case: [case], row.check))
            result = verify_theorem(label, trials=1)
            assert [f.detail for f in result.failures] == ["closed form refused the factors: second factor must be net-regular"]


class TestPublishedReadingCertificates:
    """The two refuted published readings as exact polynomial certificates,
    each reading a table row of spectra._form's kind: its corona char poly,
    (det((t - shift)I - M2) / L(t))^n1 times the product of the row's
    polynomial over M1's eigenvalues mu, which is the resultant in mu
    against M1's char poly (sympy, here only), against the corona's
    _char_poly_int.  Both pairs are the smallest a shrinker reaches: K2+
    with the all-negative K_{1,2} (2.4) and with the all-negative K2 (3.4)."""

    @staticmethod
    def reading(s1, s2, kind, table, lower) -> list[int]:
        sympy = pytest.importorskip("sympy")
        t, mu = sympy.symbols("t mu")
        m1, m2 = (sympy.Matrix(matrix_of(s, kind)._rows) for s in (s1, s2))
        g = sum(t**j * (g0 + g1 * mu + g2 * mu**2) for j, (g0, g1, g2) in enumerate(table))
        product = sympy.resultant(m1.charpoly(mu).as_expr(), g, mu)
        kept, rest = sympy.div(
            sympy.Poly(m2.charpoly(t).as_expr().subs(t, t - m1[0, 0]), t),
            sympy.Poly(sum(c * t**j for j, c in enumerate(lower)), t),
        )
        assert rest.is_zero
        return [int(c) for c in reversed(sympy.Poly(product * kept.as_expr() ** s1.n, t).all_coeffs())]

    @staticmethod
    def corona(s1, s2, kind) -> list[int]:
        return linalg._char_poly_int(matrix_of(neighbourhood_corona(s1, s2), kind)._rows)

    def test_printed_2_4_differs_at_t4(self):
        # the printed constant p*q*h*(2h - 1): t^4 coefficient 21, the corona's 29
        s1, s2 = complete_graph(2), complete_bipartite(1, 2, -1)
        _, _, table, lower = spectra._form(s1, s2, ADJ, -1)
        corona = self.corona(s1, s2, ADJ)
        assert corona == [0, 0, 12, -40, 29, 8, -11, 0, 1]
        assert self.reading(s1, s2, ADJ, table, lower) == corona
        assert self.reading(s1, s2, ADJ, printed_kpq_coeffs(1, 2), lower) == [0, 0, 12, -40, 21, 8, -11, 0, 1]

    def test_3_4_at_zero_row_sum_differs_from_t0_to_t3(self):
        # the two-root form at k = 0 gives up t - shift: constant term 0, the
        # corona's 40, and t^3 coefficient -180, the corona's -188
        s1, s2 = complete_graph(2), complete_graph(2, -1)
        _, shift, table, lower = spectra._form(s1, s2, LAP)
        assert (shift, lower) == (1, (-3, 1))  # k = 2
        corona = self.corona(s1, s2, LAP)
        assert corona == [40, -158, 245, -188, 74, -14, 1]
        assert self.reading(s1, s2, LAP, table, lower) == corona
        assert self.reading(s1, s2, LAP, two_root_table(2, shift, 0), (-shift, 1)) == [0, -54, 189, -180, 74, -14, 1]

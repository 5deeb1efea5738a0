import hashlib
import json
import math

import pytest

from sgcorona import (
    HypothesisNotMetError,
    IsomorphicInputsError,
    NotCospectralError,
    Polynomial,
    catalog_two_eigenvalue_seeds,
    complete_graph,
    corona_distinct_report,
    cospectral_demo,
    cycle_graph,
    default_cospectral_pair,
    distinct_count,
    edgeless,
    few_distinct_construct,
    format_graph,
    paper_example,
    path_graph,
    star_graph,
    unbalanced_c4,
    verify_theorem,
)
from sgcorona import experiments
from sgcorona.experiments import THEOREM_LABELS
from sgcorona.spectra import MatrixKind

ADJ = MatrixKind.ADJACENCY
LAP = MatrixKind.LAPLACIAN
NET = MatrixKind.NET_LAPLACIAN


class TestDistinctReports:
    def test_c4_minus_has_two(self):
        report = distinct_count(unbalanced_c4(), ADJ)
        assert report.distinct_count == 2
        assert report.bound is None

    def test_edgeless_has_one(self):
        assert distinct_count(edgeless(4), ADJ).distinct_count == 1

    def test_corona_bound_recorded(self):
        report = corona_distinct_report(unbalanced_c4(), edgeless(1), ADJ)
        assert report.bound == 2 * 2 + 1
        assert report.distinct_count == 4
        assert report.bound_satisfied

    def test_bound_absent_when_hypotheses_fail(self):
        # second factor not net-regular: no adjacency bound applies
        report = corona_distinct_report(complete_graph(2), unbalanced_c4(), ADJ)
        assert report.bound is None

    def test_netlap_bound(self):
        report = corona_distinct_report(complete_graph(2), path_graph(3), NET)
        assert report.bound is not None
        assert report.bound_satisfied


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
        with pytest.raises(HypothesisNotMetError):
            few_distinct_construct(path_graph(3), "K1")

    def test_catalog(self):
        for name, seed in catalog_two_eigenvalue_seeds():
            for companion, sign, expected in (("K1", 1, 4), ("K2", 1, 5), ("K2", -1, 5)):
                _, report = few_distinct_construct(seed, companion, sign)
                assert report.distinct_count == expected, (name, companion, sign)


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
        from sgcorona import SizeLimitError

        s1, s2 = default_cospectral_pair()
        with pytest.raises(SizeLimitError):
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
        assert not report.printed_reproduced
        matched = [c for c in report.printed_checks if c.matched]
        assert len(matched) == 1 and matched[0].value == -1.0

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
        pairs = []
        corona = experiments.neighbourhood_corona

        def recording(s1, s2):
            pairs.append(format_graph(s1) + format_graph(s2))
            return corona(s1, s2)

        monkeypatch.setattr(experiments, "neighbourhood_corona", recording)
        digest = hashlib.sha256()
        for label in THEOREM_LABELS:
            for seed in (0, 7, 99, 1234):
                pairs.clear()
                result = verify_theorem(label, trials=12, seed=seed, max_n=6)
                digest.update(f"{label} {seed}\n".encode())
                digest.update("".join(pairs).encode())
                digest.update(json.dumps(result.to_json(), sort_keys=True).encode())
                digest.update(result.render().encode())
        assert digest.hexdigest() == "0a0524a69de111afe3a9b1e5b9160cb40292a1f7ce15fba94b19787d13b6c9f3"

import dataclasses
import hashlib
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest

from sgcorona import (
    IsomorphicInputsError,
    alternating_cycle,
    NotCospectralError,
    PoleError,
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

PINNED_VERIFY = Path(__file__).with_name("verify_pinned.txt")


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

    def test_bound_at_zero_net_degree(self):
        # 4.2's closed form holds at net degree 0, so 5.1 bounds it too:
        # t1 = 3 (net-Laplacian of the alternating 4-cycle), t2 = 4
        report = corona_distinct_report(alternating_cycle(4), unbalanced_c4(), NET)
        assert report.bound == 10
        assert report.bound_satisfied

    def test_bound_for_constant_laplacian_row_sum(self):
        # the all-positive 3-path is neither regular nor net-regular, but its
        # Laplacian rows all sum to 0, which is all 3.3/3.4 need: t1 = 2, t2 = 3
        report = corona_distinct_report(complete_graph(3), path_graph(3), LAP)
        assert report.bound == 7
        assert report.bound_satisfied


    def test_render_states_the_bound_and_the_expected_count(self):
        """render() prints the 5.1 bound of a corona report and the exact
        count a few-distinct construction expects, each with its verdict."""
        bounded = corona_distinct_report(unbalanced_c4(), edgeless(1), ADJ)
        assert bounded.render().splitlines()[2:] == ["  bound 2*t1 + t2 = 5: satisfied"]
        violated = dataclasses.replace(bounded, bound=3)
        assert violated.render().splitlines()[2:] == ["  bound 2*t1 + t2 = 3: VIOLATED"]
        _, expected = few_distinct_construct(unbalanced_c4(), "K1")
        assert expected.render().splitlines()[2:] == ["  expected exactly 4: as expected"]
        unexpected = dataclasses.replace(expected, expected_distinct=5)
        assert unexpected.render().splitlines()[2:] == ["  expected exactly 5: UNEXPECTED"]

    @pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan, math.inf])
    @pytest.mark.parametrize(
        "report",
        [
            lambda tol: distinct_count(unbalanced_c4(), ADJ, tol),
            lambda tol: corona_distinct_report(unbalanced_c4(), edgeless(1), ADJ, tol),
        ],
        ids=["distinct_count", "corona_distinct_report"],
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
        ],
        ids=["companion None", "companion 1", "trials 2.5", "trials True", "trials 0",
             "max_n 2.5", "max_n True", "max_n -1",
             "seed None", "seed str", "seed list", "seed True", "seed 7.0"],
    )
    def test_bad_argument_is_a_value_error(self, call, message):
        # a bool is an int to Python, but no count
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


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

    def test_factorisation_trial_fails_when_every_point_is_a_pole(self, monkeypatch):
        def poles(s1, s2):
            def at(t0):
                raise PoleError(f"t0 = {t0} is an adjacency eigenvalue of the second factor")

            return at

        monkeypatch.setattr(experiments, "_factored_points", poles)
        result = verify_theorem("2.2", trials=3, seed=0, max_n=4)
        assert result.passed == 0
        assert [f.detail for f in result.failures] == [
            "only 0 of 5 points avoided the poles of the second factor"
        ] * 3

    def test_factorisation_check_lets_other_errors_through(self, monkeypatch):
        def broken(s1, s2):
            def at(t0):
                raise ValueError("not a pole")

            return at

        monkeypatch.setattr(experiments, "_factored_points", broken)
        with pytest.raises(ValueError, match="not a pole"):
            verify_theorem("2.2", trials=3, seed=0, max_n=4)

    @pytest.mark.parametrize("label, names", [("5.1", {"s1", "s2"}), ("5.2", {"seed"})])
    def test_kernel_fault_is_a_failed_trial(self, monkeypatch, label, names):
        # a fault that trips sym_eigenvalues' trace check fails every trial,
        # each dumping its graphs under the names the row's failures use
        def drifted(*args):
            raise ArithmeticError("eigenvalue sum drifted away from the trace")

        monkeypatch.setattr(experiments, "numeric_spectrum", drifted)
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

    def test_rendered_output_is_pinned(self):
        # The CLI contract: verify output is byte-identical for a given seed.
        # Regenerate the file with pinned_verify_text() only for an intended
        # change of output.
        assert pinned_verify_text() == PINNED_VERIFY.read_text()

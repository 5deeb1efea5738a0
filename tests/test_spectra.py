import math
import random
from fractions import Fraction

import pytest

from conftest import charpoly_faddeev, permuted, poly_at, scaled
from sgcorona import (
    ClosedFormError,
    ComplexRootsError,
    GraphError,
    Matrix,
    PoleError,
    Polynomial,
    SignedGraph,
    SpectrumMultiset,
    closed_form_adjacency,
    closed_form_adjacency_kpq,
    closed_form_laplacian,
    closed_form_netlaplacian,
    complete_bipartite,
    complete_graph,
    corona_adjacency_charpoly_eval,
    cycle_graph,
    det_exact_at,
    edgeless,
    kronecker_product,
    kronecker_sum,
    matrix_of,
    neighbourhood_corona,
    netlaplacian_switching_witness,
    numeric_spectrum,
    path_graph,
    realize,
    spectra,
    spectra_equal,
    star_graph,
    unbalanced_c4,
)
from sgcorona.experiments import THEOREMS, random_connected_signed, random_signed_graph
from sgcorona.linalg import _char_poly_int
from sgcorona.spectra import MatrixKind

ADJ = MatrixKind.ADJACENCY
LAP = MatrixKind.LAPLACIAN
NET = MatrixKind.NET_LAPLACIAN


class TestMatrixOf:
    def test_k2_positive(self):
        g = complete_graph(2)
        assert matrix_of(g, ADJ) == Matrix([[0, 1], [1, 0]])
        assert matrix_of(g, LAP) == Matrix([[1, -1], [-1, 1]])
        assert matrix_of(g, NET) == Matrix([[1, -1], [-1, 1]])

    def test_k2_negative(self):
        g = complete_graph(2, -1)
        assert matrix_of(g, ADJ) == Matrix([[0, -1], [-1, 0]])
        assert matrix_of(g, LAP) == Matrix([[1, 1], [1, 1]])
        assert matrix_of(g, NET) == Matrix([[-1, 1], [1, -1]])

    def test_row_sums(self):
        rng = random.Random(9)
        for _ in range(20):
            g = random_signed_graph(rng, rng.randint(1, 6))
            prof = g.degrees()
            lap = matrix_of(g, LAP)
            net = matrix_of(g, NET)
            for i in range(g.n):
                assert sum(lap[i, j] for j in range(g.n)) == 2 * prof.neg_degree[i]
                assert sum(net[i, j] for j in range(g.n)) == 0

    def test_kind_parse(self):
        assert MatrixKind("adj") is ADJ
        assert MatrixKind("netlap") is NET
        with pytest.raises(ValueError):
            MatrixKind("spectral")


class TestNumericSpectrum:
    def test_c4_minus_adjacency(self):
        spec = numeric_spectrum(unbalanced_c4(), ADJ)
        s2 = math.sqrt(2)
        assert spectra_equal(spec, SpectrumMultiset(((-s2, 2), (s2, 2))), 1e-9)

    def test_balanced_laplacian_kernel(self):
        g = cycle_graph(5).switch({1, 3})
        assert g.is_balanced()
        assert det_exact_at(matrix_of(g, LAP), 0) == 0

    def test_unbalanced_laplacian_has_no_kernel(self):
        assert det_exact_at(matrix_of(unbalanced_c4(), LAP), 0) != 0

    def test_netlaplacian_always_singular(self):
        rng = random.Random(13)
        for _ in range(10):
            g = random_signed_graph(rng, rng.randint(1, 6))
            assert det_exact_at(matrix_of(g, NET), 0) == 0


# The corona's matrix assembled from blocks: an oracle for neighbourhood_corona
# that shares no code with it.


def block_matrix(blocks) -> Matrix:
    """Assemble a matrix from a 2-D grid of conforming blocks."""
    rows = []
    for band in blocks:
        height = band[0].rows
        if any(b.rows != height for b in band):
            raise ValueError("blocks in a band must share their row count")
        for i in range(height):
            row = []
            for b in band:
                row.extend(b[i, j] for j in range(b.cols))
            rows.append(row)
    return Matrix(rows)


def corona_vertex_permutation(n1: int, n2: int):
    """Relabelling from the block layout used by :func:`assemble_corona_blocks`
    (s1's vertices, then all copies of s2-vertex 0, of s2-vertex 1, ...) to the
    corona's own layout (s1's vertices, then copy 0, copy 1, ...)."""
    perm = list(range(n1))
    perm.extend(n1 + j * n2 + i for i in range(n2) for j in range(n1))
    return tuple(perm)


def assemble_corona_blocks(s1, s2, kind) -> Matrix:
    """The corona's matrix built directly from four structured blocks.

    With A1 the adjacency of s1 and J^T the 1 x n2 all-ones row, the block
    form is [[TL, J^T (x) A1], [(J^T (x) A1)^T, BR]] where for the adjacency
    TL = A1 and BR = A2 (x) I; for the (net-)Laplacian the off-diagonal blocks
    are negated, TL gains n2 times the (net-)degree diagonal, and BR is the
    Kronecker sum of that diagonal with s2's matrix.  It equals the matrix of
    the constructed corona after :func:`corona_vertex_permutation`.
    """
    if s1.n < 1:
        raise GraphError("corona needs a non-empty first factor")
    n1, n2 = s1.n, s2.n
    a1 = matrix_of(s1, MatrixKind.ADJACENCY)
    join = kronecker_product(Matrix.ones(1, n2), a1)
    if kind is MatrixKind.ADJACENCY:
        tl = a1
        tr = join
        br = kronecker_product(matrix_of(s2, MatrixKind.ADJACENCY), Matrix.identity(n1))
    else:
        prof = s1.degrees()
        diag_vals = prof.degree if kind is MatrixKind.LAPLACIAN else prof.net_degree
        d1 = Matrix([[diag_vals[i] if i == j else 0 for j in range(n1)] for i in range(n1)])
        tl = matrix_of(s1, kind) + scaled(n2, d1)
        tr = scaled(-1, join)
        br = kronecker_sum(d1, matrix_of(s2, kind))
    bl = Matrix([[tr[i, j] for i in range(tr.rows)] for j in range(tr.cols)])
    return block_matrix([[tl, tr], [bl, br]])


class TestBlockAssembly:
    def test_matches_direct_construction(self):
        rng = random.Random(77)
        for _ in range(25):
            s1 = random_signed_graph(rng, rng.randint(1, 4))
            s2 = random_signed_graph(rng, rng.randint(1, 4))
            perm = corona_vertex_permutation(s1.n, s2.n)
            for kind in (ADJ, LAP, NET):
                direct = matrix_of(neighbourhood_corona(s1, s2), kind)
                assert permuted(direct, perm) == assemble_corona_blocks(s1, s2, kind)

    def test_k1_copy_block_is_zero(self):
        s1 = unbalanced_c4()
        blocks = assemble_corona_blocks(s1, edgeless(1), ADJ)
        for i in range(4, 8):
            for j in range(4, 8):
                assert blocks[i, j] == 0

    def test_edgeless_first_factor_has_no_join(self):
        blocks = assemble_corona_blocks(edgeless(3), complete_graph(2), ADJ)
        for i in range(3):
            for j in range(3, 9):
                assert blocks[i, j] == 0


class TestCharpolyFactorisation:
    def test_specific_point(self):
        s1 = complete_graph(2)
        s2 = edgeless(1)
        direct = det_exact_at(matrix_of(neighbourhood_corona(s1, s2), ADJ), 3)
        assert corona_adjacency_charpoly_eval(s1, s2, 3) == direct

    def test_edgeless_first_factor_reduces(self):
        s1 = edgeless(3)
        s2 = complete_graph(2, -1)
        t0 = Fraction(5, 2)
        psi2 = det_exact_at(matrix_of(s2, ADJ), t0)
        assert corona_adjacency_charpoly_eval(s1, s2, t0) == psi2**3 * t0**3

    def test_pole_detected(self):
        with pytest.raises(PoleError):
            corona_adjacency_charpoly_eval(complete_graph(2), complete_graph(2), 1)

    def test_random_rational_points(self):
        rng = random.Random(19)
        for _ in range(15):
            s1 = random_signed_graph(rng, rng.randint(1, 4))
            s2 = random_signed_graph(rng, rng.randint(1, 4))
            m = matrix_of(neighbourhood_corona(s1, s2), ADJ)
            points = 0
            while points < 4:
                t0 = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                try:
                    lhs = corona_adjacency_charpoly_eval(s1, s2, t0)
                except PoleError:
                    continue
                points += 1
                assert lhs == det_exact_at(m, t0)

    def test_against_faddeev_on_interleaved_pairs(self):
        # The pairs are visited A, B, A, and every call gets copies of the pair
        # built for it alone: a set-up kept for the wrong pair gives a value
        # other than the Faddeev-LeVerrier char poly of the corona.
        # Neighbours in the list share their orders, so a set-up keyed on the
        # orders goes stale too.
        rng = random.Random(31)
        pairs = [
            (random_signed_graph(rng, n1), random_signed_graph(rng, n2))
            for n1, n2 in ((3, 4), (2, 0), (4, 3), (5, 2), (1, 5))
            for _ in range(2)
        ]
        pairs[0] = (edgeless(3), pairs[0][1])
        assert all(p != q for p, q in zip(pairs, pairs[1:]))
        oracles = [
            (
                charpoly_faddeev(matrix_of(s2, ADJ)),
                charpoly_faddeev(matrix_of(neighbourhood_corona(s1, s2), ADJ)),
            )
            for s1, s2 in pairs
        ]

        def evaluate(k, t0):
            s1, s2 = (SignedGraph(g.n, g.edges) for g in pairs[k])
            assert (s1, s2) == pairs[k] and s1 is not pairs[k][0]
            return corona_adjacency_charpoly_eval(s1, s2, t0)

        poles = 0
        for i in range(len(pairs) - 1):
            for k in (i, i + 1, i):
                psi2, corona = oracles[k]
                for t0 in (
                    Fraction(rng.randint(-3, 3)),
                    Fraction(-rng.getrandbits(40), rng.getrandbits(40) | 1),
                    Fraction(rng.getrandbits(40), rng.getrandbits(40) | 1),
                ):
                    if poly_at(psi2, t0) == 0:
                        poles += 1
                        with pytest.raises(PoleError):
                            evaluate(k, t0)
                    else:
                        assert evaluate(k, t0) == poly_at(corona, t0)
        assert poles > 0

    def test_set_up_once_per_pair_value(self, monkeypatch):
        calls = []

        def counted(rows):
            calls.append(len(rows))
            return _char_poly_int(rows)

        def copy(pair):
            return tuple(SignedGraph(g.n, g.edges) for g in pair)

        a = (path_graph(4), cycle_graph(5, -1))
        b = (complete_graph(3), star_graph(3))
        corona_adjacency_charpoly_eval(*a, 2)
        monkeypatch.setattr(spectra, "_char_poly_int", counted)
        for pair, t0 in ((copy(a), 3), (copy(b), 3), (copy(b), 7), (copy(a), 5)):
            corona_adjacency_charpoly_eval(*pair, t0)
        assert calls == [4, 4, 5, 5]

    def test_pole_exactly_at_psi2_roots(self):
        cases = ((complete_graph(2), {-1, 1}), (complete_graph(3, -1), {-2, 1}), (edgeless(2), {0}))
        for s2, roots in cases:
            for t0 in (Fraction(k, 2) for k in range(-6, 7)):
                if t0 in roots:
                    with pytest.raises(PoleError):
                        corona_adjacency_charpoly_eval(path_graph(3), s2, t0)
                else:
                    corona_adjacency_charpoly_eval(path_graph(3), s2, t0)


class TestClosedFormAdjacency:
    def test_worked_example_values(self):
        cf = closed_form_adjacency(unbalanced_c4(), complete_graph(2))
        assert cf.theorem == "2.3"
        assert cf.total_multiplicity == 12
        expected = SpectrumMultiset(
            (
                (-2.5431518966, 2),
                (-1.0, 4),
                (-0.8035879293, 2),
                (2.1289383342, 2),
                (3.2178014917, 2),
            )
        )
        assert spectra_equal(realize(cf), expected, 1e-9)
        oracle = numeric_spectrum(neighbourhood_corona(unbalanced_c4(), complete_graph(2)), ADJ)
        assert spectra_equal(realize(cf), oracle, 1e-6)

    def test_edgeless_first_factor_collapses(self):
        s2 = complete_graph(2, -1)  # net-regular with net degree -1
        cf = closed_form_adjacency(edgeless(3), s2)
        realized = realize(cf)
        # quadratic for eigenvalue 0 degenerates to roots {0, r2}
        expected = SpectrumMultiset.from_values([1.0] * 3 + [0.0] * 3 + [-1.0] * 3)
        assert spectra_equal(realized, expected, 1e-9)

    def test_rejects_non_net_regular(self):
        with pytest.raises(ClosedFormError, match="second factor must be net-regular"):
            closed_form_adjacency(complete_graph(2), unbalanced_c4())

    def test_json_schema(self):
        cf = closed_form_adjacency(complete_graph(2), edgeless(1))
        doc = cf.to_json()
        assert all(item["theorem"] == "2.3" for item in doc)
        kinds = {item["kind"] for item in doc}
        assert kinds <= {"inherited", "poly"}
        for item in doc:
            assert ("value" in item) != ("coeffs" in item)


class TestClosedFormBipartite:
    def test_zero_eigenvalue_cubic(self):
        # an edgeless seed has only the eigenvalue 0: cubic t^3 - pq t
        cf = closed_form_adjacency_kpq(edgeless(2), 2, 2, -1)
        realized = realize(cf)
        expected = SpectrumMultiset.from_values([0.0] * 6 + [2.0, -2.0, 2.0, -2.0])
        assert spectra_equal(realized, expected, 1e-9)
        oracle = numeric_spectrum(
            neighbourhood_corona(edgeless(2), complete_bipartite(2, 2, -1)), ADJ
        )
        assert spectra_equal(realized, oracle, 1e-6)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 2)])
    def test_default_variant_matches_oracle(self, p, q, sign):
        s = complete_graph(2)
        cf = closed_form_adjacency_kpq(s, p, q, sign)
        assert cf.theorem == ("2.5" if sign > 0 else "2.4")
        corona = neighbourhood_corona(s, complete_bipartite(p, q, sign))
        assert spectra_equal(realize(cf), numeric_spectrum(corona, ADJ), 1e-6)

    def test_printed_variant_fails_for_nonzero_eigenvalues(self):
        s = complete_graph(2)
        corona = neighbourhood_corona(s, complete_bipartite(1, 1, -1))
        oracle = numeric_spectrum(corona, ADJ)
        cf = closed_form_adjacency_kpq(s, 1, 1, -1, variant="printed")
        try:
            assert not spectra_equal(realize(cf), oracle, 1e-6)
        except ComplexRootsError:
            pass  # the printed cubic need not even have three real roots

    def test_printed_variant_equals_derived_for_positive_sign(self):
        s = unbalanced_c4()
        a = closed_form_adjacency_kpq(s, 2, 1, 1, variant="derived")
        b = closed_form_adjacency_kpq(s, 2, 1, 1, variant="printed")
        assert a == b

    def test_multiplicity_accounting(self):
        s = unbalanced_c4()
        cf = closed_form_adjacency_kpq(s, 2, 2, 1)
        assert cf.total_multiplicity == 4 * (2 + 2 + 1)


class TestClosedFormLaplacian:
    def test_c4_with_k1(self):
        cf = closed_form_laplacian(cycle_graph(4), edgeless(1))
        assert cf.theorem == "3.3"
        expected = SpectrumMultiset.from_values(
            [0.0, 4 - 2 * math.sqrt(2), 2.0, 2.0, 4.0, 4.0, 4.0, 4 + 2 * math.sqrt(2)]
        )
        assert spectra_equal(realize(cf), expected, 1e-9)
        oracle = numeric_spectrum(neighbourhood_corona(cycle_graph(4), edgeless(1)), LAP)
        assert spectra_equal(realize(cf), oracle, 1e-6)

    def test_zero_in_spectrum_iff_survives(self):
        # an all-positive second factor keeps the row-sum constant at zero, so
        # a balanced regular first factor keeps 0 in the corona spectrum
        cf = closed_form_laplacian(cycle_graph(4), path_graph(3))
        assert cf.theorem == "3.4"
        assert min(realize(cf).values()) == pytest.approx(0.0, abs=1e-9)

    def test_irregular_all_positive_second_factor(self):
        s1 = cycle_graph(3)
        s2 = star_graph(2)  # path on 3 vertices: connected, all-positive, irregular
        cf = closed_form_laplacian(s1, s2)
        oracle = numeric_spectrum(neighbourhood_corona(s1, s2), LAP)
        assert spectra_equal(realize(cf), oracle, 1e-6)

    def test_rejects_irregular_first_factor(self):
        with pytest.raises(ClosedFormError, match="first factor must be degree-regular"):
            closed_form_laplacian(star_graph(2), edgeless(1))

    def test_edgeless_first_factor(self):
        # r1 = 0, which the paper excludes; the two-root form still holds
        s1, s2 = edgeless(3), complete_graph(2, -1)
        oracle = numeric_spectrum(neighbourhood_corona(s1, s2), LAP)
        assert spectra_equal(realize(closed_form_laplacian(s1, s2)), oracle, 1e-9)

    def test_rejects_inconstant_row_sum(self):
        s2 = path_graph(3).switch({0})  # negative degrees 1, 1, 0
        with pytest.raises(ClosedFormError, match="needs a constant Laplacian row sum"):
            closed_form_laplacian(cycle_graph(4), s2)

    def test_balanced_negative_factor_needs_row_sum_correction(self):
        """A balanced-but-negative second factor: the zero-row-sum reading is
        refuted by the oracle, the detected row sum k = 2 is confirmed."""
        s1, s2 = complete_graph(2), complete_graph(2, -1)
        oracle = numeric_spectrum(neighbourhood_corona(s1, s2), LAP)
        assert spectra_equal(oracle, SpectrumMultiset(((1.0, 3), (2.0, 1), (4.0, 1), (5.0, 1))), 1e-6)
        corrected = closed_form_laplacian(s1, s2)
        assert corrected.theorem == "3.3"
        assert spectra_equal(realize(corrected), oracle, 1e-6)
        literal = closed_form_laplacian(s1, s2, force_zero_row_sum=True)
        assert literal.theorem == "3.4"
        assert not spectra_equal(realize(literal), oracle, 1e-6)


class TestClosedFormNetLaplacian:
    def test_k2_with_k1(self):
        cf = closed_form_netlaplacian(complete_graph(2), edgeless(1))
        assert cf.theorem == "4.2"
        expected = SpectrumMultiset.from_values([0.0, 2 - math.sqrt(2), 2.0, 2 + math.sqrt(2)])
        assert spectra_equal(realize(cf), expected, 1e-9)
        oracle = numeric_spectrum(neighbourhood_corona(complete_graph(2), edgeless(1)), NET)
        assert spectra_equal(realize(cf), oracle, 1e-6)

    def test_zero_eigenvalue_quadratic(self):
        # eigenvalue 0 of the first factor contributes {0, (n2+1) r}
        s1 = complete_graph(3, -1)  # net-regular with r = -2
        s2 = complete_graph(2)
        cf = closed_form_netlaplacian(s1, s2)
        vals = realize(cf).values()
        assert min(abs(v) for v in vals) < 1e-9
        assert any(abs(v - (2 + 1) * -2) < 1e-9 for v in vals)
        oracle = numeric_spectrum(neighbourhood_corona(s1, s2), NET)
        assert spectra_equal(realize(cf), oracle, 1e-6)

    def test_rejects_not_net_regular(self):
        with pytest.raises(ClosedFormError, match="first factor must be net-regular"):
            closed_form_netlaplacian(path_graph(3), edgeless(1))

    def test_zero_net_degree(self):
        # r = 0, which the paper excludes; the two-root form still holds
        from sgcorona import alternating_cycle

        s1 = alternating_cycle(4)
        for s2 in (edgeless(1), complete_graph(3, -1), unbalanced_c4(), path_graph(3)):
            oracle = numeric_spectrum(neighbourhood_corona(s1, s2), NET)
            assert spectra_equal(realize(closed_form_netlaplacian(s1, s2)), oracle, 1e-9)


class TestPublishedCoefficients:
    """Each wrapper's quadratics against the ones the paper prints, written out
    per theorem, so the shared two-root form is shown to be the published one."""

    @staticmethod
    def published(label, s1, s2, mu):
        """(c0, c1) of t^2 + c1*t + c0 for the M1-eigenvalue mu."""
        n2 = s2.n
        if label == "2.3":
            r2 = s2.net_regularity()
            return mu * r2 - n2 * mu**2, -(mu + r2)
        if label in ("3.3", "3.4"):
            r1, k = s1.regularity(), 2 * s2.degrees().neg_degree[0]
            return (mu + r1 * n2) * (r1 + k) - n2 * (mu - r1) ** 2, -(r1 + k + mu + r1 * n2)
        r = s1.net_regularity()
        return mu * ((2 * n2 + 1) * r - n2 * mu), -(mu + (n2 + 1) * r)

    @pytest.mark.parametrize(
        "label, closed_form, kind",
        [
            ("2.3", closed_form_adjacency, ADJ),
            ("3.3", closed_form_laplacian, LAP),
            ("3.4", closed_form_laplacian, LAP),
            ("4.2", closed_form_netlaplacian, NET),
        ],
        ids=["2.3", "3.3", "3.4", "4.2"],
    )
    def test_coefficients_are_the_published_ones(self, label, closed_form, kind):
        for seed in range(5):
            for s1, s2 in THEOREMS[label].cases(random.Random(seed), 20, 8):
                quads = [e for e in closed_form(s1, s2).entries if e.coeffs is not None]
                pairs = numeric_spectrum(s1, kind).pairs
                assert [e.multiplicity for e in quads] == [m for _, m in pairs]
                for e, (mu, _) in zip(quads, pairs):
                    want = (*self.published(label, s1, s2, mu), 1.0)
                    scale = max(map(abs, want))
                    assert all(abs(got - w) <= 1e-12 * scale for got, w in zip(e.coeffs, want)), (e, want)


class TestRealize:
    def test_inherited_only(self):
        from sgcorona import ClosedFormEntry, ClosedFormSpectrum

        cf = ClosedFormSpectrum("2.3", 3, (ClosedFormEntry(multiplicity=3, value=1.5),))
        assert realize(cf).pairs == ((1.5, 3),)

    def test_total_multiplicity_guard(self):
        from sgcorona import ClosedFormEntry, ClosedFormSpectrum

        with pytest.raises(ArithmeticError):
            ClosedFormSpectrum("2.3", 4, (ClosedFormEntry(multiplicity=3, value=1.5),))


class TestSwitchingInvariance:
    def test_adjacency_and_laplacian_invariant(self):
        rng = random.Random(101)
        for _ in range(15):
            g = random_signed_graph(rng, rng.randint(1, 6))
            x = {v for v in range(g.n) if rng.random() < 0.5}
            h = g.switch(x)
            assert spectra_equal(numeric_spectrum(g, ADJ), numeric_spectrum(h, ADJ), 1e-8)
            assert spectra_equal(numeric_spectrum(g, LAP), numeric_spectrum(h, LAP), 1e-8)

    def test_netlaplacian_witness(self):
        g, x = netlaplacian_switching_witness()
        before = numeric_spectrum(g, NET)
        after = numeric_spectrum(g.switch(x), NET)
        s3 = math.sqrt(3)
        assert spectra_equal(before, SpectrumMultiset(((0.0, 1), (1.0, 1), (3.0, 1))), 1e-9)
        assert spectra_equal(after, SpectrumMultiset(((-s3, 1), (0.0, 1), (s3, 1))), 1e-9)
        assert not spectra_equal(before, after, 1e-6)


class TestLaplacianKernelIsBalance:
    def test_random_connected_graphs(self):
        rng = random.Random(55)
        for _ in range(30):
            g = random_connected_signed(rng, rng.randint(1, 6))
            singular = det_exact_at(matrix_of(g, LAP), 0) == 0
            assert singular == g.is_balanced()

    def test_random_coronas(self):
        # a connected first factor on >= 2 vertices makes the corona connected
        rng = random.Random(56)
        for _ in range(20):
            s1 = random_connected_signed(rng, rng.randint(2, 4))
            s2 = random_signed_graph(rng, rng.randint(1, 4))
            corona = neighbourhood_corona(s1, s2)
            assert corona.is_connected()
            singular = det_exact_at(matrix_of(corona, LAP), 0) == 0
            assert singular == corona.is_balanced()

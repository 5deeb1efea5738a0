import math
import random
import re
from fractions import Fraction

import pytest

from conftest import charpoly_faddeev, is_connected, permuted, poly_at, printed_kpq, scaled, two_root_table
from sgcorona import (
    ClosedFormError,
    ComplexRootsError,
    GraphError,
    Matrix,
    PoleError,
    Polynomial,
    SignedGraph,
    SpectrumMultiset,
    alternating_cycle,
    closed_form_adjacency,
    closed_form_adjacency_kpq,
    closed_form_laplacian,
    closed_form_netlaplacian,
    complete_bipartite,
    complete_graph,
    corona_adjacency_charpoly_eval,
    corona_spectrum,
    cycle_graph,
    det_exact_at,
    distinct_count,
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
    sym_eigenvalues,
    unbalanced_c4,
)
from sgcorona import experiments, linalg
from sgcorona.experiments import (
    THEOREMS,
    _points,
    random_connected_signed,
    random_net_regular,
    random_regular_signed,
    random_signed_graph,
    verify_theorem,
)
from sgcorona.graphs import _corona_edges
from sgcorona.linalg import _det_int, _det_mod, _pencil
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

    def test_one_matrix_writer(self):
        # matrix_of is the Matrix of _matrix_rows, which takes the edges in
        # any order: a graph's shuffled edges and a corona's unsorted edge
        # list, as the verify rows pass it, give the same rows
        rng = random.Random(44)
        for n in range(14):
            s2 = random_signed_graph(rng, n)
            s1 = random_signed_graph(rng, rng.randint(1, 6))
            shuffled = list(s2.edges)
            rng.shuffle(shuffled)
            corona = neighbourhood_corona(s1, s2)
            for kind in MatrixKind:
                for g, edges in ((s2, s2.edges), (s2, shuffled), (corona, _corona_edges(s1, s2))):
                    rows = spectra._matrix_rows(g.n, edges, kind)
                    assert tuple(map(tuple, rows)) == matrix_of(g, kind)._rows, (g, kind)

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

    @pytest.mark.parametrize("kind", ["adj", "lap", None, 0])
    @pytest.mark.parametrize(
        "call",
        [matrix_of, numeric_spectrum, distinct_count,
         pytest.param(lambda s, kind: corona_spectrum(s, s, kind), id="corona_spectrum"),
         pytest.param(lambda s, kind: corona_spectrum(complete_graph(3), complete_graph(3), kind),
                      id="corona_spectrum-k3")],
    )
    def test_kind_that_is_no_matrix_kind_refused(self, call, kind):
        # kind names are for the command line; the library takes MatrixKind.
        # The all-positive K3 has a constant diagonal and row sum under
        # every kind, so a corona_spectrum that read its factors' matrices
        # without the check would return a spectrum rather than fall back
        with pytest.raises(ValueError, match=re.escape(f"matrix kind must be a MatrixKind, got {kind!r}")):
            call(unbalanced_c4(), kind)


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


def corona_spectrum_pairs():
    """(s1, s2, kind) on which corona_spectrum takes its blocks: sampled
    pairs in every kind (a regular s1 under the Laplacian, a net-regular one
    under the net-Laplacian), and the edge cases by name."""
    rng = random.Random(47)
    first = {ADJ: lambda: random_signed_graph(rng, rng.randint(1, 6)),
             LAP: lambda: random_regular_signed(rng, 6), NET: lambda: random_net_regular(rng, 6)}
    cases = [(first[kind](), random_signed_graph(rng, rng.randint(0, 6)), kind) for kind in first for _ in range(25)]
    special = [edgeless(1), edgeless(4), complete_graph(4), complete_graph(5, -1), unbalanced_c4(), cycle_graph(6)]
    seconds = [edgeless(0), complete_graph(1), complete_graph(4, -1), cycle_graph(5, -1), unbalanced_c4()]
    cases += [(s1, s2, kind) for s1 in special for s2 in seconds for kind in MatrixKind]
    return cases


class TestCoronaSpectrum:
    """corona_spectrum against the corona built and solved whole, and
    against numpy's eigvalsh of its matrix."""

    def test_blocks_match_the_whole_corona(self):
        np = pytest.importorskip("numpy")
        factored = 0
        for s1, s2, kind in corona_spectrum_pairs():
            corona = neighbourhood_corona(s1, s2)
            got = corona_spectrum(s1, s2, kind, 0.0).values()
            whole = numeric_spectrum(corona, kind, 0.0).values()
            ref = np.linalg.eigvalsh(np.array(matrix_of(corona, kind)._rows, dtype=float))
            gap = 1e-13 * (1 + max(abs(ref)))
            assert len(got) == len(whole) == corona.n, (s1, s2, kind)
            assert max(abs(got - ref)) <= gap and max(abs(got - np.array(whole))) <= gap, (s1, s2, kind)
            diagonal = {ADJ: (0,), LAP: s1.degrees().degree, NET: s1.degrees().net_degree}[kind]
            factored += len(set(diagonal)) == 1
        assert factored >= 150  # every sampled pair and most named ones skip the fallback

    def test_quotient_matches_the_blocks_and_the_whole_corona(self):
        # second factors with a constant row sum k in the pair's kind take
        # the 2x2 quotients: they agree with every B(mu) and with the corona
        # solved whole by numpy, and with numeric_spectrum of the corona.
        # K1, the edgeless S2 (k = 0 in every kind), the alternating C4
        # (k = 0 under the adjacency) and sampled net-regular factors, which
        # are regular as well
        np = pytest.importorskip("numpy")
        rng = random.Random(50)
        first = {ADJ: lambda: random_signed_graph(rng, rng.randint(1, 6)),
                 LAP: lambda: random_regular_signed(rng, 6), NET: lambda: random_net_regular(rng, 6)}
        row_sums = set()
        for kind in MatrixKind:
            for s2 in [edgeless(1), edgeless(3), alternating_cycle(4)] + [random_net_regular(rng, 6) for _ in range(8)]:
                s1 = first[kind]()
                m1, m2 = (np.array(matrix_of(s, kind)._rows, dtype=float) for s in (s1, s2))
                (delta,), (k,), n2 = set(np.diag(m1)), set(m2.sum(axis=1)), s2.n
                row_sums.add(k)
                blocks = np.sort(np.concatenate([
                    np.linalg.eigvalsh(np.block([[np.array([[mu + n2 * delta]]), np.full((1, n2), mu - delta)],
                                                 [np.full((n2, 1), mu - delta), m2 + delta * np.eye(n2)]]))
                    for mu in np.linalg.eigvalsh(m1)
                ]))
                corona = neighbourhood_corona(s1, s2)
                whole = np.linalg.eigvalsh(np.array(matrix_of(corona, kind)._rows, dtype=float))
                got = np.array(corona_spectrum(s1, s2, kind, 0.0).values())
                gap = 1e-13 * (1 + max(abs(whole)))
                assert len(got) == corona.n, (s1, s2, kind)
                assert max(abs(got - blocks)) <= gap and max(abs(got - whole)) <= gap, (s1, s2, kind)
                assert max(abs(got - numeric_spectrum(corona, kind, 0.0).values())) <= gap, (s1, s2, kind)
        assert 0 in row_sums and len(row_sums) > 3

    def test_routes(self, monkeypatch):
        """A constant row sum of M2 takes the quotients: only M1 and M2 are
        reduced, nothing of order n2 + 1 or more beyond them, and _eig2
        solves one 2x2 quotient per eigenvalue of M1.  K_{2,3}, whose
        adjacency rows sum to 2 and 3, and the all-negative one under the
        Laplacian (6 and 4) take n1 blocks of order n2 + 1 after M1."""
        orders, quotients = [], []

        def reduced(a, real=linalg._tridiagonalize):
            orders.append(len(a))
            return real(a)

        def quotient(*args, real=linalg._eig2):
            quotients.append(args)
            return real(*args)

        for module in (linalg, spectra):
            monkeypatch.setattr(module, "_tridiagonalize", reduced)
        monkeypatch.setattr(spectra, "_eig2", quotient)
        k23 = complete_bipartite(2, 3)
        quotient_cases = [(s2, kind) for s2 in (edgeless(1), cycle_graph(5, -1), complete_graph(3)) for kind in MatrixKind]
        quotient_cases += [(k23, LAP), (k23, NET)]  # Laplacian rows of an all-positive graph sum to 0
        block_cases = [(k23, ADJ), (complete_bipartite(2, 3, -1), ADJ), (complete_bipartite(2, 3, -1), LAP)]
        for s1 in (cycle_graph(7), alternating_cycle(6), complete_graph(4, -1)):
            for s2, kind in quotient_cases + block_cases:
                orders.clear()
                quotients.clear()
                corona_spectrum(s1, s2, kind)
                if (s2, kind) in quotient_cases:
                    assert orders == [s1.n, s2.n] and len(quotients) == s1.n, (s1, s2, kind)
                else:
                    assert orders == [s1.n] + [s2.n + 1] * s1.n and not quotients, (s1, s2, kind)

    @pytest.mark.parametrize("kind", [LAP, NET])
    def test_fallback_is_the_whole_corona(self, kind):
        # an s1 with no constant diagonal in this kind: path_graph(3) is not
        # regular, and the unbalanced 4-cycle is regular but not net-regular
        rng = random.Random(48)
        firsts = [path_graph(3), star_graph(3)] + ([unbalanced_c4()] if kind is NET else [])
        for s1 in firsts:
            for s2 in (edgeless(0), complete_graph(2), random_signed_graph(rng, 5)):
                for tol in (0.0, 1e-6):
                    want = numeric_spectrum(neighbourhood_corona(s1, s2), kind, tol)
                    assert corona_spectrum(s1, s2, kind, tol).pairs == want.pairs

    def test_no_corona_sized_matrix_is_solved(self, monkeypatch):
        """On an s1 that is regular and net-regular every eigenproblem has
        order at most max(n1, n2 + 1); an irregular s1 under the Laplacian,
        the control, solves the corona whole."""
        orders = []

        def spy(real, order):
            def wrapped(a, *args, **kwargs):
                orders.append(order(a))
                return real(a, *args, **kwargs)
            return wrapped

        for module in (linalg, spectra):
            monkeypatch.setattr(module, "_tridiagonalize", spy(linalg._tridiagonalize, len))
        monkeypatch.setattr(spectra, "sym_eigenvalues", spy(linalg.sym_eigenvalues, lambda m: m.rows))
        s2 = random_signed_graph(random.Random(49), 6)
        for s1 in (cycle_graph(8), complete_graph(5, -1), alternating_cycle(6)):
            for kind in MatrixKind:
                orders.clear()
                corona_spectrum(s1, s2, kind)
                assert orders and max(orders) <= max(s1.n, s2.n + 1), (s1, kind, orders)
        orders.clear()
        corona_spectrum(path_graph(4), s2, LAP)
        assert max(orders) == 4 * 7


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
    join = kronecker_product(Matrix([[1] * n2]), a1)
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

    @pytest.mark.parametrize("t0", [math.inf, -math.inf, math.nan, "abc", "1/0", None, 1j, [1]])
    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda t0: det_exact_at(Matrix([[1]]), t0),
            lambda t0: corona_adjacency_charpoly_eval(complete_graph(2), complete_graph(2), t0),
        ],
        ids=["det_exact_at", "corona_adjacency_charpoly_eval"],
    )
    def test_point_that_is_no_finite_rational(self, evaluate, t0):
        with pytest.raises(ValueError, match="evaluation point must be a finite rational"):
            evaluate(t0)

    def test_modular_route_is_the_exact_route_mod_p(self):
        # verify 2.2 takes every determinant of _factored_side mod p, p the
        # ladder's second prime, as a projective pair; hp and the factored
        # side must be the _det_int route's integers reduced mod p, up to the
        # scale the pairs' denominators give them, at points with and without
        # a denominator, at that prime and at the smallest.  The points stay
        # below 2^61 - 1: at a point of 127 bits, _det_int's bound on the
        # factored side can pass the prime ladder's
        rng = random.Random(43)
        for _ in range(20):
            s1 = random_signed_graph(rng, rng.randint(1, 5))
            s2 = random_signed_graph(rng, rng.randint(0, 5))
            for a, b in ((rng.randrange(linalg._PRIME_LADDER[0]), 1), (rng.randint(-40, 40), rng.randint(1, 9))):
                hp, upper, scale = spectra._factored_side(s1, s2, a, b, lambda rows: (_det_int(rows), 1))
                assert scale == 1
                for p in linalg._PRIME_LADDER[:2]:
                    hp_p, upper_p, scale_p = spectra._factored_side(s1, s2, a, b, lambda rows: _det_mod(rows, p))
                    assert scale_p % p and (hp_p - hp * scale_p) % p == 0
                    num, den = _det_mod(upper_p, p)
                    assert den % p and (num - _det_int(upper) * den * scale_p**s1.n) % p == 0

    def test_empty_second_factor_and_a_pole(self):
        # with S2 = edgeless(0) the corona is S1, hp = 1 and hk = 0; with
        # S2 = edgeless(1) the coronal 1/t0 has its pole at 0
        rng = random.Random(47)
        for n1 in range(1, 6):
            s1 = random_signed_graph(rng, n1)
            m = matrix_of(neighbourhood_corona(s1, edgeless(0)), ADJ)
            assert m == matrix_of(s1, ADJ)
            for t0 in (Fraction(0), Fraction(rng.randint(-9, 9), rng.randint(1, 5))):
                assert corona_adjacency_charpoly_eval(s1, edgeless(0), t0) == det_exact_at(m, t0)
            with pytest.raises(PoleError):
                corona_adjacency_charpoly_eval(s1, edgeless(1), 0)

    def test_pole_detected(self):
        with pytest.raises(PoleError):
            corona_adjacency_charpoly_eval(complete_graph(2), complete_graph(2), 1)

    def test_cleared_form_has_no_poles(self):
        # at an adjacency eigenvalue t of S2, hp = 0 and the evaluator raises
        # PoleError, but the cleared determinant at b = 1 is still the
        # corona's char poly at t: verify 2.2 needs no pole test
        rng = random.Random(37)
        for s2, roots in ((complete_graph(2), (-1, 1)), (complete_graph(3, -1), (-2, 1)), (edgeless(2), (0,))):
            s1 = random_signed_graph(rng, 4)
            m = matrix_of(neighbourhood_corona(s1, s2), ADJ)
            for t in roots:
                hp, upper, _ = spectra._factored_side(s1, s2, t, 1, lambda rows: (_det_int(rows), 1))
                assert hp == 0
                assert _det_int(upper) == det_exact_at(m, t)
                with pytest.raises(PoleError):
                    corona_adjacency_charpoly_eval(s1, s2, t)

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

    def test_set_up_once_per_trial(self, monkeypatch):
        # verify 2.2 writes each trial's triangles from edge lists: that of
        # A2 for the factored side, then that of the corona's matrix for the
        # determinant, each once; no Matrix is checked or ordered for either
        # (_pencil, _int_rows, the corona's matrix_of), every determinant is
        # _det_mod, and no other exact kernel runs. The corona is read as an
        # edge list and A1 as rows: no SignedGraph of the corona and no
        # Matrix at all is built.
        trials = 6
        coronas, second, triangles, matrices = [], [], [], []

        def corona(s1, s2, real=experiments._corona_edges):
            second.append(s2)
            coronas.append(neighbourhood_corona(s1, s2))
            return real(s1, s2)

        def counted_triangle(n, diag, entries, a, b, real=linalg._triangle):
            assert not diag  # adjacency triangles: no diagonal
            triangles.append(SignedGraph(n, entries))
            return real(n, diag, entries, a, b)

        def counted_matrix_of(s, kind, real=spectra.matrix_of):
            matrices.append(s)
            return real(s, kind)

        def refused(*args):
            raise AssertionError("verify 2.2 reached a Matrix, the corona's SignedGraph or another exact kernel")

        monkeypatch.setattr(experiments, "_corona_edges", corona)
        monkeypatch.setattr(experiments, "neighbourhood_corona", refused)
        assert not hasattr(experiments, "Matrix")
        for module in (experiments, spectra):
            monkeypatch.setattr(module, "_triangle", counted_triangle)
            monkeypatch.setattr(module, "matrix_of", counted_matrix_of)
        monkeypatch.setattr(spectra, "Matrix", refused)
        for name in ("_pencil", "_int_rows", "_char_poly_int", "_char_poly_mod", "_det_int"):
            monkeypatch.setattr(linalg, name, refused)
        monkeypatch.setattr(spectra, "_det_int", refused)
        result = verify_theorem("2.2", trials=trials, seed=0, max_n=4)
        assert result.ok and result.trials == trials
        assert len(coronas) == trials
        assert triangles == [g for pair in zip(second, coronas) for g in pair]
        assert not [g for g in matrices if g in coronas]
        assert not matrices

    def test_pole_exactly_at_psi2_roots(self):
        cases = ((complete_graph(2), {-1, 1}), (complete_graph(3, -1), {-2, 1}), (edgeless(2), {0}))
        for s2, roots in cases:
            for t0 in (Fraction(k, 2) for k in range(-6, 7)):
                if t0 in roots:
                    with pytest.raises(PoleError):
                        corona_adjacency_charpoly_eval(path_graph(3), s2, t0)
                else:
                    corona_adjacency_charpoly_eval(path_graph(3), s2, t0)


class TestAdjacencyTriangle:
    # b > 1, negative a and a = 0, with (1, 1) and (0, 1) among them
    POINTS = ((0, 1), (1, 1), (0, 3), (-5, 1), (-7, 4), (6, 5), (2**70 + 1, 3))

    def test_is_the_pencil_of_the_adjacency_matrix(self):
        # the triangle written from the edge list is the one _pencil cuts
        # from the adjacency matrix, in the same sparse-first order, on
        # random signed graphs of orders 0 to 13 and their coronas up to 182
        rng = random.Random(39)
        orders = set()
        for n in range(14):
            s2 = random_signed_graph(rng, n)
            graphs = [s2, neighbourhood_corona(random_signed_graph(rng, rng.randint(1, 13)), s2)]
            if n == 13:
                graphs.append(neighbourhood_corona(random_signed_graph(rng, 13), s2))
            for g in graphs:
                orders.add(g.n)
                for a, b in self.POINTS:
                    triangle = linalg._triangle(g.n, (), g.edges, a, b)
                    assert triangle == _pencil(matrix_of(g, ADJ), a, b), (g, a, b)
        assert set(range(14)) <= orders and max(orders) == 182

    def test_plus_b_is_the_pencil_of_a2_minus_j(self):
        # a*I - b*(A2 - J) = a*I - b*A2 + b*J: A2's triangle with b added to
        # every entry, in A2's sparse-first order rather than that of A2 - J,
        # so a symmetric permutation of _pencil's and the same determinant,
        # exactly and modulo each prime
        rng = random.Random(38)
        reordered = 0
        for n in range(14):
            s2 = random_signed_graph(rng, n)
            minus_j = Matrix([x - 1 for x in row] for row in matrix_of(s2, ADJ)._rows)
            for a, b in self.POINTS:
                shifted = [[x + b for x in row] for row in linalg._triangle(s2.n, (), s2.edges, a, b)]
                upper = _pencil(minus_j, a, b)
                reordered += shifted != upper
                assert _det_int(shifted) == _det_int(upper), (s2, a, b)
                for p in (3, 2**61 - 1, 2**127 - 1):
                    (num, den), (num2, den2) = _det_mod(shifted, p), _det_mod(upper, p)
                    assert (num * den2 - num2 * den) % p == 0, (s2, a, b, p)
        assert reordered


class TestTriangle:
    """linalg._triangle against the dense a*I - b*M, its rows and columns
    permuted by ascending nonzero count of M's rows, ties by index."""

    POINTS = TestAdjacencyTriangle.POINTS

    @staticmethod
    def dense(rows, a, b):
        n = len(rows)
        order = sorted(range(n), key=lambda i: n - list(rows[i]).count(0))
        return [[(a if i == j else 0) - b * rows[order[i]][order[j]] for j in range(i, n)] for i in range(n)]

    def test_graph_matrices_of_every_kind(self):
        # random signed graphs of orders 0 to 9 and their coronas, from the
        # nonzeros of each kind's matrix (spectra._nonzeros)
        rng = random.Random(44)
        for n in range(10):
            s2 = random_signed_graph(rng, n)
            for g in (s2, neighbourhood_corona(random_signed_graph(rng, rng.randint(1, 6)), s2)):
                for kind in MatrixKind:
                    diag, entries = spectra._nonzeros(g.n, g.edges, kind)
                    for a, b in self.POINTS:
                        expected = self.dense(matrix_of(g, kind)._rows, a, b)
                        assert linalg._triangle(g.n, diag, entries, a, b) == expected, (g, kind, a, b)

    def test_symmetric_matrices_with_nonzero_diagonals(self):
        # every diagonal entry counts towards its row's nonzeros; the entries
        # may come in any order
        rng = random.Random(45)
        for n in range(1, 12):
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = rng.choice([-3, -1, 1, 2, 5])
                for j in range(i + 1, n):
                    if rng.random() < 0.4:
                        rows[i][j] = rows[j][i] = rng.randint(-4, 4)
            diag = [(i, rows[i][i]) for i in range(n)]
            entries = [(i, j, rows[i][j]) for i in range(n) for j in range(i + 1, n) if rows[i][j]]
            rng.shuffle(entries)
            for a, b in self.POINTS:
                assert linalg._triangle(n, diag, entries, a, b) == self.dense(rows, a, b), (rows, a, b)
                assert _pencil(Matrix(rows), a, b) == self.dense(rows, a, b)


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
        cf = closed_form_adjacency_kpq(edgeless(2), 1, 4, -1)
        realized = realize(cf)
        expected = SpectrumMultiset.from_values([0.0] * 8 + [2.0, -2.0, 2.0, -2.0])
        assert spectra_equal(realized, expected, 1e-9)
        oracle = numeric_spectrum(
            neighbourhood_corona(edgeless(2), complete_bipartite(1, 4, -1)), ADJ
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
        cf = printed_kpq(s, 1, 1)
        try:
            assert not spectra_equal(realize(cf), oracle, 1e-6)
        except ComplexRootsError:
            pass  # the printed cubic need not even have three real roots

    def test_multiplicity_accounting(self):
        s = unbalanced_c4()
        cf = closed_form_adjacency_kpq(s, 2, 2, 1)
        assert cf.total_multiplicity == 4 * (2 + 2 + 1)

    @pytest.mark.parametrize(
        "p,q,sign",
        [(1.5, 1, 1), (2.0, 1, 1), (True, 1, 1), ("2", 1, 1), (1, 2.0, -1), (1, 1, 0), (1, 1, 2), (0, 2, 1)],
    )
    def test_refuses_what_complete_bipartite_refuses(self, p, q, sign):
        """The part sizes and the sign pass the second factor's own gate: a
        float, bool or str size is no vertex count, and 1.5 would give a
        float multiplicity."""
        with pytest.raises(GraphError):
            closed_form_adjacency_kpq(complete_graph(2), p, q, sign)


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

    def test_balanced_negative_factor_needs_row_sum_correction(self, monkeypatch):
        """A balanced-but-negative second factor: the published zero-row-sum
        reading (the two-root form at k = 0) is refuted by the oracle, the
        detected row sum k = 2 is confirmed."""
        s1, s2 = complete_graph(2), complete_graph(2, -1)
        oracle = numeric_spectrum(neighbourhood_corona(s1, s2), LAP)
        assert spectra_equal(oracle, SpectrumMultiset(((1.0, 3), (2.0, 1), (4.0, 1), (5.0, 1))), 1e-6)
        corrected = closed_form_laplacian(s1, s2)
        assert corrected.theorem == "3.3"
        assert spectra_equal(realize(corrected), oracle, 1e-6)

        def zero_row_sum(*args, real=spectra._form):
            rows1, shift, _, _ = real(*args)
            return rows1, shift, two_root_table(s2.n, shift, 0), (-shift, 1)

        monkeypatch.setattr(spectra, "_form", zero_row_sum)
        literal = spectra._closed_form("3.4", s1, s2, LAP, 1e-6)
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

    def test_rejects_empty_second_factor(self):
        # an empty S2 has no copy of k to drop; 2.3, 3.3/3.4 and 4.2 all say
        # so, before checking S1 (path_graph(3) is neither regular nor
        # net-regular) or S2's row sums
        for closed_form in spectra.CLOSED_FORMS.values():
            for s1 in (complete_graph(2), path_graph(3)):
                with pytest.raises(ClosedFormError, match="^second factor must be non-empty$"):
                    closed_form(s1, edgeless(0))

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
            (r2,) = set(s2.degrees().net_degree)
            return mu * r2 - n2 * mu**2, -(mu + r2)
        if label in ("3.3", "3.4"):
            r1, k = s1.regularity(), 2 * s2.degrees().neg_degree[0]
            return (mu + r1 * n2) * (r1 + k) - n2 * (mu - r1) ** 2, -(r1 + k + mu + r1 * n2)
        (r,) = set(s1.degrees().net_degree)
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
            for s1, s2, _ in THEOREMS[label].cases(random.Random(seed), 20, 8, _points(seed)):
                quads = [e for e in closed_form(s1, s2).entries if e.coeffs is not None]
                pairs = numeric_spectrum(s1, kind).pairs
                assert [e.multiplicity for e in quads] == [m for _, m in pairs]
                for e, (mu, _) in zip(quads, pairs):
                    want = (*self.published(label, s1, s2, mu), 1.0)
                    scale = max(map(abs, want))
                    assert all(abs(got - w) <= 1e-12 * scale for got, w in zip(e.coeffs, want)), (e, want)


class TestPublishedCubics:
    """The 2.4/2.5 cubic t^3 - h*t^2 - (p*q + (p+q)*h^2)*t + c0 of each
    s-eigenvalue h, for parts p != q, against the constants the paper prints:
    2.5's -p*q*h*(2h - 1) is the shipped one; 2.4's p*q*h*(2h - 1) is not,
    the shipped p*q*h*(1 + 2h) exceeding it by 2*p*q*h.  For p = q the
    factor is net-regular, and the shipped form is 2.3's two-root form."""

    @staticmethod
    def cases(equal=False):
        """Random first factors on 1 to 6 vertices with parts p, q in 1..4,
        p != q (p = q when equal)."""
        rng = random.Random(24)
        for _ in range(40):
            s = random_signed_graph(rng, rng.randint(1, 6))
            for p in range(1, 5):
                for q in range(1, 5):
                    if (p == q) == equal:
                        yield s, p, q

    @staticmethod
    def cubics(cf):
        return [e.coeffs for e in cf.entries if e.coeffs is not None]

    def test_constants_are_the_published_ones_but_for_2_4(self):
        for s, p, q in self.cases():
            hs = [h for h, _ in numeric_spectrum(s, ADJ).pairs]
            positive = self.cubics(closed_form_adjacency_kpq(s, p, q, 1))
            negative = self.cubics(closed_form_adjacency_kpq(s, p, q, -1))
            printed = self.cubics(printed_kpq(s, p, q))
            assert len(positive) == len(negative) == len(printed) == len(hs)
            for h, c_pos, c_neg, c_pr in zip(hs, positive, negative, printed):
                rest = (-(p * q + (p + q) * h * h), -h, 1.0)
                assert c_pos[1:] == c_neg[1:] == c_pr[1:] == rest
                scale = p * q * (1 + 2 * h * h)
                assert abs(c_pos[0] - -p * q * h * (2 * h - 1)) <= 1e-12 * scale
                assert abs(c_pr[0] - p * q * h * (2 * h - 1)) <= 1e-12 * scale
                assert abs(c_neg[0] - p * q * h * (1 + 2 * h)) <= 1e-12 * scale
                assert abs(c_neg[0] - c_pr[0] - 2 * p * q * h) <= 1e-12 * scale

    def test_every_cubic_takes_the_trigonometric_form(self):
        """real_roots_cubic has one branch for a1 - a2^2/3 < 0; every
        2.4/2.5 cubic for parts p != q, shipped or printed, has
        a1 - a2^2/3 <= -p*q <= -2."""
        for s, p, q in self.cases():
            forms = (closed_form_adjacency_kpq(s, p, q, 1), closed_form_adjacency_kpq(s, p, q, -1))
            for cf in (*forms, printed_kpq(s, p, q)):
                for _, a1, a2, _ in self.cubics(cf):
                    assert a1 - a2 * a2 / 3.0 <= -p * q

    def test_cubic_roots_are_the_quotient_eigenvalues(self):
        """For p != q the cubic is the char poly of the symmetric quotient
        [[h, h*sqrt(p), h*sqrt(q)], [h*sqrt(p), 0, c], [h*sqrt(q), c, 0]],
        c = sign*sqrt(p*q); its roots agree with numpy's eigenvalues of that
        matrix to 1e-13 * (1 + R), R the largest |eigenvalue|."""
        np = pytest.importorskip("numpy")
        for s, p, q in self.cases():
            for sign in (1, -1):
                for e in closed_form_adjacency_kpq(s, p, q, sign).entries:
                    if e.coeffs is None:
                        continue
                    h, c = -e.coeffs[2], sign * math.sqrt(p * q)
                    hp, hq = h * math.sqrt(p), h * math.sqrt(q)
                    want = np.linalg.eigvalsh(np.array([[h, hp, hq], [hp, 0.0, c], [hq, c, 0.0]]))
                    bound = 1e-13 * (1.0 + np.max(np.abs(want)))
                    assert np.max(np.abs(np.array(e.roots()) - want)) <= bound, (s, p, q, sign, h)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_equal_parts_cubic_is_a_linear_factor_times_the_quadratic(self, sign):
        """For p = q the cubic is (t + sign*p) times the two-root form's
        quadratic t^2 - (h + k)*t + h*(k - n2*h), with k = sign*p the net
        degree and n2 = 2p the order of K_{p,p}.  Both sides are checked in
        exact arithmetic at six rational h; every coefficient is at most
        quadratic in h, so three would do."""
        for p in range(1, 7):
            k, n2 = sign * p, 2 * p
            for h in (Fraction(-3), Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(2), Fraction(5)):
                cubic = [p * p * h * (1 - 2 * sign * h), -(p * p + 2 * p * h * h), -h, 1]
                quadratic = [h * (k - n2 * h), -(h + k), 1]
                product = [k * quadratic[0]]
                product += [x + k * y for x, y in zip(quadratic, quadratic[1:])] + [1]
                assert product == cubic, (p, h)

    def test_equal_parts_take_the_two_root_form(self):
        """closed_form_adjacency_kpq on K_{p,p} is closed_form_adjacency on
        it, entry for entry, but for its label."""
        for s, p, _ in self.cases(equal=True):
            for sign in (1, -1):
                kpq = closed_form_adjacency_kpq(s, p, p, sign)
                two_root = closed_form_adjacency(s, complete_bipartite(p, p, sign))
                assert kpq.theorem == ("2.5" if sign > 0 else "2.4")
                assert (kpq.order, kpq.entries) == (two_root.order, two_root.entries)


class TestRealize:
    def test_inherited_only(self):
        from sgcorona import ClosedFormEntry, ClosedFormSpectrum

        cf = ClosedFormSpectrum("2.3", 3, (ClosedFormEntry(multiplicity=3, value=1.5),))
        assert realize(cf).pairs == ((1.5, 3),)

    def test_total_multiplicity_guard(self):
        from sgcorona import ClosedFormEntry, ClosedFormSpectrum

        with pytest.raises(ArithmeticError):
            ClosedFormSpectrum("2.3", 4, (ClosedFormEntry(multiplicity=3, value=1.5),))

    @pytest.mark.parametrize(
        "form",
        [
            lambda: closed_form_adjacency(complete_graph(2), complete_graph(2)),
            lambda: closed_form_adjacency_kpq(edgeless(1), 1, 1, -1),
            lambda: closed_form_adjacency_kpq(edgeless(1), 1, 2, 1),
        ],
        ids=["2.3", "2.4", "2.5"],
    )
    def test_no_negative_zero_coefficient(self, form):
        """A zero coefficient, such as -b at b = 0 or -theta at theta = 0, is
        stored as 0.0, so neither describe() nor to_json() prints -0."""
        coeffs = [c for e in form().entries if e.coeffs for c in e.coeffs]
        assert 0.0 in coeffs
        assert all(math.copysign(1.0, c) == 1.0 for c in coeffs if c == 0)


class TestClusteringTolerance:
    """SpectrumMultiset.from_values is where every clustering tolerance ends
    up: NaN, infinite and negative ones are refused there, and 0 merges only
    equal values."""

    CALLS = [
        lambda tol: numeric_spectrum(edgeless(3), ADJ, tol),
        lambda tol: numeric_spectrum(edgeless(0), ADJ, tol),
        lambda tol: sym_eigenvalues(matrix_of(complete_graph(3), ADJ), tol),
        lambda tol: realize(closed_form_adjacency(complete_graph(2), complete_graph(2)), tol),
        lambda tol: SpectrumMultiset.from_values([], tol),
    ]
    IDS = ["numeric_spectrum", "numeric_spectrum_empty", "sym_eigenvalues", "realize", "from_values_empty"]

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-6, "0.1", None, 0.1j, True, False])
    @pytest.mark.parametrize("call", CALLS, ids=IDS)
    def test_refused(self, call, tol):
        with pytest.raises(ValueError, match="clustering tolerance must be finite and non-negative"):
            call(tol)

    @pytest.mark.parametrize("call", CALLS, ids=IDS)
    def test_zero_is_legal(self, call):
        assert call(0.0).total == call(1e-6).total


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
            assert is_connected(corona)
            singular = det_exact_at(matrix_of(corona, LAP), 0) == 0
            assert singular == corona.is_balanced()

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    charpoly_cofactor,
    charpoly_faddeev,
    det_bareiss_dense,
    eigenvalues_jacobi,
    permuted,
    poly_at,
    scaled,
)
from sgcorona import (
    ComplexRootsError,
    Matrix,
    Polynomial,
    SignedGraph,
    SpectrumMultiset,
    char_poly_exact,
    det_exact_at,
    edgeless,
    kronecker_product,
    kronecker_sum,
    matrix_of,
    neighbourhood_corona,
    real_roots_cubic,
    real_roots_quadratic,
    spectra_equal,
    star_graph,
    sym_eigenvalues,
    unbalanced_c4,
)
from sgcorona.experiments import random_signed_graph
from sgcorona import linalg
from sgcorona.linalg import _bareiss_det, _ql_implicit, _tridiagonalize
from sgcorona.spectra import MatrixKind

A_C4M = matrix_of(unbalanced_c4(), MatrixKind.ADJACENCY)


def random_int_matrix(rng, n, lo=-3, hi=3):
    return Matrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def random_fraction_matrix(rng, n):
    return Matrix(
        [[Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)]
    )


def diagonal(values):
    n = len(values)
    return Matrix([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])


def random_symmetric(rng, n, lo=-3, hi=3):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(lo, hi)
    return Matrix(rows)


class TestMatrix:
    def test_shape_and_entries(self):
        m = Matrix([[1, 2], [3, 4]])
        assert m.shape == (2, 2)
        assert m[1, 0] == 3

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            Matrix([[1, 2], [3]])

    def test_arithmetic(self):
        a = Matrix([[1, 2], [3, 4]])
        b = Matrix.identity(2)
        assert a + b == Matrix([[2, 2], [3, 5]])
        assert a - b == Matrix([[0, 2], [3, 3]])
        assert a @ b == a


class TestPolynomial:
    def test_normalization(self):
        p = Polynomial([1, 2, 0, 0])
        assert p.coeffs == (1, 2)
        assert Polynomial([0, 0]).is_zero

    def test_str_format(self):
        assert str(Polynomial([4, 0, -4, 0, 1])) == "4 + 0*t + -4*t^2 + 0*t^3 + 1*t^4"
        assert str(Polynomial([Fraction(1, 2), 1])) == "1/2 + 1*t"
        assert str(Polynomial([])) == "0"


class TestCharPoly:
    def test_one_by_one(self):
        assert char_poly_exact(Matrix([[0]])) == Polynomial([0, 1])

    def test_k2_adjacency(self):
        assert char_poly_exact(Matrix([[0, 1], [1, 0]])) == Polynomial([-1, 0, 1])

    def test_c4_minus(self):
        expected = Polynomial([4, 0, -4, 0, 1])
        assert char_poly_exact(A_C4M) == expected
        assert charpoly_cofactor(A_C4M) == expected

    def test_not_square(self):
        with pytest.raises(ValueError, match="needs a square matrix, got 1x2"):
            char_poly_exact(Matrix([[1, 2]]))

    def test_against_cofactor_oracle(self):
        rng = random.Random(11)
        for _ in range(25):
            m = random_int_matrix(rng, rng.randint(1, 5))
            assert char_poly_exact(m) == charpoly_cofactor(m)

    def test_rational_entries(self):
        m = Matrix([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
        assert char_poly_exact(m) == Polynomial([Fraction(1, 6), Fraction(-5, 6), 1])

    def test_order_zero_and_one(self):
        assert char_poly_exact(Matrix([])) == Polynomial([1])
        assert char_poly_exact(Matrix([[Fraction(5, 2)]])) == Polynomial([Fraction(-5, 2), 1])

    def test_against_faddeev_oracle_on_graph_matrices(self):
        rng = random.Random(13)
        for n in (1, 2, 5, 9, 14, 21, 30):
            g = random_signed_graph(rng, n)
            for kind in MatrixKind:
                m = matrix_of(g, kind)
                assert char_poly_exact(m) == charpoly_faddeev(m), (n, kind)

    def test_against_faddeev_oracle_on_nonsymmetric_matrices(self):
        rng = random.Random(17)
        for _ in range(15):
            m = random_int_matrix(rng, rng.randint(1, 12), -9, 9)
            assert char_poly_exact(m) == charpoly_faddeev(m)

    def test_against_faddeev_oracle_on_fraction_matrices(self):
        rng = random.Random(19)
        for _ in range(12):
            m = random_fraction_matrix(rng, rng.randint(1, 9))
            assert char_poly_exact(m) == charpoly_faddeev(m)

    def test_sylvester_hadamard_reaches_the_bound(self):
        # H16^2 = 16 I and H16 is symmetric, so det(tI - H16) = (t^2 - 16)^8;
        # |det H16| = 4^16 is Hadamard's bound, the product of the row norms
        h = [[1]]
        for _ in range(4):
            h = [row + row for row in h] + [row + [-x for x in row] for row in h]
        m = Matrix(h)
        expected = [0] * 17
        for k in range(9):
            expected[2 * k] = math.comb(8, k) * (-16) ** (8 - k)
        p = char_poly_exact(m)
        assert p == Polynomial(expected) == charpoly_faddeev(m)
        assert p.coeffs[0] == 4**16

    def test_huge_entries_take_several_primes(self, monkeypatch):
        rng = random.Random(23)
        m = random_int_matrix(rng, 8, -(10**30), 10**30)
        moduli = []
        real = linalg._char_poly_mod

        def spy(a, p):
            moduli.append(p)
            return real(a, p)

        monkeypatch.setattr(linalg, "_char_poly_mod", spy)
        assert char_poly_exact(m) == charpoly_faddeev(m)
        assert len(moduli) > 1

    def test_block_triangular_skips_zero_columns(self):
        # below the diagonal blocks every column is already zero, and one
        # subdiagonal entry is zero, so the recurrence stops its product early
        rng = random.Random(31)
        for _ in range(10):
            a, c = random_int_matrix(rng, 3), random_int_matrix(rng, 4)
            rows = [[a[i, j] for j in range(3)] + [rng.randint(-5, 5) for _ in range(4)] for i in range(3)]
            rows += [[0, 0, 0] + [c[i, j] for j in range(4)] for i in range(4)]
            m = Matrix(rows)
            expected = [0] * 8
            for i, x in enumerate(charpoly_faddeev(a).coeffs):
                for j, y in enumerate(charpoly_faddeev(c).coeffs):
                    expected[i + j] += x * y
            assert char_poly_exact(m) == Polynomial(expected) == charpoly_faddeev(m)
        assert char_poly_exact(diagonal([3, -1, 0, 2])) == charpoly_cofactor(diagonal([3, -1, 0, 2]))

    def test_zero_subdiagonal_pivot_is_swapped(self):
        m = Matrix([[1, 2, 3], [0, 4, 5], [6, 7, 8]])
        assert char_poly_exact(m) == charpoly_cofactor(m)
        rng = random.Random(37)
        for _ in range(10):
            n = rng.randint(3, 10)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            for j in range(n - 1):
                rows[j + 1][j] = 0
            rows[n - 1][0] = rng.choice((-3, -1, 2, 5))
            m = Matrix(rows)
            assert char_poly_exact(m) == charpoly_faddeev(m)

    def test_mixed_denominators(self):
        rng = random.Random(41)
        dens = (1, 2, 3, 7, 9, 11, 16)
        for _ in range(10):
            n = rng.randint(1, 7)
            m = Matrix(
                [[Fraction(rng.randint(-20, 20), rng.choice(dens)) for _ in range(n)] for _ in range(n)]
            )
            assert char_poly_exact(m) == charpoly_faddeev(m)
        m = Matrix([[1, Fraction(1, 2)], [Fraction(2, 3), Fraction(-5, 7)]])
        assert char_poly_exact(m) == charpoly_cofactor(m)

    def test_small_primes_against_oracle(self):
        # mod a small prime many entries vanish or pass through multiples of
        # p unreduced, so pivot search and column skips take every branch
        rng = random.Random(43)
        for _ in range(40):
            m = random_int_matrix(rng, rng.randint(0, 9), -6, 6)
            coeffs = [int(c) for c in charpoly_faddeev(m).coeffs]
            for p in (2, 3, 5, 7):
                assert linalg._char_poly_mod(m._rows, p) == [c % p for c in coeffs]

    def test_moduli_are_primes(self):
        sympy = pytest.importorskip("sympy")
        table = linalg._PRIME_LADDER + linalg._PRIME_RESERVE
        assert list(table) == sorted(set(table))
        assert all(sympy.isprime(p) for p in table)

    def test_moduli_choice(self):
        ladder = linalg._PRIME_LADDER
        assert linalg._moduli(1) == [2**61 - 1]
        assert linalg._moduli(2**60) == [2**127 - 1]
        assert linalg._moduli(2**600) == [2**607 - 1]
        assert linalg._moduli(2**606) == [2**607 - 1, 2**521 - 1]
        every = linalg._moduli(math.prod(ladder))
        assert every == [*reversed(ladder), 2**1279 - 1]
        with pytest.raises(ValueError, match="exceeds the prime table"):
            linalg._moduli(2**30000)


class TestDetExactAt:
    def test_k2_at_two(self):
        assert det_exact_at(Matrix([[0, 1], [1, 0]]), 2) == 3

    def test_eigenvalue_gives_zero(self):
        assert det_exact_at(Matrix([[0, 1], [1, 0]]), 1) == 0

    def test_c4_minus_at_zero(self):
        assert det_exact_at(A_C4M, 0) == 4

    def test_rational_point(self):
        m = Matrix([[2, 1], [1, 2]])
        t0 = Fraction(7, 3)
        assert det_exact_at(m, t0) == poly_at(char_poly_exact(m), t0)

    def test_order_zero_and_one(self):
        assert det_exact_at(Matrix([]), Fraction(3, 7)) == 1
        assert det_exact_at(Matrix([[Fraction(5, 2)]]), Fraction(1, 3)) == Fraction(-13, 6)

    def test_zero_first_pivot(self):
        # t0 equals the (0, 0) entry, so elimination must swap rows first
        m = Matrix([[2, 1, 0], [1, 3, 1], [0, 1, Fraction(1, 2)]])
        assert det_exact_at(m, 2) == poly_at(charpoly_cofactor(m), 2)
        assert det_exact_at(Matrix([[2, 0], [0, 5]]), 2) == 0

    def test_accepts_any_fraction_argument(self):
        m = Matrix([[0, 1], [1, 0]])
        assert det_exact_at(m, "3/2") == det_exact_at(m, 1.5) == Fraction(5, 4)

    def test_matches_char_poly_on_fraction_matrices(self):
        # the shape corona_adjacency_charpoly_eval evaluates: A + kappa * A^2
        rng = random.Random(29)
        for _ in range(12):
            a = random_symmetric(rng, rng.randint(1, 9), -1, 1)
            kappa = Fraction(rng.randint(-7, 7), rng.randint(1, 5))
            for m in (a + scaled(kappa, a @ a), random_fraction_matrix(rng, a.rows)):
                p = char_poly_exact(m)
                for _ in range(3):
                    t0 = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                    assert det_exact_at(m, t0) == poly_at(p, t0)

    def test_matches_char_poly_on_random_matrices(self):
        rng = random.Random(5)
        for _ in range(20):
            m = random_int_matrix(rng, rng.randint(1, 8))
            p = char_poly_exact(m)
            for t in range(-3, 4):
                assert det_exact_at(m, t) == poly_at(p, t)


@st.composite
def int_matrices(draw):
    """Integer matrices of order 0-25 at a random density, some of them with
    a zero row, a zero diagonal or a row that combines two others."""
    n = draw(st.integers(0, 25))
    density = draw(st.floats(0.0, 1.0))
    shape = draw(st.sampled_from(["plain", "zero row", "zero diagonal", "rank deficient"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rows = [[rng.randint(-4, 4) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
    if shape == "zero row" and n:
        rows[rng.randrange(n)] = [0] * n
    elif shape == "zero diagonal":
        for i in range(n):
            rows[i][i] = 0
    elif shape == "rank deficient" and n >= 3:
        i, j, k = rng.sample(range(n), 3)
        c1, c2 = rng.randint(-3, 3), rng.randint(-3, 3)
        rows[k] = [c1 * x + c2 * y for x, y in zip(rows[i], rows[j])]
    return shape, rows


def det_at_oracle(m: Matrix, t0) -> Fraction:
    """det(t0*I - M) from the dense Bareiss oracle, scaled in Fractions."""
    t0 = Fraction(t0)
    n = m.rows
    d = math.lcm(t0.denominator, *(Fraction(m[i, j]).denominator for i in range(n) for j in range(n)))
    rows = [
        [int(d * ((t0 if i == j else 0) - Fraction(m[i, j]))) for j in range(n)]
        for i in range(n)
    ]
    return Fraction(det_bareiss_dense(rows), d**n)


class TestSparseBareiss:
    """The sparsity-ordered, lazily scaled kernel against dense Bareiss."""

    @settings(max_examples=200, deadline=None)
    @given(int_matrices())
    def test_equals_dense_oracle(self, case):
        shape, rows = case
        expected = det_bareiss_dense([row[:] for row in rows])
        assert _bareiss_det([row[:] for row in rows]) == expected
        if shape in ("zero row", "rank deficient") and len(rows) >= 3:
            assert expected == 0

    @pytest.mark.parametrize(
        "rows, det",
        [
            # the row with a zero lead skips step 0 and is caught up last
            ([[2, 3], [-2, 0]], 6),
            # a row skipped at step 0 becomes the pivot row at step 1
            ([[2, 2, -2], [2, 0, 0], [2, 0, 2]], -8),
            # a row skipped at step 0 is updated again at step 1
            ([[2, 0, -2], [2, 3, 0], [0, -2, 1]], 14),
            # a zero pivot is swapped for a row that is behind (stamp != prev):
            # its stamp must travel with it
            ([[-2, 0, 3, 0], [-2, 0, 0, 3], [0, 3, 3, -2], [1, 2, 1, 0]], -33),
        ],
    )
    def test_stale_rows(self, rows, det):
        assert det_bareiss_dense([row[:] for row in rows]) == det
        assert _bareiss_det([row[:] for row in rows]) == det

    @pytest.mark.parametrize("kind", list(MatrixKind))
    def test_corona_matrices(self, kind):
        rng = random.Random(41)
        for n1, n2 in ((13, 3), (3, 13), (6, 6), (1, 13), (13, 1)):
            corona = neighbourhood_corona(random_signed_graph(rng, n1), random_signed_graph(rng, n2))
            m = matrix_of(corona, kind)
            for t0 in (0, Fraction(7, 3), Fraction(-9, 2)):
                assert det_exact_at(m, t0) == det_at_oracle(m, t0)

    def test_largest_corona_at_zero(self):
        # order 182, the largest corona verify samples; t0 = 0 leaves the
        # adjacency diagonal zero, so every pivot is found by a row swap
        rng = random.Random(43)
        corona = neighbourhood_corona(random_signed_graph(rng, 13), random_signed_graph(rng, 13))
        m = matrix_of(corona, MatrixKind.ADJACENCY)
        assert m.rows == 182
        assert det_exact_at(m, 0) == det_at_oracle(m, 0)

    def test_fraction_matrices(self):
        rng = random.Random(47)
        for _ in range(20):
            m = random_fraction_matrix(rng, rng.randint(1, 12))
            for t0 in (0, Fraction(7, 3), Fraction(-9, 2)):
                assert det_exact_at(m, t0) == det_at_oracle(m, t0)


class TestSymEigenvalues:
    def test_diagonal(self):
        spec = sym_eigenvalues(diagonal([3, 1, 1]))
        assert spec.pairs == ((1.0, 2), (3.0, 1))

    def test_k2(self):
        spec = sym_eigenvalues(Matrix([[0, 1], [1, 0]]))
        assert spec.pairs == ((-1.0, 1), (1.0, 1))

    def test_c4_minus(self):
        spec = sym_eigenvalues(A_C4M)
        assert spec.distinct_count == 2
        assert spec.pairs[0][1] == 2 and spec.pairs[1][1] == 2
        assert abs(spec.pairs[0][0] + math.sqrt(2)) < 1e-9
        assert abs(spec.pairs[1][0] - math.sqrt(2)) < 1e-9

    def test_not_symmetric(self):
        with pytest.raises(ValueError, match=r"entries \(0,1\) and \(1,0\) differ"):
            sym_eigenvalues(Matrix([[0, 1], [0, 0]]))

    def test_trace_and_square_trace_invariants(self):
        rng = random.Random(23)
        for _ in range(8):
            n = rng.randint(2, 30)
            m = random_symmetric(rng, n)
            spec = sym_eigenvalues(m)
            vals = spec.values()
            assert len(vals) == n
            tr = float(sum(m[i, i] for i in range(n)))
            assert abs(sum(vals) - tr) < 1e-8 * (1 + abs(tr))
            sq = float(sum((m @ m)[i, i] for i in range(n)))
            assert abs(sum(v * v for v in vals) - sq) < 1e-6 * (1 + abs(sq))

    def test_eigenvalues_are_roots_of_exact_char_poly(self):
        rng = random.Random(31)
        for _ in range(10):
            n = rng.randint(2, 10)
            m = random_symmetric(rng, n)
            p = char_poly_exact(m)
            for lam in sym_eigenvalues(m).values():
                assert abs(poly_at(p, lam)) < 1e-6 * (1 + abs(lam)) ** n

    @staticmethod
    def assert_matches(spec, reference):
        """Same multiplicities as the clustered reference values, and every
        value within 1e-9 * (1 + spectral radius)."""
        ref = SpectrumMultiset.from_values(reference)
        assert [m for _, m in spec.pairs] == [m for _, m in ref.pairs]
        radius = max(abs(v) for v in reference)
        for (x, _), (y, _) in zip(spec.pairs, ref.pairs):
            assert abs(x - y) <= 1e-9 * (1 + radius), (x, y)

    @staticmethod
    def graph_matrices(seed):
        # signed graphs of order up to 40 and coronas of order up to 60
        rng = random.Random(seed)
        graphs = [random_signed_graph(rng, rng.randint(1, 40), rng.random()) for _ in range(6)]
        sizes = [(rng.randint(1, 6), rng.randint(0, 9)) for _ in range(5)] + [(5, 11)]
        for n1, n2 in sizes:
            graphs.append(
                neighbourhood_corona(random_signed_graph(rng, n1), random_signed_graph(rng, n2))
            )
        return [matrix_of(g, kind) for g in graphs for kind in MatrixKind]

    def test_against_jacobi_oracle_on_graph_matrices(self):
        for m in self.graph_matrices(61):
            self.assert_matches(sym_eigenvalues(m), eigenvalues_jacobi(m))

    def test_against_numpy(self):
        np = pytest.importorskip("numpy")
        rng = random.Random(67)
        matrices = self.graph_matrices(71)
        matrices += [random_symmetric(rng, rng.randint(1, 50), -9, 9) for _ in range(20)]
        for m in matrices:
            self.assert_matches(sym_eigenvalues(m), np.linalg.eigvalsh(np.array(m.to_float())))

    @pytest.mark.parametrize(
        "m, expected",
        [
            (Matrix([[-7]]), ((-7.0, 1),)),
            (Matrix([[0] * 5 for _ in range(5)]), ((0.0, 5),)),
            (diagonal([2, -1, 2, 0, -1, 2]), ((-1.0, 2), (0.0, 1), (2.0, 3))),
        ],
    )
    def test_exact_small_cases(self, m, expected):
        assert sym_eigenvalues(m).pairs == expected

    def test_block_repeated_matrix(self):
        rng = random.Random(73)
        block = random_symmetric(rng, 5)
        m = kronecker_product(Matrix.identity(7), block)
        reference = eigenvalues_jacobi(block) * 7
        self.assert_matches(sym_eigenvalues(m), reference)
        assert all(mult % 7 == 0 for _, mult in sym_eigenvalues(m).pairs)

    def test_tiny_householder_reflections(self):
        # after four reflections the trailing block of this corona holds only
        # rounding residue (entries near 1e-48 and below); squaring them in
        # the reflector underflowed and turned every later eigenvalue to NaN
        s1 = SignedGraph(5, ((0, 1, -1), (1, 2, -1)))
        m = matrix_of(neighbourhood_corona(s1, edgeless(6)), MatrixKind.ADJACENCY)
        self.assert_matches(sym_eigenvalues(m), eigenvalues_jacobi(m))

    def test_scale_invariance(self):
        # the kernel itself: clustering's absolute gap would merge a spectrum
        # scaled by 1e-170 into one value
        rng = random.Random(79)
        m = random_symmetric(rng, 12)
        reference = eigenvalues_jacobi(m)
        radius = max(abs(v) for v in reference)
        for scale in (1e-170, 1e170):
            a = [[x * scale for x in row] for row in m.to_float()]
            got = sorted(_ql_implicit(*_tridiagonalize(a)))
            for x, y in zip(got, reference):
                assert abs(x / scale - y) <= 1e-12 * (1 + radius)

    def test_star_with_hundredfold_zero(self):
        spec = sym_eigenvalues(matrix_of(star_graph(101), MatrixKind.ADJACENCY))
        root = math.sqrt(101)
        assert [m for _, m in spec.pairs] == [1, 100, 1]
        assert abs(spec.pairs[0][0] + root) < 1e-12 * root
        assert abs(spec.pairs[1][0]) < 1e-12 * root
        assert abs(spec.pairs[2][0] - root) < 1e-12 * root


class TestKronecker:
    def test_identity_product(self):
        assert kronecker_product(Matrix.identity(2), Matrix.identity(3)) == Matrix.identity(6)

    def test_shapes(self):
        a = Matrix([[1, 2, 3]])
        b = Matrix([[1], [2]])
        assert kronecker_product(a, b).shape == (2, 3)
        assert kronecker_product(Matrix([]), b) == Matrix([])  # a 0-row factor
        assert kronecker_product(b, Matrix([])) == Matrix([])

    def test_sum_with_scalar_zero(self):
        a = Matrix([[1, 2], [2, 5]])
        assert kronecker_sum(Matrix([[0]]), a) == a

    def test_kronecker_sum_eigenvalues_are_pairwise_sums(self):
        rng = random.Random(41)
        for _ in range(10):
            a = random_symmetric(rng, 3)
            b = random_symmetric(rng, 2)
            xs = sym_eigenvalues(a).values()
            ys = sym_eigenvalues(b).values()
            expected = SpectrumMultiset.from_values([x + y for x in xs for y in ys])
            got = sym_eigenvalues(kronecker_sum(b, a))
            assert spectra_equal(expected, got, 1e-6)


def coronal_at(m, t0):
    """Sum of the entries of (t0*I - M)^-1 by the rank-one determinant
    identity det(t0*I - M + J) / det(t0*I - M) - 1, J the all-ones matrix:
    the coronal as corona_adjacency_charpoly_eval evaluates it."""
    return det_exact_at(m - Matrix.ones(m.rows, m.rows), t0) / det_exact_at(m, t0) - 1


POINTS = [Fraction(k, 3) for k in range(-11, 12)]


class TestCoronal:
    def test_k1(self):
        for t in POINTS:
            if t:
                assert coronal_at(Matrix([[0]]), t) == 1 / t

    def test_all_negative_bipartite(self):
        from sgcorona import complete_bipartite

        for p, q in ((1, 1), (1, 2), (2, 3)):
            m = matrix_of(complete_bipartite(p, q, -1), MatrixKind.ADJACENCY)
            for t in POINTS:
                if det_exact_at(m, t) != 0:
                    assert coronal_at(m, t) == ((p + q) * t - 2 * p * q) / (t * t - p * q)

    def test_p_equals_q_reduces(self):
        from sgcorona import complete_bipartite

        m = matrix_of(complete_bipartite(1, 1, -1), MatrixKind.ADJACENCY)
        for t in POINTS:
            if det_exact_at(m, t) != 0:
                assert coronal_at(m, t) == 2 / (t + 1)

    def test_constant_row_sum_matrices(self):
        rng = random.Random(3)
        for _ in range(12):
            n = rng.randint(1, 8)
            k = rng.randint(-3, 3)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    rows[i][j] = rows[j][i] = rng.randint(-2, 2)
            for i in range(n):
                rows[i][i] = k - sum(rows[i][j] for j in range(n) if j != i)
            m = Matrix(rows)
            for t in POINTS:
                if det_exact_at(m, t) != 0:
                    assert coronal_at(m, t) == n / (t - k)

    def test_constant_row_sum_forms(self):
        from sgcorona import complete_graph, path_graph

        # n / (t - k) for an order-n matrix whose rows all sum to k
        for m, n, k in (
            (Matrix([[0]]), 1, 0),
            (matrix_of(path_graph(5), MatrixKind.LAPLACIAN), 5, 0),
            (matrix_of(complete_graph(3), MatrixKind.ADJACENCY), 3, 2),
        ):
            for t in POINTS:
                if det_exact_at(m, t) != 0:
                    assert coronal_at(m, t) == Fraction(n) / (t - k)


class TestRoots:
    def test_quadratic_basic(self):
        assert real_roots_quadratic(0, -1) == (-1.0, 1.0)

    def test_quadratic_double_root(self):
        r1, r2 = real_roots_quadratic(-2, 1)
        assert abs(r1 - 1) < 1e-12 and abs(r2 - 1) < 1e-12

    def test_quadratic_complex_rejected(self):
        with pytest.raises(ComplexRootsError):
            real_roots_quadratic(0, 1)

    def test_quadratic_theorem_expansion(self):
        # coefficients arising from an eigenvalue sqrt(2) with a net-regular
        # 2-vertex second factor: t^2 - (sqrt2+1)t + (sqrt2 - 4)
        s2 = math.sqrt(2)
        b, c = -(s2 + 1), s2 - 4
        roots = real_roots_quadratic(b, c)
        expected = sorted(((s2 + 1 + math.sqrt(19 - 2 * s2)) / 2, (s2 + 1 - math.sqrt(19 - 2 * s2)) / 2))
        for r, e in zip(roots, expected):
            assert abs(r - e) < 1e-10
            assert abs(r * r + b * r + c) < 1e-8 * (1 + abs(r)) ** 2

    def test_cubic_basic(self):
        roots = real_roots_cubic(0, -1, 0)
        assert all(abs(r - e) < 1e-12 for r, e in zip(roots, (-1.0, 0.0, 1.0)))

    def test_cubic_distinct(self):
        # (t-1)(t-2)(t-3) = t^3 - 6t^2 + 11t - 6
        roots = real_roots_cubic(-6, 11, -6)
        assert all(abs(r - e) < 1e-9 for r, e in zip(roots, (1.0, 2.0, 3.0)))

    def test_cubic_double_root(self):
        # (t-1)^2 (t+2) = t^3 - 3t + 2
        roots = real_roots_cubic(0, -3, 2)
        assert all(abs(r - e) < 1e-6 for r, e in zip(roots, (-2.0, 1.0, 1.0)))

    def test_cubic_triple_root(self):
        roots = real_roots_cubic(-3, 3, -1)
        assert all(abs(r - 1) < 1e-4 for r in roots)

    def test_cubic_double_root_branch_is_stable(self, monkeypatch):
        # (t-2)^2 (t+3) = t^3 - t^2 - 8t + 12: its discriminant is exactly 0,
        # so one-ulp noise in the coefficients puts it on either side of 0;
        # the roots must come from one branch (no Cardano deflation to a
        # quadratic) and stay close to the exact ones
        deflations = []
        quadratic = linalg.real_roots_quadratic

        def counted(b, c):
            deflations.append((b, c))
            return quadratic(b, c)

        monkeypatch.setattr(linalg, "real_roots_quadratic", counted)
        rng = random.Random(53)
        for _ in range(2000):
            coeffs = [
                math.nextafter(c, rng.choice((-math.inf, math.inf))) if rng.random() < 0.7 else c
                for c in (-1.0, -8.0, 12.0)
            ]
            roots = real_roots_cubic(*coeffs)
            assert all(abs(r - e) < 1e-7 for r, e in zip(roots, (-3.0, 2.0, 2.0)))
        assert deflations == []

    def test_quadratic_double_root_clamp_is_stable(self):
        # (t-2)^2 = t^2 - 4t + 4: its discriminant is exactly 0, so one-ulp
        # noise in the coefficients can push it just below 0, where it is
        # clamped to 0 instead of raising, and the roots stay close to 2
        clamped = 0
        for b in (math.nextafter(-4.0, -math.inf), -4.0, math.nextafter(-4.0, math.inf)):
            for c in (math.nextafter(4.0, -math.inf), 4.0, math.nextafter(4.0, math.inf)):
                clamped += b * b - 4.0 * c < 0.0
                roots = real_roots_quadratic(b, c)
                assert all(abs(r - 2.0) < 1e-7 for r in roots)
        assert clamped

    def test_cubic_complex_rejected(self):
        with pytest.raises(ComplexRootsError):
            real_roots_cubic(0, 1, 1)

    def test_cubic_residuals(self):
        rng = random.Random(17)
        for _ in range(50):
            r = sorted(rng.uniform(-4, 4) for _ in range(3))
            a2 = -(r[0] + r[1] + r[2])
            a1 = r[0] * r[1] + r[0] * r[2] + r[1] * r[2]
            a0 = -r[0] * r[1] * r[2]
            roots = real_roots_cubic(a2, a1, a0)
            for got, want in zip(roots, r):
                assert abs(got - want) < 1e-6 * (1 + abs(want))
                assert abs(((got + a2) * got + a1) * got + a0) < 1e-8 * (1 + abs(got)) ** 3


class TestSpectrumMultiset:
    def test_clustering(self):
        spec = SpectrumMultiset.from_values([1.0, 1.0 + 1e-9, 3.0], tol=1e-6)
        assert spec.pairs == ((1.0 + 5e-10, 2), (3.0, 1))
        assert spec.total == 3

    def test_str(self):
        spec = SpectrumMultiset.from_values([-math.sqrt(2), -math.sqrt(2), math.sqrt(2), math.sqrt(2)])
        assert str(spec) == "-1.41421 x2, 1.41421 x2"

    def test_equality_identical(self):
        a = SpectrumMultiset.from_values([1, 2, 2])
        assert spectra_equal(a, a, 1e-9)

    def test_equality_boundaries(self):
        tol = 1e-6
        a = SpectrumMultiset(((0.0, 1),))
        assert spectra_equal(a, SpectrumMultiset(((tol / 2, 1),)), tol)
        assert not spectra_equal(a, SpectrumMultiset(((2 * tol, 1),)), tol)

    def test_total_mismatch(self):
        a = SpectrumMultiset(((0.0, 1),))
        b = SpectrumMultiset(((0.0, 2),))
        assert not spectra_equal(a, b, 1e-6)

    def test_similarity_invariance(self):
        rng = random.Random(2)
        m = random_symmetric(rng, 6)
        perm = list(range(6))
        rng.shuffle(perm)
        assert spectra_equal(sym_eigenvalues(m), sym_eigenvalues(permuted(m, perm)), 1e-9)

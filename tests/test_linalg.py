import math
import random
from fractions import Fraction

import pytest

from conftest import charpoly_cofactor, permuted
from sgcorona import (
    ComplexRootsError,
    Matrix,
    NotSquareError,
    NotSymmetricError,
    Polynomial,
    SpectrumMultiset,
    char_poly_exact,
    det_exact_at,
    kronecker_product,
    kronecker_sum,
    matrix_of,
    real_roots_cubic,
    real_roots_quadratic,
    spectra_equal,
    sym_eigenvalues,
    unbalanced_c4,
)
from sgcorona.spectra import MatrixKind

A_C4M = matrix_of(unbalanced_c4(), MatrixKind.ADJACENCY)


def random_int_matrix(rng, n, lo=-3, hi=3):
    return Matrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


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
        assert 2 * a == Matrix([[2, 4], [6, 8]])
        assert a @ b == a
        assert a.transpose() == Matrix([[1, 3], [2, 4]])
        assert a.trace() == 5

    def test_str_rows_whitespace(self):
        assert str(Matrix([[0, 1], [1, 0]])) == "0 1\n1 0"


class TestPolynomial:
    def test_normalization(self):
        p = Polynomial([1, 2, 0, 0])
        assert p.degree == 1
        assert Polynomial([0, 0]).is_zero

    def test_arithmetic_and_eval(self):
        p = Polynomial([1, 0, 1])  # 1 + t^2
        q = Polynomial([-1, 1])  # t - 1
        assert (p * q).coeffs == (Fraction(-1), Fraction(1), Fraction(-1), Fraction(1))
        assert (p + q)(2) == Fraction(6)
        assert (p - q)(Fraction(1, 2)) == Fraction(1) + Fraction(1, 4) - Fraction(-1, 2)
        assert (q**3)(5) == 64

    def test_divmod(self):
        p = Polynomial([-2, 0, 1]) * Polynomial([-2, 0, 1])  # (t^2-2)^2
        q, r = divmod(p, Polynomial([-2, 0, 1]))
        assert r.is_zero
        assert q == Polynomial([-2, 0, 1])
        q, r = divmod(p, Polynomial([5, 1]))
        assert q * Polynomial([5, 1]) + r == p
        assert r == Polynomial([p(-5)])

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
        with pytest.raises(NotSquareError):
            char_poly_exact(Matrix([[1, 2]]))

    def test_against_cofactor_oracle(self):
        rng = random.Random(11)
        for _ in range(25):
            m = random_int_matrix(rng, rng.randint(1, 5))
            assert char_poly_exact(m) == charpoly_cofactor(m)

    def test_rational_entries(self):
        m = Matrix([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
        assert char_poly_exact(m) == Polynomial([Fraction(1, 6), Fraction(-5, 6), 1])


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
        assert det_exact_at(m, t0) == char_poly_exact(m)(t0)

    def test_matches_char_poly_on_random_matrices(self):
        rng = random.Random(5)
        for _ in range(20):
            m = random_int_matrix(rng, rng.randint(1, 8))
            p = char_poly_exact(m)
            for t in range(-3, 4):
                assert det_exact_at(m, t) == p(t)


class TestSymEigenvalues:
    def test_diagonal(self):
        spec = sym_eigenvalues(Matrix.diagonal([3, 1, 1]))
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
        with pytest.raises(NotSymmetricError):
            sym_eigenvalues(Matrix([[0, 1], [0, 0]]))

    def test_trace_and_square_trace_invariants(self):
        rng = random.Random(23)
        for _ in range(8):
            n = rng.randint(2, 30)
            m = random_symmetric(rng, n)
            spec = sym_eigenvalues(m)
            vals = spec.values()
            assert len(vals) == n
            assert abs(sum(vals) - float(m.trace())) < 1e-8 * (1 + abs(float(m.trace())))
            sq = float((m @ m).trace())
            assert abs(sum(v * v for v in vals) - sq) < 1e-6 * (1 + abs(sq))

    def test_eigenvalues_are_roots_of_exact_char_poly(self):
        rng = random.Random(31)
        for _ in range(10):
            n = rng.randint(2, 10)
            m = random_symmetric(rng, n)
            p = char_poly_exact(m)
            for lam in sym_eigenvalues(m).values():
                assert abs(p(lam)) < 1e-6 * (1 + abs(lam)) ** n


class TestKronecker:
    def test_identity_product(self):
        assert kronecker_product(Matrix.identity(2), Matrix.identity(3)) == Matrix.identity(6)

    def test_shapes(self):
        a = Matrix([[1, 2, 3]])
        b = Matrix([[1], [2]])
        assert kronecker_product(a, b).shape == (2, 3)

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

import hashlib
import math
import random
import re
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
    random_signed_graph_with_density,
    scaled,
    squared,
)
from sgcorona import (
    ComplexRootsError,
    Matrix,
    Polynomial,
    SignedGraph,
    SpectrumMultiset,
    char_poly_exact,
    complete_graph,
    det_exact_at,
    edgeless,
    kronecker_product,
    kronecker_sum,
    matrix_of,
    neighbourhood_corona,
    numeric_spectrum,
    real_roots_cubic,
    real_roots_quadratic,
    spectra_equal,
    star_graph,
    sym_eigenvalues,
    unbalanced_c4,
)
from sgcorona.experiments import THEOREMS, _points, random_signed_graph
from sgcorona import linalg
from sgcorona.linalg import (
    _blocks,
    _det_int,
    _det_mod,
    _pencil,
    _ql_implicit,
    _tridiagonalize,
    _twin_classes,
)
from sgcorona.spectra import MatrixKind

A_C4M = matrix_of(unbalanced_c4(), MatrixKind.ADJACENCY)


def float_rows(m: Matrix) -> list[list[float]]:
    return [[float(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]


def random_int_matrix(rng, n, lo=-3, hi=3):
    return Matrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def diagonal(values):
    n = len(values)
    return Matrix([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])


def random_symmetric(rng, n, lo=-3, hi=3):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(lo, hi)
    return Matrix(rows)


def twin_matrix(rng, sizes, value=lambda rng: rng.randint(-1, 1)):
    """A symmetric matrix made of twin classes of the given sizes, randomly
    relabelled, and its classes in the new labels.  Class i has a diagonal
    d_i and a mutual entry c_i in {0, +-1}; any two members of classes i and
    j are joined by one entry b_ij.  d_i and b_ij are drawn by value."""
    r = len(sizes)
    d = [value(rng) for _ in range(r)]
    c = [rng.choice((-1, 0, 1)) for _ in range(r)]
    b = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            b[i][j] = b[j][i] = value(rng)
    owner = [i for i, k in enumerate(sizes) for _ in range(k)]
    rows = [
        [(d[i] if u == v else c[i]) if i == j else b[i][j] for v, j in enumerate(owner)]
        for u, i in enumerate(owner)
    ]
    perm = list(range(len(owner)))
    rng.shuffle(perm)
    m = permuted(Matrix(rows), perm)
    classes = [sorted(v for v in range(len(perm)) if owner[perm[v]] == i) for i in range(r)]
    return m, classes


def with_degree_diagonal(m: Matrix) -> Matrix:
    """m with each diagonal entry replaced by the number of nonzero entries
    off the diagonal in its row, as in a signed Laplacian; twins stay twins."""
    n = m.rows
    return Matrix(
        [
            [sum(1 for w in range(n) if w != u and m[u, w]) if u == v else m[u, v] for v in range(n)]
            for u in range(n)
        ]
    )


def direct_sum(*blocks: Matrix) -> Matrix:
    n = sum(b.rows for b in blocks)
    rows = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.rows):
                rows[at + i][at + j] = b[i, j]
        at += b.rows
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

    @pytest.mark.parametrize("entry", [Fraction(1, 2), 0.5, "1"], ids=["Fraction", "float", "str"])
    @pytest.mark.parametrize(
        "kernel", [char_poly_exact, lambda m: det_exact_at(m, 0)], ids=["char_poly_exact", "det_exact_at"]
    )
    def test_entry_not_int_refused(self, kernel, entry):
        with pytest.raises(ValueError, match=re.escape(f"exact kernels take int entries, got {entry!r}")):
            kernel(Matrix([[1, entry], [entry, 2]]))

    def test_against_cofactor_oracle(self):
        rng = random.Random(11)
        for _ in range(25):
            m = random_int_matrix(rng, rng.randint(1, 5))
            assert char_poly_exact(m) == charpoly_cofactor(m)

    def test_coefficients_are_ints(self):
        # Polynomial keeps the kernel's ints as they are
        coeffs = char_poly_exact(A_C4M).coeffs
        assert coeffs == (4, 0, -4, 0, 1)
        assert all(type(c) is int for c in coeffs)

    def test_order_zero_and_one(self):
        assert char_poly_exact(Matrix([])) == Polynomial([1])
        assert char_poly_exact(Matrix([[5]])) == Polynomial([-5, 1])

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
        table = linalg._PRIME_LADDER
        assert list(table) == sorted(set(table))
        assert all(sympy.isprime(p) for p in table)

    def test_moduli_choice(self):
        ladder = linalg._PRIME_LADDER
        assert linalg._moduli(1) == [2**61 - 1]
        assert linalg._moduli(2**60) == [2**127 - 1]
        assert linalg._moduli(2**600) == [2**607 - 1]
        assert linalg._moduli(2**606) == [2**607 - 1, 2**521 - 1]
        # the ladder's product is odd, so prod // 2 is the largest bound it covers
        top = math.prod(ladder) // 2
        assert linalg._moduli(top) == list(reversed(ladder))
        for bound in (top + 1, 2**30000):
            with pytest.raises(ValueError, match="past the prime ladder's 2117"):
                linalg._moduli(bound)

    @pytest.mark.parametrize(
        "n, moduli",
        [
            # the largest order the CLI admits: four primes of 224 to 607 bits
            (200, [2**607 - 1, 2**521 - 1, 2**255 - 19, 2**224 - 2**96 + 1]),
            (263, list(reversed(linalg._PRIME_LADDER))),
            (264, []),
        ],
    )
    def test_ladder_reach_on_complete_laplacians(self, monkeypatch, n, moduli):
        # the Laplacian of K_n has the largest row norms of any signed graph
        # of order n; the spy records each prime without running its pass
        seen = []

        def spy(a, p):
            seen.append(p)
            return [0] * (len(a) + 1)

        monkeypatch.setattr(linalg, "_char_poly_mod", spy)
        m = matrix_of(complete_graph(n), MatrixKind.LAPLACIAN)
        if moduli:
            char_poly_exact(m)
        else:
            with pytest.raises(ValueError, match="past the prime ladder"):
                char_poly_exact(m)
        assert seen == moduli


N0 = linalg._LANCZOS_MIN_ORDER


def hessenberg_only(m: Matrix) -> Polynomial:
    """char_poly_exact with the Lanczos path switched off: _char_poly_mod on
    each block of the twin split (on the whole matrix when it is not
    symmetric), mod each prime of _moduli."""
    saved = linalg._LANCZOS_MIN_ORDER
    linalg._LANCZOS_MIN_ORDER = math.inf
    try:
        return char_poly_exact(m)
    finally:
        linalg._LANCZOS_MIN_ORDER = saved


def quotient_split(rows):
    """_twin_quotient's roots and blocks, each block's quotient Q built by
    _quotient as _char_poly_int builds it: (cols, sizes, Q) per block."""
    roots, blocks = linalg._twin_quotient(rows)
    return roots, [(cols, sizes, linalg._quotient(rows, cols, sizes, diag)) for cols, sizes, diag in blocks]


class TestLanczos:
    """Symmetric matrices from order N0 take the twin reduction and Lanczos
    mod p; each residue must equal Hessenberg's."""

    @staticmethod
    def assert_residues_agree(m: Matrix, primes=linalg._PRIME_LADDER) -> tuple[int, int]:
        """Each block of order N0 or more: Lanczos equals Hessenberg unless
        it falls back (None).  The product of the split equals Hessenberg on
        the whole matrix; a matrix that is one twin-free block is its own
        quotient.  Returns how many Lanczos runs there were and how many of
        them fell back."""
        rows = m._rows
        roots, blocks = quotient_split(rows)
        assert len(roots) + sum(len(q) for _, _, q in blocks) == m.rows
        split = roots or len(blocks) > 1
        runs = fell_back = 0
        for p in primes:
            product = [1]
            for root in roots:
                product = linalg._poly_mul_mod(product, [-root, 1], p)
            for _, sizes, q in blocks:
                f = None
                if len(q) >= N0:
                    f = linalg._lanczos_mod(linalg._matvec(q), sizes, p)
                    runs += 1
                    fell_back += f is None
                    assert f in (None, linalg._char_poly_mod(q, p))
                product = linalg._poly_mul_mod(product, linalg._char_poly_mod(q, p) if f is None else f, p)
            if split:
                assert product == linalg._char_poly_mod(rows, p)
            else:
                assert blocks[0][2] == list(map(list, rows))
        return runs, fell_back

    @pytest.mark.parametrize("n", [N0, 37, 60])
    def test_random_graphs(self, n):
        # past order N0 the three kinds share the ladder's primes out
        g = random_signed_graph(random.Random(500 + n), n)
        ladder = linalg._PRIME_LADDER
        for i, kind in enumerate(MatrixKind):
            runs, fell_back = self.assert_residues_agree(matrix_of(g, kind), ladder if n == N0 else ladder[i::3])
            assert runs and not fell_back

    @pytest.mark.parametrize("label", ["2.3", "3.3"])
    def test_coronas_at_max_n_13(self, label):
        # the first four corona pairs of order at most 70 that keep a block
        # of order N0 or more: some with twins, some without; Lanczos may
        # fall back on a block with repeated eigenvalues, but not on all
        twins, runs, fell_back = [], 0, 0
        for s1, s2, _ in THEOREMS[label].cases(random.Random(7), 40, 13, _points(7)):
            if len(twins) == 4:
                break
            corona = neighbourhood_corona(s1, s2)
            if corona.n > 70:
                continue
            for kind in MatrixKind:
                m = matrix_of(corona, kind)
                roots, blocks = linalg._twin_quotient(m._rows)
                if not any(len(q) >= N0 for _, _, q in blocks):
                    break
                counts = self.assert_residues_agree(m, [linalg._PRIME_LADDER[0], *linalg._moduli(2 ** (3 * m.rows))])
                runs, fell_back = runs + counts[0], fell_back + counts[1]
            else:
                twins.append(len(roots))
        assert len(twins) == 4
        assert min(twins) == 0 < max(twins)
        assert fell_back < runs

    def test_complete_edgeless_and_disconnected(self):
        rng = random.Random(N0)
        parts = [random_signed_graph(rng, N0), random_signed_graph(rng, 5), edgeless(2)]
        for kind in MatrixKind:
            disconnected = direct_sum(*(matrix_of(g, kind) for g in parts))
            for m in [matrix_of(g, kind) for g in (complete_graph(N0), complete_graph(N0, -1), edgeless(N0))] + [disconnected]:
                assert self.assert_residues_agree(m)[1] == 0
                assert char_poly_exact(m) == hessenberg_only(m)
        assert char_poly_exact(matrix_of(edgeless(N0), MatrixKind.ADJACENCY)).coeffs == (0,) * N0 + (1,)

    def test_weighted_quotient_block(self):
        # N0 + 4 classes of sizes 1 to 3 with a degree diagonal: one quotient
        # block of order N0 + 4 whose form has weights above 1
        rng = random.Random(600)
        m, _ = twin_matrix(rng, [rng.randint(1, 3) for _ in range(N0 + 4)], lambda rng: rng.choice((-1, 1)))
        m = with_degree_diagonal(m)
        ((_, sizes, q),) = quotient_split(m._rows)[1]
        assert len(q) == N0 + 4 and max(sizes) > 1
        assert self.assert_residues_agree(m) == (len(linalg._PRIME_LADDER), 0)

    def test_unequal_classes_in_one_block(self):
        # the corona of the unbalanced C4 with six vertices and the one edge
        # 0 1 -: order 28, 12 classes of sizes 1, 2 and 4 in one block; the
        # four classes of four isolated copies give 0 three times each
        corona = neighbourhood_corona(unbalanced_c4(), SignedGraph(6, ((0, 1, -1),)))
        p = 2**61 - 1
        for kind in MatrixKind:
            m = matrix_of(corona, kind)
            ((_, sizes, q),) = quotient_split(m._rows)[1]
            assert m.rows == 28 and len(q) == 12 and set(sizes) == {1, 2, 4}
            assert [x % p for x in char_poly_exact(m).coeffs] == linalg._char_poly_mod(m._rows, p)
        m = matrix_of(corona, MatrixKind.ADJACENCY)
        coeffs = char_poly_exact(m).coeffs
        assert not any(coeffs[:12]) and coeffs[12]
        assert (0.0, 12) in sym_eigenvalues(m, 0.0).pairs

    def test_selection(self, monkeypatch):
        # every symmetric matrix takes the twin split, whatever its order; a
        # quotient block takes Lanczos from order N0, and any other matrix
        # Hessenberg
        calls = []
        real_mod, real_lanczos, real_split = linalg._char_poly_mod, linalg._lanczos_mod, linalg._twin_quotient

        def spy_split(rows):
            calls.append(("twin split", len(rows)))
            return real_split(rows)

        def spy_mod(a, p):
            calls.append(("hessenberg", len(a)))
            return real_mod(a, p)

        def spy_lanczos(apply, weights, p):
            calls.append(("lanczos", len(weights)))
            return real_lanczos(apply, weights, p)

        monkeypatch.setattr(linalg, "_char_poly_mod", spy_mod)
        monkeypatch.setattr(linalg, "_lanczos_mod", spy_lanczos)
        monkeypatch.setattr(linalg, "_twin_quotient", spy_split)
        rng = random.Random(71)
        symmetric = matrix_of(random_signed_graph(rng, N0), MatrixKind.LAPLACIAN)
        small = matrix_of(random_signed_graph(rng, N0 - 1), MatrixKind.LAPLACIAN)
        nonsymmetric = random_int_matrix(rng, N0 + 6, -1, 1)
        for m, expected in [
            (nonsymmetric, [("hessenberg", N0 + 6)]),
            (small, [("twin split", N0 - 1), ("hessenberg", N0 - 1)]),
            (symmetric, [("twin split", N0), ("lanczos", N0)]),
        ]:
            calls.clear()
            p = char_poly_exact(m)
            assert calls == expected, calls
            assert p == charpoly_faddeev(m)

    def test_forced_breakdown_falls_back(self, monkeypatch):
        # an isotropic start vector: a^2 + b^2 + c^2 = 0 mod 2^61 - 1
        p = linalg._PRIME_LADDER[0]
        a, b = 1, next(b for b in range(1, 100) if pow(-(1 + b * b) % p, (p - 1) // 2, p) == 1)
        c = pow(-(1 + b * b) % p, (p + 1) // 4, p)  # p = 3 mod 4
        assert (a * a + b * b + c * c) % p == 0
        draws, fallbacks = [], []
        real_mod = linalg._char_poly_mod

        def isotropic(rng, r):
            draws.append(r)
            return [a, b, c] + [0] * (r - 3)

        def spy_mod(rows, p):
            fallbacks.append(len(rows))
            return real_mod(rows, p)

        monkeypatch.setattr(linalg, "_draw", isotropic)
        monkeypatch.setattr(linalg, "_char_poly_mod", spy_mod)
        # sparse enough that 2^61 - 1 alone covers the coefficient bound
        m = matrix_of(random_signed_graph_with_density(random.Random(73), N0 + 2, 0.2), MatrixKind.ADJACENCY)
        ((_, _, q),) = linalg._twin_quotient(m._rows)[1]
        assert len(q) == N0 + 2  # twin-free and connected: one block, unit weights
        assert char_poly_exact(m) == charpoly_faddeev(m)
        assert draws == [N0 + 2]  # one draw, no retry
        assert fallbacks == [N0 + 2]

    def test_high_multiplicity_falls_back(self, monkeypatch):
        # the line graph of K_9 has no twins and three eigenvalues, 14, 5 and
        # -2 (27 times): its first invariant subspace has dimension 3, so at
        # least 12 are needed, more than 36 / 8, and one draw decides
        pairs = [(a, b) for a in range(9) for b in range(a + 1, 9)]
        edges = [(i, j, 1) for i in range(36) for j in range(i + 1, 36) if set(pairs[i]) & set(pairs[j])]
        m = matrix_of(SignedGraph(36, tuple(edges)), MatrixKind.ADJACENCY)
        ((_, _, q),) = linalg._twin_quotient(m._rows)[1]
        assert len(q) == 36
        draws, fallbacks = [], []
        real_draw, real_mod = linalg._draw, linalg._char_poly_mod

        def spy_draw(rng, r):
            draws.append(r)
            return real_draw(rng, r)

        def spy_mod(rows, p):
            fallbacks.append(len(rows))
            return real_mod(rows, p)

        monkeypatch.setattr(linalg, "_draw", spy_draw)
        monkeypatch.setattr(linalg, "_char_poly_mod", spy_mod)
        p = char_poly_exact(m)
        assert draws == [36] and fallbacks == [36]  # one prime, one draw
        expected = [1]
        for root in [14] + [5] * 8 + [-2] * 27:
            expected = [a - root * b for a, b in zip([0] + expected, expected + [0])]
        assert p == Polynomial(expected)

    def test_huge_entries_take_several_primes(self, monkeypatch):
        rng = random.Random(79)
        m = random_symmetric(rng, N0, -(10**12), 10**12)
        moduli = []
        real = linalg._lanczos_mod

        def spy(apply, weights, p):
            moduli.append(p)
            return real(apply, weights, p)

        monkeypatch.setattr(linalg, "_lanczos_mod", spy)
        assert char_poly_exact(m) == charpoly_faddeev(m)
        assert len(moduli) > 1

    def test_module_random_state_untouched(self):
        state = random.getstate()
        char_poly_exact(matrix_of(random_signed_graph(random.Random(83), 40), MatrixKind.LAPLACIAN))
        assert random.getstate() == state


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
        assert det_exact_at(Matrix([[5]]), Fraction(1, 3)) == Fraction(-14, 3)

    def test_zero_first_pivot(self):
        # t0 equals the (0, 0) entry, so elimination takes a congruence first
        m = Matrix([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
        assert det_exact_at(m, 2) == poly_at(charpoly_cofactor(m), 2)
        assert det_exact_at(Matrix([[2, 0], [0, 5]]), 2) == 0

    def test_accepts_any_fraction_argument(self):
        m = Matrix([[0, 1], [1, 0]])
        assert det_exact_at(m, "3/2") == det_exact_at(m, 1.5) == Fraction(5, 4)

    def test_matches_char_poly_at_rational_points(self):
        # the shape corona_adjacency_charpoly_eval evaluates: A + kappa * A^2
        rng = random.Random(29)
        for _ in range(12):
            a = random_symmetric(rng, rng.randint(1, 9), -1, 1)
            kappa = rng.randint(-7, 7)
            for m in (a + scaled(kappa, squared(a)), random_symmetric(rng, a.rows, -9, 9)):
                p = char_poly_exact(m)
                for _ in range(3):
                    t0 = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                    assert det_exact_at(m, t0) == poly_at(p, t0)

    def test_matches_char_poly_on_random_matrices(self):
        rng = random.Random(5)
        for _ in range(20):
            m = random_symmetric(rng, rng.randint(1, 8))
            p = char_poly_exact(m)
            for t in range(-3, 4):
                assert det_exact_at(m, t) == poly_at(p, t)

    # t0 = a/b with b = 1, 2 and 3 and with a = 0; integer points that equal
    # a (net) Laplacian diagonal entry make b*M - a*I sparser than M
    MANY_POINTS = [
        0, 1, -2, 3, 4, 5, -1, Fraction(1, 2), Fraction(-3, 2), Fraction(9, 2), Fraction(7, 3), Fraction(-1, 3)
    ]

    @pytest.mark.parametrize("kind", list(MatrixKind))
    def test_one_matrix_at_many_points(self, kind):
        # _pencil and det_exact_at on one matrix at all twelve points, the
        # pencil's determinant in GF(p), a/b as a * b^-1 mod p
        p = linalg._PRIME_LADDER[0]
        rng = random.Random(59)
        for n1, n2 in ((4, 3), (1, 5), (5, 2)):
            corona = neighbourhood_corona(random_signed_graph(rng, n1), random_signed_graph(rng, n2))
            m = matrix_of(corona, kind)
            for t0 in map(Fraction, self.MANY_POINTS):
                expected = det_at_oracle(m, t0)
                t = t0.numerator * pow(t0.denominator, -1, p) % p
                assert stands_for(_det_mod(_pencil(m, t, 1), p), expected.numerator * pow(expected.denominator, -1, p), p)
                assert det_exact_at(m, t0) == expected

    @pytest.mark.parametrize("rows", [[[0, 1], [0, 0]], [[1, 2, 0], [2, 0, 3], [0, -3, 1]]])
    def test_non_symmetric_matrix_refused(self, rows):
        # every graph matrix is symmetric; the check runs on the sparse-first
        # rows, before any point
        for call in (lambda m: det_exact_at(m, 2), lambda m: _pencil(m, 2, 1)):
            with pytest.raises(ValueError, match="det_exact_at needs a symmetric matrix"):
                call(Matrix(rows))

    @pytest.mark.parametrize("entry", [True, 1.0, Fraction(1)], ids=["bool", "float", "Fraction"])
    def test_entry_equal_to_an_int_still_refused(self, entry):
        # Matrix([[entry]]) equals and hashes like Matrix([[1]]), which has
        # already been evaluated; a failed check keeps nothing, so it fails
        # again
        assert det_exact_at(Matrix([[1]]), 2) == 1
        m = Matrix([[entry]])
        assert m == Matrix([[1]]) and hash(m) == hash(Matrix([[1]]))
        for _ in range(2):
            with pytest.raises(ValueError, match=re.escape(f"exact kernels take int entries, got {entry!r}")):
                det_exact_at(m, 2)


@st.composite
def sym_int_matrices(draw):
    """Symmetric integer matrices of order 0-25 at a random density, some of
    them with a zero row and column, a zero diagonal or a row and column
    that combine two others."""
    n = draw(st.integers(0, 25))
    density = draw(st.floats(0.0, 1.0))
    shape = draw(st.sampled_from(["plain", "zero row", "zero diagonal", "rank deficient"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(-4, 4) if rng.random() < density else 0
    if shape == "zero row" and n:
        k = rng.randrange(n)
        rows[k] = [0] * n
        for row in rows:
            row[k] = 0
    elif shape == "zero diagonal":
        for i in range(n):
            rows[i][i] = 0
    elif shape == "rank deficient" and n >= 3:
        # T^T M T, T the identity with column k replaced by c1 e_i + c2 e_j:
        # column k becomes c1 times column i plus c2 times column j
        i, j, k = rng.sample(range(n), 3)
        c1, c2 = rng.randint(-3, 3), rng.randint(-3, 3)
        cols = [[(u, 1)] if u != k else [(i, c1), (j, c2)] for u in range(n)]
        rows = [
            [sum(x * y * rows[p][q] for p, x in cols[u] for q, y in cols[v]) for v in range(n)]
            for u in range(n)
        ]
    return shape, rows


@st.composite
def twin_block_matrices(draw, cut=8):
    """Two sym_int_matrices cut to order `cut` or less, each vertex blown up into
    a twin class of one to three members with a mutual entry of -1, 0 or 1,
    put side by side and relabelled at random: twin classes, disconnected
    parts, and twins across the parts (isolated classes with equal
    diagonals), as rows."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    parts = []
    for _ in range(2):
        rows = [row[:cut] for row in draw(sym_int_matrices())[1][:cut]]
        owner = [i for i in range(len(rows)) for _ in range(rng.randint(1, 3))]
        c = [rng.choice((-1, 0, 1)) for _ in rows]
        parts.append(Matrix(
            [(rows[i][i] if u == v else c[i]) if i == j else rows[i][j] for v, j in enumerate(owner)]
            for u, i in enumerate(owner)
        ))
    m = direct_sum(*parts)
    perm = list(range(m.rows))
    rng.shuffle(perm)
    return [list(row) for row in permuted(m, perm)._rows]


def upper(rows: list[list[int]]) -> list[list[int]]:
    """The upper triangle that _det_mod and _det_int take: row i from column i."""
    return [row[i:] for i, row in enumerate(rows)]


def stands_for(pair: tuple[int, int], det: int, p: int) -> bool:
    """Whether _det_mod's projective (num, den) is det mod p: den nonzero and
    num = det*den mod p."""
    num, den = pair
    return den % p != 0 and (num - det * den) % p == 0


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


# odd primes small enough that zero pivots, and so congruences, are common,
# the smallest prime of the ladder, and the next, the modulus of verify 2.2
DET_PRIMES = (3, 5, 7, *linalg._PRIME_LADDER[:2])

# _det_mod's crossover: every step takes an inverse, the default mix, and
# every step scales its rows
CROSSOVERS = pytest.mark.parametrize(
    "crossover", [0, linalg._INVERT_MIN_WORK, 10**9], ids=["inverting", "mixed", "scaling"]
)


class TestModularDeterminant:
    """The GF(p) symmetric elimination and its Chinese-remainder lift against
    dense Bareiss, its congruence at a zero pivot, and det_exact_at on large
    coronas."""

    @CROSSOVERS
    @settings(max_examples=200, deadline=None)
    @given(sym_int_matrices())
    def test_det_mod_equals_dense_oracle(self, crossover, case):
        # in the natural order, where a zero diagonal or a zero leading
        # principal minor makes a zero pivot, and sparse first
        shape, rows = case
        expected = det_bareiss_dense([row[:] for row in rows])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_INVERT_MIN_WORK", crossover)
            for triangle in (upper(rows), _pencil(Matrix(rows), 0, -1)):  # M itself, sparse first
                for p in DET_PRIMES:
                    assert stands_for(_det_mod(triangle, p), expected, p)
        if shape in ("zero row", "rank deficient") and len(rows) >= 3:
            assert expected == 0

    @settings(max_examples=100, deadline=None)
    @given(sym_int_matrices())
    def test_det_int_equals_dense_oracle(self, case):
        _, rows = case
        assert _det_int(upper(rows)) == det_bareiss_dense([row[:] for row in rows])

    @pytest.mark.parametrize(
        "rows, det",
        [
            # e = 1: the new pivot is 2*a_01 + a_11 = 4, where -2*a_01 + a_11 is 0
            ([[0, 1], [1, 2]], -1),
            # e = -1: 2*a_01 + a_11 would be 0, so the new pivot is -2*a_01 + a_11 = -4
            ([[0, 1], [1, -2]], -1),
            # step 0 leaves column 1 of the trailing matrix zero
            ([[-1, 1, 1], [1, -1, -1], [1, -1, -1]], 0),
            # a congruence at step 0 with row 3, then a zero column at step 2
            ([[0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 1], [1, 1, 1, -1]], 0),
            # rows 1 to 3 keep their zero leads at step 0; row 1's pivot is
            # then zero and its first nonzero is in column 3, so its partner
            # row 3 is read at column 1 from the pivot row and at column 2
            # from its mirror (2, 3) in row 2
            (
                [[3, 0, 0, 0, 2], [0, 0, 0, -1, 1], [0, 0, -2, -2, 0], [0, -1, -2, 0, 0], [2, 1, 0, 0, 0]],
                4,
            ),
            # the partner row 2 was updated at step 0, so its mirror in row 1
            # and its own entries are read after that update
            ([[1, 1, 1], [1, 1, 0], [1, 0, 0]], -1),
            # pivot 2 at step 0 scales rows 1 to 3 by d = 2 unless it inverts;
            # the trailing matrix is [[0, 0, 1], [0, -1, 1], [1, 1, 1]], so
            # step 1 has a zero pivot and its partner row 3, read at column 2
            # from its mirror in row 2, comes over d = 2 in both
            ([[2, 2, 2, 2], [2, 2, 2, 3], [2, 2, 1, 3], [2, 3, 3, 3]], 2),
        ],
    )
    @CROSSOVERS
    def test_zero_pivot(self, monkeypatch, crossover, rows, det):
        monkeypatch.setattr(linalg, "_INVERT_MIN_WORK", crossover)
        assert det_bareiss_dense([row[:] for row in rows]) == det
        for p in DET_PRIMES:
            assert stands_for(_det_mod(upper(rows), p), det, p)
        assert _det_int(upper(rows)) == det

    @staticmethod
    def inverses(monkeypatch, rows, p):
        """_det_mod of rows mod p, checked against dense Bareiss, and the
        number of modular inverses it took."""
        calls = []

        def spy(x, e, m):
            calls.append(e == -1)
            return pow(x, e, m)

        monkeypatch.setattr(linalg, "pow", spy, raising=False)
        assert stands_for(_det_mod(upper(rows), p), det_bareiss_dense([row[:] for row in rows]), p)
        assert all(calls)
        return len(calls)

    @staticmethod
    def pivot_free(rng, n, lo, p):
        """The first random symmetric matrix of order n and entries in
        [-lo, lo] whose leading principal minors are all nonzero mod p, so
        that _det_mod meets no zero pivot."""
        while True:
            rows = [list(row) for row in random_symmetric(rng, n, -lo, lo)._rows]
            if all(det_bareiss_dense([row[:m] for row in rows[:m]]) % p for m in range(1, n + 1)):
                return rows

    def test_no_inverse_below_the_crossover(self, monkeypatch):
        # below order 9 no step reaches the crossover, and the row scales
        # stay in the projective result's den
        p = linalg._PRIME_LADDER[1]
        rng = random.Random(9)
        for n in range(1, 9):
            assert (n - 1) * n < linalg._INVERT_MIN_WORK
            for lo in (1, 4, 10**12):
                assert self.inverses(monkeypatch, self.pivot_free(rng, n, lo, p), p) == 0

    @pytest.mark.parametrize("n", [16, 20, 26])
    def test_one_inverse_per_step_above_the_crossover(self, monkeypatch, n):
        # a step of width n - k has at most n - k - 1 nonzero leads
        p = linalg._PRIME_LADDER[1]
        rows = self.pivot_free(random.Random(n), n, 9, p)
        above = sum((n - k - 1) * (n - k) >= linalg._INVERT_MIN_WORK for k in range(n))
        assert 0 < self.inverses(monkeypatch, rows, p) <= above
        monkeypatch.setattr(linalg, "_INVERT_MIN_WORK", 0)
        assert self.inverses(monkeypatch, rows, p) == n
        monkeypatch.setattr(linalg, "_INVERT_MIN_WORK", 10**9)
        assert self.inverses(monkeypatch, rows, p) == 0

    def test_one_inverse_per_scale_read(self, monkeypatch):
        # scaling only, so every inverse belongs to a zero pivot's congruence,
        # which inverts the scale of the partner row and of every mirror it
        # reads, one inverse each: on the order-182 corona adjacency at 0, 52
        # congruences read 78 scales
        rng = random.Random(43)
        corona = neighbourhood_corona(random_signed_graph(rng, 13), random_signed_graph(rng, 13))
        adjacency = matrix_of(corona, MatrixKind.ADJACENCY)
        det = det_bareiss_dense([[-x for x in row] for row in adjacency._rows])
        for p in linalg._PRIME_LADDER[:2]:
            congruences, inverses = [], []

            def first(candidates, default):
                j = next(candidates, default)
                congruences.append(j is not None)
                return j

            def spy(x, e, m):
                inverses.append(e)
                return pow(x, e, m)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(linalg, "_INVERT_MIN_WORK", 10**9)
                mp.setattr(linalg, "next", first, raising=False)
                mp.setattr(linalg, "pow", spy, raising=False)
                assert stands_for(_det_mod(_pencil(adjacency, 0, 1), p), det, p)  # -A, sparse first
            assert all(congruences) and len(congruences) == 52
            assert inverses == [-1] * 78

    def test_sylvester_hadamard_reaches_the_bound(self):
        # |det H16| = 4^16 is Hadamard's bound, the product of the row norms
        h = [[1]]
        for _ in range(4):
            h = [row + row for row in h] + [row + [-x for x in row] for row in h]
        assert _det_int(upper(h)) == 4**16
        assert det_exact_at(Matrix(h), 0) == 4**16

    def test_huge_entries_take_several_primes(self, monkeypatch):
        rng = random.Random(23)
        rows = random_symmetric(rng, 8, -(10**30), 10**30)._rows
        moduli = []
        real = linalg._det_mod

        def spy(a, p):
            moduli.append(p)
            return real(a, p)

        monkeypatch.setattr(linalg, "_det_mod", spy)
        assert _det_int(upper(rows)) == det_bareiss_dense([list(row) for row in rows])
        assert len(moduli) > 1

    @pytest.mark.parametrize(
        "mods",
        [[2**61 - 1], [2**607 - 1, 2**521 - 1], list(reversed(linalg._PRIME_LADDER))],
        ids=["one prime", "two primes", "whole ladder"],
    )
    def test_lift_gives_symmetric_residues(self, mods):
        # every value of absolute value up to half the product, the extremes
        # included, comes back from its residues
        half = math.prod(mods) // 2
        rng = random.Random(len(mods))
        values = [0, 1, -1, half, -half] + [rng.randint(-half, half) for _ in range(20)]
        assert linalg._lift(mods, [[v % p for v in values] for p in mods]) == values

    def test_point_past_the_ladder_refused(self):
        # det(t0*I - M) = t0 - 1 has a bound of about 2326 bits at t0 = 10^700
        with pytest.raises(ValueError, match="past the prime ladder's 2117"):
            det_exact_at(Matrix([[1]]), 10**700)
        assert det_exact_at(Matrix([[1]]), 10**600) == 10**600 - 1

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
        # adjacency diagonal zero, so the first pivot is zero and takes a
        # congruence
        rng = random.Random(43)
        corona = neighbourhood_corona(random_signed_graph(rng, 13), random_signed_graph(rng, 13))
        m = matrix_of(corona, MatrixKind.ADJACENCY)
        assert m.rows == 182
        assert det_exact_at(m, 0) == det_at_oracle(m, 0)

    def test_largest_corona_at_a_nonzero_point(self):
        # the same order 182 at a non-integer point, whose Hadamard bound
        # takes two primes of the ladder
        rng = random.Random(43)
        corona = neighbourhood_corona(random_signed_graph(rng, 13), random_signed_graph(rng, 13))
        m = matrix_of(corona, MatrixKind.ADJACENCY)
        assert m.rows == 182
        assert det_exact_at(m, Fraction(-9, 2)) == det_at_oracle(m, Fraction(-9, 2))

    @staticmethod
    def sympy_det_at(m: Matrix, t0: Fraction) -> Fraction:
        sympy = pytest.importorskip("sympy")
        t = sympy.Rational(t0.numerator, t0.denominator)
        n = m.rows
        value = sympy.Matrix(n, n, lambda i, j: (t if i == j else 0) - int(m[i, j])).det(method="bareiss")
        return Fraction(int(value.p), int(value.q))

    def test_sparse_matrices_against_sympy(self):
        rng = random.Random(53)
        for _ in range(40):
            n = rng.randint(1, 12)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = rng.choice((-3, -2, -1, 1, 2, 3)) if rng.random() < 0.25 else 0
            m = Matrix(rows)
            for t0 in (Fraction(0), Fraction(7, 3)):
                expected = self.sympy_det_at(m, t0)
                assert det_at_oracle(m, t0) == expected
                assert det_exact_at(m, t0) == expected

    def test_int_matrices_at_rational_points(self):
        rng = random.Random(47)
        for _ in range(20):
            m = random_symmetric(rng, rng.randint(1, 12), -9, 9)
            for t0 in (0, Fraction(7, 3), Fraction(-9, 2)):
                assert det_exact_at(m, t0) == det_at_oracle(m, t0)

    def test_one_pass_per_prime_through_a_zero_pivot(self, monkeypatch):
        firsts = []

        def spy(a, p, kernel=linalg._det_mod):
            firsts.append(a[0][0])
            return kernel(a, p)

        monkeypatch.setattr(linalg, "_det_mod", spy)
        rng = random.Random(67)
        m = matrix_of(neighbourhood_corona(random_signed_graph(rng, 6), random_signed_graph(rng, 4)), MatrixKind.ADJACENCY)
        # at 7/3 the first pivot is 7 - 3*0; at 0 the adjacency diagonal is
        # zero, so the first pivot is, and each prime's one pass takes a
        # congruence
        for t0, first in ((Fraction(7, 3), 7), (Fraction(0), 0)):
            firsts.clear()
            assert det_exact_at(m, t0) == det_at_oracle(m, t0)
            assert firsts and firsts == [first] * len(firsts)


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

    @pytest.mark.parametrize("kind", list(MatrixKind))
    def test_order_zero_is_the_empty_multiset(self, kind):
        # no twin classes, no blocks and trace 0
        assert numeric_spectrum(edgeless(0), kind) == sym_eigenvalues(Matrix([])) == SpectrumMultiset(())

    def test_verify_sized_eigenvalues_are_pinned(self):
        # float.hex of every eigenvalue of the factors and coronas that 2.3,
        # 2.4, 3.3, 3.4 and 4.2 sample (seeds 0-3, 12 trials, max-n 6 and 9;
        # coronas of order up to 90), in all three kinds: a change to the
        # eigensolver or to the blocks it is handed that moves one last bit
        # changes this digest
        digest = hashlib.sha256()
        for label in ("2.3", "2.4", "3.3", "3.4", "4.2"):
            for max_n in (6, 9):
                for seed in range(4):
                    for s1, s2, _ in THEOREMS[label].cases(random.Random(seed), 12, max_n, _points(seed)):
                        for g in (s1, s2, neighbourhood_corona(s1, s2)):
                            for kind in MatrixKind:
                                pairs = sym_eigenvalues(matrix_of(g, kind), 0.0).pairs
                                digest.update(" ".join(f"{v.hex()}:{m}" for v, m in pairs).encode() + b"\n")
        assert digest.hexdigest() == "75b80786bd9c256540f22648db4c25a3829bb0f3dda4a6faf28f92e3c65ba2c8"

    def test_not_symmetric(self):
        with pytest.raises(ValueError, match=r"entries \(0,1\) and \(1,0\) differ"):
            sym_eigenvalues(Matrix([[0, 1], [0, 0]]))

    def test_not_symmetric_by_a_hair(self):
        # a float tolerance of 1e-12 * (1 + scale) averaged this difference away
        m = Matrix([[0, Fraction(1)], [1 + Fraction(1, 10**13), 0]])
        with pytest.raises(ValueError, match=r"entries \(0,1\) and \(1,0\) differ by 1\.000e-13"):
            sym_eigenvalues(m)

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
            sq = float(sum(squared(m)[i, i] for i in range(n)))
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
        graphs = [random_signed_graph_with_density(rng, rng.randint(1, 40), rng.random()) for _ in range(6)]
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
            self.assert_matches(sym_eigenvalues(m), np.linalg.eigvalsh(np.array(float_rows(m))))

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
            a = [[x * scale for x in row] for row in float_rows(m)]
            got = sorted(_ql_implicit(*_tridiagonalize(a)))
            for x, y in zip(got, reference):
                assert abs(x / scale - y) <= 1e-12 * (1 + radius)

    def test_star_with_hundredfold_zero(self):
        spec = sym_eigenvalues(matrix_of(star_graph(101), MatrixKind.ADJACENCY))
        root = math.sqrt(101)
        assert [m for _, m in spec.pairs] == [1, 100, 1]
        assert abs(spec.pairs[0][0] + root) < 1e-12 * root
        assert spec.pairs[1] == (0.0, 100)  # the leaves are one twin class, d = c = 0
        assert abs(spec.pairs[2][0] - root) < 1e-12 * root


class TestDeflation:
    """Twin classes and connected blocks are split off before the
    Householder solver; every case is checked against the Jacobi oracle and
    numpy, and that the intended reduction happened."""

    assert_matches = staticmethod(TestSymEigenvalues.assert_matches)

    def check(self, m):
        spec = sym_eigenvalues(m)
        self.assert_matches(spec, eigenvalues_jacobi(m))
        np = pytest.importorskip("numpy")
        self.assert_matches(spec, np.linalg.eigvalsh(np.array(float_rows(m))))

    @staticmethod
    def assert_classes_found(m, classes):
        # every built class lies inside one found class (two built classes
        # may happen to be twins of each other)
        found = [set(members) for members, _ in _twin_classes(m._rows)]
        for cls in classes:
            assert any(set(cls) <= f for f in found), (cls, found)

    @pytest.mark.parametrize("seed", range(12))
    def test_twin_classes(self, seed):
        rng = random.Random(seed)
        m, classes = twin_matrix(rng, [rng.randint(1, 3) for _ in range(rng.randint(1, 12))])
        self.assert_classes_found(m, classes)
        self.check(m)

    @pytest.mark.parametrize("seed", range(8))
    def test_degree_diagonal(self, seed):
        rng = random.Random(100 + seed)
        m, classes = twin_matrix(rng, [rng.randint(1, 3) for _ in range(rng.randint(2, 12))])
        m = with_degree_diagonal(m)
        assert any(m[u, u] for u in range(m.rows))
        self.assert_classes_found(m, classes)
        self.check(m)

    @pytest.mark.parametrize("seed", range(8))
    def test_fraction_entries(self, seed):
        rng = random.Random(200 + seed)
        m, classes = twin_matrix(
            rng,
            [rng.randint(1, 3) for _ in range(rng.randint(1, 10))],
            value=lambda rng: Fraction(rng.randint(-5, 5), rng.randint(1, 6)),
        )
        self.assert_classes_found(m, classes)
        self.check(m)

    @pytest.mark.parametrize("seed", range(8))
    def test_block_diagonal(self, seed):
        rng = random.Random(300 + seed)
        parts = [twin_matrix(rng, [rng.randint(1, 3) for _ in range(rng.randint(1, 5))])[0] for _ in range(3)]
        parts.append(random_symmetric(rng, rng.randint(1, 6)))
        m = direct_sum(*parts)
        perm = list(range(m.rows))
        rng.shuffle(perm)
        m = permuted(m, perm)
        blocks = _blocks(m._rows, _twin_classes(m._rows))
        assert sum(sum(len(members) for members, _ in b) for b in blocks) == m.rows
        assert len(blocks) >= 2  # not one per part: isolated vertices with equal diagonals in two parts are twins
        self.check(m)

    @settings(max_examples=150, deadline=None)
    @given(twin_block_matrices(4).filter(lambda rows: len(rows) < N0))
    def test_exact_split_below_lanczos_order_equals_hessenberg(self, rows):
        # the exact char poly splits every symmetric matrix by its twins,
        # below the Lanczos order too: the lifted product of the linear
        # factors and the blocks' Hessenberg polys is Hessenberg on the
        # whole matrix, mod small primes (zero pivots are common) and mod
        # the ladder's first
        coeffs = linalg._char_poly_int(rows)
        for p in DET_PRIMES:
            assert [c % p for c in coeffs] == linalg._char_poly_mod(rows, p)

    @settings(max_examples=80, deadline=None)
    @given(twin_block_matrices())
    def test_split_equals_brute_force(self, rows):
        # each class is a vertex with every twin it has, its c the entry
        # between them, and the blocks are the components of the classes'
        # graph by transitive closure, ordered by their first class
        n = len(rows)
        twins = [
            [v for v in range(n) if v == u or rows[u][u] == rows[v][v] and all(
                rows[u][w] == rows[v][w] for w in range(n) if w not in (u, v)
            )]
            for u in range(n)
        ]
        classes = [(t, rows[t[1]][u] if len(t) > 1 else 0) for u, t in enumerate(twins) if t[0] == u]
        assert _twin_classes(rows) == classes
        firsts = [members[0] for members, _ in classes]
        r = len(classes)
        reach = [[i == j or rows[firsts[i]][firsts[j]] != 0 for j in range(r)] for i in range(r)]
        for k in range(r):
            for i in range(r):
                if reach[i][k]:
                    reach[i] = [x or y for x, y in zip(reach[i], reach[k])]
        expected, seen = [], set()
        for i in range(r):
            if i not in seen:
                component = [j for j in range(r) if reach[i][j]]
                seen.update(component)
                expected.append([classes[j] for j in component])
        assert _blocks(rows, classes) == expected

    def test_isolated_vertex_keeps_its_exact_zero(self):
        # vertex 1 is a block of its own, solved exactly; solved together with
        # the path 0-2-3 its eigenvalue came out as rounding noise near 0
        s = SignedGraph(4, ((0, 2, 1), (2, 3, -1)))
        assert 0.0 in numeric_spectrum(s, MatrixKind.ADJACENCY, 0.0).values()

    def test_no_twins_one_block_is_solved_as_it_stands(self):
        rng = random.Random(401)
        m = random_symmetric(rng, 20, -9, 9)
        assert len(_twin_classes(m._rows)) == 20
        assert len(_blocks(m._rows, _twin_classes(m._rows))) == 1
        expected = sorted(_ql_implicit(*_tridiagonalize(float_rows(m))))
        assert sym_eigenvalues(m, 0.0).values() == expected


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
    shifted = Matrix([x - 1 for x in row] for row in m._rows)
    return det_exact_at(shifted, t0) / det_exact_at(m, t0) - 1


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

    def test_cubic_double_root_branch_is_stable(self):
        # (t-2)^2 (t+3) = t^3 - t^2 - 8t + 12: its discriminant is exactly 0,
        # so one-ulp noise in the coefficients puts it on either side of 0;
        # the roots must stay close to the exact ones on both sides
        rng = random.Random(53)
        for _ in range(2000):
            coeffs = [
                math.nextafter(c, rng.choice((-math.inf, math.inf))) if rng.random() < 0.7 else c
                for c in (-1.0, -8.0, 12.0)
            ]
            roots = real_roots_cubic(*coeffs)
            assert all(abs(r - e) < 1e-7 for r, e in zip(roots, (-3.0, 2.0, 2.0)))

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

    @pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan, math.inf, None, "1e-6", 1e-6j, True])
    def test_equality_refuses_a_tolerance_that_is_not_finite_and_positive(self, tol):
        a = SpectrumMultiset.from_values([1, 2, 2])
        with pytest.raises(ValueError, match="tolerance must be finite and positive"):
            spectra_equal(a, a, tol)

    @pytest.mark.parametrize("tol", [1e-14, 1e-9, 1e-6, 1e-2])
    def test_equality_is_relative_to_the_largest_value(self, tol):
        """spectra_equal and from_values share one rule: close means at most
        tol * (1 + R) apart, R the largest |value| compared."""
        a = SpectrumMultiset(((-1.0, 1), (100.0, 1)))
        near = SpectrumMultiset(((-1.0, 1), (100.0 + 0.5 * tol * 101, 1)))
        far = SpectrumMultiset(((-1.0, 1), (100.0 + 2 * tol * 101, 1)))
        assert spectra_equal(a, near, tol) and spectra_equal(near, a, tol)
        assert not spectra_equal(a, far, tol) and not spectra_equal(far, a, tol)
        assert SpectrumMultiset.from_values(a.values() + near.values()[1:], tol).pairs[1][1] == 2
        assert SpectrumMultiset.from_values(a.values() + far.values()[1:], tol).distinct_count == 3

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

"""Shared test helpers: two characteristic-polynomial oracles that share no
code with the modular Hessenberg implementation under test (cofactor
expansion for small orders, the Faddeev-LeVerrier recurrence for larger
ones), Horner evaluation of a polynomial, a dense Bareiss determinant oracle
for the modular symmetric elimination under test, a cyclic Jacobi
eigenvalue oracle that shares no code with the Householder/QL solver under
test, symmetric relabelling of a matrix, scaling a matrix by a scalar, a
random signed graph of a chosen edge density, a breadth-first
connectivity test, and the published (refuted) reading of 2.4, as
coefficients and as a closed form."""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction

from sgcorona import (
    ClosedFormEntry,
    ClosedFormSpectrum,
    Matrix,
    MatrixKind,
    Polynomial,
    SignedGraph,
    numeric_spectrum,
)


def charpoly_cofactor(m: Matrix) -> Polynomial:
    """det(tI - M) by recursive cofactor expansion over the polynomial ring,
    on ascending coefficient lists.

    Exponential in the order; keep inputs at 6x6 or below.
    """
    n = m.rows
    entries = [
        [[-Fraction(m[i, j]), 1] if i == j else [-Fraction(m[i, j])] for j in range(n)]
        for i in range(n)
    ]

    def det(rows: list[int], cols: list[int]) -> list[Fraction]:
        if len(rows) == 1:
            return entries[rows[0]][cols[0]]
        total = [Fraction(0)] * (len(rows) + 1)  # a k x k minor has degree <= k
        r = rows[0]
        rest = rows[1:]
        for idx, c in enumerate(cols):
            sign = 1 if idx % 2 == 0 else -1
            minor = det(rest, cols[:idx] + cols[idx + 1 :])
            for i, a in enumerate(entries[r][c]):
                for j, b in enumerate(minor):
                    total[i + j] += sign * a * b
        return total

    if n == 0:
        return Polynomial([1])
    return Polynomial(det(list(range(n)), list(range(n))))


def poly_at(p: Polynomial, x):
    """p(x) by Horner's scheme: exact at an int or Fraction x, a float at a
    float x."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def charpoly_faddeev(m: Matrix) -> Polynomial:
    """det(tI - M) by the Faddeev-LeVerrier recurrence in exact arithmetic:
    n matrix products, O(n^4). For integer matrices the recurrence stays in
    integers; each division is checked to be exact."""
    n = m.rows
    if n == 0:
        return Polynomial([1])
    rows = [[m[i, j] for j in range(n)] for i in range(n)]
    integral = all(Fraction(x).denominator == 1 for row in rows for x in row)
    a = [[int(x) if integral else Fraction(x) for x in row] for row in rows]
    work = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    for k in range(1, n + 1):
        prod = [
            [sum(a[i][l] * work[l][j] for l in range(n)) for j in range(n)]
            for i in range(n)
        ]
        tr = sum(prod[i][i] for i in range(n))
        if integral:
            q, r = divmod(tr, k)
            assert r == 0, "non-exact division in the Faddeev-LeVerrier recurrence"
            ck = -q
        else:
            ck = -tr / k
        coeffs[n - k] = ck
        for i in range(n):
            prod[i][i] += ck
        work = prod
    return Polynomial(coeffs)


def det_bareiss_dense(a: list[list[int]]) -> int:
    """Determinant of an integer matrix by dense fraction-free elimination
    (Bareiss, Math. Comp. 22, 1968): every row below the pivot is updated at
    every step, in natural order, with a row swap on a zero pivot. Destroys
    its argument."""
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i = a[i]
            row_k = a[k]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def eigenvalues_jacobi(m: Matrix) -> list[float]:
    """Sorted eigenvalues of a symmetric matrix by cyclic Jacobi rotations,
    swept until the off-diagonal Frobenius norm falls below
    1e-12 * (1 + ||M||_F). About 16 n^3 flops a sweep; keep orders small."""
    n = m.rows
    a = [[0.5 * (float(m[i, j]) + float(m[j, i])) for j in range(n)] for i in range(n)]
    frob = math.sqrt(sum(x * x for row in a for x in row))
    thresh = 1e-12 * (1.0 + frob)
    for _ in range(100):
        off = math.sqrt(2.0 * sum(a[p][q] ** 2 for p in range(n) for q in range(p + 1, n)))
        if off <= thresh:
            return sorted(a[i][i] for i in range(n))
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if apq == 0.0:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                tau = s / (1.0 + c)
                a[p][p] -= t * apq
                a[q][q] += t * apq
                a[p][q] = a[q][p] = 0.0
                for r in range(n):
                    if r == p or r == q:
                        continue
                    arp, arq = a[r][p], a[r][q]
                    a[r][p] = a[p][r] = arp - s * (arq + tau * arp)
                    a[r][q] = a[q][r] = arq + s * (arp - tau * arq)
    raise ArithmeticError("Jacobi iteration failed to converge")


def scaled(k, m: Matrix) -> Matrix:
    """k * m, entrywise."""
    return Matrix([[k * m[i, j] for j in range(m.cols)] for i in range(m.rows)])


def squared(m: Matrix) -> Matrix:
    """m * m, the list product of its rows and columns."""
    rows = m._rows
    return Matrix([[sum(x * y for x, y in zip(row, col)) for col in zip(*rows)] for row in rows])


def permuted(m: Matrix, perm) -> Matrix:
    """Symmetric relabelling: entry (i, j) of the result is m[perm[i], perm[j]]."""
    return Matrix([[m[perm[i], perm[j]] for j in range(m.cols)] for i in range(m.rows)])


def random_signed_graph_with_density(rng, n: int, p_edge: float) -> SignedGraph:
    """experiments.random_signed_graph with edge probability p_edge in place
    of 0.5: the same draws from rng, so p_edge = 0.5 gives the same graph."""
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p_edge:
                edges.append((u, v, -1 if rng.random() < 0.5 else 1))
    return SignedGraph(n, tuple(edges))


def is_connected(g: SignedGraph) -> bool:
    """Breadth-first search from vertex 0 reaches every vertex (the empty
    graph counts as connected)."""
    nbrs = {v: set() for v in range(g.n)}
    for a, b, _ in g.edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    reached = {0} if g.n else set()
    queue = deque(reached)
    while queue:
        for w in nbrs[queue.popleft()] - reached:
            reached.add(w)
            queue.append(w)
    return len(reached) == g.n


def two_root_table(n2: int, shift: int, k: int) -> tuple:
    """The two-root form's table at any row sum k: t^2 - (mu + (n2+1)*shift
    + k)*t - n2*mu^2 + ((2*n2+1)*shift + k)*mu + n2*shift*k.  3.4 as
    printed is k = 0."""
    return ((n2 * shift * k, (2 * n2 + 1) * shift + k, -n2), (-(n2 + 1) * shift - k, -1, 0), (1, 0, 0))


def printed_kpq_coeffs(p: int, q: int) -> tuple:
    """2.4's cubic as printed, as a table: t^3 - h*t^2 - (p*q + (p+q)*h^2)*t
    + p*q*h*(2h - 1) at the s-eigenvalue h."""
    pq = p * q
    return ((0, -pq, 2 * pq), (-pq, 0, -(p + q)), (0, -1, 0), (1, 0, 0))


def printed_kpq(s: SignedGraph, p: int, q: int) -> ClosedFormSpectrum:
    """2.4 as printed, for any parts p and q: 0 with multiplicity n(p+q-2)
    plus, for each s-eigenvalue h, the roots of printed_kpq_coeffs, evaluated
    as the closed forms print theirs."""
    n = s.n
    entries = [ClosedFormEntry(multiplicity=n * (p + q - 2), value=0.0)] if p + q > 2 else []
    table = printed_kpq_coeffs(p, q)
    for h, m in numeric_spectrum(s, MatrixKind.ADJACENCY).pairs:
        entries.append(ClosedFormEntry(multiplicity=m, coeffs=tuple((g2 * h + g1) * h + g0 for g0, g1, g2 in table)))
    return ClosedFormSpectrum("2.4", n * (p + q + 1), tuple(entries))

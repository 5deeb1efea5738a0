"""Shared test helpers, including an independent characteristic-polynomial
oracle by cofactor expansion (no shared code with the Faddeev-LeVerrier
implementation under test) and symmetric relabelling of a matrix."""

from __future__ import annotations

from fractions import Fraction

from sgcorona import Matrix, Polynomial


def charpoly_cofactor(m: Matrix) -> Polynomial:
    """det(tI - M) by recursive cofactor expansion over the polynomial ring.

    Exponential in the order; keep inputs at 6x6 or below.
    """
    n = m.rows
    entries = [
        [
            Polynomial([-Fraction(m[i, j]), 1]) if i == j else Polynomial([-Fraction(m[i, j])])
            for j in range(n)
        ]
        for i in range(n)
    ]

    def det(rows: list[int], cols: list[int]) -> Polynomial:
        if len(rows) == 1:
            return entries[rows[0]][cols[0]]
        total = Polynomial([])
        r = rows[0]
        rest = rows[1:]
        for idx, c in enumerate(cols):
            term = entries[r][c] * det(rest, cols[:idx] + cols[idx + 1 :])
            total = total + term if idx % 2 == 0 else total - term
        return total

    if n == 0:
        return Polynomial([1])
    return det(list(range(n)), list(range(n)))


def permuted(m: Matrix, perm) -> Matrix:
    """Symmetric relabelling: entry (i, j) of the result is m[perm[i], perm[j]]."""
    return Matrix([[m[perm[i], perm[j]] for j in range(m.cols)] for i in range(m.rows)])

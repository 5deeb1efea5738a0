"""Exact dense linear algebra over the rationals plus the numeric kernels:
characteristic polynomials, determinant point evaluation, a symmetric
eigensolver (Householder tridiagonalisation plus implicit-shift QL),
Kronecker algebra, and real root extraction for monic quadratics and
cubics."""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

Scalar = int | Fraction


class ComplexRootsError(ArithmeticError):
    """Real roots were expected but the discriminant is significantly negative."""


class Matrix:
    """Immutable dense matrix with exact integer or rational entries."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable[Scalar]]):
        data = tuple(tuple(row) for row in rows)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("all rows must have the same length")
        self._rows = data

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def ones(cls, rows: int, cols: int) -> "Matrix":
        return cls([[1] * cols for _ in range(rows)])

    @property
    def rows(self) -> int:
        return len(self._rows)

    @property
    def cols(self) -> int:
        return len(self._rows[0]) if self._rows else 0

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def require_square(self, op: str) -> None:
        if not self.is_square:
            raise ValueError(f"{op} needs a square matrix, got {self.rows}x{self.cols}")

    def __getitem__(self, ij: tuple[int, int]) -> Scalar:
        i, j = ij
        return self._rows[i][j]

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        return Matrix(
            [a + b for a, b in zip(ra, rb)] for ra, rb in zip(self._rows, other._rows)
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        return Matrix(
            [a - b for a, b in zip(ra, rb)] for ra, rb in zip(self._rows, other._rows)
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        cols = other.cols
        bt = list(zip(*other._rows)) if other._rows else [()] * cols
        return Matrix(
            [sum(a * b for a, b in zip(row, bt[j])) for j in range(cols)]
            for row in self._rows
        )

    def to_float(self) -> list[list[float]]:
        return [[float(x) for x in row] for row in self._rows]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Matrix) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)


class Polynomial:
    """Univariate polynomial with exact rational coefficients, stored in
    ascending order with no trailing zeros."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar]):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __str__(self) -> str:
        return "0" if self.is_zero else format_poly(self._coeffs, str)


def format_poly(coeffs: Iterable, fmt: Callable[[object], str]) -> str:
    """c0 + c1*t + c2*t^2 + ... from ascending coefficients, each written by fmt."""
    return " + ".join(
        fmt(c) if k == 0 else f"{fmt(c)}*t" if k == 1 else f"{fmt(c)}*t^{k}"
        for k, c in enumerate(coeffs)
    )


# Proven primes (Mersenne 2^61-1, 2^127-1, 2^521-1, 2^607-1; the Poly1305
# prime 2^130-5; the NIST P-192 and P-224 primes; 2^255-19), ascending: the
# moduli of char_poly_exact.  Beyond them, larger Mersenne primes, used only
# when the ladder's product is too small.
_PRIME_LADDER = (
    2**61 - 1,
    2**127 - 1,
    2**130 - 5,
    2**192 - 2**64 - 1,
    2**224 - 2**96 + 1,
    2**255 - 19,
    2**521 - 1,
    2**607 - 1,
)
_PRIME_RESERVE = (2**1279 - 1, 2**2203 - 1, 2**2281 - 1, 2**3217 - 1, 2**4253 - 1, 2**4423 - 1)


def _moduli(bound: int) -> list[int]:
    """Primes whose product exceeds 2*bound: the smallest single ladder prime
    that does, or else the ladder from the largest down, then the reserve.

    A pass of _char_poly_mod costs more the larger its prime (about 10, 20
    and 45 ms at 61, 255 and 521 bits on an order-48 Laplacian), and a pass
    mod 2^2203-1 at order 200 costs more than four passes mod the ladder's
    top primes, hence a ladder of moderate primes rather than one huge one.
    """
    for p in _PRIME_LADDER:
        if p > 2 * bound:
            return [p]
    out, prod = [], 1
    for p in (*reversed(_PRIME_LADDER), *_PRIME_RESERVE):
        out.append(p)
        prod *= p
        if prod > 2 * bound:
            return out
    raise ValueError(
        f"char poly coefficient bound of {bound.bit_length()} bits exceeds the prime table"
    )


def _char_poly_mod(a, p: int) -> list[int]:
    """Ascending coefficients of det(tI - A) mod p for an integer matrix A:
    reduction to upper Hessenberg form by elimination similarities over
    GF(p), then the Hessenberg recurrence (Cohen, GTM 138, Alg. 2.2.9).

    Column j takes as pivot its first entry at or below the subdiagonal
    that is nonzero mod p, swapped to row and column j+1; each row below
    subtracts u_i times the pivot row (columns j+1: only, the rest being
    zero), and the inverse similarity is applied once for the column:
    col_(j+1) += sum u_i col_i, one dot product per row.  A column already
    zero below the subdiagonal is skipped.  Row operations leave entries
    unreduced, below (k+1)*p^2 in size after k steps; an entry is reduced
    when it is read as a pivot, a multiplier or a pivot-row entry, when its
    column takes the inverse similarity, and in the recurrence.
    """
    n = len(a)
    h = [[x % p for x in row] for row in a]
    for j in range(n - 2):
        j1 = j + 1
        piv = next((i for i in range(j1, n) if h[i][j] % p), None)
        if piv is None:
            continue
        if piv != j1:
            h[piv], h[j1] = h[j1], h[piv]
            for row in h:
                row[piv], row[j1] = row[j1], row[piv]
        top = [x % p for x in h[j1][j1:]]
        inv = pow(h[j1][j], -1, p)
        us = [0] * (n - j - 2)
        for i in range(j + 2, n):
            row = h[i]
            u = row[j] * inv % p
            if u:
                us[i - j - 2] = u
                row[j] = 0
                row[j1:] = [x - u * y for x, y in zip(row[j1:], top)]
        if any(us):
            for row in h:
                row[j1] = (row[j1] + sum(map(operator.mul, us, row[j + 2 :]))) % p
    # polys[m] holds det(tI - H_m), H_m the leading m x m block:
    # det(tI - H_(m+1)) = (t - h_mm) det(tI - H_m)
    #     - sum_(i<m) h_im h_(i+1,i) ... h_(m,m-1) det(tI - H_i)
    polys = [[1]]
    for m in range(n):
        prev = polys[m]
        acc = [-h[m][m] * x for x in prev] + [0]
        for k, x in enumerate(prev):
            acc[k + 1] += x
        beta = 1
        for i in range(m - 1, -1, -1):
            beta = beta * h[i + 1][i] % p
            if not beta:
                break
            c = h[i][m] * beta % p
            if c:
                acc[: i + 1] = [x - c * y for x, y in zip(acc, polys[i])]
        polys.append([x % p for x in acc])
    return polys[n]


def _char_poly_int(a) -> list[int]:
    """Ascending coefficients of det(tI - A) for a square integer matrix A,
    given as rows: computed mod each prime of _moduli and lifted to Z by
    Chinese remaindering into symmetric residues.

    Each coefficient is, up to sign, a sum of principal minors, so by
    Hadamard's inequality |c_k| <= e_k(r) <= prod(1 + r_i), r_i the 2-norm
    of row i rounded up; moduli whose product exceeds twice that bound fix
    every coefficient.
    """
    bound = 1
    for row in a:
        s = sum(x * x for x in row)
        if s:
            bound *= math.isqrt(s - 1) + 2
    mods = _moduli(bound)
    big = math.prod(mods)
    coeffs = [0] * (len(a) + 1)
    for p in mods:
        q = big // p
        w = q * pow(q, -1, p)
        coeffs = [c + w * r for c, r in zip(coeffs, _char_poly_mod(a, p))]
    half = big // 2
    return [c - big if c > half else c for c in (c % big for c in coeffs)]


def _integer_rows(m: Matrix, *extra: int) -> tuple[int, list[list[int]]]:
    """(D, the rows of D*M), D the least common multiple of extra and of the
    denominators of M's entries.  Only the entries that are not ints
    contribute a denominator, so an integer matrix touches no Fraction."""
    dens = {x.denominator for row in m._rows for x in row if type(x) is not int}
    d = math.lcm(*extra, *dens)
    if dens:
        return d, [[x.numerator * (d // x.denominator) for x in row] for row in m._rows]
    return d, [[d * x for x in row] for row in m._rows]


def char_poly_exact(m: Matrix) -> Polynomial:
    """det(tI - M) with exact coefficients, by _char_poly_int on D*M, D the
    common denominator of M's entries: det(tI - D*M) has the coefficients
    D^(n-k) * c_k, where c_k are those of det(tI - M)."""
    m.require_square("char_poly_exact")
    d, rows = _integer_rows(m)
    n = m.rows
    return Polynomial(Fraction(c, d ** (n - k)) for k, c in enumerate(_char_poly_int(rows)))


def _bareiss_det(a: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix (Bareiss, Math. Comp.
    22, 1968), ordered and scaled to skip zeros.

    Rows and columns are first permuted symmetrically by ascending nonzero
    count, which leaves the determinant unchanged: sparse rows are
    eliminated before they fill in (Markowitz, Management Science 3, 1957).
    Step k of Bareiss multiplies a row whose entry in column k is 0 by
    pivot_k / prev_k and changes nothing else; since prev_(k+1) = pivot_k
    those factors telescope, so such a row is skipped and stamp[i] keeps
    the prev it is exact for.  It is brought up to date, by one exact
    division by its stamp, when it is next touched: as the pivot row, at
    the next step where its entry in the pivot column is nonzero, or as the
    last entry.  A zero pivot is swapped for a lower row with a nonzero
    entry in its column, and the stamps are swapped with the rows.
    """
    n = len(a)
    if n == 0:
        return 1
    order = sorted(range(n), key=[n - row.count(0) for row in a].__getitem__)
    if n > 1:  # itemgetter of a single index returns the entry, not a tuple
        take = operator.itemgetter(*order)
        a = [list(take(a[i])) for i in order]
    stamp = [1] * n
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    stamp[k], stamp[r] = stamp[r], stamp[k]
                    sign = -sign
                    break
            else:
                return 0
        s = stamp[k]
        tail = a[k][k:] if s == prev else [x * prev // s for x in a[k][k:]]
        pivot = tail.pop(0)
        k1 = k + 1
        for i in range(k1, n):
            row = a[i]
            lead = row[k]
            if lead:
                s = stamp[i]
                if s == prev:  # up to date: no catch-up multiply and divide
                    row[k1:] = [(x * pivot - lead * y) // prev for x, y in zip(row[k1:], tail)]
                else:
                    lead = lead * prev // s
                    row[k1:] = [
                        ((x * prev // s) * pivot - lead * y) // prev
                        for x, y in zip(row[k1:], tail)
                    ]
                stamp[i] = pivot
        prev = pivot
    return sign * a[n - 1][n - 1] * prev // stamp[n - 1]


def det_exact_at(m: Matrix, t0) -> Fraction:
    """Exact evaluation of det(t0*I - M) by fraction-free elimination.

    With D the common denominator of t0 and every entry, D*(M - t0*I) is an
    integer matrix, so det(t0*I - M) = (-1)^n det(D*(M - t0*I)) / D^n.  The
    determinant of the integer matrix is _bareiss_det's, which skips the
    zeros of a sparse matrix such as a corona's.
    """
    m.require_square("det_exact_at")
    t0 = Fraction(t0)
    d, rows = _integer_rows(m, t0.denominator)
    p = t0.numerator * (d // t0.denominator)
    for i, row in enumerate(rows):
        row[i] -= p
    n = m.rows
    return Fraction((-1) ** n * _bareiss_det(rows), d**n)


def kronecker_product(a: Matrix, b: Matrix) -> Matrix:
    p, q = b.rows, b.cols
    return Matrix(
        [a[i, j] * b[r, c] for j in range(a.cols) for c in range(q)]
        for i in range(a.rows)
        for r in range(p)
    )


def kronecker_sum(d: Matrix, c: Matrix) -> Matrix:
    """Kronecker sum of square matrices: C (x) I + I (x) D, whose eigenvalues
    are all pairwise sums of the factors' eigenvalues."""
    d.require_square("kronecker_sum")
    c.require_square("kronecker_sum")
    return kronecker_product(c, Matrix.identity(d.rows)) + kronecker_product(
        Matrix.identity(c.rows), d
    )


@dataclass(frozen=True)
class SpectrumMultiset:
    """Sorted eigenvalue/multiplicity pairs with tolerance-aware equality."""

    pairs: tuple[tuple[float, int], ...]

    @classmethod
    def from_values(cls, values: Iterable[float], tol: float = 1e-6) -> "SpectrumMultiset":
        vals = sorted(float(v) for v in values)
        if not vals:
            return cls(())
        gap = tol * (1.0 + max(abs(vals[0]), abs(vals[-1])))
        clusters: list[list[float]] = [[vals[0]]]
        for v in vals[1:]:
            if v - clusters[-1][-1] <= gap:
                clusters[-1].append(v)
            else:
                clusters.append([v])
        return cls(tuple((sum(c) / len(c), len(c)) for c in clusters))

    @property
    def total(self) -> int:
        return sum(m for _, m in self.pairs)

    @property
    def distinct_count(self) -> int:
        return len(self.pairs)

    def values(self) -> list[float]:
        out: list[float] = []
        for v, m in self.pairs:
            out.extend([v] * m)
        return out

    def nearest(self, target: float) -> tuple[float, int]:
        if not self.pairs:
            raise ValueError("empty spectrum")
        return min(self.pairs, key=lambda p: abs(p[0] - target))

    def to_json(self) -> list[dict]:
        return [{"value": v, "multiplicity": m} for v, m in self.pairs]

    def __str__(self) -> str:
        return ", ".join(f"{_fmt(v)} x{m}" for v, m in self.pairs)


def _fmt(v: float) -> str:
    s = f"{v:.5f}"
    return "0.00000" if s == "-0.00000" else s


def spectra_equal(a: SpectrumMultiset, b: SpectrumMultiset, tol: float) -> bool:
    """Multiset equality after expansion: totals agree and sorted entries
    differ pairwise by less than tol."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if a.total != b.total:
        return False
    return all(abs(x - y) < tol for x, y in zip(a.values(), b.values()))


def _tridiagonalize(a: list[list[float]]) -> tuple[list[float], list[float]]:
    """Householder reduction of a symmetric matrix to tridiagonal form,
    eigenvalues only (tred2 without the accumulated transformation).

    Returns the diagonal d and the off-diagonal e, where e[i] couples d[i]
    and d[i + 1].  Step k reflects row k's tail x onto its first entry and
    applies the reflector H = I - 2 v v^T to the trailing block B as the
    rank-2 update B - v w^T - w v^T, w = p - (v^T p) v, p = 2 B v.  v is
    x - alpha e_1 scaled to unit length, so no square of a tiny entry
    underflows.
    """
    d: list[float] = []
    e: list[float] = []
    b = a
    while len(b) > 1:
        x = b[0][1:]
        d.append(b[0][0])
        rest = [row[1:] for row in b[1:]]
        alpha = -math.copysign(math.hypot(*x), x[0])
        if len(x) == 1 or alpha == 0.0:
            e.append(x[0])
            b = rest
            continue
        x[0] -= alpha  # x - alpha e_1, with no cancellation
        length = math.hypot(*x)
        v = [xi / length for xi in x]
        p = [2.0 * sum(map(operator.mul, row, v)) for row in rest]
        vtp = sum(map(operator.mul, v, p))
        w = [pi - vtp * vi for pi, vi in zip(p, v)]
        e.append(alpha)
        b = [
            [bij - vi * wj - wi * vj for bij, vj, wj in zip(row, v, w)]
            for row, vi, wi in zip(rest, v, w)
        ]
    d.append(b[0][0])
    return d, e


def _eig2(a: float, b: float, c: float) -> tuple[float, float]:
    """Eigenvalues of [[a, b], [b, c]], the larger in magnitude first, as
    LAPACK dlae2 computes them: the smaller one comes from det / larger, so
    it carries no cancellation."""
    sm = a + c
    rt = math.hypot(a - c, 2.0 * b)
    if sm == 0.0:
        return 0.5 * rt, -0.5 * rt
    rt1 = 0.5 * (sm + math.copysign(rt, sm))
    big, small = (a, c) if abs(a) > abs(c) else (c, a)
    return rt1, (big / rt1) * small - (b / rt1) * b


def _ql_implicit(d: list[float], e: list[float]) -> list[float]:
    """Eigenvalues of the symmetric tridiagonal matrix (d, e) by QL with
    implicit Wilkinson shifts (EISPACK tql1, Golub & Van Loan 8.3).

    An off-diagonal entry is treated as zero once it is at most eps times
    the matrix norm max_i |d_i| + |e_i|; a test against the neighbouring
    diagonal alone never splits a cluster of zero eigenvalues.  An
    unreduced 2x2 block is solved in closed form.  Each eigenvalue gets at
    most 30 QL steps, as in tql1.  d is overwritten.
    """
    n = len(d)
    e = e + [0.0]
    tst = sys.float_info.epsilon * max(abs(di) + abs(ei) for di, ei in zip(d, e))
    for l in range(n):
        for _ in range(31):  # 30 QL steps, each after a deflation test
            m = l
            while m < n - 1 and abs(e[m]) > tst:
                m += 1
            if m == l:
                break
            if m == l + 1:
                d[l], d[m] = _eig2(d[l], e[l], d[m])
                e[l] = 0.0
                break
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                bb = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:  # underflow: the chase split the block
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * bb
                p = s * r
                d[i + 1] = g + p
                g = c * r - bb
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
        else:
            raise ArithmeticError(f"QL iteration failed to converge on eigenvalue {l}")
    return d


def sym_eigenvalues(m: Matrix, cluster_tol: float = 1e-6) -> SpectrumMultiset:
    """All eigenvalues of a real symmetric matrix by Householder
    tridiagonalisation followed by implicit-shift QL (Golub & Van Loan 8.3).

    The sorted eigenvalues are checked against the trace and then clustered
    into multiplicities with an absolute tolerance scaled by the spectral
    radius.
    """
    m.require_square("sym_eigenvalues")
    a = m.to_float()
    n = len(a)
    if n == 0:
        raise ValueError("sym_eigenvalues needs order >= 1")
    scale = max(max(abs(x) for x in row) for row in a)
    sym_tol = 1e-12 * (1.0 + scale)
    for i in range(n):
        for j in range(i + 1, n):
            if abs(a[i][j] - a[j][i]) > sym_tol:
                raise ValueError(
                    f"entries ({i},{j}) and ({j},{i}) differ by {abs(a[i][j] - a[j][i]):.3e}"
                )
            avg = 0.5 * (a[i][j] + a[j][i])
            a[i][j] = a[j][i] = avg
    trace0 = sum(a[i][i] for i in range(n))
    eigs = sorted(_ql_implicit(*_tridiagonalize(a)))
    if not abs(sum(eigs) - trace0) <= 1e-8 * (1.0 + abs(trace0)):  # NaN fails too
        raise ArithmeticError("eigenvalue sum drifted away from the trace")
    return SpectrumMultiset.from_values(eigs, cluster_tol)


def real_roots_quadratic(b: float, c: float) -> tuple[float, float]:
    """Both real roots of t^2 + b*t + c, sorted, with a cancellation-safe
    evaluation of the smaller-magnitude root."""
    b = float(b)
    c = float(c)
    disc = b * b - 4.0 * c
    scale = b * b + 4.0 * abs(c) + 1.0
    if disc < 0.0:
        if disc < -1e-9 * scale:
            raise ComplexRootsError(f"quadratic discriminant {disc:.3e} is negative")
        disc = 0.0
    s = math.sqrt(disc)
    q = -(b + s) / 2.0 if b >= 0.0 else (-b + s) / 2.0
    if q == 0.0:
        r1 = r2 = -b / 2.0
    else:
        r1, r2 = q, c / q
    return (r1, r2) if r1 <= r2 else (r2, r1)


def _polish_cubic_root(r: float, a2: float, a1: float, a0: float) -> float:
    for _ in range(3):
        f = ((r + a2) * r + a1) * r + a0
        df = (3.0 * r + 2.0 * a2) * r + a1
        if df == 0.0:
            break
        step = f / df
        candidate = r - step
        fc = ((candidate + a2) * candidate + a1) * candidate + a0
        if abs(fc) >= abs(f):
            break
        r = candidate
    return r


def real_roots_cubic(a2: float, a1: float, a0: float) -> tuple[float, float, float]:
    """All three real roots of t^3 + a2*t^2 + a1*t + a0, sorted.

    A discriminant below -1e-9 times its scale raises ComplexRootsError; any
    other is treated as non-negative.  With p < 0 the roots come from the
    trigonometric form with a clamped argument, so a double root, whose
    discriminant is 0 up to last-bit noise, takes the same branch on either
    side of 0.  Only the near-triple root (p >= 0) with a slightly negative
    discriminant falls back to one Cardano root plus deflation to a
    quadratic.
    """
    a2, a1, a0 = float(a2), float(a1), float(a0)
    p = a1 - a2 * a2 / 3.0
    q = 2.0 * a2 ** 3 / 27.0 - a2 * a1 / 3.0 + a0
    disc = -4.0 * p ** 3 - 27.0 * q * q
    scale = 4.0 * abs(p) ** 3 + 27.0 * q * q + 1.0
    shift = a2 / 3.0
    if disc < -1e-9 * scale:
        raise ComplexRootsError(f"cubic discriminant {disc:.3e} is negative")
    if p < 0.0:
        m = 2.0 * math.sqrt(-p / 3.0)
        arg = 3.0 * q / (p * m)
        arg = max(-1.0, min(1.0, arg))
        phi = math.acos(arg) / 3.0
        roots = [m * math.cos(phi - 2.0 * math.pi * k / 3.0) - shift for k in range(3)]
    elif disc >= 0.0:
        # disc >= 0 with p >= 0 forces p ~ q ~ 0: a (near-)triple root.
        y = math.copysign(abs(q) ** (1.0 / 3.0), -q)
        roots = [y - shift] * 3
    else:
        half_q = q / 2.0
        rad = math.sqrt(max(half_q * half_q + p ** 3 / 27.0, 0.0))
        u = math.copysign(abs(-half_q + rad) ** (1.0 / 3.0), -half_q + rad)
        v = math.copysign(abs(-half_q - rad) ** (1.0 / 3.0), -half_q - rad)
        t1 = _polish_cubic_root(u + v - shift, a2, a1, a0)
        b1 = a2 + t1
        c1 = a1 + t1 * b1
        r2, r3 = real_roots_quadratic(b1, c1)
        roots = [t1, r2, r3]
    roots = [_polish_cubic_root(r, a2, a1, a0) for r in roots]
    roots.sort()
    return (roots[0], roots[1], roots[2])

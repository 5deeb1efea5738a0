"""Exact dense linear algebra on integer matrices plus the numeric kernels:
characteristic polynomials and determinants modulo primes, lifted to Z by
Chinese remaindering (char polys of a symmetric matrix on its twin
quotient blocks, each by Hessenberg reduction or, from order 24, by
Lanczos, which falls back to Hessenberg when a start vector breaks down,
and of any other matrix by Hessenberg reduction; determinants of
symmetric matrices by elimination over GF(p) on the upper triangle, with
rows scaled so that only large steps take an inverse and the result
projective, a pair (num, den) whose division is left to the caller), a
symmetric eigensolver (Householder tridiagonalisation plus implicit-shift
QL on the twin quotient blocks), Kronecker algebra, and real root
extraction for monic quadratics and cubics.  The char poly and the
eigensolver read the twin split from one function, _twin_quotient, as
classes and diagonals; the char poly builds the integer quotient from them
(_quotient; a connected twin-free matrix is its own), the eigensolver its
float blocks."""

from __future__ import annotations

import math
import numbers
import operator
import random
import sys
from collections.abc import Callable, Iterable
from fractions import Fraction
from itertools import chain, compress

from ._record import Record, set_field

Scalar = int | Fraction


class ComplexRootsError(ArithmeticError):
    """Real roots were expected but the discriminant is significantly negative."""


class Matrix:
    """Immutable dense matrix with exact integer or rational entries; the
    exact kernels, char_poly_exact and det_exact_at, both modular, take int
    entries only, and det_exact_at a symmetric matrix only."""

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

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Matrix) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)


class Polynomial:
    """Univariate polynomial, its coefficients stored as given (the ints of
    char_poly_exact) in ascending order with no trailing zeros."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar]):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @property
    def coeffs(self) -> tuple[Scalar, ...]:
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
# moduli of the exact kernels.  Their product, of 2117 bits, covers the
# bound of _char_poly_int up to the Laplacian of K_263.
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


def _moduli(bound: int) -> list[int]:
    """Primes whose product exceeds 2*bound: the smallest single ladder prime
    that does, or else the ladder from the largest down, as many as it
    takes.  A bound past the whole ladder raises ValueError.

    A pass costs more the larger its prime.  On a dense signed Laplacian of
    order 48 it takes about 9, 17 and 30 ms by Lanczos (33, 63 and 151 ms by
    Hessenberg) at 61, 255 and 521 bits, on a 2-vCPU Intel Xeon guest under
    Python 3.11.  At order 200 a Lanczos pass mod 2^2203-1 takes 3.8 s, more
    than four passes mod the ladder's top primes (2.0 s), hence a ladder of
    moderate primes rather than one huge one.
    """
    for p in _PRIME_LADDER:
        if p > 2 * bound:
            return [p]
    out, prod = [], 1
    for p in reversed(_PRIME_LADDER):
        out.append(p)
        prod *= p
        if prod > 2 * bound:
            return out
    raise ValueError(
        f"a bound of {bound.bit_length()} bits is past the prime ladder's {prod.bit_length()}"
    )


def _hadamard(squares: Iterable[int]) -> int:
    """prod(1 + r_i), r_i the 2-norm of row i of a square integer matrix A
    rounded up, from the rows' sums of squares: by Hadamard's inequality a
    bound on |det A| and on each coefficient of det(tI - A), a sum of
    principal minors up to sign (|c_k| <= e_k(r) <= prod(1 + r_i))."""
    bound = 1
    for s in squares:
        if s:
            bound *= math.isqrt(s - 1) + 2
    return bound


def _lift(mods: list[int], residues: list[list[int]]) -> list[int]:
    """Chinese remaindering into symmetric residues: for each k, the integer
    of least absolute value congruent to residues[i][k] mod mods[i] for
    every i, exact below half the product of mods in absolute value."""
    big = math.prod(mods)
    values = [0] * len(residues[0])
    for p, rs in zip(mods, residues):
        q = big // p
        w = q * pow(q, -1, p)
        values = [v + w * r for v, r in zip(values, rs)]
    half = big // 2
    return [v - big if v > half else v for v in (v % big for v in values)]


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


# A step of _det_mod whose nonzero leads times width reaches this takes an
# inverse; a smaller one scales its rows (crossover tables in CHANGES.md).
_INVERT_MIN_WORK = 192


def _det_mod(upper, p: int) -> tuple[int, int]:
    """det A mod an odd prime p, projectively, as (num, den) with
    det A = num/den mod p and den nonzero, for a symmetric integer matrix A
    given as its upper triangle, row i holding columns i..n-1: elimination
    over GF(p) with diagonal pivots, on and above the diagonal only, as the
    trailing matrix stays symmetric; a row whose lead, its entry in the
    pivot row, is 0 is left as it is.  Stored row r is d[r] times the true
    row, so the pivot P of row k, f = P*d[k], needs no inverse (Bareiss,
    Math. Comp. 22, 1968): a step below _INVERT_MIN_WORK sets a row r of
    lead t to f*row - d[r]*t*tail mod p and d[r] to d[r]*f; a larger one
    subtracts d[r]*t/f times the tail, one inverse, adding under p^2 to each
    entry.  The pivot row is reduced mod p.  num is the product of the P
    and den that of the d, kept as a running product, so the result takes
    no inverse; the caller divides or cross-multiplies.  A zero determinant
    is (0, 1).

    A zero pivot with a nonzero entry (k, j), j the first such, is replaced
    by the congruence E A E^T, E = I + e e_k e_j^T of determinant 1: row and
    column k gain e times row and column j, which only changes the stored
    row k (true row j over columns k..j-1 is read from its mirrors, each
    nonzero one over its row's d, one inverse per d read), and the new
    pivot 2e*a_kj + a_jj is nonzero for e = -1 if a_jj = -2*a_kj and for
    e = 1 otherwise.  A zero pivot with no such entry leaves column k
    zero, and det A = 0."""
    a = list(upper)
    n = len(a)
    d, num, den = [1] * n, 1, 1
    for k in range(n):
        tail = [x % p for x in a[k]]
        if not tail[0]:
            j = next((j for j in range(k + 1, n) if tail[j - k]), None)
            if j is None:
                return 0, 1
            s = [1] + [0] * (j - k)
            for c in range(k + 1, j + 1):
                if c == j or a[c][j - c]:
                    s[c - k] = d[k] * pow(d[c], -1, p) % p
            partner = [a[c][j - c] * s[c - k] for c in range(k, j)] + [x * s[-1] for x in a[j]]
            e = -1 if (partner[j - k] + 2 * tail[j - k]) % p == 0 else 1
            tail = [(x + e * y) % p for x, y in zip(tail, partner)]
            tail[0] = (tail[0] + e * tail[j - k]) % p
        num = num * tail[0] % p
        f = tail[0] * d[k] % p
        if (n - k - 1 - tail.count(0)) * (n - k) >= _INVERT_MIN_WORK:
            inv = pow(f, -1, p)
            for i in range(1, n - k):
                if tail[i]:
                    u = d[k + i] * tail[i] * inv % p
                    a[k + i] = [x - u * y for x, y in zip(a[k + i], tail[i:])]
        else:
            for i in range(1, n - k):
                if tail[i]:
                    g = d[k + i] * tail[i] % p
                    a[k + i] = [(f * x - g * y) % p for x, y in zip(a[k + i], tail[i:])]
                    d[k + i] = d[k + i] * f % p
                    den = den * f % p
    return num, den


def _poly_mul_mod(f: list[int], g: list[int], p: int) -> list[int]:
    """Ascending coefficients of f * g mod p."""
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if x:
            out[i : i + len(g)] = [o + x * y for o, y in zip(out[i : i + len(g)], g)]
    return [o % p for o in out]


# Order from which a twin quotient block of _char_poly_int takes Lanczos;
# below it Hessenberg is faster (crossover table in CHANGES.md).  A block
# falls back to Hessenberg at its first breakdown, since one draw decides
# (see _lanczos_mod), or once it is bound to need more than one invariant
# subspace per _LANCZOS_ORDER_PER_SPACE of its order.
_LANCZOS_MIN_ORDER = 24
_LANCZOS_ORDER_PER_SPACE = 8


def _draw(rng: random.Random, r: int) -> list[int]:
    """A Lanczos start vector: r random entries below 2^60, so residues mod
    every ladder prime, and cheap to project.  Whether Lanczos breaks down
    depends on the draw; the polynomial it returns does not."""
    return [rng.getrandbits(60) for _ in range(r)]


def _matvec(q) -> Callable[[list[int]], list[int]]:
    """v -> Qv, unreduced, for an integer matrix Q given as rows.  Each row
    visits only its nonzero columns, picked by compress.  Its +-1 entries
    off the diagonal are one itemgetter over v + (-v) + [0], so each costs
    one addition; its other off-diagonal entries are grouped by value, each
    group one sum and one product, and the diagonal is one product."""
    r = len(q)
    cols = range(r)
    getters, extras = [], []
    for i, row in enumerate(q):
        picks = [2 * r, 2 * r]  # two zeros: the getter returns a tuple
        by_value: dict[int, list[int]] = {}
        for j in compress(cols, row):
            x = row[j]
            if j == i:
                continue
            if x == 1:
                picks.append(j)
            elif x == -1:
                picks.append(r + j)
            else:
                by_value.setdefault(x, []).append(j)
        getters.append(operator.itemgetter(*picks))
        extras += [(i, x, js) for x, js in by_value.items()]
    diag = [row[i] for i, row in enumerate(q)]

    def apply(v: list[int]) -> list[int]:
        z = v + [-x for x in v] + [0]
        z = [sum(g(z)) + d * x for g, d, x in zip(getters, diag, v)]
        for i, x, js in extras:
            z[i] += x * sum(map(v.__getitem__, js))
        return z

    return apply


def _lanczos_mod(apply, weights, p: int) -> list[int] | None:
    """Ascending coefficients of det(tI - Q) mod p by three-term Lanczos
    (Lanczos, J. Res. Nat. Bur. Standards 45, 1950; Eberly & Kaltofen,
    ISSAC 1997), for Q self-adjoint under <u, v> = sum weights_i u_i v_i,
    or None, for the caller to fall back to _char_poly_mod.  Q is given as
    its product v -> Qv (_matvec), and weights has its order r.

    From a start vector q_0 the recurrence
    q_(j+1) = Q q_j - a_j q_j - b_j q_(j-1), with
    a_j = <Q q_j, q_j> / <q_j, q_j> and b_j = <q_j, q_j> / <q_(j-1), q_(j-1)>,
    keeps the q_j orthogonal and gives q_j = P_j(Q) q_0 with
    P_(j+1) = (t - a_j) P_j - b_j P_(j-1).  No step takes an inverse: the
    loop keeps w_j = s_j q_j and s_j P_j for scales s_j, with N_j and C_j
    the products <w_j, w_j> and <Q w_j, w_j>, and
    w_(j+1) = e_j N_j Q w_j - e_j C_j w_j - N_j^2 w_(j-1), where e_0 = 1 and
    e_(j+1) = e_j N_j^2, so that s_(j+1) = s_j e_j N_j; the polynomial is
    made monic once its space closes.  When q_m = 0 the q_j span an
    invariant subspace, on which det(tI - Q) is P_m; its orthogonal
    complement is invariant too, and the next start vector is a fresh draw
    projected onto it.  A draw that meets <q_j, q_j> = 0 with q_j != 0, or
    projects to 0, breaks down and gives None: one draw decides, since an
    eigenvector isotropic mod p breaks every draw, and a random draw meets
    an isotropic q_j otherwise about once in p steps (no draw broke down in
    84 runs on 90 random, circulant and corona matrices in all three kinds).

    Each further subspace costs a projection against all the q_j found, 2r
    products per q_j (and one inverse as it joins), so eigenvalues of high
    multiplicity, one subspace per copy, make Lanczos dearer than Hessenberg
    (the line graph of K_20: 170 subspaces, 34 times Hessenberg's time).  A generic draw's subspace is
    no larger than the one before, so at least left / m more are needed
    when m was the last one's dimension and left of the r dimensions
    remain; None as soon as that makes more than r / _LANCZOS_ORDER_PER_SPACE.
    """
    r = len(weights)
    rng = random.Random(p)
    duals = []  # weights * q / <q, q> for each q found: <v, dual> is v's coefficient on q
    cols = [[] for _ in range(r)]  # cols[i] holds entry i of each q found
    poly = [1]
    left, spaces = r, 0
    unweighted = max(weights, default=1) == 1
    while True:
        q = _draw(rng, r)
        if duals:
            cs = [sum(map(operator.mul, q, d)) % p for d in duals]
            q = [(x - sum(map(operator.mul, cs, col))) % p for x, col in zip(q, cols)]
        found, prev, e = [], [0] * r, 1
        lo, hi = [], [1]  # s_(j-1) P_(j-1), s_j P_j
        for _ in range(left):  # independent q_j: at most left of them
            wq = q if unweighted else list(map(operator.mul, weights, q))
            norm = sum(map(operator.mul, q, wq)) % p
            if not norm:
                break
            z = apply(q)
            c = e * norm % p
            a = sum(map(operator.mul, z, wq)) * e % p
            b = norm * norm % p
            found.append((q, wq, norm))
            lo, hi = hi, [
                (c * x - a * y - b * w) % p for x, y, w in zip(chain((0,), hi), chain(hi, (0,)), chain(lo, (0, 0)))
            ]
            q, prev, e = [(c * x - a * y - b * w) % p for x, y, w in zip(z, q, prev)], q, c * norm % p
        if not found or any(q):
            return None
        inv = pow(hi[-1], -1, p)
        poly = _poly_mul_mod(poly, [x * inv % p for x in hi], p)
        left -= len(found)
        spaces += 1
        if not left:
            return poly
        if (spaces + -(-left // len(found))) * _LANCZOS_ORDER_PER_SPACE > r:
            return None
        for v, wv, norm in found:
            inv = pow(norm, -1, p)
            duals.append([x * inv % p for x in wv])
            for col, x in zip(cols, v):
                col.append(x)


def _char_poly_int(a) -> list[int]:
    """Ascending coefficients of det(tI - A) for a square integer matrix A,
    given as rows: computed mod each prime of _moduli, which fix every
    coefficient below _hadamard's bound, and lifted to Z by _lift.

    A symmetric matrix, of any order, is split once by _twin_quotient: its
    linear factors are multiplied once over Z, and each block's integer
    quotient built by _quotient, except that a block of every vertex (A
    connected and twin-free) has unit classes and is A itself; mod each
    prime each quotient of order _LANCZOS_MIN_ORDER or more takes
    _lanczos_mod.  Smaller quotients, a quotient that falls back and a
    non-symmetric matrix take _char_poly_mod.
    """
    mods = _moduli(_hadamard(sum(map(operator.mul, row, row)) for row in a))
    linear, blocks = [1], [(a, None, None)]
    if list(map(tuple, a)) == list(zip(*a)):
        roots, split = _twin_quotient(a)
        for root in roots:  # times (t - root), over Z
            linear = [x - root * y for x, y in zip([0, *linear], [*linear, 0])]
        blocks = []
        for cols, sizes, diag in split:
            q = a if len(cols) == len(a) else _quotient(a, cols, sizes, diag)
            blocks.append((q, sizes, _matvec(q) if len(q) >= _LANCZOS_MIN_ORDER else None))
    per_prime = []
    for p in mods:
        residues = [x % p for x in linear]
        for rows, sizes, apply in blocks:
            f = _lanczos_mod(apply, sizes, p) if apply else None
            residues = _poly_mul_mod(residues, _char_poly_mod(rows, p) if f is None else f, p)
        per_prime.append(residues)
    return _lift(mods, per_prime)


def _int_rows(m: Matrix) -> tuple[tuple[int, ...], ...]:
    """M's rows, once every entry is checked to be an int."""
    bad = [x for row in m._rows for x in row if type(x) is not int]
    if bad:
        raise ValueError(f"exact kernels take int entries, got {bad[0]!r}")
    return m._rows


def char_poly_exact(m: Matrix) -> Polynomial:
    """det(tI - M) with exact coefficients for a square integer matrix M, by
    _char_poly_int, modulo primes of _moduli and lifted by _lift, the two
    helpers it shares with det_exact_at."""
    m.require_square("char_poly_exact")
    return Polynomial(_char_poly_int(_int_rows(m)))


def _point(t0) -> Fraction:
    """t0 as a Fraction; anything that is no finite rational (NaN, an
    infinity, "1/0", a non-rational string, None, a complex, a list) raises
    ValueError."""
    try:
        return Fraction(t0)
    except (OverflowError, TypeError, ValueError, ZeroDivisionError):
        raise ValueError(f"evaluation point must be a finite rational, got {t0!r}") from None


def _det_int(upper) -> int:
    """det A for a symmetric integer matrix A given as its upper triangle:
    _det_mod mod each prime of _moduli, which fix every value below
    _hadamard's bound on the rows of A, each divided out and lifted to Z
    by _lift."""
    squares = [sum(x * x for x in row) for row in upper]
    for i, row in enumerate(upper):
        for j, x in enumerate(row[1:], i + 1):
            squares[j] += x * x
    mods = _moduli(_hadamard(squares))
    residues = []
    for p in mods:
        num, den = _det_mod(upper, p)
        residues.append([num * pow(den, -1, p) % p])
    return _lift(mods, residues)[0]


def _triangle(n: int, diag, entries, a: int, b: int) -> list[list[int]]:
    """The upper triangle of a*I - b*M, M the symmetric integer matrix of
    order n with these nonzero diagonal entries (v, d) and off-diagonal
    entries (u, v, x), each pair once, in any order, and zeros elsewhere:
    the one triangle writer of the determinant kernels, which det_exact_at
    reads a Matrix into (_pencil) and verify feeds edge lists.  Rows and
    columns come in sparse-first order, by ascending nonzero count of M's
    row, diagonal included, ties by index: a symmetric permutation, which
    keeps the diagonal on the diagonal and leaves the determinant unchanged,
    and puts sparse rows first, so they are eliminated before they fill in
    (Markowitz, Management Science 3, 1957)."""
    count = [0] * n
    for v, _ in diag:
        count[v] += 1
    for u, v, _ in entries:
        count[u] += 1
        count[v] += 1
    pos = [0] * n
    for i, v in enumerate(sorted(range(n), key=count.__getitem__)):
        pos[v] = i
    upper = [[0] * (n - i) for i in range(n)]
    for row in upper:
        row[0] = a
    for v, d in diag:
        upper[pos[v]][0] = a - b * d
    for u, v, x in entries:
        i, j = pos[u], pos[v]
        if i > j:
            i, j = j, i
        upper[i][j - i] = -b * x
    return upper


def _pencil(m: Matrix, a: int, b: int) -> list[list[int]]:
    """The upper triangle of a*I - b*M, for a symmetric integer matrix M, as
    every graph matrix is: det(t0*I - M) = det(a*I - b*M) / b^n at t0 = a/b;
    det_exact_at's triangle.  M's entries and symmetry are checked
    (_int_rows; a non-symmetric M raises ValueError) and its nonzeros read
    once into _triangle."""
    m.require_square("det_exact_at")
    rows = _int_rows(m)
    if rows != tuple(zip(*rows)):
        raise ValueError("det_exact_at needs a symmetric matrix")
    diag = [(i, row[i]) for i, row in enumerate(rows) if row[i]]
    entries = [(i, j, x) for i, row in enumerate(rows) for j, x in enumerate(row[i + 1 :], i + 1) if x]
    return _triangle(len(rows), diag, entries, a, b)


def det_exact_at(m: Matrix, t0) -> Fraction:
    """det(t0*I - M) exactly, for a symmetric integer matrix M and a
    rational t0 = a/b: _det_int of _pencil at (a, b), over b^n, with M's
    shape checked before the point.  A point so large that the Hadamard
    bound of a*I - b*M is past the prime ladder raises ValueError."""
    m.require_square("det_exact_at")
    t0 = _point(t0)
    return Fraction(_det_int(_pencil(m, t0.numerator, t0.denominator)), t0.denominator**m.rows)


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


class SpectrumMultiset(Record):
    """Sorted eigenvalue/multiplicity pairs with tolerance-aware equality."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: tuple[tuple[float, int], ...]):
        set_field(self, "pairs", pairs)

    @classmethod
    def from_values(cls, values: Iterable[float], tol: float = 1e-6) -> "SpectrumMultiset":
        """Cluster values that lie within the closeness bound of tol; tol 0
        merges only equal values, and NaN, infinite or negative tol, or one
        that is no real number (a str, None, a complex, a bool), is
        refused."""
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 <= tol < math.inf:
            raise ValueError(f"clustering tolerance must be finite and non-negative, got {tol!r}")
        vals = sorted(float(v) for v in values)
        gap = _closeness_bound(tol, vals)
        clusters: list[list[float]] = []
        for v in vals:
            if clusters and v - clusters[-1][-1] <= gap:
                clusters[-1].append(v)
            else:
                clusters.append([v])
        return cls(tuple((math.fsum(c) / len(c), len(c)) for c in clusters))

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


def _closeness_bound(tol: float, values: Iterable[float]) -> float:
    """The one rule for "same eigenvalue": values compared together are close
    when they differ by at most tol * (1 + R), R the largest |value| among
    them."""
    return tol * (1.0 + max(map(abs, values), default=0.0))


def _check_tol(tol: float) -> None:
    """The one rule for a tolerance argument: a real number, finite and above
    zero; a bool, which Python counts as an int, is none."""
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tol!r}")


def spectra_equal(a: SpectrumMultiset, b: SpectrumMultiset, tol: float) -> bool:
    """Multiset equality after expansion: totals agree and sorted entries
    differ pairwise by at most the closeness bound of all their values."""
    _check_tol(tol)
    if a.total != b.total:
        return False
    xs, ys = a.values(), b.values()
    gap = _closeness_bound(tol, xs + ys)
    return all(abs(x - y) <= gap for x, y in zip(xs, ys))


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
        p = [2.0 * math.fsum(map(operator.mul, row, v)) for row in rest]
        vtp = math.fsum(map(operator.mul, v, p))
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


TwinClass = tuple[list[int], Scalar]


def _twin_classes(rows) -> list[TwinClass]:
    """The twin classes of a symmetric matrix, read from its exact entries,
    each as (members ascending, c), ordered by first member; a vertex with
    no twin is a class of its own, with c = 0.

    u and v are twins when their rows agree outside {u, v}, their diagonal
    entries are equal, and M[u][v] = c.  Row u with its diagonal entry
    replaced by c, together with that diagonal entry, is then the same key
    for u and v; conversely two vertices with equal keys are twins with
    that c.  Twins of u all share one c, so the classes are disjoint.  A
    twin's c is an entry of u's row off the diagonal, so each row is keyed
    once per distinct value off its diagonal.
    """
    groups: dict[tuple, list[int]] = {}
    for u, row in enumerate(rows):
        head, d, tail = row[:u], row[u], row[u + 1 :]
        for c in {*head, *tail}:
            groups.setdefault((d, *head, c, *tail), []).append(u)
    classes = {u: ([u], 0) for u in range(len(rows))}
    for members in groups.values():
        if len(members) > 1:
            u = members[0]
            classes[u] = (members, rows[members[1]][u])
            for v in members[1:]:
                del classes[v]
    return list(classes.values())  # keyed in ascending order, each by its first member


def _blocks(rows, classes: list[TwinClass]) -> list[list[TwinClass]]:
    """The connected components of the graph on twin classes in which two
    classes are adjacent when the entry between their first members is
    nonzero, each listing its classes in their given order.  A popped
    class's neighbours are the classes left whose first member its row
    reaches; the search stops once no class is left."""
    firsts = [m[0] for m, _ in classes]
    index = range(len(classes))
    left = set(index)
    out = []
    while left:
        start = min(left)
        left.remove(start)
        block, stack = [start], [start]
        while stack and left:
            row = rows[firsts[stack.pop()]]
            near = left.intersection(compress(index, map(row.__getitem__, firsts)))
            left -= near
            block += near
            stack += near
        out.append([classes[j] for j in sorted(block)])
    return out


def _twin_quotient(rows) -> tuple[list[Scalar], list[tuple[list[int], list[int], list[Scalar]]]]:
    """A symmetric matrix M split by its twin classes and blocks
    (_twin_classes, _blocks): the roots of its linear factors, and for each
    block the first member of each class, the class sizes and the diagonal
    of the quotient Q the block induces on vectors constant on each class.

    A class of size k with diagonal d and mutual entry c spans the
    eigenvectors e_u - e_v of eigenvalue d - c, so that root appears k - 1
    times.  Q[X][Y] = |Y| M[x][y] and Q[X][X] = d + (k - 1) c, x and y first
    members, so det(tI - M) is the product of the linear factors and the
    blocks' det(tI - Q) (Cvetkovic, Rowlinson & Simic, An Introduction to
    the Theory of Graph Spectra, 2010).  Q is self-adjoint under
    <u, v> = sum |X| u_X v_X, and similar to the symmetric matrix with
    entries sqrt(|X| |Y|) M[x][y] off the diagonal.  Each kernel builds
    only what it reads from this: _char_poly_int the integer Q
    (_quotient), sym_eigenvalues the symmetric float matrix.
    """
    classes = _twin_classes(rows)
    roots = [rows[m[0]][m[0]] - c for m, c in classes for _ in m[1:]]
    blocks = []
    for block in _blocks(rows, classes):
        cols = [m[0] for m, _ in block]
        sizes = [len(m) for m, _ in block]
        diag = [rows[m[0]][m[0]] + (len(m) - 1) * c for m, c in block]
        blocks.append((cols, sizes, diag))
    return roots, blocks


def _quotient(rows, cols: list[int], sizes: list[int], diag: list[Scalar]) -> list[list[Scalar]]:
    """The quotient Q of one block of _twin_quotient, as rows:
    Q[X][Y] = |Y| M[x][y] off the diagonal and the block's diagonal on it."""
    q = [[k * rows[x][y] for k, y in zip(sizes, cols)] for x in cols]
    for i, d in enumerate(diag):
        q[i][i] = d
    return q


def sym_eigenvalues(m: Matrix, cluster_tol: float = 1e-6) -> SpectrumMultiset:
    """All eigenvalues of a real symmetric matrix by Householder
    tridiagonalisation followed by implicit-shift QL (Golub & Van Loan 8.3),
    after two exact reductions read from the entries.

    Each twin class gives its linear factors' roots exactly, and each
    quotient block (_twin_quotient) is symmetrised and solved on its own: a
    block of one class is its diagonal value, a block of single-vertex
    classes is M's entries between them, and only a block with a class of
    two or more scales its entries by sqrt(|X| |Y|).  A matrix with no twins
    and one block is solved as it stands.

    The sorted eigenvalues are checked against the trace and then clustered
    into multiplicities with an absolute tolerance scaled by the spectral
    radius (_trace_checked).  Order 0 has no classes and no blocks: the
    empty multiset.
    """
    m.require_square("sym_eigenvalues")
    rows = m._rows
    n = len(rows)
    if rows != tuple(zip(*rows)):
        i, j = next(
            (i, j) for i in range(n) for j in range(i + 1, n) if rows[i][j] != rows[j][i]
        )
        raise ValueError(
            f"entries ({i},{j}) and ({j},{i}) differ by {abs(float(rows[i][j] - rows[j][i])):.3e}"
        )
    roots, blocks = _twin_quotient(rows)
    eigs = [float(x) for x in roots]
    for cols, sizes, diag in blocks:
        if len(cols) == 1:
            eigs.append(float(diag[0]))
            continue
        if max(sizes) == 1:  # M's own entries, diagonal included
            take = operator.itemgetter(*cols)
            a = [list(map(float, take(rows[x]))) for x in cols]
        else:
            a = [
                [math.sqrt(k * l) * float(rows[x][y]) for l, y in zip(sizes, cols)]
                for k, x in zip(sizes, cols)
            ]
            for i, d in enumerate(diag):
                a[i][i] = float(d)
        eigs += _ql_implicit(*_tridiagonalize(a))
    return _trace_checked(eigs, sum(float(rows[i][i]) for i in range(n)), cluster_tol)


def _trace_checked(eigs: list[float], trace0: float, cluster_tol: float) -> SpectrumMultiset:
    """All eigenvalues of a matrix with trace trace0, sorted, checked against
    that trace and then clustered: the one trace guard, which
    sym_eigenvalues and spectra.corona_spectrum share."""
    eigs.sort()
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


def real_roots_cubic(a2: float, a1: float, a0: float) -> tuple[float, float, float]:
    """All three real roots of t^3 + a2*t^2 + a1*t + a0, sorted.

    A discriminant below -1e-9 times its scale raises ComplexRootsError; any
    other is treated as non-negative.  With p < 0 the roots come from the
    trigonometric form with a clamped argument, so a double root, whose
    discriminant is 0 up to last-bit noise, takes the same branch on either
    side of 0.  With p >= 0 the discriminant test passes only near a triple
    root, so all three are the inflection point -a2/3.  The 2.4/2.5 cubic of
    an eigenvalue h, on parts of sizes P != Q, has a2 = -h and
    a1 = -(P*Q + (P+Q)*h^2), so its p is at most -P*Q <= -2 and it always
    takes the trigonometric form, with three simple roots (see
    closed_form_adjacency_kpq).
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
    else:
        roots = [-shift] * 3
    roots.sort()
    return (roots[0], roots[1], roots[2])

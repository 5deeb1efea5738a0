"""Graph matrices, the corona characteristic-polynomial factorisation, and
closed-form corona spectra with their numeric realisation: one two-root form
at the (shift, k) that _form reads off the factors' matrices for 2.3,
3.3/3.4, 4.2 and 2.4/2.5 on K_{p,p}, and a cubic for 2.4/2.5 on K_{p,q}."""

from __future__ import annotations

import enum
import math
import operator
from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import partial

from ._record import Record, set_field
from .graphs import Edge, GraphError, SignedGraph, complete_bipartite, neighbourhood_corona
from .linalg import (
    Matrix,
    SpectrumMultiset,
    _det_int,
    _eig2,
    _point,
    _ql_implicit,
    _trace_checked,
    _triangle,
    _tridiagonalize,
    format_poly,
    real_roots_cubic,
    real_roots_quadratic,
    sym_eigenvalues,
)


class MatrixKind(enum.Enum):
    """Which matrix of a signed graph to work with."""

    ADJACENCY = "adj"
    LAPLACIAN = "lap"
    NET_LAPLACIAN = "netlap"


class ClosedFormError(ValueError):
    """The requested closed form does not apply to these factors."""


class PoleError(ValueError):
    """Evaluation point hits a pole of the coronal."""


def _nonzeros(n: int, edges: Sequence[Edge], kind: MatrixKind) -> tuple[list, list]:
    """The nonzero diagonal entries (v, d) and off-diagonal entries (u, v, x)
    of the adjacency, Laplacian, or net-Laplacian matrix of the graph with n
    vertices and these canonical edges, each pair once, in any order: the
    one definition of the three kinds, which _matrix_rows writes as rows and
    linalg._triangle as a pencil's upper triangle."""
    if kind is MatrixKind.ADJACENCY:
        return [], edges
    deg = [0] * n  # the degree or net-degree diagonal, then -A off it
    for u, v, sg in edges:
        w = 1 if kind is MatrixKind.LAPLACIAN else sg
        deg[u] += w
        deg[v] += w
    return [(v, d) for v, d in enumerate(deg) if d], [(u, v, -sg) for u, v, sg in edges]


def _matrix_rows(n: int, edges: Sequence[Edge], kind: MatrixKind) -> list[list[int]]:
    """The rows of the adjacency, Laplacian, or net-Laplacian matrix of the
    graph with n vertices and these canonical edges, each pair once, in any
    order (_nonzeros): the one matrix writer, which matrix_of wraps and the
    verify rows read for their factors."""
    diag, entries = _nonzeros(n, edges, kind)
    rows = [[0] * n for _ in range(n)]
    for v, d in diag:
        rows[v][v] = d
    for u, v, x in entries:
        rows[u][v] = rows[v][u] = x
    return rows


def matrix_of(s: SignedGraph, kind: MatrixKind) -> Matrix:
    """The adjacency, Laplacian, or net-Laplacian matrix, with exact entries:
    the Matrix of _matrix_rows."""
    if not isinstance(kind, MatrixKind):
        raise ValueError(f"matrix kind must be a MatrixKind, got {kind!r}")
    return Matrix(_matrix_rows(s.n, s.edges, kind))


def numeric_spectrum(s: SignedGraph, kind: MatrixKind, tol: float = 1e-6) -> SpectrumMultiset:
    """Numeric eigenvalue multiset of the chosen matrix; empty for order 0."""
    return sym_eigenvalues(matrix_of(s, kind), cluster_tol=tol)


def _eigenvalues(rows) -> list[float]:
    """The eigenvalues of a symmetric matrix given as rows, unclustered, by
    Householder and QL on the whole matrix: no twin split, so corona_spectrum
    shares no path with the closed forms' numeric_spectrum."""
    return _ql_implicit(*_tridiagonalize([[float(x) for x in row] for row in rows]))


def corona_spectrum(s1: SignedGraph, s2: SignedGraph, kind: MatrixKind, tol: float = 1e-6) -> SpectrumMultiset:
    """numeric_spectrum of the corona of s1 with s2, from the factors alone
    when M1, s1's `kind` matrix, has a constant diagonal delta: always for the
    adjacency, for a regular s1 under the Laplacian and a net-regular one
    under the net-Laplacian.  Otherwise the corona is built and solved whole.

    The corona's matrix is then [[M1 + n2*delta*I, (M1 - delta*I) (x) 1^T],
    [(M1 - delta*I) (x) 1, I (x) (M2 + delta*I)]].  For an M1-eigenvector x
    of eigenvalue mu it maps the subspace {(alpha*x, x (x) y)} into itself,
    acting there as B(mu) = [[mu + n2*delta, (mu - delta)*1^T],
    [(mu - delta)*1, M2 + delta*I]] (the coronal block structure of McLeman
    and McNicholas, Linear Algebra Appl. 435, 2011), so the spectrum is that
    of every B(mu), mu over M1's eigenvalues with repeats (_block_spectrum).
    M1's and M2's eigenvalues come from _eigenvalues, unclustered, so no
    tolerance decides which blocks are solved.  As verify's float oracle it
    reads delta and the row sums apart from the closed forms' _form.
    """
    if s1.n < 1:
        raise GraphError("corona needs a non-empty first factor")
    m1, m2 = matrix_of(s1, kind)._rows, matrix_of(s2, kind)._rows
    diagonal = {row[i] for i, row in enumerate(m1)}
    if len(diagonal) != 1:
        return numeric_spectrum(neighbourhood_corona(s1, s2), kind, tol)
    constant = len({sum(row) for row in m2}) == 1
    return _block_spectrum(_eigenvalues(m1), m2, diagonal.pop(), tol, _eigenvalues(m2) if constant else None)


def _block_spectrum(eigs1: list[float], m2, delta: int, tol: float, eigs2: list[float] | None) -> SpectrumMultiset:
    """corona_spectrum from M1's eigenvalues eigs1 (_eigenvalues), M2's rows
    m2 and M1's diagonal delta.  Given M2's eigenvalues eigs2, which 5.1
    counts too, every row of M2 sums to k: alpha and the all-ones y span
    B(mu)'s 2x2 quotient [[mu + n2*delta, sqrt(n2)*(delta - mu)],
    [sqrt(n2)*(delta - mu), delta + k]], solved by _eig2, and the rest of
    B(mu) is M2 + delta*I off the all-ones vector: M2's eigenvalues plus
    delta, less the one nearest delta + k.  Else each B(mu) is solved whole."""
    n1, n2 = len(eigs1), len(m2)
    if eigs2 is not None:
        top = float(delta + sum(m2[0]))
        r = math.sqrt(n2)
        eigs = [v for mu in eigs1 for v in _eig2(mu + n2 * delta, r * (delta - mu), top)]
        rest = [v + delta for v in eigs2]
        rest.remove(min(rest, key=lambda v: abs(v - top)))
        eigs += rest * n1
    else:
        lower = [[float(x + delta * (i == j)) for j, x in enumerate(row)] for i, row in enumerate(m2)]
        eigs = []
        for mu in eigs1:
            y = mu - delta
            eigs += _ql_implicit(*_tridiagonalize([[mu + n2 * delta] + [y] * n2] + [[y] + row for row in lower]))
    trace = n1 * ((1 + 2 * n2) * delta + sum(m2[i][i] for i in range(n2)))
    return _trace_checked(eigs, float(trace), tol)


def _quadratic_triangle(rows, alpha: int, beta: int, gamma: int) -> list[list[int]]:
    """The upper triangle of alpha*I + beta*M + gamma*M^2 for a symmetric
    integer matrix M given as its rows, in M's vertex order: the dense
    triangle of the factor-sized determinants, _factored_side's and the
    closed-form identity's of verify."""
    # M is symmetric, so entry (i, j) of M^2 is row i times row j
    upper = [
        [beta * x + gamma * sum(map(operator.mul, r, c)) for x, c in zip(r[i:], rows[i:])]
        for i, r in enumerate(rows)
    ]
    for row in upper:
        row[0] += alpha
    return upper


def _factored_side(
    s1: SignedGraph, s2: SignedGraph, a: int, b: int, det: Callable[[list[list[int]]], tuple[int, int]]
) -> tuple[int, list[list[int]], int]:
    """(hp, upper, scale) for the factored corona adjacency char poly
    psi2(t0)^n1 * det(t0*I - A1 - kappa(t0)*A1^2) at t0 = a/b, with kappa
    the coronal of s2's adjacency matrix A2 and det the caller's
    determinant of an upper triangle as a pair (num, den), the determinant
    being num/den with den nonzero (_det_mod mod one prime, or _det_int
    over 1).

    A1's rows come from s1's edges (_matrix_rows), with no Matrix built,
    and the triangle of a*I - b*A2 from s2's (linalg._triangle); that of
    a*I - b*(A2 - J), J the all-ones matrix, is it with b added to every
    entry.  det gives hn/hd = det(a*I - b*A2) = b^n2 * psi2(t0) and
    sn/sd = det(a*I - b*(A2 - J)) = b^n2 * det(t0*I - A2 + J), and the
    rank-one identity gives psi2*kappa = hs - hp.  Both are taken times
    scale = hd*sd, so no division is needed: hp = hn*sd and
    hk = sn*hd - hn*sd.  upper is the upper triangle of the symmetric integer
    matrix a*hp*I - b*(hp*A1 + hk*A1^2), A1 in s1's vertex order, whose
    determinant is the char poly times b^(n1*(n2+1)) * scale^n1; at b = 1
    it is scale times hp*(t0*I - A1) - hk*A1^2, a polynomial in t0 with no
    poles.  hp = 0 where t0 is an adjacency eigenvalue of s2, a pole of the
    coronal.
    """
    if s1.n < 1:
        raise GraphError("corona needs a non-empty first factor")
    a1 = _matrix_rows(s1.n, s1.edges, MatrixKind.ADJACENCY)
    psi2 = _triangle(s2.n, (), s2.edges, a, b)
    hn, hd = det(psi2)
    sn, sd = det([[x + b for x in row] for row in psi2])
    hp, hk = hn * sd, sn * hd - hn * sd
    return hp, _quadratic_triangle(a1, a * hp, -b * hp, -b * hk), hd * sd


def corona_adjacency_charpoly_eval(s1: SignedGraph, s2: SignedGraph, t0) -> Fraction:
    """The factored corona adjacency char poly at a rational t0 = a/b:
    _factored_side at (a, b) with _det_int over 1 for every determinant,
    so at scale 1, the last one over b^(n1*(n2+1)), with t0 checked first.
    t0 must avoid the adjacency eigenvalues of s2, where the coronal has its
    poles; one raises PoleError.  A point so large that a Hadamard bound is
    past the prime ladder raises ValueError, as in det_exact_at."""
    t0 = _point(t0)
    a, b = t0.numerator, t0.denominator
    hp, upper, _ = _factored_side(s1, s2, a, b, lambda rows: (_det_int(rows), 1))
    if hp == 0:
        raise PoleError(f"t0 = {t0} is an adjacency eigenvalue of the second factor")
    return Fraction(_det_int(upper), b ** (s1.n * (s2.n + 1)))


class ClosedFormEntry(Record):
    """One closed-form spectrum component: either an eigenvalue inherited
    directly (value) or the real roots of a monic quadratic/cubic (coeffs,
    ascending, including the leading 1)."""

    __slots__ = ("multiplicity", "value", "coeffs")

    def __init__(self, multiplicity: int, value: float | None = None,
                 coeffs: tuple[float, ...] | None = None):
        if (value is None) == (coeffs is None):
            raise ValueError("entry needs exactly one of value or coeffs")
        if coeffs is not None and len(coeffs) not in (3, 4):
            raise ValueError("only quadratic and cubic root entries are supported")
        if multiplicity < 1:
            raise ValueError("multiplicity must be positive")
        if coeffs is not None:
            # adding 0.0 turns -0.0 (such as -b at b = 0) into 0.0, so no
            # form prints "-0"
            coeffs = tuple(c + 0.0 for c in coeffs)
        set_field(self, "multiplicity", multiplicity)
        set_field(self, "value", value)
        set_field(self, "coeffs", coeffs)

    @property
    def kind(self) -> str:
        return "inherited" if self.value is not None else "poly"

    @property
    def root_count(self) -> int:
        return 1 if self.value is not None else len(self.coeffs) - 1

    def roots(self) -> tuple[float, ...]:
        if self.value is not None:
            return (self.value,)
        if len(self.coeffs) == 3:
            c0, c1, _ = self.coeffs
            return real_roots_quadratic(c1, c0)
        c0, c1, c2, _ = self.coeffs
        return real_roots_cubic(c2, c1, c0)


class ClosedFormSpectrum(Record):
    """Spectrum of a corona as produced by one of the closed-form results,
    labelled by the identity that produced it."""

    __slots__ = ("theorem", "order", "entries")

    def __init__(self, theorem: str, order: int, entries: tuple[ClosedFormEntry, ...]):
        set_field(self, "theorem", theorem)
        set_field(self, "order", order)
        set_field(self, "entries", entries)
        if self.total_multiplicity != self.order:
            raise ArithmeticError(
                f"closed form covers {self.total_multiplicity} eigenvalues, expected {self.order}"
            )

    @property
    def total_multiplicity(self) -> int:
        return sum(e.multiplicity * e.root_count for e in self.entries)

    def to_json(self) -> list[dict]:
        out = []
        for e in self.entries:
            item: dict = {"kind": e.kind, "multiplicity": e.multiplicity, "theorem": self.theorem}
            if e.value is not None:
                item["value"] = e.value
            else:
                item["coeffs"] = list(e.coeffs)
            out.append(item)
        return out

    def describe(self) -> str:
        lines = [f"closed form ({self.theorem}), {self.order} eigenvalues:"]
        for e in self.entries:
            if e.value is not None:
                lines.append(f"  {e.value:.6g} x{e.multiplicity}")
            else:
                lines.append(f"  roots of {format_poly(e.coeffs, '{:.6g}'.format)} x{e.multiplicity}")
        return "\n".join(lines)


def realize(cf: ClosedFormSpectrum, tol: float = 1e-6) -> SpectrumMultiset:
    """Extract every root of a closed form and merge them into a clustered
    numeric multiset."""
    values: list[float] = []
    for e in cf.entries:
        for r in e.roots():
            values.extend([r] * e.multiplicity)
    return SpectrumMultiset.from_values(values, tol)


def _form(s1: SignedGraph, s2: SignedGraph, kind: MatrixKind, sign: int | None = None) -> tuple:
    """The one reading of a closed form's hypotheses and parameters, which the
    closed forms are built from and verify's identity checks: (rows1, shift,
    coeffs, lower), M1 as rows, shift its constant diagonal, the form's
    coefficient source, and the ascending char poly of the M2 block it gives
    up: with M2's constant row sum k the two-root form and t - shift - k;
    for a kpq row (sign set) on K_{p,q}, p != q, the cubic and t^2 - p*q.
    ClosedFormError when M1's diagonal, or else M2's row sums, vary."""
    if s1.n < 1:
        raise GraphError("corona needs a non-empty first factor")
    if s2.n < 1:  # the two-root form would have no copy of k to drop
        raise ClosedFormError("second factor must be non-empty")
    rows1 = _matrix_rows(s1.n, s1.edges, kind)
    if len({row[i] for i, row in enumerate(rows1)}) != 1:  # an adjacency diagonal is 0
        raise ClosedFormError(f"first factor must be {'degree' if kind is MatrixKind.LAPLACIAN else 'net'}-regular")
    shift = rows1[0][0]
    rows2 = _matrix_rows(s2.n, s2.edges, kind)
    sums = {sum(row) for row in rows2}
    if len(sums) == 1:
        k = sums.pop()
        return rows1, shift, partial(_two_root_coeffs, n2=s2.n, shift=shift, k=k), (-shift - k, 1)
    if sign is None:  # a net-Laplacian row sums to 0
        raise ClosedFormError(
            "second factor must be net-regular" if kind is MatrixKind.ADJACENCY else
            "second factor needs a constant Laplacian row sum (every vertex with the same negative degree)"
        )
    q = sign * sum(rows2[0])  # vertex 0 lies in the part of size p
    p = s2.n - q
    return rows1, shift, partial(_cubic_coeffs, p=p, q=q, sign=sign), (-p * q, 0, 1)


def _closed_form(theorem: str, s1, s2, kind: MatrixKind, tol: float, sign: int | None = None) -> ClosedFormSpectrum:
    """The closed form of _form(s1, s2, kind, sign), labelled theorem: the one
    two-root form behind 2.3, 3.3/3.4, 4.2 and 2.4/2.5 on K_{p,p}, or the cubic.

    With M1, M2 the factors' `kind` matrices, the corona's matrix is
    [[M1 + n2*shift*I, +-A1 (x) 1^T], [+-A1 (x) 1, I (x) (M2 + shift*I)]],
    where M2*1 = k*1 and A1^2 = (M1 - shift*I)^2 (the coronal block
    structure of McLeman and McNicholas, Linear Algebra Appl. 435, 2011, at
    a constant row sum).  Every M2-eigenvalue except one copy of k carries
    over shifted by shift, with multiplicity n1, and each M1-eigenvalue mu
    contributes the two roots of t^2 - b*t + c, the char poly of
    [[mu + n2*shift, n2*(shift - mu)], [shift - mu, shift + k]].  Nothing is
    divided by shift, so shift = 0 needs no special case.  Under the cubic
    (closed_form_adjacency_kpq) K_{p,q}'s n2 - 2 zeros carry over instead.

    The copy of k dropped is M2's unclustered eigenvalue nearest k (tol 0
    merges only equal floats); another one can be nearer only by rounding,
    and then the two are interchangeable.  The rest is clustered at tol
    afterwards, so no tolerance decides whether the form applies.
    """
    _, shift, coeffs, lower = _form(s1, s2, kind, sign)
    n1, n2 = s1.n, s2.n
    if len(lower) == 2:
        k = -shift - lower[0]  # lower is t - shift - k
        values = numeric_spectrum(s2, kind, 0.0).values()
        values.remove(min(values, key=lambda v: abs(v - k)))
        inherited = [(v + shift, m) for v, m in SpectrumMultiset.from_values(values, tol).pairs]
    else:
        inherited = [(0.0, n2 - 2)]
    entries = [ClosedFormEntry(multiplicity=m * n1, value=v) for v, m in inherited]
    for mu, m in numeric_spectrum(s1, kind, tol).pairs:
        entries.append(ClosedFormEntry(multiplicity=m, coeffs=coeffs(mu)))
    return ClosedFormSpectrum(theorem, n1 * (n2 + 1), tuple(entries))


def _two_root_coeffs(mu, n2: int, shift: int, k: int) -> tuple:
    """Ascending coefficients (c, -b, 1) of the two-root form's t^2 - b*t + c
    at the M1-eigenvalue mu: the one source of the floats the form prints
    (a float mu) and of the matrix polynomial that verify's identity
    interpolates from the ints mu = 0, 1, 2, 3."""
    b = mu + ((n2 + 1) * shift + k)
    c = mu * ((2 * n2 + 1) * shift + k - n2 * mu) + n2 * shift * k
    return (c, -b, 1)


def closed_form_adjacency(s1: SignedGraph, s2: SignedGraph, tol: float = 1e-6) -> ClosedFormSpectrum:
    """Adjacency spectrum of the corona for a net-regular second factor
    (2.3): the two-root form at shift 0 and k = r2, the net degree of s2."""
    return _closed_form("2.3", s1, s2, MatrixKind.ADJACENCY, tol)


def closed_form_adjacency_kpq(
    s: SignedGraph, p: int, q: int, sign: int, tol: float = 1e-6
) -> ClosedFormSpectrum:
    """Adjacency spectrum of the corona with an all-positive (sign=+1, 2.5) or
    all-negative (sign=-1, 2.4) complete bipartite second factor on parts p
    and q.

    K_{p,p} is net-regular with net degree sign*p, so it takes 2.3's two-root
    form; the cubic below is (t + sign*p) times that form's quadratic there,
    with a double root whenever the quadratic has the root -sign*p.

    For p != q: 0 with multiplicity n(p+q-2) plus, for each s-eigenvalue h,
    the roots of t^3 - h*t^2 - (p*q + (p+q)*h^2)*t + p*q*h*(1 - 2*sign*h),
    the char poly of the symmetric quotient [[h, h*sqrt(p), h*sqrt(q)],
    [h*sqrt(p), 0, sign*sqrt(p*q)], [h*sqrt(q), sign*sqrt(p*q), 0]].  For
    h != 0 its border meets both eigenvectors of the lower block, so the
    roots strictly interlace -sqrt(p*q) and sqrt(p*q); for h = 0 they are 0
    and +-sqrt(p*q).  Either way all three are simple.

    For sign=+1 the constant term is the published -p*q*h*(2h-1).  For
    sign=-1 it is the re-derived p*q*h*(1+2h), which the numeric oracle
    confirms; the published p*q*h*(2h-1) is refuted.
    """
    k = complete_bipartite(p, q, sign)  # the second factor's own gate on p, q and sign
    return _closed_form("2.4" if sign < 0 else "2.5", s, k, MatrixKind.ADJACENCY, tol, sign)


def _cubic_coeffs(h, p: int, q: int, sign: int) -> tuple:
    """Ascending coefficients of the 2.4/2.5 cubic of the S-eigenvalue h on
    parts p != q (closed_form_adjacency_kpq): the one source of the floats
    the form prints and of the matrix polynomial that verify's identity
    interpolates from the ints h = 0, 1, 2, 3."""
    return (p * q * h * (1.0 - 2.0 * sign * h), -(p * q + (p + q) * h * h), -h, 1)


def closed_form_laplacian(s1: SignedGraph, s2: SignedGraph, tol: float = 1e-6) -> ClosedFormSpectrum:
    """Laplacian spectrum of the corona for a regular first factor (3.3/3.4).

    The second factor must have a constant Laplacian row sum k (equivalently a
    constant negative degree; k = r2 - r3 when it is both regular and
    net-regular, and k = 0 exactly when it has no negative edges).  This is
    the two-root form at shift r1, the degree of s1.  The paper asks for
    r1 != 0; the form holds for an edgeless s1 as well.  The published 3.4
    takes k = 0 for any connected balanced second factor; the numeric oracle
    refutes that reading as soon as the factor has a negative edge.
    """
    # a regular s2 with a constant negative degree is net-regular as well
    return _closed_form("3.3" if s2.regularity() is not None else "3.4", s1, s2, MatrixKind.LAPLACIAN, tol)


def closed_form_netlaplacian(s1: SignedGraph, s2: SignedGraph, tol: float = 1e-6) -> ClosedFormSpectrum:
    """Net-Laplacian spectrum of the corona for a net-regular first factor
    with net degree r (4.2): the two-root form at shift r and k = 0, since
    every net-Laplacian row sums to 0.  The paper asks for r != 0; the form
    holds at r = 0 as well."""
    return _closed_form("4.2", s1, s2, MatrixKind.NET_LAPLACIAN, tol)


# The closed form the paper gives for each matrix kind of the corona: 2.3,
# 3.3/3.4 and 4.2. Callers index this table at call time, so a wrapper that
# replaces one of its values sees every call.
CLOSED_FORMS = {
    MatrixKind.ADJACENCY: closed_form_adjacency,
    MatrixKind.LAPLACIAN: closed_form_laplacian,
    MatrixKind.NET_LAPLACIAN: closed_form_netlaplacian,
}

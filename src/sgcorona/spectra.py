"""Graph matrices, the corona characteristic-polynomial factorisation, and
closed-form corona spectra with their numeric realisation: one two-root form
with a (shift, k) pair per matrix kind for 2.3, 3.3/3.4, 4.2 and 2.4/2.5 on
K_{p,p}, and a cubic for 2.4/2.5 on K_{p,q} with p != q."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .graphs import GraphError, SignedGraph, complete_bipartite
from .linalg import (
    Matrix,
    SpectrumMultiset,
    _char_poly_int,
    _eliminate_symmetric,
    _point,
    _sparse_first,
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


def matrix_of(s: SignedGraph, kind: MatrixKind) -> Matrix:
    """The adjacency, Laplacian, or net-Laplacian matrix, with exact entries."""
    if not isinstance(kind, MatrixKind):
        raise ValueError(f"matrix kind must be a MatrixKind, got {kind!r}")
    n = s.n
    adj = [[0] * n for _ in range(n)]
    for u, v, sg in s.edges:
        adj[u][v] = sg
        adj[v][u] = sg
    if kind is MatrixKind.ADJACENCY:
        return Matrix(adj)
    prof = s.degrees()
    diag = prof.degree if kind is MatrixKind.LAPLACIAN else prof.net_degree
    return Matrix(
        [
            [diag[i] - adj[i][j] if i == j else -adj[i][j] for j in range(n)]
            for i in range(n)
        ]
    )


def numeric_spectrum(s: SignedGraph, kind: MatrixKind, tol: float = 1e-6) -> SpectrumMultiset:
    """Numeric eigenvalue multiset of the chosen matrix; empty for order 0."""
    return sym_eigenvalues(matrix_of(s, kind), cluster_tol=tol)


def _homogeneous_at(coeffs: list[int], a: int, b: int) -> int:
    """b^d * p(a/b) for p of degree d with ascending coefficients, by Horner
    in integers."""
    acc = coeffs[-1]
    bk = b
    for c in reversed(coeffs[:-1]):
        acc = acc * a + c * bk
        bk *= b
    return acc


def _factored_points(s1: SignedGraph, s2: SignedGraph) -> Callable[[Fraction], Fraction]:
    """t0 -> psi2(t0)^n1 * det(t0*I - A1 - kappa(t0)*A1^2) for a Fraction t0,
    with kappa the coronal of s2's adjacency matrix: the factored corona
    adjacency characteristic polynomial.

    The pair's part is done here, once: the rows of A1 and A1^2, and psi2
    and det(tI - A2 + J), J the all-ones matrix, as exact integer char
    polys.  Each point t0 = a/b is then integer work.  Homogeneous Horner
    gives hp = b^n2 * psi2(t0) and hs = b^n2 * det(t0*I - A2 + J), and the
    rank-one identity gives hp*kappa = hs - hp = hk.  Taking psi2(t0) =
    hp / b^n2 inside the n1 x n1 determinant leaves
    det(a*hp*I - b*(hp*A1 + hk*A1^2)) / b^(n1*(n2+1)), an integer matrix's
    determinant over a power of b.  That matrix is symmetric, as A1 and A1^2
    are, so it is ordered sparse first and eliminated on its upper triangle
    by _eliminate_symmetric.  A point where hp = 0, an eigenvalue of s2's
    adjacency matrix and a pole of the coronal, raises PoleError.
    """
    n1, n2 = s1.n, s2.n
    if n1 < 1:
        raise GraphError("corona needs a non-empty first factor")
    a1 = matrix_of(s1, MatrixKind.ADJACENCY)
    a2 = matrix_of(s2, MatrixKind.ADJACENCY)
    row_pairs = tuple(zip(a1._rows, (a1 @ a1)._rows))
    psi2 = _char_poly_int(a2._rows)
    shifted = _char_poly_int((a2 - Matrix.ones(n2, n2))._rows)

    def at(t0: Fraction) -> Fraction:
        a, b = t0.numerator, t0.denominator
        hp = _homogeneous_at(psi2, a, b)
        if hp == 0:
            raise PoleError(f"t0 = {t0} is an adjacency eigenvalue of the second factor")
        hk = _homogeneous_at(shifted, a, b) - hp
        inner = [[-b * (hp * x + hk * y) for x, y in zip(r1, r2)] for r1, r2 in row_pairs]
        for i, row in enumerate(inner):
            row[i] += a * hp
        inner = _sparse_first(inner)
        det = _eliminate_symmetric([row[i:] for i, row in enumerate(inner)])
        return Fraction(det, b ** (n1 * (n2 + 1)))

    return at


def corona_adjacency_charpoly_eval(s1: SignedGraph, s2: SignedGraph, t0) -> Fraction:
    """The factored corona adjacency char poly at a rational t0: _factored_points
    at one point, with t0 checked first.  t0 must avoid the adjacency
    eigenvalues of s2, where the coronal has its poles."""
    t0 = _point(t0)
    return _factored_points(s1, s2)(t0)


@dataclass(frozen=True)
class ClosedFormEntry:
    """One closed-form spectrum component: either an eigenvalue inherited
    directly (value) or the real roots of a monic quadratic/cubic (coeffs,
    ascending, including the leading 1)."""

    multiplicity: int
    value: float | None = None
    coeffs: tuple[float, ...] | None = None

    def __post_init__(self):
        if (self.value is None) == (self.coeffs is None):
            raise ValueError("entry needs exactly one of value or coeffs")
        if self.coeffs is not None and len(self.coeffs) not in (3, 4):
            raise ValueError("only quadratic and cubic root entries are supported")
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be positive")
        if self.coeffs is not None:
            # adding 0.0 turns -0.0 (such as -b at b = 0) into 0.0, so no
            # form prints "-0"
            object.__setattr__(self, "coeffs", tuple(c + 0.0 for c in self.coeffs))

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


@dataclass(frozen=True)
class ClosedFormSpectrum:
    """Spectrum of a corona as produced by one of the closed-form results,
    labelled by the identity that produced it."""

    theorem: str
    order: int
    entries: tuple[ClosedFormEntry, ...]

    def __post_init__(self):
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


def _require_factors(s1: SignedGraph, s2: SignedGraph) -> None:
    """The checks every closed form makes before its own hypotheses.  An
    empty S2 leaves the two-root form no copy of k to drop."""
    if s1.n < 1:
        raise GraphError("corona needs a non-empty first factor")
    if s2.n < 1:
        raise ClosedFormError("second factor must be non-empty")


def _two_root_form(
    theorem: str, s1: SignedGraph, s2: SignedGraph, kind: MatrixKind, shift: int, k: int, tol: float
) -> ClosedFormSpectrum:
    """The one closed form behind 2.3, 3.3/3.4, 4.2 and 2.4/2.5 on K_{p,p}.

    With M1, M2 the factors' `kind` matrices, the corona's matrix is
    [[M1 + n2*shift*I, +-A1 (x) 1^T], [+-A1 (x) 1, I (x) (M2 + shift*I)]],
    where M2*1 = k*1 and A1^2 = (M1 - shift*I)^2 (the coronal block
    structure of McLeman and McNicholas, Linear Algebra Appl. 435, 2011, at
    a constant row sum).  Every M2-eigenvalue except one copy of k carries
    over shifted by shift, with multiplicity n1, and each M1-eigenvalue mu
    contributes the two roots of t^2 - b*t + c, the char poly of
    [[mu + n2*shift, n2*(shift - mu)], [shift - mu, shift + k]].  Nothing is
    divided by shift, so shift = 0 needs no special case.

    The copy of k dropped is M2's unclustered eigenvalue nearest k (tol 0
    merges only equal floats); another one can be nearer only by rounding,
    and then the two are interchangeable.  The rest is clustered at tol
    afterwards, so no tolerance decides whether the form applies.
    """
    n1, n2 = s1.n, s2.n
    values = numeric_spectrum(s2, kind, 0.0).values()
    values.remove(min(values, key=lambda v: abs(v - k)))
    inherited = SpectrumMultiset.from_values(values, tol).pairs
    entries = [ClosedFormEntry(multiplicity=m * n1, value=v + shift) for v, m in inherited]
    for mu, m in numeric_spectrum(s1, kind, tol).pairs:
        b = mu + ((n2 + 1) * shift + k)
        c = mu * ((2 * n2 + 1) * shift + k - n2 * mu) + n2 * shift * k
        entries.append(ClosedFormEntry(multiplicity=m, coeffs=(c, -b, 1.0)))
    return ClosedFormSpectrum(theorem, n1 * (n2 + 1), tuple(entries))


def closed_form_adjacency(s1: SignedGraph, s2: SignedGraph, tol: float = 1e-6) -> ClosedFormSpectrum:
    """Adjacency spectrum of the corona for a net-regular second factor
    (2.3): the two-root form at shift 0 and k = r2, the net degree of s2."""
    _require_factors(s1, s2)
    r2 = s2.net_regularity()
    if r2 is None:
        raise ClosedFormError("second factor must be net-regular")
    return _two_root_form("2.3", s1, s2, MatrixKind.ADJACENCY, 0, r2, tol)


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
    _require_factors(s, k)
    label = "2.4" if sign < 0 else "2.5"
    if p == q:
        return _two_root_form(label, s, k, MatrixKind.ADJACENCY, 0, sign * p, tol)
    n = s.n
    entries = [ClosedFormEntry(multiplicity=n * (p + q - 2), value=0.0)]
    for h, m in numeric_spectrum(s, MatrixKind.ADJACENCY, tol).pairs:
        c1 = -(p * q + (p + q) * h * h)
        c0 = p * q * h * (1.0 - 2.0 * sign * h)
        entries.append(ClosedFormEntry(multiplicity=m, coeffs=(c0, c1, -h, 1.0)))
    return ClosedFormSpectrum(label, n * (p + q + 1), tuple(entries))


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
    _require_factors(s1, s2)
    r1 = s1.regularity()
    if r1 is None:
        raise ClosedFormError("first factor must be degree-regular")
    neg = set(s2.degrees().neg_degree)
    if len(neg) != 1:
        raise ClosedFormError(
            "second factor needs a constant Laplacian row sum "
            "(every vertex with the same negative degree)"
        )
    k = 2 * neg.pop()
    # a regular s2 with a constant negative degree is net-regular as well
    label = "3.3" if s2.regularity() is not None else "3.4"
    return _two_root_form(label, s1, s2, MatrixKind.LAPLACIAN, r1, k, tol)


def closed_form_netlaplacian(s1: SignedGraph, s2: SignedGraph, tol: float = 1e-6) -> ClosedFormSpectrum:
    """Net-Laplacian spectrum of the corona for a net-regular first factor
    with net degree r (4.2): the two-root form at shift r and k = 0, since
    every net-Laplacian row sums to 0.  The paper asks for r != 0; the form
    holds at r = 0 as well."""
    _require_factors(s1, s2)
    r = s1.net_regularity()
    if r is None:
        raise ClosedFormError("first factor must be net-regular")
    return _two_root_form("4.2", s1, s2, MatrixKind.NET_LAPLACIAN, r, 0, tol)


# The closed form the paper gives for each matrix kind of the corona: 2.3,
# 3.3/3.4 and 4.2. Callers index this table at call time, so a wrapper that
# replaces one of its values sees every call.
CLOSED_FORMS = {
    MatrixKind.ADJACENCY: closed_form_adjacency,
    MatrixKind.LAPLACIAN: closed_form_laplacian,
    MatrixKind.NET_LAPLACIAN: closed_form_netlaplacian,
}

"""Graph matrices, the corona characteristic-polynomial factorisation, and
closed-form corona spectra with their numeric realisation: one two-root form
with a (shift, k) pair per matrix kind for 2.3, 3.3/3.4 and 4.2, and a cubic
for 2.4/2.5."""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from fractions import Fraction

from .graphs import GraphError, SignedGraph
from .linalg import (
    Matrix,
    SpectrumMultiset,
    _bareiss_det,
    _char_poly_int,
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
    """Numeric eigenvalue multiset of the chosen matrix."""
    if s.n == 0:
        return SpectrumMultiset(())
    return sym_eigenvalues(matrix_of(s, kind), cluster_tol=tol)


@functools.lru_cache(maxsize=1)
def _factor_pair(s1: SignedGraph, s2: SignedGraph):
    """What the factored 2.2 side needs of a pair, independent of the point:
    the rows of A1 and A1^2, and the ascending integer coefficients of
    psi2(t) = det(tI - A2) and of det(tI - A2 + J), J the all-ones matrix,
    straight from the integer char poly routine.  A trial evaluates one pair
    at several points, so the last pair is kept."""
    a1 = matrix_of(s1, MatrixKind.ADJACENCY)
    a2 = matrix_of(s2, MatrixKind.ADJACENCY)
    return (
        a1._rows,
        (a1 @ a1)._rows,
        tuple(_char_poly_int(a2._rows)),
        tuple(_char_poly_int((a2 - Matrix.ones(s2.n, s2.n))._rows)),
    )


def _homogeneous_at(coeffs: tuple[int, ...], a: int, b: int) -> int:
    """b^d * p(a/b) for p of degree d with ascending coefficients, by Horner
    in integers."""
    acc = coeffs[-1]
    bk = b
    for c in reversed(coeffs[:-1]):
        acc = acc * a + c * bk
        bk *= b
    return acc


def corona_adjacency_charpoly_eval(s1: SignedGraph, s2: SignedGraph, t0) -> Fraction:
    """Exact evaluation at t0 of the factored corona adjacency characteristic
    polynomial: psi2(t0)^n1 * det(t0*I - A1 - kappa(t0)*A1^2), with kappa the
    coronal of s2's adjacency matrix.

    psi2 and det(tI - A2 + J), J the all-ones matrix, are exact integer char
    polys taken once per pair; each point t0 = a/b is then integer work.
    Homogeneous Horner gives hp = b^n2 * psi2(t0) and hs = b^n2 *
    det(t0*I - A2 + J), and the rank-one identity gives hp*kappa = hs - hp =
    hk.  Taking psi2(t0) = hp / b^n2 inside the n1 x n1 determinant leaves
    det(a*hp*I - b*(hp*A1 + hk*A1^2)) / b^(n1*(n2+1)), an integer matrix's
    determinant over a power of b.

    t0 must avoid the eigenvalues of s2's adjacency matrix, where the coronal
    has its poles.
    """
    t0 = Fraction(t0)
    n1, n2 = s1.n, s2.n
    if n1 < 1:
        raise GraphError("corona needs a non-empty first factor")
    a1, a1_sq, psi2, shifted = _factor_pair(s1, s2)
    a, b = t0.numerator, t0.denominator
    hp = _homogeneous_at(psi2, a, b)
    if hp == 0:
        raise PoleError(f"t0 = {t0} is an adjacency eigenvalue of the second factor")
    hk = _homogeneous_at(shifted, a, b) - hp
    inner = [[-b * (hp * x + hk * y) for x, y in zip(r1, r2)] for r1, r2 in zip(a1, a1_sq)]
    for i, row in enumerate(inner):
        row[i] += a * hp
    return Fraction(_bareiss_det(inner), b ** (n1 * (n2 + 1)))


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


def _drop_one_copy(spec: SpectrumMultiset, target: float, tol: float, what: str) -> list[tuple[float, int]]:
    """Remove one copy of the eigenvalue nearest to target, which must sit
    within the clustering tolerance."""
    if not spec.pairs:
        raise ClosedFormError(f"{what}: spectrum is empty")
    value, mult = spec.nearest(target)
    scale = 1.0 + max(abs(target), max(abs(v) for v, _ in spec.pairs))
    if abs(value - target) > tol * scale:
        raise ClosedFormError(f"{what}: expected eigenvalue {target}, nearest is {value:.6g}")
    out = []
    for v, m in spec.pairs:
        if v == value and mult == m:
            if m > 1:
                out.append((v, m - 1))
            mult = -1  # consumed
        else:
            out.append((v, m))
    return out


def _two_root_form(
    theorem: str, s1: SignedGraph, s2: SignedGraph, kind: MatrixKind, shift: int, k: int, tol: float, what: str
) -> ClosedFormSpectrum:
    """The one closed form behind 2.3, 3.3/3.4 and 4.2.

    With M1, M2 the factors' `kind` matrices, the corona's matrix is
    [[M1 + n2*shift*I, +-A1 (x) 1^T], [+-A1 (x) 1, I (x) (M2 + shift*I)]],
    where M2*1 = k*1 and A1^2 = (M1 - shift*I)^2 (the coronal block
    structure of McLeman and McNicholas, Linear Algebra Appl. 435, 2011, at
    a constant row sum).  Every M2-eigenvalue except one copy of k carries
    over shifted by shift, with multiplicity n1, and each M1-eigenvalue mu
    contributes the two roots of t^2 - b*t + c, the char poly of
    [[mu + n2*shift, n2*(shift - mu)], [shift - mu, shift + k]].  Nothing is
    divided by shift, so shift = 0 needs no special case.
    """
    n1, n2 = s1.n, s2.n
    inherited = _drop_one_copy(numeric_spectrum(s2, kind, tol), float(k), tol, what)
    entries = [ClosedFormEntry(multiplicity=m * n1, value=v + shift) for v, m in inherited]
    for mu, m in numeric_spectrum(s1, kind, tol).pairs:
        b = mu + ((n2 + 1) * shift + k)
        c = mu * ((2 * n2 + 1) * shift + k - n2 * mu) + n2 * shift * k
        entries.append(ClosedFormEntry(multiplicity=m, coeffs=(c, -b, 1.0)))
    return ClosedFormSpectrum(theorem, n1 * (n2 + 1), tuple(entries))


def closed_form_adjacency(s1: SignedGraph, s2: SignedGraph, tol: float = 1e-6) -> ClosedFormSpectrum:
    """Adjacency spectrum of the corona for a net-regular second factor
    (2.3): the two-root form at shift 0 and k = r2, the net degree of s2."""
    if s1.n < 1:
        raise GraphError("corona needs a non-empty first factor")
    r2 = s2.net_regularity()
    if r2 is None:
        raise ClosedFormError("second factor must be net-regular")
    return _two_root_form(
        "2.3", s1, s2, MatrixKind.ADJACENCY, 0, r2, tol,
        "net degree must be an adjacency eigenvalue of the second factor",
    )


def closed_form_adjacency_kpq(
    s: SignedGraph,
    p: int,
    q: int,
    sign: int,
    variant: str = "derived",
    tol: float = 1e-6,
) -> ClosedFormSpectrum:
    """Adjacency spectrum of the corona with an all-positive (sign=+1) or
    all-negative (sign=-1) complete bipartite second factor on parts p and q:
    0 with multiplicity n(p+q-2) plus, for each s-eigenvalue h, the roots of a
    cubic.

    For sign=-1 two cubic constant terms are available: the re-derived
    "derived" one, p*q*h*(1+2h), which the numeric oracle confirms, and the
    published "printed" one, p*q*h*(2h-1), kept for comparison.  For sign=+1
    both names give the same (confirmed) constant term -p*q*h*(2h-1).
    """
    if p < 1 or q < 1:
        raise ValueError("both bipartition parts must be at least 1")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if variant not in ("derived", "printed"):
        raise ValueError(f"unknown variant {variant!r}")
    if s.n < 1:
        raise GraphError("corona needs a non-empty first factor")
    n = s.n
    entries = []
    if p + q > 2:
        entries.append(ClosedFormEntry(multiplicity=n * (p + q - 2), value=0.0))
    for theta, m in numeric_spectrum(s, MatrixKind.ADJACENCY, tol).pairs:
        c2 = -theta
        c1 = -(p * q + (p + q) * theta * theta)
        if sign < 0:
            if variant == "derived":
                c0 = p * q * theta * (1.0 + 2.0 * theta)
            else:
                c0 = p * q * theta * (2.0 * theta - 1.0)
        else:
            c0 = -p * q * theta * (2.0 * theta - 1.0)
        entries.append(ClosedFormEntry(multiplicity=m, coeffs=(c0, c1, c2, 1.0)))
    label = "2.4" if sign < 0 else "2.5"
    return ClosedFormSpectrum(label, n * (p + q + 1), tuple(entries))


def closed_form_laplacian(
    s1: SignedGraph,
    s2: SignedGraph,
    tol: float = 1e-6,
    force_zero_row_sum: bool = False,
) -> ClosedFormSpectrum:
    """Laplacian spectrum of the corona for a regular first factor (3.3/3.4).

    The second factor must have a constant Laplacian row sum k (equivalently a
    constant negative degree; k = r2 - r3 when it is both regular and
    net-regular, and k = 0 exactly when it has no negative edges).  This is
    the two-root form at shift r1, the degree of s1.  The paper asks for
    r1 != 0; the form holds for an edgeless s1 as well.

    force_zero_row_sum=True instead takes k = 0 for any connected balanced
    second factor, as published; the numeric oracle refutes that reading as
    soon as the factor has a negative edge, so it exists only for comparison.
    """
    if s1.n < 1:
        raise GraphError("corona needs a non-empty first factor")
    r1 = s1.regularity()
    if r1 is None:
        raise ClosedFormError("first factor must be degree-regular")
    if force_zero_row_sum:
        if not (s2.is_connected() and s2.is_balanced()):
            raise ClosedFormError(
                "force_zero_row_sum needs a connected balanced second factor"
            )
        k = 0
    else:
        neg = set(s2.degrees().neg_degree)
        if len(neg) != 1:
            raise ClosedFormError(
                "second factor needs a constant Laplacian row sum "
                "(every vertex with the same negative degree)"
            )
        k = 2 * neg.pop()
    regular_pair = s2.regularity() is not None and s2.net_regularity() is not None
    label = "3.3" if (regular_pair and not force_zero_row_sum) else "3.4"
    return _two_root_form(
        label, s1, s2, MatrixKind.LAPLACIAN, r1, k, tol,
        "row-sum constant must be a Laplacian eigenvalue of the second factor",
    )


def closed_form_netlaplacian(s1: SignedGraph, s2: SignedGraph, tol: float = 1e-6) -> ClosedFormSpectrum:
    """Net-Laplacian spectrum of the corona for a net-regular first factor
    with net degree r (4.2): the two-root form at shift r and k = 0, since
    every net-Laplacian row sums to 0.  The paper asks for r != 0; the form
    holds at r = 0 as well."""
    if s1.n < 1:
        raise GraphError("corona needs a non-empty first factor")
    r = s1.net_regularity()
    if r is None:
        raise ClosedFormError("first factor must be net-regular")
    return _two_root_form(
        "4.2", s1, s2, MatrixKind.NET_LAPLACIAN, r, 0, tol,
        "0 must be a net-Laplacian eigenvalue of the second factor",
    )


# The closed form the paper gives for each matrix kind of the corona: 2.3,
# 3.3/3.4 and 4.2. Callers index this table at call time, so a wrapper that
# replaces one of its values sees every call.
CLOSED_FORMS = {
    MatrixKind.ADJACENCY: closed_form_adjacency,
    MatrixKind.LAPLACIAN: closed_form_laplacian,
    MatrixKind.NET_LAPLACIAN: closed_form_netlaplacian,
}

"""Randomised verification drivers, few-distinct-eigenvalue constructions,
cospectral corona certificates, and the published 12-vertex worked example."""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable

from .graphs import (
    DEFAULT_ISO_CAP,
    SignedGraph,
    alternating_cycle,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    edgeless,
    format_graph,
    is_isomorphic,
    is_switching_isomorphic,
    neighbourhood_corona,
    path_graph,
    star_graph,
    unbalanced_c4,
)
from .linalg import Polynomial, SpectrumMultiset, char_poly_exact, det_exact_at, spectra_equal
from .spectra import (
    CLOSED_FORMS,
    ClosedFormError,
    ClosedFormSpectrum,
    MatrixKind,
    PoleError,
    closed_form_adjacency,
    closed_form_adjacency_kpq,
    corona_adjacency_charpoly_eval,
    matrix_of,
    numeric_spectrum,
    realize,
)


class NotCospectralError(ValueError):
    pass


class IsomorphicInputsError(ValueError):
    pass


# ---------------------------------------------------------------------------
# random factor generators


def random_signed_graph(rng: random.Random, n: int, p_edge: float = 0.5) -> SignedGraph:
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p_edge:
                edges.append((u, v, -1 if rng.random() < 0.5 else 1))
    return SignedGraph(n, tuple(edges))


def random_connected_positive(rng: random.Random, n: int) -> SignedGraph:
    """Connected graph with every edge positive: random tree plus extras."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < 0.3:
                edges.add((u, v))
    return SignedGraph(n, tuple(sorted((u, v, 1) for u, v in edges)))


def random_connected_signed(rng: random.Random, n: int) -> SignedGraph:
    base = random_connected_positive(rng, n)
    edges = tuple((u, v, -1 if rng.random() < 0.5 else 1) for u, v, _ in base.edges)
    return SignedGraph(n, edges)


def _regular_pairs(rng: random.Random, n: int, k: int) -> set[tuple[int, int]]:
    """Uniform-ish k-regular underlying graph by the rejection pairing model,
    falling back to Steger-Wormald pairing once 400 pairings have all been
    rejected (from about n = 12 with k near n/2 they mostly are).

    Dense degrees (k above (n-1)/2) are sampled as the complement of a sparse
    regular graph; the rejection rate of the raw pairing model is hopeless
    there (for k = n-1 only the complete graph qualifies).
    """
    if k >= n or (n * k) % 2:
        raise ValueError(f"no {k}-regular graph on {n} vertices")
    if k > (n - 1) // 2:
        sparse = _regular_pairs(rng, n, n - 1 - k)
        return {
            (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in sparse
        }
    for _ in range(400):
        stubs = [v for v in range(n) for _ in range(k)]
        rng.shuffle(stubs)
        pairs: set[tuple[int, int]] = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or (min(u, v), max(u, v)) in pairs:
                ok = False
                break
            pairs.add((min(u, v), max(u, v)))
        if ok:
            return pairs
    for _ in range(400):
        pairs = _steger_wormald(rng, n, k)
        if pairs is not None:
            return pairs
    raise RuntimeError(f"failed to sample a {k}-regular graph on {n} vertices")


def _steger_wormald(rng: random.Random, n: int, k: int) -> set[tuple[int, int]] | None:
    """One try of Steger-Wormald pairing (Combin. Probab. Comput. 8, 1999):
    pair shuffled stubs, keep every pair that is neither a loop nor a repeat,
    and pair the leftover stubs again; None once no two leftover vertices
    could still be joined."""
    pairs: set[tuple[int, int]] = set()
    stubs = [v for v in range(n) for _ in range(k)]
    while stubs:
        rng.shuffle(stubs)
        left: list[int] = []
        for u, v in zip(stubs[::2], stubs[1::2]):
            edge = (min(u, v), max(u, v))
            if u != v and edge not in pairs:
                pairs.add(edge)
            else:
                left += edge
        if left and all(edge in pairs for edge in combinations(sorted(set(left)), 2)):
            return None
        stubs = left
    return pairs


def _random_regular(rng: random.Random, max_n: int) -> tuple[int, set[tuple[int, int]]]:
    """Order n in [2, max(max_n, 2)], a degree k >= 1 with n*k even (there is
    one for every n >= 2: 1 if n is even, 2 if n is odd), and the edge pairs
    of a k-regular graph on n vertices."""
    n = rng.randint(2, max(max_n, 2))
    k = rng.choice([k for k in range(1, n) if (n * k) % 2 == 0])
    return n, _regular_pairs(rng, n, k)


def random_regular_signed(rng: random.Random, max_n: int) -> SignedGraph:
    """Degree-regular underlying graph with independently random edge signs."""
    n, pairs = _random_regular(rng, max_n)
    edges = tuple(sorted((u, v, rng.choice((1, -1))) for u, v in pairs))
    return SignedGraph(n, edges)


def random_net_regular(rng: random.Random, max_n: int, nonzero: bool = False) -> SignedGraph:
    """Net-regular factor drawn from the whitelisted families: all-positive
    k-regular, all-negative k-regular, and (unless nonzero) sign-alternating
    even cycles and edgeless graphs.  Every family is also degree-regular."""
    families = ["pos", "neg"]
    if not nonzero:
        families += ["alt", "edgeless"]
    while True:
        family = rng.choice(families)
        if family == "edgeless":
            return edgeless(rng.randint(1, max_n))
        if family == "alt":
            if max_n < 4:
                continue
            return alternating_cycle(4 if max_n < 6 else rng.choice([4, 6]))
        sign = 1 if family == "pos" else -1
        n, pairs = _random_regular(rng, max_n)
        return SignedGraph(n, tuple(sorted((u, v, sign) for u, v in pairs)))


# ---------------------------------------------------------------------------
# distinct-eigenvalue reports


@dataclass(frozen=True)
class DistinctReport:
    """Clustered eigenvalue count for one matrix kind, with the 2*t1 + t2
    upper bound attached when the corona hypotheses hold."""

    kind: MatrixKind
    tol: float
    construction: str
    spectrum: SpectrumMultiset
    distinct_count: int
    bound: int | None = None
    bound_satisfied: bool | None = None
    expected_distinct: int | None = None

    @property
    def matches_expected(self) -> bool | None:
        if self.expected_distinct is None:
            return None
        return self.distinct_count == self.expected_distinct

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "tol": self.tol,
            "construction": self.construction,
            "spectrum": self.spectrum.to_json(),
            "distinct_count": self.distinct_count,
            "bound": self.bound,
            "bound_satisfied": self.bound_satisfied,
            "expected_distinct": self.expected_distinct,
            "matches_expected": self.matches_expected,
        }

    def render(self) -> str:
        lines = [
            f"{self.construction}: {self.distinct_count} distinct {self.kind.value} eigenvalue(s) at tol {self.tol:g}",
            f"  spectrum: {self.spectrum}",
        ]
        if self.bound is not None:
            verdict = "satisfied" if self.bound_satisfied else "VIOLATED"
            lines.append(f"  bound 2*t1 + t2 = {self.bound}: {verdict}")
        if self.expected_distinct is not None:
            verdict = "as expected" if self.matches_expected else "UNEXPECTED"
            lines.append(f"  expected exactly {self.expected_distinct}: {verdict}")
        return "\n".join(lines)


def distinct_count(s: SignedGraph, kind: MatrixKind, tol: float = 1e-6) -> DistinctReport:
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    spec = numeric_spectrum(s, kind, tol)
    return DistinctReport(
        kind=kind,
        tol=tol,
        construction=f"graph on {s.n} vertices",
        spectrum=spec,
        distinct_count=spec.distinct_count,
    )


def _bound_hypotheses(s1: SignedGraph, s2: SignedGraph, kind: MatrixKind) -> bool:
    if kind is MatrixKind.ADJACENCY:
        return s2.net_regularity() is not None
    if kind is MatrixKind.LAPLACIAN:
        return (
            s1.regularity() is not None
            and s2.regularity() is not None
            and s2.net_regularity() is not None
        )
    r = s1.net_regularity()
    return r is not None and r != 0


def corona_distinct_report(
    s1: SignedGraph, s2: SignedGraph, kind: MatrixKind, tol: float = 1e-6
) -> DistinctReport:
    """Distinct-eigenvalue report for the corona of the two factors; when the
    closed-form hypotheses hold the 2*t1 + t2 bound is recorded and checked."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    corona = neighbourhood_corona(s1, s2)
    spec = numeric_spectrum(corona, kind, tol)
    bound = None
    satisfied = None
    if _bound_hypotheses(s1, s2, kind):
        t1 = numeric_spectrum(s1, kind, tol).distinct_count
        t2 = numeric_spectrum(s2, kind, tol).distinct_count
        bound = 2 * t1 + t2
        satisfied = spec.distinct_count <= bound
    return DistinctReport(
        kind=kind,
        tol=tol,
        construction=f"corona of factors on {s1.n} and {s2.n} vertices",
        spectrum=spec,
        distinct_count=spec.distinct_count,
        bound=bound,
        bound_satisfied=satisfied,
    )


def few_distinct_construct(
    s: SignedGraph, companion: str, sign: int = 1, tol: float = 1e-6
) -> tuple[SignedGraph, DistinctReport]:
    """Corona of a 2-distinct-adjacency-eigenvalue graph with a one- or
    two-vertex companion; the result should show exactly 4 (K1) or 5 (K2)
    distinct adjacency eigenvalues, and the report records whether it does."""
    companion = companion.upper()
    if companion not in ("K1", "K2"):
        raise ValueError("companion must be K1 or K2")
    if s.n < 2:
        raise ValueError("seed graph needs at least 2 vertices")
    seed_distinct = numeric_spectrum(s, MatrixKind.ADJACENCY, tol).distinct_count
    if seed_distinct != 2:
        raise ValueError(
            f"seed graph has {seed_distinct} distinct adjacency eigenvalues, need exactly 2"
        )
    comp = edgeless(1) if companion == "K1" else complete_graph(2, sign)
    expected = 4 if companion == "K1" else 5
    corona = neighbourhood_corona(s, comp)
    spec = numeric_spectrum(corona, MatrixKind.ADJACENCY, tol)
    sign_txt = "" if companion == "K1" else ("+" if sign > 0 else "-")
    report = DistinctReport(
        kind=MatrixKind.ADJACENCY,
        tol=tol,
        construction=f"corona of 2-eigenvalue seed on {s.n} vertices with {companion}{sign_txt}",
        spectrum=spec,
        distinct_count=spec.distinct_count,
        expected_distinct=expected,
    )
    return corona, report


def catalog_two_eigenvalue_seeds() -> list[tuple[str, SignedGraph]]:
    """Built-in graphs with exactly two distinct adjacency eigenvalues."""
    return [
        ("unbalanced C4", unbalanced_c4()),
        ("all-positive K2", complete_graph(2)),
        ("all-positive K3", complete_graph(3)),
        ("all-positive K4", complete_graph(4)),
    ]


# ---------------------------------------------------------------------------
# cospectral, non-isomorphic coronas


@dataclass(frozen=True)
class CospectralCertificate:
    """Witness that two cospectral non-isomorphic factors yield cospectral
    non-isomorphic coronas, certified by exact polynomial equality and
    brute-force isomorphism search."""

    kind: MatrixKind
    factor_a: SignedGraph
    factor_b: SignedGraph
    companion: SignedGraph
    corona_a: SignedGraph
    corona_b: SignedGraph
    factor_char_poly: Polynomial
    corona_char_poly: Polynomial
    isomorphic: bool
    switching_isomorphic: bool

    @property
    def ok(self) -> bool:
        return not self.isomorphic

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "factor_a": format_graph(self.factor_a),
            "factor_b": format_graph(self.factor_b),
            "companion": format_graph(self.companion),
            "factor_char_poly": str(self.factor_char_poly),
            "corona_char_poly": str(self.corona_char_poly),
            "corona_order": self.corona_a.n,
            "isomorphic": self.isomorphic,
            "switching_isomorphic": self.switching_isomorphic,
            "ok": self.ok,
        }

    def render(self) -> str:
        return "\n".join(
            [
                f"{self.kind.value}-cospectral factors on {self.factor_a.n} vertices "
                f"(shared characteristic polynomial {self.factor_char_poly})",
                f"coronas on {self.corona_a.n} vertices share the characteristic polynomial:",
                f"  {self.corona_char_poly}",
                f"coronas isomorphic: {self.isomorphic}",
                f"coronas switching-isomorphic: {self.switching_isomorphic}",
                f"certificate {'holds' if self.ok else 'FAILED'}: cospectral and non-isomorphic",
            ]
        )


def default_cospectral_pair() -> tuple[SignedGraph, SignedGraph]:
    """Smallest classical adjacency-cospectral pair, taken all-positive: the
    4-leaf star against the disjoint union of a 4-cycle and an isolated
    vertex."""
    return star_graph(4), disjoint_union(cycle_graph(4), edgeless(1))


def cospectral_demo(
    s1: SignedGraph,
    s2: SignedGraph,
    companion: SignedGraph,
    kind: MatrixKind,
    cap: int = DEFAULT_ISO_CAP,
) -> CospectralCertificate:
    p1 = char_poly_exact(matrix_of(s1, kind))
    p2 = char_poly_exact(matrix_of(s2, kind))
    if p1 != p2:
        raise NotCospectralError(f"factors are not {kind.value}-cospectral")
    if is_isomorphic(s1, s2, cap=cap):
        raise IsomorphicInputsError("factors are isomorphic")
    corona_a = neighbourhood_corona(s1, companion)
    corona_b = neighbourhood_corona(s2, companion)
    q1 = char_poly_exact(matrix_of(corona_a, kind))
    q2 = char_poly_exact(matrix_of(corona_b, kind))
    if q1 != q2:
        raise NotCospectralError("corona characteristic polynomials differ")
    return CospectralCertificate(
        kind=kind,
        factor_a=s1,
        factor_b=s2,
        companion=companion,
        corona_a=corona_a,
        corona_b=corona_b,
        factor_char_poly=p1,
        corona_char_poly=q1,
        isomorphic=is_isomorphic(corona_a, corona_b, cap=cap),
        switching_isomorphic=is_switching_isomorphic(corona_a, corona_b, cap=cap),
    )


# ---------------------------------------------------------------------------
# switching and the net Laplacian


def netlaplacian_switching_witness() -> tuple[SignedGraph, frozenset[int]]:
    """Fixed regression pair showing that switching can change the
    net-Laplacian spectrum: the all-positive 3-path switched at an endpoint
    has spectrum {0, -sqrt(3), sqrt(3)} instead of {0, 1, 3}."""
    return path_graph(3), frozenset({0})


# ---------------------------------------------------------------------------
# the published 12-vertex worked example


def published_example_values() -> tuple[tuple[float, int], ...]:
    """Adjacency multiset printed for the worked example: -1 four times plus
    (3 +- sqrt(33))/2 and (-1 +- sqrt(41))/2 twice each."""
    s33 = 33 ** 0.5
    s41 = 41 ** 0.5
    return (
        (-1.0, 4),
        ((3 - s33) / 2, 2),
        ((3 + s33) / 2, 2),
        ((-1 - s41) / 2, 2),
        ((-1 + s41) / 2, 2),
    )


def _root_multiplicity(poly: Polynomial, r: Fraction) -> int:
    """How many times (t - r) divides poly.  Each synthetic-division pass
    runs Horner's scheme from the leading coefficient: its partial sums are
    the quotient's coefficients and its last value, poly(r), the remainder."""
    coeffs = poly.coeffs[::-1]  # descending
    count = 0
    while coeffs:
        partial = []
        acc = 0
        for c in coeffs:
            acc = acc * r + c
            partial.append(acc)
        if partial.pop():
            break
        coeffs = partial
        count += 1
    return count


@dataclass(frozen=True)
class PrintedValueCheck:
    value: float
    multiplicity: int
    nearest: float
    nearest_multiplicity: int
    matched: bool


@dataclass(frozen=True)
class PaperExampleReport:
    """Comparison of the 12-vertex corona of the unbalanced 4-cycle with the
    positive 2-clique against the values published for it."""

    corona: SignedGraph
    char_poly: Polynomial
    numeric: SpectrumMultiset
    closed_form: ClosedFormSpectrum
    closed_form_agrees_numeric: bool
    minus_one_exact_multiplicity: int
    minus_one_confirmed: bool
    printed_checks: tuple[PrintedValueCheck, ...]
    printed_reproduced: bool

    @property
    def ok(self) -> bool:
        return self.closed_form_agrees_numeric and self.minus_one_confirmed

    def to_json(self) -> dict:
        return {
            "corona": format_graph(self.corona),
            "char_poly": str(self.char_poly),
            "numeric": self.numeric.to_json(),
            "closed_form": self.closed_form.to_json(),
            "closed_form_agrees_numeric": self.closed_form_agrees_numeric,
            "minus_one_exact_multiplicity": self.minus_one_exact_multiplicity,
            "minus_one_confirmed": self.minus_one_confirmed,
            "printed_checks": [asdict(c) for c in self.printed_checks],
            "printed_reproduced": self.printed_reproduced,
            "ok": self.ok,
        }

    def render(self) -> str:
        lines = [
            "12-vertex corona: unbalanced 4-cycle with the all-positive 2-clique",
            f"exact characteristic polynomial: {self.char_poly}",
            f"numeric spectrum: {self.numeric}",
            self.closed_form.describe(),
            f"closed form agrees with numeric spectrum: {'yes' if self.closed_form_agrees_numeric else 'NO'}",
            f"eigenvalue -1 has exact multiplicity {self.minus_one_exact_multiplicity} "
            f"({'confirms' if self.minus_one_confirmed else 'REFUTES'} the published -1^4)",
            "published non-inherited values:",
        ]
        for c in self.printed_checks:
            if abs(c.value + 1.0) < 1e-12:
                continue
            verdict = "matches" if c.matched else f"absent (nearest eigenvalue {c.nearest:.5f} x{c.nearest_multiplicity})"
            lines.append(f"  {c.value:.5f} x{c.multiplicity}: {verdict}")
        lines.append(
            "published values reproduce: "
            + ("yes" if self.printed_reproduced else "no (expected: they fit a balanced, not an unbalanced, 4-cycle)")
        )
        return "\n".join(lines)


def paper_example(tol: float = 1e-6) -> PaperExampleReport:
    s1 = unbalanced_c4()
    s2 = complete_graph(2)
    corona = neighbourhood_corona(s1, s2)
    cp = char_poly_exact(matrix_of(corona, MatrixKind.ADJACENCY))
    numeric = numeric_spectrum(corona, MatrixKind.ADJACENCY, tol)
    cf = closed_form_adjacency(s1, s2, tol)
    agrees = spectra_equal(realize(cf, tol), numeric, tol)
    exact_mult = _root_multiplicity(cp, Fraction(-1))
    checks = []
    scale = 1.0 + max(abs(v) for v, _ in numeric.pairs)
    for value, mult in published_example_values():
        nearest, nearest_mult = numeric.nearest(value)
        matched = abs(nearest - value) < tol * scale and nearest_mult == mult
        checks.append(PrintedValueCheck(value, mult, nearest, nearest_mult, matched))
    return PaperExampleReport(
        corona=corona,
        char_poly=cp,
        numeric=numeric,
        closed_form=cf,
        closed_form_agrees_numeric=agrees,
        minus_one_exact_multiplicity=exact_mult,
        minus_one_confirmed=exact_mult == 4,
        printed_checks=tuple(checks),
        printed_reproduced=all(c.matched for c in checks),
    )


# ---------------------------------------------------------------------------
# randomised theorem verification


@dataclass(frozen=True)
class TrialFailure:
    trial: int
    detail: str
    graphs: dict[str, str] = field(default_factory=dict)

    def render(self) -> str:
        lines = [f"counterexample at trial {self.trial}: {self.detail}"]
        for name, text in self.graphs.items():
            lines.append(f"  {name}:")
            lines.extend("    " + ln for ln in text.strip().splitlines())
        return "\n".join(lines)


@dataclass(frozen=True)
class VerifyResult:
    theorem: str
    trials: int
    passed: int
    failures: tuple[TrialFailure, ...]
    seed: int
    max_n: int
    tol: float
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "trials": self.trials,
            "passed": self.passed,
            "seed": self.seed,
            "max_n": self.max_n,
            "tol": self.tol,
            "ok": self.ok,
            "notes": list(self.notes),
            "failures": [asdict(f) for f in self.failures],
        }

    def render(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        lines = [
            f"theorem {self.theorem}: {status} {self.passed}/{self.trials} "
            f"(seed {self.seed}, max-n {self.max_n}, tol {self.tol:g})"
        ]
        lines.extend(f"note: {n}" for n in self.notes)
        lines.extend(f.render() for f in self.failures)
        return "\n".join(lines)


@dataclass(frozen=True)
class Theorem:
    """One row of the verification table. `cases(rng, trials, max_n)` yields
    each trial's input only when the loop asks for it, so the draws from rng
    keep their order; `check(case, rng, tol)` returns None when the identity
    holds on the case, else the failure detail and the graphs to dump. Rows
    call samplers and the corona by their names in this module, and look
    closed forms up in `CLOSED_FORMS` at call time, so a wrapper bound to one
    of those names or table values sees every call."""

    cases: Callable[[random.Random, int, int], Iterable[tuple]]
    check: Callable[[tuple, random.Random, float], tuple[str, dict[str, SignedGraph]] | None]
    notes: tuple[str, ...] = ()


def _sampled(sample):
    """Cases of a randomised row: one sample(rng, max_n) per trial."""
    return lambda rng, trials, max_n: (sample(rng, max_n) for _ in range(trials))


def _any_signed(rng: random.Random, max_n: int) -> SignedGraph:
    return random_signed_graph(rng, rng.randint(1, max_n))


def _check_factorisation(case, rng, tol):
    s1, s2 = case
    corona_matrix = matrix_of(neighbourhood_corona(s1, s2), MatrixKind.ADJACENCY)
    points = 0
    guard = 0
    while points < 5 and guard < 200:
        guard += 1
        t0 = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        try:
            lhs = corona_adjacency_charpoly_eval(s1, s2, t0)
        except PoleError:
            continue
        points += 1
        rhs = det_exact_at(corona_matrix, t0)
        if lhs != rhs:
            return f"factored value {lhs} != determinant {rhs} at t0={t0}", {"s1": s1, "s2": s2}
    if points < 5:
        return f"only {points} of 5 points avoided the poles of the second factor", {"s1": s1, "s2": s2}


def _closed_form_check(kind: MatrixKind, closed_form=None):
    """The check of the closed-form rows: closed_form(s1, s2, tol), realised,
    against the numeric spectrum of the corona's `kind` matrix; without
    closed_form, the paper's one for `kind`, CLOSED_FORMS[kind]. A closed
    form that refuses the factors (at a coarse tol, clustering can hide the
    eigenvalue it needs) fails the trial."""

    def check(case, rng, tol):
        s1, s2 = case
        try:
            cf = (closed_form or CLOSED_FORMS[kind])(s1, s2, tol)
        except ClosedFormError as exc:
            return f"closed form refused the factors: {exc}", {"s1": s1, "s2": s2}
        oracle = numeric_spectrum(neighbourhood_corona(s1, s2), kind, tol)
        realized = realize(cf, tol)
        if not spectra_equal(realized, oracle, tol):
            return f"closed form {realized} differs from oracle {oracle}", {"s1": s1, "s2": s2}

    return check


def _kpq_row(sign: int) -> Theorem:
    """Theorem 2.4 (sign -1) or 2.5 (sign +1): the second factor is
    complete_bipartite(p, q, sign), drawn after the first."""

    def sample(rng, max_n):
        s = _any_signed(rng, max_n)
        p, q = rng.randint(1, 2), rng.randint(1, 2)
        return s, complete_bipartite(p, q, sign)

    def closed_form(s, k, tol):
        q = k.degrees().degree[0]  # vertex 0 lies in the part of size p
        return closed_form_adjacency_kpq(s, k.n - q, q, sign, tol=tol)

    return Theorem(_sampled(sample), _closed_form_check(MatrixKind.ADJACENCY, closed_form))


def _bound_cases(rng, trials, max_n):
    """Theorem 5.1 takes its trials in turn from the rows of 2.3, 3.3 and 4.2."""
    rows = [THEOREMS[label].cases(rng, trials, max_n) for label in ("2.3", "3.3", "4.2")]
    kinds = (MatrixKind.ADJACENCY, MatrixKind.LAPLACIAN, MatrixKind.NET_LAPLACIAN)
    for trial in range(trials):
        yield (*next(rows[trial % 3]), kinds[trial % 3])


def _check_bound(case, rng, tol):
    s1, s2, kind = case
    report = corona_distinct_report(s1, s2, kind, tol)
    if report.bound is None:
        return "bound hypotheses unexpectedly unmet", {"s1": s1, "s2": s2}
    if not report.bound_satisfied:
        detail = f"{report.distinct_count} distinct {kind.value} eigenvalues exceed bound {report.bound}"
        return detail, {"s1": s1, "s2": s2}


# Theorem 5.2 runs this fixed catalog, whatever trial count is asked for.
_FEW_DISTINCT_CASES = tuple(
    (name, seed_graph, companion, sign)
    for name, seed_graph in catalog_two_eigenvalue_seeds()
    for companion, sign in (("K1", 1), ("K2", 1), ("K2", -1))
)


def _check_few_distinct(case, rng, tol):
    name, seed_graph, companion, sign = case
    what = f"{name} with {companion} (sign {sign:+d})"
    try:
        _, report = few_distinct_construct(seed_graph, companion, sign, tol)
    except ValueError as exc:  # tol merged or split the seed's two eigenvalues
        return f"{what}: {exc}", {"seed": seed_graph}
    if report.matches_expected:
        return None
    detail = f"{what}: {report.distinct_count} distinct, expected {report.expected_distinct}"
    return detail, {"seed": seed_graph}


THEOREMS = {
    "2.2": Theorem(
        _sampled(lambda rng, n: (_any_signed(rng, n), _any_signed(rng, n))),
        _check_factorisation,
    ),
    "2.3": Theorem(
        _sampled(lambda rng, n: (_any_signed(rng, n), random_net_regular(rng, n))),
        _closed_form_check(MatrixKind.ADJACENCY),
    ),
    "2.4": _kpq_row(-1),
    "2.5": _kpq_row(1),
    "3.3": Theorem(
        _sampled(lambda rng, n: (random_regular_signed(rng, n), random_net_regular(rng, n))),
        _closed_form_check(MatrixKind.LAPLACIAN),
    ),
    "3.4": Theorem(
        _sampled(lambda rng, n: (
            random_regular_signed(rng, n), random_connected_positive(rng, rng.randint(1, n))
        )),
        _closed_form_check(MatrixKind.LAPLACIAN),
        notes=(
            "second factors are connected all-positive graphs: the zero-row-sum "
            "reduction needs every negative degree to vanish, not just balance",
        ),
    ),
    "4.2": Theorem(
        _sampled(lambda rng, n: (random_net_regular(rng, n, nonzero=True), _any_signed(rng, n))),
        _closed_form_check(MatrixKind.NET_LAPLACIAN),
    ),
    "5.1": Theorem(_bound_cases, _check_bound),
    "5.2": Theorem(
        lambda rng, trials, max_n: _FEW_DISTINCT_CASES,
        _check_few_distinct,
        notes=(f"catalog run: {len(_FEW_DISTINCT_CASES)} seed/companion combinations",),
    ),
}
THEOREM_LABELS = tuple(THEOREMS)


def verify_theorem(
    label: str,
    *,
    trials: int = 100,
    seed: int = 0,
    max_n: int = 5,
    tol: float = 1e-6,
) -> VerifyResult:
    """Run the randomised property suite for one catalogued identity."""
    if label not in THEOREMS:
        raise ValueError(f"unknown theorem {label!r}; choose from {', '.join(THEOREM_LABELS)}")
    if trials < 1:
        raise ValueError("trials must be positive")
    if max_n < 1:
        raise ValueError("max-n must be positive")
    theorem = THEOREMS[label]
    rng = random.Random(seed)
    failures = []
    run = 0
    for run, case in enumerate(theorem.cases(rng, trials, max_n), start=1):
        failure = theorem.check(case, rng, tol)
        if failure is not None:
            detail, graphs = failure
            dump = {name: format_graph(g) for name, g in graphs.items()}
            failures.append(TrialFailure(run - 1, detail, dump))
    return VerifyResult(
        theorem=label,
        trials=run,
        passed=run - len(failures),
        failures=tuple(failures),
        seed=seed,
        max_n=max_n,
        tol=tol,
        notes=theorem.notes,
    )

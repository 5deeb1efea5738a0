"""Randomised verification drivers, few-distinct-eigenvalue constructions,
cospectral corona certificates, and the published 12-vertex worked example."""

from __future__ import annotations

import random
from functools import partial
from itertools import combinations

from ._record import Record, set_field
from .graphs import (
    DEFAULT_ISO_CAP,
    SignedGraph,
    _check_cap,
    _corona_edges,
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
from .linalg import (
    _PRIME_LADDER, Polynomial, SpectrumMultiset, _check_tol, _det_mod, _fmt, _triangle, char_poly_exact, spectra_equal,
)
from .spectra import (
    CLOSED_FORMS,
    ClosedFormError,
    MatrixKind,
    _block_spectrum,
    _eigenvalues,
    _factored_side,
    _form,
    _matrix_rows,
    _nonzeros,
    _quadratic_triangle,
    closed_form_adjacency,
    closed_form_adjacency_kpq,
    corona_spectrum,
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


def random_signed_graph(rng: random.Random, n: int) -> SignedGraph:
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                edges.append((u, v, -1 if rng.random() < 0.5 else 1))
    return SignedGraph(n, tuple(edges))


def random_connected_positive(rng: random.Random, n: int) -> SignedGraph:
    """Connected graph with every edge positive: random tree plus extras."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < 0.3:
                edges.add((u, v))
    return SignedGraph(n, ((u, v, 1) for u, v in edges))


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
    for attempt in range(800):
        pairs = _pair_stubs(rng, n, k, repair=attempt >= 400)
        if pairs is not None:
            return pairs
    raise RuntimeError(f"failed to sample a {k}-regular graph on {n} vertices")


def _pair_stubs(rng: random.Random, n: int, k: int, repair: bool) -> set[tuple[int, int]] | None:
    """One try of the pairing model: pair shuffled stubs and keep every pair
    that is neither a loop nor a repeat.  Without repair any leftover stub
    rejects the try.  With repair the leftover stubs are paired again
    (Steger-Wormald, Combin. Probab. Comput. 8, 1999), and the try fails
    once no two leftover vertices could still be joined.  None when the try
    fails."""
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
        if left and (not repair or all(e in pairs for e in combinations(sorted(set(left)), 2))):
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
    return SignedGraph(n, ((u, v, rng.choice((1, -1))) for u, v in pairs))


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
        return SignedGraph(n, ((u, v, sign) for u, v in pairs))


# ---------------------------------------------------------------------------
# distinct-eigenvalue reports


class DistinctReport(Record):
    """Clustered eigenvalue count for one matrix kind, with the exact count a
    few-distinct construction expects attached when there is one."""

    __slots__ = ("kind", "tol", "construction", "spectrum", "expected_distinct")
    _defaults = {"expected_distinct": None}

    @property
    def distinct_count(self) -> int:
        return self.spectrum.distinct_count

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
            # always null, kept for the `distinct --json` contract (test_cli.py::TestDistinct::test_json)
            "bound": None,
            "bound_satisfied": None,
            "expected_distinct": self.expected_distinct,
            "matches_expected": self.matches_expected,
        }

    def render(self) -> str:
        lines = [
            f"{self.construction}: {self.distinct_count} distinct {self.kind.value} eigenvalue(s) at tol {self.tol:g}",
            f"  spectrum: {self.spectrum}",
        ]
        if self.expected_distinct is not None:
            verdict = "as expected" if self.matches_expected else "UNEXPECTED"
            lines.append(f"  expected exactly {self.expected_distinct}: {verdict}")
        return "\n".join(lines)


def distinct_count(s: SignedGraph, kind: MatrixKind, tol: float = 1e-6) -> DistinctReport:
    _check_tol(tol)
    return DistinctReport(
        kind=kind,
        tol=tol,
        construction=f"graph on {s.n} vertices",
        spectrum=numeric_spectrum(s, kind, tol),
    )


def few_distinct_construct(
    s: SignedGraph, companion: str, sign: int = 1, tol: float = 1e-6
) -> tuple[SignedGraph, DistinctReport]:
    """Corona of a 2-distinct-adjacency-eigenvalue graph with a one- or
    two-vertex companion; the result should show exactly 4 (K1) or 5 (K2)
    distinct adjacency eigenvalues, and the report records whether it does."""
    _check_tol(tol)
    if not isinstance(companion, str) or companion.upper() not in ("K1", "K2"):
        raise ValueError(f"companion must be K1 or K2, got {companion!r}")
    companion = companion.upper()
    seed_distinct = numeric_spectrum(s, MatrixKind.ADJACENCY, tol).distinct_count
    if seed_distinct != 2:
        raise ValueError(
            f"seed graph has {seed_distinct} distinct adjacency eigenvalues, need exactly 2"
        )
    comp = edgeless(1) if companion == "K1" else complete_graph(2, sign)
    expected = 4 if companion == "K1" else 5
    corona = neighbourhood_corona(s, comp)
    sign_txt = "" if companion == "K1" else ("+" if sign > 0 else "-")
    report = DistinctReport(
        kind=MatrixKind.ADJACENCY,
        tol=tol,
        construction=f"corona of 2-eigenvalue seed on {s.n} vertices with {companion}{sign_txt}",
        spectrum=corona_spectrum(s, comp, MatrixKind.ADJACENCY, tol),
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


class CospectralCertificate(Record):
    """Witness that two cospectral non-isomorphic factors yield cospectral
    non-isomorphic coronas, certified by exact polynomial equality and
    brute-force isomorphism search."""

    __slots__ = ("kind", "factor_a", "factor_b", "companion", "corona_a", "corona_b",
                 "factor_char_poly", "corona_char_poly", "isomorphic", "switching_isomorphic")

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
    _check_cap(max(s1.n, s2.n) * (companion.n + 1), cap)  # no search below is larger
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


def published_example_values() -> tuple[tuple[float, int, tuple[int, ...]], ...]:
    """Adjacency multiset printed for the worked example, -1 first: -1 four
    times plus (3 +- sqrt(33))/2 and (-1 +- sqrt(41))/2 twice each.  Each
    value comes with its minimal polynomial over the integers, ascending:
    t + 1, t^2 - 3t - 6 and t^2 + t - 10."""
    s33 = 33 ** 0.5
    s41 = 41 ** 0.5
    return (
        (-1.0, 4, (1, 1)),
        ((3 - s33) / 2, 2, (-6, -3, 1)),
        ((3 + s33) / 2, 2, (-6, -3, 1)),
        ((-1 - s41) / 2, 2, (-10, 1, 1)),
        ((-1 + s41) / 2, 2, (-10, 1, 1)),
    )


def _factor_multiplicity(poly: Polynomial, factor: tuple[int, ...]) -> int:
    """How many times the monic factor (ascending integer coefficients, degree
    at least 1) divides poly: long division on its exact coefficients, until
    a remainder is nonzero."""
    f = factor[::-1]  # descending, f[0] == 1
    d = len(f) - 1
    coeffs = list(reversed(poly.coeffs))  # descending
    count = 0
    while len(coeffs) > d:
        for i in range(len(coeffs) - d):
            lead = coeffs[i]
            for j in range(1, d + 1):
                coeffs[i + j] -= lead * f[j]
        if any(coeffs[-d:]):
            break
        del coeffs[-d:]
        count += 1
    return count


class PrintedValueCheck(Record):
    __slots__ = ("value", "multiplicity", "nearest", "nearest_multiplicity", "matched")


class PaperExampleReport(Record):
    """Comparison of the 12-vertex corona of the unbalanced 4-cycle with the
    positive 2-clique against the values published for it."""

    __slots__ = ("corona", "char_poly", "numeric", "closed_form", "closed_form_agrees_numeric",
                 "minus_one_exact_multiplicity", "printed_checks")  # printed_checks: -1 first

    @property
    def minus_one_confirmed(self) -> bool:
        return self.printed_checks[0].matched

    @property
    def printed_reproduced(self) -> bool:
        return all(c.matched for c in self.printed_checks)

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
            "printed_checks": [
                {"value": c.value, "multiplicity": c.multiplicity, "nearest": c.nearest,
                 "nearest_multiplicity": c.nearest_multiplicity, "matched": c.matched}
                for c in self.printed_checks
            ],
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
        for c in self.printed_checks[1:]:  # -1 is reported above
            verdict = "matches" if c.matched else f"absent (nearest eigenvalue {_fmt(c.nearest)} x{c.nearest_multiplicity})"
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
    numeric = corona_spectrum(s1, s2, MatrixKind.ADJACENCY, tol)
    cf = closed_form_adjacency(s1, s2, tol)
    agrees = spectra_equal(realize(cf, tol), numeric, tol)
    published = published_example_values()
    exact = [_factor_multiplicity(cp, factor) for _, _, factor in published]
    checks = tuple(
        PrintedValueCheck(value, mult, *numeric.nearest(value), e == mult)  # nearest for display only
        for (value, mult, _), e in zip(published, exact)
    )
    return PaperExampleReport(
        corona=corona,
        char_poly=cp,
        numeric=numeric,
        closed_form=cf,
        closed_form_agrees_numeric=agrees,
        minus_one_exact_multiplicity=exact[0],  # t + 1
        printed_checks=checks,
    )


# ---------------------------------------------------------------------------
# randomised theorem verification


class TrialFailure(Record):
    __slots__ = ("trial", "detail", "graphs")

    def __init__(self, trial: int, detail: str, graphs: dict[str, str] | None = None):
        set_field(self, "trial", trial)
        set_field(self, "detail", detail)
        set_field(self, "graphs", {} if graphs is None else graphs)

    def render(self) -> str:
        lines = [f"counterexample at trial {self.trial}: {self.detail}"]
        for name, text in self.graphs.items():
            lines.append(f"  {name}:")
            lines.extend("    " + ln for ln in text.strip().splitlines())
        return "\n".join(lines)


class VerifyResult(Record):
    __slots__ = ("theorem", "trials", "passed", "failures", "seed", "max_n", "tol", "notes")
    _defaults = {"notes": ()}

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
            "failures": [
                {"trial": f.trial, "detail": f.detail, "graphs": dict(f.graphs)} for f in self.failures
            ],
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


def _factor_pair(case: tuple) -> dict[str, SignedGraph]:
    """The graphs a failed trial dumps when its case starts with the two
    factors."""
    return {"s1": case[0], "s2": case[1]}


class Theorem(Record):
    """One row of the verification table. `cases(rng, trials, max_n, points)`
    yields each trial's input only when the loop asks for it, so the draws
    from rng, the trial stream, keep their order, and the point rows take
    their points from points, the run's point stream (_points); `check(case,
    tol)`, a function of the case alone, returns None when the identity holds
    on it, else the failure detail, and a failed trial dumps `graphs(case)`.
    verify_theorem alone judges what a check raises: a ClosedFormError or
    any other ValueError or ArithmeticError fails the trial, and anything
    else, a bug, propagates.
    Rows call samplers and the corona by their names in this module, and look
    closed forms up in `CLOSED_FORMS` at call time, so a wrapper bound to one
    of those names or table values sees every call."""

    __slots__ = ("cases", "check", "graphs", "notes")
    _defaults = {"graphs": _factor_pair, "notes": ()}


def _points(seed: int) -> random.Random:
    """The point stream of the run at this seed, apart from its trial
    stream, so the closed-form rows sample the pairs they sampled before
    their cases carried a point."""
    return random.Random(f"points {seed}")


# The point rows' field, GF(2^127 - 1), and their one determinant routine.
_POINT_PRIME = _PRIME_LADDER[1]
_point_det = partial(_det_mod, p=_POINT_PRIME)


def _pointed(sample):
    """Cases of a closed-form row: one pair sample(rng, max_n) per trial,
    with a point uniform in GF(_POINT_PRIME) from the point stream."""
    return lambda rng, trials, max_n, points: (
        (*sample(rng, max_n), points.randrange(_POINT_PRIME)) for _ in range(trials)
    )


def _any_signed(rng: random.Random, max_n: int) -> SignedGraph:
    return random_signed_graph(rng, rng.randint(1, max_n))


def _mismatch(factored, determinant, t: int) -> str | None:
    """The comparison of both exact identities: None when the projective
    _det_mod pairs (num, den) of the factored side and of the corona's
    determinant agree in GF(_POINT_PRIME), by cross multiplication; only a
    mismatch takes inverses, to report both residues at the point t."""
    p = _POINT_PRIME
    (fn, fd), (dn, dd) = factored, determinant
    if (fn * dd - dn * fd) % p:
        lhs, rhs = fn * pow(fd, -1, p) % p, dn * pow(dd, -1, p) % p
        return f"factored value {lhs} != determinant {rhs} at t0={t} mod {p}"


def _check_factorisation(case, tol):
    """2.2 at the case's point t, uniform in GF(p), p = 2^127 - 1: det(tI - M)
    of the corona against the factored side det(hp*(tI - A1) - hk*A1^2),
    every determinant by _point_det, hp and the hs behind hk included.  Both
    are polynomials of degree N = n1*(n2+1) <= 182, so a wrong identity
    passes with probability at most N/p < 2^-119 (Schwartz, JACM 27, 1980).
    The row draws t with its pair, right after it, from four 32-bit words of
    the trial stream, as two draws below 2^61 - 1 would, so the pairs
    sampled after it are those of a check at two points of GF(2^61 - 1).
    The corona's triangle tI - M comes from its edge list (_corona_edges,
    _triangle), with no SignedGraph or matrix built or checked.  The
    factored side's scale^n1 (_factored_side) joins its denominator, and
    _mismatch compares the two sides."""
    s1, s2, t = case
    _, upper, scale = _factored_side(s1, s2, t, 1, _point_det)
    ln, ld = _point_det(upper)
    corona = _point_det(_triangle(s1.n * (s2.n + 1), (), _corona_edges(s1, s2), t, 1))
    return _mismatch((ln, ld * pow(scale, s1.n, _POINT_PRIME)), corona, t)


def _point_identity(s1, s2, kind: MatrixKind, t: int, rows1, shift: int, table, lower) -> str | None:
    """The closed form's identity at the point t of GF(p), p = 2^127 - 1:
    det(tI - M) * L(t)^n1 = det(T(t)) * det((t - shift)I - M2)^n1, M the
    corona's `kind` matrix, L the char poly `lower` of the quotient's M2
    block, and T(t) = sum_j t^j (g_j0 I + g_j1 M1 + g_j2 M1^2) the matrix
    polynomial of the form's integer table (spectra._form), the one source
    of the printed coefficients.  Both sides are polynomials in t of degree
    at most N + 2*n1 <= 208, N = n1*(n2+1), so a false identity passes with
    probability at most 208/p < 2^-119 (Schwartz, JACM 27, 1980).  Only
    where S1 has no edge, M1 = shift*I, T(t) has L's roots whatever L is,
    so there L must also vanish at an eigenvalue of M2 + shift*I.

    Each determinant is a _point_det pair, the corona's triangle written
    from its edge list (_corona_edges, _nonzeros, _triangle) and M2's from
    its own, T's dense from M1's rows (spectra._quadratic_triangle);
    _mismatch compares the two sides, as for 2.2."""
    p = _POINT_PRIME
    alpha = beta = gamma = 0  # T(t) = alpha*I + beta*M1 + gamma*M1^2, by Horner in t
    for g0, g1, g2 in reversed(table):
        alpha = (alpha * t + g0) % p
        beta = (beta * t + g1) % p
        gamma = (gamma * t + g2) % p
    n1, n2 = s1.n, s2.n
    n = n1 * (n2 + 1)
    fn, fd = _point_det(_quadratic_triangle(rows1, alpha, beta, gamma))
    mn, md = _point_det(_triangle(n2, *_nonzeros(n2, s2.edges, kind), t - shift, 1))
    dn, dd = _point_det(_triangle(n, *_nonzeros(n, _corona_edges(s1, s2), kind), t, 1))
    low = 0
    for c in reversed(lower):
        low = (low * t + c) % p
    detail = _mismatch((fn * pow(mn, n1, p), fd * pow(md, n1, p)), (dn * pow(low, n1, p), dd), t)
    if detail is not None or s1.edges:
        return detail
    c0, c1, c2 = (*lower, 0)[:3]  # L(M2 + shift*I) = c0 + c1*shift + c2*shift^2 + (c1 + 2*c2*shift)*M2 + c2*M2^2
    rows2 = _matrix_rows(n2, s2.edges, kind)
    if _point_det(_quadratic_triangle(rows2, c0 + (c1 + c2 * shift) * shift, c1 + 2 * c2 * shift, c2))[0] % p:
        return f"no eigenvalue of M2 + {shift}*I is a root of the given-up char poly {list(lower)}"


def _closed_form_check(kind: MatrixKind, closed_form=None, sign: int | None = None):
    """The check of the closed-form rows, on a case (s1, s2, t):
    closed_form(s1, s2, tol), realised, or without closed_form the paper's
    one for `kind`, CLOSED_FORMS[kind]; a closed form that refuses the
    factors, or that raises (a wrong formula, such as K_{p,p} sent to the
    cubic), fails the trial by verify_theorem's one rule.  Then two checks
    that never solve the corona: the realised form against the corona's
    spectrum from its factors (corona_spectrum) at tol, and the identity at
    t (_point_identity) on the closed forms' reading, _form; 5.1
    (_check_bound) shares both."""

    def check(case, tol):
        s1, s2, t = case
        realized = realize((closed_form or CLOSED_FORMS[kind])(s1, s2, tol), tol)
        reading = _form(s1, s2, kind, sign)
        oracle = corona_spectrum(s1, s2, kind, tol)
        if not spectra_equal(realized, oracle, tol):
            return f"closed form {realized} differs from oracle {oracle}"
        return _point_identity(s1, s2, kind, t, *reading)

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

    return Theorem(_pointed(sample), _closed_form_check(MatrixKind.ADJACENCY, closed_form, sign))


def _bound_cases(rng, trials, max_n, points):
    """Theorem 5.1 takes its trials in turn from the rows of 2.3, 3.3 and 4.2:
    each case is its sub-row's (s1, s2, t), the point t included, with the
    sub-row's matrix kind appended."""
    rows = [THEOREMS[label].cases(rng, trials, max_n, points) for label in ("2.3", "3.3", "4.2")]
    kinds = (MatrixKind.ADJACENCY, MatrixKind.LAPLACIAN, MatrixKind.NET_LAPLACIAN)
    for trial in range(trials):
        yield (*next(rows[trial % 3]), kinds[trial % 3])


def _check_bound(case, tol):
    """Theorem 5.1 on a case (s1, s2, t, kind), from the factors alone: the
    identity at t on the closed form's reading (_point_identity, _form),
    which makes the corona's spectrum that of corona_spectrum, then its
    distinct values against 2*t1 + t2, t1 and t2 the distinct eigenvalues of
    M1 and M2, all three counted at tol on one reduction of each factor
    (_eigenvalues, _block_spectrum).  No closed form is realised, and a
    refused reading raises, as in the closed-form rows."""
    s1, s2, t, kind = case
    rows1, shift, table, lower = _form(s1, s2, kind)
    detail = _point_identity(s1, s2, kind, t, rows1, shift, table, lower)
    if detail is not None:
        return detail
    rows2 = _matrix_rows(s2.n, s2.edges, kind)
    eigs1, eigs2 = _eigenvalues(rows1), _eigenvalues(rows2)
    distinct = _block_spectrum(eigs1, rows2, shift, tol, eigs2).distinct_count
    t1, t2 = (SpectrumMultiset.from_values(eigs, tol).distinct_count for eigs in (eigs1, eigs2))
    bound = 2 * t1 + t2
    if distinct > bound:
        return f"{distinct} distinct {kind.value} eigenvalues exceed bound {bound}"


# Theorem 5.2 runs this fixed catalog, whatever trial count is asked for.
_FEW_DISTINCT_CASES = tuple(
    (name, seed_graph, companion, sign)
    for name, seed_graph in catalog_two_eigenvalue_seeds()
    for companion, sign in (("K1", 1), ("K2", 1), ("K2", -1))
)


def _check_few_distinct(case, tol):
    name, seed_graph, companion, sign = case
    what = f"{name} with {companion} (sign {sign:+d})"
    try:
        _, report = few_distinct_construct(seed_graph, companion, sign, tol)
    except ValueError as exc:  # tol merged or split the seed's two eigenvalues
        return f"{what}: {exc}"
    if not report.matches_expected:
        return f"{what}: {report.distinct_count} distinct, expected {report.expected_distinct}"


THEOREMS = {
    "2.2": Theorem(
        lambda rng, trials, max_n, points: (
            (_any_signed(rng, max_n), _any_signed(rng, max_n), rng.randrange(_POINT_PRIME)) for _ in range(trials)
        ),
        _check_factorisation,
    ),
    "2.3": Theorem(
        _pointed(lambda rng, n: (_any_signed(rng, n), random_net_regular(rng, n))),
        _closed_form_check(MatrixKind.ADJACENCY),
    ),
    "2.4": _kpq_row(-1),
    "2.5": _kpq_row(1),
    "3.3": Theorem(
        _pointed(lambda rng, n: (random_regular_signed(rng, n), random_net_regular(rng, n))),
        _closed_form_check(MatrixKind.LAPLACIAN),
    ),
    "3.4": Theorem(
        _pointed(lambda rng, n: (
            random_regular_signed(rng, n), random_connected_positive(rng, rng.randint(1, n))
        )),
        _closed_form_check(MatrixKind.LAPLACIAN),
        notes=(
            "second factors are connected all-positive graphs: the zero-row-sum "
            "reduction needs every negative degree to vanish, not just balance",
        ),
    ),
    "4.2": Theorem(
        _pointed(lambda rng, n: (random_net_regular(rng, n, nonzero=True), _any_signed(rng, n))),
        _closed_form_check(MatrixKind.NET_LAPLACIAN),
    ),
    "5.1": Theorem(_bound_cases, _check_bound),
    "5.2": Theorem(
        lambda rng, trials, max_n, points: _FEW_DISTINCT_CASES,
        _check_few_distinct,
        graphs=lambda case: {"seed": case[1]},
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
    for name, value in (("trials", trials), ("max-n", max_n)):
        if type(value) is not int or value < 1:
            raise ValueError(f"{name} must be a positive int, got {value!r}")
    if type(seed) is not int:
        raise ValueError(f"seed must be an int, got {seed!r}")
    if seed < 0:  # random.Random(-s) replays seed s
        raise ValueError(f"seed must be at least 0, got {seed!r}")
    _check_tol(tol)
    theorem = THEOREMS[label]
    rng = random.Random(seed)
    failures = []
    run = 0
    for run, case in enumerate(theorem.cases(rng, trials, max_n, _points(seed)), start=1):
        try:
            detail = theorem.check(case, tol)
        except ClosedFormError as exc:
            detail = f"closed form refused the factors: {exc}"
        except (ValueError, ArithmeticError) as exc:  # a wrong formula or a kernel fault fails the trial
            detail = f"check raised {type(exc).__name__}: {exc}"
        if detail is not None:
            dump = {name: format_graph(g) for name, g in theorem.graphs(case).items()}
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

"""The benchmark's three workloads.

Each workload turns the benchmark seed and run length into a fixed list of
ops. An op calls the package's public API once; its output is checked after
the timed pass against an oracle that is independent of the timed path. The
graphs given to the CLI are generated here, by the benchmark's own code, so a
change to the package's random samplers cannot change the desk-cli inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

MAX_N = 6
VERIFY_TRIALS = 5
SPECTRAL_LABELS = ("2.3", "2.4", "2.5", "3.3", "3.4", "4.2", "5.1")
ISO_CAP = 24
CHARPOLY_POINTS = (Fraction(1, 2), Fraction(-3, 2), Fraction(7, 3))

# The text `verify` renders for a passing run. The CLI contract keeps it
# byte-identical for a given seed, so it is spelled out here, not rendered.
_VERIFY_NOTES = {
    "3.4": (
        "second factors are connected all-positive graphs: the zero-row-sum "
        "reduction needs every negative degree to vanish, not just balance",
    ),
}


@dataclass(frozen=True)
class Op:
    """One closed-loop request: `run` is timed, `check` is not. `check`
    returns None for a correct output, else the reason it is wrong."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass(frozen=True)
class Workload:
    name: str
    ops_per_s: float  # op rate at the defining commit; sizes the op list
    build: Callable  # (env, seed, seconds, workdir) -> list[Op]
    bypassed: tuple[str, ...]  # layer functions the workload must never call


def derived_rng(workload: str, seed: int | str) -> random.Random:
    """String seeds go through SHA-512, so this does not depend on hash
    randomisation or on the Python build."""
    return random.Random(f"{workload}:{seed}")


# Inputs come from two streams. Most ops draw from a core stream that depends
# on the workload alone, so every --seed runs them; one op in SEEDED_EVERY
# (desk-cli: one round) draws from the --seed stream. A random input's cost
# is heavy-tailed (orders up to 42, Jacobi cost ~ order^3), and a list drawn
# wholly from --seed moved the tail percentiles by about 8 % between seeds
# before the machine added its own noise. Seeded ops sit at even positions,
# so the traced pass (every second op) runs them too.
SEEDED_EVERY = 4


def input_streams(workload: str, seed: int):
    """Yields, per op (or round), the stream its inputs are drawn from."""
    core, seeded = derived_rng(workload, "core"), derived_rng(workload, seed)
    i = 0
    while True:
        yield seeded if i % SEEDED_EVERY == 2 else core
        i += 1


# ---------------------------------------------------------------------------
# verify-spectral and verify-exact


def expected_verify_text(label: str, seed: int) -> str:
    lines = [
        f"theorem {label}: PASS {VERIFY_TRIALS}/{VERIFY_TRIALS} "
        f"(seed {seed}, max-n {MAX_N}, tol 1e-06)"
    ]
    lines.extend(f"note: {n}" for n in _VERIFY_NOTES.get(label, ()))
    return "\n".join(lines)


def _verify_op(env, label: str, seed: int) -> Op:
    def run():
        return env.experiments.verify_theorem(
            label, trials=VERIFY_TRIALS, seed=seed, max_n=MAX_N
        )

    def check(result) -> str | None:
        if not result.ok or result.passed != VERIFY_TRIALS:
            return f"verify {label} seed {seed}: {result.passed}/{result.trials} passed"
        if result.render() != expected_verify_text(label, seed):
            return f"verify {label} seed {seed}: rendered text differs from the contract"
        return None

    return Op(f"verify {label}", run, check)


def _op_count(workload: Workload, seconds: float, multiple: int) -> int:
    groups = max(1, round(seconds * workload.ops_per_s / multiple))
    return groups * multiple


def build_verify_spectral(env, seed, seconds, workdir) -> list[Op]:
    streams = input_streams(VERIFY_SPECTRAL.name, seed)
    count = _op_count(VERIFY_SPECTRAL, seconds, len(SPECTRAL_LABELS))
    return [
        _verify_op(env, SPECTRAL_LABELS[i % len(SPECTRAL_LABELS)], next(streams).randrange(1 << 31))
        for i in range(count)
    ]


def build_verify_exact(env, seed, seconds, workdir) -> list[Op]:
    streams = input_streams(VERIFY_EXACT.name, seed)
    count = _op_count(VERIFY_EXACT, seconds, 1)
    return [_verify_op(env, "2.2", next(streams).randrange(1 << 31)) for _ in range(count)]


# ---------------------------------------------------------------------------
# desk-cli: graphs, their matrices and their corona, computed here

# A graph is (n, edges) with edges a sorted list of (u, v, sign), u < v.


def random_graph(rng: random.Random, n: int, p: float = 0.5):
    edges = [
        (u, v, rng.choice((1, -1)))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return n, edges


def circulant(n: int, offsets, sign: int):
    """A circulant graph with every edge of one sign: regular, so net-regular,
    which the adjacency closed form needs of the second factor."""
    pairs = {tuple(sorted((u, (u + o) % n))) for u in range(n) for o in offsets}
    return n, sorted((u, v, sign) for u, v in pairs)


def complete(k: int):
    return k, [(u, v, 1) for u in range(k) for v in range(u + 1, k)]


def corona_edges(g1, g2) -> set:
    """The neighbourhood corona as defined in the README: the first factor's
    vertices, then copy i of the second factor at n1 + i*n2; each neighbour w
    of vertex i is joined to all of copy i with the sign of the edge {w, i}."""
    n1, e1 = g1
    n2, e2 = g2
    out = set(e1)
    for i in range(n1):
        out.update((n1 + i * n2 + u, n1 + i * n2 + v, s) for u, v, s in e2)
    for u, v, s in e1:
        for w in range(n2):
            out.add((v, n1 + u * n2 + w, s))
            out.add((u, n1 + v * n2 + w, s))
    return out


def parse_edge_list(text: str):
    rows = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    signs = {"+": 1, "+1": 1, "-": -1, "-1": -1}
    edges = set()
    for u, v, s in rows[1:]:
        u, v = sorted((int(u), int(v)))
        edges.add((u, v, signs[s]))
    return int(rows[0][0]), edges


def matrix_rows(g, kind: str) -> list[list[int]]:
    n, edges = g
    rows = [[0] * n for _ in range(n)]
    for u, v, s in edges:
        rows[u][v] = rows[v][u] = -s if kind != "adj" else s
        if kind == "lap":
            rows[u][u] += 1
            rows[v][v] += 1
        elif kind == "netlap":
            rows[u][u] += s
            rows[v][v] += s
    return rows


def _eval_poly(coeffs, t: Fraction) -> Fraction:
    value = Fraction(0)
    for c in reversed(coeffs):
        value = value * t + c
    return value


def _moment_error(pairs, n_edges: int) -> str | None:
    """Adjacency spectra satisfy sum(v) = trace(A) = 0 and
    sum(v^2) = trace(A^2) = 2|E|."""
    s1 = sum(p["value"] * p["multiplicity"] for p in pairs)
    s2 = sum(p["value"] ** 2 * p["multiplicity"] for p in pairs)
    if abs(s1) > 1e-6 * (1 + 2 * n_edges) or abs(s2 - 2 * n_edges) > 1e-6 * (1 + 2 * n_edges):
        return f"spectral moments {s1:.6g}, {s2:.6g} do not match 0, {2 * n_edges}"
    return None


def _cli(env, argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = env.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_op(env, kind: str, argv: list[str], check_doc) -> Op:
    """An in-process CLI call that must exit 0 with stdout that check_doc
    accepts."""

    def check(output) -> str | None:
        code, out, err = output
        if code != 0:
            return f"{kind}: exit code {code}: {err.strip()}"
        return check_doc(out)

    return Op(kind, lambda: _cli(env, argv), check)


def _charpoly_check(env, g, kind):
    def check(out: str) -> str | None:
        coeffs = [Fraction(c) for c in json.loads(out)["coeffs"]]
        n = g[0]
        if len(coeffs) != n + 1 or coeffs[-1] != 1:
            return f"charpoly: {len(coeffs) - 1}-degree polynomial for order {n}"
        m = env.linalg.Matrix(matrix_rows(g, kind))
        for t in CHARPOLY_POINTS:
            if _eval_poly(coeffs, t) != env.linalg.det_exact_at(m, t):
                return f"charpoly: value at t={t} differs from the Bareiss determinant"
        return None

    return check


def _spectrum_check(g1, g2):
    order = g1[0] * (g2[0] + 1)

    def check(out: str) -> str | None:
        doc = json.loads(out)
        if doc.get("agrees") is not True:
            return "spectrum: closed form does not agree with the numeric spectrum"
        numeric = sum(p["multiplicity"] for p in doc["numeric"])
        closed = sum(
            e["multiplicity"] * (len(e["coeffs"]) - 1 if "coeffs" in e else 1)
            for e in doc["closed_form"]
        )
        if numeric != order or closed != order:
            return f"spectrum: {numeric} numeric and {closed} closed-form eigenvalues for order {order}"
        return _moment_error(doc["numeric"], len(corona_edges(g1, g2)))

    return check


def _corona_check(g1, g2, path: Path):
    order = g1[0] * (g2[0] + 1)

    def check(out: str) -> str | None:
        want = corona_edges(g1, g2)
        if out.strip() != f"wrote {path}: {order} vertices, {len(want)} edges":
            return f"corona: unexpected report {out.strip()!r}"
        n, edges = parse_edge_list(path.read_text(encoding="ascii"))
        if n != order or edges != want:
            return "corona: written edge list differs from the corona definition"
        return None

    return check


def _distinct_check(g):
    def check(out: str) -> str | None:
        doc = json.loads(out)
        pairs = doc["spectrum"]
        if sum(p["multiplicity"] for p in pairs) != g[0] or doc["distinct_count"] != len(pairs):
            return "distinct: eigenvalue count does not match the graph order"
        return _moment_error(pairs, len(g[1]))

    return check


def _cospectral_check(companion_order: int):
    def check(out: str) -> str | None:
        doc = json.loads(out)
        if doc["ok"] is not True or doc["isomorphic"] is not False:
            return "cospectral-demo: certificate does not hold"
        if doc["corona_order"] != 5 * (companion_order + 1):
            return f"cospectral-demo: corona order {doc['corona_order']}"
        return None

    return check


def _paper_check(out: str) -> str | None:
    doc = json.loads(out)
    if doc["ok"] is not True or doc["minus_one_exact_multiplicity"] != 4:
        return "paper-example: report is not ok"
    return None


# Per-round sizes. The second factor of `spectrum` is a fixed circulant
# (n2, offsets), so its Jacobi cost depends on the seed only through the
# random first factor. The corona orders span 60..110; taken in order, every
# second round still spans the range (the traced pass runs every second op,
# and a round has an odd number of ops).
SPECTRUM_FACTORS = (
    (12, 4, (1,)), (13, 4, (2,)), (10, 6, (1,)), (12, 5, (1,)),
    (15, 4, (1, 2)), (16, 4, (1,)), (17, 4, (2,)), (15, 5, (1, 2)),
    (19, 4, (1,)), (20, 4, (1,)), (15, 6, (1, 3)), (11, 9, (1,)),
)
CHARPOLY_SMALL = tuple(range(24, 36))
CHARPOLY_LARGE = tuple(range(37, 49))
KINDS = ("adj", "lap", "netlap")


def _write(env, g, path: Path) -> str:
    n, edges = g
    env.graphs.write_graph(env.graphs.SignedGraph(n, tuple(edges)), path)
    return str(path)


def build_desk_cli(env, seed, seconds, workdir: Path) -> list[Op]:
    streams = input_streams(DESK_CLI.name, seed)
    rounds = _op_count(DESK_CLI, seconds, 9) // 9
    companions = [
        (k, _write(env, complete(k), workdir / f"k{k}.sg")) for k in (1, 2, 3)
    ]
    ops: list[Op] = []
    for r, rng in zip(range(rounds), streams):
        i = r % len(SPECTRUM_FACTORS)
        small = random_graph(rng, CHARPOLY_SMALL[i])
        large = random_graph(rng, CHARPOLY_LARGE[i])
        n1, n2, offsets = SPECTRUM_FACTORS[i]
        g1, g2 = random_graph(rng, n1), circulant(n2, offsets, rng.choice((1, -1)))
        distinct = random_graph(rng, 8 + i)
        files = {
            name: _write(env, g, workdir / f"r{r}-{name}.sg")
            for name, g in (("small", small), ("large", large), ("s1", g1), ("s2", g2), ("distinct", distinct))
        }
        corona_out = workdir / f"r{r}-corona.sg"
        small_kind, large_kind = KINDS[r % 3], KINDS[(r + 1) % 3]
        ops.append(_cli_op(env, "charpoly small", ["charpoly", files["small"], "--kind", small_kind, "--json"],
                           _charpoly_check(env, small, small_kind)))
        ops.append(_cli_op(env, "charpoly large", ["charpoly", files["large"], "--kind", large_kind, "--json"],
                           _charpoly_check(env, large, large_kind)))
        ops.append(_cli_op(env, "spectrum closed-form", ["spectrum", files["s1"], files["s2"], "--closed-form", "--json"],
                           _spectrum_check(g1, g2)))
        ops.append(_cli_op(env, "corona", ["corona", files["s1"], files["s2"], "-o", str(corona_out)],
                           _corona_check(g1, g2, corona_out)))
        ops.append(_cli_op(env, "distinct", ["distinct", files["distinct"], "--json"], _distinct_check(distinct)))
        for k, path in companions:
            ops.append(_cli_op(env, f"cospectral-demo K{k}",
                               ["cospectral-demo", "--companion", path, "--cap", str(ISO_CAP), "--json"],
                               _cospectral_check(k)))
        ops.append(_cli_op(env, "paper-example", ["paper-example", "--json"], _paper_check))
    return ops


VERIFY_SPECTRAL = Workload(
    name="verify-spectral",
    ops_per_s=11.5,
    build=build_verify_spectral,
    bypassed=("linalg.det_exact_at", "linalg.char_poly_exact"),
)
VERIFY_EXACT = Workload(
    name="verify-exact",
    ops_per_s=15.5,
    build=build_verify_exact,
    bypassed=("linalg.sym_eigenvalues",),
)
DESK_CLI = Workload(
    name="desk-cli",
    ops_per_s=3.6,
    build=build_desk_cli,
    bypassed=(),
)
WORKLOADS = {w.name: w for w in (VERIFY_SPECTRAL, VERIFY_EXACT, DESK_CLI)}

"""Command-line front end: corona construction, spectra, exact characteristic
polynomials, randomised verification, and the bundled demonstrations."""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .experiments import (
    IsomorphicInputsError,
    NotCospectralError,
    THEOREM_LABELS,
    cospectral_demo,
    default_cospectral_pair,
    distinct_count,
    paper_example,
    verify_theorem,
)
from .graphs import (
    DEFAULT_ISO_CAP,
    GraphError,
    edgeless,
    neighbourhood_corona,
    read_graph,
    write_graph,
)
from .linalg import char_poly_exact, spectra_equal
from .spectra import (
    CLOSED_FORMS,
    ClosedFormError,
    MatrixKind,
    corona_spectrum,
    matrix_of,
    numeric_spectrum,
    realize,
)


class UsageError(Exception):
    pass


# Largest matrix order that spectrum, charpoly, distinct and cospectral-demo
# accept, and the largest corona order verify samples. The slowest dense
# kernel is the exact char poly. On a twin-free dense signed Laplacian of this
# order it takes three primes of 255 to 607 bits, and `charpoly` takes
# 1.1-1.2 s, the whole process, by Lanczos on a 2-vCPU guest under Python
# 3.11 that runs the benchmark's probes 1.7 times as fast as its reference
# machine (2.2-2.6 s on a 2-vCPU Intel Xeon guest near the reference speed;
# by Hessenberg reduction, which still serves a block whose Lanczos falls
# back, 22-23 s there); the Laplacian of K_200, one twin class, 0.12-0.13 s.
# The Householder + QL eigensolver (cubic) takes 0.5 s on the Xeon guest. For
# `spectrum` of two graphs the limit applies to the corona order n1*(n2 + 1)
# on every one of corona_spectrum's routes, though the factor-sized ones it
# takes when the first factor's matrix has a constant diagonal (one 2x2
# quotient or one block of order n2 + 1 per eigenvalue of that matrix) cost
# far less.
MAX_DENSE_ORDER = 200

# Largest corona, in vertices plus edges, that `corona` builds. On the same
# guest one of 10^6 edges is built and written in 1.5 s at 242 MB peak RSS, one
# of 1.65 * 10^6 edges in 3.0 s at 410 MB. Vertices are counted too, so that a
# huge edgeless corona is refused rather than built for minutes.
MAX_CORONA_SIZE = 10**6


def _check_order(order: int) -> None:
    """Refuse a dense matrix of this order before it is built."""
    if order > MAX_DENSE_ORDER:
        raise GraphError(f"matrix order {order} exceeds the limit of {MAX_DENSE_ORDER}")


def _positive(convert, zero=False):
    """argparse type: convert(text), which must be finite and above zero, or
    at least zero with zero=True."""

    def parse(text: str):
        value = convert(text)
        if not (0 <= value if zero else 0 < value) or value == math.inf:
            raise argparse.ArgumentTypeError(
                f"expected a finite {convert.__name__} {'of at least' if zero else 'above'} 0, got {text!r}"
            )
        return value

    parse.__name__ = convert.__name__  # argparse reports "invalid int value: 'x'"
    return parse


def _add_common(sub, kind=True, tol=True):
    if kind:
        sub.add_argument("--kind", choices=[k.value for k in MatrixKind], default="adj",
                         help="which matrix to use (default adj)")
    if tol:
        sub.add_argument("--tol", type=_positive(float), default=1e-6,
                         help="eigenvalue clustering/comparison tolerance (default 1e-6)")
    sub.add_argument("--json", action="store_true", help="emit JSON instead of text")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later
    one: it takes no inputs, and parse_args reads it without changing it."""
    parser = argparse.ArgumentParser(
        prog="sgcorona",
        description="Signed-graph neighbourhood coronas: construction, spectra and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("corona", help="write the corona of two graphs to a file")
    p.add_argument("first", help="edge-list file of the first factor")
    p.add_argument("second", help="edge-list file of the second factor")
    p.add_argument("-o", "--output", required=True, help="output edge-list file")
    p.set_defaults(func=cmd_corona)

    p = sub.add_parser("spectrum", help="numeric spectrum of a graph, or of the corona of two graphs")
    p.add_argument("graphs", nargs="+", metavar="GRAPH",
                   help="one edge-list file, or two whose corona is analysed")
    p.add_argument("--closed-form", action="store_true",
                   help="with two graphs: also evaluate the applicable closed form and compare")
    _add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("charpoly", help="exact characteristic polynomial of a graph matrix")
    p.add_argument("graph", help="edge-list file")
    _add_common(p, tol=False)
    p.set_defaults(func=cmd_charpoly)

    p = sub.add_parser("verify", help="run the randomised property suite for one identity")
    p.add_argument("--theorem", required=True, choices=list(THEOREM_LABELS))
    p.add_argument("--trials", type=_positive(int), default=100)
    p.add_argument("--seed", type=_positive(int, zero=True), default=0)
    p.add_argument("--max-n", type=_positive(int), default=5, dest="max_n",
                   help="largest order of a sampled factor (default 5); regular factors "
                   "have at least 2 vertices, and 2.4/2.5's K_{p,q} (p, q <= 2) and "
                   "5.2's fixed catalog ignore it")
    _add_common(p, kind=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("distinct", help="distinct-eigenvalue report for a graph")
    p.add_argument("graph", help="edge-list file")
    _add_common(p)
    p.set_defaults(func=cmd_distinct)

    p = sub.add_parser("cospectral-demo",
                       help="cospectral non-isomorphic coronas from a cospectral factor pair")
    p.add_argument("--pair", nargs=2, metavar=("A", "B"),
                   help="edge-list files of the cospectral factors (default: built-in pair)")
    p.add_argument("--companion", help="edge-list file of the shared second factor (default: K1)")
    p.add_argument("--cap", type=_positive(int), default=DEFAULT_ISO_CAP,
                   help="brute-force isomorphism size cap")
    _add_common(p, tol=False)
    p.set_defaults(func=cmd_cospectral)

    p = sub.add_parser("paper-example",
                       help="re-examine the published 12-vertex worked example")
    _add_common(p, kind=False)
    p.set_defaults(func=cmd_paper_example)

    return parser


def _emit(args, report) -> None:
    print(json.dumps(report.to_json(), indent=2) if args.json else report.render())


def cmd_corona(args) -> int:
    s1 = read_graph(args.first)
    s2 = read_graph(args.second)
    order = s1.n * (s2.n + 1)
    edges = s1.edge_count * (1 + 2 * s2.n) + s1.n * s2.edge_count
    if order + edges > MAX_CORONA_SIZE:
        raise GraphError(f"corona of {order} vertices and {edges} edges exceeds the "
                         f"limit of {MAX_CORONA_SIZE} vertices plus edges")
    corona = neighbourhood_corona(s1, s2)
    write_graph(corona, args.output)
    print(f"wrote {args.output}: {corona.n} vertices, {corona.edge_count} edges")
    return 0


def cmd_spectrum(args) -> int:
    if len(args.graphs) > 2:
        raise UsageError("spectrum takes one graph, or two graphs for their corona")
    if args.closed_form and len(args.graphs) != 2:
        raise UsageError("--closed-form needs the two corona factors")
    kind = MatrixKind(args.kind)
    graphs = [read_graph(path) for path in args.graphs]
    if len(graphs) == 1:
        _check_order(graphs[0].n)
        numeric, label = numeric_spectrum(graphs[0], kind, args.tol), "spectrum"
    else:
        _check_order(graphs[0].n * (graphs[1].n + 1))
        numeric, label = corona_spectrum(graphs[0], graphs[1], kind, args.tol), "corona spectrum"
    doc = {"kind": kind.value, "numeric": numeric.to_json()}
    lines = [f"{label} ({kind.value}): {numeric}"]
    agree = None
    if args.closed_form:
        try:
            form = CLOSED_FORMS[kind](graphs[0], graphs[1], args.tol)
        except ClosedFormError as exc:
            doc["closed_form_unavailable"] = str(exc)
            lines.append(f"closed form unavailable: {exc}")
        else:
            agree = spectra_equal(realize(form, args.tol), numeric, args.tol)
            doc.update(closed_form=form.to_json(), theorem=form.theorem, agrees=agree)
            lines += [form.describe(), f"closed form agrees with numeric spectrum: {'yes' if agree else 'NO'}"]
    print(json.dumps(doc, indent=2) if args.json else "\n".join(lines))
    return 1 if agree is False else 0


def cmd_charpoly(args) -> int:
    s = read_graph(args.graph)
    _check_order(s.n)
    poly = char_poly_exact(matrix_of(s, MatrixKind(args.kind)))
    if args.json:
        print(json.dumps({"kind": args.kind, "coeffs": [str(c) for c in poly.coeffs]}))
    else:
        print(poly)
    return 0


def cmd_verify(args) -> int:
    _check_order(args.max_n * (args.max_n + 1))  # the largest corona sampled, from max-n 4 up
    result = verify_theorem(
        args.theorem, trials=args.trials, seed=args.seed, max_n=args.max_n, tol=args.tol
    )
    _emit(args, result)
    return 0 if result.ok else 1


def cmd_distinct(args) -> int:
    s = read_graph(args.graph)
    _check_order(s.n)
    report = distinct_count(s, MatrixKind(args.kind), args.tol)
    _emit(args, report)
    return 0


def cmd_cospectral(args) -> int:
    if args.pair:
        s1, s2 = read_graph(args.pair[0]), read_graph(args.pair[1])
    else:
        s1, s2 = default_cospectral_pair()
    companion = read_graph(args.companion) if args.companion else edgeless(1)
    _check_order(max(s1.n, s2.n) * (companion.n + 1))
    try:
        cert = cospectral_demo(s1, s2, companion, MatrixKind(args.kind), cap=args.cap)
    except (NotCospectralError, IsomorphicInputsError) as exc:
        print(f"cospectral-demo failed: {exc}", file=sys.stderr)
        return 1
    _emit(args, cert)
    return 0 if cert.ok else 1


def cmd_paper_example(args) -> int:
    report = paper_example(args.tol)
    _emit(args, report)
    return 0 if report.ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (UsageError, GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: corona construction, spectra, exact characteristic
polynomials, randomised verification, and the bundled demonstrations."""

from __future__ import annotations

import argparse
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
    GraphError,
    SizeLimitError,
    edgeless,
    neighbourhood_corona,
    read_graph,
    write_graph,
)
from .linalg import char_poly_exact, spectra_equal
from .spectra import (
    ClosedFormError,
    MatrixKind,
    closed_form_adjacency,
    closed_form_laplacian,
    closed_form_netlaplacian,
    matrix_of,
    numeric_spectrum,
    realize,
)


class UsageError(Exception):
    pass


# Largest matrix order that spectrum, charpoly, distinct and cospectral-demo
# accept, and the largest corona order verify samples. The slowest dense
# kernel, the Berkowitz char poly (quartic in the order), takes 22 s on a
# dense signed Laplacian of this order on a 2-vCPU AMD EPYC guest under
# Python 3.11, which runs pure Python 2.5 times as fast as the benchmark's
# reference machine: about a minute there. The Householder + QL eigensolver
# (cubic) takes 0.19 s there.
MAX_DENSE_ORDER = 200


def _check_order(order: int) -> None:
    """Refuse a dense matrix of this order before it is built."""
    if order > MAX_DENSE_ORDER:
        raise SizeLimitError(f"matrix order {order} exceeds the limit of {MAX_DENSE_ORDER}")


def _positive(convert):
    """argparse type: convert(text), which must be finite and above zero."""

    def parse(text: str):
        value = convert(text)
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(
                f"expected a finite {convert.__name__} above 0, got {text!r}"
            )
        return value

    parse.__name__ = convert.__name__  # argparse reports "invalid int value: 'x'"
    return parse


def _kind(args) -> MatrixKind:
    return MatrixKind.parse(args.kind)


def _add_common(sub, kind=True, tol=True, as_json=True):
    if kind:
        sub.add_argument("--kind", choices=["adj", "lap", "netlap"], default="adj",
                         help="which matrix to use (default adj)")
    if tol:
        sub.add_argument("--tol", type=_positive(float), default=1e-6,
                         help="eigenvalue clustering/comparison tolerance (default 1e-6)")
    if as_json:
        sub.add_argument("--json", action="store_true", help="emit JSON instead of text")


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-n", type=_positive(int), default=5, dest="max_n",
                   help="largest random factor size (default 5)")
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
    p.add_argument("--cap", type=int, default=12, help="brute-force isomorphism size cap")
    _add_common(p, tol=False)
    p.set_defaults(func=cmd_cospectral)

    p = sub.add_parser("paper-example",
                       help="re-examine the published 12-vertex worked example")
    _add_common(p, kind=False)
    p.set_defaults(func=cmd_paper_example)

    return parser


def cmd_corona(args) -> int:
    s1 = read_graph(args.first)
    s2 = read_graph(args.second)
    corona = neighbourhood_corona(s1, s2)
    write_graph(corona, args.output)
    print(f"wrote {args.output}: {corona.n} vertices, {corona.edge_count} edges")
    return 0


_CLOSED_FORMS = {
    MatrixKind.ADJACENCY: closed_form_adjacency,
    MatrixKind.LAPLACIAN: closed_form_laplacian,
    MatrixKind.NET_LAPLACIAN: closed_form_netlaplacian,
}


def cmd_spectrum(args) -> int:
    if len(args.graphs) > 2:
        raise UsageError("spectrum takes one graph, or two graphs for their corona")
    if args.closed_form and len(args.graphs) != 2:
        raise UsageError("--closed-form needs the two corona factors")
    kind = _kind(args)
    graphs = [read_graph(path) for path in args.graphs]
    if len(graphs) == 1:
        _check_order(graphs[0].n)
        target = graphs[0]
        label = "spectrum"
    else:
        _check_order(graphs[0].n * (graphs[1].n + 1))
        target = neighbourhood_corona(graphs[0], graphs[1])
        label = "corona spectrum"
    numeric = numeric_spectrum(target, kind, args.tol)
    closed = None
    agree = None
    unavailable = None
    if args.closed_form:
        try:
            closed = _CLOSED_FORMS[kind](graphs[0], graphs[1], args.tol)
            agree = spectra_equal(realize(closed, args.tol), numeric, args.tol)
        except ClosedFormError as exc:
            unavailable = str(exc)
    if args.json:
        doc = {"kind": kind.value, "numeric": numeric.to_json()}
        if closed is not None:
            doc["closed_form"] = closed.to_json()
            doc["theorem"] = closed.theorem
            doc["agrees"] = agree
        if unavailable is not None:
            doc["closed_form_unavailable"] = unavailable
        print(json.dumps(doc, indent=2))
    else:
        print(f"{label} ({kind.value}): {numeric}")
        if closed is not None:
            print(closed.describe())
            print(f"closed form agrees with numeric spectrum: {'yes' if agree else 'NO'}")
        if unavailable is not None:
            print(f"closed form unavailable: {unavailable}")
    if agree is False:
        return 1
    return 0


def cmd_charpoly(args) -> int:
    s = read_graph(args.graph)
    _check_order(s.n)
    poly = char_poly_exact(matrix_of(s, _kind(args)))
    if args.json:
        print(json.dumps({"kind": args.kind, "coeffs": [str(c) for c in poly.coeffs]}))
    else:
        print(poly)
    return 0


def cmd_verify(args) -> int:
    _check_order(args.max_n * (args.max_n + 1))  # the largest corona sampled
    result = verify_theorem(
        args.theorem, trials=args.trials, seed=args.seed, max_n=args.max_n, tol=args.tol
    )
    if args.json:
        print(json.dumps(result.to_json(), indent=2))
    else:
        print(result.render())
    return 0 if result.ok else 1


def cmd_distinct(args) -> int:
    s = read_graph(args.graph)
    _check_order(s.n)
    report = distinct_count(s, _kind(args), args.tol)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render())
    return 0


def cmd_cospectral(args) -> int:
    if args.pair:
        s1, s2 = read_graph(args.pair[0]), read_graph(args.pair[1])
    else:
        s1, s2 = default_cospectral_pair()
    companion = read_graph(args.companion) if args.companion else edgeless(1)
    _check_order(max(s1.n, s2.n) * (companion.n + 1))
    try:
        cert = cospectral_demo(s1, s2, companion, _kind(args), cap=args.cap)
    except (NotCospectralError, IsomorphicInputsError) as exc:
        print(f"cospectral-demo failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(cert.to_json(), indent=2))
    else:
        print(cert.render())
    return 0 if cert.ok else 1


def cmd_paper_example(args) -> int:
    report = paper_example(args.tol)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render())
    return 0 if report.ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (0, None):
            return 0
        return 2
    try:
        return args.func(args)
    except (UsageError, GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Signed graphs: construction, degrees, balance, switching, the
neighbourhood corona product, one backtracking search for isomorphism and
switching isomorphism, and edge-list I/O."""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from ._record import Record, set_field

Edge = tuple[int, int, int]

SIGN_TOKENS = {"+": 1, "+1": 1, "-": -1, "-1": -1}

DEFAULT_ISO_CAP = 12


class GraphError(ValueError):
    """Invalid signed-graph data or operation, or an input over a size cap (the
    brute-force isomorphism search, the order of a dense matrix, or the
    vertices plus edges of a corona that `corona` would write)."""


class ParseError(GraphError):
    """Malformed edge-list text; remembers the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DegreeProfile(Record):
    """Per-vertex degree counts: total, positive, negative and net."""

    __slots__ = ("degree", "pos_degree", "neg_degree", "net_degree")


def _is_vertex(n: int, v) -> bool:
    """True when v names a vertex of an n-vertex graph: an int in 0..n-1, so
    1.0 and True are not vertices."""
    return type(v) is int and 0 <= v < n


def _check_vertex_count(n) -> None:
    """The vertex-count rule of SignedGraph, which the generators also apply
    before they compute with a size: n is a non-negative int."""
    if type(n) is not int:
        raise GraphError(f"vertex count must be an int, got {n!r}")
    if n < 0:
        raise GraphError("vertex count must be non-negative")


def _check_edge(n: int, u, v, s) -> None:
    """The checks every edge passes, from SignedGraph or the edge-list reader:
    both indices are vertices, the edge is no self-loop, and the sign is the
    int +1 or -1 (1.0, True or "+" is refused)."""
    if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n):
        raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
    if u == v:
        raise GraphError(f"self-loop at vertex {u}")
    if type(s) is not int or s not in (1, -1):
        raise GraphError(f"edge sign must be +1 or -1, got {s!r}")


class SignedGraph(Record):
    """An undirected graph whose edges carry a sign in {+1, -1}.

    Vertices are 0..n-1.  Edges are canonical triples (u, v, s) with u < v,
    kept sorted, with at most one edge per vertex pair.  Instances are
    immutable values; every operation returns a new graph.  Raw triples,
    with a pair in either order or repeated with the same sign, are read by
    :func:`parse_graph` from edge-list text.
    """

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        _check_vertex_count(n)
        edges = tuple(edges)
        seen: set[tuple[int, int]] = set()
        for u, v, s in edges:
            _check_edge(n, u, v, s)
            if u > v:
                raise GraphError(f"edge ({u}, {v}) not in canonical u < v order")
            if (u, v) in seen:
                raise GraphError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
        set_field(self, "n", n)
        set_field(self, "edges", tuple(sorted(edges)))

    @classmethod
    def _checked(cls, n: int, edges: Iterable[Edge]) -> SignedGraph:
        """The graph of canonical edges that have passed _check_edge, each
        pair once, sorted and not checked again: parse_graph's constructor,
        which has checked every edge with its line number."""
        g = object.__new__(cls)
        set_field(g, "n", n)
        set_field(g, "edges", tuple(sorted(edges)))
        return g

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def adjacency(self) -> list[dict[int, int]]:
        """Per-vertex maps from each neighbour to the sign of the edge."""
        adj: list[dict[int, int]] = [{} for _ in range(self.n)]
        for u, v, s in self.edges:
            adj[u][v] = s
            adj[v][u] = s
        return adj

    def degrees(self) -> DegreeProfile:
        pos = [0] * self.n
        neg = [0] * self.n
        for u, v, s in self.edges:
            if s > 0:
                pos[u] += 1
                pos[v] += 1
            else:
                neg[u] += 1
                neg[v] += 1
        deg = tuple(p + m for p, m in zip(pos, neg))
        net = tuple(p - m for p, m in zip(pos, neg))
        return DegreeProfile(deg, tuple(pos), tuple(neg), net)

    def regularity(self) -> int | None:
        """The common degree when every vertex has the same one, else None."""
        deg = set(self.degrees().degree)
        return deg.pop() if len(deg) == 1 else None

    def is_balanced(self) -> bool:
        """True when every cycle has positive sign product: a +-1 potential
        assigned along a spanning forest is consistent with every edge."""
        pot = [0] * self.n
        adj = self.adjacency()
        for root in range(self.n):
            if pot[root]:
                continue
            pot[root] = 1
            stack = [root]
            while stack:
                u = stack.pop()
                for v, s in adj[u].items():
                    if pot[v] == 0:
                        pot[v] = s * pot[u]
                        stack.append(v)
                    elif pot[v] != s * pot[u]:
                        return False
        return True

    def switch(self, x: Iterable[int]) -> SignedGraph:
        """Negate the sign of every edge with exactly one endpoint in x."""
        xs = set(x)
        for v in xs:
            if not _is_vertex(self.n, v):
                raise GraphError(f"switch vertex {v} out of range for n={self.n}")
        edges = tuple(
            (u, v, -s if (u in xs) != (v in xs) else s) for u, v, s in self.edges
        )
        return SignedGraph(self.n, edges)


def edgeless(n: int) -> SignedGraph:
    return SignedGraph(n)


def path_graph(n: int) -> SignedGraph:
    _check_vertex_count(n)
    return SignedGraph(n, ((i, i + 1, 1) for i in range(n - 1)))


def cycle_graph(n: int, signs: int | Sequence[int] = 1) -> SignedGraph:
    """Cycle 0-1-...-(n-1)-0; signs is one sign for all edges or a length-n
    sequence where signs[i] belongs to edge (i, i+1) and signs[n-1] to the
    closing edge (0, n-1)."""
    _check_vertex_count(n)
    if n < 3:
        raise GraphError("a cycle needs at least 3 vertices")
    if isinstance(signs, int):
        signs = [signs] * n
    if len(signs) != n:
        raise GraphError(f"need {n} signs, got {len(signs)}")
    edges = [(i, i + 1, signs[i]) for i in range(n - 1)]
    edges.append((0, n - 1, signs[n - 1]))
    return SignedGraph(n, edges)


def alternating_cycle(n: int) -> SignedGraph:
    """Even cycle with alternating edge signs; net degree 0 at every vertex."""
    _check_vertex_count(n)
    if n < 4 or n % 2:
        raise GraphError("alternating cycle needs an even length >= 4")
    return cycle_graph(n, [1 if i % 2 == 0 else -1 for i in range(n)])


def complete_graph(n: int, sign: int = 1) -> SignedGraph:
    _check_vertex_count(n)
    edges = tuple((u, v, sign) for u in range(n) for v in range(u + 1, n))
    return SignedGraph(n, edges)


def complete_bipartite(p: int, q: int, sign: int = 1) -> SignedGraph:
    """Complete bipartite graph: part {0..p-1} against {p..p+q-1}."""
    _check_vertex_count(p)
    _check_vertex_count(q)
    if p < 1 or q < 1:
        raise GraphError("both parts must be non-empty")
    edges = tuple((u, v, sign) for u in range(p) for v in range(p, p + q))
    return SignedGraph(p + q, edges)


def star_graph(leaves: int) -> SignedGraph:
    return complete_bipartite(1, leaves)


def unbalanced_c4() -> SignedGraph:
    """The 4-cycle with exactly one negative edge."""
    return cycle_graph(4, (1, 1, 1, -1))


def disjoint_union(a: SignedGraph, b: SignedGraph) -> SignedGraph:
    edges = list(a.edges) + [(u + a.n, v + a.n, s) for u, v, s in b.edges]
    return SignedGraph(a.n + b.n, edges)


def _corona_edges(s1: SignedGraph, s2: SignedGraph) -> list[Edge]:
    """The edges of the corona of s1 with s2, canonical (u < v) and each pair
    once, but not sorted: the one definition of the corona's layout, which
    neighbourhood_corona wraps and the verify rows read directly.

    Layout: vertices 0..n1-1 are s1's; copy i occupies the contiguous block
    n1 + i*n2 .. n1 + (i+1)*n2 - 1, in s2's vertex order.  There are
    |E1| + n1*|E2| + 2*n2*|E1| edges on n1*(n2+1) vertices.
    """
    if s1.n < 1:
        raise GraphError("corona needs a non-empty first factor")
    n1, n2 = s1.n, s2.n

    def cv(i: int, u: int) -> int:
        return n1 + i * n2 + u

    edges = list(s1.edges)
    for i in range(n1):
        edges.extend((cv(i, u), cv(i, v), s) for u, v, s in s2.edges)
    for u, v, s in s1.edges:
        for w in range(n2):
            edges.append((v, cv(u, w), s))
            edges.append((u, cv(v, w), s))
    return edges


def neighbourhood_corona(s1: SignedGraph, s2: SignedGraph) -> SignedGraph:
    """Corona of s1 with s2: one copy of s1 and one copy of s2 per s1-vertex,
    where every neighbour w of vertex i is joined to the whole of copy i with
    the sign of the edge (w, i).  The checked SignedGraph of _corona_edges,
    on n1*(n2+1) vertices.
    """
    return SignedGraph(s1.n * (s2.n + 1), _corona_edges(s1, s2))


def _check_cap(n: int, cap: int) -> None:
    """The isomorphism search's size rule, which cospectral_demo applies to
    its coronas before any char poly: GraphError unless cap is a positive
    int and n vertices are within it."""
    if type(cap) is not int or cap < 1:
        raise GraphError(f"isomorphism cap must be a positive int, got {cap!r}")
    if n > cap:
        raise GraphError(f"brute-force isomorphism capped at {cap} vertices, got {n}")


def _find_map(s1: SignedGraph, s2: SignedGraph, switching: bool, cap: int) -> bool:
    """True when some vertex bijection f and signs x_v (all +1 unless
    switching) give s2(f u, f v) = x_u * s1(u, v) * x_v on every vertex pair,
    a non-edge counting as sign 0.  That is an isomorphism of s1, switched by
    x, onto s2.

    Vertices are placed by backtracking, fewest candidates (same degree, and
    same positive degree unless switching) first.  Each component starts with
    one vertex of sign +1, since switching a whole component changes no sign.
    Every later vertex v is placed next to an already placed a, and the edge
    (v, a) with its image forces x_v; the other placed vertices check it.
    Graphs of one order n past the cap raise GraphError (_check_cap)."""
    n = s1.n
    _check_cap(n if n == s2.n else 0, cap)  # graphs of two orders need no search
    if n != s2.n:
        return False
    p1, p2 = s1.degrees(), s2.degrees()
    if switching:
        inv1, inv2 = p1.degree, p2.degree
    else:
        inv1 = list(zip(p1.degree, p1.pos_degree))
        inv2 = list(zip(p2.degree, p2.pos_degree))
    if sorted(inv1) != sorted(inv2):
        return False
    adj1, adj2 = s1.adjacency(), s2.adjacency()
    cand = [[w for w in range(n) if inv2[w] == inv1[v]] for v in range(n)]
    rank = sorted(range(n), key=lambda v: (len(cand[v]), -p1.degree[v]))
    reached = [-1] * n  # the first placed neighbour of each vertex
    order: list[tuple[int, int]] = []  # (vertex, its first placed neighbour or -1)
    while rank:
        v = next((v for v in rank if reached[v] >= 0), rank[0])
        rank.remove(v)
        order.append((v, reached[v]))
        for u in adj1[v]:
            if reached[u] < 0:
                reached[u] = v
    f = [-1] * n
    x = [1] * n
    used = [False] * n
    # stack[i] holds the untried candidates of order[i]; order[:i] is placed.
    # A loop, not recursion, so the depth is not bounded by Python's stack.
    stack = [iter(cand[v]) for v, _ in order[:1]]
    while stack:
        idx = len(stack) - 1
        v, a = order[idx]
        row1 = adj1[v]
        for w in stack[idx]:
            if used[w]:
                continue
            row2 = adj2[w]
            xv = row1[a] * x[a] * row2.get(f[a], 0) if a >= 0 else 1
            if xv != 1 and not (switching and xv):
                continue  # w is not next to f(a), or the edge's sign is wrong unswitched
            if all(x[u] * row1.get(u, 0) * xv == row2.get(f[u], 0) for u, _ in order[:idx]):
                f[v], x[v], used[w] = w, xv, True
                if idx + 1 == n:
                    return True
                stack.append(iter(cand[order[idx + 1][0]]))
                break
        else:
            stack.pop()
            if stack:
                used[f[order[idx - 1][0]]] = False
    return n == 0  # only the empty graph has no vertex to place


def is_isomorphic(s1: SignedGraph, s2: SignedGraph, *, cap: int = DEFAULT_ISO_CAP) -> bool:
    """Exact sign-preserving isomorphism test by backtracking search."""
    return _find_map(s1, s2, False, cap)


def is_switching_isomorphic(s1: SignedGraph, s2: SignedGraph, *, cap: int = DEFAULT_ISO_CAP) -> bool:
    """True when some vertex bijection maps the underlying graphs onto each
    other with every cycle keeping its sign, i.e. the graphs agree up to
    switching."""
    return _find_map(s1, s2, True, cap)


def _decimal(token: str) -> int:
    """ASCII decimal digits with an optional leading '-', as an int; int()
    alone would also take '+0', '1_0' and non-ASCII digits."""
    digits = token[1:] if token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {token!r}")
    return int(token)


def parse_graph(text: str) -> SignedGraph:
    """Parse the signed edge-list format.

    First non-comment line is the vertex count; each following line is
    "u v s" with 0-based indices and s in {+, -, +1, -1}.  Numbers are ASCII
    decimal digits.  Lines starting with '#' are comments; blank lines are
    ignored.

    In an ASCII text an edge line of two digit-only indices and a sign
    token is read straight into ints; every other line takes the checks
    below in order, so the first bad line raises.  Each edge passes
    _check_edge once, here, and SignedGraph._checked builds the graph.
    """
    n: int | None = None
    sign: dict[tuple[int, int], int] = {}
    ascii_text = text.isascii()  # then isdigit() means ASCII decimal digits
    for ln, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if (
            ascii_text
            and n is not None
            and len(parts) == 3
            and (s := SIGN_TOKENS.get(parts[2]))
            and parts[0].isdigit()
            and parts[1].isdigit()
        ):
            u, v = int(parts[0]), int(parts[1])
        else:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if n is None:
                try:
                    n = _decimal(line)
                except ValueError:
                    raise ParseError(f"expected vertex count, got {line!r}", ln) from None
                if n < 0:
                    raise ParseError("vertex count must be non-negative", ln)
                continue
            if len(parts) != 3:
                raise ParseError(f"expected 'u v s', got {line!r}", ln)
            try:
                u, v = _decimal(parts[0]), _decimal(parts[1])
            except ValueError:
                raise ParseError(f"bad vertex index in {line!r}", ln) from None
            s = SIGN_TOKENS.get(parts[2])
            if s is None:
                raise ParseError(f"bad sign token {parts[2]!r}", ln)
        try:
            _check_edge(n, u, v, s)
        except GraphError as exc:
            raise ParseError(str(exc), ln) from None
        key = (u, v) if u < v else (v, u)
        if sign.setdefault(key, s) != s:
            raise ParseError(f"conflicting signs for edge {key}", ln)
    if n is None:
        raise ParseError("missing vertex count line")
    return SignedGraph._checked(n, ((u, v, s) for (u, v), s in sign.items()))


def format_graph(s: SignedGraph) -> str:
    lines = [str(s.n)]
    lines.extend(f"{u} {v} {'+' if sg > 0 else '-'}" for u, v, sg in s.edges)
    return "\n".join(lines) + "\n"


def read_graph(path) -> SignedGraph:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"non-ASCII byte {data[exc.start]:#04x}", line) from None
    return parse_graph(text)


def write_graph(s: SignedGraph, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_graph(s))

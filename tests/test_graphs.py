import itertools
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import is_connected, parse_graph_reference, random_signed_graph_with_density
from sgcorona import (
    GraphError,
    alternating_cycle,
    ParseError,
    SignedGraph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    edgeless,
    format_graph,
    is_isomorphic,
    is_switching_isomorphic,
    neighbourhood_corona,
    parse_graph,
    path_graph,
    read_graph,
    star_graph,
    unbalanced_c4,
    write_graph,
)
from sgcorona.experiments import random_signed_graph
from sgcorona.graphs import _corona_edges


@st.composite
def signed_graphs(draw, min_n=0, max_n=6):
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.integers(0, 2 ** len(pairs) - 1)) if pairs else 0
    smask = draw(st.integers(0, 2 ** len(pairs) - 1)) if pairs else 0
    edges = tuple(
        (u, v, -1 if (smask >> i) & 1 else 1)
        for i, (u, v) in enumerate(pairs)
        if (mask >> i) & 1
    )
    return SignedGraph(n, edges)


class TestConstruction:
    def test_single_positive_edge(self):
        g = SignedGraph(2, [(0, 1, 1)])
        assert g.n == 2
        assert g.edges == ((0, 1, 1),)

    def test_c4_minus(self):
        g = SignedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, -1)])
        assert g == unbalanced_c4()
        assert [s for _, _, s in g.edges].count(-1) == 1

    def test_normalizes_order_and_collapses_repeats(self):
        """Edge-list text may give a pair in either order, and repeat it with
        the same sign; SignedGraph takes canonical pairs only."""
        g = parse_graph("3\n2 0 -\n0 2 -\n")
        assert g.edges == ((0, 2, -1),)
        with pytest.raises(GraphError, match=re.escape("edge (2, 0) not in canonical u < v order")):
            SignedGraph(3, [(2, 0, -1)])
        with pytest.raises(GraphError, match=re.escape("duplicate edge (0, 2)")):
            SignedGraph(3, [(0, 2, -1), (0, 2, -1)])

    def test_conflicting_duplicate_is_an_error(self):
        with pytest.raises(ParseError, match=re.escape("line 3: conflicting signs for edge (0, 1)")):
            parse_graph("3\n0 1 +\n1 0 -\n")

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop at vertex 0"):
            SignedGraph(3, [(0, 0, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError, match="out of range for n=2"):
            SignedGraph(2, [(0, 5, 1)])

    def test_bad_sign_rejected(self):
        with pytest.raises(GraphError, match="edge sign must be"):
            SignedGraph(2, [(0, 1, 2)])

    @pytest.mark.parametrize(
        "edges",
        [
            lambda: [(0, 1, 1), (1, 2, -1)],
            lambda: ((u, u + 1, 1 if u == 0 else -1) for u in range(2)),
        ],
        ids=["list", "generator"],
    )
    def test_edges_stored_as_sorted_tuple(self, edges):
        """Any iterable of canonical edges is read once and kept as a sorted
        tuple, so the graph is hashable and equal to the tuple-built one."""
        g = SignedGraph(3, edges())
        h = SignedGraph(3, ((0, 1, 1), (1, 2, -1)))
        assert g.edges == h.edges
        assert g == h and hash(g) == hash(h)
        assert g.edge_count == 2
        assert format_graph(g) == "3\n0 1 +\n1 2 -\n"
        assert parse_graph(format_graph(g)) == g

    @pytest.mark.parametrize(
        "build",
        [lambda u, s: SignedGraph(2, ((u, 1, s),))],
        ids=["SignedGraph"],
    )
    @pytest.mark.parametrize(
        "u, s, match",
        [(0, s, re.escape(f"edge sign must be +1 or -1, got {s!r}")) for s in (1.5, -0.5, 1.0, True, "+")]
        + [(0.5, 1, re.escape("edge (0.5, 1) out of range for n=2"))],
        ids=["sign-1.5", "sign--0.5", "sign-1.0", "sign-True", "sign-plus", "index-0.5"],
    )
    def test_non_integer_index_or_sign_rejected(self, build, u, s, match):
        with pytest.raises(GraphError, match=match):
            build(u, s)

    @pytest.mark.parametrize(
        "build",
        [
            lambda n: SignedGraph(n),
            edgeless,
            path_graph,
            cycle_graph,
            alternating_cycle,
            complete_graph,
            lambda n: complete_bipartite(n, 2),
            lambda n: complete_bipartite(2, n),
            star_graph,
        ],
        ids=[
            "SignedGraph",
            "edgeless",
            "path_graph",
            "cycle_graph",
            "alternating_cycle",
            "complete_graph",
            "complete_bipartite-p",
            "complete_bipartite-q",
            "star_graph",
        ],
    )
    @pytest.mark.parametrize(
        "n", [2.5, True, "3", None, 2.0, 4.0], ids=["float", "bool", "str", "None", "float-2.0", "float-4.0"]
    )
    def test_non_integer_vertex_count_rejected(self, build, n):
        """SignedGraph and every generator apply one vertex-count rule before
        computing with a size, so none of them raises TypeError."""
        with pytest.raises(GraphError, match=re.escape(f"vertex count must be an int, got {n!r}")):
            build(n)


class TestDegrees:
    def test_k2(self):
        prof = complete_graph(2).degrees()
        assert prof.degree == (1, 1)
        assert prof.pos_degree == (1, 1)
        assert prof.neg_degree == (0, 0)
        assert prof.net_degree == (1, 1)

    def test_c4_minus(self):
        prof = unbalanced_c4().degrees()
        assert prof.degree == (2, 2, 2, 2)
        assert prof.net_degree == (0, 2, 2, 0)

    def test_edgeless(self):
        prof = edgeless(3).degrees()
        assert prof.degree == (0, 0, 0)
        assert prof.net_degree == (0, 0, 0)
        assert edgeless(0).regularity() is None

    @settings(max_examples=60, deadline=None)
    @given(signed_graphs())
    def test_degree_sums(self, g):
        prof = g.degrees()
        assert sum(prof.degree) == 2 * g.edge_count
        assert sum(prof.net_degree) == 2 * sum(s for _, _, s in g.edges)  # d+ - d- summed
        for d, p, m, net in zip(prof.degree, prof.pos_degree, prof.neg_degree, prof.net_degree):
            assert d == p + m
            assert net == p - m


class TestRegularity:
    def test_positive_c4(self):
        g = cycle_graph(4)
        assert g.regularity() == 2

    def test_c4_minus_not_net_regular(self):
        g = unbalanced_c4()
        assert g.regularity() == 2

    def test_all_negative_k22(self):
        g = complete_bipartite(2, 2, -1)
        assert g.regularity() == 2

    def test_star_not_regular(self):
        assert star_graph(3).regularity() is None


class TestBalance:
    def test_triangle_one_negative(self):
        g = SignedGraph(3, [(0, 1, 1), (1, 2, 1), (0, 2, -1)])
        assert not g.is_balanced()

    def test_c4_minus_unbalanced(self):
        assert not unbalanced_c4().is_balanced()

    def test_all_positive_balanced(self):
        assert complete_graph(5).is_balanced()
        assert cycle_graph(7).is_balanced()

    def test_all_negative_even_cycle_balanced(self):
        assert cycle_graph(4, -1).is_balanced()
        assert not cycle_graph(5, -1).is_balanced()

    def test_walk_agrees_with_oracles(self):
        """is_balanced against "some switching makes every edge positive", on
        random graphs with n <= 8, among them n = 0 and 1 and unions of
        several components (told apart by a breadth-first search)."""
        rng = random.Random(7)
        seen = set()
        for _ in range(300):
            g = random_signed_graph_with_density(rng, rng.randint(0, 8), rng.choice((0.15, 0.4, 0.8)))
            if rng.random() < 0.3:
                g = disjoint_union(g, random_signed_graph(rng, rng.randint(0, 4)))
            switchable = any(
                all(s > 0 for _, _, s in g.switch(v for v in range(g.n) if mask >> v & 1).edges)
                for mask in range(2**g.n)
            )
            assert g.is_balanced() == switchable, g
            seen.add((g.n <= 1, is_connected(g), g.is_balanced()))
        assert {(True, True, True), (False, False, False), (False, True, False)} <= seen


class TestSwitching:
    def test_empty_switch_is_identity(self):
        g = unbalanced_c4()
        assert g.switch(set()) == g

    def test_full_switch_is_identity(self):
        g = unbalanced_c4()
        assert g.switch(range(4)) == g

    def test_c4_minus_switch_moves_negative_edge(self):
        g = unbalanced_c4().switch({0})
        assert g.edges == ((0, 1, -1), (0, 3, 1), (1, 2, 1), (2, 3, 1))
        assert not g.is_balanced()

    def test_invalid_vertex(self):
        """A vertex to switch is an int in range, as an edge index is: True
        and 1.0 are not vertex 1."""
        for v in (5, -1, True, 1.0, "a"):
            with pytest.raises(GraphError, match=re.escape(f"switch vertex {v} out of range for n=2")):
                complete_graph(2).switch([v])

    @settings(max_examples=60, deadline=None)
    @given(signed_graphs(), st.integers(0, 2**6 - 1))
    def test_switch_involution_and_balance_invariance(self, g, xmask):
        x = {v for v in range(g.n) if (xmask >> v) & 1}
        assert g.switch(x).switch(x) == g
        assert g.switch(x).is_balanced() == g.is_balanced()


class TestCorona:
    def test_k2_with_k1(self):
        corona = neighbourhood_corona(complete_graph(2), edgeless(1))
        assert corona.n == 4
        assert corona.edges == ((0, 1, 1), (0, 3, 1), (1, 2, 1))

    def test_figure_example_counts(self):
        corona = neighbourhood_corona(unbalanced_c4(), complete_graph(2))
        assert corona.n == 12
        assert corona.edge_count == 4 + 4 * 1 + 2 * 2 * 4

    def test_signs_follow_first_factor(self):
        corona = neighbourhood_corona(complete_graph(2, -1), edgeless(1))
        assert corona.edges == ((0, 1, -1), (0, 3, -1), (1, 2, -1))

    def test_empty_first_factor_rejected(self):
        with pytest.raises(GraphError):
            neighbourhood_corona(edgeless(0), complete_graph(2))

    @settings(max_examples=40, deadline=None)
    @given(signed_graphs(min_n=1, max_n=6), signed_graphs(max_n=6))
    def test_size_and_edge_count_laws(self, s1, s2):
        corona = neighbourhood_corona(s1, s2)
        assert corona.n == s1.n * (s2.n + 1)
        assert corona.edge_count == s1.edge_count + s1.n * s2.edge_count + 2 * s2.n * s1.edge_count

    def test_one_corona_definition(self):
        # neighbourhood_corona is the checked, sorted graph of _corona_edges,
        # the edge list the verify rows read, which names each pair once
        rng = random.Random(43)
        for n1 in range(1, 14):
            for n2 in range(14):
                s1, s2 = random_signed_graph(rng, n1), random_signed_graph(rng, n2)
                edges = _corona_edges(s1, s2)
                assert neighbourhood_corona(s1, s2).edges == tuple(sorted(edges)), (s1, s2)
                assert len({(u, v) for u, v, _ in edges}) == len(edges), (s1, s2)


def relabelled(g, perm):
    """g with each vertex v renamed perm[v]."""
    return SignedGraph(g.n, [(*sorted((perm[u], perm[v])), s) for u, v, s in g.edges])


def random_pair(rng, max_n):
    """A random graph and either an independent one (of the same or another
    order) or a relabelled, switched or re-signed copy of it."""
    a = random_signed_graph(rng, rng.randint(0, max_n))
    perm = rng.sample(range(a.n), a.n)
    switched = a.switch(v for v in range(a.n) if rng.random() < 0.5)
    how = rng.randrange(6)
    if how == 0:
        return a, random_signed_graph(rng, a.n)
    if how == 1:
        return a, random_signed_graph(rng, rng.randint(0, max_n))
    if how == 2:
        return a, relabelled(a, perm)
    if how == 3:
        return a, relabelled(switched, perm)
    if how == 4 and a.edges:
        i = rng.randrange(a.edge_count)
        flipped = tuple((u, v, -s if j == i else s) for j, (u, v, s) in enumerate(a.edges))
        return a, relabelled(SignedGraph(a.n, flipped), perm)
    return a, switched


def brute_isomorphic(a, b):
    """Some vertex permutation carries a's signed edges onto b's."""
    target = set(b.edges)
    return a.n == b.n and any(
        set(relabelled(a, perm).edges) == target for perm in itertools.permutations(range(a.n))
    )


def brute_switching_isomorphic(a, b):
    """Some vertex permutation and switching carry a's signed edges onto b's."""
    if a.n != b.n:
        return False
    switchings = [
        a.switch(v for v in range(a.n) if (mask >> v) & 1) for mask in range(2**a.n)
    ]
    return any(brute_isomorphic(g, b) for g in switchings)


class TestIsomorphism:
    def test_self(self):
        g = unbalanced_c4()
        assert is_isomorphic(g, g)
        assert is_switching_isomorphic(g, g)

    def test_c4_minus_vs_positive_c4(self):
        a, b = unbalanced_c4(), cycle_graph(4)
        assert not is_isomorphic(a, b)
        assert not is_switching_isomorphic(a, b)

    def test_switching_equivalent_graphs(self):
        g = unbalanced_c4()
        h = g.switch({0, 2})
        assert is_switching_isomorphic(g, h)
        assert not is_isomorphic(g, h)

    def test_relabelled_graph_is_isomorphic(self):
        g = SignedGraph(4, [(0, 1, 1), (1, 2, -1), (2, 3, 1)])
        perm = [3, 1, 0, 2]
        assert is_isomorphic(g, relabelled(g, perm))

    def test_star_vs_cycle_plus_isolated(self):
        a = star_graph(4)
        b = disjoint_union(cycle_graph(4), edgeless(1))
        assert not is_isomorphic(a, b)
        assert not is_switching_isomorphic(a, b)

    def test_size_cap(self):
        with pytest.raises(GraphError, match="isomorphism capped at 12 vertices"):
            is_isomorphic(edgeless(13), edgeless(13))
        assert is_isomorphic(edgeless(13), edgeless(13), cap=13)

    def test_deep_search_within_cap(self):
        # one search level per vertex, far past Python's recursion limit
        assert is_isomorphic(edgeless(1200), edgeless(1200), cap=1200)
        assert is_switching_isomorphic(path_graph(1100), path_graph(1100), cap=1100)

    def test_different_sizes_short_circuit(self):
        assert not is_isomorphic(edgeless(20), edgeless(21), cap=12)

    @pytest.mark.parametrize(
        "a, b, iso, switching_iso",
        [
            (complete_graph(3), SignedGraph(3, [(0, 1, 1), (1, 2, 1), (0, 2, -1)]), False, False),
            (edgeless(4), edgeless(4), True, True),
            (edgeless(3), SignedGraph(3, [(0, 2, -1)]), False, False),
        ],
        ids=["k3-vs-one-negative-edge", "both-edgeless", "edgeless-vs-one-edge"],
    )
    def test_degree_multisets_decide(self, a, b, iso, switching_iso):
        assert is_isomorphic(a, b) is iso and is_isomorphic(b, a) is iso
        assert is_switching_isomorphic(a, b) is switching_iso
        assert is_switching_isomorphic(b, a) is switching_iso

    @pytest.mark.parametrize("n", [6, 7, 8, 9])
    def test_complete_graph_signings(self, n):
        def signed_kn(negative):
            return SignedGraph(n, tuple(
                (u, v, -1 if (u, v) in negative else 1) for u, v in itertools.combinations(range(n), 2)
            ))

        # n - 2 against 2(n - 2) unbalanced triangles, with equal degrees
        assert not is_switching_isomorphic(signed_kn({(0, 1)}), signed_kn({(0, 1), (2, 3)}))
        rng = random.Random(n)
        g = random_signed_graph_with_density(rng, n, 1.0)
        perm = rng.sample(range(n), n)
        h = relabelled(g.switch(v for v in range(n) if rng.random() < 0.5), perm)
        assert is_switching_isomorphic(g, h) and is_switching_isomorphic(h, g)

    @pytest.mark.parametrize(
        "test, oracle, max_n",
        [(is_isomorphic, brute_isomorphic, 6), (is_switching_isomorphic, brute_switching_isomorphic, 5)],
        ids=["isomorphic", "switching-isomorphic"],
    )
    def test_agrees_with_brute_force(self, test, oracle, max_n):
        rng = random.Random(2024)
        for _ in range(300):
            a, b = random_pair(rng, max_n)
            assert test(a, b) == oracle(a, b), (a, b)


# Tokens for edge-list texts: the four sign tokens, and any index or sign,
# among them out-of-range and negative indices, what int() takes but the
# format refuses ('+0', '1_0', other scripts' digits, a superscript), and
# near-miss signs.
_ANY_INDEX = st.one_of(
    st.integers(0, 3).map(str),
    st.sampled_from(["4", "5", "6", "7", "+0", "+1", "1_0", "-1", "-0", "-", "\u0663", "\uff12", "\u00b2", "x"]),
)
_GOOD_SIGN = st.sampled_from(["+", "-", "+1", "-1"])
_ANY_SIGN = st.one_of(_GOOD_SIGN, st.sampled_from(["1", "+0", "x", "\u2212", "++"]))
_SPACE = st.sampled_from([" ", "\t", "  ", " \t "])
_PAD = st.sampled_from(["", "", " ", "\t"])
_OTHER_LINES = st.sampled_from(["", "  ", "\t", "# comment", "  # indented", "#0 1 +"])


@st.composite
def _edge_line(draw):
    """Mostly 'u v s' of good tokens; now and then any tokens, two or four."""
    if draw(st.sampled_from([True] * 7 + [False])):
        u = draw(st.integers(0, 3))
        v = (u + draw(st.integers(1, 3))) % 4
        tokens = [draw(st.sampled_from(["", "", "0", "00"])) + str(w) for w in (u, v)] + [draw(_GOOD_SIGN)]
    else:
        tokens = [draw(_ANY_INDEX), draw(_ANY_INDEX), draw(_ANY_SIGN), draw(_ANY_INDEX)]
        tokens = tokens[: draw(st.sampled_from([2, 3, 3, 4]))]
    return draw(_PAD) + draw(_SPACE).join(tokens) + draw(_PAD)


@st.composite
def edge_list_texts(draw):
    """Edge-list texts that are mostly well formed: comments and blank lines
    anywhere, a header (now and then missing, too small or bad), then mostly
    edge lines, with LF, CRLF or CR line ends and an optional final newline.
    Duplicate pairs, reversed pairs, conflicting signs and several bad lines
    in one text come from the small index range."""
    lines = draw(st.lists(_OTHER_LINES, max_size=2))
    header = draw(st.sampled_from(["good"] * 16 + ["bad"] * 3 + ["none"]))
    if header == "good":
        lines.append(str(draw(st.integers(4, 6))))
    elif header == "bad":
        lines.append(draw(st.sampled_from(["0", "3", "03", "-2", "-0", "+3", "1_0", "\u0663", "3 4", "x", "#5"])))
    lines += draw(st.lists(st.one_of(*[_edge_line()] * 5, _OTHER_LINES), max_size=12))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


class TestIO:
    def test_parse_example(self):
        text = "4\n0 1 +\n1 2 +\n2 3 +\n0 3 -\n"
        assert parse_graph(text) == unbalanced_c4()

    def test_comments_blanks_and_long_signs(self):
        text = "# header\n\n3\n0 1 +1\n# middle\n1 2 -1\n"
        g = parse_graph(text)
        assert g.edges == ((0, 1, 1), (1, 2, -1))

    def test_self_loop_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_graph("3\n0 0 +\n")

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 0, 1)], "self-loop at vertex 0"),
            ([(0, 5, 1)], "edge (0, 5) out of range for n=3"),
            ([(5, 5, 1)], "edge (5, 5) out of range for n=3"),
            ([(0, 1, 1), (1, 0, -1)], "conflicting signs for edge (0, 1)"),
        ],
        ids=["self-loop", "out-of-range", "both-out-of-range", "conflicting-signs"],
    )
    def test_bad_edge_rejected_alike_by_both_readers(self, edges, message):
        """parse_graph refuses a bad edge with SignedGraph's message plus its
        line.  A pair repeated with the other sign is the reader's own check,
        since SignedGraph takes each pair once, in u < v order."""
        text = "3\n" + "".join(f"{u} {v} {'+' if s > 0 else '-'}\n" for u, v, s in edges)
        with pytest.raises(ParseError) as parsed:
            parse_graph(text)
        assert str(parsed.value) == f"line {len(edges) + 1}: {message}"
        if not message.startswith("conflicting"):
            with pytest.raises(GraphError) as direct:
                SignedGraph(3, edges)
            assert str(direct.value) == message

    def test_bad_token(self):
        """A bad sign, and numbers that are not ASCII decimal digits with an
        optional '-' (int() would take '+0', '1_0' and other scripts'
        digits); negative numbers keep their range messages."""
        cases = [
            ("2\n0 1 x\n", "line 2: bad sign token 'x'"),
            ("1_0\n", "line 1: expected vertex count, got '1_0'"),
            ("+3\n", "line 1: expected vertex count, got '+3'"),
            ("\u0663\n0 1 +\n", "line 1: expected vertex count, got '\u0663'"),
            ("3\n+0 1 +\n", "line 2: bad vertex index in '+0 1 +'"),
            ("3\n0_1 2 +\n", "line 2: bad vertex index in '0_1 2 +'"),
            ("3\n0 \u0661 +\n", "line 2: bad vertex index in '0 \u0661 +'"),
            ("3\n- 1 +\n", "line 2: bad vertex index in '- 1 +'"),
            ("-3\n", "line 1: vertex count must be non-negative"),
            ("3\n-1 1 +\n", "line 2: edge (-1, 1) out of range for n=3"),
        ]
        for text, message in cases:
            with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
                parse_graph(text)

    @settings(max_examples=400, deadline=None)
    @given(edge_list_texts())
    @example("3\n0 1 +\n1 0 -1\n0 0 +\n")  # conflicting signs first
    @example("3\r\n0\t2 +1\r\n2 0 +\r\n1 3 -\r\n1 1 x\r\n")  # out of range before a bad sign
    @example("3\n+0 1 +\n0 1 x\n")  # a bad index before a bad sign
    @example("4\n0 1 +\n0 1 +\n1 \u0661 +\n")  # a same-sign duplicate, then other digits
    @example("4\n\uff12 1 +\n")  # a fullwidth digit, which int() takes
    @example("4\n1 \u00b2 +\n")  # a superscript, which isdigit() takes and int() does not
    @example("# no header\n\n")
    def test_parser_matches_the_reference(self, text):
        """parse_graph's fast path for well-formed edge lines and its single
        edge check change nothing: the same graph as the reference reader, or
        the same ParseError (message and line) from the first bad line."""
        try:
            expected = parse_graph_reference(text)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                parse_graph(text)
            assert (str(got.value), got.value.line) == (str(exc), exc.line)
        else:
            g = parse_graph(text)
            assert g == expected and type(g.edges) is tuple

    def test_missing_count(self):
        with pytest.raises(ParseError):
            parse_graph("# nothing here\n")

    @settings(max_examples=40, deadline=None)
    @given(signed_graphs())
    def test_round_trip(self, g):
        assert parse_graph(format_graph(g)) == g

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "g.sg"
        g = unbalanced_c4()
        write_graph(g, path)
        assert read_graph(path) == g

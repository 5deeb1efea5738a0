import itertools
import random
import re
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from sgcorona import (
    GraphError,
    ParseError,
    SignedGraph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    edgeless,
    format_graph,
    from_edge_list,
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
        g = from_edge_list(2, [(0, 1, 1)])
        assert g.n == 2
        assert g.edges == ((0, 1, 1),)

    def test_c4_minus(self):
        g = from_edge_list(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, -1)])
        assert g == unbalanced_c4()
        assert [s for _, _, s in g.edges].count(-1) == 1

    def test_normalizes_order_and_collapses_repeats(self):
        g = from_edge_list(3, [(2, 0, -1), (0, 2, -1)])
        assert g.edges == ((0, 2, -1),)

    def test_conflicting_duplicate_is_an_error(self):
        with pytest.raises(GraphError, match="conflicting signs for edge"):
            from_edge_list(3, [(0, 1, 1), (0, 1, -1)])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop at vertex 0"):
            from_edge_list(3, [(0, 0, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError, match="out of range for n=2"):
            from_edge_list(2, [(0, 5, 1)])

    def test_bad_sign_rejected(self):
        with pytest.raises(GraphError):
            from_edge_list(2, [(0, 1, 2)])

    @pytest.mark.parametrize(
        "build",
        [lambda u, s: SignedGraph(2, ((u, 1, s),)), lambda u, s: from_edge_list(2, [(u, 1, s)])],
        ids=["SignedGraph", "from_edge_list"],
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
        assert edgeless(0).net_regularity() is None

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
        assert g.net_regularity() == 2

    def test_c4_minus_not_net_regular(self):
        g = unbalanced_c4()
        assert g.regularity() == 2
        assert g.net_regularity() is None

    def test_all_negative_k22(self):
        g = complete_bipartite(2, 2, -1)
        assert g.regularity() == 2
        assert g.net_regularity() == -2

    def test_star_not_regular(self):
        assert star_graph(3).regularity() is None


class TestBalance:
    def test_triangle_one_negative(self):
        g = from_edge_list(3, [(0, 1, 1), (1, 2, 1), (0, 2, -1)])
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
        """is_connected against a breadth-first search, is_balanced against
        "some switching makes every edge positive", on random graphs with
        n <= 8, among them n = 0 and 1 and unions of several components."""
        rng = random.Random(7)
        seen = set()
        for _ in range(300):
            g = random_signed_graph(rng, rng.randint(0, 8), rng.choice((0.15, 0.4, 0.8)))
            if rng.random() < 0.3:
                g = disjoint_union(g, random_signed_graph(rng, rng.randint(0, 4)))
            nbrs = {v: set() for v in range(g.n)}
            for a, b, _ in g.edges:
                nbrs[a].add(b)
                nbrs[b].add(a)
            reached = {0} if g.n else set()
            queue = deque(reached)
            while queue:
                for w in nbrs[queue.popleft()] - reached:
                    reached.add(w)
                    queue.append(w)
            switchable = any(
                all(s > 0 for _, _, s in g.switch(v for v in range(g.n) if mask >> v & 1).edges)
                for mask in range(2**g.n)
            )
            assert g.is_connected() == (len(reached) == g.n), g
            assert g.is_balanced() == switchable, g
            seen.add((g.n <= 1, g.is_connected(), g.is_balanced()))
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
        with pytest.raises(GraphError, match="switch vertex 5 out of range"):
            complete_graph(2).switch({5})

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


def relabelled(g, perm):
    return from_edge_list(g.n, [(perm[u], perm[v], s) for u, v, s in g.edges])


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
        g = from_edge_list(4, [(0, 1, 1), (1, 2, -1), (2, 3, 1)])
        perm = [3, 1, 0, 2]
        assert is_isomorphic(g, from_edge_list(4, [(perm[u], perm[v], s) for u, v, s in g.edges]))

    def test_star_vs_cycle_plus_isolated(self):
        a = star_graph(4)
        b = disjoint_union(cycle_graph(4), edgeless(1))
        assert not is_isomorphic(a, b)
        assert not is_switching_isomorphic(a, b)

    def test_size_cap(self):
        with pytest.raises(GraphError, match="isomorphism capped at 12 vertices"):
            is_isomorphic(edgeless(13), edgeless(13))
        assert is_isomorphic(edgeless(13), edgeless(13), cap=13)

    def test_different_sizes_short_circuit(self):
        assert not is_isomorphic(edgeless(20), edgeless(21), cap=12)

    @pytest.mark.parametrize(
        "a, b, iso, switching_iso",
        [
            (complete_graph(3), from_edge_list(3, [(0, 1, 1), (1, 2, 1), (0, 2, -1)]), False, False),
            (edgeless(4), edgeless(4), True, True),
            (edgeless(3), from_edge_list(3, [(0, 2, -1)]), False, False),
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
        g = random_signed_graph(rng, n, 1.0)
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
        "edges, match",
        [
            ([(0, 0, 1)], "self-loop"),
            ([(0, 5, 1)], "out of range"),
            ([(5, 5, 1)], "out of range"),
            ([(0, 1, 1), (1, 0, -1)], "conflicting signs"),
        ],
        ids=["self-loop", "out-of-range", "both-out-of-range", "conflicting-signs"],
    )
    def test_bad_edge_rejected_alike_by_both_readers(self, edges, match):
        with pytest.raises(GraphError, match=match) as direct:
            from_edge_list(3, edges)
        text = "3\n" + "".join(f"{u} {v} {'+' if s > 0 else '-'}\n" for u, v, s in edges)
        with pytest.raises(ParseError) as parsed:
            parse_graph(text)
        assert str(parsed.value) == f"line {len(edges) + 1}: {direct.value}"

    def test_bad_token(self):
        with pytest.raises(ParseError, match="sign"):
            parse_graph("2\n0 1 x\n")

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

"""Graph-side tests: heights, neighborhood ideals, TD-sets, stable
complexes, tree surgery, decompositions, chordality, and realization."""

import random

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oni_kit import (
    VOID,
    Graph,
    InputError,
    TreeDecomposition,
    Universe,
    edge_join,
    even_stable_complex,
    find_split_vertex,
    heights,
    induced_odd_oni,
    is_chordal,
    is_structurally_td_unmixed,
    is_td_unmixed,
    minimal_odd_td_sets,
    minimal_td_sets,
    o_extend,
    o_sequence,
    odd_oni,
    oni,
    path_graph,
    realize_as_oni,
    search_decomposition,
    stable_complex,
    stanley_reisner_ideal,
    verify_decomposition,
)
from oni_kit.fixtures import beg_a, p6, t_a, twin_broom
from oni_kit.graphs import _heights_of_adj, _piece
from oni_kit.universe import _component_masks

LABELS = tuple("abcdefgh")


def graph(labels, edges):
    return Graph(Universe(labels), edges)


def spider():
    # two legs of length 2; TD-mixed despite being a balanced tree
    return graph(
        ["c", "a", "b", "la", "lb"],
        [("c", "a"), ("a", "la"), ("c", "b"), ("b", "lb")],
    )


def cycle_graph(n):
    labels = [str(i) for i in range(n)]
    return graph(labels, [(labels[i], labels[(i + 1) % n]) for i in range(n)])


@st.composite
def graphs(draw, max_elems: int = 6):
    n = draw(st.integers(1, max_elems))
    labels = LABELS[:n]
    pairs = [
        (labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)
    ]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=10) if pairs else st.just([]))
    return labels, chosen


@st.composite
def random_trees(draw, max_elems: int = 9):
    n = draw(st.integers(1, max_elems))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, oracles.random_tree_edges(random.Random(seed), n)


# ---------------------------------------------------------------------------
# graph basics


def test_construction_and_accessors():
    g = graph("abc", [("a", "b"), ("b", "a"), ("b", "c")])
    assert g.edges == (("a", "b"), ("b", "c"))  # duplicates collapse
    assert g.neighbors("b") == ("a", "c")
    assert g.closed_neighbors("a") == ("a", "b")
    with pytest.raises(InputError, match="loop at vertex 'a'"):
        graph("ab", [("a", "a")])


def test_subgraph_relation_is_not_induced():
    triangle = graph("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    sparse = graph("ab", [])
    assert sparse.is_subgraph_of(triangle)
    assert not triangle.is_subgraph_of(sparse)
    assert triangle.delete_vertices(["c"]) == graph("ab", [("a", "b")])
    assert triangle.delete_closed_neighborhood("a") == graph([], [])


def test_vertex_selection_rejects_unknown_labels():
    triangle = graph("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    for bad, named in ((["a", "z"], "'z'"), (["a", 1], "1"), ([["a"]], r"\['a'\]")):
        with pytest.raises(InputError, match=f"unknown label {named}"):
            triangle.delete_vertices(bad)
    assert triangle.delete_vertices(["a", "a"]) == graph("bc", [("b", "c")])


def test_components_and_tree_predicates():
    two = graph("abcd", [("a", "b"), ("c", "d")])
    assert oracles.components(two) == (("a", "b"), ("c", "d"))
    assert two.is_forest() and not two.is_tree()
    assert path_graph(3).is_tree()
    assert not cycle_graph(4).is_forest()


def test_json_and_text_round_trips():
    g = graph("abc", [("a", "b")])  # "c" stays isolated
    assert Graph.from_json_obj(g.to_json_obj()) == g
    assert Graph.from_text("a b\n# vertex c\n") == g
    assert Graph.from_text("") == graph([], [])
    with pytest.raises(InputError, match='"vertices" and "edges"'):
        Graph.from_json_obj({"vertices": ["a"]})
    with pytest.raises(InputError, match="is not a pair"):
        Graph.from_json_obj({"vertices": ["a", "b"], "edges": [["a", "b", "b"]]})
    with pytest.raises(InputError, match="expected 'a b' edge line"):
        Graph.from_text("a b c\n")


# ---------------------------------------------------------------------------
# heights


def test_path_heights():
    profile = heights(p6())
    assert [profile.height_of(str(i)) for i in range(7)] == [0, 1, 2, 3, 2, 1, 0]
    assert profile.graph_height == 3
    assert profile.balanced and profile.is_tree
    assert profile.v_odd == ("1", "3", "5")
    assert profile.v_even == ("0", "2", "4", "6")
    assert profile.stratum(2) == ("2", "4")
    doc = profile.to_json_obj()
    assert doc["height"] == 3 and doc["balanced"] is True
    assert doc["heights"]["3"] == 3


def test_cycle_heights_are_undefined():
    profile = heights(cycle_graph(4))
    assert profile.graph_height is None
    assert not profile.balanced and not profile.is_forest
    assert all(profile.height_of(v) is None for v in cycle_graph(4).vertices)
    assert profile.stratum(0) == ()


@given(graphs(), st.integers(0, 2**6 - 1))
@example((tuple("abcde"), [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]), 0b10111)
@settings(max_examples=150, deadline=None)
def test_heights_match_oracle(case, drawn):
    labels, edges = case
    g = graph(labels, edges)
    profile = heights(g)
    expected = oracles.heights_oracle(labels, edges)
    assert {v: profile.height_of(v) for v in labels} == expected
    order = sorted(expected)
    defined = [v for v in order if expected[v] is not None]
    assert profile.v_odd == tuple(v for v in defined if expected[v] % 2 == 1)
    assert profile.v_even == tuple(v for v in defined if expected[v] % 2 == 0)
    for k in range(len(labels) + 1):
        assert profile.stratum(k) == tuple(v for v in order if expected[v] == k)
    assert profile.stratum(-1) == profile.stratum(len(labels) + 1) == ()
    # the strata kernel against the dict form, on the whole graph, on a
    # drawn vertex subset, and on the non-induced piece adjacency of _piece;
    # the flags are the component masks, the forest flag and the balance flag
    present = drawn & g.universe.full_mask()
    for adj, within in ((g.adj, g.universe.full_mask()), (g.adj, present), _piece(g.adj, present)):
        strata, *flags = _heights_of_adj(adj, within)
        by_pos, *expected_flags = oracles.reference_heights_of_adj(adj, within)
        top = max((h for h in by_pos.values() if h is not None), default=-1)
        assert strata == [
            sum(1 << p for p, h in by_pos.items() if h == k) for k in range(top + 1)
        ]
        assert flags == expected_flags
    forest, tree, comps = oracles.forest_oracle(labels, edges)
    assert (profile.is_forest, profile.is_tree) == (forest, tree)
    assert (g.is_forest(), g.is_tree()) == (forest, tree)
    assert profile.balanced == (
        forest
        and all(h is not None for h in expected.values())
        and all(expected[a] != expected[b] for a, b in edges)
    )
    comp_masks = _component_masks(g.adj, g.universe.full_mask())
    assert tuple(g.universe.labels_of(m) for m in comp_masks) == comps


# ---------------------------------------------------------------------------
# neighborhood ideals


def test_open_neighborhood_ideal_of_path():
    gens = oni(p6()).generators.members
    assert gens == (("1",), ("5",), ("0", "2"), ("2", "4"), ("4", "6"))
    assert oni(graph("a", [])).is_unit  # isolated vertex swallows everything


@given(graphs())
@settings(max_examples=150, deadline=None)
def test_oni_gens_are_minimalized_neighborhoods(case):
    labels, edges = case
    g = graph(labels, edges)
    adj = oracles.adjacency(labels, edges)
    expected = oracles.minimalize(frozenset(adj[v]) for v in labels)
    gens = oni(g).generators
    if any(not adj[v] for v in labels):
        assert oni(g).is_unit
    else:
        assert {frozenset(m) for m in gens.members} == expected


def test_odd_ideal_of_path():
    ideal = odd_oni(p6())
    assert ideal.universe.labels == ("0", "2", "4", "6")
    assert ideal.generators.members == (
        ("0", "2"),
        ("2", "4"),
        ("4", "6"),
    )
    with pytest.raises(InputError, match="balanced forest"):
        odd_oni(cycle_graph(4))
    with pytest.raises(InputError, match="balanced forest"):
        odd_oni(path_graph(1))  # adjacent leaves share height 0


def test_odd_ideal_of_many_components_matches_reference():
    # 800 disjoint 7-vertex paths: three odd vertices each, whose
    # neighbourhoods are the generators, on masks 3,200 even vertices wide.
    forest = oracles.disjoint_paths(800)
    ideal = odd_oni(forest)
    even = ideal.universe
    assert len(even) == 3200
    neighbourhoods = [even.mask_of(forest.neighbors(v)) for v in heights(forest).v_odd]
    assert len(ideal.generators) == 2400
    assert list(ideal.generators.masks) == oracles.reference_minimal_masks(neighbourhoods)


@st.composite
def balanced_forests(draw):
    """1-3 uniform random trees on 3-12 vertices, each redrawn until it is
    balanced, with vertex i of tree j labelled f"v{i:02d}t{j}", so that the
    trees' positions interleave in the sorted universe."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    vertices, edges = [], []
    for j in range(draw(st.integers(1, 3))):
        n = draw(st.integers(3, 12))
        while True:
            tree = Graph.from_vertices(map(str, range(n)), oracles.random_tree_edges(rng, n))
            if heights(tree).balanced:
                break
        vertices += (f"v{i:02d}t{j}" for i in range(n))
        edges += ((f"v{int(a):02d}t{j}", f"v{int(b):02d}t{j}") for a, b in tree.edges)
    return Graph.from_vertices(vertices, edges)


@given(balanced_forests())
@settings(max_examples=100, deadline=None)
def test_odd_ideal_matches_label_route_on_random_forests(forest):
    assert odd_oni(forest) == oracles.reference_odd_oni(forest)


def test_odd_ideal_matches_label_route_on_grown_trees_and_paths():
    # the position map against the label route it replaced, on grown trees
    # 0-14 and on 200 disjoint 7-vertex paths, whose labels "tj_i" sort the
    # paths' positions out of order ("t10_0" before "t2_0")
    for k in range(15):
        tree = oracles.seeded_grown_tree(k)
        assert odd_oni(tree) == oracles.reference_odd_oni(tree), k
    paths = oracles.disjoint_paths(200)
    assert odd_oni(paths) == oracles.reference_odd_oni(paths)


def test_induced_odd_ideal():
    ambient = p6()
    sub = ambient.delete_vertices(["3"])
    ideal = induced_odd_oni(sub, ambient)
    assert ideal.universe.labels == ("0", "2", "4", "6")
    assert ideal.generators.members == (("0", "2"), ("4", "6"))
    with pytest.raises(InputError, match="must be a subgraph"):
        induced_odd_oni(graph("z", []), ambient)
    with pytest.raises(InputError, match="ambient heights are undefined"):
        induced_odd_oni(cycle_graph(4), cycle_graph(4))
    lopsided = path_graph(3)  # heights 0,1,1,0: defined but unbalanced
    with pytest.raises(InputError, match="leaves the even stratum at '2'"):
        induced_odd_oni(lopsided, lopsided)


# ---------------------------------------------------------------------------
# TD-sets and unmixedness


@given(graphs())
@settings(max_examples=120, deadline=None)
def test_td_sets_match_oracle(case):
    labels, edges = case
    found = {frozenset(m) for m in minimal_td_sets(graph(labels, edges)).members}
    assert found == oracles.td_sets_oracle(labels, edges)


@given(random_trees())
@settings(max_examples=120, deadline=None)
def test_td_sets_on_trees_match_oracle(case):
    n, edges = case
    labels = [str(i) for i in range(n)]
    g = graph(labels, edges)
    found = {frozenset(m) for m in minimal_td_sets(g).members}
    assert found == oracles.td_sets_oracle(labels, edges)
    profile = heights(g)
    if profile.balanced:
        odd_found = {frozenset(m) for m in minimal_odd_td_sets(g).members}
        assert odd_found == oracles.odd_td_sets_oracle(labels, edges)


def test_no_td_set_with_isolated_vertex():
    assert minimal_td_sets(graph("ab", [])).masks == ()
    assert stable_complex(graph("a", [])).kind == VOID


def test_unmixedness_examples():
    assert is_td_unmixed(p6())
    assert is_td_unmixed(t_a())
    assert not is_td_unmixed(spider())
    assert is_structurally_td_unmixed(twin_broom())
    with pytest.raises(InputError, match="balanced tree"):
        is_structurally_td_unmixed(cycle_graph(4))
    with pytest.raises(InputError, match="balanced tree"):
        is_structurally_td_unmixed(graph("abcd", [("a", "b"), ("c", "d")]))


@given(random_trees())
@settings(max_examples=80, deadline=None)
def test_structural_unmixedness_agrees_with_enumeration(case):
    n, edges = case
    g = graph([str(i) for i in range(n)], edges)
    if heights(g).balanced and g.is_tree():
        assert is_structurally_td_unmixed(g) == is_td_unmixed(g)


# ---------------------------------------------------------------------------
# stable complexes


def test_stable_complexes_of_path():
    even = even_stable_complex(p6())
    assert even.universe.labels == ("0", "2", "4", "6")
    assert even.facets.members == (("0", "4"), ("0", "6"), ("2", "6"))
    assert stanley_reisner_ideal(even) == odd_oni(p6())
    assert stanley_reisner_ideal(stable_complex(p6())) == oni(p6())


# ---------------------------------------------------------------------------
# construction helpers


def test_path_graph_bounds():
    assert len(path_graph(0)) == 1 and path_graph(0).edges == ()
    assert len(path_graph(6)) == 7
    with pytest.raises(InputError, match="must be nonnegative"):
        path_graph(-1)


def test_edge_join():
    joined = edge_join(graph("ab", [("a", "b")]), graph("cd", [("c", "d")]), "b", "c")
    assert joined.edges == (("a", "b"), ("b", "c"), ("c", "d"))
    with pytest.raises(InputError, match="disjoint labels; shared: b"):
        edge_join(graph("ab", []), graph("bc", []), "a", "c")
    with pytest.raises(InputError, match="vertex 'x' not in the first graph"):
        edge_join(graph("ab", []), graph("cd", []), "x", "c")
    with pytest.raises(InputError, match=r"vertex \{'a'\} not in the first graph"):
        edge_join(graph("ab", []), graph("cd", []), {"a"}, "c")
    with pytest.raises(InputError, match="vertex 'x' not in the second graph"):
        edge_join(graph("ab", []), graph("cd", []), "a", "x")


def test_extension_shapes():
    base = p6()
    at_stem = o_extend(base, "1")
    assert set(at_stem.vertices) - set(base.vertices) == {"p1_0"}
    assert ("1", "p1_0") in at_stem.edges

    at_mid = o_extend(base, "4")
    assert set(at_mid.vertices) - set(base.vertices) == {"p1_0", "p1_1", "p1_2", "p1_3"}
    assert ("4", "p1_3") in at_mid.edges

    at_top = o_extend(base, "3")
    assert set(at_top.vertices) - set(base.vertices) == {"p1_0", "p1_1", "p1_2"}
    assert ("3", "p1_2") in at_top.edges

    for extended in (at_stem, at_mid, at_top):
        profile = heights(extended)
        assert profile.balanced and profile.graph_height == 3
        assert is_structurally_td_unmixed(extended)


def test_extension_errors_and_fresh_labels():
    with pytest.raises(InputError, match="has height 0"):
        o_extend(p6(), "0")
    with pytest.raises(InputError, match="vertex 'z' not in the tree"):
        o_extend(p6(), "z")
    with pytest.raises(InputError, match=r"vertex \['1'\] not in the tree"):
        o_extend(p6(), ["1"])
    with pytest.raises(InputError, match="balanced tree of height 3"):
        o_extend(path_graph(2), "1")
    twice = o_extend(o_extend(p6(), "1"), "1")
    assert {"p1_0", "p2_0"} <= set(twice.vertices)


def test_pick_sequences():
    assert o_sequence([]) == path_graph(6)
    assert o_sequence(["1"]) == o_extend(path_graph(6), "1")
    with pytest.raises(InputError, match="step 0: vertex '0' has height 0"):
        o_sequence(["0"])
    with pytest.raises(InputError, match="step 1: vertex 'z' not in the tree"):
        o_sequence(["1", "z"])


def test_split_vertex():
    assert find_split_vertex(p6()) == "2"
    assert find_split_vertex(t_a()) == "u1"
    with pytest.raises(InputError, match="TD-unmixed balanced tree of height 3"):
        find_split_vertex(path_graph(2))
    with pytest.raises(InputError, match="TD-unmixed balanced tree of height 3"):
        find_split_vertex(spider())


# ---------------------------------------------------------------------------
# decompositions


def isolated(labels):
    return graph(labels, [])


def test_decomposition_verification():
    tree = p6()
    assert verify_decomposition(tree, tree, isolated(["3"]))
    assert not verify_decomposition(tree, tree, isolated([]))
    assert not verify_decomposition(tree, tree.delete_vertices(["3"]), isolated(["3"]))
    assert verify_decomposition(t_a(), t_a(), isolated(["r1", "r2"]))
    with pytest.raises(InputError, match="pieces must be subgraphs"):
        verify_decomposition(tree, tree, isolated(["z"]))
    with pytest.raises(InputError, match="target must be a tree"):
        verify_decomposition(isolated(["a", "b"]), isolated(["a"]), isolated(["b"]))


def test_decomposition_search():
    found = search_decomposition(p6())
    assert found is not None
    assert verify_decomposition(p6(), found.t1, found.t2)
    assert search_decomposition(path_graph(0)) is None
    # trees past 18 vertices, with and without balanced strata; the last has
    # 19 generator classes
    for tree in (
        path_graph(18),
        oracles.seeded_grown_tree(18),
        oracles.tree_past_search_bound(),
        oracles.tree_past_class_bound(),
    ):
        found = search_decomposition(tree)
        assert found is not None and verify_decomposition(tree, found.t1, found.t2)
        assert oracles.reference_verify_decomposition(tree, found.t1, found.t2)


@st.composite
def decomposition_cases(draw):
    """A tree on at most 16 vertices (random, or the 7-vertex path after up
    to two o-extensions), now and then with an isolated vertex added so that
    it is no tree, and a seed for drawing pieces."""
    if draw(st.booleans()):
        n, edges = draw(random_trees(16))
        tree = graph([str(i) for i in range(n)], edges)
    else:
        tree = p6()
        for i in draw(st.lists(st.integers(0, 15), max_size=2)):
            profile = heights(tree)
            picks = [v for v in tree.vertices if profile.height_of(v) in (1, 2, 3)]
            tree = o_extend(tree, picks[i % len(picks)])
    if draw(st.integers(0, 9)) == 9:
        tree = graph(tree.vertices + ("x",), tree.edges)
    return tree, draw(st.integers(0, 2**32 - 1))


def random_piece(rng, tree):
    """A random subgraph of the tree, now and then with a foreign vertex."""
    keep = [v for v in tree.vertices if rng.random() < 0.8]
    if rng.random() < 0.1:
        keep.append("zz")
    kept = set(keep)
    edges = [e for e in tree.edges if kept.issuperset(e) and rng.random() < 0.8]
    return graph(keep, edges)


def decided(fn, *args):
    try:
        result = fn(*args)
    except InputError as exc:
        return "InputError", str(exc)
    if isinstance(result, TreeDecomposition):
        return result.t1.to_json_obj(), result.t2.to_json_obj()
    return result


def bipartition_side(tree):
    """The non-stem vertices at even distance from the first leaf, by
    networkx distances and the oracle's heights."""
    height = oracles.heights_oracle(tree.vertices, tree.edges)
    first_leaf = next(v for v in tree.vertices if height[v] == 0)
    dist = nx.single_source_shortest_path_length(nx.Graph(tree.edges), first_leaf)
    return tuple(v for v in tree.vertices if dist[v] % 2 == 0 and height[v] != 1)


def check_against_reference(tree):
    """search_decomposition against the exhaustive reference: the same
    answer on non-trees and on balanced trees of height at most 3, and
    elsewhere the same verdict with pieces that the reference accepts.
    t1's even side is always bipartition_side."""
    found = decided(search_decomposition, tree)
    expected = decided(oracles.reference_search_decomposition, tree)
    profile = heights(tree)
    if found is None or found[0] == "InputError" or (
        profile.balanced and profile.graph_height <= 3
    ):
        assert found == expected
    else:
        assert expected is not None
    if found is not None and found[0] != "InputError":
        t1, t2 = (Graph.from_json_obj(doc) for doc in found)
        assert oracles.reference_verify_decomposition(tree, t1, t2)
        t1_height = oracles.heights_oracle(t1.vertices, t1.edges)
        assert tuple(v for v in t1.vertices if t1_height[v] % 2 == 0) == bipartition_side(tree)
    return found


def numbered_trees(n_range, seed):
    """Every free tree on the given vertex counts, under sorted labels and
    under one shuffle."""
    rng = random.Random(seed)
    for n in n_range:
        shapes = [t.edges for t in nx.nonisomorphic_trees(n)] if n > 1 else [()]
        for edges in shapes:
            for order in (range(n), rng.sample(range(n), n)):
                names = [f"v{i:02d}" for i in order]
                yield graph(names, [(names[a], names[b]) for a, b in edges])


def test_decomposition_matches_reference_on_every_small_tree():
    """Every free tree on 1-11 vertices against the exhaustive reference."""
    for tree in numbered_trees(range(1, 12), 11):
        check_against_reference(tree)


def test_every_tree_on_three_to_twelve_vertices_decomposes():
    """The census: all 985 free trees on 3-12 vertices decompose at their
    bipartition, and K1 and K2, the trees on fewer vertices, do not."""
    trees = list(numbered_trees(range(3, 13), 12))
    assert len(trees) == 2 * 985
    for tree in trees:
        found = search_decomposition(tree)
        assert found is not None
        assert oracles.reference_verify_decomposition(tree, found.t1, found.t2)
    assert search_decomposition(path_graph(0)) is None
    assert search_decomposition(path_graph(1)) is None


@given(st.integers(13, 80), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_search_decomposition_pieces_decompose_larger_trees(n, seed):
    """Past the census: search_decomposition checks nothing, so the
    reference checker must accept its pieces on random trees of 13-80
    vertices."""
    rng = random.Random(seed)
    edges = oracles.random_tree_edges(rng, n)
    names = [f"v{i:02d}" for i in rng.sample(range(n), n)]
    tree = graph(names, [(names[int(a)], names[int(b)]) for a, b in edges])
    found = search_decomposition(tree)
    assert found is not None
    assert oracles.reference_verify_decomposition(tree, found.t1, found.t2)


def test_reference_search_raises_past_its_bound():
    # the library decomposes this tree at its bipartition; the exhaustive
    # reference must not answer None for it
    tree = oracles.tree_past_search_bound()
    assert search_decomposition(tree) is not None
    with pytest.raises(ValueError, match="at most 17 non-stem vertices; got 18$"):
        oracles.reference_search_decomposition(tree)


@given(decomposition_cases())
@settings(max_examples=150, deadline=None)
def test_decomposition_matches_reference(case):
    tree, seed = case
    found = check_against_reference(tree)
    rng = random.Random(seed)
    pairs = [(random_piece(rng, tree), random_piece(rng, tree)) for _ in range(3)]
    if found is not None and found[0] != "InputError":
        t1, t2 = (Graph.from_json_obj(doc) for doc in found)
        pairs += [(t1, t2), (t2, t1)]
        if t1.edges:
            pairs.append((t1.delete_vertices([rng.choice(t1.edges)[0]]), t2))
    for t1, t2 in pairs:
        assert decided(verify_decomposition, tree, t1, t2) == decided(
            oracles.reference_verify_decomposition, tree, t1, t2
        )


# ---------------------------------------------------------------------------
# chordality


def test_chordality_examples():
    assert not is_chordal(cycle_graph(4))
    assert is_chordal(p6())
    complete = graph("abcde", [(a, b) for a in "abcde" for b in "abcde" if a < b])
    assert is_chordal(complete)


def test_chordality_exhaustive_small():
    labels = tuple("abcde")
    pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1 :]]
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        g = graph(labels, edges)
        assert is_chordal(g) == oracles.is_chordal_oracle(labels, edges), edges


def clique_grown_edges(rng, labels):
    """Edges of a chordal graph: each vertex after the first is joined to
    a clique of earlier ones, grown from a random earlier vertex."""
    edges, adjacent = [], {labels[0]: set()}
    for v in labels[1:]:
        clique = [rng.choice(list(adjacent))]
        for u in rng.sample(list(adjacent), len(adjacent)):
            if rng.random() < 0.5 and all(u in adjacent[w] for w in clique):
                clique.append(u)
        adjacent[v] = set(clique)
        for u in clique:
            adjacent[u].add(v)
            edges.append((u, v))
    return edges


def test_chordality_matches_networkx_past_five_vertices():
    rng = random.Random(20261019)
    verdicts = []
    for _ in range(400):
        labels = [f"v{i}" for i in rng.sample(range(100), rng.randint(6, 14))]
        density = rng.choice([0.15, 0.3, 0.5, 0.7, 0.9])
        edges = [
            (a, b) for i, a in enumerate(labels) for b in labels[i + 1 :]
            if rng.random() < density
        ]
        verdicts.append(is_chordal(graph(labels, edges)))
        assert verdicts[-1] == oracles.is_chordal_oracle(labels, edges), edges
    assert 40 < sum(verdicts) < 360  # both verdicts are exercised
    extra_broke = 0
    for _ in range(300):
        labels = [f"v{i}" for i in rng.sample(range(100), rng.randint(6, 30))]
        edges = clique_grown_edges(rng, labels)
        assert is_chordal(graph(labels, edges)), edges
        if rng.random() < 0.5:
            a, b = rng.sample(labels, 2)
            if (a, b) not in edges and (b, a) not in edges:
                edges.append((a, b))
                chordal = oracles.is_chordal_oracle(labels, edges)
                extra_broke += not chordal
                assert is_chordal(graph(labels, edges)) == chordal, edges
    assert extra_broke >= 20


def test_chordality_of_large_paths_stars_and_cycles():
    labels = [f"v{i:04d}" for i in range(2000)]
    shuffled = random.Random(2000).sample(labels, len(labels))
    for order in (labels, shuffled):
        path = [(order[i], order[i + 1]) for i in range(1999)]
        assert is_chordal(graph(labels, path))
        assert not is_chordal(graph(labels, path + [(order[-1], order[0])]))
    star = [(labels[0], leaf) for leaf in labels[1:]]
    assert is_chordal(graph(labels, star))


# ---------------------------------------------------------------------------
# realization


def test_realization_golden():
    family = beg_a()
    g = realize_as_oni(family)
    assert len(g) == 10  # five ground vertices, five fresh ones
    assert {frozenset(m) for m in minimal_td_sets(g).members} == {
        frozenset(m) for m in family.members
    }
    assert oni(g).generators.members == (
        ("v1", "v3"),
        ("v1", "v5"),
        ("v2", "v3"),
        ("v2", "v4"),
        ("v3", "v4"),
    )
    assert is_chordal(g)


def test_realization_rejects_bad_families():
    from oni_kit import SpernerFamily

    u = Universe("abc")
    with pytest.raises(InputError, match="fewer than 2 elements"):
        realize_as_oni(SpernerFamily.from_sets(u, [["a"], ["b", "c"]]))
    with pytest.raises(InputError, match="does not cover its universe: c"):
        realize_as_oni(SpernerFamily.from_sets(u, [["a", "b"]]))
    clash = Universe(["t1", "a", "b"])
    with pytest.raises(InputError, match="fresh label 't1' collides"):
        realize_as_oni(SpernerFamily.from_sets(clash, [["t1", "a"], ["a", "b"]]))

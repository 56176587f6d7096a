"""Acceptance criteria: twelve pinned end-to-end checks, each reported on a
single PASS/FAIL line with its runtime and held to a time budget.

The frozen golden values are the tables in oni_kit.verify, which the
`verify-paper` command checks too; test_path_reference_values re-derives
them with the naive reference code in tests/oracles.py."""

import random
import time
from functools import lru_cache, reduce
from itertools import combinations
from operator import or_

import networkx as nx
import pytest

import oracles
from oni_kit import (
    Graph,
    InputError,
    SimplicialComplex,
    SpernerFamily,
    SquareFreeIdeal,
    Universe,
    even_stable_complex,
    facet_ideal,
    find_split_vertex,
    heights,
    induced_odd_oni,
    is_chordal,
    is_gvd,
    is_connected_complex,
    is_simplicial_forest,
    is_simplicial_tree,
    is_structurally_td_unmixed,
    is_td_unmixed,
    is_vertex_decomposable,
    join,
    minimal_odd_td_sets,
    minimal_td_sets,
    minimal_transversals,
    o_extend,
    odd_oni,
    oni,
    path_graph,
    realize_as_oni,
    split,
    stable_complex,
    stanley_reisner_complex,
    stanley_reisner_ideal,
    validate_certificate,
    certify_tree_gvd,
    verify_decomposition,
)
from oni_kit.fixtures import beg_a, p6, t_a, twin_broom
from oni_kit.verify import (
    FAMILY_TAU,
    P6_EVEN_STABLE_FACETS,
    P6_ODD_ONI_GENS,
    P6_ODD_TD_SETS,
    P6_ONI_GENS,
    P6_TD_SETS,
)


def run_criterion(label, bound, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"FAIL {label} ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS {label} ({elapsed:.2f}s)")
    assert elapsed < bound, f"{label} took {elapsed:.2f}s, budget {bound}s"


# ---------------------------------------------------------------------------
# frozen golden values: oni_kit.verify's tables, read as sets


def golden(table):
    return {frozenset(members) for members in table}


def family_sets(family):
    return {frozenset(m) for m in family.members}


# ---------------------------------------------------------------------------
# shared corpus of grown trees


def _to_nx(graph):
    out = nx.Graph()
    out.add_nodes_from(graph.vertices)
    out.add_edges_from(graph.edges)
    return out


def _shape(graph: nx.Graph) -> tuple:
    """An isomorphism invariant that buckets trees before `nx.is_isomorphic`
    decides: the vertex count and the sorted degree sequence."""
    return len(graph), tuple(sorted(d for _, d in graph.degree()))


@lru_cache(maxsize=None)
def corpus(target: int = 110, max_picks: int = 4):
    """Pairwise non-isomorphic trees grown from the 7-vertex path by at
    most max_picks extension steps, breadth-first in canonical pick order."""
    start = p6()
    collected = [start]
    buckets = {_shape(_to_nx(start)): [_to_nx(start)]}
    queue = [(start, 0)]
    while queue and len(collected) < target:
        tree, depth = queue.pop(0)
        if depth >= max_picks:
            continue
        profile = heights(tree)
        for v in tree.vertices:
            if len(collected) >= target:
                break
            if profile.height_of(v) not in (1, 2, 3):
                continue
            child = o_extend(tree, v)
            child_nx = _to_nx(child)
            bucket = buckets.setdefault(_shape(child_nx), [])
            if any(nx.is_isomorphic(child_nx, seen) for seen in bucket):
                continue
            bucket.append(child_nx)
            collected.append(child)
            queue.append((child, depth + 1))
    return tuple(collected)


# ---------------------------------------------------------------------------
# criteria


def test_realization_golden_values():
    def body():
        family = beg_a()
        tau = minimal_transversals(family)
        assert family_sets(tau) == golden(FAMILY_TAU)
        graph = realize_as_oni(family)
        assert len(graph) == 10
        assert family_sets(minimal_td_sets(graph)) == family_sets(family)
        assert family_sets(oni(graph).generators) == golden(FAMILY_TAU)
        assert is_chordal(graph)

    run_criterion("realization-golden", 1.0, body)


def test_double_dualization():
    def body():
        labels = tuple("abcde")
        universe = Universe(labels)

        families = oracles.antichain_sweep()
        assert len(families) == 7580
        for family_masks in families:
            family = SpernerFamily(universe, family_masks)
            tau = minimal_transversals(family)
            assert family_sets(tau) == oracles.transversals_oracle(family.members)
            assert minimal_transversals(tau) == family

        rng = random.Random(20260819)
        pool = tuple("abcdefghijkl")
        for _ in range(1000):
            n = rng.randint(1, 12)
            labs = pool[:n]
            sub = Universe(labs)
            sets = [
                rng.sample(labs, rng.randint(1, n))
                for _ in range(rng.randint(0, 6))
            ]
            family = SquareFreeIdeal.from_supports(sub, sets).generators
            tau = minimal_transversals(family)
            assert family_sets(tau) == oracles.transversals_oracle(family.members)
            assert minimal_transversals(tau) == family

    run_criterion("double-dualization", 30.0, body)


def test_realization_sweep():
    # Paper claim 4: every Sperner family of sets of size at least 2 that
    # covers its ground set is the minimal TD-set family of a chordal graph.
    def body():
        universe = Universe("abcde")
        accepted = 0
        for family_masks in oracles.antichain_sweep():
            family = SpernerFamily(universe, family_masks)
            covered = reduce(or_, family_masks, 0) == universe.full_mask()
            if not covered or any(m.bit_count() < 2 for m in family_masks):
                with pytest.raises(InputError):
                    realize_as_oni(family)
                continue
            graph = realize_as_oni(family)
            assert is_chordal(graph), family.members
            assert family_sets(minimal_td_sets(graph)) == family_sets(family)
            accepted += 1
        assert accepted == 6398

    run_criterion("realization-sweep", 30.0, body)


def test_grown_trees_are_gvd():
    def body():
        trees = corpus()
        assert len(trees) >= 101  # the base path plus 100 grown trees
        for tree in trees:
            ideal = odd_oni(tree)
            ok, _ = is_gvd(ideal)
            assert ok, tree.edges
            assert validate_certificate(ideal, certify_tree_gvd(tree))
            vd_ok, _ = is_vertex_decomposable(even_stable_complex(tree))
            assert vd_ok, tree.edges

    run_criterion("grown-tree-gvd", 60.0, body)


def test_gvd_agrees_with_vertex_decomposability():
    def body():
        labels = tuple("abcde")
        universe = Universe(labels)
        for k in range(1, 6):
            subsets = list(combinations(labels, k))
            for pick in range(1, 1 << len(subsets)):
                facets = [
                    subsets[i] for i in range(len(subsets)) if pick >> i & 1
                ]
                complex_ = SimplicialComplex.from_facets(universe, facets)
                ok_ideal, _ = is_gvd(stanley_reisner_ideal(complex_))
                ok_complex, _ = is_vertex_decomposable(complex_)
                assert ok_ideal == ok_complex, facets

        rng = random.Random(715)
        pool = tuple("abcdefg")
        for _ in range(200):
            n = rng.randint(6, 7)
            labs = pool[:n]
            sub = Universe(labs)
            k = rng.randint(1, n - 1)
            facets = [
                tuple(rng.sample(labs, k)) for _ in range(rng.randint(1, 8))
            ]
            complex_ = SimplicialComplex.from_facets(sub, facets)
            ok_ideal, _ = is_gvd(stanley_reisner_ideal(complex_))
            ok_complex, _ = is_vertex_decomposable(complex_)
            assert ok_ideal == ok_complex, facets

    run_criterion("gvd-vd-agreement", 60.0, body)


def test_seven_cycle_negative_control():
    def body():
        labels = [str(i) for i in range(7)]
        universe = Universe(labels)
        supports = [[labels[i], labels[(i + 1) % 7]] for i in range(7)]
        ideal = SquareFreeIdeal.from_supports(universe, supports)
        assert ideal.is_unmixed()
        ok, cert = is_gvd(ideal)
        assert not ok and cert is None
        complex_ = stanley_reisner_complex(ideal)
        assert complex_.is_pure()
        vd_ok, _ = is_vertex_decomposable(complex_)
        assert not vd_ok

    run_criterion("seven-cycle-negative", 5.0, body)


def test_one_variable_splitting():
    def body():
        for tree in corpus():
            profile = heights(tree)
            u = find_split_vertex(tree)
            got = split(odd_oni(tree), u)
            want = (
                induced_odd_oni(tree.delete_vertices([u]), tree),
                odd_oni(tree.delete_closed_neighborhood(u)),
            )
            assert got == want, (u, tree.edges)

            odd = set(profile.v_odd)
            for r in profile.stratum(3):
                minus_top = tree.delete_vertices([r])
                assert oracles.reference_td_unmixed_balanced_forest(minus_top)
                assert set(heights(minus_top).v_odd) == odd - {r}
            for w in profile.stratum(2):
                minus_hood = tree.delete_closed_neighborhood(w)
                assert oracles.reference_td_unmixed_balanced_forest(minus_hood)
                assert set(heights(minus_hood).v_odd) == odd - set(tree.neighbors(w))

    run_criterion("one-variable-splitting", 30.0, body)


def test_decomposition_laws():
    def body():
        cases = (
            (p6(), ("3",)),
            (t_a(), ("r1", "r2")),
        )
        for tree, tops in cases:
            piece1 = tree
            piece2 = Graph(Universe(tops), ())
            assert verify_decomposition(tree, piece1, piece2)

            universe = tree.universe
            ones = heights(tree).stratum(1)
            stems = SquareFreeIdeal.from_supports(universe, ([v] for v in ones))
            total = (
                odd_oni(piece1)
                .extended_to(universe)
                .sum(odd_oni(piece2).extended_to(universe))
                .sum(stems)
            )
            assert total == oni(tree)

            joined = join(even_stable_complex(piece1), even_stable_complex(piece2))
            assert joined.extended_to(universe) == stable_complex(tree)

            sets1 = family_sets(minimal_odd_td_sets(piece1))
            sets2 = family_sets(minimal_odd_td_sets(piece2))
            rebuilt = {a | b | set(ones) for a in sets1 for b in sets2}
            assert rebuilt == family_sets(minimal_td_sets(tree))
            uniform1 = len({len(a) for a in sets1}) <= 1
            uniform2 = len({len(b) for b in sets2}) <= 1
            assert is_td_unmixed(tree) == (uniform1 and uniform2)

    run_criterion("decomposition-laws", 5.0, body)


def test_facet_ideal_bridge():
    def body():
        for tree in corpus():
            profile = heights(tree)
            odd = profile.v_odd
            if len(odd) > 14:
                continue
            even_universe = Universe(profile.v_even)
            complex_ = SimplicialComplex.from_facets(
                even_universe, (tree.neighbors(v) for v in odd)
            )
            masks = complex_.facets.masks
            assert len(masks) == len(odd)  # neighborhoods form an antichain
            assert is_simplicial_forest(complex_)
            assert oracles.covers_unmixed(complex_)
            assert all(
                (masks[i] & masks[j]).bit_count() <= 1
                for i in range(len(masks))
                for j in range(i + 1, len(masks))
            )
            assert facet_ideal(complex_) == odd_oni(tree)

    run_criterion("facet-ideal-bridge", 60.0, body)


def test_generator_complexes_of_trees_are_simplicial_trees():
    # Paper claim 3: the odd ideal of a balanced tree is the facet ideal of
    # a simplicial tree, and the full ideal of any tree is that of a forest
    # with one tree per color class.  Checked on every tree on 2-12
    # vertices, the fixtures and the seeded grown trees.
    def body():
        trees = [p6(), t_a(), twin_broom()]
        trees += [oracles.seeded_grown_tree(k) for k in range(19)]
        for n in range(2, 13):
            for shape in nx.nonisomorphic_trees(n):
                names = [f"v{i:02d}" for i in range(n)]
                edges = [(names[a], names[b]) for a, b in shape.edges]
                trees.append(Graph.from_vertices(names, edges))
        assert len(trees) == 22 + 986
        balanced = 0
        for tree in trees:
            full = oni(tree)
            both = SimplicialComplex(full.universe, full.generators.masks)
            assert is_simplicial_forest(both) and not is_connected_complex(both)
            if heights(tree).balanced:
                balanced += 1
                odd = odd_oni(tree)
                assert is_simplicial_tree(SimplicialComplex(odd.universe, odd.generators.masks))
        assert balanced == 22 + 161

    run_criterion("facet-ideal-trees", 10.0, body)


def test_structural_unmixedness_agreement():
    def body():
        rng = random.Random(424242)
        balanced = 0
        for _ in range(500):
            n = rng.randint(2, 12)
            edges = oracles.random_tree_edges(rng, n)
            tree = Graph(Universe([str(i) for i in range(n)]), edges)
            if heights(tree).balanced:
                balanced += 1
                assert is_structurally_td_unmixed(tree) == is_td_unmixed(tree)
        assert balanced >= 50  # the sample actually exercised the test
        for tree in corpus():
            assert is_structurally_td_unmixed(tree) == is_td_unmixed(tree)

    run_criterion("structural-unmixedness-agreement", 60.0, body)


def test_path_reference_values():
    def body():
        assert oracles.transversals_oracle(beg_a().members) == golden(FAMILY_TAU)

        tree = path_graph(6)
        labels = tree.vertices
        edges = tree.edges

        td = oracles.td_sets_oracle(labels, edges)
        assert td == golden(P6_TD_SETS)
        assert family_sets(minimal_td_sets(tree)) == td

        odd_td = oracles.odd_td_sets_oracle(labels, edges)
        assert odd_td == golden(P6_ODD_TD_SETS)
        assert family_sets(minimal_odd_td_sets(tree)) == odd_td

        adjacency = oracles.adjacency(labels, edges)
        neighborhoods = oracles.minimalize(
            frozenset(adjacency[v]) for v in labels
        )
        assert neighborhoods == golden(P6_ONI_GENS)
        assert family_sets(oni(tree).generators) == neighborhoods

        height_map = oracles.heights_oracle(labels, edges)
        odd_hoods = oracles.minimalize(
            frozenset(adjacency[v]) for v in labels if height_map[v] % 2 == 1
        )
        assert odd_hoods == golden(P6_ODD_ONI_GENS)
        assert family_sets(odd_oni(tree).generators) == odd_hoods

        evens = {v for v in labels if height_map[v] % 2 == 0}
        stable_facets = {frozenset(evens - s) for s in odd_td}
        assert stable_facets == golden(P6_EVEN_STABLE_FACETS)
        assert {
            frozenset(f) for f in even_stable_complex(tree).facets.members
        } == stable_facets

    run_criterion("path-reference-values", 1.0, body)

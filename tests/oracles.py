"""Slow, independent reference implementations.

Everything here is deliberately naive: plain set arithmetic over explicit
subset enumeration, the Stanley-Reisner complex with its unit and zero
cases by hand, the Stanley-Reisner ideal through the validating family
constructor, universe extension, join and the odd ideal through
labels, the pairwise antichain test, the two-pass forms of the per-node split kernels, the
canonical order as position tuples, networkx for
chordality and forests, leaf-distance heights as a dict filled by a
deque BFS, Faridi's leaf test on every facet subcollection
for simplicial forests and cycles, the GVD split that rebuilds both parts from
labels, the GVD search and replay that re-check unmixedness and the split
identity C ∩ (N + (y)) = I over labels at every node, the GVD search
with lemma 2 tested at every node's entry, the shedding test
and replay that rebuild deletion and link complexes, the tree certifier
that rebuilds every piece as a graph and an ideal, and the tree
decomposition check and search that do the same.  The tests trust these
against the package's bitmask kernels on small instances.

Every minimal transversal, prime, vertex cover and (odd) TD-set found
here comes from a subset search of this module's own: nothing here calls
the package's dualization, so a fault in that kernel cannot hide behind
a reference that shares it.
"""

from __future__ import annotations

import random
from collections import deque
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Optional

import networkx as nx

from oni_kit import (
    EMPTY,
    ORDINARY,
    VOID,
    Base,
    InputError,
    Leaf,
    Graph,
    SimplicialComplex,
    SpernerFamily,
    Split,
    SquareFreeIdeal,
    TreeDecomposition,
    Universe,
    deletion,
    heights,
    link,
    o_extend,
    odd_oni,
    oni,
    split,
)
from oni_kit.fixtures import p6
from oni_kit.gvd import _base, _disconnected, _split_height, _split_masks
from oni_kit.universe import _bits

Sets = set[frozenset[str]]


def minimalize(sets: Iterable[frozenset[str]]) -> Sets:
    pool = set(sets)
    return {s for s in pool if not any(t < s for t in pool)}


def maximalize(sets: Iterable[frozenset[str]]) -> Sets:
    pool = set(sets)
    return {s for s in pool if not any(s < t for t in pool)}


def reference_sort_key(mask: int) -> tuple[int, tuple[int, ...]]:
    """Canonical family order: by size, then lexicographically by the
    ascending positions of the set bits."""
    return (mask.bit_count(), tuple(i for i in range(mask.bit_length()) if mask >> i & 1))


def reference_minimal_masks(masks: Iterable[int]) -> list[int]:
    pool = set(masks)
    return sorted(
        (m for m in pool if not any(r != m and r & m == r for r in pool)),
        key=reference_sort_key,
    )


def reference_maximal_masks(masks: Iterable[int]) -> list[int]:
    pool = set(masks)
    return sorted(
        (m for m in pool if not any(r != m and r & m == m for r in pool)),
        key=reference_sort_key,
    )


def transversals_oracle(family: Iterable[Iterable[str]]) -> Sets:
    """All inclusion-minimal hitting sets, by exhaustive subset search."""
    members = [set(m) for m in family]
    if any(not m for m in members):
        return set()
    if not members:
        return {frozenset()}
    support = sorted(set().union(*members))
    hits = [
        frozenset(combo)
        for r in range(len(support) + 1)
        for combo in combinations(support, r)
        if all(not m.isdisjoint(combo) for m in members)
    ]
    return minimalize(hits)


@lru_cache(maxsize=None)
def antichain_sweep() -> tuple[tuple[int, ...], ...]:
    """Every antichain of nonempty subsets of a 5-set, as masks, the empty
    one included: the Dedekind number 7581 minus the lone antichain {{}}."""
    masks = range(1, 1 << 5)
    families = []

    def grow(chosen, start):
        families.append(tuple(chosen))
        for i in range(start, len(masks)):
            m = masks[i]
            if all(m & c != m and m & c != c for c in chosen):
                chosen.append(m)
                grow(chosen, i + 1)
                chosen.pop()

    grow([], 0)
    return tuple(families)


# ---------------------------------------------------------------------------
# graphs as (vertices, adjacency dict)


def adjacency(vertices: Iterable[str], edges: Iterable[tuple[str, str]]):
    adj: dict[str, set[str]] = {v: set() for v in vertices}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def td_sets_oracle(vertices: Iterable[str], edges: Iterable[tuple[str, str]]) -> Sets:
    verts = sorted(vertices)
    adj = adjacency(verts, edges)
    hits = []
    for r in range(len(verts) + 1):
        for combo in combinations(verts, r):
            dominated = set()
            for v in combo:
                dominated |= adj[v]
            if dominated == set(verts):
                hits.append(frozenset(combo))
    return minimalize(hits)


def heights_oracle(
    vertices: Iterable[str], edges: Iterable[tuple[str, str]]
) -> dict[str, Optional[int]]:
    """Distance to the nearest vertex of degree <= 1, None off any tree path
    (vertices on leafless components, e.g. cycles)."""
    verts = sorted(vertices)
    adj = adjacency(verts, edges)
    dist: dict[str, Optional[int]] = {v: None for v in verts}
    queue: deque[str] = deque()
    for v in verts:
        if len(adj[v]) <= 1:
            dist[v] = 0
            queue.append(v)
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if dist[w] is None:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def reference_heights_of_adj(adj, present):
    """The dict form of the heights pass on `present` positions with the
    given adjacency masks: heights_oracle on the positions, the component
    masks by networkx, ordered by lowest position, the forest flag by the
    edge count, and the balance
    flag by comparing the heights at both ends of every edge."""
    graph = nx.Graph()
    graph.add_nodes_from(_bits(present))
    graph.add_edges_from((p, q) for p in _bits(present) for q in _bits(adj[p] & present))
    height = heights_oracle(graph.nodes, graph.edges)
    comps = tuple(sorted((sum(1 << p for p in c) for c in nx.connected_components(graph)),
                         key=lambda m: m & -m))
    forest = graph.number_of_edges() == len(height) - len(comps)
    balanced = forest and all(height[p] != height[q] for p, q in graph.edges)
    return height, comps, forest, balanced


def odd_td_sets_oracle(
    vertices: Iterable[str], edges: Iterable[tuple[str, str]]
) -> Sets:
    verts = sorted(vertices)
    adj = adjacency(verts, edges)
    h = heights_oracle(verts, edges)
    odd = {v for v in verts if h[v] is not None and h[v] % 2 == 1}
    even = sorted(v for v in verts if h[v] is not None and h[v] % 2 == 0)
    hits = []
    for r in range(len(even) + 1):
        for combo in combinations(even, r):
            if all(adj[v] & set(combo) for v in odd):
                hits.append(frozenset(combo))
    return minimalize(hits)


def is_chordal_oracle(
    vertices: Iterable[str], edges: Iterable[tuple[str, str]]
) -> bool:
    graph = nx.Graph()
    graph.add_nodes_from(vertices)
    graph.add_edges_from(edges)
    return nx.is_chordal(graph)


def forest_oracle(vertices: Iterable[str], edges: Iterable[tuple[str, str]]):
    """(is_forest, is_tree, components) by networkx; components are sorted
    label tuples, in order of their smallest label."""
    graph = nx.Graph()
    graph.add_nodes_from(vertices)
    graph.add_edges_from(edges)
    comps = tuple(sorted(tuple(sorted(c)) for c in nx.connected_components(graph)))
    return nx.is_forest(graph), nx.is_tree(graph), comps


def components(graph) -> tuple[tuple[str, ...], ...]:
    """Connected components of a Graph, as forest_oracle lists them."""
    return forest_oracle(graph.vertices, graph.edges)[2]


def induced(graph, keep: Iterable[str]):
    """The subgraph of a Graph on the labels `keep`, with every edge
    between them."""
    keep = set(keep)
    return Graph(Universe(keep), [e for e in graph.edges if set(e) <= keep])


def degree(graph, v: str) -> int:
    return sum(v in e for e in graph.edges)


def random_tree_edges(rng: random.Random, n: int) -> list[tuple[str, str]]:
    """Uniform labeled tree on "0".."n-1" via a random Pruefer sequence."""
    if n <= 1:
        return []
    if n == 2:
        return [("0", "1")]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        for y in range(n):
            if degree[y] == 1:
                edges.append((str(min(x, y)), str(max(x, y))))
                degree[y] -= 1
                degree[x] -= 1
                break
    last = [y for y in range(n) if degree[y] == 1]
    edges.append((str(min(last)), str(max(last))))
    return edges


# ---------------------------------------------------------------------------
# the older forms of consolidated steps: the Stanley-Reisner complement step
# with its degenerate cases spelled out, universe extension and join through
# labels, and the pairwise antichain test with the error text it words


def complements_complex(universe, sets):
    """The complex whose facets are the complements of `sets` in the
    universe."""
    labels = set(universe.labels)
    return SimplicialComplex.from_facets(universe, (labels - set(s) for s in sets))


def reference_stanley_reisner_complex(ideal):
    """Complements of the minimal primes found by subset search, with the
    unit ideal sent to the void complex and the zero ideal to the full
    simplex by hand."""
    if ideal.is_unit:
        return SimplicialComplex(ideal.universe, ())
    if ideal.is_zero:
        return SimplicialComplex(ideal.universe, (ideal.universe.full_mask(),))
    return complements_complex(ideal.universe, transversals_oracle(ideal.generators.members))


def reference_stanley_reisner_ideal(cx):
    """Minimal transversals of the facet complements by subset search,
    built by the validating constructor."""
    labels = set(cx.universe.labels)
    complements = [labels - set(f) for f in cx.facets.members]
    return SquareFreeIdeal(SpernerFamily.from_sets(cx.universe, transversals_oracle(complements)))


def covers_unmixed(cx) -> bool:
    """All minimal vertex covers of the complex's facets, found by subset
    search, have one size."""
    return len({len(c) for c in transversals_oracle(cx.facets.members)}) <= 1


def reference_stable_complex(graph):
    """Complements of the minimal TD-sets found by subset search."""
    return complements_complex(graph.universe, td_sets_oracle(graph.vertices, graph.edges))


def reference_odd_oni(graph):
    """The odd ideal of a balanced forest through labels, the route
    `odd_oni` took before it moved generators by position: the strata by
    heights_oracle, each odd vertex's neighbourhood as a set of labels,
    minimalized as sets and read over a universe of the even labels."""
    height = heights_oracle(graph.vertices, graph.edges)
    even = Universe(v for v, h in height.items() if h % 2 == 0)
    odd = (v for v, h in height.items() if h % 2 == 1)
    gens = minimalize(frozenset(graph.neighbors(v)) for v in odd)
    return SquareFreeIdeal(SpernerFamily.from_sets(even, gens))


def reference_even_stable_complex(graph):
    """Complements, inside the even stratum, of the minimal odd TD-sets
    found by subset search; `odd_oni` names the stratum and refuses a graph
    that is not a balanced forest."""
    even = odd_oni(graph).universe
    return complements_complex(even, odd_td_sets_oracle(graph.vertices, graph.edges))


def _require_labels(source, target):
    for lab in source.labels:
        if lab not in target:
            raise InputError(f"target universe is missing label {lab!r}")


def reference_ideal_extended_to(ideal, universe):
    """The generators' labels read back over the larger universe."""
    _require_labels(ideal.universe, universe)
    sets = ideal.generators.members
    return SquareFreeIdeal(SpernerFamily(universe, (universe.mask_of(s) for s in sets)))


def reference_complex_extended_to(cx, universe):
    """The facets' labels read back over the larger universe."""
    _require_labels(cx.universe, universe)
    return SimplicialComplex(universe, (universe.mask_of(f) for f in cx.facets.members))


def reference_join(left, right):
    """Every union of a left facet's labels and a right facet's labels."""
    overlap = set(left.universe.labels) & set(right.universe.labels)
    if overlap:
        raise InputError(
            f"join requires disjoint universes; shared: {', '.join(sorted(overlap))}"
        )
    combined = Universe(left.universe.labels + right.universe.labels)
    facets = [
        combined.mask_of(left.universe.labels_of(a) + right.universe.labels_of(b))
        for a in left.facets.masks
        for b in right.facets.masks
    ]
    return SimplicialComplex(combined, facets)


def reference_is_sperner(universe, sets) -> bool:
    """No repeated set and no pair in either inclusion, pair by pair."""
    masks = [universe.mask_of(s) for s in sets]
    return len(set(masks)) == len(masks) and all(
        a & b != a and a & b != b for i, a in enumerate(masks) for b in masks[i + 1 :]
    )


def reference_antichain_error(universe, masks) -> Optional[str]:
    """The message of the validating family constructor's pairwise scan:
    the first (a, b), a before b in canonical order, with a inside b, or
    None when the distinct masks form an antichain."""
    canon = sorted(set(masks), key=reference_sort_key)
    for i, a in enumerate(canon):
        for b in canon[i + 1 :]:
            if a & b == a:
                inner, outer = (", ".join(universe.labels_of(m)) for m in (a, b))
                return f"family is not an antichain: {{{inner}}} is contained in {{{outer}}}"
    return None


# ---------------------------------------------------------------------------
# the older forms of the per-node split kernels, which build each part with
# its own generator expression: `complexes._shed` and `gvd._split_masks`


def two_pass_shed(facets, bit):
    """(deletion facets, link facets) at the vertex `bit` if it sheds, else
    None, for facets in canonical order."""
    kept = tuple(f for f in facets if not f & bit)
    link_facets = tuple(f ^ bit for f in facets if f & bit)
    for h in link_facets:
        for g in kept:
            if h & g == h:
                break
        else:
            return None
    return kept, link_facets


def two_pass_split_masks(gens, ybit):
    """C and N of the canonical generators `gens` split at `ybit`: N the
    generators y does not divide, C one merge of the stripped generators
    with the members of N that hold none of them."""
    stripped = [g ^ ybit for g in gens if g & ybit]
    n_gens = tuple(g for g in gens if not g & ybit)
    kept = []
    for g in n_gens:
        for s in stripped:
            if s & g == s:
                break
        else:
            kept.append(g)
    c_gens = []
    i = 0
    for b in kept:
        size_b = b.bit_count()
        while i < len(stripped):
            a = stripped[i]
            size_a, d = a.bit_count(), a ^ b
            if size_a > size_b or (size_a == size_b and not a & d & -d):
                break
            c_gens.append(a)
            i += 1
        c_gens.append(b)
    c_gens += stripped[i:]
    return tuple(c_gens), n_gens


# ---------------------------------------------------------------------------
# complexes as frozensets of facet frozensets


@lru_cache(maxsize=None)
def vd_oracle(facets: frozenset[frozenset[str]]) -> bool:
    """Vertex decomposability straight from the recursive definition."""
    if not facets or facets == frozenset({frozenset()}):
        return True
    if len(facets) == 1:
        return True
    support = sorted(set().union(*facets))
    for v in support:
        survivors = {f for f in facets if v not in f}
        del_facets = maximalize(f - {v} for f in facets)
        if del_facets != survivors:
            continue
        link_facets = maximalize(f - {v} for f in facets if v in f)
        if vd_oracle(frozenset(del_facets)) and vd_oracle(frozenset(link_facets)):
            return True
    return False


def reference_is_shedding_vertex(cx, v: str) -> bool:
    """Literal facet-subset test: every facet of the deletion at v is a
    facet of the complex itself."""
    if cx.kind != ORDINARY:
        raise InputError("shedding test needs an ordinary complex")
    cx.universe.position(v)
    return set(deletion(cx, (v,)).facets.masks) <= set(cx.facets.masks)


def reference_validate_shedding_certificate(cx, cert) -> bool:
    """Replay that rebuilds the deletion and link complexes and re-checks
    purity and the literal shedding test at every Shed node."""
    if isinstance(cert, Leaf):
        if cert.kind == "empty":
            return cx.kind in (VOID, EMPTY)
        return len(cx.facets.masks) == 1
    if cx.kind != ORDINARY or not cx.is_pure():
        return False
    if cert.vertex not in cx.universe:
        return False
    if not reference_is_shedding_vertex(cx, cert.vertex):
        return False
    return reference_validate_shedding_certificate(
        deletion(cx, (cert.vertex,)), cert.deletion
    ) and reference_validate_shedding_certificate(link(cx, (cert.vertex,)), cert.link)


# ---------------------------------------------------------------------------
# simplicial forests and cycles by subcollection enumeration


def _has_leaf(members: list[int]) -> bool:
    """Faridi's definition, literally: a lone facet is a leaf, and otherwise
    F is a leaf when some other facet G holds F's meet with every facet."""
    if len(members) == 1:
        return True
    return any(
        all(f & h & ~g == 0 for k, h in enumerate(members) if k != i)
        for i, f in enumerate(members)
        for j, g in enumerate(members)
        if j != i
    )


def leafless_subcollections(facets: tuple[int, ...]) -> list[int]:
    """Index masks of the nonempty facet subcollections with no leaf, over
    all 2^n of them.  The facets form a forest when the list is empty, and
    a cycle when it is exactly the whole collection."""
    return [
        chosen
        for chosen in range(1, 1 << len(facets))
        if not _has_leaf([facets[i] for i in _bits(chosen)])
    ]


def facets_connected(facets: tuple[int, ...]) -> bool:
    graph = nx.Graph()
    graph.add_nodes_from(range(len(facets)))
    graph.add_edges_from(
        (i, j) for i, j in combinations(range(len(facets)), 2) if facets[i] & facets[j]
    )
    return nx.is_connected(graph)


def seeded_grown_tree(steps):
    """The 7-vertex path after `steps` o-extensions, each at
    random.Random(steps).choice of a vertex of height 1, 2 or 3."""
    rng = random.Random(steps)
    tree = p6()
    for _ in range(steps):
        profile = heights(tree)
        picks = [v for v in tree.vertices if profile.height_of(v) in (1, 2, 3)]
        tree = o_extend(tree, rng.choice(picks))
    return tree


def seeded_pure_complex(seed):
    """A pure complex of 2-7 facets of one size between 2 and n - 2 on
    n = 6 or 7 vertices, drawn by random.Random(seed)."""
    rng = random.Random(seed)
    labels = tuple("abcdefg")[: rng.choice((6, 7))]
    k = rng.randint(2, len(labels) - 2)
    facets = [rng.sample(labels, k) for _ in range(rng.randint(2, 7))]
    return SimplicialComplex.from_facets(Universe(labels), facets)


def disjoint_paths(k):
    """k disjoint 7-vertex paths, the j-th on "tj_0".."tj_6": the tree
    certificate's DAG has 5k - 3 splits, and its tree expansion
    3^(k+1) - 4 nodes."""
    vertices, edges = [], []
    for j in range(k):
        path = [f"t{j}_{i}" for i in range(7)]
        vertices += path
        edges += zip(path, path[1:])
    return Graph.from_vertices(vertices, edges)


def _numbered_tree(n, edges):
    """The tree on "v00".."v<n-1>" with the given "a-b" edges."""
    return Graph.from_vertices(
        [f"v{i:02d}" for i in range(n)],
        [(f"v{a}", f"v{b}") for a, b in (e.split("-") for e in edges.split())],
    )


def tree_past_search_bound():
    """A 26-vertex tree with 18 non-stem vertices, more than the exhaustive
    reference enumerates, and no balanced strata.  search_decomposition
    decomposes it at its bipartition."""
    return _numbered_tree(
        26,
        "00-01 00-03 00-15 01-02 01-08 02-04 02-06 02-13 02-22 02-25 03-05 03-09 "
        "03-20 04-07 06-17 06-23 07-10 08-11 09-12 11-16 12-14 14-18 16-19 17-24 19-21",
    )


def tree_past_class_bound():
    """A 31-vertex tree whose minimal generators are all stem variables, so
    each of its 19 non-stem vertices is a generator class of its own, past
    the 17-class bound of the search that the bipartition rule replaced.
    search_decomposition decomposes it."""
    return _numbered_tree(
        31,
        "00-03 00-09 01-14 01-28 02-16 03-06 03-07 03-23 04-20 05-08 05-09 05-19 "
        "09-11 10-22 10-26 12-23 13-25 14-15 14-21 14-25 14-27 15-19 16-20 16-30 "
        "17-22 18-25 20-25 21-24 22-23 23-29",
    )


# ---------------------------------------------------------------------------
# tree decompositions, checked through graphs and ideals


def reference_verify_decomposition(tree, t1, t2) -> bool:
    """The three decomposition conditions with a HeightProfile per graph
    and the ideal condition as a sum of odd_oni ideals extended to the
    tree's universe."""
    if not tree.is_tree():
        raise InputError("decomposition target must be a tree")
    if not t1.is_subgraph_of(tree) or not t2.is_subgraph_of(tree):
        raise InputError("decomposition pieces must be subgraphs")
    p1, p2 = heights(t1), heights(t2)
    if not p1.balanced or not p2.balanced:
        return False
    u = tree.universe
    even1 = u.mask_of(p1.v_even)
    even2 = u.mask_of(p2.v_even)
    ones = u.mask_of(heights(tree).stratum(1))
    if even1 & even2 or even1 & ones or even2 & ones:
        return False
    if even1 | even2 | ones != u.full_mask():
        return False
    total = (
        odd_oni(t1)
        .extended_to(u)
        .sum(odd_oni(t2).extended_to(u))
        .sum(SquareFreeIdeal.from_supports(u, ([s] for s in u.labels_of(ones))))
    )
    return total == oni(tree)


def _reference_piece(tree, a_mask):
    """The piece on even side a_mask as a Graph: every other vertex whose
    whole, non-empty neighborhood lies inside a_mask, with those edges."""
    u = tree.universe
    b_mask = 0
    for p, nb in enumerate(tree.adj):
        if not a_mask >> p & 1 and nb and nb & ~a_mask == 0:
            b_mask |= 1 << p
    edges = [(u.labels[p], u.labels[q]) for p in _bits(b_mask) for q in _bits(tree.adj[p])]
    return Graph(Universe(u.labels_of(a_mask | b_mask)), edges)


def _reference_even_mask(tree, piece):
    """Even stratum of a piece in the tree's positions, or None when the
    piece is not a balanced forest."""
    profile = heights(piece)
    return tree.universe.mask_of(profile.v_even) if profile.balanced else None


def reference_search_decomposition(tree):
    """The candidate even sides in order, each tried as it comes: the
    balanced strata, then every subset of the non-stem vertices that holds
    the first one, in increasing order.  The enumeration stops at 17
    non-stem vertices: past that, reaching it raises ValueError rather
    than answer "no decomposition" untried.  The first pair of Graph
    pieces that passes the balance and partition filter and
    reference_verify_decomposition is returned."""
    if not tree.is_tree():
        raise InputError("decomposition search needs a tree")
    u = tree.universe
    ambient = heights(tree)
    ones = u.mask_of(ambient.stratum(1))
    w_mask = u.full_mask() & ~ones

    def candidates():
        if ambient.balanced and (ambient.graph_height or 0) <= 3:
            yield u.mask_of(ambient.v_even)
        first, *rest = _bits(w_mask)
        if len(rest) >= 17:
            raise ValueError(
                f"reference enumerates at most 17 non-stem vertices; got {len(rest) + 1}"
            )
        for sub in range(1 << len(rest)):
            yield (1 << first) | sum(1 << p for i, p in enumerate(rest) if sub >> i & 1)

    for a_mask in candidates():
        piece1 = _reference_piece(tree, a_mask)
        even1 = _reference_even_mask(tree, piece1)
        if even1 is None:
            continue
        piece2 = _reference_piece(tree, w_mask & ~a_mask)
        even2 = _reference_even_mask(tree, piece2)
        if even2 is None:
            continue
        if even1 & even2 or (even1 | even2 | ones) != u.full_mask():
            continue
        if reference_verify_decomposition(tree, piece1, piece2):
            return TreeDecomposition(piece1, piece2)
    return None


# ---------------------------------------------------------------------------
# geometric vertex decomposition, checked the long way


def reference_split(ideal, y):
    """One-variable split through labels: every generator is read back as
    its labels without y and rebuilt, minimalized, over a new universe."""
    u = ideal.universe
    if y not in u:
        raise InputError(f"variable {y!r} not in the ideal's universe")
    ybit = 1 << u.position(y)
    rest = Universe(lab for lab in u.labels if lab != y)
    c_supports = []
    n_supports = []
    for m in ideal.generators.masks:
        stripped = u.labels_of(m & ~ybit)
        c_supports.append(stripped)
        if not m & ybit:
            n_supports.append(stripped)
    return (
        SquareFreeIdeal.from_supports(rest, c_supports),
        SquareFreeIdeal.from_supports(rest, n_supports),
    )


def contains_monomial(ideal, support) -> bool:
    """Membership of the square-free monomial with this support."""
    return any(set(g) <= set(support) for g in ideal.generators.members)


def variable_generated(ideal) -> bool:
    """Every minimal generator is a single variable."""
    return all(m.bit_count() == 1 for m in ideal.generators.masks)


def unmixed_oracle(ideal) -> bool:
    """All minimal primes, found by subset search, have one size."""
    return len({len(p) for p in transversals_oracle(ideal.generators.members)}) <= 1


def recombines(ideal, y) -> bool:
    """Does the package's `split` at y give C and N with C ∩ (N + (y)) = I?
    Read over labels: the generators of an intersection of monomial ideals
    are the minimal unions of a generator of each."""
    c_part, n_part = split(ideal, y)
    n_plus_y = [set(g) for g in n_part.generators.members] + [{y}]
    recombined = minimalize(
        frozenset(set(c) | g) for c in c_part.generators.members for g in n_plus_y
    )
    return recombined == {frozenset(g) for g in ideal.generators.members}


def reference_is_gvd(ideal):
    """GVD search straight from the definition: every non-base node passes
    an unmixedness test by subset search before its memo lookup, and every
    split is checked to recombine.  Same canonical order, same memo, so it
    returns the same certificate as `is_gvd`.  It stays exhaustive: a node
    tries every variable, where `is_gvd` stops at the first whose C is not
    GVD, so their agreement on ideals that are not GVD is the test of the
    lemma that C of a GVD ideal is GVD."""
    memo = {}

    def search(current):
        if current.is_unit:
            return Base("unit")
        if current.is_zero:
            return Base("zero")
        if variable_generated(current):
            return Base("vars")
        if not unmixed_oracle(current):
            return None
        key = (current.universe.labels, current.generators.masks)
        if key in memo:
            return memo[key]
        found = None
        for y in current.universe.labels:
            if not recombines(current, y):
                continue
            c_part, n_part = reference_split(current, y)
            c_cert = search(c_part)
            if c_cert is None:
                continue
            n_cert = search(n_part)
            if n_cert is None:
                continue
            found = Split(y, c_cert, n_cert)
            break
        memo[key] = found
        return found

    cert = search(ideal)
    return cert is not None, cert


def entry_lemma_2_is_gvd(ideal):
    """The `is_gvd` search with lemma 2 tested at the entry of every
    non-base node, before any split: the package's own node kernels
    (`_base`, `_disconnected`, `_split_masks`, `_split_height`), with each
    split built by the public `Split` constructor and interned by
    (variable, C node, N node).  Where lemma 2 is tested decides how soon a
    node that is not GVD is settled, and nothing else; the tests hold
    `is_gvd` to this search's verdicts, certificates and sharing."""
    labels = ideal.universe.labels
    splits = {}
    memo = {}

    def search(live, gens):
        key = (live, gens)
        if key in memo:
            return memo[key]
        found = _base(gens)
        if found:
            return found
        if _disconnected(live, gens):
            memo[key] = None
            return None
        rest = live
        while rest:
            ybit = rest & -rest
            rest ^= ybit
            c_gens, n_gens = _split_masks(gens, ybit)
            c_found = search(live ^ ybit, c_gens)
            if c_found is None:
                break
            n_found = search(live ^ ybit, n_gens)
            if n_found is None:
                continue
            height = _split_height(c_gens, c_found[1], n_gens, n_found[1])
            if height is not None:
                split_key = (labels[ybit.bit_length() - 1], id(c_found[0]), id(n_found[0]))
                node = splits.get(split_key)
                if node is None:
                    node = splits[split_key] = Split(split_key[0], c_found[0], n_found[0])
                found = node, height
            break
        memo[key] = found
        return found

    found = search(ideal.universe.full_mask(), ideal.generators.masks)
    return (True, found[0]) if found else (False, None)


def reference_validate_certificate(ideal, cert) -> bool:
    """Replay with an unmixedness test by subset search and a recombination
    check at every Split node."""
    if isinstance(cert, Base):
        if cert.kind == "unit":
            return ideal.is_unit
        if cert.kind == "zero":
            return ideal.is_zero
        if cert.kind == "vars":
            return not ideal.is_unit and variable_generated(ideal)
        return False
    if cert.variable not in ideal.universe:
        return False
    if ideal.is_unit or not unmixed_oracle(ideal):
        return False
    if not recombines(ideal, cert.variable):
        return False
    c_part, n_part = reference_split(ideal, cert.variable)
    return reference_validate_certificate(
        c_part, cert.c_branch
    ) and reference_validate_certificate(n_part, cert.n_branch)


# ---------------------------------------------------------------------------
# structural tree certificates, built piece by piece as graphs and ideals


def reference_structurally_unmixed(adj, comps, height) -> bool:
    """Height and stem/branch counting conditions per component mask in
    `comps`, read off per-position heights (a sequence or a dict)."""
    one = sum(1 << p for comp in comps for p in _bits(comp) if height[p] == 1)
    two = sum(1 << p for comp in comps for p in _bits(comp) if height[p] == 2)
    for comp in comps:
        comp_height = max(height[p] for p in _bits(comp))
        if comp_height > 3:
            return False
        for p in _bits(comp & two):
            if (adj[p] & one).bit_count() != 1:
                return False
        for p in _bits(comp & one):
            hits = (adj[p] & two).bit_count()
            if hits > 1 or (comp_height == 3 and hits != 1):
                return False
    return True


def _profile_unmixed(graph, profile) -> bool:
    """reference_structurally_unmixed on a Graph, its networkx components
    and a HeightProfile's heights."""
    comps = [graph.universe.mask_of(c) for c in components(graph)]
    return reference_structurally_unmixed(graph.adj, comps, profile.heights)


def reference_td_unmixed_balanced_forest(graph) -> bool:
    """False, not an error, when the graph is no balanced forest."""
    profile = heights(graph)
    return profile.balanced and _profile_unmixed(graph, profile)


def reference_find_split_vertex(tree) -> str:
    """First height-2 vertex of degree 2, after a full HeightProfile and
    the profile-based structural check."""
    profile = heights(tree)
    if (
        not profile.is_tree
        or not profile.balanced
        or profile.graph_height != 3
        or not _profile_unmixed(tree, profile)
    ):
        raise InputError("split vertex requires a TD-unmixed balanced tree of height 3")
    for v in profile.stratum(2):
        if degree(tree, v) == 2:
            return v
    raise RuntimeError("no degree-2 height-2 vertex found; this cannot happen")


def reference_split_vertex(adj, present) -> int:
    """The checked split-vertex choice on masks: the dict-form heights pass
    of reference_heights_of_adj, the tree, balance, height-3 and structural
    tests, then the first height-2 vertex of degree 2."""
    height, comps, _, balanced = reference_heights_of_adj(adj, present)
    if (
        len(comps) != 1
        or not balanced
        or max(height.values()) != 3
        or not reference_structurally_unmixed(adj, [present], height)
    ):
        raise InputError("split vertex requires a TD-unmixed balanced tree of height 3")
    for p in _bits(present):
        if height[p] == 2 and (adj[p] & present).bit_count() == 2:
            return p
    raise RuntimeError("no degree-2 height-2 vertex found; this cannot happen")


def _component_ideal(piece, odd):
    even = Universe(v for v in piece.vertices if v not in odd)
    supports = [piece.neighbors(v) for v in piece.vertices if v in odd]
    return SquareFreeIdeal.from_supports(even, supports)


def _vars_or_zero(ideal):
    return Base("zero") if ideal.is_zero else Base("vars")


def _first_variable(ideal):
    return ideal.universe.labels[next(_bits(ideal.generators.masks[0]))]


def _merge_certs(a, ca, b, cb):
    """Certificate for the sum of two ideals on disjoint variables."""
    if isinstance(ca, Base) and ca.kind == "zero":
        return cb
    if isinstance(cb, Base) and cb.kind == "zero":
        return ca
    if isinstance(ca, Base) and ca.kind == "unit":
        return Base("unit")
    if isinstance(cb, Base) and cb.kind == "unit":
        return Base("unit")
    if isinstance(ca, Base) and isinstance(cb, Base):
        return Base("vars")
    if isinstance(ca, Base):
        y = _first_variable(a)
        remainder = reference_split(a, y)[1]
        return Split(y, Base("unit"), _merge_certs(remainder, _vars_or_zero(remainder), b, cb))
    if isinstance(cb, Base):
        y = _first_variable(b)
        remainder = reference_split(b, y)[1]
        return Split(y, Base("unit"), _merge_certs(a, ca, remainder, _vars_or_zero(remainder)))
    c_part, n_part = reference_split(a, ca.variable)
    return Split(
        ca.variable,
        _merge_certs(c_part, ca.c_branch, b, cb),
        _merge_certs(n_part, ca.n_branch, b, cb),
    )


def _merge(a, ca, b, cb):
    combined = Universe(a.universe.labels + b.universe.labels)
    total = a.extended_to(combined).sum(b.extended_to(combined))
    return total, _merge_certs(a, ca, b, cb)


def _chain_certificate(ideal):
    support = ideal.universe.labels_of(ideal.generators.masks[0])
    cert = Base("vars")
    for y in reversed(support[:-1]):
        cert = Split(y, cert, Base("zero"))
    return cert


def _certify_piece(piece, odd, memo):
    total = SquareFreeIdeal.zero(Universe(()))
    cert = Base("zero")
    for comp in components(piece):
        comp_ideal, comp_cert = _certify_component(induced(piece, comp), odd, memo)
        total, cert = _merge(total, cert, comp_ideal, comp_cert)
    return total, cert


def _certify_component(comp, odd, memo):
    ideal = _component_ideal(comp, odd)
    key = (ideal.universe.labels, ideal.generators.masks)
    if key in memo:
        return ideal, memo[key]
    masks = ideal.generators.masks
    if ideal.is_zero:
        cert = Base("zero")
    elif len(masks) == 1:
        cert = _chain_certificate(ideal)
    else:
        singleton = next((m for m in masks if m.bit_count() == 1), None)
        if singleton is not None:
            y = ideal.universe.labels[next(_bits(singleton))]
            _, rest_cert = _certify_piece(comp.delete_closed_neighborhood(y), odd, memo)
            cert = Split(y, Base("unit"), rest_cert)
        else:
            u = reference_find_split_vertex(comp)
            _, c_cert = _certify_piece(comp.delete_vertices([u]), odd, memo)
            _, n_cert = _certify_piece(comp.delete_closed_neighborhood(u), odd, memo)
            cert = Split(u, c_cert, n_cert)
    memo[key] = cert
    return ideal, cert


def reference_certify_tree_gvd(forest):
    """The structural certificate with every piece of the recursion rebuilt
    as an induced Graph, every component ideal as a SquareFreeIdeal over its
    own even universe, and the components summed through union universes;
    memoized on (universe labels, generator masks).  Same canonical choices,
    so it returns the same certificate, with the same node sharing, as
    `certify_tree_gvd`."""
    profile = heights(forest)
    if not profile.balanced or not _profile_unmixed(forest, profile):
        raise InputError("certificate construction needs a TD-unmixed balanced forest")
    _, cert = _certify_piece(forest, frozenset(profile.v_odd), {})
    return cert


def shared(cert):
    """The maximally shared DAG of a certificate: equal subtrees become one
    node.  A walk memoized on the input's node objects rebuilds each
    distinct one once, bottom up, looking each split up by (variable, C
    node, N node) among those already rebuilt, so it takes time linear in
    the distinct nodes, not in the expansion."""
    bases = {}
    splits = {}
    rebuilt = {}

    def walk(node):
        out = rebuilt.get(id(node))
        if out is None:
            if isinstance(node, Base):
                out = bases.setdefault(node.kind, node)
            else:
                c_node, n_node = walk(node.c_branch), walk(node.n_branch)
                key = (node.variable, id(c_node), id(n_node))
                out = splits.get(key)
                if out is None:
                    out = splits[key] = Split(node.variable, c_node, n_node)
            rebuilt[id(node)] = out
        return out

    return walk(cert)

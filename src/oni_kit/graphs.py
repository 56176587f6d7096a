"""Finite simple graphs: neighborhoods, leaf-distance heights, total
domination, neighborhood ideals, stable complexes, tree builders, the
two-piece decomposition machinery, chordality by simplicial-vertex
removal, and the Sperner-family realization construction.

Vertices are labels in a Universe; adjacency is a bitmask per position.
All builders return new immutable graphs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .complexes import SimplicialComplex, _complements
from .errors import InputError
from .ideals import SquareFreeIdeal
from .universe import (
    SpernerFamily,
    Universe,
    _bits,
    _component_masks,
    _eliminates,
    _json_sets,
    _masks_into,
    _sweep,
    minimal_masks,
    minimal_transversals,
)

_FRESH_LABEL = re.compile(r"^p(\d+)_\d+$")


class Graph:
    __slots__ = ("universe", "adj")

    def __init__(self, universe: Universe, edges: Iterable[tuple[str, str]] = ()):
        adj = [0] * len(universe)
        for a, b in edges:
            i, j = universe.position(a), universe.position(b)
            if i == j:
                raise InputError(f"loop at vertex {a!r} (graphs are simple)")
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        self.universe = universe
        self.adj = tuple(adj)

    @classmethod
    def from_vertices(
        cls, vertices: Iterable[str], edges: Iterable[tuple[str, str]] = ()
    ) -> "Graph":
        return cls(Universe(vertices), edges)

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.universe.labels

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        labels = self.universe.labels
        return tuple(
            (labels[i], labels[j])
            for i, mask in enumerate(self.adj)
            for j in _bits(mask)
            if j > i
        )

    def __len__(self) -> int:
        return len(self.universe)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.universe == other.universe
            and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return hash((self.universe.labels, self.adj))

    def __repr__(self) -> str:
        return f"Graph({len(self)} vertices, {len(self.edges)} edges)"

    def neighbors(self, v: str) -> tuple[str, ...]:
        return self.universe.labels_of(self.adj[self.universe.position(v)])

    def closed_neighbors(self, v: str) -> tuple[str, ...]:
        p = self.universe.position(v)
        return self.universe.labels_of(self.adj[p] | (1 << p))

    def delete_vertices(self, gone: Iterable[str]) -> "Graph":
        keep = self.universe.full_mask() & ~self.universe.mask_of(gone)
        return _subgraph(self, self.adj, keep)

    def delete_closed_neighborhood(self, v: str) -> "Graph":
        return self.delete_vertices(self.closed_neighbors(v))

    def is_forest(self) -> bool:
        return HeightProfile(self).is_forest

    def is_tree(self) -> bool:
        return HeightProfile(self).is_tree

    def is_subgraph_of(self, other: "Graph") -> bool:
        return set(self.vertices) <= set(other.vertices) and set(self.edges) <= set(other.edges)

    def to_json_obj(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [list(e) for e in self.edges],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Graph":
        universe, pairs = _json_sets(obj, "graph", "vertices", "edges")
        edges = []
        for e in pairs:
            if len(e) != 2:
                raise InputError(f"edge {e!r} is not a pair")
            edges.append((e[0], e[1]))
        return cls(universe, edges)

    @classmethod
    def from_text(cls, text: str) -> "Graph":
        edges: list[tuple[str, str]] = []
        declared: set[str] = set()
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if len(parts) == 2 and parts[0] == "vertex":
                    declared.add(parts[1])
                continue
            parts = line.split()
            if len(parts) != 2:
                raise InputError(f"expected 'a b' edge line, got {raw!r}")
            edges.append((parts[0], parts[1]))
        declared.update(v for e in edges for v in e)
        return cls(Universe(declared), edges)


def _strata(adj: Sequence[int], present: int) -> list[int]:
    """Leaf-distance height strata of the subgraph on `present` positions
    with the given (possibly non-induced) adjacency masks: the sweep from
    the vertices of degree at most 1.  A vertex in no stratum has no leaf
    in its component."""
    layer = 0
    for p in _bits(present):
        if (adj[p] & present).bit_count() <= 1:
            layer |= 1 << p
    return _sweep(adj, present, layer)


def _heights_of_adj(
    adj: Sequence[int], present: int
) -> tuple[list[int], tuple[int, ...], bool, bool]:
    """Height strata, component masks (by `_component_masks`), forest flag
    and balance flag for the subgraph on `present` positions with the
    given adjacency masks.  Balanced means a forest in which no stratum
    holds an edge; every vertex of a forest lies in a stratum, since each
    of its components has a vertex of degree <= 1.  The strata are
    disjoint, so the sum of any of them is their union."""
    strata = _strata(adj, present)
    comps = _component_masks(adj, present)
    edge_twice = sum((adj[p] & present).bit_count() for p in _bits(present))
    forest = edge_twice // 2 == present.bit_count() - len(comps)
    balanced = forest and not any(adj[p] & s for s in strata for p in _bits(s))
    return strata, comps, forest, balanced


class HeightProfile:
    """Per-vertex leaf distances with parity strata and the balance flag."""

    __slots__ = ("universe", "heights", "is_forest", "is_tree", "balanced", "_strata")

    def __init__(self, graph: Graph):
        strata, comps, forest, balanced = _heights_of_adj(
            graph.adj, graph.universe.full_mask()
        )
        by_pos: list[Optional[int]] = [None] * len(graph.universe)
        for k, layer in enumerate(strata):
            for p in _bits(layer):
                by_pos[p] = k
        self.universe = graph.universe
        self.heights = tuple(by_pos)
        self.is_forest = forest
        self.is_tree = forest and len(comps) == 1
        self.balanced = balanced
        self._strata = strata

    def height_of(self, v: str) -> Optional[int]:
        return self.heights[self.universe.position(v)]

    @property
    def graph_height(self) -> Optional[int]:
        return len(self._strata) - 1 if self._strata else None

    def stratum(self, k: int) -> tuple[str, ...]:
        in_range = 0 <= k < len(self._strata)
        return self.universe.labels_of(self._strata[k] if in_range else 0)

    @property
    def v_odd(self) -> tuple[str, ...]:
        return self.universe.labels_of(sum(self._strata[1::2]))

    @property
    def v_even(self) -> tuple[str, ...]:
        return self.universe.labels_of(sum(self._strata[0::2]))

    def to_json_obj(self) -> dict:
        return {
            "heights": {
                lab: self.heights[p]
                for p, lab in enumerate(self.universe.labels)
            },
            "height": self.graph_height,
            "balanced": self.balanced,
            "forest": self.is_forest,
            "tree": self.is_tree,
            "odd": list(self.v_odd),
            "even": list(self.v_even),
        }


def heights(graph: Graph) -> HeightProfile:
    return HeightProfile(graph)


def oni(graph: Graph) -> SquareFreeIdeal:
    """Open neighborhood ideal over the full vertex set: the minimal
    neighborhood masks.  An isolated vertex contributes the empty mask,
    collapsing the ideal to UNIT."""
    return SquareFreeIdeal(SpernerFamily._canonical(graph.universe, minimal_masks(graph.adj)))


def odd_oni(graph: Graph) -> SquareFreeIdeal:
    """Odd-vertex neighborhood ideal of a balanced forest, read over the
    even vertices.  Balance puts every odd vertex's neighborhood in the
    even strata, so the minimal ones, read over the even vertices, whose
    positions keep their order (see `universe._masks_into`), are the
    ideal's canonical generators.

    They are read over the even vertices by position, with no label: one
    table, built from the even mask, maps each graph position to its
    position among the even vertices.  Both universes are sorted, so that
    map is increasing, and each generator's bits are moved through it."""
    u = graph.universe
    strata, _, _, balanced = _heights_of_adj(graph.adj, u.full_mask())
    if not balanced:
        raise InputError("graph is not a balanced forest")
    evens = tuple(_bits(sum(strata[0::2])))
    even_at = [0] * len(u)
    for i, p in enumerate(evens):
        even_at[p] = i
    masks = []
    for m in minimal_masks(graph.adj[p] for p in _bits(sum(strata[1::2]))):
        mask = 0
        while m:  # popped inline, lowest first: no `_bits` generator per generator
            low = m & -m
            mask |= 1 << even_at[low.bit_length() - 1]
            m ^= low
        masks.append(mask)
    even = Universe(u.labels[p] for p in evens)
    return SquareFreeIdeal(SpernerFamily._canonical(even, tuple(masks)))


def induced_odd_oni(sub: Graph, graph: Graph) -> SquareFreeIdeal:
    """Neighborhoods taken inside the subgraph, odd/even strata taken from
    the ambient graph."""
    if not sub.is_subgraph_of(graph):
        raise InputError("first argument must be a subgraph of the second")
    profile = heights(graph)
    if any(h is None for h in profile.heights):
        raise InputError("ambient heights are undefined (a component has no leaf)")
    sub_labels = set(sub.vertices)
    even = Universe(v for v in profile.v_even if v in sub_labels)
    supports = []
    for v in profile.v_odd:
        if v in sub_labels:
            nb = sub.neighbors(v)
            for u in nb:
                if u not in even:
                    raise InputError(
                        f"neighborhood of {v!r} leaves the even stratum at {u!r}; "
                        "the ambient graph is not balanced"
                    )
            supports.append(nb)
    return SquareFreeIdeal.from_supports(even, supports)


def minimal_td_sets(graph: Graph) -> SpernerFamily:
    """Minimal total dominating sets: minimal transversals of the open
    neighborhoods.  Empty when an isolated vertex forbids domination."""
    return minimal_transversals(oni(graph).generators)


def minimal_odd_td_sets(graph: Graph) -> SpernerFamily:
    """Minimal sets dominating every odd vertex of a balanced forest;
    always contained in the even stratum, and returned over it."""
    return minimal_transversals(odd_oni(graph).generators)


def is_td_unmixed(graph: Graph) -> bool:
    sizes = {m.bit_count() for m in minimal_td_sets(graph).masks}
    return len(sizes) <= 1


def _structurally_unmixed(adj: Sequence[int], comps: Sequence[int], strata: list[int]) -> bool:
    """Height and stem/branch counting conditions, per component of the
    balanced forest with the components `comps` and the strata that
    `_heights_of_adj` gave:
    height at most 3, every height-2 vertex next to exactly one height-1
    vertex, and every height-1 vertex next to at most one height-2 vertex,
    exactly one when its component has height 3."""
    if len(strata) > 4:
        return False
    one, two, three = (strata[1:] + [0, 0, 0])[:3]
    for comp in comps:
        for p in _bits(comp & two):
            if (adj[p] & one).bit_count() != 1:
                return False
        for p in _bits(comp & one):
            hits = (adj[p] & two).bit_count()
            if hits > 1 or (comp & three and hits != 1):
                return False
    return True


def is_structurally_td_unmixed(tree: Graph) -> bool:
    """Height and stem/branch counting conditions on a balanced tree,
    equivalent to unmixedness without enumerating a single TD-set."""
    strata, comps, _, balanced = _heights_of_adj(tree.adj, tree.universe.full_mask())
    if len(comps) != 1 or not balanced:
        raise InputError("structural unmixedness test needs a balanced tree")
    return _structurally_unmixed(tree.adj, comps, strata)


def stable_complex(graph: Graph) -> SimplicialComplex:
    """Complements of the minimal TD-sets, the Stanley-Reisner complex of
    oni; void when no TD-set exists."""
    return SimplicialComplex._of(_complements(minimal_td_sets(graph)))


def even_stable_complex(graph: Graph) -> SimplicialComplex:
    """Complements, inside the even stratum, of the minimal odd-TD-sets:
    the Stanley-Reisner complex of odd_oni."""
    return SimplicialComplex._of(_complements(minimal_odd_td_sets(graph)))


def path_graph(n: int) -> Graph:
    """Path on vertices "0".."n" (n+1 vertices)."""
    if n < 0:
        raise InputError("path length must be nonnegative")
    labels = [str(i) for i in range(n + 1)]
    return Graph(Universe(labels), ((str(i), str(i + 1)) for i in range(n)))


def edge_join(g1: Graph, g2: Graph, v1: str, v2: str) -> Graph:
    """Disjoint union plus the single bridge edge {v1, v2}."""
    shared = set(g1.vertices) & set(g2.vertices)
    if shared:
        raise InputError(
            f"edge join needs disjoint labels; shared: {', '.join(sorted(shared))}"
        )
    if v1 not in g1.universe:
        raise InputError(f"vertex {v1!r} not in the first graph")
    if v2 not in g2.universe:
        raise InputError(f"vertex {v2!r} not in the second graph")
    universe = Universe(g1.vertices + g2.vertices)
    edges = list(g1.edges) + list(g2.edges) + [(v1, v2)]
    return Graph(universe, edges)


def _next_fresh_counter(graph: Graph) -> int:
    best = 0
    for lab in graph.vertices:
        m = _FRESH_LABEL.match(lab)
        if m:
            best = max(best, int(m.group(1)))
    return best + 1


def o_extend(tree: Graph, v: str) -> Graph:
    """Attach a fresh path to v, sized by v's height (1, 2, or 3), keeping
    the result a balanced height-3 tree."""
    profile = heights(tree)
    if not profile.is_tree or not profile.balanced or profile.graph_height != 3:
        raise InputError("o-extension needs a balanced tree of height 3")
    if v not in tree.universe:
        raise InputError(f"vertex {v!r} not in the tree")
    h = profile.height_of(v)
    if h == 0:
        raise InputError(f"vertex {v!r} has height 0; extension needs height >= 1")
    assert h is not None
    path_top = {1: 0, 2: 3, 3: 2}[h]
    k = _next_fresh_counter(tree)
    labels = [f"p{k}_{i}" for i in range(path_top + 1)]
    branch = Graph(
        Universe(labels),
        ((labels[i], labels[i + 1]) for i in range(path_top)),
    )
    return edge_join(tree, branch, v, labels[path_top])


def o_sequence(picks: Iterable[str]) -> Graph:
    """Fold o_extend over a list of vertex choices, starting from the
    7-vertex path."""
    tree = path_graph(6)
    for step, v in enumerate(picks):
        try:
            tree = o_extend(tree, v)
        except InputError as exc:
            raise InputError(f"step {step}: {exc}") from None
    return tree


def _split_vertex(adj: Sequence[int], present: int) -> int:
    """Position of the first height-2 vertex of degree 2 in the TD-unmixed
    balanced height-3 tree on `present`, heights taken inside it.

    The tree is not checked here, so its components are not counted and
    its balance is not tested: `find_split_vertex` checks it, and
    `gvd.certify_tree_gvd` checks its forest once, at entry."""
    for p in _bits(_strata(adj, present)[2]):
        if (adj[p] & present).bit_count() == 2:
            return p
    raise RuntimeError("no degree-2 height-2 vertex found; this cannot happen")


def find_split_vertex(tree: Graph) -> str:
    """Canonically first height-2 vertex of degree 2 in a TD-unmixed
    balanced height-3 tree."""
    full = tree.universe.full_mask()
    strata, comps, _, balanced = _heights_of_adj(tree.adj, full)
    if (
        len(comps) != 1
        or not balanced
        or len(strata) != 4
        or not _structurally_unmixed(tree.adj, comps, strata)
    ):
        raise InputError(
            "split vertex requires a TD-unmixed balanced tree of height 3"
        )
    return tree.universe.labels[_split_vertex(tree.adj, full)]


@dataclass(frozen=True)
class TreeDecomposition:
    t1: Graph
    t2: Graph


def _in_positions(tree: Graph, piece: Graph) -> tuple[list[int], int]:
    """A subgraph's adjacency masks and vertex mask in the tree's positions.
    Both universes are sorted, so the piece's positions keep their order."""
    present, *moved = _masks_into(
        piece.universe, tree.universe, (piece.universe.full_mask(), *piece.adj)
    )
    adj = [0] * len(tree.universe)
    for p, nb in zip(_bits(present), moved):
        adj[p] = nb
    return adj, present


def verify_decomposition(tree: Graph, t1: Graph, t2: Graph) -> bool:
    """Check the three decomposition conditions exactly: both pieces are
    balanced forests, their even strata partition the vertices together
    with the ambient height-1 stratum, and the odd vertices' piece
    neighborhoods plus the stem variables generate the tree's neighborhood
    ideal.  The pieces are read as adjacency masks in the tree's
    positions."""
    adj = tree.adj
    strata, comps, forest, _ = _heights_of_adj(adj, tree.universe.full_mask())
    if not (forest and len(comps) == 1):
        raise InputError("decomposition target must be a tree")
    if not t1.is_subgraph_of(tree) or not t2.is_subgraph_of(tree):
        raise InputError("decomposition pieces must be subgraphs")
    covered = sum(strata[1:2])
    gens = [1 << p for p in _bits(covered)]
    for piece, present in (_in_positions(tree, t) for t in (t1, t2)):
        piece_strata, _, _, balanced = _heights_of_adj(piece, present)
        if not balanced:
            return False
        even = sum(piece_strata[0::2])
        if even & covered:
            return False
        covered |= even
        gens.extend(piece[p] for p in _bits(present & ~even))
    return covered == (1 << len(adj)) - 1 and minimal_masks(gens) == minimal_masks(adj)


def _piece(adj: Sequence[int], a_mask: int) -> tuple[list[int], int]:
    """The piece on the even side `a_mask`: every other vertex whose
    whole, non-empty neighborhood lies inside it, joined to that
    neighborhood, as (adjacency masks, present mask) in the tree's
    positions."""
    piece = [0] * len(adj)
    present = a_mask
    for p, nb in enumerate(adj):
        if nb and not a_mask >> p & 1 and nb & ~a_mask == 0:
            present |= 1 << p
            piece[p] = nb
            for q in _bits(nb):
                piece[q] |= 1 << p
    return piece, present


def _subgraph(graph: Graph, adj: Sequence[int], present: int) -> Graph:
    """The subgraph on the `present` positions with the given adjacency
    masks, as a Graph on its labels."""
    labels = graph.universe.labels
    return Graph(
        Universe(graph.universe.labels_of(present)),
        ((labels[p], labels[q]) for p in _bits(present) for q in _bits(adj[p] & present) if q > p),
    )


def search_decomposition(tree: Graph) -> Optional[TreeDecomposition]:
    """The tree's decomposition at its bipartition, or None when the tree
    has fewer than 3 vertices: with S the stems (height 1) and W the other
    vertices, the even sides are A, W's part of the colour class of the
    first leaf, and B = W - A.  On a balanced tree A is the even strata.

    The pieces are not checked: every tree T on 3 or more vertices
    decomposes so.  For A inside W, _piece(A) joins to A only the x
    outside A with N(x) non-empty and inside A.  No such x is a leaf, as a
    leaf's neighbour is a stem, so every leaf of the piece lies in A; its
    heights are even on A and odd on the x, and it is a balanced forest
    with even stratum A.  Balance and partition hold.  The ideal condition
    reduces to: every minimal generator N(v) of oni(T) with two or more
    elements lies on one side, and v off it (in a tree, N(x) = N(v) with
    x != v closes a 4-cycle).  N(v) has the colour opposite to v's, so
    both colour sides pass.  K1 and K2 do not decompose: every vertex of
    a subgraph has degree at most 1, hence height 0, so neither piece has
    an odd vertex and the tree has no stem, and the three-term sum is the
    zero ideal, which oni(K1) = (1) and oni(K2) = (a, b) are not."""
    full = tree.universe.full_mask()
    strata, comps, forest, _ = _heights_of_adj(tree.adj, full)
    if not (forest and len(comps) == 1):
        raise InputError("decomposition search needs a tree")
    if len(tree.universe) < 3:
        return None
    ones = sum(strata[1:2])
    w_mask = full & ~ones
    colour = sum(_sweep(tree.adj, full, strata[0] & -strata[0])[0::2])
    pieces = [_piece(tree.adj, a) for a in (w_mask & colour, w_mask & ~colour)]
    return TreeDecomposition(*(_subgraph(tree, *piece) for piece in pieces))


def is_chordal(graph: Graph) -> bool:
    """Simplicial-vertex removal by `_eliminates`: a vertex goes when the
    neighbours it has left are pairwise adjacent.  A chordal graph has a
    simplicial vertex and its induced subgraphs are chordal (Dirac), so the
    removal never gets stuck on one.  If it removes every vertex, the graph
    is chordal: of an induced cycle of length 4 or more, the vertex removed
    first still had its two cycle neighbours, which are not adjacent.  The
    removal order is a perfect elimination ordering."""
    adj = graph.adj

    def simplicial(p: int, left: int) -> bool:
        hood = adj[p] & left
        return all(hood & ~adj[q] == 1 << q for q in _bits(hood))

    return _eliminates(adj, graph.universe.full_mask(), simplicial)


def realize_as_oni(family: SpernerFamily) -> Graph:
    """Complete graph on the family's ground set plus one fresh vertex per
    minimal transversal, wired so the minimal TD-sets are exactly the
    family members."""
    base = family.universe
    covered = 0
    for m in family.masks:
        if m.bit_count() < 2:
            members = ", ".join(base.labels_of(m))
            raise InputError(
                f"family member {{{members}}} has fewer than 2 elements"
            )
        covered |= m
    if covered != base.full_mask():
        missing = base.labels_of(base.full_mask() & ~covered)
        raise InputError(f"family does not cover its universe: {', '.join(missing)}")
    transversals = minimal_transversals(family)
    fresh = [f"t{i + 1}" for i in range(len(transversals.masks))]
    for lab in fresh:
        if lab in base:
            raise InputError(f"fresh label {lab!r} collides with the ground set")
    universe = Universe(base.labels + tuple(fresh))
    edges: list[tuple[str, str]] = []
    labels = base.labels
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            edges.append((labels[i], labels[j]))
    for t_lab, t_mask in zip(fresh, transversals.masks):
        edges.extend((t_lab, v) for v in base.labels_of(t_mask))
    return Graph(universe, edges)

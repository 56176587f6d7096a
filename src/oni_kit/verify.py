"""Bundled end-to-end golden checks.

`run_verification` replays the library's reference examples (the five-set
Sperner family and its realization, the reference path and tree values, the
splitting and decomposition laws, the negative controls) and returns a
JSON-ready report.  The CLI exposes it as `verify-paper`.

Kernel entry points are called through this module's globals on purpose:
swapping one out (say `minimal_transversals`) makes the affected checks fail,
which is how the fault-injection tests confirm the suite has teeth.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from .complexes import (
    VOID,
    SimplicialComplex,
    find_leaf,
    is_connected_complex,
    is_cycle,
    is_shedding_vertex,
    is_simplicial_forest,
    is_simplicial_tree,
    is_vertex_decomposable,
    join,
    stanley_reisner_complex,
    stanley_reisner_ideal,
    validate_shedding_certificate,
)
from .fixtures import beg_a, p6, t_a, twin_broom
from .graphs import (
    Graph,
    HeightProfile,
    even_stable_complex,
    find_split_vertex,
    induced_odd_oni,
    is_chordal,
    is_structurally_td_unmixed,
    is_td_unmixed,
    minimal_odd_td_sets,
    minimal_td_sets,
    o_extend,
    odd_oni,
    oni,
    realize_as_oni,
    search_decomposition,
    stable_complex,
    verify_decomposition,
)
from .gvd import (
    BASE_UNIT,
    BASE_ZERO,
    Base,
    certify_tree_gvd,
    is_gvd,
    split,
    validate_certificate,
)
from .ideals import SquareFreeIdeal
from .universe import (
    SpernerFamily,
    Universe,
    brute_force_transversals,
    minimal_transversals,
)

# frozen reference values
FAMILY_TAU = (
    ("v1", "v3"),
    ("v1", "v5"),
    ("v2", "v3"),
    ("v2", "v4"),
    ("v3", "v4"),
)
P6_TD_SETS = (("0", "1", "4", "5"), ("1", "2", "4", "5"), ("1", "2", "5", "6"))
P6_ODD_TD_SETS = (("0", "4"), ("2", "4"), ("2", "6"))
P6_ONI_GENS = (("1",), ("5",), ("0", "2"), ("2", "4"), ("4", "6"))
P6_ODD_ONI_GENS = (("0", "2"), ("2", "4"), ("4", "6"))
P6_EVEN_STABLE_FACETS = (("0", "4"), ("0", "6"), ("2", "6"))
TREE_ONI_GENS = (
    ("s1",),
    ("s2",),
    ("s3",),
    ("l1", "u1"),
    ("l2", "u2"),
    ("l3", "l4", "u3"),
    ("u1", "u2"),
    ("u2", "u3"),
)
TREE_ODD_ONI_GENS = (
    ("l1", "u1"),
    ("l2", "u2"),
    ("l3", "l4", "u3"),
    ("u1", "u2"),
    ("u2", "u3"),
)


def _family_sets(family: SpernerFamily) -> set[frozenset[str]]:
    return {frozenset(member) for member in family.members}


def _render(sets: Iterable[frozenset[str]]) -> str:
    ordered = sorted(sets, key=lambda s: (len(s), tuple(sorted(s))))
    return "{" + ", ".join("{" + ",".join(sorted(s)) + "}" for s in ordered) + "}"


def _expect_family(
    got: SpernerFamily, want: Iterable[Iterable[str]], what: str
) -> Optional[str]:
    wanted = {frozenset(s) for s in want}
    actual = _family_sets(got)
    if actual != wanted:
        return f"{what}: got {_render(actual)}, wanted {_render(wanted)}"
    return None


def _ideal(labels: Iterable[str], supports: Iterable[Iterable[str]]) -> SquareFreeIdeal:
    return SquareFreeIdeal.from_supports(Universe(labels), supports)


def _star() -> Graph:
    return Graph(Universe(["a", "b", "c"]), [("a", "c"), ("b", "c")])


def _seven_cycle_edge_ideal() -> SquareFreeIdeal:
    labels = [str(i) for i in range(7)]
    return _ideal(labels, ((str(i), str((i + 1) % 7)) for i in range(7)))


def _isolated(labels: Iterable[str]) -> Graph:
    return Graph(Universe(labels), ())


# ---------------------------------------------------------------------------
# checks: each yields its problems, as strings, and None for a step that passed


def _check_dualization_quintet() -> Iterator[Optional[str]]:
    family = beg_a()
    tau = minimal_transversals(family)
    yield _expect_family(tau, FAMILY_TAU, "minimal transversals")
    if minimal_transversals(tau) != family:
        yield "double dualization drifted off the input family"
    if brute_force_transversals(family) != tau:
        yield "brute-force oracle disagrees with the kernel"


def _check_family_realization() -> Iterator[Optional[str]]:
    family = beg_a()
    graph = realize_as_oni(family)
    if len(graph.vertices) != 10:
        yield f"expected 10 vertices, got {len(graph.vertices)}"
    td = minimal_td_sets(graph)
    if _family_sets(td) != _family_sets(family):
        yield f"minimal TD-sets are not the input family: {_render(_family_sets(td))}"
    yield _expect_family(oni(graph).generators, FAMILY_TAU, "neighborhood ideal generators")
    if not is_chordal(graph):
        yield "realized graph is not chordal"


def _check_path_reference_values() -> Iterator[Optional[str]]:
    path = p6()
    for got, want, what in (
        (minimal_td_sets(path), P6_TD_SETS, "minimal TD-sets"),
        (minimal_odd_td_sets(path), P6_ODD_TD_SETS, "minimal odd TD-sets"),
        (oni(path).generators, P6_ONI_GENS, "neighborhood ideal"),
        (odd_oni(path).generators, P6_ODD_ONI_GENS, "odd neighborhood ideal"),
        (even_stable_complex(path).facets, P6_EVEN_STABLE_FACETS, "even-stable facets"),
    ):
        yield _expect_family(got, want, what)


def _check_reference_tree_values() -> Iterator[Optional[str]]:
    tree = t_a()
    yield _expect_family(oni(tree).generators, TREE_ONI_GENS, "neighborhood ideal")
    yield _expect_family(odd_oni(tree).generators, TREE_ODD_ONI_GENS, "odd neighborhood ideal")
    if not is_td_unmixed(tree):
        yield "reference tree is not TD-unmixed"
    if not is_structurally_td_unmixed(tree):
        yield "reference tree fails the structural test"


def _check_splitting_steps() -> Iterator[Optional[str]]:
    for graph, name in ((p6(), "path"), (t_a(), "tree")):
        ideal = odd_oni(graph)
        u = find_split_vertex(graph)
        c_part, n_part = split(ideal, u)
        want_c = induced_odd_oni(graph.delete_vertices([u]), graph)
        want_n = odd_oni(graph.delete_closed_neighborhood(u))
        if c_part != want_c:
            yield f"{name}: C branch at {u} is {c_part!r}, wanted {want_c!r}"
        if n_part != want_n:
            yield f"{name}: N branch at {u} is {n_part!r}, wanted {want_n!r}"
    broom = twin_broom()
    c_part, n_part = split(odd_oni(broom), "u")
    yield _expect_family(c_part.generators, (("up",), ("l1", "l2")), "broom C branch")
    yield _expect_family(n_part.generators, (("lp1", "lp2", "up"),), "broom N branch")
    principal = _ideal(["y"], [["y"]])
    c_part, n_part = split(principal, "y")
    if not c_part.is_unit or not n_part.is_zero:
        yield "splitting a principal variable ideal should give (unit, zero)"


def _check_intersection_identity() -> Iterator[Optional[str]]:
    labels = ["0", "2", "4", "6"]
    left = _ideal(labels, [["2"], ["6"]])
    right = _ideal(labels, [["0", "2"], ["4"]])
    if left.intersect(right) != odd_oni(p6()):
        yield "C ∩ (N + <y>) does not reassemble the odd neighborhood ideal"


def _check_induced_subtree_ideals() -> Iterator[Optional[str]]:
    tree = t_a()
    sub = tree.delete_vertices(["u1"])
    yield _expect_family(
        induced_odd_oni(sub, tree).generators,
        (("l1",), ("u2",), ("l3", "l4", "u3")),
        "vertex-deleted ideal",
    )
    closed = tree.delete_closed_neighborhood("u1")
    yield _expect_family(
        induced_odd_oni(closed, tree).generators,
        (("l2", "u2"), ("l3", "l4", "u3"), ("u2", "u3")),
        "neighborhood-deleted ideal",
    )
    odd = set(HeightProfile(tree).v_odd)
    if set(HeightProfile(tree.delete_vertices(["r1"])).v_odd) != odd - {"r1"}:
        yield "odd stratum after deleting a top vertex drifted"
    if set(HeightProfile(closed).v_odd) != odd - {"s1", "r1"}:
        yield "odd stratum after deleting a closed neighborhood drifted"


def _check_decomposition_laws() -> Iterator[Optional[str]]:
    cases = (
        ("path", p6(), ("3",)),
        ("tree", t_a(), ("r1", "r2")),
    )
    for name, tree, tops in cases:
        piece1 = tree
        piece2 = _isolated(tops)
        if not verify_decomposition(tree, piece1, piece2):
            yield f"{name}: canonical decomposition rejected"
            continue
        total = odd_oni(piece1).extended_to(tree.universe).sum(
            odd_oni(piece2).extended_to(tree.universe)
        )
        ones = HeightProfile(tree).stratum(1)
        stems = SquareFreeIdeal.from_supports(tree.universe, ([v] for v in ones))
        if total.sum(stems) != oni(tree):
            yield f"{name}: three-term ideal sum drifted"
        joined = join(even_stable_complex(piece1), even_stable_complex(piece2))
        if joined.extended_to(tree.universe) != stable_complex(tree):
            yield f"{name}: stable complex is not the join of the pieces"
        ones_set = set(ones)
        rebuilt = {
            frozenset(a) | frozenset(b) | ones_set
            for a in minimal_odd_td_sets(piece1).members
            for b in minimal_odd_td_sets(piece2).members
        }
        if rebuilt != _family_sets(minimal_td_sets(tree)):
            yield f"{name}: TD-sets are not the piecewise products"
        found = search_decomposition(tree)
        if found is None or not verify_decomposition(tree, found.t1, found.t2):
            yield f"{name}: search failed to produce a valid decomposition"
    if verify_decomposition(p6(), p6(), _isolated(())):
        yield "empty second piece was accepted for the path"


def _check_split_vertex_choice() -> Iterator[Optional[str]]:
    if find_split_vertex(p6()) != "2":
        yield f"path split vertex: {find_split_vertex(p6())!r}"
    if find_split_vertex(t_a()) != "u1":
        yield f"tree split vertex: {find_split_vertex(t_a())!r}"


def _check_height_extensions() -> Iterator[Optional[str]]:
    base = p6()
    base_edges = set(base.edges)
    cases = (
        ("1", {("1", "p1_0")}),
        (
            "4",
            {("p1_0", "p1_1"), ("p1_1", "p1_2"), ("p1_2", "p1_3"), ("4", "p1_3")},
        ),
        ("3", {("p1_0", "p1_1"), ("p1_1", "p1_2"), ("3", "p1_2")}),
    )
    for v, added in cases:
        grown = o_extend(base, v)
        if set(grown.edges) != base_edges | added:
            yield f"extension at {v!r} grew the wrong edges"
            continue
        if not HeightProfile(grown).balanced:
            yield f"extension at {v!r} broke balance"
        elif not is_structurally_td_unmixed(grown):
            yield f"extension at {v!r} broke structural unmixedness"


def _check_gvd_decisions() -> Iterator[Optional[str]]:
    ideal = odd_oni(p6())
    ok, cert = is_gvd(ideal)
    if not ok or cert is None or not validate_certificate(ideal, cert):
        yield "path ideal should be decomposable with a replayable certificate"
    ok, cert = is_gvd(SquareFreeIdeal.unit(Universe(["x"])))
    if (ok, cert) != (True, Base(BASE_UNIT)):
        yield "unit ideal decision drifted"
    ok, cert = is_gvd(SquareFreeIdeal.zero(Universe(["x"])))
    if (ok, cert) != (True, Base(BASE_ZERO)):
        yield "zero ideal decision drifted"
    ring = _seven_cycle_edge_ideal()
    if not ring.is_unmixed():
        yield "seven-cycle edge ideal should be unmixed"
    ok, _ = is_gvd(ring)
    if ok:
        yield "seven-cycle edge ideal should not be decomposable"
    complex_ = stanley_reisner_complex(ring)
    if not complex_.is_pure():
        yield "seven-cycle independence complex should be pure"
    vd, _ = is_vertex_decomposable(complex_)
    if vd:
        yield "seven-cycle independence complex should not be vertex decomposable"


def _check_tree_certificates() -> Iterator[Optional[str]]:
    double_star = Graph(
        Universe(["a", "b", "c", "d", "e", "f"]),
        [("a", "c"), ("b", "c"), ("d", "f"), ("e", "f")],
    )
    for graph, name in (
        (p6(), "path"),
        (t_a(), "tree"),
        (twin_broom(), "broom"),
        (double_star, "forest"),
    ):
        cert = certify_tree_gvd(graph)
        if not validate_certificate(odd_oni(graph), cert):
            yield f"{name}: structural certificate does not replay"


def _check_stable_complexes() -> Iterator[Optional[str]]:
    path = p6()
    if stanley_reisner_ideal(stable_complex(path)) != oni(path):
        yield "stable complex and neighborhood ideal disagree"
    if stanley_reisner_ideal(even_stable_complex(path)) != odd_oni(path):
        yield "even-stable complex and odd neighborhood ideal disagree"
    yield _expect_family(
        even_stable_complex(_star()).facets, (("a",), ("b",)), "star even-stable facets"
    )
    lonely = _isolated(("w",))
    if stable_complex(lonely).kind != VOID:
        yield "a dominated-by-nobody vertex should give the void complex"


def _check_leaf_and_cycle_order() -> Iterator[Optional[str]]:
    universe = Universe(["a", "b", "c", "d", "e", "f"])
    chain = SimplicialComplex.from_facets(
        universe, [("a", "b", "c"), ("c", "d"), ("d", "e", "f")]
    )
    found = find_leaf(chain)
    if found is None:
        yield "three-facet chain should have a leaf"
    elif found != (("a", "b", "c"), ("c", "d")):
        yield f"leaf search returned {found!r}"
    triangle = SimplicialComplex.from_facets(
        Universe(["a", "b", "c"]), [("a", "b"), ("b", "c"), ("a", "c")]
    )
    if find_leaf(triangle) is not None:
        yield "triangle boundary should have no leaf"
    if not is_cycle(triangle):
        yield "triangle boundary should be a cycle"


def _check_shedding_examples() -> Iterator[Optional[str]]:
    cx = even_stable_complex(p6())
    if not is_shedding_vertex(cx, "4"):
        yield "vertex 4 should shed in the even-stable path complex"
    two_edges = SimplicialComplex.from_facets(
        Universe(["a", "b", "c", "d"]), [("a", "b"), ("c", "d")]
    )
    if is_shedding_vertex(two_edges, "a"):
        yield "no vertex of two disjoint edges sheds"
    one_edge = SimplicialComplex.from_facets(Universe(["a", "b"]), [("a", "b")])
    if is_shedding_vertex(one_edge, "a"):
        yield "an edge endpoint never sheds"
    ok, cert = is_vertex_decomposable(cx)
    if not ok or cert is None or not validate_shedding_certificate(cx, cert):
        yield "even-stable path complex should be vertex decomposable"


def _check_chordality_controls() -> Iterator[Optional[str]]:
    square = Graph(
        Universe(["0", "1", "2", "3"]),
        [("0", "1"), ("1", "2"), ("2", "3"), ("0", "3")],
    )
    if is_chordal(square):
        yield "the 4-cycle is not chordal"
    labels = ["a", "b", "c", "d", "e"]
    complete = Graph(
        Universe(labels),
        ((x, y) for i, x in enumerate(labels) for y in labels[i + 1 :]),
    )
    if not is_chordal(complete):
        yield "complete graphs are chordal"
    if not is_chordal(p6()):
        yield "trees are chordal"


def _check_facet_ideal_trees() -> Iterator[Optional[str]]:
    for graph, name in ((p6(), "path"), (t_a(), "tree"), (twin_broom(), "broom")):
        odd, full = odd_oni(graph), oni(graph)
        if not is_simplicial_tree(SimplicialComplex(odd.universe, odd.generators.masks)):
            yield f"{name}: odd neighborhood generators do not form a simplicial tree"
        both = SimplicialComplex(full.universe, full.generators.masks)
        if not is_simplicial_forest(both) or is_connected_complex(both):
            yield f"{name}: neighborhood generators do not form a disconnected simplicial forest"


# a check is any _check_<id> function, run in definition order; underscores in <id> become dashes
_CHECKS = tuple(
    (n[7:].replace("_", "-"), fn) for n, fn in globals().items() if n.startswith("_check_")
)


def run_verification() -> dict:
    """Run every bundled check; the report is stable across runs."""
    checks = []
    for name, fn in _CHECKS:
        try:
            detail = "; ".join(p for p in fn() if p is not None)
        except Exception as exc:  # a crashed check is a failed check
            detail = f"raised {type(exc).__name__}: {exc}"
        entry = {"id": name, "ok": not detail}
        if detail:
            entry["detail"] = detail
        checks.append(entry)
    failed = sum(not c["ok"] for c in checks)
    return {
        "checks": checks,
        "passed": len(checks) - failed,
        "failed": failed,
        "ok": failed == 0,
    }

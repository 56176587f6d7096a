"""Facet-level simplicial complex tests: kinds, Stanley-Reisner
bridges, vertex decomposability, and the forest/cycle classifiers."""

import dataclasses
import hashlib
import json
from functools import reduce
from operator import and_

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from oni_kit import (
    EMPTY,
    ORDINARY,
    VOID,
    Graph,
    InputError,
    Leaf,
    Shed,
    SimplicialComplex,
    SpernerFamily,
    SquareFreeIdeal,
    Universe,
    cycle_order,
    deletion,
    even_stable_complex,
    facet_ideal,
    find_leaf,
    is_connected_complex,
    is_cycle,
    is_shedding_vertex,
    is_simplicial_forest,
    is_simplicial_tree,
    is_vertex_decomposable,
    join,
    link,
    minimal_odd_td_sets,
    minimal_transversals,
    minimal_vertex_covers,
    odd_oni,
    shedding_certificate_from_json,
    shedding_certificate_to_json,
    stable_complex,
    stanley_reisner_complex,
    stanley_reisner_ideal,
    split,
    validate_shedding_certificate,
)
from oni_kit import complexes as complexes_module
from oni_kit import universe as universe_module

LABELS = tuple("abcdef")
LABELS8 = tuple("abcdefgh")


def cx(labels, facets):
    return SimplicialComplex.from_facets(Universe(labels), facets)


def even_stable_p6():
    # independence-style complex on the even stratum of the 7-vertex path
    return cx(["0", "2", "4", "6"], [["0", "4"], ["0", "6"], ["2", "6"]])


@st.composite
def complexes(draw, max_elems: int = 5, max_facets: int = 5):
    n = draw(st.integers(1, max_elems))
    labels = LABELS[:n]
    count = draw(st.integers(0, max_facets))
    facets = [draw(st.sets(st.sampled_from(labels))) for _ in range(count)]
    return labels, facets


@st.composite
def ordinary_complexes(draw, max_elems: int = 5, max_facets: int = 5):
    labels, facets = draw(complexes(max_elems, max_facets))
    if not any(facets):
        facets.append({labels[0]})
    return labels, facets


@st.composite
def pure_complexes(draw, max_elems: int = 6, max_facets: int = 6):
    n = draw(st.integers(2, max_elems))
    labels = LABELS[:n]
    k = draw(st.integers(1, n))
    count = draw(st.integers(1, max_facets))
    facets = [tuple(draw(st.permutations(labels)))[:k] for _ in range(count)]
    return labels, facets


# ---------------------------------------------------------------------------
# kinds, JSON


def test_kinds_and_absorption():
    assert SimplicialComplex(Universe("ab"), ()).kind == VOID
    assert cx("ab", [[]]).kind == EMPTY
    assert cx("ab", [["a"]]).kind == ORDINARY
    # non-maximal faces and the empty face are absorbed
    merged = cx("abc", [["a", "b"], ["a"], [], ["b"]])
    assert merged.facets.members == (("a", "b"),)
    assert merged.is_pure()
    assert not cx("abc", [["a", "b"], ["c"]]).is_pure()


def test_json_round_trip_and_kind_contradiction():
    original = cx("abcd", [["a", "b"], ["c"]])
    doc = original.to_json_obj()
    assert doc["kind"] == ORDINARY
    assert SimplicialComplex.from_json_obj(doc) == original
    doc["kind"] = "void"
    with pytest.raises(InputError, match="contradicts the facets"):
        SimplicialComplex.from_json_obj(doc)
    with pytest.raises(InputError, match='"universe" and "facets"'):
        SimplicialComplex.from_json_obj({"universe": ["a"]})
    with pytest.raises(InputError, match='"universe" and "facets"'):
        SimplicialComplex.from_json_obj(["a"])


# ---------------------------------------------------------------------------
# deletion, link, join, extension


def test_deletion_and_link_examples():
    point = cx("a", [["a"]])
    assert deletion(point, ["a"]).kind == EMPTY

    stable = even_stable_p6()
    assert link(stable, ["4"]).facets.members == (("0",),)
    assert link(stable, ["0", "4"]).kind == EMPTY  # link of a facet
    assert link(stable, ["2", "4"]).kind == VOID  # not a face
    assert deletion(stable, ["4"]).facets.members == (("0", "6"), ("2", "6"))
    # deleting nothing is the identity
    assert deletion(stable, []) == stable


def test_join_and_degenerate_factors():
    left = cx("ab", [["a"], ["b"]])
    right = cx("xy", [["x", "y"]])
    product = join(left, right)
    assert product.universe.labels == ("a", "b", "x", "y")
    assert product.facets.members == (("a", "x", "y"), ("b", "x", "y"))

    combined = product.universe
    assert join(left, cx("xy", [[]])) == left.extended_to(Universe("abxy"))
    assert join(left, SimplicialComplex(Universe("xy"), ())).kind == VOID
    with pytest.raises(InputError, match="disjoint universes; shared: b"):
        join(left, cx("bc", [["b"]]))
    assert combined.labels == ("a", "b", "x", "y")


def test_extended_to():
    small = cx("ab", [["a", "b"]])
    wide = small.extended_to(Universe("abc"))
    assert wide.universe.labels == ("a", "b", "c")
    assert wide.facets.members == (("a", "b"),)
    with pytest.raises(InputError, match="missing label 'b'"):
        small.extended_to(Universe("ac"))


# ---------------------------------------------------------------------------
# Stanley-Reisner bridges


def test_stanley_reisner_degenerate_pairs():
    universe = Universe("abc")
    assert stanley_reisner_ideal(SimplicialComplex(universe, ())).is_unit
    assert stanley_reisner_ideal(cx("abc", [["a", "b", "c"]])).is_zero
    all_vars = stanley_reisner_ideal(cx("abc", [[]]))
    assert all_vars.generators.members == (("a",), ("b",), ("c",))
    assert stanley_reisner_complex(all_vars).kind == EMPTY
    assert stanley_reisner_complex(SquareFreeIdeal.from_supports(universe, [])).kind == ORDINARY


def test_stanley_reisner_example():
    path = cx("abc", [["a", "b"], ["b", "c"]])
    ideal = stanley_reisner_ideal(path)
    assert ideal.generators.members == (("a", "c"),)
    assert stanley_reisner_complex(ideal) == path


@given(complexes())
@settings(max_examples=150, deadline=None)
def test_stanley_reisner_round_trip_from_complex(case):
    labels, facets = case
    complex_ = cx(labels, facets)
    assert stanley_reisner_complex(stanley_reisner_ideal(complex_)) == complex_


@given(complexes())
@settings(max_examples=150, deadline=None)
def test_stanley_reisner_round_trip_from_ideal(case):
    labels, supports = case
    ideal = SquareFreeIdeal.from_supports(Universe(labels), supports)
    assert stanley_reisner_ideal(stanley_reisner_complex(ideal)) == ideal


@st.composite
def consolidation_cases(draw):
    """Labels, sets over them (any of them may be empty), extra labels for a
    wider universe, edges over the labels, and a complex on other labels."""
    n = draw(st.integers(0, 5))
    labels = LABELS[:n]
    member = st.sets(st.sampled_from(labels)) if labels else st.just(set())
    sets = [sorted(s) for s in draw(st.lists(member, max_size=5))]
    extra = tuple(sorted(draw(st.sets(st.sampled_from("uvwxyz")))))
    pairs = st.lists(st.tuples(st.sampled_from(labels), st.sampled_from(labels)), max_size=6)
    edges = [e for e in draw(pairs) if e[0] != e[1]] if labels else []
    other = draw(st.lists(st.sets(st.sampled_from("UVW")), max_size=3))
    return labels, sets, extra, edges, [sorted(f) for f in other]


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except InputError as exc:
        return "error", str(exc)


@given(consolidation_cases())
@settings(max_examples=300, deadline=None)
@example(((), [], (), [], []))  # empty universe: zero ideal, void complex
@example((("a", "b"), [], ("x",), [], [[]]))  # zero ideal, void complex, two isolated vertices
@example((("a", "b"), [[]], ("x",), [("a", "b")], [["U"]]))  # unit ideal, EMPTY complex
@example((("a", "b", "c"), [["a"], ["a", "b"]], (), [("a", "b")], []))  # no antichain; c isolated
@example((("a", "b", "c"), [["a", "b"], ["a", "b"]], ("x",), [("a", "b"), ("b", "c")], []))
def test_consolidated_steps_match_their_older_forms(case):
    """The Stanley-Reisner complement step, universe extension, join and the
    antichain test agree with the forms they replaced in tests/oracles.py,
    including on unit, zero, void and empty inputs and on graphs with
    isolated vertices.  Every family the kernels store without a check is
    the one the validating constructor builds from its masks: sums,
    intersections, splits at every variable (used or not), both
    Stanley-Reisner directions, both extensions and both stable complexes."""
    labels, sets, extra, edges, other = case
    universe = Universe(labels)
    ideal = SquareFreeIdeal.from_supports(universe, sets)
    complex_ = SimplicialComplex.from_facets(universe, sets)
    ideals = (
        ideal,
        SquareFreeIdeal.from_supports(universe, edges),
        SquareFreeIdeal.zero(universe),
        SquareFreeIdeal.unit(universe),
    )
    complexes = (complex_, SimplicialComplex(universe, ()), SimplicialComplex(universe, (0,)))
    built = [complex_.facets]
    for one in ideals:
        sr_complex = stanley_reisner_complex(one)
        assert sr_complex == oracles.reference_stanley_reisner_complex(one)
        built += [one.generators, minimal_transversals(one.generators), sr_complex.facets]
        for two in ideals:
            built += [one.sum(two).generators, one.intersect(two).generators]
        for y in labels:
            parts = split(one, y)
            assert parts == oracles.reference_split(one, y)
            built += [part.generators for part in parts]
    for complex_one in complexes:
        sr_ideal = stanley_reisner_ideal(complex_one)
        assert sr_ideal == oracles.reference_stanley_reisner_ideal(complex_one)
        built.append(sr_ideal.generators)
    deduplicated = list({frozenset(s) for s in sets})
    rejected = outcome(SpernerFamily.from_sets, universe, sets)[0] == "error"
    assert rejected == (not oracles.reference_is_sperner(universe, deduplicated))
    for target in (Universe(labels + extra), Universe(labels[1:] + extra)):
        got = outcome(ideal.extended_to, target)
        assert got == outcome(oracles.reference_ideal_extended_to, ideal, target)
        if got[0] == "ok":
            built.append(got[1].generators)
        got = outcome(complex_.extended_to, target)
        assert got == outcome(oracles.reference_complex_extended_to, complex_, target)
        if got[0] == "ok":
            built.append(got[1].facets)
    right = cx("UVW", other)
    for left in (complex_, right):
        assert outcome(join, left, right) == outcome(oracles.reference_join, left, right)
    graph = Graph(universe, edges)
    stable = stable_complex(graph)
    assert stable == oracles.reference_stable_complex(graph)
    built.append(stable.facets)
    even = outcome(even_stable_complex, graph)
    assert even == outcome(oracles.reference_even_stable_complex, graph)
    if even[0] == "ok":
        built.append(even[1].facets)
    for family in built:
        assert SpernerFamily(family.universe, family.masks) == family
        assert all(m >> len(family.universe) == 0 for m in family.masks)


def test_kernel_families_skip_the_validating_constructor(monkeypatch):
    """On the 31-vertex grown tree random.Random(14), the odd ideal, its
    minimal odd TD-sets, both stable complexes, the Stanley-Reisner ideal
    and every split are built with no validating SpernerFamily and no
    maximal_masks pass: the kernels that made them own their order."""
    tree = oracles.seeded_grown_tree(14)
    calls = {"SpernerFamily": 0, "maximal_masks": 0}
    validate = SpernerFamily.__init__
    maximal = universe_module.maximal_masks

    def counted_init(self, *args):
        calls["SpernerFamily"] += 1
        validate(self, *args)

    def counted_maximal(masks):
        calls["maximal_masks"] += 1
        return maximal(masks)

    monkeypatch.setattr(SpernerFamily, "__init__", counted_init)
    for module in (universe_module, complexes_module):
        monkeypatch.setattr(module, "maximal_masks", counted_maximal)
    ideal = odd_oni(tree)
    assert len(minimal_odd_td_sets(tree)) == 472
    even = even_stable_complex(tree)
    stable_complex(tree)
    assert stanley_reisner_ideal(even) == ideal
    for y in ideal.universe.labels:
        split(ideal, y)
    assert calls == {"SpernerFamily": 0, "maximal_masks": 0}
    # the counters do see the validating paths
    SimplicialComplex(ideal.universe, ())
    SpernerFamily(ideal.universe, ())
    assert calls == {"SpernerFamily": 1, "maximal_masks": 1}


# ---------------------------------------------------------------------------
# facet ideals and vertex covers


def test_facet_ideal_and_guards():
    assert facet_ideal(cx("abc", [["a", "b"], ["c"]])).generators.members == (
        ("c",),
        ("a", "b"),
    )
    with pytest.raises(InputError, match="facet ideal needs an ordinary complex"):
        facet_ideal(cx("ab", [[]]))
    with pytest.raises(InputError, match="vertex covers need an ordinary complex"):
        minimal_vertex_covers(SimplicialComplex(Universe("ab"), ()))


@given(ordinary_complexes())
@settings(max_examples=150, deadline=None)
def test_vertex_covers_match_transversal_oracle(case):
    labels, facets = case
    complex_ = cx(labels, facets)
    covers = minimal_vertex_covers(complex_)
    expected = oracles.transversals_oracle(complex_.facets.members)
    assert {frozenset(m) for m in covers.members} == expected


# ---------------------------------------------------------------------------
# shedding vertices and decomposability


def test_shedding_examples():
    stable = even_stable_p6()
    assert is_shedding_vertex(stable, "4")
    assert is_shedding_vertex(stable, "2")
    assert not is_shedding_vertex(stable, "0")
    assert not is_shedding_vertex(cx("abcd", [["a", "b"], ["c", "d"]]), "a")
    assert not is_shedding_vertex(cx("ab", [["a", "b"]]), "a")
    with pytest.raises(InputError, match="shedding test needs an ordinary complex"):
        is_shedding_vertex(cx("ab", [[]]), "a")
    with pytest.raises(InputError, match="unknown label"):
        is_shedding_vertex(even_stable_p6(), "z")


def test_decomposability_base_cases():
    void = SimplicialComplex(Universe("ab"), ())
    ok, cert = is_vertex_decomposable(void)
    assert ok and cert == Leaf("empty")
    assert validate_shedding_certificate(void, cert)

    empty = cx("ab", [[]])
    ok, cert = is_vertex_decomposable(empty)
    assert ok and cert == Leaf("simplex")
    assert validate_shedding_certificate(empty, cert)
    assert not validate_shedding_certificate(void, Leaf("simplex"))

    mixed = cx("abc", [["a", "b"], ["c"]])
    with pytest.raises(InputError, match="pure complexes"):
        is_vertex_decomposable(mixed)
    # c sheds and both leaves match, but replay checks purity at the root
    assert is_shedding_vertex(mixed, "c")
    assert not validate_shedding_certificate(mixed, Shed("c", Leaf("simplex"), Leaf("empty")))


def test_decomposability_with_certificate():
    stable = even_stable_p6()
    ok, cert = is_vertex_decomposable(stable)
    assert ok
    # canonically first witness sheds the smallest workable label
    assert isinstance(cert, Shed) and cert.vertex == "2"
    assert validate_shedding_certificate(stable, cert)
    # replay against the wrong complex fails
    assert not validate_shedding_certificate(cx("ab", [["a"], ["b"]]), cert)
    # tampering with the shed vertex fails
    forged = Shed("0", cert.deletion, cert.link)
    assert not validate_shedding_certificate(stable, forged)
    # nodes that are not certificates, or shed no vertex of the complex,
    # are rejected, not raised on
    malformed = [
        None,
        "simplex",
        Shed(cert.vertex, None, cert.link),
        Shed(cert.vertex, cert.deletion, "empty"),
        Shed([cert.vertex], cert.deletion, cert.link),
        Shed("z", cert.deletion, cert.link),
        Shed(2, cert.deletion, cert.link),
    ]
    for node in malformed:
        assert validate_shedding_certificate(stable, node) is False
    assert validate_shedding_certificate(cx("ab", [["a", "b"]]), Leaf("cone")) is False


def shedding_witness(complex_):
    """A certificate whose Shed nodes all pass the literal shedding test
    and whose leaves all match, found in label order without regard to
    purity; None when there is none."""
    if complex_.kind != ORDINARY:
        return Leaf("empty")
    if len(complex_.facets.masks) == 1:
        return Leaf("simplex")
    for v in complex_.universe.labels:
        is_vertex = any(v in f for f in complex_.facets.members)
        if is_vertex and oracles.reference_is_shedding_vertex(complex_, v):
            cert_del = shedding_witness(deletion(complex_, [v]))
            cert_link = shedding_witness(link(complex_, [v]))
            if cert_del is not None and cert_link is not None:
                return Shed(v, cert_del, cert_link)
    return None


def forged_shedding_certificates(complex_, cert):
    """The certificate with its branches swapped, and with each other root
    vertex."""
    if isinstance(cert, Shed):
        yield Shed(cert.vertex, cert.link, cert.deletion)
        for v in complex_.universe.labels:
            if v != cert.vertex:
                yield Shed(v, cert.deletion, cert.link)


shedding_certificates = st.recursive(
    st.sampled_from([Leaf("simplex"), Leaf("empty")]),
    lambda kids: st.builds(Shed, st.sampled_from(LABELS), kids, kids),
    max_leaves=10,
)


@given(complexes(), complexes(), shedding_certificates)
@settings(max_examples=300, deadline=None)
def test_shedding_matches_reference(case, other, random_cert):
    # complexes() draws non-pure complexes too
    complex_ = cx(*case)
    if complex_.kind == ORDINARY:
        for v in complex_.universe.labels:
            assert is_shedding_vertex(complex_, v) == (
                oracles.reference_is_shedding_vertex(complex_, v)
            )
    candidates = [random_cert]
    for source in (complex_, cx(*other)):
        witness = shedding_witness(source)
        if witness is not None:
            candidates += [witness, *forged_shedding_certificates(complex_, witness)]
        if source.is_pure():
            _, cert = is_vertex_decomposable(source)
            if cert is not None:
                candidates += [cert, *forged_shedding_certificates(complex_, cert)]
    for candidate in candidates:
        assert validate_shedding_certificate(complex_, candidate) == (
            oracles.reference_validate_shedding_certificate(complex_, candidate)
        )


@given(pure_complexes(), st.sampled_from(("A", "cc", "z")))
@settings(max_examples=200, deadline=None)
def test_cone_points_never_shed(case, apex):
    # The cone over a drawn pure complex at a fresh apex, first, inside or
    # last in label order: with two or more facets, no vertex that lies in
    # every facet sheds, which lets the VD search skip them.
    labels, facets = case
    complex_ = cx([*labels, apex], [[*f, apex] for f in facets])
    assume(len(complex_.facets.masks) >= 2)
    cones = complex_.universe.labels_of(reduce(and_, complex_.facets.masks))
    assert apex in cones
    for v in cones:
        assert not is_shedding_vertex(complex_, v)
        assert not oracles.reference_is_shedding_vertex(complex_, v)


def all_pure_complexes(n):
    from itertools import combinations

    labels = LABELS[:n]
    for k in range(1, n + 1):
        subsets = list(combinations(labels, k))
        for pick in range(1, 1 << len(subsets)):
            chosen = [subsets[i] for i in range(len(subsets)) if pick >> i & 1]
            yield labels, chosen


@pytest.mark.parametrize("n", [2, 3, 4])
def test_decomposability_exhaustive_small(n):
    for labels, facets in all_pure_complexes(n):
        complex_ = cx(labels, facets)
        ok, cert = is_vertex_decomposable(complex_)
        assert ok == oracles.vd_oracle(
            frozenset(frozenset(f) for f in facets)
        ), facets
        if ok:
            assert validate_shedding_certificate(complex_, cert)


@given(pure_complexes())
@settings(max_examples=120, deadline=None)
def test_decomposability_random_matches_oracle(case):
    labels, facets = case
    complex_ = cx(labels, facets)
    ok, cert = is_vertex_decomposable(complex_)
    assert ok == oracles.vd_oracle(frozenset(frozenset(f) for f in facets))
    if ok:
        assert validate_shedding_certificate(complex_, cert)


def shedding_digest(found):
    """The first 16 hex digits of the sha256 of the canonical JSON of a
    search's verdict and its certificate with every repeated node object
    replaced by the index of its first appearance, which fixes the
    certificate and its sharing."""
    seen = {}

    def shape(node):
        if id(node) in seen:
            return seen[id(node)]
        seen[id(node)] = len(seen)
        if isinstance(node, Leaf):
            return node.kind
        return node.vertex, shape(node.deletion), shape(node.link)

    ok, cert = found
    text = json.dumps([ok, None if cert is None else shape(cert)], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


SHEDDING_DIGESTS = {
    "even_stable-0": "a47e226541d3bc92", "even_stable-1": "594d99e08244943c",
    "even_stable-2": "b5a7309140b5e798", "even_stable-3": "396be530acb6df84",
    "even_stable-4": "67545567543df057", "even_stable-5": "10aebb430a8ba3fa",
    "even_stable-6": "e83b6c802504cba3", "even_stable-7": "b71a15743b5f5fb2",
    "even_stable-8": "62ff3af0ec52e6ce", "even_stable-9": "d3c65181a59a82bb",
    "even_stable-10": "c8a86220fa53c1e5", "even_stable-11": "50863ad7d6fed14b",
    "even_stable-12": "8b84c6228a0d0fe7", "even_stable-13": "5b74484613ddabb6",
    "even_stable-14": "fe834cc0ed6bf04b",
}


def test_shedding_certificates_pinned():
    # The first witness the VD search returns, and its sharing, on the even
    # stable complexes of grown trees 0-14 and on 200 seeded pure complexes,
    # 92 of them VD: a faster search must try vertices in the same order.
    # Every leaf is one of the two shared `Leaf`s, one per kind; the
    # certificates are those the search returned with one `Leaf` per
    # memoized facet tuple, with their leaves merged by kind.
    got = {}
    for k in range(15):
        complex_ = even_stable_complex(oracles.seeded_grown_tree(k))
        got[f"even_stable-{k}"] = shedding_digest(is_vertex_decomposable(complex_))
    assert got == SHEDDING_DIGESTS
    found = [is_vertex_decomposable(oracles.seeded_pure_complex(seed)) for seed in range(200)]
    assert sum(ok for ok, _ in found) == 92
    digests = "".join(shedding_digest(one) for one in found)
    assert hashlib.sha256(digests.encode()).hexdigest()[:16] == "45900cb712208b96"


def test_vd_search_tries_no_cone_point(monkeypatch):
    # On grown tree 12's even stable complex (1,152 facets), the search made
    # 6,377 `_shed` calls when it tried cone points, 5,135 of them at one.
    # It now makes 1,242, none at a cone point, and finds the same witness.
    calls = []
    shed = complexes_module._shed

    def counted(facets, bit):
        calls.append((facets, bit))
        return shed(facets, bit)

    monkeypatch.setattr(complexes_module, "_shed", counted)
    found = is_vertex_decomposable(even_stable_complex(oracles.seeded_grown_tree(12)))
    assert shedding_digest(found) == SHEDDING_DIGESTS["even_stable-12"]
    assert not any(reduce(and_, facets) & bit for facets, bit in calls)
    assert len(calls) == 1242


def shedding_json_digest(found):
    """The first 16 hex digits of the sha256 of the compact JSON text of a
    search's certificate, `null` when there is none."""
    _, cert = found
    doc = None if cert is None else shedding_certificate_to_json(cert)
    return hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode()).hexdigest()[:16]


SHEDDING_JSON_DIGESTS = {
    "even_stable-0": "62d0f7135cea77d4", "even_stable-1": "96cb20a7c111f279",
    "even_stable-2": "0b6bdd8fe6070270", "even_stable-3": "b368f5191d963e21",
    "even_stable-4": "f19023ca53dd09d2", "even_stable-5": "726c6f3cea5bf91f",
    "even_stable-6": "6882ac4cabfd2bba", "even_stable-7": "7b614ab183c2e1dd",
    "even_stable-8": "0f629a0ca0c7656b", "even_stable-9": "f42fe5ddcbbc97e4",
    "even_stable-10": "5b0a568c9b0f59e1", "even_stable-11": "e7c6863591473d93",
    "even_stable-12": "20d7909200fed356", "even_stable-13": "c73588b3de7e4056",
    "even_stable-14": "6e4407548fbfd260",
}


def test_shedding_certificate_json_pinned():
    # The JSON text of the certificates of test_shedding_certificates_pinned,
    # byte for byte: the encoder may change how it walks, not what it writes.
    got = {}
    for k in range(15):
        complex_ = even_stable_complex(oracles.seeded_grown_tree(k))
        got[f"even_stable-{k}"] = shedding_json_digest(is_vertex_decomposable(complex_))
    assert got == SHEDDING_JSON_DIGESTS
    digests = "".join(
        shedding_json_digest(is_vertex_decomposable(oracles.seeded_pure_complex(seed)))
        for seed in range(200)
    )
    assert hashlib.sha256(digests.encode()).hexdigest()[:16] == "e54120af4f88a5c7"


def test_shedding_json_encodes_a_shared_node_once():
    shared = Shed("b", Leaf("empty"), Leaf("simplex"))
    doc = shedding_certificate_to_json(Shed("a", shared, shared))
    assert doc["shed"] == "a" and doc["del"] is doc["lk"]
    assert doc["del"] == {"shed": "b", "del": {"leaf": "empty"}, "lk": {"leaf": "simplex"}}


def shed_nodes_and_leaves(cert):
    """The distinct Shed nodes and the Leaf nodes of a certificate."""
    sheds, leaves, stack = {}, {}, [cert]
    while stack:
        node = stack.pop()
        found = sheds if isinstance(node, Shed) else leaves
        if id(node) not in found:
            found[id(node)] = node
            if isinstance(node, Shed):
                stack += (node.deletion, node.link)
    return list(sheds.values()), list(leaves.values())


def test_search_and_decoder_nodes_behave_as_constructed_and_share_leaves():
    # The search and the decoder build each Shed without the frozen
    # dataclass __init__ and return one shared Leaf per kind: the nodes must
    # be those the public constructors build, and still frozen.
    shared_leaves = (complexes_module._LEAVES["simplex"], complexes_module._LEAVES["empty"])
    certs = [is_vertex_decomposable(even_stable_complex(oracles.seeded_grown_tree(k)))[1] for k in range(8)]
    certs += [cert for ok, cert in map(is_vertex_decomposable, map(oracles.seeded_pure_complex, range(200))) if ok]
    certs += [shedding_certificate_from_json(shedding_certificate_to_json(cert)) for cert in certs]
    for cert in certs:
        sheds, leaves = shed_nodes_and_leaves(cert)
        assert all(leaf is shared_leaves[0] or leaf is shared_leaves[1] for leaf in leaves)
        for node in sheds:
            public = Shed(node.vertex, node.deletion, node.link)
            assert type(node) is Shed and vars(node) == vars(public)
            assert node == public and hash(node) == hash(public) and repr(node) == repr(public)
            assert dataclasses.replace(node) == public
            assert dataclasses.replace(node, vertex="z") == Shed("z", node.deletion, node.link)
            with pytest.raises(dataclasses.FrozenInstanceError):
                node.vertex = "z"
    assert is_vertex_decomposable(cx("ab", [[]]))[1] is shared_leaves[0]
    assert shedding_certificate_from_json({"leaf": "empty"}) is shared_leaves[1]


def test_certificate_json_round_trip_and_errors():
    _, cert = is_vertex_decomposable(even_stable_p6())
    doc = shedding_certificate_to_json(cert)
    assert shedding_certificate_from_json(doc) == cert
    with pytest.raises(InputError, match="must be a JSON object"):
        shedding_certificate_from_json(["leaf"])
    with pytest.raises(InputError, match="unknown leaf kind 'cone'"):
        shedding_certificate_from_json({"leaf": "cone"})
    with pytest.raises(InputError, match='"del" and "lk" subtrees'):
        shedding_certificate_from_json({"shed": "a", "del": {"leaf": "empty"}})
    with pytest.raises(InputError, match="shed vertex must be a string"):
        shedding_certificate_from_json(
            {"shed": ["a"], "del": {"leaf": "empty"}, "lk": {"leaf": "empty"}}
        )
    with pytest.raises(InputError, match='"leaf" or "shed"'):
        shedding_certificate_from_json({"vertex": "a"})
    with pytest.raises(InputError, match='"leaf" or "shed"'):
        shedding_certificate_from_json({"leaf": "simplex", "shed": "a"})
    with pytest.raises(InputError, match='"leaf" or "shed"'):
        shedding_certificate_from_json(
            {"shed": "a", "del": {"leaf": "empty"}, "lk": {"leaf": "empty"}, "extra": 0}
        )
    # non-string values must not reach a dict lookup as keys
    with pytest.raises(InputError, match="unknown leaf kind"):
        shedding_certificate_from_json({"leaf": ["simplex"]})
    for doc in (
        {"base": ["unit"]},
        {"base": {}},
        {"split": {"y": ["a"], "C": {"base": "zero"}, "N": {"base": "zero"}}},
    ):
        with pytest.raises(InputError, match='"leaf" or "shed"'):
            shedding_certificate_from_json(doc)


# ---------------------------------------------------------------------------
# forests, trees, cycles


def test_chain_is_a_tree_with_leaf():
    chain = cx("abcdef", [["a", "b", "c"], ["c", "d"], ["d", "e", "f"]])
    assert is_simplicial_forest(chain)
    assert is_simplicial_tree(chain)
    assert find_leaf(chain) == (("a", "b", "c"), ("c", "d"))
    assert cycle_order(chain) is None


def test_forest_need_not_be_connected():
    pair = cx("abcd", [["a", "b"], ["c", "d"]])
    assert is_simplicial_forest(pair)
    assert not is_connected_complex(pair)
    assert not is_simplicial_tree(pair)
    lone = cx("ab", [["a", "b"]])
    assert find_leaf(lone) == (("a", "b"), None)


def test_triangle_is_a_cycle():
    triangle = cx("abc", [["a", "b"], ["a", "c"], ["b", "c"]])
    assert find_leaf(triangle) is None
    assert not is_simplicial_forest(triangle)
    assert is_cycle(triangle)
    assert cycle_order(triangle) == (("a", "b"), ("a", "c"), ("b", "c"))


def test_square_cycle_order_is_circular():
    square = cx("abcd", [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]])
    assert is_cycle(square)
    order = cycle_order(square)
    assert len(order) == 4
    for i, facet in enumerate(order):
        nxt = order[(i + 1) % 4]
        assert set(facet) & set(nxt)
    # two facets can never form a cycle
    assert cycle_order(cx("abc", [["a", "b"], ["b", "c"]])) is None


def test_guards_and_facet_cap():
    with pytest.raises(InputError, match="forest/cycle checks need an ordinary"):
        is_simplicial_forest(cx("ab", [[]]))
    with pytest.raises(InputError, match="leaf search needs an ordinary complex"):
        find_leaf(SimplicialComplex(Universe("ab"), ()))
    crowd = cx("abcde", [["a"], ["b"], ["c"], ["d"], ["e"]])
    assert is_simplicial_forest(crowd)
    # no facet cap: a 200-facet path of triangles and a 40-gon get verdicts
    labels = [f"v{i:03d}" for i in range(401)]
    strip = cx(labels, [labels[2 * i : 2 * i + 3] for i in range(200)])
    assert is_simplicial_tree(strip) and not is_cycle(strip)
    ring = cx(labels[:40], [[labels[i], labels[(i + 1) % 40]] for i in range(40)])
    assert not is_simplicial_forest(ring)
    assert is_cycle(ring) and len(cycle_order(ring)) == 40


@st.composite
def forest_candidates(draw):
    labels = LABELS8[: draw(st.integers(3, 8))]
    count = draw(st.integers(1, 10))
    facets = [draw(st.sets(st.sampled_from(labels))) for _ in range(count)]
    if not any(facets):
        facets.append({labels[0]})
    return labels, facets


@settings(max_examples=300, deadline=None)
@given(forest_candidates())
@example(("abcdef", [["a", "b", "c"], ["c", "d"], ["d", "e", "f"]]))
@example(("abcd", [["a", "b"], ["c", "d"]]))
@example(("abc", [["a", "b"], ["a", "c"], ["b", "c"]]))
@example(("abcd", [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]]))
@example(("abcde", [["a"], ["b"], ["c"], ["d"], ["e"]]))
# leafless, with a circular strong-neighbor order, yet not a cycle:
# bc, abe and cde have no leaf either
@example(("abcde", [["b", "c"], ["a", "b", "e"], ["a", "d", "e"], ["c", "d", "e"]]))
# leafless, and so are the facets after the first, but no other subcollection
@example(("abcdef", [["a", "c", "f"], ["a", "e", "f"], ["b", "c", "f"], ["b", "d", "e"]]))
# a cycle plus a pendant leaf facet: it has a leaf, and one deletion is leafless
@example(("abcd", [["a", "b"], ["b", "c"], ["a", "c"], ["c", "d"]]))
def test_good_leaf_removal_matches_subcollection_oracle(case):
    complex_ = cx(*case)
    facets = complex_.facets.masks
    leafless = oracles.leafless_subcollections(facets)
    forest = not leafless
    cycle = leafless == [(1 << len(facets)) - 1]
    assert is_simplicial_forest(complex_) == forest
    assert is_simplicial_tree(complex_) == (forest and oracles.facets_connected(facets))
    assert is_cycle(complex_) == cycle
    order = cycle_order(complex_)
    if not cycle:
        assert order is None
        return
    # a circular enumeration of every facet in which neighbours meet
    # outside every third facet
    masks = [complex_.universe.mask_of(f) for f in order]
    assert sorted(masks) == sorted(facets)
    for i, f in enumerate(masks):
        g = masks[(i + 1) % len(masks)]
        assert not any(f & g & ~h == 0 for h in masks if h not in (f, g))
